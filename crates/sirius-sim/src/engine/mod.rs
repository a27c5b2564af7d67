//! The slot engine: [`SiriusSim::run`]'s hot loop.
//!
//! One driver, [`SiriusSim::run_loop`], advances the fabric slot by slot:
//! epoch boundary (serial) → deliver phase → TX phase. Each phase is "run
//! the range function on every shard's node range, then merge in the
//! pinned order", broadcast over a generic worker [`pool`]; a serial run
//! is the same code at one shard, where the pool spawns nothing and a
//! broadcast is a plain call.
//!
//! | Module | Owns | Per-slot work |
//! |--------|------|---------------|
//! | [`pool`] | generation barrier, spin/park waits, panic containment, disjoint-range hand-out | two broadcasts |
//! | [`deliver`] | propagation ring, digest, reorder peak (reorder state lives in each flow's slab record) | arrival processing by receiver range, ordered digest merge |
//! | [`tx`] | CC-mode dispatch, ideal shadow occupancy | per-(node, uplink) transmit by sender range, shard-order merge |
//! | [`fault`] | fault script, crash ground truth, active windows, report; stages repairs into the schedule overlay (the one routing view) | mistune pre-pass; per epoch, the fault boundary |
//! | [`detect`] | silence detectors (§4.5) | keepalive credit (applied at the TX merge) |
//! | [`observer`] | the audit's probe points | nothing unless the audit is on |
//! | [`tables`] | precomputed schedule destinations | lookups |
//!
//! Sharded runs are byte-identical to one-shard runs because both phases
//! are partitioned along the axis their effects are local to (receivers
//! for deliver, senders for TX), the inputs they share are frozen for
//! the phase (shared borrows — the compiler checks it), and the
//! cross-shard effects are buffered per shard and merged in an order
//! that reproduces the serial sequence; see [`deliver`] and [`tx`]. The
//! barrier fires per *slot*, not per epoch: a cell launched at slot `s`
//! is delivered at `s + prop_slots`, inside the same epoch whenever
//! propagation is shorter than an epoch (it always is at paper scale),
//! so one slot's TX feeds a later slot's deliver phase in the same
//! epoch. DESIGN.md decision #10 records the measured per-slot cost.
//!
//! Two structural decisions buy the engine its throughput without
//! touching behavior (the golden digests pin this):
//!
//! * **Observer monomorphization** ([`observer`]): the invariant audit
//!   reaches the loop through [`SlotObserver`]; the release path runs the
//!   [`NullObserver`] instantiation where every probe compiles away.
//! * **Fault-free is the `None` arm of one body**: both phases read
//!   fault state only through one `Option<&FaultPlane>` — crash ground
//!   truth included — and a run with an empty fault script hands them
//!   `None`. That arm skips the fault boundary, the crash checks, the
//!   detector credit (1,536 `heard_from` calls per slot at paper scale),
//!   the omission overlay checks and the erasure/corruption lookups,
//!   never builds the N×N detectors, and skips idle nodes outright.
//!   This is sound because every one of those mechanisms is observable
//!   only through scripted faults: with nothing scripted, detectors
//!   would be fed every slot and never ticked, the schedule never
//!   stages an omission, and the protocol RNG stream is untouched either
//!   way (`tests/conformance.rs` pins an armed script in which nothing
//!   fires to the unarmed run). What the armed arm costs is small and
//!   measured — the credit sits inside the TX merge, a few percent of a
//!   faulty run. The expensive part of a faulty run used to be
//!   elsewhere: request generation under a repaired schedule recounted
//!   the eligible intermediates per request drawn (2·N reachability
//!   probes each); that count is now a popcount over cached
//!   reachability rows (`Vlb::pick_masked`, DESIGN.md decision #14).
//!
//! Per-slot invariants are hoisted: destinations come from a
//! precomputed [`DestTable`] row instead of div/mod chains, and the
//! epoch-slot cursor and both ring indices advance incrementally. The
//! table has one form at every scale — a column base per uplink plus a
//! per-node rotation — because the §4.2 schedule *is* a rotation;
//! construction proves that against `Schedule::dest` or panics.

pub(crate) mod deliver;
pub(crate) mod detect;
pub(crate) mod fault;
pub(crate) mod observer;
#[allow(unsafe_code)]
pub(crate) mod pool;
pub(crate) mod tables;
pub(crate) mod tx;

pub(crate) use deliver::DeliverPlane;
pub(crate) use detect::DetectPlane;
pub(crate) use fault::FaultPlane;
pub(crate) use observer::{NullObserver, SlotObserver};
pub(crate) use tables::DestTable;
pub(crate) use tx::TxPlane;

use crate::sirius_net::{CcMode, SiriusSim, StreamSource};
use deliver::{deliver_range, DeliverCtx, DeliverOut};
use pool::{lock, Disjoint};
use sirius_core::schedule::SlotInEpoch;
use sirius_core::units::Time;
use sirius_workload::Flow;
use std::sync::Mutex;
use tx::{tx_range, ShardOut, TxCtx};

/// Per-plane wall-clock accumulators, populated only when
/// [`crate::SiriusSimConfig::plane_timing`] is on (surfaced as the
/// `*_secs` fields of [`crate::RunMetrics`]). `deliver` and `tx` cover
/// the two broadcast phases including their barrier waits, `merge` the
/// serial epilogues (ordered digest fold, eviction replay, cross-shard
/// effect application, TX-output merge). The other four split the serial
/// epoch boundary, from clock reads taken at the boundary only: the
/// fault pipeline, flow admission, server injection, and the
/// request/grant round.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PlaneTimes {
    pub tx: std::time::Duration,
    pub deliver: std::time::Duration,
    pub merge: std::time::Duration,
    pub fault_boundary: std::time::Duration,
    pub admit: std::time::Duration,
    pub inject: std::time::Duration,
    pub cc: std::time::Duration,
}

/// Start a per-plane wall-clock mark. `None` when timing is off, so the
/// default path never touches the clock (a syscall per slot would cost
/// more than some planes do).
#[inline]
fn mark(timing: bool) -> Option<std::time::Instant> {
    timing.then(std::time::Instant::now)
}

/// Close a mark opened by [`mark`] into an accumulator.
#[inline]
fn lap(acc: &mut std::time::Duration, m: Option<std::time::Instant>) {
    if let Some(t) = m {
        *acc += t.elapsed();
    }
}

/// Charge the time since `m` to `acc` and restart `m` from the same
/// clock read, so consecutive stages tile an interval with one read each.
#[inline]
pub(crate) fn split(acc: &mut std::time::Duration, m: &mut Option<std::time::Instant>) {
    if let Some(t) = m {
        let now = std::time::Instant::now();
        *acc += now - *t;
        *t = now;
    }
}

impl SiriusSim {
    /// The slot loop. Returns the absolute slot count at exit.
    ///
    /// Monomorphized per observer: the audited instantiation feeds the
    /// invariant audit, the [`NullObserver`] one is the release path.
    /// The shard count comes from the config, clamped to one when the
    /// observer is enabled or the mode is Ideal (see [`tx`] for why).
    pub(crate) fn run_loop<I: Iterator<Item = Flow>, O: SlotObserver>(
        &mut self,
        src: &mut StreamSource<I>,
        obs: &mut O,
    ) -> u64 {
        let slot_ps = self.cfg.network.slot().as_ps();
        let epoch_slots = self.cfg.network.epoch_slots();
        let ring_len = self.delivery.ring.len();
        let prop_slots = self.prop_slots as u64;
        let has_faults = !self.faults.injector.is_empty();
        let has_link_faults = self.faults.injector.has_link_faults();
        let timing = self.cfg.plane_timing;
        let spn = self.cfg.network.servers_per_node as u32;
        let mode = self.tx.mode;
        let n = self.nodes.len();

        let shards = if O::ENABLED || mode == CcMode::Ideal {
            1
        } else {
            self.cfg.shards.clamp(1, n.max(1))
        };
        // Contiguous node ranges `[cuts[s], cuts[s + 1])`; the merges
        // visit shards in order, reproducing the serial node order.
        let cuts: Vec<usize> = (0..=shards).map(|s| s * n / shards).collect();
        // One output buffer per shard and phase, handed out like any
        // other range (`[s, s + 1)` of these arrays) and reused per slot.
        let unit: Vec<usize> = (0..=shards).collect();
        let mut touts: Vec<ShardOut> = (0..shards).map(|_| ShardOut::default()).collect();
        let mut douts: Vec<DeliverOut> = (0..shards).map(|_| DeliverOut::default()).collect();
        let mut cursors = vec![0usize; shards];

        let mut abs_slot: u64 = 0;
        // Hoisted per-slot derivations: the epoch-slot cursor, the epoch
        // counter and both ring cursors advance incrementally instead of
        // re-deriving div/mod every slot.
        let mut t: u64 = 0;
        let mut cur_epoch: u64 = 0;
        let mut ring_idx: usize = 0;
        let mut arrive_idx: usize = (prop_slots % ring_len as u64) as usize;

        pool::scoped(shards, |pool| {
            while !src.finished(&self.flows, self.delivery.completed)
                && abs_slot < self.cfg.max_slots
            {
                let now = Time::from_ps(abs_slot * slot_ps);
                if now > src.deadline() {
                    break;
                }
                if t == 0 {
                    let mut clock = mark(timing);
                    if has_faults {
                        self.fault_boundary(cur_epoch, obs);
                        split(&mut self.plane_times.fault_boundary, &mut clock);
                    }
                    self.epoch_boundary(cur_epoch, now, src, obs, &mut clock);
                    if O::ENABLED {
                        let in_flight = self.delivery.ring.iter().map(|v| v.len() as u64).sum();
                        obs.epoch_check(cur_epoch, &self.nodes, in_flight);
                    }
                }

                // Deliver phase: cells whose propagation completes this
                // slot, partitioned by receiver. Take-and-put-back so
                // each ring slot's buffer keeps its warmed-up capacity
                // instead of reallocating every lap. Cells draining now
                // were launched `prop_slots` ago; their slot-in-epoch
                // names the scheduled transmitter for the Byzantine RX
                // filter. (Wrapping is harmless: warmup ring slots are
                // empty.)
                let launch_t = (abs_slot.wrapping_sub(prop_slots) % epoch_slots) as u16;
                let mut due = std::mem::take(&mut self.delivery.ring[ring_idx]);
                if !due.is_empty() {
                    let m = mark(timing);
                    {
                        let ctx = DeliverCtx {
                            mode,
                            faults: has_faults.then_some(&self.faults),
                            has_link_faults,
                            flows: self.flows.element_view(),
                            sched: &self.sched,
                            spn,
                            launch_t,
                            now,
                            epoch: cur_epoch,
                        };
                        let nodes = Disjoint::new(&mut self.nodes, &cuts);
                        let outs = Disjoint::new(&mut douts, &unit);
                        let lead = Mutex::new(&mut *obs);
                        pool.broadcast(&|s| {
                            let (lo, hi) = (cuts[s] as u32, cuts[s + 1] as u32);
                            let nodes = nodes.take(s);
                            let out = &mut outs.take(s)[0];
                            if s == 0 {
                                let obs = &mut **lock(&lead);
                                deliver_range(&ctx, lo, hi, nodes, &due, out, obs);
                            } else {
                                let obs = &mut NullObserver;
                                deliver_range(&ctx, lo, hi, nodes, &due, out, obs);
                            }
                        });
                    }
                    lap(&mut self.plane_times.deliver, m);
                    let m = mark(timing);
                    self.merge_deliveries(&mut douts, &mut cursors, now, obs);
                    lap(&mut self.plane_times.merge, m);
                    due.clear();
                }
                self.delivery.ring[ring_idx] = due;

                // TX phase, partitioned by sender.
                let slot = SlotInEpoch(t as u16);
                if has_faults && self.faults.active.any_mistune() {
                    // Serial pre-pass: writes the corruption scratch the
                    // TX phase then only reads.
                    self.faults
                        .mistune_prepass(abs_slot, slot, &self.tables, obs);
                }
                let m = mark(timing);
                {
                    let ctx = TxCtx {
                        mode,
                        tables: &self.tables,
                        sched: &self.sched,
                        faults: has_faults.then_some(&self.faults),
                        abs_slot,
                        t: slot,
                        epoch: cur_epoch,
                    };
                    let nodes = Disjoint::new(&mut self.nodes, &cuts);
                    let rngs = has_faults.then(|| Disjoint::new(&mut self.fault_rngs, &cuts));
                    let outs = Disjoint::new(&mut touts, &unit);
                    let lead = Mutex::new((&mut *obs, &mut self.tx));
                    pool.broadcast(&|s| {
                        let nodes = nodes.take(s);
                        let rngs = rngs.as_ref().map_or(&mut [][..], |r| r.take(s));
                        let out = &mut outs.take(s)[0];
                        if s == 0 {
                            let (obs, ideal) = &mut *lock(&lead);
                            tx_range(&ctx, cuts[s], nodes, rngs, Some(ideal), out, &mut **obs);
                        } else {
                            tx_range(&ctx, cuts[s], nodes, rngs, None, out, &mut NullObserver);
                        }
                    });
                }
                lap(&mut self.plane_times.tx, m);
                let m = mark(timing);
                // Receptions this slot reach the detectors when the light
                // lands, one propagation later.
                self.merge_tx(
                    &mut touts,
                    arrive_idx,
                    (abs_slot + prop_slots) / epoch_slots,
                );
                if has_faults {
                    self.faults.end_slot();
                }
                lap(&mut self.plane_times.merge, m);
                obs.end_slot();

                abs_slot += 1;
                t += 1;
                if t == epoch_slots {
                    t = 0;
                    cur_epoch += 1;
                }
                ring_idx += 1;
                if ring_idx == ring_len {
                    ring_idx = 0;
                }
                arrive_idx += 1;
                if arrive_idx == ring_len {
                    arrive_idx = 0;
                }
            }
            abs_slot
        })
    }
}
