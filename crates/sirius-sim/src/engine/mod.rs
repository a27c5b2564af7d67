//! The slot engine: [`SiriusSim::run`]'s hot loop.
//!
//! One driver, [`SiriusSim::run_loop`], advances the fabric slot by slot:
//! epoch boundary (serial), then one parallel phase per slot in which
//! each shard receives and then transmits on its own node range, then
//! the merges in the pinned order. The phase is broadcast over a generic
//! worker [`pool`]; a serial run is the same code at one shard, where the
//! pool spawns nothing and a broadcast is a plain call. Only Ideal mode
//! is clamped to one shard, because its TX reads and reserves at another
//! node within the slot (see [`tx`]).
//!
//! | Module | Owns | Per-slot work |
//! |--------|------|---------------|
//! | [`pool`] | generation barrier, spin/park waits, panic containment, disjoint-range hand-out | one broadcast |
//! | [`deliver`] | propagation ring, digest, reorder peak (reorder state lives in each flow's slab record) | a shard's receive half: relay into its receivers; every other arrival effect merged in due order (with its probes) |
//! | [`tx`] | CC-mode dispatch (an Ideal launch reserves at its intermediate) | a shard's send half: per-(node, uplink) transmit by its senders, shard-order merge (with its probes) |
//! | [`fault`] | fault script, crash ground truth, active windows, report; stages repairs into the schedule overlay (the one routing view) | mistune pre-pass; per epoch, the fault boundary |
//! | [`detect`] | silence detectors (§4.5) | keepalive credit (applied at the TX merge) |
//! | [`observer`] | the audit's probe points, fired on the main thread only | nothing unless the audit is on |
//!
//! Sharded runs are byte-identical to one-shard runs because the phase
//! writes only node state, and a shard owns its nodes for the whole
//! slot, first as receivers, then as senders: TX at a node sees exactly
//! that node's arrivals, and all else it reads is frozen for the slot
//! (shared borrows, flow records included — the compiler checks it).
//! Every other effect is buffered per shard and merged on the main
//! thread, arrivals by due index, then TX outputs in shard order; see
//! [`deliver`] and [`tx`]. The barrier fires per *slot*, not per epoch:
//! a cell launched at slot `s` is delivered at `s + prop_slots`, inside
//! the same epoch whenever propagation is shorter than an epoch (it
//! always is at paper scale). DESIGN.md decision #10 records the
//! measured per-slot cost.
//!
//! Two structural decisions buy the engine its throughput without
//! touching behavior (the golden digests pin this):
//!
//! * **Observer monomorphization** ([`observer`]): the invariant audit
//!   reaches the loop through [`SlotObserver`]; the release path runs the
//!   [`NullObserver`] instantiation where every probe compiles away. The
//!   range functions fire no probe: the phase records what the audit
//!   needs in its per-shard outputs and the serial merges fire the
//!   probes, so an audited run shards like any other.
//! * **Fault-free is the `None` arm of one body**: both halves read
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
//! Per-slot invariants are hoisted: destinations and scheduled-peer
//! masks are rows of the base [`Schedule`](sirius_core::schedule::Schedule),
//! which stores the §4.2 rotation itself (a column base per uplink plus
//! a per-node rotation) and proves every slot a permutation (no RX port
//! driven twice) when it is built; the epoch-slot cursor and both ring
//! indices advance incrementally.

pub(crate) mod deliver;
pub(crate) mod detect;
pub(crate) mod fault;
pub(crate) mod observer;
#[allow(unsafe_code)]
pub(crate) mod pool;
pub(crate) mod tx;

pub(crate) use deliver::DeliverPlane;
pub(crate) use detect::DetectPlane;
pub(crate) use fault::FaultPlane;
pub(crate) use observer::{NullObserver, SlotObserver};

use crate::audit::LossCause;
use crate::sirius_net::{CcMode, FlowTable, SiriusSim, StreamSource};
use deliver::{deliver_range, Arrival};
use pool::Disjoint;
use sirius_core::cell::Cell;
use sirius_core::repair::AdjustedSchedule;
use sirius_core::schedule::SlotInEpoch;
use sirius_core::topology::NodeId;
use sirius_core::units::Time;
use sirius_workload::Flow;
use std::time::Duration;
use tx::tx_range;

/// Hard cap on simulated slots (a safety net no run reaches).
const MAX_SLOTS: u64 = 200_000_000;

/// Per-plane wall-clock accumulators, populated only when
/// [`crate::SiriusSimConfig::plane_timing`] is on (surfaced as the
/// `*_secs` fields of [`crate::RunMetrics`]). Per slot, `deliver` adds
/// the slowest shard's receive half and `tx` the rest of the phase (send
/// halves and barrier wait): at one shard, exactly the two calls.
/// `merge` covers the serial merges. The other four split the serial
/// epoch boundary, from clock reads taken at the boundary only: the
/// fault pipeline, flow admission, server injection, and the
/// request/grant round.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PlaneTimes {
    pub tx: Duration,
    pub deliver: Duration,
    pub merge: Duration,
    pub fault_boundary: Duration,
    pub admit: Duration,
    pub inject: Duration,
    pub cc: Duration,
}

/// Frozen slot inputs of the phase, shared by every shard.
pub(crate) struct SlotCtx<'a> {
    pub mode: CcMode,
    pub sched: &'a AdjustedSchedule,
    /// The fault plane when a script is armed; `None` is the fault-free
    /// run, in which every keepalive arrives.
    pub faults: Option<&'a FaultPlane>,
    pub has_link_faults: bool,
    /// Flow records and servers per node, for the Byzantine filter.
    pub flows: &'a FlowTable,
    pub spn: u32,
    /// The slot's epoch position, and that of the arrivals' launch.
    pub t: SlotInEpoch,
    pub launch_t: u16,
}

/// One shard's output of a slot, merged on the main thread. Buffers keep
/// their capacity across slots.
#[derive(Debug, Default)]
pub(crate) struct ShardOut {
    /// (due index, [`Arrival`]) of the shard's receivers, in due order,
    /// and the due-order merge's read position in them.
    pub arrivals: Vec<(u32, Arrival)>,
    pub cursor: usize,
    /// Wall time of the receive half (plane timing only).
    pub deliver_time: Duration,
    /// Cells launched this slot, in (node, uplink) order. The RX uplink
    /// rides along so the delivery side can name the slot's scheduled
    /// transmitter (Byzantine attribution).
    pub ring: Vec<(NodeId, u16, Cell)>,
    /// Detector credit: (sender, uplink, receiver), in (node, uplink)
    /// order. `arrival_epoch` is slot-wide, so it is not stored per entry.
    pub credits: Vec<(NodeId, u16, NodeId)>,
    /// Data cells destroyed in flight, in (node, uplink) order: (cause,
    /// blamed node, sender, uplink). The blamed node is the sender for
    /// its own grey link or mistuned laser, else the mistuned stray.
    pub lost: Vec<(LossCause, NodeId, NodeId, u16)>,
    /// Byzantine nodes that launched a counterfeit this slot, one entry
    /// per counterfeit (the cells themselves ride `ring`).
    pub forged: Vec<NodeId>,
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
fn lap(acc: &mut Duration, m: Option<std::time::Instant>) {
    if let Some(t) = m {
        *acc += t.elapsed();
    }
}

/// Charge the time since `m` to `acc` and restart `m` from the same
/// clock read, so consecutive stages tile an interval with one read each.
#[inline]
pub(crate) fn split(acc: &mut Duration, m: &mut Option<std::time::Instant>) {
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
    /// Probes fire on this thread only, never inside a phase.
    /// The shard count comes from the config, clamped to one in Ideal
    /// mode (see [`tx`] for why).
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
        let mode = self.cfg.mode;
        let n = self.nodes.len();

        // Ideal's TX reads and reserves at another node within the slot
        // (see [`tx`]): that is the one reason it runs one shard.
        let shards = if mode == CcMode::Ideal {
            1
        } else {
            self.cfg.shards.clamp(1, n.max(1))
        };
        // Contiguous node ranges `[cuts[s], cuts[s + 1])`; the merges
        // visit shards in order, reproducing the serial node order.
        let cuts: Vec<usize> = (0..=shards).map(|s| s * n / shards).collect();
        // One output buffer per shard, handed out like any other range
        // (`[s, s + 1)` of this array) and reused per slot.
        let unit: Vec<usize> = (0..=shards).collect();
        let mut outs: Vec<ShardOut> = (0..shards).map(|_| ShardOut::default()).collect();

        let mut abs_slot: u64 = 0;
        // Hoisted per-slot derivations: the epoch-slot cursor, the epoch
        // counter and the drain-side ring cursor advance incrementally
        // instead of re-deriving div/mod every slot.
        let mut t: u64 = 0;
        let mut cur_epoch: u64 = 0;
        let mut ring_idx: usize = 0;

        pool::scoped(shards, |pool| {
            while !src.finished(&self.flows, self.delivery.completed) && abs_slot < MAX_SLOTS {
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

                // The phase: each shard receives this slot's arrivals at
                // its nodes, then transmits from them. Take-and-put-back
                // so each ring slot's buffer keeps its warmed-up capacity
                // instead of reallocating every lap. Cells draining now
                // were launched `prop_slots` ago; their slot-in-epoch
                // names the scheduled transmitter for the Byzantine RX
                // filter. (Wrapping is harmless: warmup ring slots are
                // empty.)
                let launch_t = (abs_slot.wrapping_sub(prop_slots) % epoch_slots) as u16;
                let mut due = std::mem::take(&mut self.delivery.ring[ring_idx]);
                let slot = SlotInEpoch(t as u16);
                if has_faults && self.faults.active.any_mistune() {
                    // Serial pre-pass: writes the corruption scratch the
                    // send half then only reads.
                    self.faults.mistune_prepass(slot, self.sched.base());
                }
                let m = mark(timing);
                {
                    let ctx = SlotCtx {
                        mode,
                        sched: &self.sched,
                        faults: has_faults.then_some(&self.faults),
                        has_link_faults,
                        flows: &self.flows,
                        spn,
                        t: slot,
                        launch_t,
                    };
                    let nodes = Disjoint::new(&mut self.nodes, &cuts);
                    let rngs = has_faults.then(|| Disjoint::new(&mut self.fault_rngs, &cuts));
                    let outs = Disjoint::new(&mut outs, &unit);
                    let due = &due;
                    pool.broadcast(&|s| {
                        let nodes = nodes.take(s);
                        let rngs = rngs.as_ref().map_or(&mut [][..], |r| r.take(s));
                        let out = &mut outs.take(s)[0];
                        let m = mark(timing);
                        deliver_range(&ctx, cuts[s], nodes, due, &mut out.arrivals);
                        out.deliver_time = m.map_or(Duration::ZERO, |m| m.elapsed());
                        tx_range(&ctx, cuts[s], nodes, rngs, out);
                    });
                }
                if let Some(m) = m {
                    let deliver = outs
                        .iter()
                        .map(|o| o.deliver_time)
                        .fold(Duration::ZERO, Duration::max);
                    self.plane_times.deliver += deliver;
                    self.plane_times.tx += m.elapsed().saturating_sub(deliver);
                }
                let m = mark(timing);
                self.merge_deliveries(&mut outs, now, cur_epoch, obs);
                due.clear();
                self.delivery.ring[ring_idx] = due;
                self.merge_tx(&mut outs, abs_slot, obs);
                if has_faults {
                    self.faults.end_slot();
                }
                lap(&mut self.plane_times.merge, m);

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
            }
            abs_slot
        })
    }
}
