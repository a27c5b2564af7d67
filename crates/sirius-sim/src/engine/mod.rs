//! The slot engine: [`SiriusSim::run`]'s hot loop.
//!
//! One serial driver, [`SiriusSim::run_loop`], advances the fabric slot
//! by slot. Each slot is:
//!
//! 1. the epoch boundary, at an epoch's first slot;
//! 2. the receive pass ([`deliver`]) over the due list, applying each
//!    arrival's full effect in due order: relay enqueue, reorder accept,
//!    digest, completion, eviction, fault counters;
//! 3. the mistune pre-pass ([`fault`]);
//! 4. the transmit pass ([`tx`]) over every node in (node, uplink)
//!    order, pushing each launched cell straight into its arrival ring
//!    slot and crediting the detectors.
//!
//! Audit probes fire where each event happens.
//!
//! | Module | Owns | Per-slot work |
//! |--------|------|---------------|
//! | [`deliver`] | propagation ring, digest, reorder peak (reorder state lives in each flow's slab record) | the receive pass (with its probes) |
//! | [`tx`] | CC-mode dispatch (an Ideal launch reserves at its intermediate) | the transmit pass (with its probes) |
//! | [`fault`] | fault script, crash ground truth, active windows, report; stages repairs into the schedule overlay (the one routing view) | mistune pre-pass; per epoch, the fault boundary |
//! | [`detect`] | silence detectors (§4.5) | keepalive credit (from the transmit pass) |
//! | [`observer`] | the audit's probe points | nothing unless the audit is on |
//!
//! The racks of §4 run their schedules independently; the simulator
//! reproduces their joint behaviour one slot at a time on one thread.
//! Parallelism lives a layer up, across runs (the bench harness's
//! `--jobs`); DESIGN.md decision #10 records the measurement behind
//! that. The propagation ring spans one
//! propagation delay: a cell launched at slot `s` is due at
//! `s + prop_slots`, inside the same epoch whenever propagation is
//! shorter than an epoch (it always is at paper scale).
//!
//! Two structural decisions buy the engine its throughput without
//! touching behavior (the golden digests pin this):
//!
//! * **Observer monomorphization** ([`observer`]): the invariant audit
//!   reaches the loop through [`SlotObserver`]; the release path runs the
//!   [`NullObserver`] instantiation where every probe compiles away.
//! * **Fault-free is the unarmed arm of one body**: both passes read
//!   fault state only when a script is armed (`armed`, and the
//!   transmit pass's `Option<&FaultPlane>`), and a run with an empty
//!   fault script is unarmed. That arm skips the fault boundary, the
//!   crash checks, the detector credit (1,536 `heard_from` calls per
//!   slot at paper scale), the omission overlay checks and the
//!   erasure/corruption lookups, never builds the N×N detectors, and
//!   skips idle nodes outright. This is sound because every one of
//!   those mechanisms is observable only through scripted faults: with
//!   nothing scripted, detectors would be fed every slot and never
//!   ticked, the schedule never stages an omission, and the protocol RNG
//!   stream is untouched either way (`tests/conformance.rs` pins an
//!   armed script in which nothing fires to the unarmed run). What the
//!   armed arm costs is small and measured — a few percent of a faulty
//!   run. The expensive part of a faulty run used to be elsewhere:
//!   request generation under a repaired schedule recounted the eligible
//!   intermediates per request drawn (2·N reachability probes each);
//!   that count is now a popcount over cached reachability rows
//!   (`Vlb::pick_masked`, DESIGN.md decision #14).
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
pub(crate) mod tx;

pub(crate) use deliver::DeliverPlane;
pub(crate) use detect::DetectPlane;
pub(crate) use fault::FaultPlane;
pub(crate) use observer::{NullObserver, SlotObserver};

use crate::sirius_net::{SiriusSim, StreamSource};
use sirius_core::schedule::SlotInEpoch;
use sirius_core::units::Time;
use sirius_workload::Flow;
use std::time::Duration;

/// Hard cap on simulated slots (a safety net no run reaches).
const MAX_SLOTS: u64 = 200_000_000;

/// Per-plane wall-clock accumulators, populated only when
/// [`crate::SiriusSimConfig::plane_timing`] is on (surfaced as the
/// `*_secs` fields of [`crate::RunMetrics`]). The first three tile each
/// slot after its epoch boundary: `deliver` is the receive pass, `tx`
/// the mistune pre-pass and the transmit pass, `merge` the slot's
/// epilogue (the corruption-scratch reset of an armed run). The other
/// four split the epoch boundary, from clock reads taken at the
/// boundary only: the fault pipeline, flow admission, server injection,
/// and the request/grant round.
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

/// Start a per-plane wall-clock mark. `None` when timing is off, so the
/// default path never touches the clock (a syscall per slot would cost
/// more than some planes do).
#[inline]
fn mark(timing: bool) -> Option<std::time::Instant> {
    timing.then(std::time::Instant::now)
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
    pub(crate) fn run_loop<I: Iterator<Item = Flow>, O: SlotObserver>(
        &mut self,
        src: &mut StreamSource<I>,
        obs: &mut O,
    ) -> u64 {
        let slot_ps = self.cfg.network.slot().as_ps();
        let epoch_slots = self.cfg.network.epoch_slots();
        let ring_len = self.delivery.ring.len();
        let prop_slots = self.prop_slots as u64;
        let armed = !self.faults.injector.is_empty();
        let timing = self.cfg.plane_timing;

        let mut abs_slot: u64 = 0;
        // Hoisted per-slot derivations: the epoch-slot cursor, the epoch
        // counter and the drain-side ring cursor advance incrementally
        // instead of re-deriving div/mod every slot.
        let mut t: u64 = 0;
        let mut cur_epoch: u64 = 0;
        let mut ring_idx: usize = 0;

        while !src.finished(&self.flows, self.delivery.completed) && abs_slot < MAX_SLOTS {
            let now = Time::from_ps(abs_slot * slot_ps);
            if now > src.deadline() {
                break;
            }
            if t == 0 {
                let mut clock = mark(timing);
                if armed {
                    self.fault_boundary(cur_epoch, obs);
                    split(&mut self.plane_times.fault_boundary, &mut clock);
                }
                self.epoch_boundary(cur_epoch, now, src, obs, &mut clock);
                if O::ENABLED {
                    let in_flight = self.delivery.ring.iter().map(|v| v.len() as u64).sum();
                    obs.epoch_check(cur_epoch, &self.nodes, in_flight);
                }
            }

            let mut clock = mark(timing);
            // Cells draining now were launched `prop_slots` ago; their
            // slot-in-epoch names the scheduled transmitter for the
            // Byzantine RX filter. (Wrapping is harmless: warmup ring
            // slots are empty.) Take-and-put-back so each ring slot's
            // buffer keeps its warmed-up capacity, and put back before
            // the transmit pass, which may launch into this very slot
            // when propagation is shorter than one slot.
            let launch_t = SlotInEpoch((abs_slot.wrapping_sub(prop_slots) % epoch_slots) as u16);
            let mut due = std::mem::take(&mut self.delivery.ring[ring_idx]);
            self.receive(&due, now, cur_epoch, launch_t, armed, obs);
            due.clear();
            self.delivery.ring[ring_idx] = due;
            split(&mut self.plane_times.deliver, &mut clock);

            let slot = SlotInEpoch(t as u16);
            if armed && self.faults.active.any_mistune() {
                // Writes the corruption scratch the transmit pass reads.
                self.faults.mistune_prepass(slot, self.sched.base());
            }
            self.transmit(abs_slot, slot, armed, obs);
            split(&mut self.plane_times.tx, &mut clock);

            if armed {
                self.faults.end_slot();
            }
            split(&mut self.plane_times.merge, &mut clock);

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
    }
}
