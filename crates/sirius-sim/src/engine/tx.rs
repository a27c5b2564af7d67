//! TX: the per-(node, uplink) transmit decision, as the transmit pass
//! of a slot.
//!
//! [`SiriusSim::transmit`] visits every node in id order and every
//! uplink in order, and pushes each launched cell straight into the ring
//! slot it lands in one propagation later. A node sends from queues that
//! already hold its own arrivals of the slot: the receive pass ran first.
//! Detector credit is applied as the carrier is sent (detector state is
//! only *read* at epoch boundaries), and the audit's TX probes fire at
//! the same sites. Grey-erasure and forgery draws come from per-node RNG
//! streams: a sender consumes only its own stream, in the order the
//! faulted golden digests pin.
//!
//! [`SiriusSim::transmit`] is the one body for every run. A fault-free
//! run is the armed run with nothing armed — every keepalive arrives
//! (§4.5) — so all fault work sits under the `Some` arm of its fault
//! plane.
//!
//! [`CcMode::Ideal`]'s back-pressure is the intermediate's own §4.3
//! admission test, `queued(d) + outstanding(d) < Q` on its
//! [`CongestionState`](sirius_core::congestion::CongestionState),
//! evaluated with instant knowledge: a sender reads that test at the
//! scheduled intermediate and reserves room there within the slot, so
//! TX at one node touches another, by design.

use crate::audit::LossCause;
use crate::engine::fault::forge_cell;
use crate::engine::observer::SlotObserver;
use crate::sirius_net::{CcMode, SiriusSim};
use rand::Rng;
use sirius_core::node::{SiriusNode, SlotTx};
use sirius_core::schedule::{Schedule, SlotInEpoch};
use sirius_core::topology::{NodeId, UplinkId};

/// One transmit opportunity from `nodes[i]` toward `j` in the run's CC
/// mode. Ideal asks `j`'s own §4.3 admission test, so it reads a second
/// node.
#[inline]
fn transmit(mode: CcMode, nodes: &mut [SiriusNode], i: usize, j: NodeId) -> SlotTx {
    match mode {
        CcMode::Protocol => nodes[i].transmit(j),
        // No back-pressure: any cell may detour via j.
        CcMode::Greedy => nodes[i].ideal_transmit(j, |_| true),
        // A slot to itself launches no detour.
        CcMode::Ideal if i == j.0 as usize => nodes[i].ideal_transmit(j, |_| false),
        CcMode::Ideal => {
            let [node, at] = nodes
                .get_disjoint_mut([i, j.0 as usize])
                .expect("sender and intermediate are distinct nodes");
            node.ideal_transmit(j, |d| at.cc.has_room(d))
        }
    }
}

/// Whether `node` (global index `i`) cannot transmit on any uplink this
/// slot. Skipping it is behavior-free: every skipped `transmit` would
/// have returned `Idle` without touching state, so the decision sequence
/// — and the digest — does not depend on the schedule representation.
///
/// The protocol only ever sends fabric (relay + VOQ) cells, so the
/// node's per-peer occupancy bitmask ANDed with the slot's
/// scheduled-peer mask decides in a couple of word ops. Greedy and Ideal
/// also launch straight from LOCAL, so only an entirely empty node is
/// idle.
#[inline]
fn node_idle(mode: CcMode, sched: &Schedule, t: SlotInEpoch, i: NodeId, node: &SiriusNode) -> bool {
    match mode {
        CcMode::Protocol => {
            let (fm, pm) = (node.fabric_mask(), sched.scheduled_peers(i, t));
            fm.iter().zip(pm).fold(0, |any, (f, p)| any | (f & p)) == 0
        }
        CcMode::Greedy | CcMode::Ideal => node.resident_cells() == 0,
    }
}

impl SiriusSim {
    /// The transmit pass of absolute slot `abs_slot` (slot-in-epoch `t`):
    /// TX at every node, in (node, uplink) order, into the ring slot the
    /// cells land in. In Ideal mode a first hop that will land reserves
    /// room at its intermediate here; the receive pass clears the
    /// reservation when it lands. `armed` says a fault script is armed.
    ///
    /// With nothing armed, each (node, uplink) opportunity is schedule
    /// lookup + transmit + ring push, and idle nodes are skipped outright.
    /// An armed script adds, per scheduled slot, the crash and mistune
    /// checks, the grey-erasure draw, the corruption lookup, the detector
    /// credit, the dead-slot (omission) checks and, on idle slots, the
    /// Byzantine forge draw.
    pub(crate) fn transmit<O: SlotObserver>(
        &mut self,
        abs_slot: u64,
        t: SlotInEpoch,
        armed: bool,
        obs: &mut O,
    ) {
        let mode = self.cfg.mode;
        let sched = &self.sched;
        let base = sched.base();
        let uplinks = base.uplinks();
        let epoch = base.epoch_of(abs_slot);
        let arrival = abs_slot + self.prop_slots as u64;
        // Receptions reach the detectors when the light lands.
        let arrival_epoch = base.epoch_of(arrival);
        let ring_len = self.delivery.ring.len() as u64;
        let ring = &mut self.delivery.ring[(arrival % ring_len) as usize];
        debug_assert!(ring.is_empty(), "arrival slot was not drained a lap ago");
        let faults = armed.then_some(&self.faults);
        let any_grey = faults.is_some_and(|f| f.active.any_grey());
        // Slices, not `&mut Vec`s: a ring push then cannot force the
        // node and stream bases to be reloaded (about 10 % of this pass).
        let (nodes, rngs) = (&mut self.nodes[..], &mut self.fault_rngs[..]);
        let detect = &mut self.detect;
        let (mut lost_grey, mut lost_mistune, mut forged) = (0u64, 0u64, 0u64);
        for i in 0..nodes.len() {
            let ni = NodeId(i as u32);
            let mistuned = match faults {
                None if node_idle(mode, base, t, ni, &nodes[i]) => continue,
                None => false,
                // Fail-stop: no data, no keepalive carrier.
                Some(faults) if faults.is_crashed(ni) => continue,
                Some(faults) => faults.active.mistune_of(ni).is_some(),
            };
            let row = base.row(ni, t);
            for u in 0..uplinks as u16 {
                let j = row.at(u as usize);
                // What destroys this slot's transmission in flight, and
                // who is to blame: the sender's own mistuned laser or grey
                // link, or a mistuned stray landing on the receiving port.
                let mut doomed = None;
                if let Some(faults) = faults {
                    // One erasure draw per scheduled slot on a grey link
                    // (never per cell), from the sender's own stream —
                    // fault scripts leave the protocol RNG untouched.
                    let grey_p = faults.active.grey_prob(ni, u, uplinks);
                    let erased = any_grey && grey_p > 0.0 && rngs[i].gen_bool(grey_p);
                    doomed = if mistuned {
                        Some((LossCause::Mistune, ni))
                    } else if erased {
                        Some((LossCause::Grey, ni))
                    } else {
                        faults.corrupted_by(j, u).map(|m| (LossCause::Mistune, m))
                    };
                    // §4.5 detection feeds on the carrier itself: any
                    // well-tuned, non-erased transmission — idle
                    // keepalives included — counts as "heard", which is
                    // why an alive sender can never be falsely suspected.
                    if doomed.is_none() && !faults.is_crashed(j) {
                        detect.credit(ni, u, j, arrival_epoch);
                    }
                    if sched.is_omitted(ni)
                        || sched.is_omitted(j)
                        || sched.is_column_omitted(ni, UplinkId(u))
                    {
                        continue; // dead slot: keepalive carrier only
                    }
                }
                // One bit test replaces the protocol's two deque probes:
                // on an empty fabric `transmit` returns `Idle` untouched.
                let tx = if mode == CcMode::Protocol && !nodes[i].fabric_nonempty(j) {
                    SlotTx::Idle
                } else {
                    transmit(mode, nodes, i, j)
                };
                match tx {
                    SlotTx::Relay(c) | SlotTx::ToIntermediate(c) => {
                        obs.note_data_tx(abs_slot, ni, u);
                        if let Some((cause, blame)) = doomed {
                            obs.note_lost(cause, blame, epoch);
                            match cause {
                                LossCause::Grey => lost_grey += 1,
                                LossCause::Mistune => lost_mistune += 1,
                                LossCause::Crash | LossCause::Byzantine => unreachable!(),
                            }
                            continue;
                        }
                        // Ideal: a first hop holds its room at the
                        // intermediate until it lands.
                        if mode == CcMode::Ideal && c.dst != j {
                            nodes[j.0 as usize].cc.reserve(c.dst);
                        }
                        ring.push((j, u, c));
                    }
                    SlotTx::Idle => {
                        // A Byzantine node fills its own idle slots with
                        // counterfeits. The draw rides the same per-node
                        // stream as grey erasure (grey draw first, then
                        // the forge draws). A doomed slot would destroy
                        // the counterfeit anyway — skip the draw entirely
                        // to keep streams cheap and aligned.
                        let Some(faults) = faults else { continue };
                        let byz_p = faults.active.byz_prob(ni);
                        if byz_p > 0.0 && doomed.is_none() && rngs[i].gen_bool(byz_p) {
                            let c = forge_cell(&mut rngs[i], ni, j, base.nodes());
                            forged += 1;
                            obs.note_forged_tx(ni, epoch);
                            obs.note_data_tx(abs_slot, ni, u);
                            ring.push((j, u, c));
                        }
                    }
                }
            }
        }
        if armed {
            let report = &mut self.faults.report;
            report.cells_lost_grey += lost_grey;
            report.cells_lost_mistune += lost_mistune;
            report.cells_forged += forged;
        }
    }
}
