//! TX: the per-(node, uplink) transmit decision, as the send half of a
//! shard's slot.
//!
//! The per-(node, uplink) work is node-local (Ideal aside, below) —
//! `transmit` touches only the sending node's queues, arena and CC
//! counters — and everything it reads besides (the schedule and its
//! repair overlays, the fault plane's crashed set and per-epoch
//! snapshot) is frozen for the slot, which the shared borrows in
//! [`SlotCtx`] make the compiler check. The same shard
//! ran the receive half on the same nodes just before, so a node sends
//! from queues that already hold its own arrivals of the slot.
//! Cross-shard effects (ring pushes, receiver-indexed detector credit,
//! losses and forgeries) are buffered per shard in a [`ShardOut`] and
//! applied by [`SiriusSim::merge_tx`] in shard order — the serial (node,
//! uplink) sequence, because detector state is only *read* at epoch
//! boundaries. The merge is also where the audit's TX probes fire, from
//! the same records, so [`tx_range`] fires none. Grey-erasure and forgery
//! draws come from per-node RNG streams, so a node's draw sequence does
//! not depend on the partition.
//!
//! [`tx_range`] is the one body for every run. A fault-free run is the
//! armed run with nothing armed — every keepalive arrives (§4.5) — so
//! all fault work sits under the `Some` arm of [`SlotCtx::faults`].
//!
//! One thing cannot be partitioned, which is why [`CcMode::Ideal`] runs
//! on one shard: Ideal's back-pressure is the intermediate's own §4.3
//! admission test, `queued(d) + outstanding(d) < Q` on its
//! [`CongestionState`](sirius_core::congestion::CongestionState),
//! evaluated with instant knowledge. A sender reads that test at the
//! scheduled intermediate and reserves room there within the slot — TX
//! at one node touches another, by design.

use crate::audit::LossCause;
use crate::engine::fault::forge_cell;
use crate::engine::observer::SlotObserver;
use crate::engine::{ShardOut, SlotCtx};
use crate::sirius_net::{CcMode, SiriusSim};
use rand::rngs::SmallRng;
use rand::Rng;
use sirius_core::node::{SiriusNode, SlotTx};
use sirius_core::schedule::{Schedule, SlotInEpoch};
use sirius_core::topology::{NodeId, UplinkId};

/// One transmit opportunity from `nodes[li]` toward `j` in the run's CC
/// mode. Ideal asks `j`'s own §4.3 admission test, so it reads a second
/// node: its `nodes` is the whole network (its one shard starts at 0).
#[inline]
fn transmit(mode: CcMode, nodes: &mut [SiriusNode], li: usize, j: NodeId) -> SlotTx {
    match mode {
        CcMode::Protocol => nodes[li].transmit(j),
        // No back-pressure: any cell may detour via j.
        CcMode::Greedy => nodes[li].ideal_transmit(j, |_| true),
        // A slot to itself launches no detour.
        CcMode::Ideal if li == j.0 as usize => nodes[li].ideal_transmit(j, |_| false),
        CcMode::Ideal => {
            let [node, at] = nodes
                .get_disjoint_mut([li, j.0 as usize])
                .expect("ideal mode runs one shard holding every node");
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

/// The send half of a shard's slot: TX for `nodes` = the global node
/// range starting at `first` (`rngs` is the same range of the per-node
/// fault streams; empty without a script). In Ideal mode a first hop
/// that will land reserves room at its intermediate here; the receive
/// half clears the reservation when it lands.
///
/// With nothing armed, each (node, uplink) opportunity is schedule lookup +
/// transmit + ring push, and idle nodes are skipped outright. An armed
/// script adds, per scheduled slot, the crash and mistune checks, the
/// grey-erasure draw, the corruption lookup, the detector credit, the
/// dead-slot (omission) checks and, on idle slots, the Byzantine forge
/// draw.
pub(crate) fn tx_range(
    ctx: &SlotCtx,
    first: usize,
    nodes: &mut [SiriusNode],
    rngs: &mut [SmallRng],
    out: &mut ShardOut,
) {
    debug_assert!(ctx.faults.is_none() || nodes.len() == rngs.len());
    let base = ctx.sched.base();
    let uplinks = base.uplinks();
    let any_grey = ctx.faults.is_some_and(|f| f.active.any_grey());
    for li in 0..nodes.len() {
        let i = first + li;
        let ni = NodeId(i as u32);
        let mistuned = match ctx.faults {
            None if node_idle(ctx.mode, base, ctx.t, ni, &nodes[li]) => continue,
            None => false,
            // Fail-stop: no data, no keepalive carrier.
            Some(faults) if faults.is_crashed(ni) => continue,
            Some(faults) => faults.active.mistune_of(ni).is_some(),
        };
        let row = base.row(ni, ctx.t);
        for u in 0..uplinks as u16 {
            let j = row.at(u as usize);
            // What destroys this slot's transmission in flight, and who
            // is to blame: the sender's own mistuned laser or grey link,
            // or a mistuned stray landing on the receiving port.
            let mut doomed = None;
            if let Some(faults) = ctx.faults {
                // One erasure draw per scheduled slot on a grey link
                // (never per cell), from the sender's own stream — fault
                // scripts leave the protocol RNG untouched, and the draw
                // sequence is independent of the shard partition.
                let grey_p = faults.active.grey_prob(ni, u, uplinks);
                let erased = any_grey && grey_p > 0.0 && rngs[li].gen_bool(grey_p);
                doomed = if mistuned {
                    Some((LossCause::Mistune, ni))
                } else if erased {
                    Some((LossCause::Grey, ni))
                } else {
                    faults.corrupted_by(j, u).map(|m| (LossCause::Mistune, m))
                };
                // §4.5 detection feeds on the carrier itself: any
                // well-tuned, non-erased transmission — idle keepalives
                // included — counts as "heard", which is why an alive
                // sender can never be falsely suspected. Receiver-indexed,
                // so buffered for the merge.
                if doomed.is_none() && !faults.is_crashed(j) {
                    out.credits.push((ni, u, j));
                }
                if ctx.sched.is_omitted(ni)
                    || ctx.sched.is_omitted(j)
                    || ctx.sched.is_column_omitted(ni, UplinkId(u))
                {
                    continue; // dead slot: keepalive carrier only
                }
            }
            // One bit test replaces the protocol's two deque probes: on
            // an empty fabric `transmit` returns `Idle` untouched.
            let tx = if ctx.mode == CcMode::Protocol && !nodes[li].fabric_nonempty(j) {
                SlotTx::Idle
            } else {
                transmit(ctx.mode, nodes, li, j)
            };
            match tx {
                SlotTx::Relay(c) | SlotTx::ToIntermediate(c) => {
                    if let Some((cause, blame)) = doomed {
                        out.lost.push((cause, blame, ni, u));
                        continue;
                    }
                    // Ideal: a first hop holds its room at the
                    // intermediate until it lands (one shard, so `j`
                    // indexes `nodes`).
                    if ctx.mode == CcMode::Ideal && c.dst != j {
                        nodes[j.0 as usize].cc.reserve(c.dst);
                    }
                    out.ring.push((j, u, c));
                }
                SlotTx::Idle => {
                    // A Byzantine node fills its own idle slots with
                    // counterfeits. The draw rides the same per-node
                    // stream as grey erasure (grey draw first, then the
                    // forge draws), so the sequence is independent of the
                    // shard partition. A doomed slot would destroy the
                    // counterfeit anyway — skip the draw entirely to keep
                    // streams cheap and aligned.
                    let Some(faults) = ctx.faults else { continue };
                    let byz_p = faults.active.byz_prob(ni);
                    if byz_p > 0.0 && doomed.is_none() && rngs[li].gen_bool(byz_p) {
                        let c = forge_cell(&mut rngs[li], ni, j, base.nodes());
                        out.forged.push(ni);
                        out.ring.push((j, u, c));
                    }
                }
            }
        }
    }
}

impl SiriusSim {
    /// Apply the send halves' per-shard outputs of absolute slot
    /// `abs_slot` in shard order — ring pushes, detector credit, losses,
    /// forgeries: the serial (node, uplink) sequence — firing the TX
    /// probes from the same records, and leaving every `outs` buffer
    /// empty. The cells land one propagation later; shard 0's ring buffer
    /// is swapped into that (drained, hence empty) arrival slot rather
    /// than copied, so a one-shard run moves no cell twice.
    pub(crate) fn merge_tx<O: SlotObserver>(
        &mut self,
        outs: &mut [ShardOut],
        abs_slot: u64,
        obs: &mut O,
    ) {
        let base = self.sched.base();
        let (t, epoch) = (base.slot_in_epoch(abs_slot), base.epoch_of(abs_slot));
        let arrival = abs_slot + self.prop_slots as u64;
        // Receptions reach the detectors when the light lands.
        let arrival_epoch = base.epoch_of(arrival);
        let ring_len = self.delivery.ring.len() as u64;
        let ring = &mut self.delivery.ring[(arrival % ring_len) as usize];
        debug_assert!(ring.is_empty(), "arrival slot was not drained a lap ago");
        std::mem::swap(ring, &mut outs[0].ring);
        ring.reserve(outs.iter().map(|o| o.ring.len()).sum());
        for out in outs {
            ring.append(&mut out.ring);
            for (ni, u, j) in out.credits.drain(..) {
                self.detect.credit(ni, u, j, arrival_epoch);
            }
            for (cause, blame, ni, u) in out.lost.drain(..) {
                obs.note_data_tx(abs_slot, ni, u);
                obs.note_lost(cause, blame, epoch);
                let report = &mut self.faults.report;
                match cause {
                    LossCause::Grey => report.cells_lost_grey += 1,
                    LossCause::Mistune => report.cells_lost_mistune += 1,
                    LossCause::Crash | LossCause::Byzantine => unreachable!(),
                }
            }
            self.faults.report.cells_forged += out.forged.len() as u64;
            for ni in out.forged.drain(..) {
                obs.note_forged_tx(ni, epoch);
            }
        }
        if O::ENABLED {
            // Every launched cell left its scheduled sender's TX column.
            for &(j, u, _) in ring.iter() {
                obs.note_data_tx(abs_slot, base.source(j, UplinkId(u), t), u);
            }
        }
    }
}
