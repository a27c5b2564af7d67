//! TX phase: the per-(node, uplink) transmit decision, as a function of
//! a node range.
//!
//! The per-(node, uplink) work is node-local — `transmit` touches only
//! the sending node's queues, arena and CC counters — and everything it
//! reads besides ([`DestTable`], the repair overlays, the failure plane,
//! the per-epoch fault snapshot) is frozen for the phase, which the
//! shared borrows in [`TxCtx`] make the compiler check. Cross-shard
//! effects (ring pushes, receiver-indexed detector credit, global loss
//! counters) are buffered per shard in a [`ShardOut`] and applied by
//! [`SiriusSim::merge_tx`] in shard order — the serial (node, uplink)
//! sequence, because detector state is only *read* at epoch boundaries.
//! Grey-erasure and forgery draws come from per-node RNG streams, so a
//! node's draw sequence does not depend on the partition.
//!
//! Two things cannot be partitioned and ride with shard 0 only, which is
//! why an enabled observer or [`CcMode::Ideal`] runs on one shard: the
//! observer (its probes must see the serial order) and Ideal's
//! back-pressure shadow occupancy in [`TxPlane`] (one array read and
//! written by every node within a slot, by design).

use crate::audit::LossCause;
use crate::engine::fault::{forge_cell, FaultPlane};
use crate::engine::observer::SlotObserver;
use crate::engine::tables::DestTable;
use crate::sirius_net::{CcMode, SiriusSim};
use rand::rngs::SmallRng;
use rand::Rng;
use sirius_core::cell::Cell;
use sirius_core::fault::FailurePlane;
use sirius_core::node::{SiriusNode, SlotTx};
use sirius_core::repair::AdjustedSchedule;
use sirius_core::schedule::SlotInEpoch;
use sirius_core::topology::{NodeId, UplinkId};

/// The run's CC mode and, in ideal mode, the back-pressure shadow
/// occupancy (in-flight + queued cells per (intermediate, destination)
/// pair) that stands in for the paper's zero-latency global-knowledge
/// back-pressure bound.
pub(crate) struct TxPlane {
    pub mode: CcMode,
    /// Empty outside ideal mode.
    ideal_occ: Vec<u32>,
    n: usize,
    q: u32,
}

impl TxPlane {
    pub fn new(mode: CcMode, n: usize, q: u32) -> TxPlane {
        TxPlane {
            mode,
            ideal_occ: if mode == CcMode::Ideal {
                vec![0; n * n]
            } else {
                Vec::new()
            },
            n,
            q,
        }
    }

    /// One ideal-mode transmit opportunity from `node` toward scheduled
    /// destination `j`, updating the shadow occupancy for launches and
    /// relay departures.
    #[inline]
    fn launch(&mut self, node: &mut SiriusNode, j: NodeId) -> SlotTx {
        let (n, q) = (self.n, self.q);
        let (i, jn) = (node.id().0 as usize, j.0 as usize);
        let occ = &self.ideal_occ;
        let tx = node.ideal_transmit(j, |d| occ[jn * n + d.0 as usize] < q);
        match tx {
            // Launch toward intermediate j: occupancy (in-flight +
            // queued) rises.
            SlotTx::ToIntermediate(c) if c.dst != j => {
                self.ideal_occ[jn * n + c.dst.0 as usize] += 1;
            }
            // Second hop departs intermediate i: free it.
            SlotTx::Relay(c) => {
                self.ideal_occ[i * n + c.dst.0 as usize] -= 1;
            }
            _ => {}
        }
        tx
    }

    /// A launch that was counted into the ideal-mode shadow occupancy was
    /// lost in flight and never arrives.
    #[inline]
    fn undo_lost_launch(&mut self, j: NodeId, c: &Cell, to_intermediate: bool) {
        if self.mode == CcMode::Ideal && to_intermediate && c.dst != j {
            self.ideal_occ[j.0 as usize * self.n + c.dst.0 as usize] -= 1;
        }
    }

    /// A relay cell bounced back to LOCAL at intermediate `at` (column
    /// omission severed its second hop) frees its occupancy reservation.
    #[inline]
    pub fn release_rerouted(&mut self, at: NodeId, dst: NodeId) {
        if self.mode == CcMode::Ideal {
            self.ideal_occ[at.0 as usize * self.n + dst.0 as usize] -= 1;
        }
    }
}

/// One shard's buffered TX-phase output: ring pushes in node order, plus
/// the cross-shard effects the merge applies. Buffers keep their capacity
/// across slots.
#[derive(Debug, Default)]
pub(crate) struct ShardOut {
    /// Cells launched this slot, in (node, uplink) order. The RX uplink
    /// rides along so the delivery side can name the slot's scheduled
    /// transmitter (Byzantine attribution).
    pub ring: Vec<(NodeId, u16, Cell)>,
    /// Detector credit: (sender, uplink, receiver), in (node, uplink)
    /// order. `arrival_epoch` is slot-wide, so it is not stored per entry.
    pub credits: Vec<(NodeId, u16, NodeId)>,
    pub lost_grey: u64,
    pub lost_mistune: u64,
    /// Counterfeit cells launched by Byzantine nodes this slot.
    pub forged_tx: u64,
}

/// Frozen slot inputs of the TX phase, shared by every shard.
pub(crate) struct TxCtx<'a> {
    pub mode: CcMode,
    pub tables: &'a DestTable,
    pub sched: &'a AdjustedSchedule,
    pub failures: &'a FailurePlane,
    /// The fault plane when a script is armed; `None` selects the
    /// fault-free body.
    pub faults: Option<&'a FaultPlane>,
    pub abs_slot: u64,
    pub t: SlotInEpoch,
    pub epoch: u64,
}

/// TX for `nodes` = the global node range starting at `first` (`rngs` is
/// the same range of the per-node fault streams; empty without a
/// script). `ideal` is the plane holding the shared occupancy, which the
/// driver hands to shard 0 only; ideal mode cannot transmit without it.
pub(crate) fn tx_range<O: SlotObserver>(
    ctx: &TxCtx,
    first: usize,
    nodes: &mut [SiriusNode],
    rngs: &mut [SmallRng],
    ideal: Option<&mut TxPlane>,
    out: &mut ShardOut,
    obs: &mut O,
) {
    match ctx.faults {
        None => tx_clean_range(ctx, first, nodes, ideal, &mut out.ring, obs),
        Some(faults) => tx_faulty_range(ctx, faults, first, nodes, rngs, ideal, out, obs),
    }
}

/// One transmit opportunity from `node` toward `j` in the run's CC mode.
#[inline]
fn transmit(
    mode: CcMode,
    ideal: &mut Option<&mut TxPlane>,
    node: &mut SiriusNode,
    j: NodeId,
) -> SlotTx {
    match mode {
        CcMode::Protocol => node.transmit(j),
        // No back-pressure: any cell may detour via j.
        CcMode::Greedy => node.ideal_transmit(j, |_| true),
        CcMode::Ideal => ideal
            .as_mut()
            .expect("ideal mode runs on the one shard that holds its occupancy")
            .launch(node, j),
    }
}

/// Whether `node` (global index `i`) cannot transmit on any uplink this
/// slot. Skipping it is behavior-free: every skipped `transmit` would
/// have returned `Idle` without touching state, so the decision sequence
/// — and the digest — does not depend on the table representation.
///
/// The protocol only ever sends fabric (relay + VOQ) cells, so the
/// node's per-peer occupancy bitmask ANDed with the slot's
/// scheduled-peer mask decides in a couple of word ops. Greedy and Ideal
/// also launch straight from LOCAL, so only an entirely empty node is
/// idle.
#[inline]
fn node_idle(
    mode: CcMode,
    tables: &DestTable,
    t: SlotInEpoch,
    i: usize,
    node: &SiriusNode,
) -> bool {
    match mode {
        CcMode::Protocol => {
            let (fm, pm) = (node.fabric_mask(), tables.peer_mask(t, i));
            fm.iter().zip(pm).fold(0, |any, (f, p)| any | (f & p)) == 0
        }
        CcMode::Greedy | CcMode::Ideal => node.resident_cells() == 0,
    }
}

/// Fault-free TX: no failed nodes, no omitted columns, no erasure or
/// corruption, and no detector feeding (the fault boundary that would
/// consume the credit never runs), so each (node, uplink) opportunity
/// collapses to table lookup + transmit + ring push. An enabled observer
/// wants its reception feed for every scheduled slot, so only the
/// unobserved instantiation skips idle nodes.
fn tx_clean_range<O: SlotObserver>(
    ctx: &TxCtx,
    first: usize,
    nodes: &mut [SiriusNode],
    mut ideal: Option<&mut TxPlane>,
    out: &mut Vec<(NodeId, u16, Cell)>,
    obs: &mut O,
) {
    let uplinks = ctx.tables.uplinks();
    let view = ctx.tables.slot_view(ctx.t);
    for (li, node) in nodes.iter_mut().enumerate() {
        let i = first + li;
        if !O::ENABLED && node_idle(ctx.mode, ctx.tables, ctx.t, i, node) {
            continue;
        }
        let row = view.node(i);
        for u in 0..uplinks {
            let j = row.at(u);
            obs.note_rx(ctx.abs_slot, j, u as u16);
            // One bit test replaces the protocol's two deque probes.
            if ctx.mode == CcMode::Protocol && !node.fabric_nonempty(j) {
                continue;
            }
            let tx = transmit(ctx.mode, &mut ideal, node, j);
            if let SlotTx::Relay(c) | SlotTx::ToIntermediate(c) = tx {
                obs.note_data_tx(ctx.abs_slot, NodeId(i as u32), u as u16);
                out.push((j, u as u16, c));
            }
        }
    }
}

/// Fully-armed (fault-script) TX: mistune corruption, grey-erasure draws
/// from the per-node RNG streams, buffered detector credit, dead-slot
/// (omission) checks and buffered loss attribution.
#[allow(clippy::too_many_arguments)]
fn tx_faulty_range<O: SlotObserver>(
    ctx: &TxCtx,
    faults: &FaultPlane,
    first: usize,
    nodes: &mut [SiriusNode],
    rngs: &mut [SmallRng],
    mut ideal: Option<&mut TxPlane>,
    out: &mut ShardOut,
    obs: &mut O,
) {
    debug_assert_eq!(nodes.len(), rngs.len());
    let uplinks = ctx.tables.uplinks();
    let view = ctx.tables.slot_view(ctx.t);
    let any_grey = faults.active.any_grey();
    for (li, node) in nodes.iter_mut().enumerate() {
        let ni = NodeId((first + li) as u32);
        if ctx.failures.is_failed(ni) {
            continue; // fail-stop: no data, no keepalive carrier
        }
        let mistuned = faults.active.mistune_of(ni).is_some();
        let row = view.node(first + li);
        for u in 0..uplinks as u16 {
            let j = row.at(u as usize);
            // One erasure draw per scheduled slot on a grey link (never
            // per cell), from the sender's own stream — fault scripts
            // leave the protocol RNG untouched, and the draw sequence is
            // independent of the shard partition.
            let grey_p = faults.active.grey_prob(ni, u, uplinks);
            let erased = any_grey && grey_p > 0.0 && rngs[li].gen_bool(grey_p);
            let corrupted_by = faults.corrupted_by(j, u);
            if !mistuned {
                obs.note_rx(ctx.abs_slot, j, u);
            }
            // §4.5 detection feeds on the carrier itself: any well-tuned,
            // non-erased transmission — idle keepalives included — counts
            // as "heard", which is why an alive sender can never be
            // falsely suspected. Receiver-indexed, so buffered for the
            // merge.
            if !mistuned && !erased && corrupted_by.is_none() && !ctx.failures.is_failed(j) {
                out.credits.push((ni, u, j));
            }
            if ctx.sched.is_omitted(ni)
                || ctx.sched.is_omitted(j)
                || ctx.sched.is_column_omitted(ni, UplinkId(u))
            {
                continue; // dead slot: keepalive carrier only
            }
            match transmit(ctx.mode, &mut ideal, node, j) {
                tx @ (SlotTx::Relay(c) | SlotTx::ToIntermediate(c)) => {
                    obs.note_data_tx(ctx.abs_slot, ni, u);
                    let lost = if mistuned {
                        Some((LossCause::Mistune, ni))
                    } else if erased {
                        Some((LossCause::Grey, ni))
                    } else {
                        corrupted_by.map(|m| (LossCause::Mistune, m))
                    };
                    let Some((cause, blame)) = lost else {
                        out.ring.push((j, u, c));
                        continue;
                    };
                    obs.note_lost(cause, blame, ctx.epoch);
                    match cause {
                        LossCause::Grey => out.lost_grey += 1,
                        LossCause::Mistune => out.lost_mistune += 1,
                        LossCause::Crash | LossCause::Byzantine => unreachable!(),
                    }
                    // The launch counted into the ideal-mode shadow
                    // occupancy never arrives.
                    if let Some(plane) = ideal.as_mut() {
                        plane.undo_lost_launch(j, &c, matches!(tx, SlotTx::ToIntermediate(_)));
                    }
                }
                SlotTx::Idle => {
                    // A Byzantine node fills its own idle slots with
                    // counterfeits. The draw rides the same per-node
                    // stream as grey erasure (grey draw first, then the
                    // forge draws), so the sequence is independent of the
                    // shard partition. A mistuned/erased/corrupted slot
                    // would destroy the counterfeit anyway — skip the
                    // draw entirely to keep streams cheap and aligned.
                    let byz_p = faults.active.byz_prob(ni);
                    if byz_p > 0.0
                        && !mistuned
                        && !erased
                        && corrupted_by.is_none()
                        && rngs[li].gen_bool(byz_p)
                    {
                        let c = forge_cell(&mut rngs[li], ni, j, ctx.tables.nodes());
                        obs.note_forged_tx(ni, ctx.epoch);
                        out.forged_tx += 1;
                        out.ring.push((j, u, c));
                    }
                }
            }
        }
    }
}

impl SiriusSim {
    /// Apply the TX phase's per-shard outputs in shard order — ring
    /// pushes, detector credit, loss counters: the serial (node, uplink)
    /// sequence — leaving every `outs` buffer empty. Shard 0's ring
    /// buffer is swapped into the (drained, hence empty) arrival slot
    /// rather than copied, so a one-shard run moves no cell twice.
    pub(crate) fn merge_tx(
        &mut self,
        outs: &mut [ShardOut],
        arrive_idx: usize,
        arrival_epoch: u64,
    ) {
        let ring = &mut self.delivery.ring[arrive_idx];
        debug_assert!(ring.is_empty(), "arrival slot was not drained a lap ago");
        std::mem::swap(ring, &mut outs[0].ring);
        ring.reserve(outs.iter().map(|o| o.ring.len()).sum());
        for out in outs {
            ring.append(&mut out.ring);
            for (ni, u, j) in out.credits.drain(..) {
                self.detect.credit(ni, u, j, arrival_epoch);
            }
            self.faults.report.cells_lost_grey += std::mem::take(&mut out.lost_grey);
            self.faults.report.cells_lost_mistune += std::mem::take(&mut out.lost_mistune);
            self.faults.report.cells_forged += std::mem::take(&mut out.forged_tx);
        }
    }
}
