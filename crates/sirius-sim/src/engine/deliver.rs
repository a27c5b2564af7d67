//! DeliverPlane: the propagation ring and arrival processing.
//!
//! Cells launched at slot `s` land at slot `s + prop_slots`; the ring
//! buffer holds them in flight. An arriving cell is relayed (VLB first
//! hop), bounced back to LOCAL (its second hop died under column repair),
//! dropped (a counterfeit, or a crashed receiver) or delivered into its
//! flow's reorder state (the [`FlowReorder`] in the flow's slab record).
//!
//! One rule orders it all. [`deliver_range`], a shard's receive half,
//! writes only its receivers' node state (relay queues, CC counters —
//! Ideal's landed first hops included — and the reroute bounce); it reads
//! the flow slab through a shared borrow, for the Byzantine header check
//! (the slab grows only at epoch boundaries and evicts only in the
//! merge). Every other effect of an arrival is one (due index,
//! [`Arrival`]) record, and
//! [`SiriusSim::merge_deliveries`] k-way merges the shards' records by
//! due index and applies each in turn — the due-list sequence at any
//! shard count. A flow's cells still reach its reorder state in arrival
//! order: they all land at its one receiver.

use crate::engine::observer::SlotObserver;
use crate::engine::{ShardOut, SlotCtx};
use crate::sirius_net::{CcMode, SiriusSim};
use sirius_core::cell::Cell;
use sirius_core::node::SiriusNode;
use sirius_core::reorder::FlowReorder;
use sirius_core::schedule::SlotInEpoch;
use sirius_core::topology::{NodeId, UplinkId};
use sirius_core::units::Time;

pub(crate) struct DeliverPlane {
    /// Delivery pipeline: ring indexed by arrival slot. Each entry is
    /// (receiver, RX uplink, cell); the uplink plus the launch slot name
    /// the scheduled transmitter, which Byzantine attribution needs.
    pub ring: Vec<Vec<(NodeId, u16, Cell)>>,
    pub digest: crate::audit::RunDigest,
    pub delivered_bytes: u64,
    pub cells_delivered: u64,
    pub completed: u64,
    pub last_delivery: Time,
    /// Peak bytes any single flow held out of order (paper Fig. 10d:
    /// "peak size of the reorder buffer at the servers per flow").
    pub peak_reorder_flow_bytes: u64,
}

impl DeliverPlane {
    pub fn new(ring_len: usize) -> DeliverPlane {
        DeliverPlane {
            ring: vec![Vec::new(); ring_len],
            digest: crate::audit::RunDigest::new(),
            delivered_bytes: 0,
            cells_delivered: 0,
            completed: 0,
            last_delivery: Time::ZERO,
            peak_reorder_flow_bytes: 0,
        }
    }
}

/// What an arrival leaves for the merge, beyond its receiver's node state.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arrival {
    /// A final delivery, for its flow's reorder state.
    Delivered(Cell),
    /// A cell reached the crashed node and vanished.
    Blackholed(NodeId),
    /// A counterfeit was dropped; the slot's scheduled transmitter is
    /// blamed.
    Forged(NodeId),
    /// A relay cell bounced back to LOCAL at its intermediate.
    Rerouted,
}

// One record per arrival: a cell and its due index.
const _: () = assert!(std::mem::size_of::<(u32, Arrival)>() <= 40);

/// The receive half of a shard's slot: process the due list's arrivals
/// for receivers `nodes` = the global node range starting at `first`,
/// relaying and rerouting into them and recording every other effect
/// into `out` as (due index, [`Arrival`]). In Ideal mode every genuine
/// first hop clears the reservation its launch made at its intermediate
/// here, whatever becomes of it, before TX reads the intermediate's
/// admission test.
///
/// The full due list is scanned in index order and entries outside the
/// range skipped — so the per-receiver effect order is exactly the
/// serial order, and the recorded due indices reconstruct the global
/// sequence at the merge.
///
/// Per entry, `uplink` is the RX port the cell landed on and
/// `ctx.launch_t` the slot-in-epoch it was launched at — together, with
/// the schedule inverse, they name the one node allowed to transmit into
/// this (receiver, port, slot), which is how counterfeits are attributed.
pub(crate) fn deliver_range(
    ctx: &SlotCtx,
    first: usize,
    nodes: &mut [SiriusNode],
    due: &[(NodeId, u16, Cell)],
    out: &mut Vec<(u32, Arrival)>,
) {
    let (lo, hi) = (first as u32, (first + nodes.len()) as u32);
    let byz = ctx.faults.is_some_and(|f| f.byz.is_some());
    // The schedule's one transmitter into this (receiver, port) at launch.
    let (base, launch_t) = (ctx.sched.base(), SlotInEpoch(ctx.launch_t));
    let scheduled = |j, u| base.source(j, UplinkId(u), launch_t);
    for (idx, &(dst, uplink, cell)) in due.iter().enumerate() {
        if dst.0 < lo || dst.0 >= hi {
            continue;
        }
        let idx = idx as u32;
        let li = (dst.0 - lo) as usize;
        // Data-plane Byzantine filter (mirrors the §4.4 slew-clamp idea:
        // validate locally, bound the liar's damage per epoch). Armed
        // only when the script declares Byzantine nodes; runs before the
        // crash blackhole so forged cells aimed at dead nodes are still
        // dropped as forgeries, keeping conservation exact.
        if byz {
            let forged =
                // A counterfeit cannot name a real flow: receivers check
                // the header against their flow table.
                cell.flow.0 as usize >= ctx.flows.len()
                    || if cell.dst == dst {
                        // Delivered-type: endpoints must match the flow
                        // table's record for that flow. (A genuine
                        // delivered-type cell was built from this record;
                        // forged headers carry an out-of-range id and
                        // short-circuit above.)
                        let f = &ctx.flows[cell.flow.0 as usize];
                        NodeId(f.src_server / ctx.spn) != cell.src
                            || NodeId(f.dst_server / ctx.spn) != cell.dst
                            || cell.dst_server.0 != f.dst_server
                    } else {
                        // Relay-type: the claimed origin must be the
                        // slot's scheduled transmitter — sound only while
                        // no link faults can reparent cells (column
                        // repair bounces relays back to LOCAL at other
                        // nodes, which relaunches them off-origin) — and
                        // in Protocol mode a relay arrival must match a
                        // live reservation (stale-grant replay check;
                        // grant_timeout's VOQ-wait floor guarantees
                        // legitimate relays always find one).
                        (!ctx.has_link_faults && cell.src != scheduled(dst, uplink))
                            || (ctx.mode == CcMode::Protocol
                                && nodes[li].cc.outstanding(cell.dst) == 0)
                    };
            if forged {
                // Blame the scheduled transmitter for the slot, not the
                // forged header: physics pins which laser lit this port.
                out.push((idx, Arrival::Forged(scheduled(dst, uplink))));
                continue;
            }
        }
        // Ideal: the first hop has landed, so its reservation goes; if
        // it is queued below, `queued` takes over the unit.
        if ctx.mode == CcMode::Ideal && cell.dst != dst {
            nodes[li].cc.landed(cell.dst);
        }
        if ctx.faults.is_some_and(|f| f.is_crashed(dst)) {
            // Blackholed until routing learns of the failure.
            out.push((idx, Arrival::Blackholed(dst)));
            continue;
        }
        // A cell reaching its intermediate after a column omission severed
        // the second hop would strand in the relay queue until the column
        // heals; consume its reservation and bounce it back to LOCAL for a
        // fresh request/grant round through a live detour.
        if cell.dst != dst
            && ctx.sched.has_omitted_columns()
            && !ctx.sched.pair_usable(dst, cell.dst)
        {
            nodes[li].reroute_arrival(cell);
            out.push((idx, Arrival::Rerouted));
            continue;
        }
        // `None`: queued for relay.
        if let Some(cell) = nodes[li].receive_cell(cell) {
            out.push((idx, Arrival::Delivered(cell)));
        }
    }
}

impl SiriusSim {
    /// The receive halves' epilogue at `now` (in `epoch`): k-way merge the
    /// per-shard arrival records by due index and apply each in turn,
    /// clearing every shard's records (capacity kept).
    pub(crate) fn merge_deliveries<O: SlotObserver>(
        &mut self,
        outs: &mut [ShardOut],
        now: Time,
        epoch: u64,
        obs: &mut O,
    ) {
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (s, out) in outs.iter().enumerate() {
                if let Some(&(idx, _)) = out.arrivals.get(out.cursor) {
                    if best.is_none_or(|(b, _)| idx < b) {
                        best = Some((idx, s));
                    }
                }
            }
            let Some((_, s)) = best else { break };
            let out = &mut outs[s];
            let (_, arrival) = out.arrivals[out.cursor];
            out.cursor += 1;
            match arrival {
                Arrival::Delivered(cell) => self.apply_delivery(&cell, now, obs),
                Arrival::Blackholed(at) => {
                    self.faults.report.cells_lost_crash += 1;
                    obs.note_blackholed(at, epoch);
                }
                Arrival::Forged(liar) => {
                    self.faults.report.cells_forged_dropped += 1;
                    obs.note_forged_dropped();
                    if let Some(bz) = self.faults.byz.as_mut() {
                        bz.suspicion[liar.0 as usize] += 1;
                    }
                }
                Arrival::Rerouted => self.faults.report.cells_rerouted += 1,
            }
        }
        for out in outs {
            out.arrivals.clear();
            out.cursor = 0;
        }
    }

    /// One final delivery at `now`: the reorder accept and the flow
    /// record, completion, the digest, the delivery probe and — in
    /// streaming mode — the eviction.
    #[inline]
    fn apply_delivery<O: SlotObserver>(&mut self, cell: &Cell, now: Time, obs: &mut O) {
        let delivery = &mut self.delivery;
        let f = &mut self.flows[cell.flow.0 as usize];
        // A window never outgrows its flow: the reorder ring is bounded
        // by the flow's cell count.
        debug_assert!(cell.seq < f.cells_total, "cell beyond its flow's last");
        let d = f.reorder.accept(cell.seq, cell.payload);
        delivery.peak_reorder_flow_bytes = delivery
            .peak_reorder_flow_bytes
            .max(f.reorder.buffered_bytes() as u64);
        if d.bytes > 0 {
            f.delivered += d.bytes;
            delivery.delivered_bytes += d.bytes;
            delivery.last_delivery = now;
        }
        // Complete on position, not bytes: a zero-byte flow's one empty
        // cell releases no bytes.
        let completed = f.reorder.released_cells() == f.cells_total && f.completion.is_none();
        if completed {
            f.completion = Some(now);
            // Every cell is in, so nothing is pending — but the ring keeps
            // its slots: reset the state to free them, or a run that never
            // evicts holds one ring per completed flow that ever reordered.
            f.reorder = FlowReorder::default();
            delivery.completed += 1;
        }
        delivery.cells_delivered += 1;
        delivery
            .digest
            .update_cell(cell, now.since(Time::ZERO).as_ps());
        obs.note_delivery(cell, d.cells);
        // Streaming mode: the flow's every cell has been delivered, so its
        // slab slot (reorder state included) can be recycled. Eviction
        // order decides future flow-id allocation (the free list is LIFO)
        // and the stream digest, so it follows due order.
        if completed && self.evict_completed {
            self.fold_and_evict(cell.flow.0 as u32, obs);
        }
    }
}
