//! DeliverPlane: the propagation ring and the receive pass.
//!
//! Cells launched at slot `s` land at slot `s + prop_slots`; the ring
//! buffer holds them in flight. An arriving cell is relayed (VLB first
//! hop), bounced back to LOCAL (its second hop died under column repair),
//! dropped (a counterfeit, or a crashed receiver) or delivered into its
//! flow's reorder state (the [`FlowReorder`] in the flow's slab record).
//!
//! [`SiriusSim::receive`] takes the due list in index order and applies
//! each arrival's whole effect before the next — the order the digest,
//! the eviction free list and the audit's shadow reassembly all follow.
//! A flow's cells reach its reorder state in arrival order: they all
//! land at its one receiver.

use crate::engine::observer::SlotObserver;
use crate::sirius_net::{CcMode, SiriusSim};
use sirius_core::cell::Cell;
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

impl SiriusSim {
    /// The receive pass at `now` (in `epoch`): every arrival of the due
    /// list, in due order, with its full effect — relay enqueue, reroute
    /// bounce, reorder accept, digest, completion, eviction, fault
    /// counters and probes. In Ideal mode every genuine first hop clears
    /// the reservation its launch made at its intermediate here, whatever
    /// becomes of it, before the transmit pass reads the intermediate's
    /// admission test. `armed` says a fault script is armed.
    ///
    /// Per entry, `uplink` is the RX port the cell landed on and
    /// `launch_t` the slot-in-epoch it was launched at — together, with
    /// the schedule inverse, they name the one node allowed to transmit
    /// into this (receiver, port, slot), which is how counterfeits are
    /// attributed.
    pub(crate) fn receive<O: SlotObserver>(
        &mut self,
        due: &[(NodeId, u16, Cell)],
        now: Time,
        epoch: u64,
        launch_t: SlotInEpoch,
        armed: bool,
        obs: &mut O,
    ) {
        let mode = self.cfg.mode;
        let byz = armed && self.faults.byz.is_some();
        let link_faults = byz && self.faults.injector.has_link_faults();
        for &(dst, uplink, cell) in due {
            let at = dst.0 as usize;
            // Data-plane Byzantine filter (mirrors the §4.4 slew-clamp
            // idea: validate locally, bound the liar's damage per epoch).
            // Armed only when the script declares Byzantine nodes; runs
            // before the crash blackhole so forged cells aimed at dead
            // nodes are still dropped as forgeries, keeping conservation
            // exact.
            if byz && self.is_forged(dst, uplink, &cell, launch_t, link_faults) {
                // Blame the scheduled transmitter for the slot, not the
                // forged header: physics pins which laser lit this port.
                let liar = self.sched.base().source(dst, UplinkId(uplink), launch_t);
                self.faults.report.cells_forged_dropped += 1;
                obs.note_forged_dropped();
                if let Some(bz) = self.faults.byz.as_mut() {
                    bz.suspicion[liar.0 as usize] += 1;
                }
                continue;
            }
            // Ideal: the first hop has landed, so its reservation goes; if
            // it is queued below, `queued` takes over the unit.
            if mode == CcMode::Ideal && cell.dst != dst {
                self.nodes[at].cc.landed(cell.dst);
            }
            if armed && self.faults.is_crashed(dst) {
                // Blackholed until routing learns of the failure.
                self.faults.report.cells_lost_crash += 1;
                obs.note_blackholed(dst, epoch);
                continue;
            }
            // A cell reaching its intermediate after a column omission
            // severed the second hop would strand in the relay queue until
            // the column heals; consume its reservation and bounce it back
            // to LOCAL for a fresh request/grant round through a live
            // detour.
            if cell.dst != dst
                && self.sched.has_omitted_columns()
                && !self.sched.pair_usable(dst, cell.dst)
            {
                self.nodes[at].reroute_arrival(cell);
                self.faults.report.cells_rerouted += 1;
                continue;
            }
            // `None`: queued for relay.
            if let Some(cell) = self.nodes[at].receive_cell(cell) {
                self.apply_delivery(&cell, now, obs);
            }
        }
    }

    /// Whether `cell`, landing at `dst` on RX port `uplink` from a launch
    /// at `launch_t`, is a counterfeit. `link_faults`: the script can
    /// reparent cells (see below).
    fn is_forged(
        &self,
        dst: NodeId,
        uplink: u16,
        cell: &Cell,
        launch_t: SlotInEpoch,
        link_faults: bool,
    ) -> bool {
        // A counterfeit cannot name a real flow: receivers check the
        // header against their flow table.
        if cell.flow.0 as usize >= self.flows.len() {
            return true;
        }
        if cell.dst == dst {
            // Delivered-type: endpoints must match the flow table's record
            // for that flow. (A genuine delivered-type cell was built from
            // this record; forged headers carry an out-of-range id and
            // short-circuit above.)
            let f = &self.flows[cell.flow.0 as usize];
            let spn = self.cfg.network.servers_per_node as u32;
            return NodeId(f.src_server / spn) != cell.src
                || NodeId(f.dst_server / spn) != cell.dst
                || cell.dst_server.0 != f.dst_server;
        }
        // Relay-type: the claimed origin must be the slot's scheduled
        // transmitter — sound only while no link faults can reparent cells
        // (column repair bounces relays back to LOCAL at other nodes,
        // which relaunches them off-origin) — and in Protocol mode a relay
        // arrival must match a live reservation (stale-grant replay check;
        // grant_timeout's VOQ-wait floor guarantees legitimate relays
        // always find one).
        let scheduled = self.sched.base().source(dst, UplinkId(uplink), launch_t);
        (!link_faults && cell.src != scheduled)
            || (self.cfg.mode == CcMode::Protocol
                && self.nodes[dst.0 as usize].cc.outstanding(cell.dst) == 0)
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
