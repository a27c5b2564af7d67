//! DeliverPlane: the propagation ring and arrival processing.
//!
//! Cells launched at slot `s` land at slot `s + prop_slots`; the ring
//! buffer holds them in flight. An arriving cell is either relayed (VLB
//! first hop), bounced back to LOCAL (its second hop died under column
//! repair), or delivered into the destination server's reorder buffer.
//!
//! # Receiver partition
//!
//! Every arrival effect is local to the *receiving* node `j`: its relay
//! queues and CC counters (`receive_cell`), its servers' reorder
//! buffers, and the flow records of flows terminating at `j` (a flow
//! terminates at exactly one receiver). [`deliver_range`] is therefore
//! range-parameterized over receivers — every shard of the driver's
//! deliver phase runs it over its own receiver range (the full range at
//! one shard) — with the two classes of non-local effect deferred into a
//! [`DeliverOut`]:
//!
//! * **Ordered** — the FNV digest over the delivered-cell sequence and
//!   the streaming eviction replay (`fold_and_evict` touches the global
//!   flow-slab free list and the order-sensitive stream digest). Shards
//!   record `(due index, cell, completed)`; [`SiriusSim::merge_deliveries`]
//!   k-way merges by due index and folds in canonical sequence — the
//!   same sequence at any shard count, by construction. Empty due slots
//!   (warmup, idle tails) skip the phase entirely.
//! * **Commutative** — loss/reroute/forgery counters, Byzantine
//!   suspicion sums (read only at the fault boundary), Ideal's
//!   shadow-occupancy releases (unread until the next TX phase) and
//!   `last_delivery` (every in-order delivery in a slot writes the same
//!   `now`). Applied per shard in shard order.

use crate::engine::fault::ByzPlane;
use crate::engine::observer::SlotObserver;
use crate::sirius_net::{CcMode, FlowSt, SiriusSim};
use sirius_core::cell::Cell;
use sirius_core::fault::FailurePlane;
use sirius_core::node::SiriusNode;
use sirius_core::reorder::ReorderBuffer;
use sirius_core::repair::AdjustedSchedule;
use sirius_core::topology::NodeId;
use sirius_core::units::Time;
use std::marker::PhantomData;

pub(crate) struct DeliverPlane {
    /// Delivery pipeline: ring indexed by arrival slot. Each entry is
    /// (receiver, RX uplink, cell); the uplink plus the launch slot name
    /// the scheduled transmitter, which Byzantine attribution needs.
    pub ring: Vec<Vec<(NodeId, u16, Cell)>>,
    pub reorder: Vec<ReorderBuffer>,
    pub digest: crate::audit::RunDigest,
    pub delivered_bytes: u64,
    pub cells_delivered: u64,
    pub completed: u64,
    pub last_delivery: Time,
}

impl DeliverPlane {
    pub fn new(ring_len: usize, servers: usize) -> DeliverPlane {
        DeliverPlane {
            ring: vec![Vec::new(); ring_len],
            reorder: (0..servers).map(|_| ReorderBuffer::new()).collect(),
            digest: crate::audit::RunDigest::new(),
            delivered_bytes: 0,
            cells_delivered: 0,
            completed: 0,
            last_delivery: Time::ZERO,
        }
    }
}

/// Element view over the flow slab for the deliver phase.
///
/// Arrival effects are receiver-local, but flow ids are
/// receiver-*interleaved* in slot order, so the slab cannot be split
/// into per-shard `&mut` ranges the way the node arrays are. Shards
/// instead index disjoint *elements* through this view; the receiver
/// partition of the due list guarantees two shards never touch the same
/// element, because a flow terminates at exactly one receiver. The view
/// holds the slab's `&mut` borrow, so nothing else can reach the slab
/// while it lives.
pub(crate) struct FlowSlots<'a> {
    ptr: *mut FlowSt,
    len: usize,
    _slab: PhantomData<&'a mut [FlowSt]>,
}

// SAFETY: sharing the view only shares the right to call `get_mut`,
// whose contract keeps concurrent accesses element-disjoint; `FlowSt` is
// `Send` (asserted beside its definition), so handing an element to
// another thread is sound.
#[allow(unsafe_code)]
unsafe impl Sync for FlowSlots<'_> {}

#[allow(unsafe_code)]
impl<'a> FlowSlots<'a> {
    pub(crate) fn new(slab: &'a mut [FlowSt]) -> FlowSlots<'a> {
        FlowSlots {
            ptr: slab.as_mut_ptr(),
            len: slab.len(),
            _slab: PhantomData,
        }
    }

    /// Slab size (largest flow id ever issued + 1) — the Byzantine
    /// filter's range check. Frozen for the whole slot: the slab only
    /// grows at epoch boundaries, never mid-drain.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// # Safety
    /// The caller's shard must own flow `i`'s receiver for the current
    /// deliver phase: no other thread accesses element `i` between the
    /// pool barrier's `go` for the phase and its `done`, and the caller
    /// holds no other reference to element `i`.
    #[allow(clippy::mut_from_ref)] // element view; exclusivity is the caller's claim
    unsafe fn get_mut(&self, i: usize) -> &mut FlowSt {
        assert!(i < self.len, "flow id outside the slab");
        &mut *self.ptr.add(i)
    }
}

/// One [`deliver_range`] pass's buffered non-local effects. Buffers keep
/// their high-water capacity across slots (cleared, never shrunk), so
/// the steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct DeliverOut {
    /// Final deliveries in due-list order: (due index, cell, completed
    /// now). The due index is the k-way-merge key that makes the digest
    /// fold — and the streaming eviction replay — byte-identical to
    /// serial.
    pub delivered: Vec<(u32, Cell, bool)>,
    pub delivered_bytes: u64,
    /// At least one in-order byte landed (`last_delivery` advances;
    /// every such assignment in one slot writes the same `now`).
    pub any_inorder: bool,
    pub lost_crash: u64,
    pub rerouted: u64,
    /// Ideal-mode shadow-occupancy releases for rerouted cells. The
    /// occupancy is unread until the next TX phase, so deferring the
    /// release to the epilogue is exact; `release_rerouted` is a no-op
    /// in the other modes, which skip the push entirely.
    pub reroute_release: Vec<(NodeId, NodeId)>,
    pub forged_dropped: u64,
    /// Scheduled transmitters blamed for counterfeits. `suspicion` is a
    /// commutative per-epoch sum read only at the fault boundary, so
    /// shard-order application is equivalent to due-order.
    pub byz_suspects: Vec<NodeId>,
}

impl DeliverOut {
    fn clear(&mut self) {
        self.delivered.clear();
        self.delivered_bytes = 0;
        self.any_inorder = false;
        self.lost_crash = 0;
        self.rerouted = 0;
        self.reroute_release.clear();
        self.forged_dropped = 0;
        self.byz_suspects.clear();
    }
}

/// Frozen slot inputs for [`deliver_range`], shared by every shard.
/// Everything here is either read-only for the slot or element-disjoint
/// by receiver ([`FlowSlots`]).
pub(crate) struct DeliverCtx<'a> {
    pub mode: CcMode,
    pub byz: Option<&'a ByzPlane>,
    pub has_link_faults: bool,
    pub flows: FlowSlots<'a>,
    pub failures: &'a FailurePlane,
    pub sched: &'a AdjustedSchedule,
    /// Servers per node: maps a receiver range `[lo, hi)` onto its
    /// reorder-buffer range `[lo*spn, hi*spn)`.
    pub spn: u32,
    pub launch_t: u16,
    pub now: Time,
    pub epoch: u64,
}

/// Process the due list's arrivals for receivers `[lo, hi)` (relay or
/// final delivery), buffering non-local effects into `out`.
///
/// `nodes` and `reorder` are the *range* slices (`nodes[lo..hi]`,
/// `reorder[lo*spn..hi*spn]` of the global arrays). The full due list is
/// scanned in index order and entries outside the range skipped — so the
/// per-receiver effect order (CC counters, reorder accepts, flow-record
/// writes) is exactly the serial order, and the recorded due indices
/// reconstruct the global sequence at the merge.
///
/// Per entry, `uplink` is the RX port the cell landed on and
/// `ctx.launch_t` the slot-in-epoch it was launched at — together, with
/// the schedule inverse, they name the one node allowed to transmit into
/// this (receiver, port, slot), which is how counterfeits are attributed.
#[allow(clippy::too_many_arguments)] // one hot call site per ring slot
pub(crate) fn deliver_range<O: SlotObserver>(
    ctx: &DeliverCtx,
    lo: u32,
    hi: u32,
    nodes: &mut [SiriusNode],
    reorder: &mut [ReorderBuffer],
    due: &[(NodeId, u16, Cell)],
    out: &mut DeliverOut,
    obs: &mut O,
) {
    debug_assert_eq!(nodes.len(), (hi - lo) as usize);
    debug_assert_eq!(reorder.len(), ((hi - lo) * ctx.spn) as usize);
    let server_base = (lo * ctx.spn) as usize;
    // SAFETY: both uses below pass the flow of a genuine cell whose final
    // destination is the receiver `dst` being processed, and `dst` is in
    // this shard's range `[lo, hi)` — so the flow terminates here, and
    // flows are receiver-disjoint across shard ranges (see FlowSlots).
    // Each returned borrow ends before the next call.
    #[allow(unsafe_code)]
    let flow = |fi: usize| unsafe { ctx.flows.get_mut(fi) };
    for (idx, &(dst, uplink, cell)) in due.iter().enumerate() {
        if dst.0 < lo || dst.0 >= hi {
            continue;
        }
        let li = (dst.0 - lo) as usize;
        // Data-plane Byzantine filter (mirrors the §4.4 slew-clamp idea:
        // validate locally, bound the liar's damage per epoch). Armed
        // only when the script declares Byzantine nodes; runs before the
        // crash blackhole so forged cells aimed at dead nodes are still
        // dropped as forgeries, keeping conservation exact.
        if let Some(bz) = ctx.byz {
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
                        let f = flow(cell.flow.0 as usize);
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
                        (!ctx.has_link_faults
                            && cell.src != bz.expected_src(dst, uplink, ctx.launch_t))
                            || (ctx.mode == CcMode::Protocol
                                && nodes[li].cc.outstanding(cell.dst) == 0)
                    };
            if forged {
                // Blame the scheduled transmitter for the slot, not the
                // forged header: physics pins which laser lit this port.
                out.byz_suspects
                    .push(bz.expected_src(dst, uplink, ctx.launch_t));
                out.forged_dropped += 1;
                obs.note_forged_dropped();
                continue;
            }
        }
        if ctx.failures.is_failed(dst) {
            obs.note_blackholed(dst, ctx.epoch);
            out.lost_crash += 1;
            continue; // blackholed until routing learns of the failure
        }
        // A cell reaching its intermediate after a column omission severed
        // the second hop would strand in the relay queue until the column
        // heals; consume its reservation and bounce it back to LOCAL for a
        // fresh request/grant round through a live detour.
        if cell.dst != dst
            && ctx.sched.has_omitted_columns()
            && !ctx.sched.pair_usable(dst, cell.dst)
        {
            out.rerouted += 1;
            if ctx.mode == CcMode::Ideal {
                out.reroute_release.push((dst, cell.dst));
            }
            nodes[li].reroute_arrival(cell);
            continue;
        }
        match nodes[li].receive_cell(cell) {
            None => {} // queued for relay (ideal occupancy already counted)
            Some(cell) => {
                let d = reorder[cell.dst_server.0 as usize - server_base].accept(
                    cell.flow,
                    cell.seq,
                    cell.payload,
                );
                obs.note_delivery(&cell, d.cells);
                let mut completed = false;
                if d.bytes > 0 {
                    out.delivered_bytes += d.bytes;
                    out.any_inorder = true;
                    let f = flow(cell.flow.0 as usize);
                    f.delivered += d.bytes;
                    if f.delivered >= f.bytes && f.completion.is_none() {
                        f.completion = Some(ctx.now);
                        reorder[cell.dst_server.0 as usize - server_base].finish_flow(cell.flow);
                        completed = true;
                    }
                }
                out.delivered.push((idx as u32, cell, completed));
            }
        }
    }
}

impl SiriusSim {
    /// Fold one final delivery in canonical (due-index) order: the digest
    /// update and — in streaming mode — the eviction replay are the only
    /// arrival effects that are order-sensitive *across* receivers, so
    /// they alone run serially on the main thread.
    #[inline]
    fn fold_delivery<O: SlotObserver>(
        &mut self,
        cell: &Cell,
        completed: bool,
        now_ps: u64,
        obs: &mut O,
    ) {
        self.delivery.cells_delivered += 1;
        self.delivery.digest.update_cell(cell, now_ps);
        if completed {
            self.delivery.completed += 1;
            // Streaming mode: the flow's every cell has been delivered
            // and its reorder entry retired, so its slab slot can be
            // recycled. Replayed here in due order because eviction
            // touches the global free list (LIFO — the order decides
            // future flow-id allocation) and the order-sensitive stream
            // digest.
            if self.evict_completed {
                self.fold_and_evict(cell.flow.0 as u32, obs);
            }
        }
    }

    /// Apply one [`DeliverOut`]'s order-insensitive effects: commutative
    /// counters and sums, plus Ideal's deferred shadow-occupancy
    /// releases. Clears `out` (buffers keep their capacity).
    fn apply_deliver_effects(&mut self, out: &mut DeliverOut, now: Time) {
        self.delivery.delivered_bytes += out.delivered_bytes;
        if out.any_inorder {
            self.delivery.last_delivery = now;
        }
        self.faults.report.cells_lost_crash += out.lost_crash;
        self.faults.report.cells_rerouted += out.rerouted;
        self.faults.report.cells_forged_dropped += out.forged_dropped;
        if let Some(bz) = self.faults.byz.as_mut() {
            for liar in &out.byz_suspects {
                bz.suspicion[liar.0 as usize] += 1;
            }
        }
        for &(at, dst) in &out.reroute_release {
            self.tx.release_rerouted(at, dst);
        }
        out.clear();
    }

    /// The deliver phase's ordered epilogue: k-way merge the per-shard
    /// delivered records by due index, folding the digest — and the
    /// streaming eviction replay — in exactly the due-list sequence, then
    /// the order-insensitive per-shard effects in shard order. `cursors`
    /// is one reusable merge cursor per shard.
    pub(crate) fn merge_deliveries<O: SlotObserver>(
        &mut self,
        outs: &mut [DeliverOut],
        cursors: &mut [usize],
        now: Time,
        obs: &mut O,
    ) {
        let now_ps = now.since(Time::ZERO).as_ps();
        cursors.fill(0);
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (s, out) in outs.iter().enumerate() {
                if let Some(&(idx, _, _)) = out.delivered.get(cursors[s]) {
                    if best.is_none_or(|(b, _)| idx < b) {
                        best = Some((idx, s));
                    }
                }
            }
            let Some((_, s)) = best else { break };
            let (_, cell, completed) = outs[s].delivered[cursors[s]];
            cursors[s] += 1;
            self.fold_delivery(&cell, completed, now_ps, obs);
        }
        for out in outs {
            self.apply_deliver_effects(out, now);
        }
    }
}
