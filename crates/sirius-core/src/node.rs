//! Per-node queueing: the `LOCAL` buffer, per-intermediate virtual output
//! queues, and per-destination relay queues (§4.2–4.3).
//!
//! A node plays three roles simultaneously:
//!
//! * **Source** — cells generated by its servers wait in `LOCAL` until the
//!   congestion-control protocol grants them an intermediate, at which point
//!   they move to the VOQ of that intermediate.
//! * **Intermediate** — granted cells relayed through this node wait in a
//!   per-final-destination relay queue (bounded by `Q`).
//! * **Destination** — arriving cells addressed to this node are handed to
//!   the per-server reorder buffers (owned by the simulator).
//!
//! Transmission priority at a slot connected to node `j`: relay cells
//! queued for `j` go first, but a contended slot (both the relay queue for
//! `j` and the VOQ toward `j` backlogged) is ceded to the VOQ after the
//! relay queue has won [`RELAY_BURST`] contended slots in a row. Strict
//! relay-first service would let sustained relay traffic starve granted
//! VOQ cells indefinitely at saturation, holding their reservations at the
//! intermediate past the grant-loss backstop timeout (§4.3 bounds relay
//! queues by *admission* — grants are only issued while
//! `queued + outstanding < Q` — so the bound does not depend on relay
//! cells draining ahead of VOQ cells). The burst length keeps relay
//! service near-strict below saturation, so the epoch-length queuing
//! signature of the guardband experiments is unchanged, while still
//! guaranteeing the VOQ at least one in `RELAY_BURST + 1` contended slots.

use crate::arena::{CellArena, Fifo};
use crate::bits;
use crate::cell::Cell;
use crate::congestion::{CongestionState, RequestRound};
use crate::topology::NodeId;
use rand::Rng;

/// What a node put on the wire in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTx {
    /// A relay cell being forwarded to its final destination.
    Relay(Cell),
    /// A granted source cell headed to its intermediate.
    ToIntermediate(Cell),
    /// Nothing to send; the slot still carries piggybacked control and
    /// keeps the receiver's cached CDR phase fresh.
    Idle,
}

/// Queue-occupancy snapshot used by the Fig. 10 experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueOccupancy {
    /// Cells in `LOCAL` (awaiting a grant).
    pub local_cells: u64,
    /// Cells in VOQs (granted, awaiting their slot to the intermediate).
    pub voq_cells: u64,
    /// Cells in relay queues (in transit through this node).
    pub relay_cells: u64,
}

impl QueueOccupancy {
    /// "Network" queue cells: what the paper's aggregate-occupancy metric
    /// counts at a ToR (cells held on behalf of the fabric).
    pub fn fabric_cells(&self) -> u64 {
        self.voq_cells + self.relay_cells
    }
}

/// Default contended slots the relay queue may win in a row before the VOQ
/// toward the same peer gets one. Bounds a granted cell's VOQ wait to
/// `(RELAY_BURST + 1) * Q * n` epochs (see the module docs and the grant
/// timeout floor in the simulator), while keeping relay service
/// near-strict below saturation. Runtime-tunable per node via
/// [`SiriusNode::set_relay_burst`] (the `relay_burst` sensitivity sweep in
/// `sirius-bench` justifies this default).
pub const RELAY_BURST: u8 = 3;

/// The queueing state of one Sirius node.
///
/// All state is owned plain data (arena slab, queue headers, counters)
/// with no interior mutability or shared allocation, so a node — and any
/// `&mut` range of nodes — can move across threads. The sharded slot
/// engine in `sirius-sim` partitions `&mut [SiriusNode]` into disjoint
/// contiguous ranges, one per worker; the assertion below keeps that
/// contract from regressing silently (e.g. by an `Rc` sneaking into a
/// queue).
#[derive(Debug)]
pub struct SiriusNode {
    id: NodeId,
    n: usize,
    /// Every resident cell lives here; the queues below are intrusive
    /// FIFOs threaded through it (an 8-byte header per queue, no buffer
    /// of their own), so moving a cell between queues (grant, reclaim,
    /// reroute) never copies it and never allocates after warm-up.
    arena: CellArena,
    /// LOCAL, kept as per-destination FIFOs: grants match the oldest cell
    /// for their destination in O(1), and request generation round-robins
    /// across destinations (see `gen_requests`).
    local: Vec<Fifo>,
    /// Cells in each LOCAL queue (request generation covers a queue cell
    /// by cell without walking it).
    local_len: Vec<u32>,
    /// Destinations with a non-empty LOCAL queue (unordered index so the
    /// ideal-mode scan is O(non-empty), not O(n)).
    local_nonempty: Vec<u32>,
    /// Position of each destination in `local_nonempty` (u32::MAX = absent).
    local_pos: Vec<u32>,
    local_cells: u64,
    /// Per peer, the two queues a slot toward it can send from.
    fabric: Vec<FabricQueues>,
    voq_cells: u64,
    relay_cells: u64,
    /// Bit `p` set iff `fabric[p]` holds a relay or VOQ cell — the exact
    /// condition under which [`transmit`](Self::transmit)`(p)` does work.
    /// Lets the slot engine test a scheduled peer with one load instead
    /// of probing two queues.
    fabric_mask: Vec<u64>,
    /// Reused buffer for the selective-reclaim path (repair storms call
    /// it per (source, intermediate) pair; it must not allocate per call).
    scratch: Vec<u32>,
    /// Requests already aimed at each non-empty LOCAL queue this epoch,
    /// parallel to `local_nonempty`; only meaningful inside
    /// `gen_requests`, which sizes it by the non-empty queues, not by `n`.
    covered: Vec<u32>,
    /// Congestion-control state.
    pub cc: CongestionState,
    req_round: RequestRound,
    /// When false (the SIRIUS (IDEAL) baseline of §7), cells bypass the
    /// request/grant protocol and the CC counters are not maintained.
    track_cc: bool,
    /// Per-peer count of consecutive contended slots the relay queue has
    /// won; at `relay_burst` the next contended slot is ceded to the VOQ
    /// so granted cells cannot starve at saturation.
    relay_wins: Vec<u8>,
    /// Contended-slot burst bound (defaults to [`RELAY_BURST`]).
    relay_burst: u8,
    /// Round-robin pointer for ideal-mode LOCAL scanning.
    rr: u32,
    /// Round-robin pointer for request generation across destinations.
    rr_req: u32,
    /// Unanswered requests carried to the next epoch: `(dest, intermediate)`
    /// pairs re-issued verbatim until granted. Persistence is what makes
    /// the distributed matching converge (as in iterative crossbar
    /// schedulers like DRRM/iSLIP): a fresh random draw every epoch loses
    /// ~1/e of the distinct-intermediate coverage to collisions forever,
    /// while sticky requests stabilize into a near-perfect matching under
    /// backlog. The third field is the entry's age in epochs: entries that
    /// were never answered (e.g. the intermediate failed) are re-rolled
    /// after `STICKY_MAX_AGE` so a dead intermediate cannot starve a cell.
    sticky: Vec<(u32, u32, u8)>,
    /// Position in `sticky` of the entry aimed at each intermediate
    /// (u32::MAX = none). Every sticky entry holds a claim on its
    /// intermediate for the epoch, so at most one entry per intermediate
    /// exists and grant matching is a single lookup instead of a scan.
    sticky_of: Vec<u32>,
    /// Peak of `fabric_cells` observed.
    peak_fabric_cells: u64,
    /// Peak of `local_cells` observed.
    peak_local_cells: u64,
}

/// The queues toward one peer: relay cells whose final destination it
/// is, and VOQ cells granted through it as an intermediate.
#[derive(Debug, Clone, Copy)]
struct FabricQueues {
    relay: Fifo,
    voq: Fifo,
}

/// The sharded slot engine hands disjoint `&mut [SiriusNode]` ranges to
/// worker threads (see the struct docs).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SiriusNode>()
};

impl SiriusNode {
    pub fn new(id: NodeId, n: usize, q: usize, grant_timeout_epochs: u64) -> SiriusNode {
        SiriusNode {
            id,
            n,
            arena: CellArena::new(),
            local: vec![Fifo::EMPTY; n],
            local_len: vec![0; n],
            local_nonempty: Vec::new(),
            local_pos: vec![u32::MAX; n],
            local_cells: 0,
            fabric: vec![
                FabricQueues {
                    relay: Fifo::EMPTY,
                    voq: Fifo::EMPTY,
                };
                n
            ],
            voq_cells: 0,
            relay_cells: 0,
            fabric_mask: vec![0; bits::words(n)],
            scratch: Vec::new(),
            covered: Vec::new(),
            cc: CongestionState::new(id, n, q, grant_timeout_epochs),
            req_round: RequestRound::new(n),
            track_cc: true,
            relay_wins: vec![0; n],
            relay_burst: RELAY_BURST,
            rr: 0,
            rr_req: 0,
            sticky: Vec::new(),
            sticky_of: vec![u32::MAX; n],
            peak_fabric_cells: 0,
            peak_local_cells: 0,
        }
    }

    /// Build a node for the SIRIUS (IDEAL) baseline: per-flow queues with
    /// idealized back-pressure instead of the request/grant protocol. Use
    /// [`ideal_transmit`](Self::ideal_transmit) instead of request/grant
    /// driving.
    pub fn new_ideal(id: NodeId, n: usize, q: usize) -> SiriusNode {
        let mut node = SiriusNode::new(id, n, q, u64::MAX / 2);
        node.track_cc = false;
        node
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Override the relay-burst arbitration bound (sensitivity sweeps).
    /// The caller owns keeping the grant-timeout floor consistent.
    pub fn set_relay_burst(&mut self, burst: u8) {
        self.relay_burst = burst;
    }

    /// A cell generated by a local server enters LOCAL.
    pub fn enqueue_local(&mut self, cell: Cell) {
        debug_assert_ne!(cell.dst, self.id, "intra-node traffic must bypass the core");
        let h = self.arena.insert(cell);
        self.local_push_back(h, cell.dst.0 as usize);
        self.local_cells += 1;
        self.peak_local_cells = self.peak_local_cells.max(self.local_cells);
    }

    /// List destination `d` as non-empty if this is its first LOCAL cell.
    #[inline]
    fn note_local_nonempty(&mut self, d: usize) {
        if self.local_len[d] == 0 {
            self.local_pos[d] = self.local_nonempty.len() as u32;
            self.local_nonempty.push(d as u32);
        }
    }

    /// Append an arena-resident cell to LOCAL queue `d` (the caller keeps
    /// `local_cells` and its peak).
    #[inline]
    fn local_push_back(&mut self, h: u32, d: usize) {
        self.note_local_nonempty(d);
        self.arena.push_back(&mut self.local[d], h);
        self.local_len[d] += 1;
    }

    /// Re-queue an arena-resident cell at the *front* of its LOCAL
    /// destination queue (reclaim path: the cell was already granted once
    /// and is older than anything waiting behind it).
    fn local_push_front(&mut self, h: u32) {
        let d = self.arena.get(h).dst.0 as usize;
        self.note_local_nonempty(d);
        self.arena.push_front(&mut self.local[d], h);
        self.local_len[d] += 1;
        self.local_cells += 1;
        self.peak_local_cells = self.peak_local_cells.max(self.local_cells);
    }

    /// The routing plane excluded `intermediate`: granted cells still
    /// waiting in its VOQ would otherwise strand (their grants expire at
    /// the dead intermediate and nothing retransmits them). Move them back
    /// to the front of LOCAL so they are re-requested through live
    /// intermediates, and drop any sticky requests aimed at the dead one.
    /// Returns the number of reclaimed cells.
    pub fn reclaim_voq(&mut self, intermediate: NodeId) -> usize {
        let reclaimed = self.reclaim_voq_where(intermediate, |_| true);
        self.relay_wins[intermediate.0 as usize] = 0;
        reclaimed
    }

    /// Selective reclaim for link-granular repair (§4.5): only the VOQ
    /// cells whose *destination* satisfies `stranded` are pulled back into
    /// LOCAL — a column omission at `intermediate` severs one group offset,
    /// so cells detouring toward other destinations stay granted and keep
    /// their slot. FIFO order is preserved both in the surviving VOQ and at
    /// the front of LOCAL; sticky requests aimed at the now-severed
    /// `(destination, intermediate)` pairs are dropped so they re-roll a
    /// live detour. Returns the number of reclaimed cells.
    pub fn reclaim_voq_where(
        &mut self,
        intermediate: NodeId,
        stranded: impl Fn(NodeId) -> bool,
    ) -> usize {
        let p = intermediate.0 as usize;
        debug_assert!(self.scratch.is_empty());
        // Unlink the stranded handles into the reused scratch buffer;
        // survivors keep their order in the VOQ — no allocation.
        self.arena.extract_where(
            &mut self.fabric[p].voq,
            |c| stranded(c.dst),
            &mut self.scratch,
        );
        let reclaimed = self.scratch.len();
        self.voq_cells -= reclaimed as u64;
        self.update_fabric_bit(p);
        // Oldest pulled cell must end up frontmost in LOCAL.
        while let Some(h) = self.scratch.pop() {
            self.local_push_front(h);
        }
        // Drop the sticky request aimed at the severed `(dest, intermediate)`
        // pair, if any (at most one exists — see `sticky_of`); later entries
        // shift down one slot, exactly as the old `retain` did.
        let pos = self.sticky_of[intermediate.0 as usize] as usize;
        if pos != u32::MAX as usize {
            debug_assert_eq!(self.sticky[pos].1, intermediate.0);
            if stranded(NodeId(self.sticky[pos].0)) {
                self.sticky.remove(pos);
                self.sticky_of[intermediate.0 as usize] = u32::MAX;
                for k in pos..self.sticky.len() {
                    self.sticky_of[self.sticky[k].1 as usize] = k as u32;
                }
            }
        }
        reclaimed
    }

    /// Move every relay cell queued here for `dst` back into LOCAL
    /// (releasing its CC queue slot): link-granular repair just severed
    /// our path to `dst`, and these cells would otherwise sit forever in a
    /// queue whose slots no longer exist. From LOCAL they re-request a
    /// fresh detour. The cells never leave the arena, and order is
    /// preserved. Returns the number of cells moved.
    pub fn reroute_relay_to_local(&mut self, dst: NodeId) -> usize {
        let d = dst.0 as usize;
        debug_assert_ne!(dst, self.id, "a deliverable cell needs no reroute");
        let mut moved = 0;
        while let Some(h) = self.arena.pop_front(&mut self.fabric[d].relay) {
            self.local_push_back(h, d);
            if self.track_cc {
                self.cc.relay_departed(dst);
            }
            moved += 1;
        }
        self.relay_cells -= moved as u64;
        self.update_fabric_bit(d);
        self.local_cells += moved as u64;
        self.peak_local_cells = self.peak_local_cells.max(self.local_cells);
        moved
    }

    /// A granted relay cell arrived for a destination this node can no
    /// longer reach (its grant predates the column omission that severed
    /// the pair). Consume the reservation as a normal arrival + departure
    /// and re-queue the cell in LOCAL for a fresh VLB detour, so the cell
    /// survives without corrupting the CC accounting.
    pub fn reroute_arrival(&mut self, cell: Cell) {
        debug_assert_ne!(cell.dst, self.id, "a delivery needs no reroute");
        if self.track_cc {
            self.cc.relay_arrived(cell.dst);
            self.cc.relay_departed(cell.dst);
        }
        self.enqueue_local(cell);
    }

    /// Pop the oldest LOCAL handle for destination `d`, maintaining the
    /// non-empty index. The cell stays in the arena (grant path: the
    /// handle moves straight into a VOQ).
    fn local_pop_handle(&mut self, d: u32) -> Option<u32> {
        let h = self.arena.pop_front(&mut self.local[d as usize])?;
        self.local_len[d as usize] -= 1;
        self.local_cells -= 1;
        if self.local_len[d as usize] == 0 {
            // Swap-remove from the non-empty list.
            let pos = self.local_pos[d as usize] as usize;
            let last = *self.local_nonempty.last().unwrap();
            self.local_nonempty.swap_remove(pos);
            self.local_pos[d as usize] = u32::MAX;
            if last != d {
                self.local_pos[last as usize] = pos as u32;
            }
        }
        Some(h)
    }

    /// Pop the oldest LOCAL cell for destination `d` out of the arena.
    fn local_pop(&mut self, d: u32) -> Option<Cell> {
        let h = self.local_pop_handle(d)?;
        Some(self.arena.remove(h))
    }

    /// Start a new epoch: advances CC state (grant expiry, request rotation)
    /// and resets the one-request-per-intermediate tracker.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.cc.begin_epoch(epoch);
        self.req_round.reset();
        // A node is never its own intermediate: claim the self slot so
        // `exhausted()` fires once every *other* node has been asked.
        self.req_round.claim(self.id);
    }

    /// Generate this epoch's requests: one per LOCAL cell, each to a
    /// fresh uniformly random intermediate, stopping when all
    /// intermediates have been asked (§4.3). Cells are covered
    /// round-robin across destination queues (oldest first within each)
    /// rather than in strict global arrival order: with a deep backlog a
    /// strict FIFO would concentrate every request on the few
    /// destinations at its head, while at most one of them can be granted
    /// per (intermediate, destination) per epoch — the per-VOQ fairness
    /// is what makes the protocol behave like the DRRM it is modelled on.
    /// `pick` chooses the intermediate (VLB policy + failure mask live
    /// with the caller).
    pub fn gen_requests<R, F>(&mut self, rng: &mut R, mut pick: F) -> Vec<(NodeId, NodeId)>
    where
        R: Rng + ?Sized,
        F: FnMut(&mut R, NodeId, NodeId) -> Option<NodeId>,
    {
        let mut out = Vec::new();
        if self.local_cells == 0 {
            return out;
        }
        // `covered` counts requests per non-empty LOCAL queue, through
        // `local_pos`: LOCAL does not change while requests are drawn.
        let mut covered = std::mem::take(&mut self.covered);
        covered.clear();
        covered.resize(self.local_nonempty.len(), 0);
        // 1. Re-issue last epoch's unanswered requests (pruned against the
        //    cells still waiting — grants and local pops may have shrunk a
        //    queue below its sticky count — and aged out after
        //    STICKY_MAX_AGE epochs so a dead or saturated intermediate
        //    cannot starve a cell forever).
        const STICKY_MAX_AGE: u8 = 8;
        // Survivors are compacted toward the front in place.
        let mut kept = 0;
        for k in 0..self.sticky.len() {
            let (d, i, age) = self.sticky[k];
            self.sticky_of[i as usize] = u32::MAX;
            // An emptied queue (no `local_pos`) has nothing left to cover.
            let pos = self.local_pos[d as usize] as usize;
            if age < STICKY_MAX_AGE
                && pos != u32::MAX as usize
                && covered[pos] < self.local_len[d as usize]
                && self.req_round.claim(NodeId(i))
            {
                covered[pos] += 1;
                self.cc.note_request_sent();
                out.push((NodeId(i), NodeId(d)));
                self.sticky_of[i as usize] = kept as u32;
                self.sticky[kept] = (d, i, age + 1);
                kept += 1;
            }
        }
        self.sticky.truncate(kept);
        // 2. Cover remaining cells with fresh requests.
        let m = self.local_nonempty.len() as u32;
        // Round-robin over non-empty destination queues, one cell per
        // destination per round, until every cell is covered or
        // intermediates run out.
        'rounds: loop {
            let mut progressed = false;
            for k in 0..m {
                let pos = ((self.rr_req + k) % m) as usize;
                let d = self.local_nonempty[pos];
                if covered[pos] >= self.local_len[d as usize] {
                    continue;
                }
                if self.req_round.exhausted() {
                    break 'rounds;
                }
                // Draw random intermediates until we find an unclaimed
                // one; bounded retries, then a deterministic fallback.
                let dst = NodeId(d);
                let mut chosen = None;
                for _ in 0..8 {
                    if let Some(i) = pick(rng, self.id, dst) {
                        if self.req_round.claim(i) {
                            chosen = Some(i);
                            break;
                        }
                    } else {
                        break;
                    }
                }
                if chosen.is_none() && !self.req_round.exhausted() {
                    for cand in 0..self.n as u32 {
                        let c = NodeId(cand);
                        if c != self.id && c != dst && self.req_round.claim(c) {
                            chosen = Some(c);
                            break;
                        }
                    }
                }
                match chosen {
                    Some(i) => {
                        covered[pos] += 1;
                        self.cc.note_request_sent();
                        out.push((i, dst));
                        self.sticky_of[i.0 as usize] = self.sticky.len() as u32;
                        self.sticky.push((d, i.0, 0));
                        progressed = true;
                    }
                    // At most one unclaimed node remains (this cell's own
                    // destination); later cells cannot do better.
                    None => break 'rounds,
                }
            }
            if !progressed {
                break;
            }
        }
        // Rotate the starting destination so no queue is structurally
        // favoured across epochs.
        self.rr_req = self.rr_req.wrapping_add(1);
        self.covered = covered;
        out
    }

    /// A grant `(from, dst)` arrived: move the oldest LOCAL cell for `dst`
    /// into the VOQ for the granting intermediate. Returns whether the
    /// grant was usable.
    pub fn receive_grant(&mut self, from: NodeId, dst: NodeId) -> bool {
        // The grant answers our (dst, from) request: stop re-issuing it.
        // One indexed lookup suffices — each intermediate holds at most
        // one sticky entry (see `sticky_of`).
        let pos = self.sticky_of[from.0 as usize] as usize;
        if pos != u32::MAX as usize {
            debug_assert_eq!(self.sticky[pos].1, from.0);
            if self.sticky[pos].0 == dst.0 {
                self.sticky.swap_remove(pos);
                self.sticky_of[from.0 as usize] = u32::MAX;
                if pos < self.sticky.len() {
                    self.sticky_of[self.sticky[pos].1 as usize] = pos as u32;
                }
            }
        }
        if let Some(h) = self.local_pop_handle(dst.0) {
            self.arena
                .push_back(&mut self.fabric[from.0 as usize].voq, h);
            self.update_fabric_bit(from.0 as usize);
            self.voq_cells += 1;
            self.cc.note_grant_received(true);
            self.note_fabric_peak();
            true
        } else {
            self.cc.note_grant_received(false);
            false
        }
    }

    /// A cell arrived from the fabric. If it is for us, return it for
    /// delivery; otherwise queue it for relay.
    pub fn receive_cell(&mut self, cell: Cell) -> Option<Cell> {
        if cell.dst == self.id {
            Some(cell)
        } else {
            if self.track_cc {
                self.cc.relay_arrived(cell.dst);
            }
            let d = cell.dst.0 as usize;
            let h = self.arena.insert(cell);
            self.arena.push_back(&mut self.fabric[d].relay, h);
            self.update_fabric_bit(d);
            self.relay_cells += 1;
            self.note_fabric_peak();
            None
        }
    }

    /// Choose what to transmit on a slot connected to node `peer`.
    ///
    /// Relay cells for `peer` win by default; under contention (both the
    /// relay queue for `peer` and the VOQ toward `peer` non-empty) the
    /// relay queue may win at most [`RELAY_BURST`] slots in a row before
    /// ceding one to the VOQ, so granted cells cannot be starved past the
    /// grant-loss backstop timeout (see the module docs).
    pub fn transmit(&mut self, peer: NodeId) -> SlotTx {
        let p = peer.0 as usize;
        let has_relay = !self.fabric[p].relay.is_empty();
        let has_voq = peer != self.id && !self.fabric[p].voq.is_empty();
        debug_assert_eq!(
            self.fabric_nonempty(peer),
            has_relay || !self.fabric[p].voq.is_empty(),
            "fabric_mask out of sync at node {:?} peer {:?}",
            self.id,
            peer
        );
        if has_relay && (!has_voq || self.relay_wins[p] < self.relay_burst) {
            let h = self
                .arena
                .pop_front(&mut self.fabric[p].relay)
                .expect("checked non-empty");
            self.update_fabric_bit(p);
            self.relay_cells -= 1;
            if self.track_cc {
                self.cc.relay_departed(peer);
            }
            if has_voq {
                self.relay_wins[p] += 1;
            }
            return SlotTx::Relay(self.arena.remove(h));
        }
        if has_voq {
            let h = self
                .arena
                .pop_front(&mut self.fabric[p].voq)
                .expect("checked non-empty");
            self.update_fabric_bit(p);
            self.voq_cells -= 1;
            self.relay_wins[p] = 0;
            return SlotTx::ToIntermediate(self.arena.remove(h));
        }
        SlotTx::Idle
    }

    /// Ideal-mode transmission (the SIRIUS (IDEAL) baseline of §7):
    /// instead of waiting for a grant, a LOCAL cell is launched toward
    /// intermediate `peer` whenever idealized back-pressure (`has_room`,
    /// evaluated with instant global knowledge by the simulator) says the
    /// relay queue at `peer` for the cell's destination has space.
    ///
    /// Priority: relay cells for `peer`, then LOCAL cells destined *to*
    /// `peer` (direct delivery on the scheduled slot), then the first LOCAL
    /// cell (round-robin across destinations) with room at `peer`.
    pub fn ideal_transmit<F>(&mut self, peer: NodeId, mut has_room: F) -> SlotTx
    where
        F: FnMut(NodeId) -> bool,
    {
        if let Some(h) = self
            .arena
            .pop_front(&mut self.fabric[peer.0 as usize].relay)
        {
            self.update_fabric_bit(peer.0 as usize);
            self.relay_cells -= 1;
            return SlotTx::Relay(self.arena.remove(h));
        }
        if peer == self.id {
            return SlotTx::Idle;
        }
        if let Some(cell) = self.local_pop(peer.0) {
            return SlotTx::ToIntermediate(cell); // direct: cell.dst == peer
        }
        // Round-robin scan over the *non-empty* destinations for a cell
        // with room at the intermediate.
        let m = self.local_nonempty.len() as u32;
        for k in 0..m {
            let idx = ((self.rr + k) % m) as usize;
            let d = self.local_nonempty[idx];
            if d == peer.0 {
                continue;
            }
            if has_room(NodeId(d)) {
                let cell = self.local_pop(d).unwrap();
                self.rr = self.rr.wrapping_add(k + 1);
                return SlotTx::ToIntermediate(cell);
            }
        }
        SlotTx::Idle
    }

    fn note_fabric_peak(&mut self) {
        let fabric = self.voq_cells + self.relay_cells;
        self.peak_fabric_cells = self.peak_fabric_cells.max(fabric);
    }

    pub fn occupancy(&self) -> QueueOccupancy {
        QueueOccupancy {
            local_cells: self.local_cells,
            voq_cells: self.voq_cells,
            relay_cells: self.relay_cells,
        }
    }

    /// Peak fabric (VOQ + relay) cells held at this node.
    pub fn peak_fabric_cells(&self) -> u64 {
        self.peak_fabric_cells
    }
    /// Peak LOCAL cells held at this node.
    pub fn peak_local_cells(&self) -> u64 {
        self.peak_local_cells
    }

    /// Total cells resident at this node (drain check in tests).
    pub fn resident_cells(&self) -> u64 {
        self.local_cells + self.voq_cells + self.relay_cells
    }

    /// Fabric-resident (VOQ + relay) cells at this node — everything
    /// [`transmit`](Self::transmit) could possibly send this slot.
    pub fn fabric_cells(&self) -> u64 {
        self.voq_cells + self.relay_cells
    }

    /// Re-derive the `fabric_mask` bit for peer `p` from queue emptiness.
    #[inline]
    fn update_fabric_bit(&mut self, p: usize) {
        if self.fabric[p].relay.is_empty() && self.fabric[p].voq.is_empty() {
            bits::clear(&mut self.fabric_mask, p);
        } else {
            bits::set(&mut self.fabric_mask, p);
        }
    }

    /// Whether anything (relay or VOQ) is queued toward peer `p`.
    #[inline]
    pub fn fabric_nonempty(&self, p: NodeId) -> bool {
        bits::get(&self.fabric_mask, p.0 as usize)
    }

    /// The full per-peer fabric occupancy bitmask (see `fabric_nonempty`).
    #[inline]
    pub fn fabric_mask(&self) -> &[u64] {
        &self.fabric_mask
    }

    /// Length of the relay queue for destination `d` (walks the queue).
    pub fn relay_len(&self, d: NodeId) -> usize {
        self.arena.fifo_len(&self.fabric[d.0 as usize].relay)
    }

    /// Heap bytes this node holds, from its buffers' capacities (the
    /// footprint test pins the per-peer share).
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.heap_bytes()
            + self.local.capacity() * size_of::<Fifo>()
            + (self.local_len.capacity()
                + self.local_nonempty.capacity()
                + self.local_pos.capacity()
                + self.scratch.capacity()
                + self.covered.capacity()
                + self.sticky_of.capacity())
                * 4
            + self.fabric.capacity() * size_of::<FabricQueues>()
            + self.fabric_mask.capacity() * 8
            + self.relay_wins.capacity()
            + self.sticky.capacity() * size_of::<(u32, u32, u8)>()
            + self.cc.heap_bytes()
            + self.req_round.heap_bytes()
    }

    /// Cell-arena high-water mark (slots ever allocated). Stable once
    /// traffic reaches steady state; allocation-regression tests pin it
    /// across repair storms.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, FlowId};
    use crate::topology::ServerId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cell(src: u32, dst: u32, seq: u32) -> Cell {
        Cell {
            flow: FlowId(1),
            seq,
            payload: 540,
            src: NodeId(src),
            dst: NodeId(dst),
            dst_server: ServerId(dst),
            last: false,
        }
    }

    fn uniform_pick(rng: &mut SmallRng, src: NodeId, dst: NodeId, n: u32) -> Option<NodeId> {
        use rand::Rng;
        loop {
            let c = NodeId(rng.gen_range(0..n));
            if c != src && c != dst {
                return Some(c);
            }
        }
    }

    #[test]
    fn full_source_pipeline() {
        let mut node = SiriusNode::new(NodeId(0), 8, 4, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        node.enqueue_local(cell(0, 3, 0));
        node.begin_epoch(0);
        let reqs = node.gen_requests(&mut rng, |r, s, d| uniform_pick(r, s, d, 8));
        assert_eq!(reqs.len(), 1);
        let (i, d) = reqs[0];
        assert_eq!(d, NodeId(3));
        assert!(node.receive_grant(i, d));
        assert_eq!(node.occupancy().local_cells, 0);
        assert_eq!(node.occupancy().voq_cells, 1);
        // Slot to the intermediate comes up.
        match node.transmit(i) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.dst, NodeId(3)),
            other => panic!("expected ToIntermediate, got {other:?}"),
        }
        assert_eq!(node.resident_cells(), 0);
    }

    #[test]
    fn relay_pipeline_and_priority() {
        let mut node = SiriusNode::new(NodeId(2), 8, 4, 4);
        // A granted relay cell arrives (grant issued by us earlier).
        let mut rng = SmallRng::seed_from_u64(2);
        node.begin_epoch(0);
        node.cc.receive_request(NodeId(0), NodeId(5));
        node.begin_epoch(1);
        assert_eq!(
            node.cc.issue_grants_filtered(&mut rng, 1, |_| true).len(),
            1
        );
        assert!(node.receive_cell(cell(0, 5, 0)).is_none());
        assert_eq!(node.occupancy().relay_cells, 1);
        // Also a local granted cell headed to intermediate 5.
        node.enqueue_local(cell(2, 7, 0));
        assert!(node.receive_grant(NodeId(5), NodeId(7)));
        // Slot to node 5: relay cell must win.
        match node.transmit(NodeId(5)) {
            SlotTx::Relay(c) => assert_eq!(c.dst, NodeId(5)),
            other => panic!("expected Relay, got {other:?}"),
        }
        // Next slot to 5: the VOQ cell goes.
        match node.transmit(NodeId(5)) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.dst, NodeId(7)),
            other => panic!("expected ToIntermediate, got {other:?}"),
        }
    }

    #[test]
    fn delivery_returns_cell() {
        let mut node = SiriusNode::new(NodeId(5), 8, 4, 4);
        let c = cell(0, 5, 3);
        assert_eq!(node.receive_cell(c), Some(c));
        assert_eq!(node.resident_cells(), 0);
    }

    #[test]
    fn idle_when_empty() {
        let mut node = SiriusNode::new(NodeId(0), 8, 4, 4);
        assert_eq!(node.transmit(NodeId(3)), SlotTx::Idle);
        assert_eq!(node.transmit(NodeId(0)), SlotTx::Idle); // self slot
    }

    #[test]
    fn one_request_per_cell_and_per_intermediate() {
        let mut node = SiriusNode::new(NodeId(0), 16, 4, 4);
        let mut rng = SmallRng::seed_from_u64(3);
        for k in 0..5 {
            node.enqueue_local(cell(0, 1 + (k % 3), k));
        }
        node.begin_epoch(0);
        let reqs = node.gen_requests(&mut rng, |r, s, d| uniform_pick(r, s, d, 16));
        assert_eq!(reqs.len(), 5);
        let mut intermediates: Vec<u32> = reqs.iter().map(|(i, _)| i.0).collect();
        intermediates.sort_unstable();
        intermediates.dedup();
        assert_eq!(intermediates.len(), 5, "duplicate intermediate requested");
    }

    #[test]
    fn requests_stop_when_intermediates_exhausted() {
        // 4-node network: only 2 eligible intermediates for src=0.
        let mut node = SiriusNode::new(NodeId(0), 4, 4, 4);
        let mut rng = SmallRng::seed_from_u64(4);
        for k in 0..10 {
            node.enqueue_local(cell(0, 1, k));
        }
        node.begin_epoch(0);
        let reqs = node.gen_requests(&mut rng, |r, s, d| uniform_pick(r, s, d, 4));
        // dst=1 excluded, self excluded -> intermediates {2,3} only. The
        // linear fallback may also claim the dst/self slots? No: it skips
        // them. So at most 2 requests.
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn unused_grant_counts() {
        let mut node = SiriusNode::new(NodeId(0), 8, 4, 4);
        assert!(!node.receive_grant(NodeId(2), NodeId(3))); // nothing queued
        assert_eq!(node.cc.stats().grants_unused, 1);
    }

    #[test]
    fn grants_match_oldest_cell_fifo() {
        let mut node = SiriusNode::new(NodeId(0), 8, 4, 4);
        node.enqueue_local(cell(0, 3, 0));
        node.enqueue_local(cell(0, 3, 1));
        node.receive_grant(NodeId(5), NodeId(3));
        match node.transmit(NodeId(5)) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.seq, 0, "must grant FIFO"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn peak_tracking() {
        let mut node = SiriusNode::new(NodeId(0), 8, 4, 4);
        node.enqueue_local(cell(0, 1, 0));
        node.enqueue_local(cell(0, 2, 1));
        assert_eq!(node.peak_local_cells(), 2);
        node.receive_grant(NodeId(3), NodeId(1));
        node.receive_grant(NodeId(4), NodeId(2));
        assert_eq!(node.peak_fabric_cells(), 2);
    }

    #[test]
    fn ideal_mode_direct_delivery_first() {
        let mut node = SiriusNode::new_ideal(NodeId(0), 8, 4);
        node.enqueue_local(cell(0, 3, 0)); // destined to 3
        node.enqueue_local(cell(0, 5, 1)); // destined to 5
                                           // Slot to 3: the cell for 3 goes directly even if detours had room.
        match node.ideal_transmit(NodeId(3), |_| true) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.dst, NodeId(3)),
            other => panic!("{other:?}"),
        }
        // Slot to 2: cell for 5 detours via 2.
        match node.ideal_transmit(NodeId(2), |_| true) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.dst, NodeId(5)),
            other => panic!("{other:?}"),
        }
        assert_eq!(node.resident_cells(), 0);
    }

    #[test]
    fn ideal_mode_respects_backpressure() {
        let mut node = SiriusNode::new_ideal(NodeId(0), 8, 4);
        node.enqueue_local(cell(0, 5, 0));
        assert_eq!(node.ideal_transmit(NodeId(2), |_| false), SlotTx::Idle);
        assert_eq!(node.resident_cells(), 1);
        match node.ideal_transmit(NodeId(2), |d| d == NodeId(5)) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.dst, NodeId(5)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reclaim_voq_requeues_granted_cells_in_order() {
        let mut node = SiriusNode::new(NodeId(0), 8, 4, 4);
        node.enqueue_local(cell(0, 3, 0));
        node.enqueue_local(cell(0, 3, 1));
        node.enqueue_local(cell(0, 3, 2));
        // Cells 0 and 1 are granted through intermediate 5; then 5 dies.
        assert!(node.receive_grant(NodeId(5), NodeId(3)));
        assert!(node.receive_grant(NodeId(5), NodeId(3)));
        assert_eq!(node.occupancy().voq_cells, 2);
        assert_eq!(node.reclaim_voq(NodeId(5)), 2);
        assert_eq!(node.occupancy().voq_cells, 0);
        assert_eq!(node.occupancy().local_cells, 3);
        // FIFO restored: the next grant must still take seq 0 first.
        assert!(node.receive_grant(NodeId(6), NodeId(3)));
        match node.transmit(NodeId(6)) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.seq, 0, "reclaim broke FIFO"),
            other => panic!("{other:?}"),
        }
        assert_eq!(node.reclaim_voq(NodeId(5)), 0, "idempotent on empty VOQ");
    }

    #[test]
    fn selective_reclaim_pulls_only_stranded_destinations() {
        let mut node = SiriusNode::new(NodeId(0), 8, 4, 4);
        node.enqueue_local(cell(0, 3, 0));
        node.enqueue_local(cell(0, 3, 1));
        node.enqueue_local(cell(0, 6, 0));
        // All three granted through intermediate 5; then 5 loses only its
        // TX column toward node 3's group.
        assert!(node.receive_grant(NodeId(5), NodeId(3)));
        assert!(node.receive_grant(NodeId(5), NodeId(6)));
        assert!(node.receive_grant(NodeId(5), NodeId(3)));
        assert_eq!(node.occupancy().voq_cells, 3);
        assert_eq!(node.reclaim_voq_where(NodeId(5), |d| d == NodeId(3)), 2);
        assert_eq!(node.occupancy().voq_cells, 1, "cell for 6 keeps its slot");
        assert_eq!(node.occupancy().local_cells, 2);
        // The surviving VOQ cell is the one for 6.
        match node.transmit(NodeId(5)) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.dst, NodeId(6)),
            other => panic!("{other:?}"),
        }
        // Reclaimed cells kept FIFO: a fresh grant takes seq 0 first.
        assert!(node.receive_grant(NodeId(4), NodeId(3)));
        match node.transmit(NodeId(4)) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.seq, 0, "reclaim broke FIFO"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reclaim_storm_does_not_grow_allocations() {
        // A repair storm calls the selective reclaim once per (source,
        // intermediate) pair every update epoch; it must recycle the
        // arena free list and the scratch buffer, never allocate fresh
        // queues per call (the pre-arena implementation built a new
        // VecDeque + Vec each time).
        let mut node = SiriusNode::new(NodeId(0), 8, 64, 4);
        let storm = |node: &mut SiriusNode| {
            for k in 0..32 {
                node.enqueue_local(cell(0, 3, k));
            }
            for _ in 0..32 {
                assert!(node.receive_grant(NodeId(5), NodeId(3)));
            }
            // Intermediate 5 loses its column toward 3: everything comes
            // back to LOCAL...
            assert_eq!(node.reclaim_voq_where(NodeId(5), |d| d == NodeId(3)), 32);
            // ...and drains through a live intermediate.
            for _ in 0..32 {
                assert!(node.receive_grant(NodeId(6), NodeId(3)));
                assert!(matches!(
                    node.transmit(NodeId(6)),
                    SlotTx::ToIntermediate(_)
                ));
            }
            assert_eq!(node.resident_cells(), 0);
        };
        storm(&mut node);
        let cap = node.arena_capacity();
        assert!(cap >= 32, "warm-up did not size the arena");
        for _ in 0..100 {
            storm(&mut node);
        }
        assert_eq!(
            node.arena_capacity(),
            cap,
            "repair storm grew the cell arena"
        );
    }

    #[test]
    fn reroute_relay_to_local_matches_drain_plus_enqueue() {
        let mut node = SiriusNode::new(NodeId(2), 8, 4, 4);
        let mut rng = SmallRng::seed_from_u64(31);
        node.begin_epoch(0);
        node.cc.receive_request(NodeId(0), NodeId(5));
        node.cc.receive_request(NodeId(1), NodeId(5));
        node.begin_epoch(1);
        assert_eq!(
            node.cc.issue_grants_filtered(&mut rng, 1, |_| true).len(),
            2
        );
        assert!(node.receive_cell(cell(0, 5, 0)).is_none());
        assert!(node.receive_cell(cell(1, 5, 1)).is_none());
        assert_eq!(node.reroute_relay_to_local(NodeId(5)), 2);
        assert_eq!(node.occupancy().relay_cells, 0);
        assert_eq!(node.occupancy().local_cells, 2);
        assert_eq!(node.cc.queued(NodeId(5)), 0, "queue slots not released");
        // Order preserved: the oldest relay cell leads the LOCAL queue.
        assert!(node.receive_grant(NodeId(6), NodeId(5)));
        match node.transmit(NodeId(6)) {
            SlotTx::ToIntermediate(c) => assert_eq!(c.seq, 0, "reroute broke FIFO"),
            other => panic!("{other:?}"),
        }
        assert_eq!(node.reroute_relay_to_local(NodeId(5)), 0, "idempotent");
    }

    #[test]
    fn reroute_arrival_consumes_the_reservation_and_requeues() {
        let mut node = SiriusNode::new(NodeId(2), 8, 4, 4);
        let mut rng = SmallRng::seed_from_u64(33);
        node.begin_epoch(0);
        node.cc.receive_request(NodeId(0), NodeId(5));
        node.begin_epoch(1);
        assert_eq!(
            node.cc.issue_grants_filtered(&mut rng, 1, |_| true).len(),
            1
        );
        assert_eq!(node.cc.outstanding(NodeId(5)), 1);
        // The granted cell arrives after our column toward 5's group died.
        node.reroute_arrival(cell(0, 5, 0));
        assert_eq!(node.cc.outstanding(NodeId(5)), 0, "grant not consumed");
        assert_eq!(node.cc.queued(NodeId(5)), 0, "must not occupy the queue");
        assert_eq!(node.occupancy().relay_cells, 0);
        assert_eq!(node.occupancy().local_cells, 1, "cell must survive");
        assert_eq!(node.resident_cells(), 1);
    }

    #[test]
    fn relay_burst_is_tunable() {
        // With burst = 1 the VOQ gets every other contended slot.
        let mut node = SiriusNode::new(NodeId(2), 8, 4, 4);
        node.set_relay_burst(1);
        let mut rng = SmallRng::seed_from_u64(9);
        node.begin_epoch(0);
        for k in 0..4 {
            node.cc.receive_request(NodeId(0), NodeId(5));
            let _ = k;
        }
        node.begin_epoch(1);
        node.cc.issue_grants_filtered(&mut rng, 1, |_| true);
        for k in 0..3 {
            assert!(node.receive_cell(cell(0, 5, k)).is_none());
        }
        node.enqueue_local(cell(2, 7, 0));
        assert!(node.receive_grant(NodeId(5), NodeId(7)));
        // Contended slot 1: relay wins (burst 1 not yet spent)...
        assert!(matches!(node.transmit(NodeId(5)), SlotTx::Relay(_)));
        // ...contended slot 2: ceded to the VOQ immediately.
        assert!(matches!(
            node.transmit(NodeId(5)),
            SlotTx::ToIntermediate(_)
        ));
    }

    #[test]
    fn ideal_mode_relay_untracked() {
        let mut node = SiriusNode::new_ideal(NodeId(2), 8, 4);
        // No grant was issued; arrival must not panic in ideal mode.
        assert!(node.receive_cell(cell(0, 5, 0)).is_none());
        match node.ideal_transmit(NodeId(5), |_| false) {
            SlotTx::Relay(c) => assert_eq!(c.dst, NodeId(5)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_node_stays_inside_the_per_peer_byte_budget() {
        // Everything a node allocates per peer is a queue header, a
        // counter or a flag; buffers that hold cells or requests grow
        // with traffic. A dense per-peer container creeping back in (a
        // deque per peer is 32 B before its first element) breaks this.
        const BUDGET_BYTES_PER_PEER: usize = 72;
        for n in [1024usize, 4096] {
            let node = SiriusNode::new(NodeId(0), n, 4, 1 << 20);
            let per_peer = node.heap_bytes() as f64 / n as f64;
            assert!(
                per_peer <= BUDGET_BYTES_PER_PEER as f64,
                "idle node at n = {n} holds {per_peer:.1} B per peer"
            );
        }
    }

    mod differential {
        //! The intrusive queues against a plain `VecDeque`-of-cells model
        //! of the same node, under random operation sequences.
        use super::*;
        use proptest::prelude::*;
        use std::collections::VecDeque;

        /// What `SiriusNode`'s queueing does, with one owned deque per
        /// queue. The non-empty index is part of the behaviour (ideal
        /// mode round-robins over it), so it is modelled too.
        struct Model {
            id: NodeId,
            local: Vec<VecDeque<Cell>>,
            nonempty: Vec<u32>,
            voq: Vec<VecDeque<Cell>>,
            relay: Vec<VecDeque<Cell>>,
            relay_wins: Vec<u8>,
            rr: u32,
        }

        impl Model {
            fn new(id: NodeId, n: usize) -> Model {
                Model {
                    id,
                    local: vec![VecDeque::new(); n],
                    nonempty: Vec::new(),
                    voq: vec![VecDeque::new(); n],
                    relay: vec![VecDeque::new(); n],
                    relay_wins: vec![0; n],
                    rr: 0,
                }
            }

            fn note_nonempty(&mut self, d: usize) {
                if self.local[d].is_empty() {
                    self.nonempty.push(d as u32);
                }
            }

            fn enqueue_local(&mut self, c: Cell) {
                self.note_nonempty(c.dst.0 as usize);
                self.local[c.dst.0 as usize].push_back(c);
            }

            fn local_pop(&mut self, d: u32) -> Option<Cell> {
                let c = self.local[d as usize].pop_front()?;
                if self.local[d as usize].is_empty() {
                    let pos = self.nonempty.iter().position(|&x| x == d).unwrap();
                    self.nonempty.swap_remove(pos);
                }
                Some(c)
            }

            fn receive_grant(&mut self, from: NodeId, dst: NodeId) -> bool {
                match self.local_pop(dst.0) {
                    Some(c) => {
                        self.voq[from.0 as usize].push_back(c);
                        true
                    }
                    None => false,
                }
            }

            fn receive_cell(&mut self, c: Cell) -> Option<Cell> {
                if c.dst == self.id {
                    return Some(c);
                }
                self.relay[c.dst.0 as usize].push_back(c);
                None
            }

            fn transmit(&mut self, peer: NodeId) -> SlotTx {
                let p = peer.0 as usize;
                let has_relay = !self.relay[p].is_empty();
                let has_voq = peer != self.id && !self.voq[p].is_empty();
                if has_relay && (!has_voq || self.relay_wins[p] < RELAY_BURST) {
                    if has_voq {
                        self.relay_wins[p] += 1;
                    }
                    return SlotTx::Relay(self.relay[p].pop_front().unwrap());
                }
                if has_voq {
                    self.relay_wins[p] = 0;
                    return SlotTx::ToIntermediate(self.voq[p].pop_front().unwrap());
                }
                SlotTx::Idle
            }

            fn ideal_transmit(
                &mut self,
                peer: NodeId,
                has_room: impl Fn(NodeId) -> bool,
            ) -> SlotTx {
                if let Some(c) = self.relay[peer.0 as usize].pop_front() {
                    return SlotTx::Relay(c);
                }
                if peer == self.id {
                    return SlotTx::Idle;
                }
                if let Some(c) = self.local_pop(peer.0) {
                    return SlotTx::ToIntermediate(c);
                }
                let m = self.nonempty.len() as u32;
                for k in 0..m {
                    let d = self.nonempty[((self.rr + k) % m) as usize];
                    if d != peer.0 && has_room(NodeId(d)) {
                        self.rr = self.rr.wrapping_add(k + 1);
                        return SlotTx::ToIntermediate(self.local_pop(d).unwrap());
                    }
                }
                SlotTx::Idle
            }

            fn reclaim_voq_where(&mut self, p: NodeId, stranded: impl Fn(NodeId) -> bool) -> usize {
                let all = std::mem::take(&mut self.voq[p.0 as usize]);
                let (pulled, kept): (Vec<Cell>, Vec<Cell>) =
                    all.into_iter().partition(|c| stranded(c.dst));
                self.voq[p.0 as usize] = kept.into();
                for c in pulled.iter().rev() {
                    self.note_nonempty(c.dst.0 as usize);
                    self.local[c.dst.0 as usize].push_front(*c);
                }
                pulled.len()
            }

            fn reroute_relay_to_local(&mut self, dst: NodeId) -> usize {
                let cells = self.drain_relay(dst);
                for &c in &cells {
                    self.enqueue_local(c);
                }
                cells.len()
            }

            fn drain_relay(&mut self, dst: NodeId) -> Vec<Cell> {
                self.relay[dst.0 as usize].drain(..).collect()
            }

            fn occupancy(&self) -> QueueOccupancy {
                let cells = |qs: &[VecDeque<Cell>]| qs.iter().map(|q| q.len() as u64).sum();
                QueueOccupancy {
                    local_cells: cells(&self.local),
                    voq_cells: cells(&self.voq),
                    relay_cells: cells(&self.relay),
                }
            }

            fn fabric_mask(&self) -> Vec<u64> {
                let mut mask = vec![0; bits::words(self.local.len())];
                for p in 0..self.local.len() {
                    if !self.relay[p].is_empty() || !self.voq[p].is_empty() {
                        bits::set(&mut mask, p);
                    }
                }
                mask
            }
        }

        /// Each op packs three bytes: the operation and two operands.
        fn run(ops: Vec<u32>, ideal: bool) -> Result<(), TestCaseError> {
            // 70 peers: the fabric mask spans two words.
            const N: u32 = 70;
            let me = NodeId(3);
            let mut node = if ideal {
                SiriusNode::new_ideal(me, N as usize, 4)
            } else {
                SiriusNode::new(me, N as usize, 4, 1 << 20)
            };
            let mut model = Model::new(me, N as usize);
            // Few distinct peers, so queues get deep and collide.
            let peer = |x: u8| NodeId([0, 1, 2, 3, 63, 64, 69][x as usize % 7]);
            let other = |x: u8| {
                let p = peer(x);
                if p == me {
                    NodeId(5)
                } else {
                    p
                }
            };
            for (seq, &packed) in ops.iter().enumerate() {
                let [op, a, b, _] = packed.to_le_bytes();
                let c = |src: NodeId, dst: NodeId| Cell {
                    seq: seq as u32,
                    ..cell(src.0, dst.0, 0)
                };
                match op % 8 {
                    0 | 1 => {
                        node.enqueue_local(c(me, other(a)));
                        model.enqueue_local(c(me, other(a)));
                    }
                    2 => prop_assert_eq!(
                        node.receive_grant(other(a), other(b)),
                        model.receive_grant(other(a), other(b))
                    ),
                    3 => prop_assert_eq!(
                        node.receive_cell(c(other(a), peer(b))),
                        model.receive_cell(c(other(a), peer(b)))
                    ),
                    4 | 5 if ideal => {
                        let room = |d: NodeId| !(d.0 + b as u32).is_multiple_of(3);
                        prop_assert_eq!(
                            node.ideal_transmit(peer(a), room),
                            model.ideal_transmit(peer(a), room)
                        );
                    }
                    4 | 5 => prop_assert_eq!(node.transmit(peer(a)), model.transmit(peer(a))),
                    6 => {
                        let stranded = |d: NodeId| (d.0 + b as u32).is_multiple_of(2);
                        prop_assert_eq!(
                            node.reclaim_voq_where(other(a), stranded),
                            model.reclaim_voq_where(other(a), stranded)
                        );
                    }
                    _ => prop_assert_eq!(
                        node.reroute_relay_to_local(other(a)),
                        model.reroute_relay_to_local(other(a))
                    ),
                }
                prop_assert_eq!(node.occupancy(), model.occupancy(), "after op {}", seq);
                prop_assert_eq!(node.fabric_mask(), &model.fabric_mask()[..]);
                for d in 0..N {
                    prop_assert_eq!(node.relay_len(NodeId(d)), model.relay[d as usize].len());
                }
            }
            // Drain both: every queue hands back the same cells in the
            // same order.
            for p in (0..N).map(NodeId) {
                while model.receive_grant(NodeId(5), p) {
                    prop_assert!(node.receive_grant(NodeId(5), p));
                }
                prop_assert!(!node.receive_grant(NodeId(5), p));
            }
            for p in (0..N).map(NodeId) {
                loop {
                    let (got, want) = (node.transmit(p), model.transmit(p));
                    prop_assert_eq!(got, want);
                    if want == SlotTx::Idle {
                        break;
                    }
                }
            }
            prop_assert_eq!(node.resident_cells(), 0);
            Ok(())
        }

        proptest! {
            #[test]
            fn intrusive_queues_match_the_deque_model(
                ops in proptest::collection::vec(0u32..1 << 24, 1..600),
                ideal in proptest::bool::ANY,
            ) {
                run(ops, ideal)?;
            }
        }
    }
}
