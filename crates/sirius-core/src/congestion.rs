//! The request/grant congestion-control protocol (§4.3, Fig. 15).
//!
//! Queuing in Sirius happens only at intermediate nodes: node `I` can
//! forward at most one cell per epoch to destination `D` (per uplink column
//! covering that pair), so if several sources relay cells for `D` through
//! `I` in the same epoch, a queue builds. The protocol bounds that queue at
//! `Q` cells by requiring a request/grant round before a cell may be sent:
//!
//! * **Requests** — at the start of each epoch the source scans its `LOCAL`
//!   buffer in FIFO order and, for each queued cell, picks a uniformly
//!   random intermediate to ask for permission, sending at most one request
//!   to any given intermediate per epoch.
//! * **Grants** — each node considers the requests received in the previous
//!   epoch, picks one request per destination `D` uniformly at random, and
//!   grants it iff `queued(D) + outstanding_grants(D) < Q`.
//! * **Transmission** — on receiving a grant `(I, D)`, the source moves one
//!   cell for `D` from `LOCAL` into the virtual output queue for `I`; it is
//!   transmitted at the next scheduled slot to `I`.
//!
//! Requests and grants are piggybacked on cells, so each phase costs one
//! epoch of latency but zero bandwidth. The paper leaves the handling of
//! *unused* grants unspecified (a source may receive two grants for the
//! same cell); we expire outstanding grants after a configurable number of
//! epochs so the reservation is reclaimed — see
//! [`CongestionState::begin_epoch`].
//!
//! This module holds the per-node protocol state; the driving of request /
//! grant delivery across the network lives in the simulator, which delivers
//! them with one-epoch latency exactly as piggybacking would.

use crate::arena::Arena;
use crate::bits;
use crate::peers::{Peer, Peers};
use crate::topology::NodeId;
use rand::Rng;

/// Statistics the protocol keeps for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcStats {
    pub requests_sent: u64,
    pub requests_received: u64,
    pub grants_issued: u64,
    pub grants_received: u64,
    /// Grants received when no matching cell was waiting (the cell was
    /// already granted through another intermediate).
    pub grants_unused: u64,
    /// Outstanding grants reclaimed by timeout at the intermediate (only
    /// fires when a granted cell was lost, e.g. to a node failure).
    pub grants_expired: u64,
    /// Grants explicitly declined by the source (no waiting cell).
    pub grants_declined: u64,
    /// Requests dropped because the per-destination grant was already taken
    /// or the queue bound was hit.
    pub requests_denied: u64,
    /// Relay cells that arrived after their grant expired (lost-cell
    /// backstop fired spuriously; should be 0 without failures).
    pub untracked_arrivals: u64,
    /// Epoch-arrivals that pushed a relay queue beyond Q (should be 0
    /// without failures).
    pub bound_exceeded: u64,
}

impl CcStats {
    /// Field-wise accumulation (for network-wide totals).
    pub fn add(&mut self, o: &CcStats) {
        self.requests_sent += o.requests_sent;
        self.requests_received += o.requests_received;
        self.grants_issued += o.grants_issued;
        self.grants_received += o.grants_received;
        self.grants_unused += o.grants_unused;
        self.grants_expired += o.grants_expired;
        self.grants_declined += o.grants_declined;
        self.requests_denied += o.requests_denied;
        self.untracked_arrivals += o.untracked_arrivals;
        self.bound_exceeded += o.bound_exceeded;
    }
}

/// Per-node state of the congestion-control protocol.
///
/// Destinations are node ids (`0..n`). What is held per destination —
/// the queued and outstanding counts and the lapse queue of the
/// outstanding grants — lives in the node's per-peer records
/// (`crate::peers`), which exist only for pairs holding something;
/// everything else that grows with the protocol's activity (the
/// epoch's requests, the lapse epochs) lives in per-node buffers. Only
/// the `listed` set is `n` bits, so an idle intermediate costs a bit
/// per peer at any `Q`.
#[derive(Debug)]
pub struct CongestionState {
    node: NodeId,
    q: u32,
    grant_timeout_epochs: u64,
    /// The node's per-peer records: this state's counters and lapse
    /// queues, and [`SiriusNode`](crate::node::SiriusNode)'s queue
    /// headers for the same peers, one record per pair.
    pub(crate) peers: Peers,
    /// The lapse epochs of every record's outstanding grants.
    lapses: Arena<u64>,
    /// Destinations that may have outstanding grants, so the expiry walk
    /// visits these instead of all `n`. A destination is listed at most
    /// once (`listed` is the membership bitmask) and leaves at the first
    /// walk that finds it with nothing outstanding.
    granted: Vec<u32>,
    listed: Vec<u64>,
    /// Destinations whose `expiry` queue is non-empty. The walk also runs
    /// once `granted` exceeds twice this, so the list stays bounded by
    /// the destinations that still hold grants.
    holding: u32,
    /// No outstanding grant lapses before this epoch (a lower bound: the
    /// grant that set it may have been consumed since); the expiry walk
    /// is skipped until then.
    next_lapse: u64,
    /// Requests received during the current epoch, processed next epoch:
    /// `(requester, destination)` in arrival order.
    inbox: Vec<(NodeId, NodeId)>,
    /// Requests accumulated the previous epoch, being granted this epoch.
    pending: Vec<(NodeId, NodeId)>,
    /// Reused by the grant round to group `pending` by destination, all
    /// sized by the log, never by `n`: an open-addressed table from
    /// destination to group, each request's group, the groups
    /// `(destination, start, len)` in first-arrival order, and the
    /// requesters laid out group by group.
    table: Vec<u32>,
    group_of: Vec<u32>,
    groups: Vec<(u32, u32, u32)>,
    order: Vec<u32>,
    stats: CcStats,
}

impl CongestionState {
    pub fn new(node: NodeId, n: usize, q: usize, grant_timeout_epochs: u64) -> CongestionState {
        assert!(q >= 2, "the protocol requires Q >= 2 (paper §4.3)");
        CongestionState {
            node,
            q: q as u32,
            grant_timeout_epochs,
            peers: Peers::new(n),
            lapses: Arena::new(),
            granted: Vec::new(),
            listed: vec![0; bits::words(n)],
            holding: 0,
            next_lapse: u64::MAX,
            inbox: Vec::new(),
            pending: Vec::new(),
            table: Vec::new(),
            group_of: Vec::new(),
            groups: Vec::new(),
            order: Vec::new(),
            stats: CcStats::default(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }
    pub fn stats(&self) -> CcStats {
        self.stats
    }
    /// Cells queued here (as intermediate) for destination `d`.
    pub fn queued(&self, d: NodeId) -> u32 {
        self.peers.get(d.0).queued
    }
    /// Outstanding (unexpired, unconsumed) grants for destination `d`.
    pub fn outstanding(&self, d: NodeId) -> u32 {
        self.peers.get(d.0).outstanding
    }

    /// The §4.3 admission test: may this intermediate take one more cell
    /// for `d`, i.e. `queued(d) + outstanding(d) < Q`? The grant round
    /// asks it per grant; the SIRIUS (IDEAL) baseline asks it per launch,
    /// with instant knowledge of the intermediate's counters.
    #[inline]
    pub fn has_room(&self, d: NodeId) -> bool {
        let peer = self.peers.get(d.0);
        peer.queued + peer.outstanding < self.q
    }

    /// Ideal mode: a first hop for `d` was launched toward this
    /// intermediate. The reservation is instant and exact — it needs no
    /// lapse entry, because [`landed`](Self::landed) clears it when the
    /// cell arrives, and it counts in no [`CcStats`] field.
    #[inline]
    pub fn reserve(&mut self, d: NodeId) {
        self.peers.entry(d.0).outstanding += 1;
    }

    /// Ideal mode: a first hop reserved by [`reserve`](Self::reserve)
    /// landed here — queued for relay, blackholed or bounced to LOCAL, it
    /// holds no reservation any more.
    #[inline]
    pub fn landed(&mut self, d: NodeId) {
        let peer = self
            .peers
            .get_mut(d.0)
            .expect("a first hop landed unreserved");
        debug_assert!(peer.outstanding > 0, "a first hop landed unreserved");
        peer.outstanding -= 1;
    }

    /// Epoch boundary: expire stale grants and rotate the request inbox so
    /// that requests received last epoch become grantable this epoch.
    pub fn begin_epoch(&mut self, epoch: u64) {
        if epoch >= self.next_lapse || self.granted.len() > 2 * self.holding as usize {
            self.expire(epoch);
        }
        // Unserved requests from last epoch are dropped (the source will
        // re-request); rotate inbox -> pending.
        self.pending.clear();
        std::mem::swap(&mut self.inbox, &mut self.pending);
    }

    /// Expire outstanding grants that were never used, delist the
    /// destinations left with none, and find the next lapse. A
    /// destination is listed from its first grant on, so the list covers
    /// every destination with anything to expire.
    fn expire(&mut self, epoch: u64) {
        let mut next_lapse = u64::MAX;
        let mut k = 0;
        while k < self.granted.len() {
            let d = self.granted[k];
            // A destination without a record holds nothing to expire.
            let mut holds = false;
            if let Some(peer) = self.peers.get_mut(d) {
                while let Some(h) = peer.expiry.front() {
                    let lapse = *self.lapses.get(h);
                    if lapse > epoch {
                        next_lapse = next_lapse.min(lapse);
                        break;
                    }
                    drop_oldest_grant(peer, &mut self.lapses, &mut self.holding);
                    self.stats.grants_expired += 1;
                }
                holds = !peer.expiry.is_empty();
            }
            if holds {
                k += 1;
            } else {
                self.granted.swap_remove(k);
                bits::clear(&mut self.listed, d as usize);
            }
        }
        self.next_lapse = next_lapse;
    }

    /// A request from `from` for destination `dst` arrived (piggybacked on a
    /// cell this epoch); it will be considered for a grant next epoch.
    pub fn receive_request(&mut self, from: NodeId, dst: NodeId) {
        self.inbox.push((from, dst));
        self.stats.requests_received += 1;
    }

    /// Issue this epoch's grants: for every destination with pending
    /// requests, grant randomly-chosen requesters while the queue bound
    /// `queued(D) + outstanding(D) < Q` holds. Granting up to the bound
    /// (rather than a single request per destination) lets an intermediate
    /// absorb colliding requesters instead of starving them — the bound,
    /// not the grant cadence, is what keeps queues small. Returns
    /// `(requester, destination)` pairs.
    ///
    /// `eligible` restricts the grants to destinations this intermediate
    /// can still forward to (`|_| true` on a healthy schedule): under
    /// link-granular repair (§4.5) an omitted TX column can sever
    /// `self -> D` while `self` stays otherwise healthy, and granting such
    /// a request would queue a cell here that can never depart. Ineligible
    /// destinations' requests are denied (the sources re-roll a different
    /// intermediate next epoch).
    ///
    /// Destinations are served in the order their first request arrived
    /// and each destination's requesters are drawn from in arrival order;
    /// the draws on the shared protocol RNG depend on both.
    pub fn issue_grants_filtered<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        epoch: u64,
        eligible: impl Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, NodeId)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        // Every grant answers one request.
        let mut grants = Vec::with_capacity(self.pending.len());
        let mut order = std::mem::take(&mut self.order);
        let mut groups = std::mem::take(&mut self.groups);
        self.group_by_destination(&mut groups, &mut order);
        let lapse = epoch + self.grant_timeout_epochs;
        for &(d, start, len) in &groups {
            let run = &mut order[start as usize..(start + len) as usize];
            let mut live = run.len();
            if !eligible(NodeId(d)) {
                self.stats.requests_denied += live as u64;
                continue;
            }
            let peer = self.peers.entry(d);
            // Random service order: each pick is swap-removed from the run.
            while live > 0 && peer.queued + peer.outstanding < self.q {
                let k = rng.gen_range(0..live);
                let pick = NodeId(run[k]);
                live -= 1;
                run[k] = run[live];
                self.holding += peer.expiry.is_empty() as u32;
                let h = self.lapses.insert(lapse);
                self.lapses.push_back(&mut peer.expiry, h);
                peer.outstanding += 1;
                if !bits::get(&self.listed, d as usize) {
                    bits::set(&mut self.listed, d as usize);
                    self.granted.push(d);
                }
                self.stats.grants_issued += 1;
                grants.push((pick, NodeId(d)));
            }
            self.stats.requests_denied += live as u64;
        }
        if !grants.is_empty() {
            self.next_lapse = self.next_lapse.min(lapse);
        }
        self.order = order;
        self.groups = groups;
        grants
    }

    /// Group the arrival-ordered `pending` log by destination in one
    /// pass: `groups` gets `(destination, start, len)` in order of each
    /// destination's first request, and `order[start..start + len]` that
    /// destination's requesters in arrival order.
    fn group_by_destination(&mut self, groups: &mut Vec<(u32, u32, u32)>, order: &mut Vec<u32>) {
        const EMPTY: u32 = u32::MAX;
        // A power of two at least twice the log, so probes stay short.
        let slots = (2 * self.pending.len()).next_power_of_two();
        let shift = 32 - slots.trailing_zeros();
        self.table.clear();
        self.table.resize(slots, EMPTY);
        self.group_of.clear();
        groups.clear();
        for &(_, d) in &self.pending {
            // Fibonacci hashing: the top bits of `d * 2^32 / phi`.
            let mut s = (d.0.wrapping_mul(0x9E37_79B9) >> shift) as usize;
            let g = loop {
                let g = self.table[s];
                if g == EMPTY {
                    self.table[s] = groups.len() as u32;
                    groups.push((d.0, 0, 0));
                    break self.table[s];
                }
                if groups[g as usize].0 == d.0 {
                    break g;
                }
                s = (s + 1) & (slots - 1);
            };
            groups[g as usize].2 += 1;
            self.group_of.push(g);
        }
        // Lay the groups out back to back, then place each requester at
        // its group's fill cursor (`len` counts up again from 0).
        let mut start = 0;
        for group in groups.iter_mut() {
            group.1 = start;
            start += group.2;
            group.2 = 0;
        }
        order.clear();
        order.resize(self.pending.len(), 0);
        for (&(from, _), &g) in self.pending.iter().zip(&self.group_of) {
            let group = &mut groups[g as usize];
            order[(group.1 + group.2) as usize] = from.0;
            group.2 += 1;
        }
    }

    /// A granted relay cell for destination `d` arrived: one outstanding
    /// grant is consumed and the cell joins the relay queue.
    ///
    /// If the matching grant already expired (only possible when the cell
    /// was delayed past the loss-backstop timeout), the arrival is counted
    /// as untracked rather than corrupting the accounting.
    pub fn relay_arrived(&mut self, d: NodeId) {
        self.arrival(d, true);
    }

    /// A relay cell for destination `d` joined the queue here. The queue
    /// count is kept in every mode; the grant bookkeeping of
    /// [`relay_arrived`](Self::relay_arrived) is the protocol's alone.
    #[inline]
    pub fn relay_queued(&mut self, d: NodeId) {
        self.arrival(d, false);
    }

    /// A relay cell for `d` joins the queue here, consuming its grant
    /// when `tracked` (see [`relay_arrived`](Self::relay_arrived)).
    /// Returns `d`'s record, for the node to queue the cell in.
    #[inline]
    pub(crate) fn arrival(&mut self, d: NodeId, tracked: bool) -> &mut Peer {
        let peer = self.peers.entry(d.0);
        if tracked {
            if peer.outstanding > 0 {
                // Consume the oldest grant.
                drop_oldest_grant(peer, &mut self.lapses, &mut self.holding);
            } else {
                self.stats.untracked_arrivals += 1;
            }
            if peer.queued >= self.q {
                self.stats.bound_exceeded += 1;
            }
        }
        peer.queued += 1;
        peer
    }

    /// The source declined a grant for destination `d` (it had no waiting
    /// cell — typically because another intermediate granted the same cell
    /// first). The reservation is released immediately; the decline is
    /// piggybacked on the next scheduled cell in the real system.
    pub fn grant_declined(&mut self, d: NodeId) {
        let Some(peer) = self.peers.get_mut(d.0) else {
            return;
        };
        if peer.outstanding > 0 {
            // The declined grant is the most recently issued one.
            let h = self
                .lapses
                .pop_back(&mut peer.expiry)
                .expect("an outstanding grant has a lapse entry");
            self.lapses.remove(h);
            peer.outstanding -= 1;
            self.holding -= peer.expiry.is_empty() as u32;
            self.stats.grants_declined += 1;
        }
    }

    /// A relay cell for destination `d` was transmitted onward.
    pub fn relay_departed(&mut self, d: NodeId) {
        let peer = self
            .peers
            .get_mut(d.0)
            .expect("a departing relay cell was queued");
        peer.depart();
    }

    /// Bookkeeping hooks for the source side (stats only; the LOCAL and VOQ
    /// queues live in [`crate::node`]).
    pub fn note_request_sent(&mut self) {
        self.stats.requests_sent += 1;
    }
    pub fn note_grant_received(&mut self, used: bool) {
        self.stats.grants_received += 1;
        if !used {
            self.stats.grants_unused += 1;
        }
    }

    /// Upper bound the protocol enforces on any relay queue.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Heap bytes held, from buffer capacities (footprint tests).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.granted.capacity()
            + self.table.capacity()
            + self.group_of.capacity()
            + self.order.capacity())
            * 4
            + self.peers.heap_bytes()
            + self.lapses.heap_bytes()
            + self.listed.capacity() * 8
            + (self.inbox.capacity() + self.pending.capacity()) * size_of::<(NodeId, NodeId)>()
            + self.groups.capacity() * size_of::<(u32, u32, u32)>()
    }
}

/// Drop `peer`'s oldest outstanding grant (the caller gates on
/// `outstanding > 0`).
#[inline]
fn drop_oldest_grant(peer: &mut Peer, lapses: &mut Arena<u64>, holding: &mut u32) {
    let h = lapses
        .pop_front(&mut peer.expiry)
        .expect("an outstanding grant has a lapse entry");
    lapses.remove(h);
    peer.outstanding -= 1;
    *holding -= peer.expiry.is_empty() as u32;
}

/// Per-epoch request generator for the source side.
///
/// Enforces "at most one request per intermediate per epoch" and "one
/// request per LOCAL cell, FIFO order, until intermediates run out". The
/// claimed intermediates are a bitset in the [`bits`] layout.
#[derive(Debug)]
pub struct RequestRound {
    used: Vec<u64>,
    n: usize,
    remaining: usize,
}

impl RequestRound {
    pub fn new(n: usize) -> RequestRound {
        RequestRound {
            used: vec![0; bits::words(n)],
            n,
            remaining: n,
        }
    }

    /// Reset for a new epoch without reallocating.
    pub fn reset(&mut self) {
        self.used.fill(0);
        self.remaining = self.n;
    }

    /// True if no intermediate can be requested any more this epoch.
    pub fn exhausted(&self) -> bool {
        self.remaining == 0
    }

    /// Try to claim intermediate `i`; returns true if it was still free.
    pub fn claim(&mut self, i: NodeId) -> bool {
        let idx = i.0 as usize;
        if bits::get(&self.used, idx) {
            false
        } else {
            bits::set(&mut self.used, idx);
            self.remaining -= 1;
            true
        }
    }

    /// Claim the lowest-numbered free intermediate other than `dst`, if
    /// any: the deterministic fallback when random picks keep colliding.
    /// The requesting node itself is claimed when the epoch begins.
    pub fn claim_lowest_free(&mut self, dst: NodeId) -> Option<NodeId> {
        let skip = dst.0 as usize;
        for (w, &word) in self.used.iter().enumerate() {
            let mut free = !word;
            if skip >> 6 == w {
                free &= !(1 << (skip & 63));
            }
            if free != 0 {
                let i = w << 6 | free.trailing_zeros() as usize;
                if i >= self.n {
                    return None;
                }
                self.claim(NodeId(i as u32));
                return Some(NodeId(i as u32));
            }
        }
        None
    }

    /// Number of intermediates still unclaimed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Heap bytes held, from buffer capacities (footprint tests).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.used.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cc(q: usize) -> CongestionState {
        CongestionState::new(NodeId(0), 8, q, 4)
    }

    #[test]
    #[should_panic(expected = "Q >= 2")]
    fn q_below_two_rejected() {
        let _ = cc(1);
    }

    #[test]
    fn grant_happy_path() {
        let mut c = cc(4);
        let mut rng = SmallRng::seed_from_u64(1);
        let d = NodeId(3);
        c.begin_epoch(0);
        c.receive_request(NodeId(1), d);
        c.begin_epoch(1);
        let g = c.issue_grants_filtered(&mut rng, 1, |_| true);
        assert_eq!(g, vec![(NodeId(1), d)]);
        assert_eq!(c.outstanding(d), 1);
        c.relay_arrived(d);
        assert_eq!(c.outstanding(d), 0);
        assert_eq!(c.queued(d), 1);
        c.relay_departed(d);
        assert_eq!(c.queued(d), 0);
    }

    #[test]
    fn ideal_reservations_share_the_admission_test_and_touch_no_protocol_state() {
        let mut c = cc(2); // Q = 2, grant timeout 4 epochs
        let d = NodeId(3);
        // Two first hops in flight fill the pair.
        c.reserve(d);
        assert!(c.has_room(d));
        c.reserve(d);
        assert!(!c.has_room(d));
        // No lapse entry: however late the boundary, nothing expires.
        c.begin_epoch(1_000);
        assert_eq!(c.outstanding(d), 2);
        // Landing and queueing moves a unit from in flight to queued.
        c.landed(d);
        c.relay_queued(d);
        assert_eq!((c.queued(d), c.outstanding(d)), (1, 1));
        assert!(!c.has_room(d));
        // The relay departs: room again.
        c.relay_departed(d);
        assert!(c.has_room(d));
        c.landed(d);
        assert_eq!((c.queued(d), c.outstanding(d)), (0, 0));
        assert_eq!(c.stats(), CcStats::default());
    }

    #[test]
    fn grants_per_destination_capped_by_q() {
        let mut c = cc(4); // Q = 4
        let mut rng = SmallRng::seed_from_u64(2);
        let d = NodeId(5);
        c.begin_epoch(0);
        for s in 1..7 {
            c.receive_request(NodeId(s), d);
        }
        c.begin_epoch(1);
        let g = c.issue_grants_filtered(&mut rng, 1, |_| true);
        // 6 requests, bound Q=4 with nothing queued: exactly 4 granted.
        assert_eq!(g.len(), 4, "grants must fill the Q budget, no more");
        assert!(g.iter().all(|&(_, dst)| dst == d));
        assert_eq!(c.outstanding(d), 4);
        assert_eq!(c.stats().requests_denied, 2);
        // Distinct requesters (each request is granted at most once).
        let mut src: Vec<u32> = g.iter().map(|(s, _)| s.0).collect();
        src.sort_unstable();
        src.dedup();
        assert_eq!(src.len(), 4);
    }

    #[test]
    fn filtered_grants_deny_unreachable_destinations() {
        let mut c = cc(4);
        let mut rng = SmallRng::seed_from_u64(17);
        let reachable = NodeId(2);
        let severed = NodeId(6);
        c.begin_epoch(0);
        c.receive_request(NodeId(1), reachable);
        c.receive_request(NodeId(3), severed);
        c.receive_request(NodeId(4), severed);
        c.begin_epoch(1);
        let g = c.issue_grants_filtered(&mut rng, 1, |d| d != severed);
        assert_eq!(g, vec![(NodeId(1), reachable)]);
        assert_eq!(c.outstanding(severed), 0, "no grant onto a severed pair");
        assert_eq!(c.stats().requests_denied, 2);
        // The denied requesters are not stuck: next epoch's inbox is fresh.
        c.begin_epoch(2);
        assert!(c.issue_grants_filtered(&mut rng, 2, |_| true).is_empty());
    }

    #[test]
    fn queue_bound_blocks_grants() {
        let mut c = cc(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let d = NodeId(2);
        // Fill the bound: grant -> arrive, twice.
        for epoch in 0..2 {
            c.begin_epoch(2 * epoch);
            c.receive_request(NodeId(1), d);
            c.begin_epoch(2 * epoch + 1);
            let g = c.issue_grants_filtered(&mut rng, 2 * epoch + 1, |_| true);
            assert_eq!(g.len(), 1);
            c.relay_arrived(d);
        }
        assert_eq!(c.queued(d), 2);
        // Queue is at Q: next request must be denied.
        c.begin_epoch(10);
        c.receive_request(NodeId(1), d);
        c.begin_epoch(11);
        assert!(c.issue_grants_filtered(&mut rng, 11, |_| true).is_empty());
        // Drain one cell -> grants flow again.
        c.relay_departed(d);
        c.begin_epoch(12);
        c.receive_request(NodeId(1), d);
        c.begin_epoch(13);
        assert_eq!(c.issue_grants_filtered(&mut rng, 13, |_| true).len(), 1);
    }

    #[test]
    fn outstanding_counts_toward_bound() {
        // Long grant timeout so expiry cannot release the bound mid-test.
        let mut c = CongestionState::new(NodeId(0), 8, 2, 100);
        let mut rng = SmallRng::seed_from_u64(4);
        let d = NodeId(7);
        // Two grants issued but cells not yet arrived.
        for epoch in 0..2u64 {
            c.begin_epoch(2 * epoch);
            c.receive_request(NodeId(1), d);
            c.begin_epoch(2 * epoch + 1);
            assert_eq!(
                c.issue_grants_filtered(&mut rng, 2 * epoch + 1, |_| true)
                    .len(),
                1
            );
        }
        assert_eq!(c.outstanding(d), 2);
        // Third request denied even though queue is empty.
        c.begin_epoch(4);
        c.receive_request(NodeId(1), d);
        c.begin_epoch(5);
        assert!(c.issue_grants_filtered(&mut rng, 5, |_| true).is_empty());
    }

    #[test]
    fn unused_grants_expire_and_free_the_bound() {
        let mut c = CongestionState::new(NodeId(0), 8, 2, 3);
        let mut rng = SmallRng::seed_from_u64(5);
        let d = NodeId(1);
        c.begin_epoch(0);
        c.receive_request(NodeId(2), d);
        c.begin_epoch(1);
        assert_eq!(c.issue_grants_filtered(&mut rng, 1, |_| true).len(), 1);
        assert_eq!(c.outstanding(d), 1);
        // Grant never used; expires at epoch 1+3=4.
        c.begin_epoch(4);
        assert_eq!(c.outstanding(d), 0);
        assert_eq!(c.stats().grants_expired, 1);
    }

    #[test]
    fn grants_lapse_on_time_after_skipped_walks() {
        let mut c = CongestionState::new(NodeId(0), 8, 4, 5);
        let mut rng = SmallRng::seed_from_u64(9);
        let d = NodeId(1);
        for epoch in 0..9 {
            c.receive_request(NodeId(2), d);
            c.begin_epoch(epoch);
            match epoch {
                // Grants at epochs 1 and 3 lapse at 6 and 8.
                1 | 3 => assert_eq!(c.issue_grants_filtered(&mut rng, epoch, |_| true).len(), 1),
                // The epoch-1 grant is consumed: the lapse due at 6 is
                // gone, and the walk there finds the next one, at 8.
                4 => c.relay_arrived(d),
                _ => {}
            }
            let expected = match epoch {
                0 => 0,
                1..=3 => epoch.div_ceil(2) as u32,
                4..=7 => 1,
                _ => 0,
            };
            assert_eq!(c.outstanding(d), expected, "at epoch {epoch}");
        }
        assert_eq!(c.stats().grants_expired, 1);
        assert_eq!(c.next_lapse, u64::MAX, "nothing left to lapse");
    }

    #[test]
    fn granted_list_stays_bounded_by_the_destinations_holding_grants() {
        // Grants that never lapse, landed one epoch after issue, over
        // every destination in turn: each is listed once and then holds
        // nothing. The list must not keep them all.
        let n = 1024;
        let mut c = CongestionState::new(NodeId(0), n, 4, 1 << 20);
        let mut rng = SmallRng::seed_from_u64(10);
        let mut in_flight = Vec::new();
        let mut longest = 0;
        for epoch in 0..2 * n as u64 {
            for k in 0..4 {
                let d = 1 + (4 * epoch + k) % (n as u64 - 1);
                c.receive_request(NodeId(0), NodeId(d as u32));
            }
            c.begin_epoch(epoch);
            for (_, d) in in_flight.drain(..) {
                c.relay_arrived(d);
                c.relay_departed(d);
            }
            in_flight = c.issue_grants_filtered(&mut rng, epoch, |_| true);
            longest = longest.max(c.granted.len());
        }
        assert_eq!(c.stats().grants_issued, 4 * 2 * n as u64);
        assert!(longest <= 12, "granted grew to {longest}");
        assert!(
            c.granted.capacity() <= 16,
            "granted holds {}",
            c.granted.capacity()
        );
    }

    #[test]
    fn stale_requests_do_not_linger() {
        let mut c = cc(4);
        let mut rng = SmallRng::seed_from_u64(6);
        let d = NodeId(4);
        c.begin_epoch(0);
        c.receive_request(NodeId(1), d);
        // Two epoch boundaries pass without issuing grants: the request
        // must have been dropped (sources re-request each epoch).
        c.begin_epoch(1);
        c.begin_epoch(2);
        assert!(c.issue_grants_filtered(&mut rng, 2, |_| true).is_empty());
    }

    #[test]
    fn grants_are_uniform_over_requesters() {
        // Hold the queue at Q-1 so exactly one grant fits per epoch, then
        // check the served requester is picked uniformly.
        let mut c = CongestionState::new(NodeId(0), 16, 2, 1000);
        let mut rng = SmallRng::seed_from_u64(7);
        let d = NodeId(6);
        // Prime: one cell permanently queued for d.
        c.begin_epoch(0);
        c.receive_request(NodeId(1), d);
        c.begin_epoch(1);
        assert_eq!(c.issue_grants_filtered(&mut rng, 1, |_| true).len(), 1);
        c.relay_arrived(d);
        let mut wins = [0u32; 4];
        for epoch in 1..4000u64 {
            c.begin_epoch(2 * epoch);
            for s in 0..4 {
                c.receive_request(NodeId(s), d);
            }
            c.begin_epoch(2 * epoch + 1);
            let g = c.issue_grants_filtered(&mut rng, 2 * epoch + 1, |_| true);
            assert_eq!(g.len(), 1, "queued=1, Q=2: one grant fits");
            wins[g[0].0 .0 as usize] += 1;
            // The granted cell arrives and the old one departs: queue
            // returns to exactly one.
            c.relay_arrived(d);
            c.relay_departed(d);
        }
        for &w in &wins {
            assert!((w as f64 - 1000.0).abs() < 150.0, "biased grants: {wins:?}");
        }
    }

    #[test]
    fn request_round_caps_one_per_intermediate() {
        let mut r = RequestRound::new(4);
        assert!(r.claim(NodeId(2)));
        assert!(!r.claim(NodeId(2)));
        assert!(r.claim(NodeId(0)));
        assert!(r.claim(NodeId(1)));
        assert!(r.claim(NodeId(3)));
        assert!(r.exhausted());
        r.reset();
        assert!(!r.exhausted());
        assert!(r.claim(NodeId(2)));
        assert_eq!(r.remaining(), 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Drive a random but *causally consistent* sequence of protocol
        /// events against one intermediate and check the invariants the
        /// rest of the stack relies on.
        fn run_random_protocol(ops: Vec<u8>, q: usize, seed: u64) -> Result<(), TestCaseError> {
            let n = 6usize;
            let mut cc = CongestionState::new(NodeId(0), n, q, 4);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut epoch = 0u64;
            // Cells we are allowed to deliver (granted, not yet arrived)
            // and relay cells queued (arrived, not yet departed), per dest.
            let mut deliverable = vec![0u32; n];
            let mut queued = vec![0u32; n];
            for op in ops {
                match op % 5 {
                    0 => {
                        epoch += 1;
                        cc.begin_epoch(epoch);
                        // Grant expiry may have reclaimed some deliverable
                        // budget; resynchronize our model.
                        for (d, v) in deliverable.iter_mut().enumerate() {
                            *v = (*v).min(cc.outstanding(NodeId(d as u32)));
                        }
                        let grants = cc.issue_grants_filtered(&mut rng, epoch, |_| true);
                        for (_, d) in grants {
                            deliverable[d.0 as usize] += 1;
                        }
                    }
                    1 => {
                        let from = NodeId(1 + (op as u32 % 5).min(4));
                        let dst = NodeId(op as u32 % n as u32);
                        cc.receive_request(from, dst);
                    }
                    2 => {
                        // Deliver a granted cell if one is in flight.
                        if let Some(d) = (0..n).find(|&d| deliverable[d] > 0) {
                            deliverable[d] -= 1;
                            cc.relay_arrived(NodeId(d as u32));
                            queued[d] += 1;
                        }
                    }
                    3 => {
                        // Depart a queued relay cell.
                        if let Some(d) = (0..n).find(|&d| queued[d] > 0) {
                            queued[d] -= 1;
                            cc.relay_departed(NodeId(d as u32));
                        }
                    }
                    _ => {
                        // Decline the newest grant if any is outstanding.
                        if let Some(d) = (0..n).find(|&d| deliverable[d] > 0) {
                            deliverable[d] -= 1;
                            cc.grant_declined(NodeId(d as u32));
                        }
                    }
                }
                // Invariants.
                for d in 0..n {
                    let node = NodeId(d as u32);
                    prop_assert_eq!(cc.queued(node), queued[d], "queued mismatch");
                    prop_assert!(
                        cc.queued(node) <= q as u32,
                        "queue bound violated without loss"
                    );
                    prop_assert!(
                        cc.outstanding(node) >= deliverable[d],
                        "outstanding below in-flight"
                    );
                    prop_assert!(
                        cc.queued(node) + cc.outstanding(node) <= q as u32 + deliverable[d],
                        "bound accounting drifted"
                    );
                }
            }
            let s = cc.stats();
            prop_assert_eq!(s.untracked_arrivals, 0);
            prop_assert_eq!(s.bound_exceeded, 0);
            Ok(())
        }

        proptest! {
            #[test]
            fn protocol_invariants_hold_under_random_schedules(
                ops in proptest::collection::vec(0u8..=255, 1..400),
                q in 2usize..6,
                seed in 0u64..1000,
            ) {
                run_random_protocol(ops, q, seed)?;
            }
        }
    }

    mod differential {
        //! The flat request log, sparse expiry and active-destination walk
        //! against the dense per-destination layout they replaced.
        use super::*;
        use proptest::prelude::*;

        /// The previous `CongestionState`: a requester `Vec` per
        /// destination for each of inbox and pending, visited through
        /// first-arrival `dirty` lists, and a `q`-slot lapse ring per
        /// destination swept over all `n` at every epoch boundary.
        struct Dense {
            q: u32,
            timeout: u64,
            queued: Vec<u32>,
            outstanding: Vec<u32>,
            expiry: Vec<u64>,
            expiry_head: Vec<u32>,
            inbox: Vec<Vec<NodeId>>,
            inbox_dirty: Vec<u32>,
            pending: Vec<Vec<NodeId>>,
            pending_dirty: Vec<u32>,
            stats: CcStats,
        }

        impl Dense {
            fn new(n: usize, q: usize, timeout: u64) -> Dense {
                Dense {
                    q: q as u32,
                    timeout,
                    queued: vec![0; n],
                    outstanding: vec![0; n],
                    expiry: vec![0; n * q],
                    expiry_head: vec![0; n],
                    inbox: vec![Vec::new(); n],
                    inbox_dirty: Vec::new(),
                    pending: vec![Vec::new(); n],
                    pending_dirty: Vec::new(),
                    stats: CcStats::default(),
                }
            }

            fn expiry_pop_front(&mut self, d: usize) {
                self.expiry_head[d] = (self.expiry_head[d] + 1) % self.q;
                self.outstanding[d] -= 1;
            }

            fn begin_epoch(&mut self, epoch: u64) {
                let q = self.q as usize;
                for d in 0..self.outstanding.len() {
                    while self.outstanding[d] > 0
                        && self.expiry[d * q + self.expiry_head[d] as usize] <= epoch
                    {
                        self.expiry_pop_front(d);
                        self.stats.grants_expired += 1;
                    }
                }
                for &d in &self.pending_dirty {
                    self.pending[d as usize].clear();
                }
                self.pending_dirty.clear();
                std::mem::swap(&mut self.inbox, &mut self.pending);
                std::mem::swap(&mut self.inbox_dirty, &mut self.pending_dirty);
            }

            fn receive_request(&mut self, from: NodeId, dst: NodeId) {
                if self.inbox[dst.0 as usize].is_empty() {
                    self.inbox_dirty.push(dst.0);
                }
                self.inbox[dst.0 as usize].push(from);
                self.stats.requests_received += 1;
            }

            fn issue_grants_filtered(
                &mut self,
                rng: &mut SmallRng,
                epoch: u64,
                eligible: impl Fn(NodeId) -> bool,
            ) -> Vec<(NodeId, NodeId)> {
                let q = self.q as usize;
                let mut grants = Vec::new();
                for di in 0..self.pending_dirty.len() {
                    let d = self.pending_dirty[di] as usize;
                    if !eligible(NodeId(d as u32)) {
                        self.stats.requests_denied += self.pending[d].len() as u64;
                        continue;
                    }
                    while !self.pending[d].is_empty()
                        && self.queued[d] + self.outstanding[d] < self.q
                    {
                        let k = rng.gen_range(0..self.pending[d].len());
                        let pick = self.pending[d].swap_remove(k);
                        let back = (self.expiry_head[d] + self.outstanding[d]) as usize % q;
                        self.expiry[d * q + back] = epoch + self.timeout;
                        self.outstanding[d] += 1;
                        self.stats.grants_issued += 1;
                        grants.push((pick, NodeId(d as u32)));
                    }
                    self.stats.requests_denied += self.pending[d].len() as u64;
                }
                grants
            }

            fn relay_arrived(&mut self, d: usize) {
                if self.outstanding[d] > 0 {
                    self.expiry_pop_front(d);
                } else {
                    self.stats.untracked_arrivals += 1;
                }
                self.queued[d] += 1;
                if self.queued[d] > self.q {
                    self.stats.bound_exceeded += 1;
                }
            }

            fn grant_declined(&mut self, d: usize) {
                if self.outstanding[d] > 0 {
                    self.outstanding[d] -= 1;
                    self.stats.grants_declined += 1;
                }
            }
        }

        /// Each op packs three bytes: the operation and two operands.
        /// Returns how many grant rounds found a log whose destinations
        /// interleave (one recurs after another's request), which only
        /// grouping by destination serves correctly.
        fn run(ops: Vec<u32>, q: usize, timeout: u64, seed: u64) -> Result<u32, TestCaseError> {
            // Past the peer table's first 8 records: its probes, sweeps
            // and growth run under the counters.
            const N: usize = 200;
            let mut flat = CongestionState::new(NodeId(0), N, q, timeout);
            let mut dense = Dense::new(N, q, timeout);
            let (mut rng_flat, mut rng_dense) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            // Mostly a few destinations, so requests pile up per
            // destination and the bound, the ring wrap and the lapse all
            // come into play; one operand in four spreads over the range.
            let dest = |x: u8| {
                if x % 4 == 3 {
                    x as u32 * 197 % N as u32
                } else {
                    [0, 1, 2, 63, 64, 199][x as usize % 6]
                }
            };
            let mut epoch = 0;
            let mut interleaved = 0;
            for &packed in &ops {
                let [op, a, b, _] = packed.to_le_bytes();
                match op % 8 {
                    0..=3 => {
                        let (from, dst) = (NodeId(1 + a as u32 % 40), NodeId(dest(b)));
                        flat.receive_request(from, dst);
                        dense.receive_request(from, dst);
                    }
                    4 => {
                        // Sometimes skip ahead, so outstanding grants lapse.
                        epoch += if a % 8 == 0 { timeout } else { 1 };
                        flat.begin_epoch(epoch);
                        dense.begin_epoch(epoch);
                        let log = &flat.pending;
                        interleaved += log.iter().enumerate().any(|(k, &(_, d))| {
                            log[..k].iter().any(|&(_, e)| e == d) && log[k - 1].1 != d
                        }) as u32;
                        let severed = dest(b);
                        let eligible = |d: NodeId| a % 4 != 0 || d.0 != severed;
                        prop_assert_eq!(
                            flat.issue_grants_filtered(&mut rng_flat, epoch, eligible),
                            dense.issue_grants_filtered(&mut rng_dense, epoch, eligible)
                        );
                        prop_assert_eq!(
                            format!("{rng_flat:?}"),
                            format!("{rng_dense:?}"),
                            "the grant rounds drew differently"
                        );
                    }
                    5 => {
                        flat.relay_arrived(NodeId(dest(a)));
                        dense.relay_arrived(dest(a) as usize);
                    }
                    6 => {
                        let d = dest(a);
                        if dense.queued[d as usize] > 0 {
                            flat.relay_departed(NodeId(d));
                            dense.queued[d as usize] -= 1;
                        }
                    }
                    _ => {
                        flat.grant_declined(NodeId(dest(a)));
                        dense.grant_declined(dest(a) as usize);
                    }
                }
                prop_assert_eq!(flat.stats(), dense.stats);
                for d in 0..N {
                    prop_assert_eq!(flat.queued(NodeId(d as u32)), dense.queued[d]);
                    prop_assert_eq!(flat.outstanding(NodeId(d as u32)), dense.outstanding[d]);
                }
            }
            Ok(interleaved)
        }

        proptest! {
            #[test]
            fn flat_log_matches_the_dense_layout(
                ops in proptest::collection::vec(0u32..1 << 24, 1..500),
                q in 2usize..6,
                timeout in 1u64..6,
                seed in 0u64..1000,
            ) {
                let long = ops.len() >= 200;
                let interleaved = run(ops, q, timeout, seed)?;
                prop_assert!(!long || interleaved > 0, "no log interleaved destinations");
            }
        }
    }

    #[test]
    fn multiple_destinations_granted_same_epoch() {
        let mut c = cc(4);
        let mut rng = SmallRng::seed_from_u64(8);
        c.begin_epoch(0);
        c.receive_request(NodeId(1), NodeId(2));
        c.receive_request(NodeId(1), NodeId(3));
        c.receive_request(NodeId(4), NodeId(5));
        c.begin_epoch(1);
        let mut g = c.issue_grants_filtered(&mut rng, 1, |_| true);
        g.sort_by_key(|(_, d)| d.0);
        assert_eq!(g.len(), 3);
        assert_eq!(g[0].1, NodeId(2));
        assert_eq!(g[1].1, NodeId(3));
        assert_eq!(g[2].1, NodeId(5));
    }
}
