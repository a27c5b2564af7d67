//! Per-flow reorder state at the receiving server (§4.2 "Cell reordering").
//!
//! Cells of a flow take different intermediate paths, so they can arrive out
//! of order. The receiver buffers out-of-order cells and releases the
//! in-order prefix to the application. Because the congestion-control
//! protocol bounds queuing at intermediates, the buffer stays small — the
//! paper reports a 163 KB peak per flow at the default Q=4 (Fig. 10d), and
//! our Fig. 10 harness measures the same quantity.
//!
//! [`FlowReorder`] is one flow's state. The simulator keeps it inside the
//! flow's own record, so it lives and dies with the flow: there is no
//! second per-flow store to look up, evict or partition across workers.
//!
//! The out-of-order window is small and dense (the §4.3 bound), so it is a
//! ring of per-sequence slots rather than a map: slot `(head + k) & mask`
//! holds cell `next + k`, stored as `payload + 1` so that 0 means "empty"
//! and a zero-byte cell is still present. A buffered cell costs 4 bytes, an
//! in-order release is one slot read, and the ring grows (by doubling) only
//! to cover the highest offset actually buffered — a flow that never
//! reorders allocates nothing. DESIGN.md decision #15 has the measurement
//! against a `BTreeMap` and a sorted `Vec`.

use crate::cell::FlowId;

/// Slots a ring gets when a flow first buffers a cell: one cache line.
const MIN_RING: usize = 16;

/// Reorder state for a single flow.
#[derive(Debug, Default, Clone)]
pub struct FlowReorder {
    /// Next in-order sequence number expected.
    next: u32,
    /// Bytes currently buffered. The §4.3 in-flight bound keeps this far
    /// below 4 GB.
    buffered: u32,
    /// Ring index of the slot holding cell `next`.
    head: u32,
    /// Power-of-two ring (or empty, before the first out-of-order cell):
    /// slot `(head + k) & (len - 1)` holds `payload + 1` of cell
    /// `next + k`, or 0 if that cell has not arrived.
    ring: Box<[u32]>,
}

/// Outcome of accepting one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Payload bytes released to the application by this arrival (0 if the
    /// cell was buffered out of order).
    pub bytes: u64,
    /// Number of cells released (the arriving cell plus any unblocked ones).
    pub cells: u32,
}

const NOTHING: Delivered = Delivered { bytes: 0, cells: 0 };

impl FlowReorder {
    /// Accept cell `seq` carrying `payload` bytes; returns how much data
    /// became deliverable in order. A duplicate (already released or
    /// already buffered) releases nothing and buffers nothing.
    ///
    /// The ring spans `seq - next` slots, so a caller bounds `seq` by the
    /// flow's cell count (the simulator's deliver plane asserts it).
    ///
    /// # Panics
    /// If an out-of-order `payload` is `u32::MAX`, the one value the
    /// ring's `payload + 1` encoding cannot hold (a cell's payload is at
    /// most the cell size).
    pub fn accept(&mut self, seq: u32, payload: u32) -> Delivered {
        if seq < self.next {
            return NOTHING;
        }
        let k = (seq - self.next) as usize;
        if k != 0 {
            // Out of order: buffer it.
            if k >= self.ring.len() {
                self.grow(k);
            }
            let slot = &mut self.ring[(self.head as usize + k) & (self.ring.len() - 1)];
            if *slot == 0 {
                *slot = payload
                    .checked_add(1)
                    .expect("payload u32::MAX cannot be buffered");
                self.buffered += payload;
            }
            return NOTHING;
        }
        // In order: deliver it plus any unblocked prefix. Cell `next`'s
        // own slot is empty (offset 0 is never buffered), so the scan
        // starts one past it and stops at the first hole — there is
        // always one, since the slot just vacated is empty.
        let mut bytes = payload as u64;
        let mut cells = 1;
        if !self.ring.is_empty() {
            let mask = self.ring.len() - 1;
            let mut h = (self.head as usize + 1) & mask;
            while self.ring[h] != 0 {
                let p = std::mem::take(&mut self.ring[h]) - 1;
                bytes += p as u64;
                self.buffered -= p;
                cells += 1;
                h = (h + 1) & mask;
            }
            self.head = h as u32;
        }
        self.next += cells;
        Delivered { bytes, cells }
    }

    /// Re-lay the ring at the smallest power of two covering offset `k`,
    /// cell `next` at index 0.
    #[cold]
    fn grow(&mut self, k: usize) {
        let len = (k + 1).next_power_of_two().max(MIN_RING);
        let (wrapped, from_head) = self.ring.split_at(self.head as usize);
        let mut ring = Vec::with_capacity(len);
        ring.extend_from_slice(from_head);
        ring.extend_from_slice(wrapped);
        ring.resize(len, 0);
        self.ring = ring.into_boxed_slice();
        self.head = 0;
    }

    /// Bytes currently buffered out of order.
    pub fn buffered_bytes(&self) -> u32 {
        self.buffered
    }

    /// Cells released in order so far: every cell below this sequence
    /// number has been delivered.
    pub fn released_cells(&self) -> u32 {
        self.next
    }
}

/// Reorder state for flows keyed by a dense [`FlowId`]: a thin
/// `Vec<FlowReorder>` kept only because the repo benchmark's leaf timing
/// calls it. The simulator does not use it (each flow record owns its
/// [`FlowReorder`]); it goes once the benchmark times
/// [`FlowReorder::accept`] directly.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    flows: Vec<FlowReorder>,
}

impl ReorderBuffer {
    pub fn new() -> ReorderBuffer {
        ReorderBuffer::default()
    }

    /// Accept cell `seq` of `flow` carrying `payload` bytes; returns how
    /// much data became deliverable in order.
    pub fn accept(&mut self, flow: FlowId, seq: u32, payload: u32) -> Delivered {
        let i = flow.0 as usize;
        if i >= self.flows.len() {
            self.flows.resize_with(i + 1, FlowReorder::default);
        }
        self.flows[i].accept(seq, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    /// The `BTreeMap` body the ring replaced, kept as the differential
    /// reference.
    #[derive(Default)]
    struct MapReorder {
        next: u32,
        pending: BTreeMap<u32, u32>,
        buffered: u32,
    }

    impl MapReorder {
        fn accept(&mut self, seq: u32, payload: u32) -> Delivered {
            if seq < self.next {
                return NOTHING;
            }
            if seq != self.next {
                if let Entry::Vacant(v) = self.pending.entry(seq) {
                    v.insert(payload);
                    self.buffered += payload;
                }
                return NOTHING;
            }
            let mut bytes = payload as u64;
            let mut cells = 1;
            self.next += 1;
            while let Some(p) = self.pending.remove(&self.next) {
                bytes += p as u64;
                self.buffered -= p;
                self.next += 1;
                cells += 1;
            }
            Delivered { bytes, cells }
        }
    }

    #[test]
    fn flow_state_fits_in_32_bytes() {
        // One per flow record (`FlowSt` in the simulator stays <= 88 B).
        assert!(std::mem::size_of::<FlowReorder>() <= 32);
    }

    #[test]
    fn in_order_flow_allocates_nothing() {
        let mut fr = FlowReorder::default();
        for seq in 0..1000 {
            assert_eq!(fr.accept(seq, 540).cells, 1);
            // Duplicates of released cells do not allocate either.
            assert_eq!(fr.accept(seq, 540), NOTHING);
        }
        assert!(fr.ring.is_empty());
        assert_eq!(fr.released_cells(), 1000);
    }

    #[test]
    fn zero_byte_cells_are_held_and_released() {
        let mut fr = FlowReorder::default();
        assert_eq!(fr.accept(2, 0), NOTHING);
        assert_eq!(fr.accept(1, 0), NOTHING);
        assert_eq!(fr.buffered_bytes(), 0);
        assert_eq!(fr.accept(0, 0), Delivered { bytes: 0, cells: 3 });
        assert_eq!(fr.released_cells(), 3);
    }

    #[test]
    fn growth_after_the_head_wrapped_keeps_every_cell() {
        let mut fr = FlowReorder::default();
        // One gap per step walks the head once around the first ring.
        let base = 2 * MIN_RING as u32 + 2;
        for seq in (0..base).step_by(2) {
            fr.accept(seq + 1, 7);
            assert_eq!(fr.accept(seq, 5).cells, 2);
        }
        assert_eq!(fr.ring.len(), MIN_RING);
        assert_ne!(fr.head, 0);
        // Buffer cells either side of where the old ring ends, then one
        // far enough ahead to force two doublings.
        for k in [1, 3, MIN_RING as u32 - 1, 4 * MIN_RING as u32 - 1] {
            assert_eq!(fr.accept(base + k, k), NOTHING);
        }
        assert_eq!(fr.ring.len(), 4 * MIN_RING);
        assert_eq!(fr.accept(base, 0), Delivered { bytes: 1, cells: 2 });
        assert_eq!(fr.accept(base + 2, 0), Delivered { bytes: 3, cells: 2 });
        assert_eq!(
            fr.buffered_bytes(),
            MIN_RING as u32 - 1 + 4 * MIN_RING as u32 - 1
        );
    }

    #[test]
    fn in_order_delivery_is_immediate() {
        let mut fr = FlowReorder::default();
        for seq in 0..10 {
            let d = fr.accept(seq, 540);
            assert_eq!(d.bytes, 540);
            assert_eq!(d.cells, 1);
            assert_eq!(fr.buffered_bytes(), 0);
        }
    }

    #[test]
    fn out_of_order_buffers_then_releases() {
        let mut fr = FlowReorder::default();
        assert_eq!(fr.accept(1, 540).bytes, 0);
        assert_eq!(fr.accept(2, 540).bytes, 0);
        assert_eq!(fr.buffered_bytes(), 1080);
        let d = fr.accept(0, 540);
        assert_eq!(d.bytes, 1620);
        assert_eq!(d.cells, 3);
        assert_eq!(fr.buffered_bytes(), 0);
    }

    #[test]
    fn duplicates_release_nothing_and_buffer_nothing() {
        let mut fr = FlowReorder::default();
        fr.accept(0, 540);
        // A second copy of a released cell.
        assert_eq!(fr.accept(0, 540), NOTHING);
        fr.accept(2, 540);
        assert_eq!(fr.buffered_bytes(), 540);
        // A second copy of a buffered cell.
        assert_eq!(fr.accept(2, 540), NOTHING);
        assert_eq!(fr.buffered_bytes(), 540);
        // The gap fills once: both cells come out exactly once.
        let d = fr.accept(1, 540);
        assert_eq!((d.bytes, d.cells), (1080, 2));
        assert_eq!(fr.buffered_bytes(), 0);
    }

    #[test]
    fn random_permutation_delivers_everything_once() {
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..20 {
            let n = 50 + trial;
            let mut order: Vec<u32> = (0..n).collect();
            order.shuffle(&mut rng);
            let mut fr = FlowReorder::default();
            let mut delivered = 0u64;
            let mut cells = 0u32;
            for seq in order {
                let d = fr.accept(seq, 540);
                delivered += d.bytes;
                cells += d.cells;
            }
            assert_eq!(delivered, n as u64 * 540);
            assert_eq!(cells, n);
            assert_eq!(fr.buffered_bytes(), 0);
        }
    }

    #[test]
    fn buffer_flows_are_independent() {
        let mut rb = ReorderBuffer::new();
        assert_eq!(rb.accept(FlowId(1), 1, 100).bytes, 0);
        assert_eq!(rb.accept(FlowId(2), 0, 200).bytes, 200);
        assert_eq!(rb.accept(FlowId(1), 0, 100).bytes, 200);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The ring releases exactly what the `BTreeMap` body did, step by
        /// step, for arrival orders with duplicates, long in-order runs
        /// (the head wraps) followed by offsets far enough ahead to force
        /// growth, and payloads at both ends of the range.
        #[test]
        fn prop_ring_matches_the_map(
            codes in proptest::collection::vec(0u32..400, 1..400),
            big_seq in 0u32..64,
            big in proptest::bool::ANY,
        ) {
            // Payload is a function of the sequence number, as in a flow.
            // With `big`, one cell carries `u32::MAX - 1` and every other
            // cell is empty, so the buffered total still fits a `u32`.
            let payload = |seq: u32| match (big, seq == big_seq) {
                (true, true) => u32::MAX - 1,
                (true, false) => 0,
                (false, _) => (seq * 37) % 7 * 250,
            };
            let mut ring = FlowReorder::default();
            let mut map = MapReorder::default();
            let mut max = 0;
            let step = |seq: u32, ring: &mut FlowReorder, map: &mut MapReorder| {
                let d = ring.accept(seq, payload(seq));
                prop_assert_eq!(d, map.accept(seq, payload(seq)), "seq {}", seq);
                prop_assert_eq!(ring.buffered_bytes(), map.buffered);
                prop_assert_eq!(ring.released_cells(), map.next);
                Ok(())
            };
            for &c in &codes {
                let next = map.next;
                let seq = match c {
                    // A copy of a cell already released.
                    0..20 => next.saturating_sub(1 + c),
                    // The cell the flow is waiting for.
                    20..120 => next,
                    // A cell a little ahead (duplicates likely).
                    120..360 => next + (c - 120) % 24,
                    // Far ahead: the ring has to grow.
                    _ => next + 16 * (c - 359),
                };
                max = max.max(seq);
                step(seq, &mut ring, &mut map)?;
            }
            // Fill every hole: both drain completely.
            for seq in 0..=max {
                step(seq, &mut ring, &mut map)?;
            }
            prop_assert_eq!(ring.buffered_bytes(), 0);
            prop_assert_eq!(map.next, max + 1);
        }

        /// Any arrival order (with duplicates) delivers each byte exactly once,
        /// in order, and the buffer drains completely.
        #[test]
        fn prop_exactly_once_in_order(mut seqs in proptest::collection::vec(0u32..40, 1..200)) {
            // Ensure the full range [0, max] is present so the flow completes.
            let max = *seqs.iter().max().unwrap();
            for s in 0..=max {
                seqs.push(s);
            }
            let mut fr = FlowReorder::default();
            let mut delivered_cells = 0u64;
            for &s in &seqs {
                let d = fr.accept(s, 10);
                delivered_cells += d.cells as u64;
            }
            prop_assert_eq!(delivered_cells, max as u64 + 1);
            prop_assert_eq!(fr.buffered_bytes(), 0);
        }

        /// Several flows interleaved through one dense buffer, duplicates
        /// included: every flow releases each of its cells exactly once,
        /// and what one flow releases never depends on another's arrivals.
        #[test]
        fn prop_interleaved_flows_release_exactly_once(
            codes in proptest::collection::vec(0u32..120, 1..300),
        ) {
            // Code `x` is cell `x / 4` of flow `x % 4`; then complete every
            // flow by appending its full range [0, 30).
            let mut arrivals: Vec<(u64, u32)> =
                codes.iter().map(|&x| ((x % 4) as u64, x / 4)).collect();
            for f in 0..4u64 {
                arrivals.extend((0..30u32).map(|s| (f, s)));
            }
            let mut rb = ReorderBuffer::new();
            let mut alone: Vec<FlowReorder> = vec![FlowReorder::default(); 4];
            let mut released = [0u64; 4];
            for &(f, s) in &arrivals {
                // Payload names the flow, so a cross-flow leak shows in bytes.
                let d = rb.accept(FlowId(f), s, 1 + f as u32);
                prop_assert_eq!(d, alone[f as usize].accept(s, 1 + f as u32));
                prop_assert_eq!(d.bytes, d.cells as u64 * (1 + f));
                released[f as usize] += d.cells as u64;
            }
            prop_assert_eq!(released, [30u64; 4]);
        }
    }
}
