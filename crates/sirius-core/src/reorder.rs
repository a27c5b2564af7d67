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

use crate::cell::FlowId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Reorder state for a single flow.
#[derive(Debug, Default, Clone)]
pub struct FlowReorder {
    /// Next in-order sequence number expected.
    next: u32,
    /// Buffered out-of-order cells: seq -> payload bytes.
    pending: BTreeMap<u32, u32>,
    /// Bytes currently buffered. The §4.3 in-flight bound keeps this far
    /// below 4 GB.
    buffered: u32,
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
    pub fn accept(&mut self, seq: u32, payload: u32) -> Delivered {
        if seq < self.next {
            return NOTHING;
        }
        if seq != self.next {
            // Out of order: buffer it.
            if let Entry::Vacant(v) = self.pending.entry(seq) {
                v.insert(payload);
                self.buffered += payload;
            }
            return NOTHING;
        }
        // In order: deliver it plus any unblocked prefix.
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

    /// Bytes currently buffered out of order.
    pub fn buffered_bytes(&self) -> u32 {
        self.buffered
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
