//! Precomputed schedule tables for the slot engine.
//!
//! [`Schedule::dest`] derives its answer from a div/mod chain over the
//! grating geometry. The schedule is static — the paper's whole design
//! rests on that — so the engine flattens it at construction and the hot
//! loop reads destinations without re-deriving the chain per lookup.
//! Fault repair never mutates the base schedule (omissions are overlay
//! checks on [`sirius_core::repair::AdjustedSchedule`]), so the table
//! stays valid for the whole run.
//!
//! Two representations, selected by footprint:
//!
//! * **Dense** — one epoch of destinations flattened to a contiguous
//!   `[slot][node * uplinks + uplink]` array, plus one bitmask of
//!   scheduled peers per `(slot, node)`: ANDed against a node's
//!   fabric-occupancy mask ([`sirius_core::node::SiriusNode::fabric_mask`])
//!   it answers "can this node send *anything* this slot?" in a couple
//!   of word ops. Fastest, but O(N² · slots): ~25 MB at N = 2048 and
//!   ~100 MB at N = 4096, which stops being cache-resident long before
//!   that.
//! * **Cyclic** — the compressed permutation form. The AWGR schedule is
//!   a rotation: `dest(i, u, t) = col_base(i, u) + (port(i) + t) mod g`,
//!   so per node we store one `port` and per `(node, uplink)` one column
//!   base — O(N · uplinks) total, cache-resident at any N the series
//!   sweeps. A node's columns reach every group (each pair connects at
//!   least once per epoch), so its scheduled peers at slot `t` are
//!   exactly the nodes `≡ (port + t) mod g`: one comb mask per rotation,
//!   `g` masks in all, gives this form the same peer-mask AND as the
//!   dense one. Construction *verifies* both properties against the
//!   schedule and panics if a future schedule change breaks them, so the
//!   compressed form can never silently diverge.

use sirius_core::bits;
use sirius_core::schedule::{Schedule, SlotInEpoch};
use sirius_core::topology::{NodeId, UplinkId};

/// Footprint threshold for the dense form: below this the flattened
/// epoch (destinations + peer masks) comfortably fits in L2/L3 and wins
/// on raw speed; above it the cyclic form wins by staying cache-resident.
/// N = 512 paper-geometry tables are ~2.5 MB (dense); N = 1024 crosses.
const DENSE_LIMIT_BYTES: usize = 8 << 20;

enum Repr {
    Dense {
        /// `[slot][node * uplinks + uplink] -> destination`.
        dests: Vec<NodeId>,
        /// `[slot][node][word]`: bit `j` set iff some uplink of `node`
        /// connects to `j` at that slot.
        peer_mask: Vec<u64>,
    },
    Cyclic {
        /// `[node * uplinks + uplink] -> dst_group * g` (the rotation-
        /// independent part of the destination).
        col_base: Vec<u32>,
        /// `[node] -> port within group`; the rotation at slot `t` is
        /// `(port + t) mod g`.
        port: Vec<u16>,
        /// Rotation modulus (= grating size = epoch slots).
        g: u32,
        /// `[rotation][word]`: bit `j` set iff `j mod g == rotation` —
        /// the scheduled peers of any node whose rotation that is.
        comb: Vec<u64>,
    },
}

/// Schedule lookup table covering one epoch of the base schedule
/// (epochs repeat).
pub(crate) struct DestTable {
    nodes: usize,
    uplinks: usize,
    epoch_slots: u64,
    /// Entries per slot: `nodes * uplinks`.
    stride: usize,
    /// Bitmask words per `(slot, node)` entry: `nodes.div_ceil(64)`.
    words: usize,
    repr: Repr,
}

impl DestTable {
    pub fn new(sched: &Schedule) -> DestTable {
        DestTable::new_with_limit(sched, DENSE_LIMIT_BYTES)
    }

    /// As [`DestTable::new`] with an explicit dense-footprint limit;
    /// tests pass 0 to force the cyclic form at tiny N.
    pub fn new_with_limit(sched: &Schedule, dense_limit: usize) -> DestTable {
        let nodes = sched.nodes();
        let uplinks = sched.uplinks();
        let epoch_slots = sched.epoch_slots();
        let stride = nodes * uplinks;
        let words = nodes.div_ceil(64);
        let dense_bytes = stride * epoch_slots as usize * std::mem::size_of::<NodeId>()
            + epoch_slots as usize * nodes * words * 8;
        let repr = if dense_bytes <= dense_limit {
            Self::build_dense(sched, nodes, uplinks, epoch_slots, stride, words)
        } else {
            Self::build_cyclic(sched, nodes, uplinks, epoch_slots, words)
        };
        DestTable {
            nodes,
            uplinks,
            epoch_slots,
            stride,
            words,
            repr,
        }
    }

    fn build_dense(
        sched: &Schedule,
        nodes: usize,
        uplinks: usize,
        epoch_slots: u64,
        stride: usize,
        words: usize,
    ) -> Repr {
        let mut dests = Vec::with_capacity(stride * epoch_slots as usize);
        let mut peer_mask = vec![0u64; epoch_slots as usize * nodes * words];
        for t in 0..epoch_slots as u16 {
            for i in 0..nodes as u32 {
                let base = (t as usize * nodes + i as usize) * words;
                for u in 0..uplinks as u16 {
                    let j = sched.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                    dests.push(j);
                    peer_mask[base + (j.0 as usize >> 6)] |= 1 << (j.0 & 63);
                }
            }
        }
        Repr::Dense { dests, peer_mask }
    }

    fn build_cyclic(
        sched: &Schedule,
        nodes: usize,
        uplinks: usize,
        epoch_slots: u64,
        words: usize,
    ) -> Repr {
        let g = epoch_slots as u32;
        let mut col_base = Vec::with_capacity(nodes * uplinks);
        let mut port = Vec::with_capacity(nodes);
        for i in 0..nodes as u32 {
            // At t = 0 the rotation is `port mod g`, identical across
            // uplinks, so any column's slot-0 destination reveals it.
            let p = sched.dest(NodeId(i), UplinkId(0), SlotInEpoch(0)).0 % g;
            port.push(p as u16);
            for u in 0..uplinks as u16 {
                let d = sched.dest(NodeId(i), UplinkId(u), SlotInEpoch(0)).0;
                assert_eq!(
                    d % g,
                    p,
                    "schedule is not a per-node rotation; cyclic DestTable invalid"
                );
                col_base.push(d - p);
            }
            // The comb masks below name *every* node of a rotation as a
            // peer, which holds iff this node's columns reach every group.
            let mut reached = vec![false; nodes / g as usize];
            for &b in &col_base[i as usize * uplinks..] {
                reached[(b / g) as usize] = true;
            }
            assert!(
                reached.iter().all(|&r| r),
                "node {i}'s columns skip a group; cyclic DestTable peer masks invalid"
            );
        }
        let mut comb = vec![0u64; g as usize * words];
        for j in 0..nodes {
            bits::set(&mut comb[j % g as usize * words..][..words], j);
        }
        // Verify the rotation property: exhaustively under debug builds,
        // sampled (first and last nonzero rotation) in release. A
        // schedule change that breaks cyclicity fails loudly here.
        let sample: Vec<u16> = if cfg!(debug_assertions) {
            (0..epoch_slots as u16).collect()
        } else {
            [1u16, epoch_slots.saturating_sub(1) as u16]
                .into_iter()
                .filter(|&t| (t as u64) < epoch_slots)
                .collect()
        };
        for &t in &sample {
            for i in 0..nodes as u32 {
                let rot = (port[i as usize] as u32 + t as u32) % g;
                for u in 0..uplinks as u16 {
                    let want = sched.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                    let got = col_base[i as usize * uplinks + u as usize] + rot;
                    assert_eq!(
                        got, want.0,
                        "schedule is not cyclic at (i={i}, u={u}, t={t}); \
                         cyclic DestTable invalid"
                    );
                }
            }
        }
        Repr::Cyclic {
            col_base,
            port,
            g,
            comb,
        }
    }

    /// All destinations for epoch slot `t`, as a per-node view.
    #[inline]
    pub fn slot_view(&self, t: SlotInEpoch) -> SlotDests<'_> {
        SlotDests { table: self, t }
    }

    /// Single destination lookup (the mistune pre-pass needs scattered
    /// shifted-slot reads, not a whole row).
    #[inline]
    pub fn dest(&self, t: SlotInEpoch, i: NodeId, u: u16) -> NodeId {
        match &self.repr {
            Repr::Dense { dests, .. } => {
                dests[t.0 as usize * self.stride + i.0 as usize * self.uplinks + u as usize]
            }
            Repr::Cyclic {
                col_base, port, g, ..
            } => {
                let rot = (port[i.0 as usize] as u32 + t.0 as u32) % g;
                NodeId(col_base[i.0 as usize * self.uplinks + u as usize] + rot)
            }
        }
    }

    /// Bitmask of the peers node `i`'s uplinks connect to at slot `t`.
    #[inline]
    pub fn peer_mask(&self, t: SlotInEpoch, i: usize) -> &[u64] {
        match &self.repr {
            Repr::Dense { peer_mask, .. } => {
                let base = (t.0 as usize * self.nodes + i) * self.words;
                &peer_mask[base..base + self.words]
            }
            Repr::Cyclic { port, g, comb, .. } => {
                let rot = (port[i] as u32 + t.0 as u32) % g;
                &comb[rot as usize * self.words..][..self.words]
            }
        }
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub fn uplinks(&self) -> usize {
        self.uplinks
    }

    pub fn epoch_slots(&self) -> u64 {
        self.epoch_slots
    }
}

/// One slot's destinations, resolvable per node.
#[derive(Clone, Copy)]
pub(crate) struct SlotDests<'a> {
    table: &'a DestTable,
    t: SlotInEpoch,
}

impl<'a> SlotDests<'a> {
    /// Node `i`'s destination row for this slot.
    #[inline]
    pub fn node(&self, i: usize) -> NodeRow<'a> {
        match &self.table.repr {
            Repr::Dense { dests, .. } => {
                let base = self.t.0 as usize * self.table.stride + i * self.table.uplinks;
                NodeRow::Dense(&dests[base..base + self.table.uplinks])
            }
            Repr::Cyclic {
                col_base, port, g, ..
            } => NodeRow::Cyclic {
                col: &col_base[i * self.table.uplinks..(i + 1) * self.table.uplinks],
                rot: (port[i] as u32 + self.t.0 as u32) % g,
            },
        }
    }
}

/// One node's destinations at one slot; `at(u)` resolves an uplink.
pub(crate) enum NodeRow<'a> {
    Dense(&'a [NodeId]),
    Cyclic { col: &'a [u32], rot: u32 },
}

impl NodeRow<'_> {
    #[inline]
    pub fn at(&self, u: usize) -> NodeId {
        match self {
            NodeRow::Dense(d) => d[u],
            NodeRow::Cyclic { col, rot } => NodeId(col[u] + rot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_core::config::SiriusConfig;

    fn check_against_schedule(table: &DestTable, sched: &Schedule) {
        assert_eq!(table.nodes(), sched.nodes());
        assert_eq!(table.uplinks(), sched.uplinks());
        assert_eq!(table.epoch_slots(), sched.epoch_slots());
        for t in 0..sched.epoch_slots() as u16 {
            let view = table.slot_view(SlotInEpoch(t));
            for i in 0..sched.nodes() as u32 {
                let row = view.node(i as usize);
                let pm = table.peer_mask(SlotInEpoch(t), i as usize);
                for u in 0..sched.uplinks() as u16 {
                    let want = sched.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                    assert_eq!(table.dest(SlotInEpoch(t), NodeId(i), u), want);
                    assert_eq!(row.at(u as usize), want);
                    assert_ne!(pm[want.0 as usize >> 6] & (1 << (want.0 & 63)), 0);
                }
            }
            // Peer masks hold exactly the scheduled destinations.
            for i in 0..sched.nodes() {
                let pm = table.peer_mask(SlotInEpoch(t), i);
                let scheduled: std::collections::HashSet<u32> = (0..sched.uplinks() as u16)
                    .map(|u| table.dest(SlotInEpoch(t), NodeId(i as u32), u).0)
                    .collect();
                let popcount: u32 = pm.iter().map(|w| w.count_ones()).sum();
                assert_eq!(popcount as usize, scheduled.len());
            }
        }
    }

    #[test]
    fn dense_table_matches_schedule_exhaustively() {
        let cfg = SiriusConfig::scaled(16, 4);
        let sched = Schedule::new(&cfg);
        let table = DestTable::new(&sched);
        assert!(
            matches!(table.repr, Repr::Dense { .. }),
            "16-node table should select the dense form"
        );
        check_against_schedule(&table, &sched);
    }

    #[test]
    fn cyclic_table_matches_schedule_exhaustively() {
        // Force the compressed form at a size small enough to check
        // every (slot, node, uplink) against the schedule and the dense
        // form.
        for (n, g) in [(16usize, 4usize), (64, 8)] {
            let cfg = SiriusConfig::scaled(n, g);
            let sched = Schedule::new(&cfg);
            let cyclic = DestTable::new_with_limit(&sched, 0);
            assert!(
                matches!(cyclic.repr, Repr::Cyclic { .. }),
                "limit 0 must force the cyclic form"
            );
            check_against_schedule(&cyclic, &sched);
        }
    }

    #[test]
    fn comb_peer_masks_equal_the_dense_tables_at_paper_scale() {
        let sched = Schedule::new(&SiriusConfig::paper_sim());
        assert_eq!(sched.nodes(), 128);
        let dense = DestTable::new(&sched);
        let cyclic = DestTable::new_with_limit(&sched, 0);
        assert!(matches!(dense.repr, Repr::Dense { .. }));
        assert!(matches!(cyclic.repr, Repr::Cyclic { .. }));
        for t in 0..sched.epoch_slots() as u16 {
            for i in 0..sched.nodes() {
                assert_eq!(
                    cyclic.peer_mask(SlotInEpoch(t), i),
                    dense.peer_mask(SlotInEpoch(t), i),
                    "peer mask differs at (t={t}, i={i})"
                );
            }
        }
    }

    #[test]
    fn large_tables_select_cyclic_form() {
        let cfg = SiriusConfig::scaled(1024, 32);
        let sched = Schedule::new(&cfg);
        let table = DestTable::new(&sched);
        assert!(
            matches!(table.repr, Repr::Cyclic { .. }),
            "N=1024 dense table exceeds the cache-residency limit"
        );
        // Spot-check the compressed lookups against the schedule.
        for t in [0u16, 1, 31] {
            for i in [0u32, 511, 1023] {
                for u in 0..sched.uplinks() as u16 {
                    assert_eq!(
                        table.dest(SlotInEpoch(t), NodeId(i), u),
                        sched.dest(NodeId(i), UplinkId(u), SlotInEpoch(t))
                    );
                }
            }
        }
    }
}
