//! The precomputed schedule table for the slot engine.
//!
//! [`Schedule::dest`] derives its answer from a div/mod chain over the
//! grating geometry. The schedule is static — the paper's whole design
//! rests on that — so the engine reduces it at construction and the hot
//! loop reads destinations without re-deriving the chain per lookup.
//! Fault repair never mutates the base schedule (omissions are overlay
//! checks on [`sirius_core::repair::AdjustedSchedule`]), so the table
//! stays valid for the whole run.
//!
//! There is one form at every scale, because the schedule *is* a
//! rotation (§4.2): an AWGR routes wavelength `t` from port `p` to port
//! `(p + t) mod g`, so `dest(i, u, t) = col_base(i, u) + (port(i) + t)
//! mod g`. The table stores one `port` per node and one column base per
//! `(node, uplink)` — O(N · uplinks) in total, cache-resident from the
//! 16-node unit tests to 4096 nodes. A node's columns reach every group
//! (each pair connects at least once per epoch), so its scheduled peers
//! at slot `t` are exactly the nodes `≡ (port + t) mod g`: one comb mask
//! per rotation, `g` masks in all. ANDed against a node's
//! fabric-occupancy mask ([`sirius_core::node::SiriusNode::fabric_mask`])
//! a comb answers "can this node send *anything* this slot?" in a couple
//! of word ops. Construction *proves* both properties against
//! [`Schedule::dest`] or panics, so a future schedule change cannot make
//! the table silently diverge.

use sirius_core::bits;
use sirius_core::schedule::{Schedule, SlotInEpoch};
use sirius_core::topology::{NodeId, UplinkId};

/// Schedule lookup table covering one epoch of the base schedule
/// (epochs repeat).
pub(crate) struct DestTable {
    nodes: usize,
    uplinks: usize,
    epoch_slots: u64,
    /// Bitmask words per comb: `nodes.div_ceil(64)`.
    words: usize,
    /// `[node * uplinks + uplink] -> dst_group * g` (the rotation-
    /// independent part of the destination).
    col_base: Vec<u32>,
    /// `[node] -> port within group`; the rotation at slot `t` is
    /// `(port + t) mod g`.
    port: Vec<u16>,
    /// Rotation modulus (= grating size = epoch slots).
    g: u32,
    /// `[rotation][word]`: bit `j` set iff `j mod g == rotation` — the
    /// scheduled peers of any node whose rotation that is.
    comb: Vec<u64>,
}

impl DestTable {
    pub fn new(sched: &Schedule) -> DestTable {
        let nodes = sched.nodes();
        let uplinks = sched.uplinks();
        let epoch_slots = sched.epoch_slots();
        let words = nodes.div_ceil(64);
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
                    "schedule is not a per-node rotation; DestTable invalid"
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
                "node {i}'s columns skip a group; DestTable peer masks invalid"
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
                         DestTable invalid"
                    );
                }
            }
        }
        DestTable {
            nodes,
            uplinks,
            epoch_slots,
            words,
            col_base,
            port,
            g,
            comb,
        }
    }

    /// Node `i`'s rotation at epoch slot `t`.
    #[inline]
    fn rot(&self, t: SlotInEpoch, i: usize) -> u32 {
        (self.port[i] as u32 + t.0 as u32) % self.g
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
        let i = i.0 as usize;
        NodeId(self.col_base[i * self.uplinks + u as usize] + self.rot(t, i))
    }

    /// Bitmask of the peers node `i`'s uplinks connect to at slot `t`.
    #[inline]
    pub fn peer_mask(&self, t: SlotInEpoch, i: usize) -> &[u64] {
        &self.comb[self.rot(t, i) as usize * self.words..][..self.words]
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
        let uplinks = self.table.uplinks;
        NodeRow {
            col: &self.table.col_base[i * uplinks..(i + 1) * uplinks],
            rot: self.table.rot(self.t, i),
        }
    }
}

/// One node's destinations at one slot; `at(u)` resolves an uplink.
pub(crate) struct NodeRow<'a> {
    col: &'a [u32],
    rot: u32,
}

impl NodeRow<'_> {
    #[inline]
    pub fn at(&self, u: usize) -> NodeId {
        NodeId(self.col[u] + self.rot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_core::config::SiriusConfig;

    /// [`Schedule::dest`] is the reference: every lookup path must agree
    /// with it at every (slot, node, uplink), and a peer mask must hold
    /// exactly the scheduled destinations.
    #[test]
    fn table_matches_schedule_exhaustively() {
        for cfg in [
            SiriusConfig::scaled(16, 4),
            SiriusConfig::scaled(64, 8),
            SiriusConfig::paper_sim(),
        ] {
            let sched = Schedule::new(&cfg);
            let table = DestTable::new(&sched);
            assert_eq!(table.nodes(), sched.nodes());
            assert_eq!(table.uplinks(), sched.uplinks());
            assert_eq!(table.epoch_slots(), sched.epoch_slots());
            for t in (0..sched.epoch_slots() as u16).map(SlotInEpoch) {
                let view = table.slot_view(t);
                for i in 0..sched.nodes() {
                    let row = view.node(i);
                    let pm = table.peer_mask(t, i);
                    let mut scheduled = std::collections::HashSet::new();
                    for u in 0..sched.uplinks() as u16 {
                        let want = sched.dest(NodeId(i as u32), UplinkId(u), t);
                        assert_eq!(table.dest(t, NodeId(i as u32), u), want);
                        assert_eq!(row.at(u as usize), want);
                        assert!(bits::get(pm, want.0 as usize));
                        scheduled.insert(want);
                    }
                    let popcount: u32 = pm.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(popcount as usize, scheduled.len(), "(t={t:?}, i={i})");
                }
            }
        }
    }

    #[test]
    fn thousand_node_table_spot_checks_against_schedule() {
        let cfg = SiriusConfig::scaled(1024, 32);
        let sched = Schedule::new(&cfg);
        let table = DestTable::new(&sched);
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
