//! The static, contention-free cyclic schedule (§4.2).
//!
//! Sirius is "scheduler-less": there is no demand collection and no runtime
//! schedule computation. Every node follows the same precomputed cyclic
//! schedule — at timeslot `t` of the epoch every laser in the datacenter is
//! tuned to wavelength `t` (this is what makes laser sharing possible,
//! §4.5), and uplink column `u` of node `i` is therefore connected to
//!
//! ```text
//! dest(i, u, t) = ((group(i) + shift(u)) mod groups) * G + ((port(i) + t) mod G)
//! ```
//!
//! The schedule has three properties the rest of the stack relies on,
//! all of which are property-tested below:
//!
//! 1. **Contention-free**: at every slot, `i -> dest(i, u, t)` is a
//!    permutation for each column `u`, so no receive port ever sees two
//!    senders (the optical core has no buffers, §4.2).
//! 2. **Complete**: over one epoch the base columns connect every ordered
//!    node pair exactly once — the "equal-rate connectivity between all
//!    nodes" that Valiant load balancing needs.
//! 3. **Periodic**: every pair reconnects every epoch, which underpins
//!    piggybacked congestion control (§4.3), rotating-leader time sync
//!    (§4.4) and phase caching (§4.5).
//!
//! The schedule is stored in the form it defines: a rotation. An AWGR
//! routes wavelength `t` from port `p` to port `(p + t) mod G`, so
//! `dest(i, u, t)` is a fixed column base `dst_group * G` plus the node's
//! rotation `(i + t) mod G` — one base per (node, uplink), O(N · uplinks)
//! in total and cache-resident up to 4096 nodes. A node's columns reach
//! every group, so its scheduled peers at slot `t` are exactly the nodes
//! `≡ (i + t) mod G`: one comb mask per rotation
//! ([`scheduled_peers`](Schedule::scheduled_peers)), which ANDed against a
//! node's fabric-occupancy mask answers "can this node send anything this
//! slot?" in a couple of word ops. Construction proves **receive-port
//! exclusivity** (property 1) or panics, so every run that builds a
//! schedule has it checked.

use crate::bits;
use crate::config::SiriusConfig;
use crate::topology::{NodeId, Topology, UplinkId};
use crate::units::Duration;

/// A wavelength index on the grating's cyclic grid (0..G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Wavelength(pub u16);

/// A timeslot index within the epoch (0..G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotInEpoch(pub u16);

/// One connection opportunity from a source node: which uplink column and
/// which slot of the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connection {
    pub uplink: UplinkId,
    pub slot: SlotInEpoch,
}

/// The precomputed cyclic schedule for a given topology.
#[derive(Debug, Clone)]
pub struct Schedule {
    nodes: usize,
    g: usize,
    groups: usize,
    shifts: Vec<u32>,
    /// `columns_for_shift[d]` = uplink columns whose group shift is `d`.
    columns_for_shift: Vec<Vec<UplinkId>>,
    /// `[node * uplinks + uplink] -> dst_group * g`: the rotation-
    /// independent part of the destination.
    col_base: Vec<u32>,
    /// Bitmask words per comb.
    words: usize,
    /// `[rotation][word]`: bit `j` set iff `j mod g == rotation` — the
    /// scheduled peers of any node whose rotation that is.
    comb: Vec<u64>,
    slot_len: Duration,
}

/// One node's destinations at one slot; [`at`](Self::at) resolves an
/// uplink column.
pub struct ScheduleRow<'a> {
    col: &'a [u32],
    rot: u32,
}

impl ScheduleRow<'_> {
    #[inline]
    pub fn at(&self, u: usize) -> NodeId {
        NodeId(self.col[u] + self.rot)
    }
}

impl Schedule {
    pub fn new(cfg: &SiriusConfig) -> Schedule {
        let topo = Topology::new(cfg);
        Schedule::from_topology(&topo, cfg.slot())
    }

    pub fn from_topology(topo: &Topology, slot_len: Duration) -> Schedule {
        let (nodes, g, groups) = (topo.nodes(), topo.grating_ports(), topo.groups());
        let mut columns_for_shift = vec![Vec::new(); groups];
        for (u, &s) in topo.shifts().iter().enumerate() {
            columns_for_shift[s as usize].push(UplinkId(u as u16));
        }
        // The combs name *every* node of a rotation as a peer, which
        // holds iff the columns reach every group.
        assert!(
            columns_for_shift.iter().all(|c| !c.is_empty()),
            "uplink columns skip a group offset; scheduled-peer masks invalid"
        );
        let (g32, groups32) = (g as u32, groups as u32);
        let col_base: Vec<u32> = (0..nodes as u32)
            .flat_map(|i| {
                topo.shifts()
                    .iter()
                    .map(move |&s| (i / g32 + s) % groups32 * g32)
            })
            .collect();
        assert_rx_exclusive(&col_base, g32, topo.uplinks());
        let words = bits::words(nodes);
        let mut comb = vec![0u64; g * words];
        for j in 0..nodes {
            bits::set(&mut comb[j % g * words..][..words], j);
        }
        Schedule {
            nodes,
            g,
            groups,
            shifts: topo.shifts().to_vec(),
            columns_for_shift,
            col_base,
            words,
            comb,
            slot_len,
        }
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }
    pub fn uplinks(&self) -> usize {
        self.shifts.len()
    }
    /// Slots per epoch (= grating ports).
    pub fn epoch_slots(&self) -> u64 {
        self.g as u64
    }
    pub fn slot_len(&self) -> Duration {
        self.slot_len
    }
    pub fn epoch_len(&self) -> Duration {
        self.slot_len * self.g as u64
    }

    /// The wavelength every laser in the network uses at epoch slot `t`.
    /// One wavelength for the whole datacenter per slot is what allows a
    /// single tunable laser to be shared by all of a node's transceivers.
    pub fn wavelength(&self, t: SlotInEpoch) -> Wavelength {
        debug_assert!((t.0 as usize) < self.g);
        Wavelength(t.0)
    }

    /// Epoch slot given an absolute slot counter.
    pub fn slot_in_epoch(&self, abs_slot: u64) -> SlotInEpoch {
        SlotInEpoch((abs_slot % self.g as u64) as u16)
    }

    /// Epoch index given an absolute slot counter.
    pub fn epoch_of(&self, abs_slot: u64) -> u64 {
        abs_slot / self.g as u64
    }

    /// Node `i`'s rotation at epoch slot `t`: `(port(i) + t) mod G`.
    #[inline]
    fn rot(&self, i: NodeId, t: SlotInEpoch) -> u32 {
        (i.0 + t.0 as u32) % self.g as u32
    }

    /// Destination of uplink `u` of node `i` at epoch slot `t`.
    #[inline]
    pub fn dest(&self, i: NodeId, u: UplinkId, t: SlotInEpoch) -> NodeId {
        self.row(i, t).at(u.0 as usize)
    }

    /// All of node `i`'s destinations at epoch slot `t`.
    #[inline]
    pub fn row(&self, i: NodeId, t: SlotInEpoch) -> ScheduleRow<'_> {
        let uplinks = self.uplinks();
        let first = i.0 as usize * uplinks;
        ScheduleRow {
            col: &self.col_base[first..first + uplinks],
            rot: self.rot(i, t),
        }
    }

    /// Bitmask ([`bits`] layout) of the peers node `i`'s uplinks connect
    /// to at epoch slot `t`.
    #[inline]
    pub fn scheduled_peers(&self, i: NodeId, t: SlotInEpoch) -> &[u64] {
        &self.comb[self.rot(i, t) as usize * self.words..][..self.words]
    }

    /// Which node is transmitting into RX column `u` of node `j` at slot `t`
    /// (the inverse of [`dest`](Self::dest)).
    pub fn source(&self, j: NodeId, u: UplinkId, t: SlotInEpoch) -> NodeId {
        let g = self.g as u32;
        let groups = self.groups as u32;
        let dst_group = j.0 / g;
        let q = j.0 % g;
        let shift = self.shifts[u.0 as usize];
        let src_group = (dst_group + groups - shift % groups) % groups;
        let port = (q + g - t.0 as u32 % g) % g;
        NodeId(src_group * g + port)
    }

    /// All connection opportunities from `i` to `j` within one epoch.
    ///
    /// The base columns provide exactly one; extra load-balancing columns
    /// can add a second for some group offsets.
    pub fn connections(&self, i: NodeId, j: NodeId) -> Vec<Connection> {
        let g = self.g as u32;
        let t = SlotInEpoch((((j.0 % g) + g - (i.0 % g)) % g) as u16);
        self.columns_for_shift[self.group_offset(i, j) as usize]
            .iter()
            .map(|&u| Connection { uplink: u, slot: t })
            .collect()
    }

    /// Uplink columns whose shift connects group offset `d`.
    pub fn columns_for_group_offset(&self, d: u32) -> &[UplinkId] {
        &self.columns_for_shift[d as usize]
    }

    /// Group offset from `i` to `j` — the index into
    /// [`columns_for_group_offset`](Self::columns_for_group_offset) naming
    /// the TX columns that carry `i -> j` traffic.
    pub fn group_offset(&self, i: NodeId, j: NodeId) -> u32 {
        let g = self.g as u32;
        let groups = self.groups as u32;
        ((j.0 / g) + groups - (i.0 / g)) % groups
    }

    /// Connections from `i` to `j` per epoch (1 for base-only offsets, 2
    /// where an extra column duplicates coverage).
    pub fn connections_per_epoch(&self, i: NodeId, j: NodeId) -> usize {
        self.columns_for_shift[self.group_offset(i, j) as usize].len()
    }
}

/// Panic unless every slot is a permutation on every uplink, in one
/// O(N · uplinks) pass: a column base is a multiple of `g` and a port
/// `i mod g` is below `g`, so two senders collide at some slot iff they
/// share (column base, port) — iff their slot-0 destinations coincide.
fn assert_rx_exclusive(col_base: &[u32], g: u32, uplinks: usize) {
    let mut driven = vec![false; col_base.len()];
    for (k, &base) in col_base.iter().enumerate() {
        let (i, u) = (k / uplinks, k % uplinks);
        let rx = (base + i as u32 % g) as usize;
        assert!(
            !std::mem::replace(&mut driven[rx * uplinks + u], true),
            "rx exclusivity: two senders drive node {rx} uplink {u} in the same slot; \
             the schedule is not a permutation"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sched(cfg: &SiriusConfig) -> Schedule {
        Schedule::new(cfg)
    }

    /// The §4.2 formula of the module doc, evaluated directly: the
    /// reference the stored rotation form must agree with.
    fn paper_dest(s: &Schedule, i: NodeId, u: UplinkId, t: SlotInEpoch) -> NodeId {
        let g = s.g as u32;
        let (group, port) = (i.0 / g, i.0 % g);
        let dst_group = (group + s.shifts[u.0 as usize]) % s.groups as u32;
        NodeId(dst_group * g + (port + t.0 as u32) % g)
    }

    /// Every lookup path agrees with [`paper_dest`] at every (slot, node,
    /// uplink), and a scheduled-peer mask holds exactly the scheduled
    /// destinations.
    #[test]
    fn rotation_form_matches_paper_formula_exhaustively() {
        for cfg in [
            SiriusConfig::scaled(16, 4),
            SiriusConfig::scaled(64, 8),
            SiriusConfig::paper_sim(),
        ] {
            let s = sched(&cfg);
            for t in (0..s.epoch_slots() as u16).map(SlotInEpoch) {
                for i in (0..s.nodes() as u32).map(NodeId) {
                    let row = s.row(i, t);
                    let pm = s.scheduled_peers(i, t);
                    let mut scheduled = std::collections::HashSet::new();
                    for u in 0..s.uplinks() as u16 {
                        let want = paper_dest(&s, i, UplinkId(u), t);
                        assert_eq!(s.dest(i, UplinkId(u), t), want);
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
    fn thousand_node_schedule_spot_checks_against_paper_formula() {
        let s = sched(&SiriusConfig::scaled(1024, 32));
        for t in [0u16, 1, 31].map(SlotInEpoch) {
            for i in [0u32, 511, 1023].map(NodeId) {
                for u in (0..s.uplinks() as u16).map(UplinkId) {
                    assert_eq!(s.dest(i, u, t), paper_dest(&s, i, u, t));
                }
            }
        }
    }

    /// 8 nodes in two groups of 4, one uplink: each group sends to the
    /// other. Moving node 5's column to group 1 makes it share (column
    /// base, port) with node 1, so both drive node 5's RX port at slot 0
    /// (and one common port at every slot after).
    #[test]
    #[should_panic(expected = "rx exclusivity: two senders drive node 5 uplink 0")]
    fn a_non_permutation_schedule_is_refused() {
        let mut col_base = [4u32, 4, 4, 4, 0, 0, 0, 0];
        assert_rx_exclusive(&col_base, 4, 1);
        col_base[5] = 4;
        assert_rx_exclusive(&col_base, 4, 1);
    }

    #[test]
    fn fig5_schedule_reproduced() {
        // Paper Fig. 5b: 4 nodes, 2 uplinks, wavelengths A,B = 0,1.
        // (Node 1,port 1) slot A -> (1,1); slot B -> (2,1) [1-indexed there].
        let s = sched(&SiriusConfig::four_node_prototype());
        // 0-indexed: node 0 uplink 0: slot0 -> node 0 (self), slot1 -> node 1
        assert_eq!(s.dest(NodeId(0), UplinkId(0), SlotInEpoch(0)), NodeId(0));
        assert_eq!(s.dest(NodeId(0), UplinkId(0), SlotInEpoch(1)), NodeId(1));
        // node 0 uplink 1: slot0 -> node 2, slot1 -> node 3
        assert_eq!(s.dest(NodeId(0), UplinkId(1), SlotInEpoch(0)), NodeId(2));
        assert_eq!(s.dest(NodeId(0), UplinkId(1), SlotInEpoch(1)), NodeId(3));
        // node 1 uplink 0: slot0 -> node 1 (self), slot1 -> node 0 (wraps)
        assert_eq!(s.dest(NodeId(1), UplinkId(0), SlotInEpoch(0)), NodeId(1));
        assert_eq!(s.dest(NodeId(1), UplinkId(0), SlotInEpoch(1)), NodeId(0));
    }

    #[test]
    fn contention_free_every_slot_paper_scale() {
        let s = sched(&SiriusConfig::paper_sim());
        for u in 0..s.uplinks() as u16 {
            for t in 0..s.epoch_slots() as u16 {
                let mut seen = vec![false; s.nodes()];
                for i in 0..s.nodes() as u32 {
                    let d = s.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                    assert!(
                        !seen[d.0 as usize],
                        "two senders hit {d} on column {u} slot {t}"
                    );
                    seen[d.0 as usize] = true;
                }
            }
        }
    }

    #[test]
    fn base_columns_connect_every_pair_once_per_epoch() {
        let cfg = SiriusConfig::scaled(32, 8);
        let s = sched(&cfg);
        let base = cfg.base_uplinks;
        let mut count = vec![vec![0u32; s.nodes()]; s.nodes()];
        for u in 0..base as u16 {
            for t in 0..s.epoch_slots() as u16 {
                for i in 0..s.nodes() as u32 {
                    let d = s.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                    count[i as usize][d.0 as usize] += 1;
                }
            }
        }
        for (i, row) in count.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                assert_eq!(c, 1, "pair ({i},{j}) connected {c} times");
            }
        }
    }

    #[test]
    fn source_inverts_dest() {
        let s = sched(&SiriusConfig::paper_sim());
        for u in 0..s.uplinks() as u16 {
            for t in (0..s.epoch_slots() as u16).step_by(3) {
                for i in (0..s.nodes() as u32).step_by(7) {
                    let d = s.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                    assert_eq!(s.source(d, UplinkId(u), SlotInEpoch(t)), NodeId(i));
                }
            }
        }
    }

    #[test]
    fn connections_find_the_right_slot() {
        let s = sched(&SiriusConfig::paper_sim());
        for i in (0..s.nodes() as u32).step_by(11) {
            for j in (0..s.nodes() as u32).step_by(5) {
                let conns = s.connections(NodeId(i), NodeId(j));
                assert!(!conns.is_empty(), "no path {i}->{j}");
                assert_eq!(conns.len(), s.connections_per_epoch(NodeId(i), NodeId(j)));
                for c in conns {
                    assert_eq!(s.dest(NodeId(i), c.uplink, c.slot), NodeId(j));
                }
            }
        }
    }

    #[test]
    fn uplink_factor_increases_pair_capacity() {
        // With the paper's 1.5x factor, some group offsets get two columns.
        let s = sched(&SiriusConfig::paper_sim());
        let counts: Vec<usize> = (0..8)
            .map(|d| s.columns_for_group_offset(d).len())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 12);
        assert!(counts.iter().all(|&c| c == 1 || c == 2));
        assert_eq!(counts.iter().filter(|&&c| c == 2).count(), 4);
    }

    #[test]
    fn epoch_timing_matches_config() {
        let cfg = SiriusConfig::paper_sim();
        let s = sched(&cfg);
        assert_eq!(s.epoch_len(), cfg.epoch());
        assert_eq!(s.slot_in_epoch(16).0, 0);
        assert_eq!(s.slot_in_epoch(17).0, 1);
        assert_eq!(s.epoch_of(31), 1);
    }

    proptest! {
        /// Contention-freedom, invertibility and agreement with the
        /// §4.2 formula over random geometries, extra columns included.
        #[test]
        fn schedule_is_permutation_for_any_geometry(
            groups in 1usize..6,
            g in 1usize..12,
            factor in 1.0f64..2.0,
        ) {
            let nodes = groups * g;
            let mut cfg = SiriusConfig::scaled(nodes, g);
            cfg.uplink_factor = factor;
            if cfg.validate().is_err() {
                return Ok(());
            }
            let s = Schedule::new(&cfg);
            for u in 0..s.uplinks() as u16 {
                for t in 0..s.epoch_slots() as u16 {
                    let mut seen = vec![false; nodes];
                    for i in 0..nodes as u32 {
                        let d = s.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                        prop_assert_eq!(d, paper_dest(&s, NodeId(i), UplinkId(u), SlotInEpoch(t)));
                        prop_assert!(!seen[d.0 as usize]);
                        seen[d.0 as usize] = true;
                        prop_assert_eq!(s.source(d, UplinkId(u), SlotInEpoch(t)), NodeId(i));
                    }
                }
            }
        }

        /// Every ordered pair is connected at least once per epoch.
        #[test]
        fn full_reachability(groups in 1usize..5, g in 1usize..9) {
            let nodes = groups * g;
            let cfg = SiriusConfig::scaled(nodes, g);
            if cfg.validate().is_err() {
                return Ok(());
            }
            let s = Schedule::new(&cfg);
            for i in 0..nodes as u32 {
                for j in 0..nodes as u32 {
                    prop_assert!(!s.connections(NodeId(i), NodeId(j)).is_empty());
                }
            }
        }
    }
}
