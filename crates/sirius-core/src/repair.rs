//! Consistent schedule adjustment around failures (§4.5), at two grains.
//!
//! "For any failures that cannot be remedied immediately, the network
//! schedule for all the nodes can be adjusted to omit the failed node ...
//! albeit at the expense of extra mechanisms for consistent updates of the
//! nodes' schedules."
//!
//! Physics constrains what "adjust" can mean: the gratings are passive and
//! every transceiver on a node shares one wavelength per slot, so a slot
//! whose permutation lands on a dead receive port cannot be retargeted
//! without colliding with a live one. What *can* be done consistently:
//!
//! * mark the slots whose destination is the failed node as **dead** so
//!   senders skip protocol work for them (and can use them for
//!   calibration bursts);
//! * stop selecting the failed node as a Valiant intermediate (see
//!   [`crate::vlb`]) — this is what actually restores correctness;
//! * schedule the change at a future **update epoch** so every node flips
//!   at the same boundary (the consistent-update mechanism the paper
//!   alludes to; dissemination rides the cyclic schedule, so one epoch of
//!   lead time reaches everyone).
//!
//! The paper's rule excludes the *whole node* on any failure, costing
//! `1/N` of every node's uplink bandwidth. But a grey failure localized
//! to a single TX column (one uplink's slots) only poisons that column's
//! cells; omitting just the **(node, uplink) column** keeps the node's
//! other `U-1` uplinks and every RX port in service, costing `1/(N·U)`
//! instead. Both grains share the same staged, epoch-versioned update
//! path, and [`AdjustedSchedule::capacity_factor`] reports the combined
//! proportional loss `1 - failed/N - grey_columns/(N·U)`.

use crate::bits;
use crate::schedule::{Schedule, SlotInEpoch};
use crate::topology::{NodeId, UplinkId};

/// Repairs applied by one [`AdjustedSchedule::advance_to`] call, split by
/// grain. `true` means omit, `false` means readmit.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AppliedRepairs {
    /// Whole-node transitions (the §4.5 rule / escalation path).
    pub nodes: Vec<(NodeId, bool)>,
    /// Single TX-column transitions (link-granular repair).
    pub columns: Vec<(NodeId, UplinkId, bool)>,
}

impl AppliedRepairs {
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.columns.is_empty()
    }
}

/// A schedule plus an epoch-versioned set of omitted (failed) nodes and
/// omitted (grey) TX columns.
#[derive(Debug)]
pub struct AdjustedSchedule {
    base: Schedule,
    /// Current omitted node set (applied).
    omitted: Vec<bool>,
    omitted_count: usize,
    /// Current omitted TX columns (applied), indexed `node * U + uplink`.
    omitted_col: Vec<bool>,
    omitted_col_count: usize,
    /// Pending updates: (activation epoch, node, column, omit?), sorted.
    /// `column == None` is a whole-node transition. This is the only
    /// staged set: the VLB picker follows the node transitions
    /// [`advance_to`](Self::advance_to) reports, so it holds none of its
    /// own.
    pending: Vec<(u64, NodeId, Option<UplinkId>, bool)>,
    /// [`pair_usable`](Self::pair_usable) tabulated as two N×N bit
    /// matrices, one [`bits`] row per node: row `i` of `usable_from` is
    /// `{m : pair_usable(i, m)}`, row `j` of `usable_to` is
    /// `{m : pair_usable(m, j)}`. Empty until the first repair is applied
    /// (every pair is usable and nobody asks), then rebuilt by each
    /// [`advance_to`](Self::advance_to) that applies something — the only
    /// place the answer can change.
    usable_from: Vec<u64>,
    usable_to: Vec<u64>,
}

impl AdjustedSchedule {
    pub fn new(base: Schedule) -> AdjustedSchedule {
        let n = base.nodes();
        let cols = n * base.uplinks();
        AdjustedSchedule {
            base,
            omitted: vec![false; n],
            omitted_count: 0,
            omitted_col: vec![false; cols],
            omitted_col_count: 0,
            pending: Vec::new(),
            usable_from: Vec::new(),
            usable_to: Vec::new(),
        }
    }

    pub fn base(&self) -> &Schedule {
        &self.base
    }

    fn col_idx(&self, node: NodeId, uplink: UplinkId) -> usize {
        node.0 as usize * self.base.uplinks() + uplink.0 as usize
    }

    fn stage(&mut self, epoch: u64, node: NodeId, col: Option<UplinkId>, omit: bool) {
        self.pending.push((epoch, node, col, omit));
        self.pending
            .sort_by_key(|&(e, n, c, _)| (e, n.0, c.map(|u| u.0)));
    }

    /// Stage the omission of `node`, activating at `epoch` (which must be
    /// far enough ahead for dissemination — at least one full epoch).
    pub fn stage_omit(&mut self, node: NodeId, epoch: u64) {
        self.stage(epoch, node, None, true);
    }

    /// Stage the re-admission of a repaired `node` at `epoch`.
    pub fn stage_readmit(&mut self, node: NodeId, epoch: u64) {
        self.stage(epoch, node, None, false);
    }

    /// Stage the omission of a single TX column — `node`'s `uplink` —
    /// activating at `epoch`. The node's other uplinks and all its RX
    /// ports stay in service.
    pub fn stage_omit_column(&mut self, node: NodeId, uplink: UplinkId, epoch: u64) {
        self.stage(epoch, node, Some(uplink), true);
    }

    /// Stage the re-admission of a repaired TX column at `epoch`.
    pub fn stage_readmit_column(&mut self, node: NodeId, uplink: UplinkId, epoch: u64) {
        self.stage(epoch, node, Some(uplink), false);
    }

    /// Apply all staged updates whose activation epoch has arrived.
    /// Returns the real transitions applied this call, split by grain;
    /// duplicate stagings are idempotent and report nothing.
    pub fn advance_to(&mut self, epoch: u64) -> AppliedRepairs {
        let mut applied = AppliedRepairs::default();
        while let Some(&(e, node, col, omit)) = self.pending.first() {
            if e > epoch {
                break;
            }
            self.pending.remove(0);
            match col {
                None => {
                    let slot = &mut self.omitted[node.0 as usize];
                    if *slot != omit {
                        *slot = omit;
                        self.omitted_count = if omit {
                            self.omitted_count + 1
                        } else {
                            self.omitted_count - 1
                        };
                        applied.nodes.push((node, omit));
                    }
                }
                Some(u) => {
                    let idx = self.col_idx(node, u);
                    let slot = &mut self.omitted_col[idx];
                    if *slot != omit {
                        *slot = omit;
                        self.omitted_col_count = if omit {
                            self.omitted_col_count + 1
                        } else {
                            self.omitted_col_count - 1
                        };
                        applied.columns.push((node, u, omit));
                    }
                }
            }
        }
        if !applied.is_empty() {
            self.rebuild_usable();
        }
        applied
    }

    fn rebuild_usable(&mut self) {
        let n = self.base.nodes();
        let words = bits::words(n);
        let mut from = std::mem::take(&mut self.usable_from);
        let mut to = std::mem::take(&mut self.usable_to);
        from.clear();
        from.resize(n * words, 0);
        to.clear();
        to.resize(n * words, 0);
        for i in 0..n {
            for j in 0..n {
                if self.pair_usable(NodeId(i as u32), NodeId(j as u32)) {
                    bits::set(&mut from[i * words..(i + 1) * words], j);
                    bits::set(&mut to[j * words..(j + 1) * words], i);
                }
            }
        }
        self.usable_from = from;
        self.usable_to = to;
    }

    /// The nodes `src` can reach directly, as a [`bits`] set: bit `m` is
    /// [`pair_usable`](Self::pair_usable)`(src, m)`.
    ///
    /// # Panics
    /// Before any repair has been applied (the rows do not exist yet).
    pub fn usable_from(&self, src: NodeId) -> &[u64] {
        let words = bits::words(self.base.nodes());
        &self.usable_from[src.0 as usize * words..][..words]
    }

    /// The nodes that can reach `dst` directly, as a [`bits`] set: bit `m`
    /// is [`pair_usable`](Self::pair_usable)`(m, dst)`. Panics like
    /// [`usable_from`](Self::usable_from).
    pub fn usable_to(&self, dst: NodeId) -> &[u64] {
        let words = bits::words(self.base.nodes());
        &self.usable_to[dst.0 as usize * words..][..words]
    }

    pub fn is_omitted(&self, node: NodeId) -> bool {
        self.omitted[node.0 as usize]
    }

    /// Is this single TX column omitted? Independent of whole-node
    /// omission — an omitted node may have zero omitted columns.
    pub fn is_column_omitted(&self, node: NodeId, uplink: UplinkId) -> bool {
        self.omitted_col[self.col_idx(node, uplink)]
    }

    /// Any column omitted anywhere? `false` on the healthy fast path, so
    /// callers can skip per-destination reachability filtering entirely.
    pub fn has_omitted_columns(&self) -> bool {
        self.omitted_col_count > 0
    }

    /// The newest pending whole-node transition for `node`, if any
    /// (`true` = omit).
    pub fn pending_node(&self, node: NodeId) -> Option<bool> {
        self.newest_pending(node, None)
    }

    /// The newest pending transition for this column, if any.
    pub fn pending_column(&self, node: NodeId, uplink: UplinkId) -> Option<bool> {
        self.newest_pending(node, Some(uplink))
    }

    fn newest_pending(&self, node: NodeId, col: Option<UplinkId>) -> Option<bool> {
        self.pending
            .iter()
            .rev()
            .find(|&&(_, n, c, _)| n == node && c == col)
            .map(|&(_, _, _, omit)| omit)
    }

    /// Currently omitted columns, for bookkeeping sweeps.
    pub fn omitted_columns(&self) -> Vec<(NodeId, UplinkId)> {
        let u = self.base.uplinks();
        self.omitted_col
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o)
            .map(|(idx, _)| (NodeId((idx / u) as u32), UplinkId((idx % u) as u16)))
            .collect()
    }

    /// Can `i` reach `j` directly through the adjusted schedule — both
    /// endpoints live and at least one of the columns serving the
    /// `i -> j` group offset not omitted at `i`?
    pub fn pair_usable(&self, i: NodeId, j: NodeId) -> bool {
        if self.omitted[i.0 as usize] || self.omitted[j.0 as usize] {
            return false;
        }
        if self.omitted_col_count == 0 {
            return true;
        }
        let d = self.base.group_offset(i, j);
        self.base
            .columns_for_group_offset(d)
            .iter()
            .any(|&u| !self.is_column_omitted(i, u))
    }

    /// Destination of a slot, or `None` if the slot is dead: its scheduled
    /// destination is omitted, the source itself is omitted, or the
    /// source's TX column is omitted.
    pub fn dest(&self, i: NodeId, u: UplinkId, t: SlotInEpoch) -> Option<NodeId> {
        if self.omitted[i.0 as usize] || self.omitted_col[self.col_idx(i, u)] {
            return None;
        }
        let d = self.base.dest(i, u, t);
        if self.omitted[d.0 as usize] {
            None
        } else {
            Some(d)
        }
    }

    /// Fraction of the fabric's uplink slots still usable:
    /// `1 - failed/N - live_grey_columns/(N·U)`. Columns on an omitted
    /// node are already covered by the `failed/N` term and don't
    /// double-count.
    pub fn capacity_factor(&self) -> f64 {
        let n = self.base.nodes();
        let u = self.base.uplinks();
        let mut f = 1.0 - self.omitted_count as f64 / n as f64;
        if self.omitted_col_count > 0 {
            let live_cols = self
                .omitted_col
                .iter()
                .enumerate()
                .filter(|&(idx, &o)| o && !self.omitted[idx / u])
                .count();
            f -= live_cols as f64 / (n * u) as f64;
        }
        f
    }

    /// Dead slots per epoch for a live node (usable for calibration
    /// bursts / keepalives).
    pub fn dead_slots_per_epoch(&self, i: NodeId) -> usize {
        if self.omitted[i.0 as usize] {
            return 0;
        }
        let mut dead = 0;
        for u in 0..self.base.uplinks() as u16 {
            for t in 0..self.base.epoch_slots() as u16 {
                if self.dest(i, UplinkId(u), SlotInEpoch(t)).is_none() {
                    dead += 1;
                }
            }
        }
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SiriusConfig;
    use crate::fault::FailurePlane;

    fn adj() -> AdjustedSchedule {
        AdjustedSchedule::new(Schedule::new(&SiriusConfig::scaled(16, 4)))
    }

    #[test]
    fn updates_activate_atomically_at_their_epoch() {
        let mut a = adj();
        a.stage_omit(NodeId(3), 10);
        assert!(a.advance_to(9).is_empty());
        assert!(!a.is_omitted(NodeId(3)));
        let applied = a.advance_to(10);
        assert_eq!(applied.nodes, vec![(NodeId(3), true)]);
        assert!(applied.columns.is_empty());
        assert!(a.is_omitted(NodeId(3)));
    }

    #[test]
    fn dead_slots_match_the_proportional_rule() {
        let mut a = adj();
        a.stage_omit(NodeId(5), 0);
        a.advance_to(0);
        // Every live node loses exactly the slots that pointed at node 5:
        // base columns connect each pair once per epoch, extras can add a
        // second — so dead slots = connections_per_epoch(i, 5).
        for i in 0..16u32 {
            if i == 5 {
                continue;
            }
            let expect = a.base().connections_per_epoch(NodeId(i), NodeId(5));
            assert_eq!(
                a.dead_slots_per_epoch(NodeId(i)),
                expect,
                "node {i} dead slots"
            );
        }
        assert!((a.capacity_factor() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn dest_filters_failed_endpoints() {
        let mut a = adj();
        a.stage_omit(NodeId(2), 0);
        a.advance_to(0);
        for u in 0..a.base().uplinks() as u16 {
            for t in 0..a.base().epoch_slots() as u16 {
                for i in 0..16u32 {
                    let d = a.dest(NodeId(i), UplinkId(u), SlotInEpoch(t));
                    if i == 2 {
                        assert_eq!(d, None, "omitted node must not transmit");
                    } else if let Some(d) = d {
                        assert_ne!(d, NodeId(2), "slot still points at the corpse");
                    }
                }
            }
        }
    }

    #[test]
    fn readmission_restores_capacity() {
        let mut a = adj();
        a.stage_omit(NodeId(7), 5);
        a.stage_readmit(NodeId(7), 50);
        a.advance_to(5);
        assert!((a.capacity_factor() - 15.0 / 16.0).abs() < 1e-12);
        a.advance_to(50);
        assert_eq!(a.capacity_factor(), 1.0);
        assert!(!a.is_omitted(NodeId(7)));
        assert_eq!(a.dead_slots_per_epoch(NodeId(0)), 0);
    }

    #[test]
    fn duplicate_updates_are_idempotent() {
        let mut a = adj();
        a.stage_omit(NodeId(1), 3);
        a.stage_omit(NodeId(1), 4);
        a.advance_to(10);
        assert!(a.is_omitted(NodeId(1)));
        assert!((a.capacity_factor() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_failures_accumulate() {
        let mut a = adj();
        for k in 0..4 {
            a.stage_omit(NodeId(k), 0);
        }
        a.advance_to(0);
        assert!((a.capacity_factor() - 12.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn column_omission_costs_one_over_nu() {
        let mut a = adj();
        let u = a.base().uplinks();
        a.stage_omit_column(NodeId(3), UplinkId(1), 10);
        assert!(a.advance_to(9).is_empty());
        assert!(!a.is_column_omitted(NodeId(3), UplinkId(1)));
        let applied = a.advance_to(10);
        assert_eq!(applied.columns, vec![(NodeId(3), UplinkId(1), true)]);
        assert!(applied.nodes.is_empty());
        assert!(a.is_column_omitted(NodeId(3), UplinkId(1)));
        assert!(a.has_omitted_columns());
        let expect = 1.0 - 1.0 / (16.0 * u as f64);
        assert!(
            (a.capacity_factor() - expect).abs() < 1e-12,
            "one grey column must cost 1/(N*U), got {}",
            a.capacity_factor()
        );
        // The dead slots are exactly that column's slots at node 3, and
        // nothing anywhere else.
        assert_eq!(
            a.dead_slots_per_epoch(NodeId(3)) as u64,
            a.base().epoch_slots()
        );
        for i in 0..16u32 {
            if i == 3 {
                continue;
            }
            assert_eq!(a.dead_slots_per_epoch(NodeId(i)), 0, "node {i}");
        }
    }

    #[test]
    fn column_readmission_restores_capacity_and_reports_transition() {
        let mut a = adj();
        a.stage_omit_column(NodeId(2), UplinkId(0), 5);
        a.stage_readmit_column(NodeId(2), UplinkId(0), 20);
        a.advance_to(5);
        assert!(a.has_omitted_columns());
        assert_eq!(a.pending_column(NodeId(2), UplinkId(0)), Some(false));
        let applied = a.advance_to(20);
        assert_eq!(applied.columns, vec![(NodeId(2), UplinkId(0), false)]);
        assert!(!a.has_omitted_columns());
        assert_eq!(a.capacity_factor(), 1.0);
        assert_eq!(a.pending_column(NodeId(2), UplinkId(0)), None);
    }

    #[test]
    fn duplicate_column_updates_are_idempotent() {
        let mut a = adj();
        a.stage_omit_column(NodeId(4), UplinkId(2), 3);
        a.stage_omit_column(NodeId(4), UplinkId(2), 4);
        let applied = a.advance_to(10);
        assert_eq!(applied.columns.len(), 1);
        let u = a.base().uplinks() as f64;
        assert!((a.capacity_factor() - (1.0 - 1.0 / (16.0 * u))).abs() < 1e-12);
    }

    #[test]
    fn node_omission_subsumes_its_columns_in_capacity() {
        // A grey column on a node that later dies entirely must not be
        // double-counted: the node term covers all its columns.
        let mut a = adj();
        a.stage_omit_column(NodeId(6), UplinkId(1), 0);
        a.advance_to(0);
        a.stage_omit(NodeId(6), 1);
        a.advance_to(1);
        assert!((a.capacity_factor() - 15.0 / 16.0).abs() < 1e-12);
        assert_eq!(
            a.omitted_columns(),
            vec![(NodeId(6), UplinkId(1))],
            "column state survives node omission for later readmission"
        );
    }

    #[test]
    fn pair_usable_tracks_column_coverage() {
        let mut a = adj();
        let src = NodeId(3);
        let dst = NodeId(9);
        assert!(a.pair_usable(src, dst));
        let d = a.base().group_offset(src, dst);
        let cols: Vec<UplinkId> = a.base().columns_for_group_offset(d).to_vec();
        assert!(!cols.is_empty());
        // Kill all but the last column serving this offset: still usable.
        for (k, &u) in cols.iter().enumerate() {
            if k + 1 < cols.len() {
                a.stage_omit_column(src, u, 0);
            }
        }
        a.advance_to(0);
        assert!(a.pair_usable(src, dst), "one live column should suffice");
        // Kill the last: the src->dst group offset is now unreachable.
        a.stage_omit_column(src, *cols.last().unwrap(), 1);
        a.advance_to(1);
        assert!(!a.pair_usable(src, dst));
        // Other sources are unaffected.
        assert!(a.pair_usable(NodeId(0), dst));
        // dest() agrees: no slot at src reaches dst any more.
        for u in 0..a.base().uplinks() as u16 {
            for t in 0..a.base().epoch_slots() as u16 {
                assert_ne!(a.dest(src, UplinkId(u), SlotInEpoch(t)), Some(dst));
            }
        }
    }

    #[test]
    fn usable_rows_tabulate_pair_usable_after_every_applied_repair() {
        let mut a = adj();
        let check = |a: &AdjustedSchedule| {
            for i in (0..16).map(NodeId) {
                for j in (0..16).map(NodeId) {
                    let want = a.pair_usable(i, j);
                    assert_eq!(bits::get(a.usable_from(i), j.0 as usize), want);
                    assert_eq!(bits::get(a.usable_to(j), i.0 as usize), want);
                }
            }
        };
        // A column, a whole node, then both healed: the rows follow.
        let cols: Vec<UplinkId> = a
            .base()
            .columns_for_group_offset(a.base().group_offset(NodeId(3), NodeId(9)))
            .to_vec();
        for &u in &cols {
            a.stage_omit_column(NodeId(3), u, 1);
        }
        a.advance_to(1);
        assert!(!bits::get(a.usable_from(NodeId(3)), 9));
        check(&a);
        a.stage_omit(NodeId(7), 2);
        a.advance_to(2);
        check(&a);
        for &u in &cols {
            a.stage_readmit_column(NodeId(3), u, 3);
        }
        a.stage_readmit(NodeId(7), 3);
        a.advance_to(3);
        assert!(bits::get(a.usable_from(NodeId(3)), 9));
        check(&a);
    }

    #[test]
    fn ground_truth_alone_never_moves_the_routing_view() {
        let mut a = adj();
        let mut fp = FailurePlane::new(16);
        fp.fail(NodeId(3), 10);
        assert!(fp.is_failed(NodeId(3)));
        assert_eq!(fp.fail_epoch(NodeId(3)), Some(10));
        // A ground-truth failure alone changes nothing in routing.
        assert!(a.advance_to(12).is_empty());
        assert!(!a.is_omitted(NodeId(3)));
        // A detector stages the omission for epoch 14; nothing applies
        // before its epoch.
        a.stage_omit(NodeId(3), 14);
        assert_eq!(a.pending_node(NodeId(3)), Some(true));
        assert!(a.advance_to(13).is_empty());
        assert_eq!(a.advance_to(14).nodes, vec![(NodeId(3), true)]);
        assert!(a.is_omitted(NodeId(3)));
        assert_eq!(a.pending_node(NodeId(3)), None);
        // Recovery is ground truth only; routing waits for a staged
        // readmission.
        fp.recover(NodeId(3));
        assert!(!fp.is_failed(NodeId(3)));
        assert!(a.advance_to(15).is_empty());
        assert!(a.is_omitted(NodeId(3)));
        a.stage_readmit(NodeId(3), 16);
        assert_eq!(a.advance_to(16).nodes, vec![(NodeId(3), false)]);
        assert!(!a.is_omitted(NodeId(3)));
    }

    #[test]
    fn fail_recover_fail_flap_does_not_resurrect_mid_detection() {
        // A recover racing an in-progress detection must neither cancel
        // the pending omission nor readmit the node: routing only moves
        // through staged updates.
        let mut a = adj();
        let mut fp = FailurePlane::new(16);
        fp.fail(NodeId(1), 5);
        a.stage_omit(NodeId(1), 7); // detector in flight
        assert!(a.advance_to(6).is_empty());
        // The node blips back up and immediately dies again, before the
        // staged omission even applied.
        fp.recover(NodeId(1));
        fp.fail(NodeId(1), 6);
        assert_eq!(fp.fail_epoch(NodeId(1)), Some(6));
        assert_eq!(a.pending_node(NodeId(1)), Some(true));
        assert!(a.advance_to(6).is_empty());
        assert!(!a.is_omitted(NodeId(1)));
        // The staged omission still lands at its boundary.
        assert_eq!(a.advance_to(7).nodes, vec![(NodeId(1), true)]);
        // A duplicate staged omission is a no-op, not a double-kill.
        a.stage_omit(NodeId(1), 8);
        assert!(a.advance_to(8).is_empty());
        assert!(a.is_omitted(NodeId(1)));
        assert!((a.capacity_factor() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn pending_node_reports_the_newest_direction() {
        let mut a = adj();
        let n = NodeId(4);
        assert_eq!(a.pending_node(n), None);
        a.stage_omit(n, 5);
        assert_eq!(a.pending_node(n), Some(true));
        a.stage_readmit(n, 9);
        assert_eq!(a.pending_node(n), Some(false));
        // A column staging on the same node is a different grain.
        a.stage_omit_column(n, UplinkId(1), 12);
        assert_eq!(a.pending_node(n), Some(false));
        assert_eq!(a.pending_column(n, UplinkId(1)), Some(true));
        assert_eq!(a.pending_node(NodeId(5)), None);
        a.advance_to(5);
        assert_eq!(a.pending_node(n), Some(false));
        a.advance_to(9);
        assert_eq!(a.pending_node(n), None);
    }

    #[test]
    fn mixed_grain_transitions_apply_in_one_advance() {
        let mut a = adj();
        a.stage_omit(NodeId(1), 7);
        a.stage_omit_column(NodeId(2), UplinkId(3), 7);
        let applied = a.advance_to(7);
        assert_eq!(applied.nodes, vec![(NodeId(1), true)]);
        assert_eq!(applied.columns, vec![(NodeId(2), UplinkId(3), true)]);
        let u = a.base().uplinks() as f64;
        let expect = 1.0 - 1.0 / 16.0 - 1.0 / (16.0 * u);
        assert!((a.capacity_factor() - expect).abs() < 1e-12);
    }
}
