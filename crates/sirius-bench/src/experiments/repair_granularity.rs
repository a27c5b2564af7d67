//! Repair granularity: what a permanently-dead TX column costs under
//! link-granular repair (omit only the affected (node, uplink) column,
//! capacity floor `1 - k/(N*U)`) versus the paper's §4.5 whole-node rule
//! (exclude the node, floor `1 - k/N`).
//!
//! This module holds only the fault script — `k` single dead columns on
//! distinct racks — and its `k` axis; the three arms, the point and the
//! table are `fault_tolerance`'s link-vs-node comparison, which
//! `correlated_faults` runs under a dead laser-bank chip instead.

use sirius_core::config::SiriusConfig;
use sirius_core::topology::NodeId;
use sirius_sim::FaultInjector;

/// Column-count sweep proportional to the rack count: enough faults that
/// the two capacity lines separate clearly, never more than one column
/// per rack so no node crosses the escalation threshold.
pub fn k_sweep(nodes: u32) -> Vec<u32> {
    let mut ks = vec![1, (nodes / 8).max(2), nodes / 4];
    ks.dedup();
    ks
}

/// `k` permanently dead TX columns, uplink 1 of each of the last `k`
/// racks, which the survivor workload leaves dark.
pub fn dead_columns(net: &SiriusConfig, k: u32, seed: u64) -> (u32, FaultInjector) {
    let n = net.nodes as u32;
    let faults = (0..k).fold(FaultInjector::new(seed), |inj, i| {
        inj.grey_link(NodeId(n - 1 - i), 1, 1.0, 0, u64::MAX)
    });
    (k, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fault_tolerance::{repair_sweep, repair_table};
    use crate::scale::Scale;

    #[test]
    fn link_granular_repair_keeps_more_capacity_at_smoke_scale() {
        let pts = repair_sweep(
            "repair_granularity",
            Scale::Smoke,
            11,
            &[2],
            dead_columns,
            2,
        );
        let p = &pts[0];
        let nu = (p.nodes * p.uplinks) as f64;
        assert!((p.cf_link - (1.0 - 2.0 / nu)).abs() < 1e-9);
        assert!((p.cf_node - (1.0 - 2.0 / p.nodes as f64)).abs() < 1e-9);
        assert!(
            p.ratio_link >= p.cf_link - 0.05,
            "link ratio {} below floor {}",
            p.ratio_link,
            p.cf_link
        );
        assert!(
            p.ratio_link > p.cf_node,
            "link ratio {} should beat the whole-node floor {}",
            p.ratio_link,
            p.cf_node
        );
        assert!(p.advantage() > 0.0);
        let t = repair_table("repair granularity", &pts);
        assert_eq!(t.len(), 1);
        t.assert_csv_digest(0xe98f_3b13_8f22_aa6a);
    }
}
