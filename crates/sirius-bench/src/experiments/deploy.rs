//! The §4.1 deployment-sizing table: the paper's headline deployment
//! points reproduced by the planner in `sirius_core::deployment`.

use crate::table::Table;
use sirius_core::deployment::{plan, DeploymentKind};
use sirius_core::units::{Duration, Rate};

pub fn table() -> Table {
    let slot = Duration::from_ps(99_920);
    let mut t = Table::new(
        "S4.1 deployment points (50 Gbps channels, 100 ns slots, 8-way laser sharing)",
        &[
            "deployment",
            "nodes",
            "uplinks",
            "grating_ports",
            "gratings",
            "epoch_us",
            "laser_chips",
            "bisection_Tbps",
        ],
    );
    let rows = [
        (
            "GPU cluster (server-based)",
            DeploymentKind::ServerBased,
            4_800usize,
            48usize,
        ),
        ("max rack-based DC", DeploymentKind::RackBased, 25_600, 256),
        (
            "large DC, 16-port gratings",
            DeploymentKind::RackBased,
            4_096,
            256,
        ),
        ("paper §7 simulation", DeploymentKind::RackBased, 128, 8),
    ];
    for (name, kind, nodes, uplinks) in rows {
        let p = plan(kind, nodes, uplinks, Rate::from_gbps(50), slot, 8).unwrap();
        t.row(vec![
            name.to_string(),
            p.nodes.to_string(),
            p.base_uplinks.to_string(),
            p.grating_ports.to_string(),
            p.gratings.to_string(),
            format!("{:.2}", p.epoch.as_us_f64()),
            p.laser_chips_per_node.to_string(),
            format!("{:.1}", p.bisection.as_gbps_f64() / 1000.0),
        ]);
    }
    t
}
