//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * **Congestion control off (`Greedy`)** — §4.3's opening argument:
//!   without the request/grant round, several sources relay cells for the
//!   same destination through the same intermediate and "queues can grow
//!   very large". We measure peak per-node fabric occupancy and tail FCT
//!   with the protocol, the idealized back-pressure bound, and no control
//!   at all.
//! * **Uniform vs skewed VLB** is covered by Fig. 12 (uplink factor), and
//!   the sync/PLL ablation by `xp sync`.

use crate::experiments::fig9::SHORT_FLOW_BYTES;
use crate::pool::Sweep;
use crate::scale::Scale;
use crate::table::{f, fct_ms, Table};
use sirius_sim::{CcMode, SiriusSim};

/// The ablation arms, in table order.
pub const MODES: [(&str, CcMode); 3] = [
    ("Protocol (Q=4)", CcMode::Protocol),
    ("Ideal back-pressure", CcMode::Ideal),
    ("No control (greedy)", CcMode::Greedy),
];

#[derive(Debug, Clone)]
pub struct Point {
    pub mode: &'static str,
    pub load: f64,
    pub fct_p99_ms: String,
    pub goodput: f64,
    pub peak_queue_kb: f64,
    pub reorder_kb: f64,
}

/// One (load, CC mode) arm; regenerates its own workload.
pub fn run_point(scale: Scale, name: &'static str, mode: CcMode, load: f64, seed: u64) -> Point {
    let net = scale.network();
    let wl = scale.workload(load, seed).generate();
    let horizon = wl.last().unwrap().arrival;
    let cfg = scale.sim_config(net.clone(), &wl, seed).with_mode(mode);
    let m = SiriusSim::new(cfg).run(&wl);
    Point {
        mode: name,
        load,
        fct_p99_ms: fct_ms(m.fct_percentile(99.0, SHORT_FLOW_BYTES)),
        goodput: m.goodput_within(horizon, net.total_servers() as u64, scale.server_share()),
        peak_queue_kb: m.peak_node_fabric_bytes() as f64 / 1000.0,
        reorder_kb: m.peak_reorder_flow_bytes as f64 / 1000.0,
    }
}

pub fn run(scale: Scale, loads: &[f64], seed: u64, jobs: usize) -> Vec<Point> {
    let mut sweep = Sweep::new();
    for &load in loads {
        for (name, mode) in MODES {
            sweep.push(
                format!("ablation load={:.0}% mode={name}", load * 100.0),
                move || run_point(scale, name, mode, load, seed),
            );
        }
    }
    sweep.run(jobs)
}

pub fn table(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Ablation: congestion control vs idealized vs none",
        &[
            "load_%",
            "mode",
            "fct_p99_ms",
            "goodput",
            "peak_queue_KB",
            "reorder_KB",
        ],
    );
    for p in points {
        t.row(vec![
            f(p.load * 100.0, 0),
            p.mode.to_string(),
            p.fct_p99_ms.clone(),
            f(p.goodput, 3),
            f(p.peak_queue_kb, 1),
            f(p.reorder_kb, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_queues_dwarf_the_protocols() {
        // The protocol bounds relay queues at Q cells per destination;
        // greedy mode has no bound and hot intermediates accumulate far
        // more under bursty load.
        let pts = run(Scale::Smoke, &[0.75], 3, 2);
        let get = |mode: &str| pts.iter().find(|p| p.mode == mode).unwrap();
        let proto = get("Protocol (Q=4)");
        let greedy = get("No control (greedy)");
        assert!(
            greedy.peak_queue_kb > 2.0 * proto.peak_queue_kb,
            "greedy peak {} KB vs protocol {} KB — CC is not doing anything?",
            greedy.peak_queue_kb,
            proto.peak_queue_kb
        );
    }
}
