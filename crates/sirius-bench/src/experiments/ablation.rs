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

use crate::pool::Sweep;
use crate::scale::{Scale, Score, Sim};
use crate::table::{f, fct_ms, Table};
use sirius_sim::CcMode;

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
    pub score: Score,
}

/// One (load, CC mode) arm; regenerates its own workload.
pub fn run_point(scale: Scale, name: &'static str, mode: CcMode, load: f64, seed: u64) -> Point {
    let wl = scale.workload(load, seed).generate();
    let cfg = scale.sim_config(scale.network(), &wl, seed).with_mode(mode);
    Point {
        mode: name,
        load,
        score: scale.score(&wl, Sim::Sirius(cfg)),
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
            fct_ms(p.score.fct_p99),
            f(p.score.goodput, 3),
            f(p.score.peak_fabric_kb, 1),
            f(p.score.reorder_kb, 1),
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
        table(&pts).assert_csv_digest(0xf824_e248_4928_eeda);
        let get = |mode: &str| pts.iter().find(|p| p.mode == mode).unwrap();
        let proto = get("Protocol (Q=4)");
        let greedy = get("No control (greedy)");
        assert!(
            greedy.score.peak_fabric_kb > 2.0 * proto.score.peak_fabric_kb,
            "greedy peak {} KB vs protocol {} KB — CC is not doing anything?",
            greedy.score.peak_fabric_kb,
            proto.score.peak_fabric_kb
        );
    }
}
