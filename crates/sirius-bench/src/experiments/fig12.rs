//! Fig. 12: average goodput vs load for Sirius with 1x, 1.5x and 2x the
//! baseline uplink transceivers, against ESN (Ideal).
//!
//! Valiant load balancing halves worst-case throughput; the figure shows
//! how much over-provisioning actually recovers it under a stochastic
//! workload — the paper's conclusion is that 1.5x suffices.

use crate::pool::Sweep;
use crate::scale::{Scale, Score, Sim};
use crate::table::{f, Table};

pub const FACTORS: [f64; 3] = [1.0, 1.5, 2.0];

#[derive(Debug, Clone)]
pub struct Point {
    pub system: String,
    pub load: f64,
    pub score: Score,
}

/// One point at a load: Sirius at an uplink over-provisioning factor,
/// or the ESN (Ideal) reference for `None`.
pub fn run_point(scale: Scale, load: f64, factor: Option<f64>, seed: u64) -> Point {
    let wl = scale.workload(load, seed).generate();
    let (system, sim) = match factor {
        Some(factor) => {
            let mut net = scale.network();
            net.uplink_factor = factor;
            let cfg = scale.sim_config(net, &wl, seed);
            (format!("Sirius ({factor}x)"), Sim::Sirius(cfg))
        }
        None => ("ESN (Ideal)".to_string(), Sim::Esn(1.0)),
    };
    Point {
        system,
        load,
        score: scale.score(&wl, sim),
    }
}

pub fn run(scale: Scale, loads: &[f64], seed: u64, jobs: usize) -> Vec<Point> {
    let mut sweep = Sweep::new();
    for &load in loads {
        for &factor in &FACTORS {
            sweep.push(
                format!("fig12 load={:.0}% factor={factor}x", load * 100.0),
                move || run_point(scale, load, Some(factor), seed),
            );
        }
        sweep.push(format!("fig12 load={:.0}% ESN", load * 100.0), move || {
            run_point(scale, load, None, seed)
        });
    }
    sweep.run(jobs)
}

pub fn table(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Fig 12: average goodput vs load for 1x/1.5x/2x uplinks",
        &["load_%", "system", "goodput"],
    );
    for p in points {
        t.row(vec![
            f(p.load * 100.0, 0),
            p.system.clone(),
            f(p.score.goodput, 3),
        ]);
    }
    t
}

pub fn goodput_of(points: &[Point], system: &str, load: f64) -> f64 {
    points
        .iter()
        .find(|p| p.system == system && (p.load - load).abs() < 1e-9)
        .map(|p| p.score.goodput)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_uplinks_more_goodput_at_high_load() {
        // Fig. 12's key shape: at saturating load, goodput ranks
        // 1x < 1.5x <= 2x, and 1x visibly trails ESN.
        let pts = run(Scale::Smoke, &[1.0], 9, 2);
        let g1 = goodput_of(&pts, "Sirius (1x)", 1.0);
        let g15 = goodput_of(&pts, "Sirius (1.5x)", 1.0);
        let g2 = goodput_of(&pts, "Sirius (2x)", 1.0);
        let esn = goodput_of(&pts, "ESN (Ideal)", 1.0);
        table(&pts).assert_csv_digest(0xc1ed_5a16_eedf_42b1);
        assert!(g1 < g15, "1x {g1} !< 1.5x {g15}");
        assert!(g15 <= g2 * 1.05, "1.5x {g15} way above 2x {g2}");
        assert!(g1 < esn, "1x {g1} should trail ESN {esn}");
    }

    #[test]
    fn low_load_needs_no_extra_uplinks() {
        // "At low load no additional transceivers are needed to match
        // ESN (Ideal)'s goodput."
        let pts = run(Scale::Smoke, &[0.1], 11, 2);
        let g1 = goodput_of(&pts, "Sirius (1x)", 0.1);
        let esn = goodput_of(&pts, "ESN (Ideal)", 0.1);
        assert!(
            g1 > 0.85 * esn,
            "1x Sirius {g1} far below ESN {esn} even at low load"
        );
    }
}
