//! Fig. 13: impact of the mean flow size (512 B to 100 KB) on FCT and
//! goodput — the cost of Sirius' fixed-size cells. Tiny flows waste most
//! of a 540 B cell payload; ESN's variable-size packets do not.

use crate::pool::Sweep;
use crate::scale::{Scale, Score, Sim};
use crate::table::{f, fct_ms, Table};
use sirius_workload::Pareto;

/// The paper's x-axis (mean flow size, bytes).
pub const MEAN_SIZES: [u64; 8] = [512, 1024, 2048, 4096, 16_384, 32_768, 65_536, 100_000];

#[derive(Debug, Clone)]
pub struct Point {
    pub system: &'static str,
    pub mean_bytes: u64,
    pub score: Score,
}

/// The workload at one mean flow size: Pareto resized around `mean`, and
/// the population scaled so the offered window stays long enough to
/// exercise the fabric (smaller flows arrive proportionally faster at
/// equal load; cap 25x to bound runtime).
fn mean_size_workload(scale: Scale, mean: u64, load: f64, seed: u64) -> Vec<sirius_workload::Flow> {
    let mut spec = scale.workload(load, seed);
    spec.sizes = Pareto::with_mean(1.05, mean as f64).truncated(1e7);
    let factor = (100_000.0 / mean as f64).clamp(1.0, 25.0);
    spec.flows = (spec.flows as f64 * factor) as u64;
    spec.generate()
}

/// One (mean size, system) run; regenerates its own workload.
fn system_point(scale: Scale, mean: u64, load: f64, seed: u64, esn: bool) -> Point {
    let wl = mean_size_workload(scale, mean, load, seed);
    let (system, sim) = if esn {
        ("ESN (Ideal)", Sim::Esn(1.0))
    } else {
        let cfg = scale.sim_config(scale.network(), &wl, seed);
        ("Sirius", Sim::Sirius(cfg))
    };
    Point {
        system,
        mean_bytes: mean,
        score: scale.score(&wl, sim),
    }
}

/// The full mean-size sweep on `jobs` workers. Its 100 KB points are the
/// longest single runs of the suite.
pub fn run(scale: Scale, load: f64, seed: u64, jobs: usize) -> Vec<Point> {
    let mut sweep = Sweep::new();
    for &mean in &MEAN_SIZES {
        for esn in [false, true] {
            let label = if esn { "ESN" } else { "Sirius" };
            sweep.push(format!("fig13 mean={mean}B system={label}"), move || {
                system_point(scale, mean, load, seed, esn)
            });
        }
    }
    sweep.run(jobs)
}

pub fn table(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Fig 13: FCT and goodput vs mean flow size (fixed-size cell overhead)",
        &["mean_flow_size", "system", "fct_p99_ms", "goodput"],
    );
    for p in points {
        t.row(vec![
            p.mean_bytes.to_string(),
            p.system.to_string(),
            fct_ms(p.score.fct_p99),
            f(p.score.goodput, 3),
        ]);
    }
    t
}

/// Goodput gap Sirius/ESN at a mean size.
pub fn goodput_gap(points: &[Point], mean: u64) -> f64 {
    let g = |sys: &str| {
        points
            .iter()
            .find(|p| p.system == sys && p.mean_bytes == mean)
            .map(|p| p.score.goodput)
            .unwrap_or(0.0)
    };
    let esn = g("ESN (Ideal)");
    if esn == 0.0 {
        return 0.0;
    }
    g("Sirius") / esn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_padding_hurts_tiny_flows_only() {
        // Paper: at F = 512 B the goodput gap is ~1.7x (ratio ~0.6); at
        // larger means Sirius approaches ESN.
        let mut pts = run(Scale::Smoke, 0.5, 13, 2);
        table(&pts).assert_csv_digest(0xda95_ae89_1e8b_c9d6);
        // Keep only the sizes this test reasons about.
        pts.retain(|p| p.mean_bytes == 512 || p.mean_bytes == 65_536);
        let small = goodput_gap(&pts, 512);
        let large = goodput_gap(&pts, 65_536);
        assert!(
            small < large,
            "gap should close with flow size: 512 B ratio {small}, 64 KB ratio {large}"
        );
        assert!(
            small < 0.9,
            "tiny flows should show real cell overhead: {small}"
        );
        assert!(large > 0.6, "large flows should approach ESN: {large}");
    }
}
