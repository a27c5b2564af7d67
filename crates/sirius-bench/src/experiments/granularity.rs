//! Switching granularity across technologies (§2.2 + §8).
//!
//! §2.2: "at high load, the FCT grows sharply beyond a reconfiguration
//! latency of 10 ns" — and §8's related-work survey spans six orders of
//! magnitude: Sirius' sub-ns SOA selection, electrically-tuned lasers
//! (~100 ns), free-space/piezo optics (tens of us), and MEMS circuit
//! switches (ms). This experiment runs the *same* fabric and workload at
//! slot lengths scaled to each technology's reconfiguration time (guard =
//! 10% of slot throughout, as in Fig. 11) and shows why everything slower
//! than tens of nanoseconds needs a second network for short flows.

use crate::experiments::fig11::network_for_guardband;
use crate::pool::Sweep;
use crate::scale::{Scale, Score, Sim};
use crate::table::{fct_ms, Table};
use sirius_core::units::Duration;

/// Representative reconfiguration times per §8 technology class.
pub const TECHNOLOGIES: [(&str, u64); 5] = [
    ("Sirius v2 (SOA select)", 4),         // ~3.84 ns
    ("Sirius v1 (DSDBR)", 100),            // ~100 ns
    ("electrical circuit (Shoal)", 1_000), // ~1 us class
    ("free-space / piezo", 20_000),        // ~20 us (RotorNet's switch)
    ("MEMS circuit switch", 1_000_000),    // ~1 ms class
];

#[derive(Debug, Clone)]
pub struct Point {
    pub technology: &'static str,
    pub reconfig_ns: u64,
    pub score: Score,
}

/// One technology point; regenerates its own workload.
pub fn run_point(
    scale: Scale,
    name: &'static str,
    reconfig_ns: u64,
    load: f64,
    seed: u64,
) -> Point {
    let wl = scale.workload(load, seed).generate();
    let net = network_for_guardband(scale, Duration::from_ns(reconfig_ns));
    let cfg = scale.sim_config(net, &wl, seed);
    Point {
        technology: name,
        reconfig_ns,
        score: scale.score(&wl, Sim::Sirius(cfg)),
    }
}

pub fn run(scale: Scale, load: f64, seed: u64, jobs: usize) -> Vec<Point> {
    let mut sweep = Sweep::new();
    for (name, ns) in TECHNOLOGIES {
        sweep.push(format!("granularity reconfig={ns}ns ({name})"), move || {
            run_point(scale, name, ns, load, seed)
        });
    }
    sweep.run(jobs)
}

pub fn table(points: &[Point]) -> Table {
    let mut t = Table::new(
        "S2.2/S8: short-flow tail vs reconfiguration time (guard = 10% of slot)",
        &["technology", "reconfig_ns", "fct_p99_ms", "completed_frac"],
    );
    for p in points {
        t.row(vec![
            p.technology.to_string(),
            p.reconfig_ns.to_string(),
            fct_ms(p.score.fct_p99),
            format!("{:.3}", p.score.completed),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_switching_destroys_short_flow_service() {
        // The §2.2/§8 claim in one table: at micro/millisecond
        // reconfiguration the short-flow tail is orders of magnitude worse
        // (or flows stop completing inside the run) than at nanoseconds.
        let pts = run(Scale::Smoke, 0.3, 5, 2);
        assert_eq!(pts.len(), TECHNOLOGIES.len());
        table(&pts).assert_csv_digest(0x17e4_a92f_24fd_4112);
        let ns_frac = pts[0].score.completed;
        let mems_frac = pts.last().unwrap().score.completed;
        assert!(
            ns_frac > 0.99,
            "nanosecond switching should complete everything: {ns_frac}"
        );
        assert!(
            mems_frac < ns_frac,
            "MEMS-class switching should visibly strand flows ({mems_frac} vs {ns_frac})"
        );
        // FCT (of whatever completes) degrades monotonically-ish; at least
        // the extremes must be far apart when both are measurable.
        let ms = |p: &Point| fct_ms(p.score.fct_p99).parse().unwrap_or(f64::INFINITY);
        let (fast, slow) = (ms(&pts[0]), ms(pts.last().unwrap()));
        assert!(
            slow > 3.0 * fast || mems_frac < 0.5,
            "slow switching shows no penalty: fast {fast} ms vs slow {slow} ms"
        );
    }
}
