//! Fig. 11: 99th-percentile FCT of short flows vs guardband size at full
//! load. As in the paper, the slot length is adjusted so the guardband is
//! always 10% of the slot — so large guardbands mean long slots, long
//! epochs, and more queuing latency at intermediates.

use crate::pool::Sweep;
use crate::scale::{Scale, Score, Sim};
use crate::table::{fct_ms, Table};
use sirius_core::units::Duration;
use sirius_sim::CcMode;

/// The paper's x-axis.
pub const GUARDBANDS_NS: [u64; 5] = [1, 5, 10, 20, 40];

/// Scale a network so `guard` is 10% of the slot: the cell transmits for
/// 9x the guardband at the channel rate. Header overhead scales with the
/// cell (as in the paper's 540/562 payload fraction) so the comparison
/// isolates the epoch-length effect rather than a fixed-header tax on
/// tiny cells.
pub fn network_for_guardband(scale: Scale, guard: Duration) -> sirius_core::SiriusConfig {
    let mut net = scale.network();
    let bytes = (net.channel_rate.bytes_in(guard * 9) as u32).max(24);
    net.cell_bytes = bytes;
    net.payload_bytes = ((bytes as u64 * 540) / 562).max(16) as u32;
    net.guardband = guard;
    net
}

#[derive(Debug, Clone)]
pub struct Point {
    pub system: &'static str,
    pub guard_ns: u64,
    pub score: Score,
}

/// One (guardband, CC mode) Sirius point; regenerates its own workload.
pub fn sirius_point(scale: Scale, load: f64, seed: u64, guard_ns: u64, mode: CcMode) -> Point {
    let wl = scale.workload(load, seed).generate();
    let net = network_for_guardband(scale, Duration::from_ns(guard_ns));
    let cfg = scale.sim_config(net, &wl, seed).with_mode(mode);
    Point {
        system: match mode {
            CcMode::Ideal => "Sirius (Ideal)",
            _ => "Sirius",
        },
        guard_ns,
        score: scale.score(&wl, Sim::Sirius(cfg)),
    }
}

pub fn run(scale: Scale, load: f64, seed: u64, jobs: usize) -> Vec<Point> {
    // Each job returns the row(s) it owns: one per Sirius (guard, mode)
    // pair, and one job for the guardband-free ESN reference line that
    // replicates itself across the x-axis.
    let mut sweep: Sweep<Vec<Point>> = Sweep::new();
    for &g in &GUARDBANDS_NS {
        for mode in [CcMode::Protocol, CcMode::Ideal] {
            sweep.push(format!("fig11 guard={g}ns mode={mode:?}"), move || {
                vec![sirius_point(scale, load, seed, g, mode)]
            });
        }
    }
    sweep.push("fig11 ESN reference", move || {
        let wl = scale.workload(load, seed).generate();
        let score = scale.score(&wl, Sim::Esn(1.0));
        GUARDBANDS_NS
            .iter()
            .map(|&g| Point {
                system: "ESN (Ideal)",
                guard_ns: g,
                score,
            })
            .collect()
    });
    sweep.run(jobs).into_iter().flatten().collect()
}

pub fn table(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Fig 11: 99th-perc. FCT of short flows vs guardband (10% of slot)",
        &["guard_ns", "system", "fct_p99_ms"],
    );
    for p in points {
        t.row(vec![
            p.guard_ns.to_string(),
            p.system.to_string(),
            fct_ms(p.score.fct_p99),
        ]);
    }
    t
}

/// Scalar summary used by tests: p99 FCT of Sirius at a guardband.
pub fn sirius_fct(points: &[Point], guard_ns: u64) -> Option<Duration> {
    points
        .iter()
        .find(|p| p.system == "Sirius" && p.guard_ns == guard_ns)
        .and_then(|p| p.score.fct_p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guardband_scaling_keeps_10_percent() {
        for &g in &GUARDBANDS_NS {
            let net = network_for_guardband(Scale::Quick, Duration::from_ns(g));
            net.validate().unwrap();
            let overhead = net.guardband.as_ps() as f64 / net.slot().as_ps() as f64;
            assert!(
                (overhead - 0.10).abs() < 0.02,
                "guard {g} ns -> overhead {overhead}"
            );
        }
    }

    #[test]
    fn fct_degrades_with_large_guardbands() {
        // The motivation for nanosecond switching: 40 ns guardbands mean
        // 4x longer epochs than 10 ns and visibly worse tail FCT.
        // Below saturation, so the epoch-length queuing effect dominates
        // rather than overload backlog (the harness runs L=1.0 as in the
        // paper; at paper scale both show the same shape).
        let pts = run(Scale::Smoke, 0.25, 5, 2);
        let fast = sirius_fct(&pts, 1).unwrap();
        let slow = sirius_fct(&pts, 40).unwrap();
        assert!(
            slow > fast,
            "40 ns guardband FCT {slow} not worse than 1 ns {fast}"
        );
        assert_eq!(table(&pts).len(), pts.len());
        table(&pts).assert_csv_digest(0x0bb1_5796_4701_2e7b);
    }
}
