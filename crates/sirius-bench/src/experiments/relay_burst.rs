//! `RELAY_BURST` sensitivity (ROADMAP open item): how many relayed cells
//! a node may forward per slot on top of its own traffic.
//!
//! The knob trades intermediate buffering against relay throughput: the
//! §4.3 fabric-queue bound is `(burst + 1) x queue_threshold x N` cells
//! per node, so small bursts cap SRAM but throttle the second VLB hop,
//! inflating tail FCT and (at saturation) goodput. The sweep measures
//! both sides — short-flow p99 FCT against the fig. 11 guardband curve,
//! and saturation goodput with the observed peak fabric occupancy next to
//! its analytic bound — to justify the default of 3.

use crate::experiments::fig11::network_for_guardband;
use crate::pool::Sweep;
use crate::scale::{Scale, Score, Sim};
use crate::table::{f, fct_ms, Table};
use sirius_core::units::Duration;

/// Burst lengths swept, bracketing the default (3).
pub const BURSTS: [u8; 5] = [1, 2, 3, 6, 12];
/// Guardband subset of fig. 11's x-axis (the curve's two ends + default).
pub const GUARDS_NS: [u64; 3] = [1, 10, 40];

#[derive(Debug, Clone)]
pub struct FctPoint {
    pub burst: u8,
    pub guard_ns: u64,
    pub score: Score,
}

/// One (guardband, burst) FCT point; regenerates its own workload.
pub fn fct_point(scale: Scale, load: f64, seed: u64, guard_ns: u64, burst: u8) -> FctPoint {
    let wl = scale.workload(load, seed).generate();
    let net = network_for_guardband(scale, Duration::from_ns(guard_ns));
    let cfg = scale.sim_config(net, &wl, seed).with_relay_burst(burst);
    FctPoint {
        burst,
        guard_ns,
        score: scale.score(&wl, Sim::Sirius(cfg)),
    }
}

/// Short-flow p99 FCT across (burst, guardband), fig. 11 style: the slot
/// is rescaled so the guardband stays 10% of it.
pub fn run_fct(
    scale: Scale,
    load: f64,
    seed: u64,
    bursts: &[u8],
    guards_ns: &[u64],
    jobs: usize,
) -> Vec<FctPoint> {
    let mut sweep = Sweep::new();
    for &g in guards_ns {
        for &b in bursts {
            sweep.push(
                format!("relay_burst fct guard={g}ns burst={b}"),
                move || fct_point(scale, load, seed, g, b),
            );
        }
    }
    sweep.run(jobs)
}

#[derive(Debug, Clone)]
pub struct SatPoint {
    pub burst: u8,
    /// The §4.3 analytic bound for this burst (cells).
    pub bound_cells: u64,
    /// The run at L = 1.0.
    pub score: Score,
}

/// One saturation point at a burst length; regenerates its own workload.
pub fn sat_point(scale: Scale, seed: u64, burst: u8) -> SatPoint {
    let net = scale.network();
    let wl = scale.workload(1.0, seed).generate();
    let bound_cells = (burst as u64 + 1) * net.queue_threshold as u64 * net.nodes as u64;
    let cfg = scale.sim_config(net, &wl, seed).with_relay_burst(burst);
    SatPoint {
        burst,
        bound_cells,
        score: scale.score(&wl, Sim::Sirius(cfg)),
    }
}

/// Saturation goodput and fabric occupancy per burst, on the scale's
/// standard network.
pub fn run_saturation(scale: Scale, seed: u64, bursts: &[u8], jobs: usize) -> Vec<SatPoint> {
    let mut sweep = Sweep::new();
    for &b in bursts {
        sweep.push(format!("relay_burst sat burst={b}"), move || {
            sat_point(scale, seed, b)
        });
    }
    sweep.run(jobs)
}

pub fn fct_table(points: &[FctPoint]) -> Table {
    let mut t = Table::new(
        "RELAY_BURST sweep: short-flow p99 FCT vs guardband (fig. 11 axis)",
        &["guard_ns", "burst", "fct_p99_ms"],
    );
    for p in points {
        t.row(vec![
            p.guard_ns.to_string(),
            p.burst.to_string(),
            fct_ms(p.score.fct_p99),
        ]);
    }
    t
}

pub fn sat_table(points: &[SatPoint]) -> Table {
    let mut t = Table::new(
        "RELAY_BURST sweep: saturation goodput and §4.3 fabric bound",
        &["burst", "goodput", "peak_fabric_cells", "bound_cells"],
    );
    for p in points {
        t.row(vec![
            p.burst.to_string(),
            f(p.score.goodput, 3),
            p.score.peak_fabric_cells.to_string(),
            p.bound_cells.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_occupancy_respects_the_bound_for_every_burst() {
        let pts = run_saturation(Scale::Smoke, 9, &[1, 3, 12], 2);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.score.goodput > 0.0, "burst {}: no goodput", p.burst);
            assert!(
                p.score.peak_fabric_cells <= p.bound_cells,
                "burst {}: peak {} exceeds §4.3 bound {}",
                p.burst,
                p.score.peak_fabric_cells,
                p.bound_cells
            );
        }
        // The bound scales linearly with burst; occupancy headroom is the
        // cost of larger bursts.
        assert!(pts[2].bound_cells > pts[0].bound_cells);
        assert_eq!(sat_table(&pts).len(), 3);
        sat_table(&pts).assert_csv_digest(0x6ab3_9328_16c5_3e76);
    }

    #[test]
    fn fct_sweep_covers_the_grid() {
        let pts = run_fct(Scale::Smoke, 0.25, 9, &[1, 3], &[1, 40], 2);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(
                p.score.fct_p99.is_some(),
                "burst {} produced no FCT",
                p.burst
            );
        }
        assert_eq!(fct_table(&pts).len(), 4);
        fct_table(&pts).assert_csv_digest(0xfb02_4ef4_d24d_31b0);
    }
}
