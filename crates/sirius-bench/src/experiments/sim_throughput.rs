//! Simulator throughput: wall-clock cells/sec and epochs/sec per CC mode.
//!
//! This measures the *simulator*, not the network: how many
//! final-destination cell deliveries and schedule epochs the slot engine
//! retires per host second. It is the bench trajectory for every hot-path
//! change (arena queues, plane split, observer elision) — the ROADMAP
//! north star says "as fast as the hardware allows", and this is the
//! number that says whether a refactor moved toward it.
//!
//! Besides the usual CSV, the harness emits
//! `results/BENCH_sim_throughput.json` with the measured points.
//! Comparing commits is `benchmark/run.sh --compare`'s job, not this
//! artifact's.

use crate::pool::Sweep;
use crate::scale::Scale;
use crate::table::{f, write_results_atomic, Table};
use sirius_sim::{CcMode, SiriusSim};

/// The three congestion-control modes, with their CSV/JSON names.
pub const MODES: [(CcMode, &str); 3] = [
    (CcMode::Protocol, "protocol"),
    (CcMode::Ideal, "ideal"),
    (CcMode::Greedy, "greedy"),
];

/// One (mode, scale) throughput measurement.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    pub mode: &'static str,
    pub nodes: u32,
    pub flows: u64,
    pub cells: u64,
    pub epochs: u64,
    pub wall_secs: f64,
    /// Per-plane wall breakdown (`RunMetrics::{tx,deliver,merge}_secs`,
    /// recorded with `plane_timing` on) of each slot after its epoch
    /// boundary: `deliver_secs` the receive pass, `tx_secs` the
    /// transmit pass, `merge_secs` the slot's epilogue.
    pub tx_secs: f64,
    pub deliver_secs: f64,
    pub merge_secs: f64,
    /// The serial epoch boundary's share of what the planes leave over
    /// (`RunMetrics::{admit,inject,cc}_secs`): flow admission, server
    /// injection and the request/grant round. No fault script runs
    /// here, so the fault boundary's share is zero and not listed.
    pub admit_secs: f64,
    pub inject_secs: f64,
    pub cc_secs: f64,
    /// Peak LOCAL cells and peak LOCAL runs at any one node
    /// (`RunMetrics::peak_node_local_{cells,runs}`): their ratio is how
    /// many cells one LOCAL record stands for. Deterministic, like the
    /// digest.
    pub peak_local_cells: u64,
    pub peak_local_runs: u64,
    /// Delivered-cell run digest: equal at any `--jobs` (`ci.sh
    /// bench-smoke` compares the committed artifact's).
    pub digest: u64,
}

impl ThroughputPoint {
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cells as f64 / self.wall_secs
        } else {
            0.0
        }
    }
    pub fn epochs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.epochs as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Flows per run: enough simulated work that the wall-clock measurement
/// is stable (seconds at paper scale, not milliseconds), small enough
/// that three modes fit in an `xp` sweep. Deliberately *not*
/// `Scale::flows()` — throughput saturates long before 200k flows.
pub fn flow_count(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 500,
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    }
}

/// One mode's audited-off release-path run; regenerates its workload.
/// Load 0.5: moderate occupancy, the run drains, and the cell mix
/// exercises both the relay and direct paths.
pub fn run_mode(scale: Scale, seed: u64, mode: CcMode, name: &'static str) -> ThroughputPoint {
    let net = scale.network();
    let mut spec = scale.workload(0.5, seed);
    spec.flows = flow_count(scale);
    let wl = spec.generate();
    let cfg = scale
        .sim_config(net.clone(), &wl, seed)
        .with_mode(mode)
        // Throughput measures the release path: audit off explicitly so
        // debug-build smoke tests measure the same configuration CI
        // release runs do.
        .with_audit(false)
        // Per-plane breakdown: the clock reads cost well under 1% of a
        // slot, and this is the harness the breakdown exists for.
        .with_plane_timing(true);
    let m = SiriusSim::new(cfg).run(&wl);
    ThroughputPoint {
        mode: name,
        nodes: net.nodes as u32,
        flows: wl.len() as u64,
        cells: m.cells_delivered,
        epochs: m.epochs_simulated,
        wall_secs: m.wall_secs,
        tx_secs: m.tx_secs,
        deliver_secs: m.deliver_secs,
        merge_secs: m.merge_secs,
        admit_secs: m.admit_secs,
        inject_secs: m.inject_secs,
        cc_secs: m.cc_secs,
        peak_local_cells: m.peak_node_local_cells,
        peak_local_runs: m.peak_node_local_runs,
        digest: m.digest,
    }
}

/// One run per mode over the same (regenerated) workload.
///
/// `jobs` parallelizes *across* the three modes — fine for smoke coverage
/// of the harness path, but concurrent modes contend for cores and
/// inflate each other's wall clock, so the longitudinal series (the
/// paper-scale best-of-3 in `BENCH_sim_throughput.json`) is always
/// measured at `jobs = 1`; the `sim_throughput` registry entry enforces that.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<ThroughputPoint> {
    let mut sweep = Sweep::new();
    for &(mode, name) in &MODES {
        sweep.push(format!("sim_throughput mode={name}"), move || {
            run_mode(scale, seed, mode, name)
        });
    }
    sweep.run(jobs)
}

/// Best-of-`repeats` measurement per mode. Wall-clock noise is one-sided
/// (preemption, frequency ramps — nothing makes code run faster than it
/// is), so the minimum wall time per mode is the closest observation of
/// the engine's true cost. The simulated run is identical every repeat
/// (same seed), so only the clock varies.
pub fn run_best(scale: Scale, seed: u64, repeats: u32, jobs: usize) -> Vec<ThroughputPoint> {
    let mut best = run(scale, seed, jobs);
    for _ in 1..repeats {
        for (b, p) in best.iter_mut().zip(run(scale, seed, jobs)) {
            if p.wall_secs < b.wall_secs {
                *b = p;
            }
        }
    }
    best
}

pub fn table(points: &[ThroughputPoint]) -> Table {
    let mut t = Table::new(
        "simulator throughput (wall-clock)",
        &[
            "mode",
            "nodes",
            "flows",
            "cells",
            "epochs",
            "wall_s",
            "tx_s",
            "deliver_s",
            "merge_s",
            "admit_s",
            "inject_s",
            "cc_s",
            "cells_per_s",
            "epochs_per_s",
            "peak_local_cells",
            "peak_local_runs",
            "digest",
        ],
    );
    for p in points {
        t.row(vec![
            p.mode.to_string(),
            p.nodes.to_string(),
            p.flows.to_string(),
            p.cells.to_string(),
            p.epochs.to_string(),
            f(p.wall_secs, 3),
            f(p.tx_secs, 3),
            f(p.deliver_secs, 3),
            f(p.merge_secs, 3),
            f(p.admit_secs, 3),
            f(p.inject_secs, 3),
            f(p.cc_secs, 3),
            f(p.cells_per_sec(), 0),
            f(p.epochs_per_sec(), 0),
            p.peak_local_cells.to_string(),
            p.peak_local_runs.to_string(),
            format!("{:016x}", p.digest),
        ]);
    }
    t
}

/// Hand-rolled JSON (the workspace is offline — no serde): the measured
/// points, with the `host_parallelism` they were taken on.
pub fn to_json(points: &[ThroughputPoint], scale: Scale) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"sim_throughput\",\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"nodes\": {}, \"flows\": {}, \
             \"cells\": {}, \"epochs\": {}, \"wall_secs\": {:.4}, \"tx_secs\": {:.4}, \
             \"deliver_secs\": {:.4}, \"merge_secs\": {:.4}, \"admit_secs\": {:.4}, \
             \"inject_secs\": {:.4}, \"cc_secs\": {:.4}, \"cells_per_sec\": {:.0}, \
             \"epochs_per_sec\": {:.0}, \"peak_local_cells\": {}, \
             \"peak_local_runs\": {}, \"digest\": \"{:016x}\"}}{}\n",
            p.mode,
            p.nodes,
            p.flows,
            p.cells,
            p.epochs,
            p.wall_secs,
            p.tx_secs,
            p.deliver_secs,
            p.merge_secs,
            p.admit_secs,
            p.inject_secs,
            p.cc_secs,
            p.cells_per_sec(),
            p.epochs_per_sec(),
            p.peak_local_cells,
            p.peak_local_runs,
            p.digest,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `results/BENCH_sim_throughput.json` atomically (same convention
/// as `Table::emit` for CSVs).
pub fn emit_json(points: &[ThroughputPoint], scale: Scale) {
    match write_results_atomic("BENCH_sim_throughput.json", &to_json(points, scale)) {
        Ok(path) => println!("[json] {}\n", path.display()),
        Err(e) => eprintln!("warning: could not write results/BENCH_sim_throughput.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_all_modes_and_counts_work() {
        let pts = run(Scale::Smoke, 3, 1);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.cells > 0, "{}: no cells delivered", p.mode);
            assert!(p.epochs > 0, "{}: no epochs simulated", p.mode);
            assert!(p.wall_secs > 0.0, "{}: wall clock did not advance", p.mode);
            assert!(p.cells_per_sec() > 0.0);
            assert!(p.epochs_per_sec() > 0.0);
            // A run record stands for at least one LOCAL cell.
            assert!(p.peak_local_runs > 0, "{}: LOCAL never held a run", p.mode);
            assert!(p.peak_local_runs <= p.peak_local_cells, "{}", p.mode);
            // Plane timing is always on in the harness: both the TX and
            // the deliver leg must carry a non-zero reading even on a
            // 1-core host (the planes run, just not in parallel).
            assert!(p.tx_secs > 0.0, "{}: TX plane untimed", p.mode);
            assert!(p.deliver_secs > 0.0, "{}: deliver plane untimed", p.mode);
            assert!(p.merge_secs >= 0.0);
            // The boundary stages tile a different part of the loop
            // than the planes, so everything timed still fits the wall;
            // only Protocol runs the request/grant round.
            assert!(p.inject_secs > 0.0, "{}: injection untimed", p.mode);
            assert_eq!(p.cc_secs > 0.0, p.mode == "protocol", "{}", p.mode);
            let timed = p.tx_secs
                + p.deliver_secs
                + p.merge_secs
                + p.admit_secs
                + p.inject_secs
                + p.cc_secs;
            assert!(
                timed <= p.wall_secs,
                "{}: timed breakdown exceeds total wall",
                p.mode
            );
        }
        assert_eq!(table(&pts).len(), 3);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mk = |wall: f64| ThroughputPoint {
            mode: "protocol",
            nodes: 16,
            flows: 10,
            cells: 1000,
            epochs: 50,
            wall_secs: wall,
            tx_secs: wall * 0.5,
            deliver_secs: wall * 0.25,
            merge_secs: wall * 0.125,
            admit_secs: 0.0,
            inject_secs: 0.0,
            cc_secs: wall * 0.0625,
            peak_local_cells: 530,
            peak_local_runs: 10,
            digest: 0xabcd,
        };
        let pts = vec![mk(0.5)];
        let j = to_json(&pts, Scale::Smoke);
        assert!(j.contains("\"bench\": \"sim_throughput\""));
        assert!(j.contains("\"cells_per_sec\": 2000"));
        assert!(j.contains("\"tx_secs\": 0.2500"));
        assert!(j.contains("\"deliver_secs\": 0.1250"));
        assert!(j.contains("\"merge_secs\": 0.0625"));
        assert!(j.contains("\"cc_secs\": 0.0312"));
        assert!(j.contains("\"scale\": \"Smoke\""));
        assert!(j.contains("\"host_parallelism\":"));
        assert!(j.contains("\"peak_local_cells\": 530, \"peak_local_runs\": 10"));
        assert!(j.contains("\"digest\": \"000000000000abcd\""));
        // Points only: comparing commits is the benchmark's job.
        assert!(!j.contains("baseline"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
