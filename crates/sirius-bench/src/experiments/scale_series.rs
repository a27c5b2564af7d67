//! Scale-out series: nodes × flows sweep on the streaming engine.
//!
//! Every other experiment holds the deployment at the paper's 128 racks
//! and materializes its whole workload up front. This series is the
//! memory-boundedness trajectory instead: N ∈ {128 .. 4096} nodes and
//! flow counts into the millions, each point run through
//! [`SiriusSim::run_streaming`] so flow state is admitted lazily and
//! evicted on completion. Two properties are gated, not just reported:
//!
//! * `resident_flows_max` (the engine's in-flight flow high-water mark)
//!   stays far below the total flow count — [`resident_bound`];
//! * peak RSS grows sub-linearly in total flows across a same-geometry
//!   pair of points — the smoking gun for an accidental O(flows) or
//!   O(N²·slots) structure creeping back in;
//! * peak RSS grows at most linearly in *nodes* between the first point
//!   and the first larger deployment — per-peer node state follows the
//!   pairs in use, so any dense per-peer layout (N² records, however
//!   small) fails it.
//!
//! Each point also reports p50/p99 FCT from the engine's streaming
//! histogram ([`sirius_sim::FctHistogram`]) — flow records are evicted
//! on completion, so a log-bucketed O(1)-memory fold at eviction time is
//! the only FCT signal a memory-bounded run can keep.
//!
//! Points run ascending so the process-monotonic `VmHWM` reading after
//! each point is an honest upper bound for that point. The JSON artifact
//! (`results/BENCH_scale_series.json`) carries the gate verdicts so
//! `ci.sh scale-smoke` greps them instead of re-deriving thresholds in
//! shell.

use crate::pool::Sweep;
use crate::scale::Scale;
use crate::table::{f, write_results_atomic, Table};
use sirius_core::config::SiriusConfig;
use sirius_core::units::{Duration, Rate};
use sirius_sim::{SiriusSim, SiriusSimConfig};
use sirius_workload::{Pareto, Pattern, WorkloadSpec};

/// Normalized offered load for every point: moderate occupancy so runs
/// drain and the resident-flow bound is a property of the engine, not of
/// an overload backlog.
pub const LOAD: f64 = 0.5;

/// One (nodes, grating, flows) geometry in the series.
#[derive(Debug, Clone, Copy)]
pub struct ScaleGeom {
    /// Racks on the optical core.
    pub nodes: usize,
    /// Grating ports (= epoch slots); `nodes / grating` groups.
    pub grating: usize,
    /// Flows streamed through the run.
    pub flows: u64,
}

/// The sweep per scale: nodes non-decreasing, ending in a
/// *same-geometry pair* whose flow counts differ 8×. That pair is what
/// the RSS gate compares — between different node counts, RSS is
/// dominated by node state (which grows with N and has nothing to do
/// with flow handling), so only a fixed-geometry pair isolates
/// the flow axis. Paper ends at 4096 nodes / 2M flows — millions of
/// flows on a machine that could never hold them all materialized.
pub fn series(scale: Scale) -> Vec<ScaleGeom> {
    let g = |nodes, grating, flows| ScaleGeom {
        nodes,
        grating,
        flows,
    };
    match scale {
        Scale::Smoke => vec![g(128, 16, 8_000), g(512, 32, 8_000), g(512, 32, 64_000)],
        Scale::Quick => vec![
            g(128, 16, 8_000),
            g(512, 32, 64_000),
            g(1024, 32, 32_000),
            g(1024, 32, 256_000),
        ],
        Scale::Paper => vec![
            g(128, 16, 32_000),
            g(512, 32, 256_000),
            g(1024, 32, 512_000),
            g(2048, 64, 1_024_000),
            g(4096, 64, 512_000),
            g(4096, 64, 2_048_000),
        ],
    }
}

/// Sweep-worker cap for this series (`Cli::jobs_capped`): the N=4096
/// point holds O(N·uplinks) node state per concurrent run, so the Paper
/// series must not fan out across sweep workers at all, and even the
/// smaller series gains nothing past two (points are serialized by the
/// RSS protocol anyway — see [`run_points`]).
pub fn jobs_cap(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 1,
        _ => 2,
    }
}

/// Residency gate: in-flight flow state must stay under a quarter of the
/// total flow count (floored so tiny runs aren't gated on noise). A
/// streaming engine at load 0.5 sits orders of magnitude below this; a
/// regression to keep-everything-resident sits at ~`flows` and fails.
pub fn resident_bound(flows: u64) -> u64 {
    (flows / 4).max(4096)
}

/// Peak RSS of this process (`VmHWM` from `/proc/self/status`), bytes.
/// `None` off Linux or if the field is missing — the JSON reports
/// `null` and the RSS gate abstains rather than fabricating a number.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// One measured point of the series.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub nodes: u32,
    pub grating: u32,
    pub flows: u64,
    pub cells: u64,
    pub epochs: u64,
    pub wall_secs: f64,
    /// Process peak RSS after this point finished (monotonic across the
    /// series when run serially ascending).
    pub peak_rss_bytes: Option<u64>,
    /// Engine in-flight flow-state high-water mark.
    pub resident_flows_max: u64,
    /// Flows that completed before the drain cutoff.
    pub completed: u64,
    /// Median FCT in µs from the engine's streaming histogram
    /// ([`sirius_sim::FctHistogram`]: log2 buckets, ±√2 resolution,
    /// O(1) memory — no per-flow records survive a streaming run to
    /// sort exactly). `None` when nothing completed.
    pub fct_p50_us: Option<f64>,
    /// 99th-percentile FCT in µs, same source and caveats as
    /// [`fct_p50_us`](ScalePoint::fct_p50_us).
    pub fct_p99_us: Option<f64>,
    pub digest: u64,
}

impl ScalePoint {
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cells as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    pub fn resident_bound(&self) -> u64 {
        resident_bound(self.flows)
    }
}

/// The deployment for a geometry: paper cell/slot/uplink parameters,
/// four servers per rack with a *fixed* 10 Gbps NIC at every N.
///
/// Deliberately not the paper's proportional NICs (rack bandwidth /
/// servers): those make offered traffic grow with fabric capacity, i.e.
/// ~N²·load/1.5 flows naturally in flight at once — at 4096 nodes the
/// steady-state concurrency alone would exceed the whole series' flow
/// budget, and no engine could keep residency "far below total". With
/// fixed NICs the arrival rate grows linearly with servers while
/// per-flow service time is set by the (N-independent) per-destination
/// fabric share, so in-flight population stays thousands while total
/// flows go to millions — which is exactly the axis this series tests:
/// flow *population* versus engine memory, not fabric saturation.
pub fn point_network(geom: ScaleGeom) -> SiriusConfig {
    let mut net = SiriusConfig::scaled(geom.nodes, geom.grating);
    net.servers_per_node = 4;
    net.server_rate = Rate::from_gbps(10);
    net.propagation = Duration::from_ns(100);
    net
}

/// The workload spec for a geometry: paper Pareto sizes truncated at
/// the paper's 100 KB short-flow boundary, so the largest flow's
/// service time stays well inside the run and the cell count per point
/// stays proportional to the flow count (the sweep's axis is flow
/// *population*, not elephant size).
pub fn point_workload(geom: ScaleGeom, net: &SiriusConfig, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        servers: net.total_servers() as u32,
        server_rate: net.server_rate,
        load: LOAD,
        sizes: Pareto::paper_default().truncated(1e5),
        flows: geom.flows,
        pattern: Pattern::Uniform,
        seed,
    }
}

/// Run one point through the streaming engine. The drain window is
/// derived analytically (`flows × mean inter-arrival`) because the
/// workload is never materialized, so there is no `last()` to ask.
pub fn run_point(geom: ScaleGeom, seed: u64) -> ScalePoint {
    let net = point_network(geom);
    let spec = point_workload(geom, &net, seed);
    let span = spec.mean_interarrival() * spec.flows;
    let mut cfg = SiriusSimConfig::new(net.clone())
        .with_seed(seed)
        .with_audit(false);
    cfg.drain_timeout = Duration::from_us(200).max(span / 2);
    let m = SiriusSim::new(cfg).run_streaming(spec.stream());
    ScalePoint {
        nodes: net.nodes as u32,
        grating: net.grating_ports as u32,
        flows: geom.flows,
        cells: m.cells_delivered,
        epochs: m.epochs_simulated,
        wall_secs: m.wall_secs,
        peak_rss_bytes: peak_rss_bytes(),
        resident_flows_max: m.resident_flows_max,
        completed: geom.flows - m.incomplete_flows,
        fct_p50_us: m
            .fct_hist
            .as_ref()
            .and_then(|h| h.percentile_ps(50.0))
            .map(|ps| ps / 1e6),
        fct_p99_us: m
            .fct_hist
            .as_ref()
            .and_then(|h| h.percentile_ps(99.0))
            .map(|ps| ps / 1e6),
        digest: m.digest,
    }
}

/// Run a series of points. Results come back in geometry order
/// regardless of `jobs` (the sweep preserves submission order), and
/// each job regenerates its own stream from the seed, so digests are
/// independent of the worker count.
pub fn run_points(geoms: &[ScaleGeom], seed: u64, jobs: usize) -> Vec<ScalePoint> {
    let mut sweep = Sweep::new();
    for &geom in geoms {
        sweep.push(
            format!("scale_series n={} flows={}", geom.nodes, geom.flows),
            move || run_point(geom, seed),
        );
    }
    sweep.run(jobs)
}

/// The full series for a scale preset.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<ScalePoint> {
    run_points(&series(scale), seed, jobs)
}

/// Gate verdicts over a series; see [`gates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gates {
    pub resident_ok: bool,
    pub rss_sublinear: Option<bool>,
    pub rss_subquadratic_in_nodes: Option<bool>,
}

/// Gate verdicts.
///
/// * `resident_ok` — every point's in-flight flow peak is under its
///   [`resident_bound`].
/// * `rss_sublinear` — over the first same-geometry pair of points
///   (same nodes and grating, more flows later — every [`series`] ends
///   with one), peak RSS grew strictly slower than the flow count
///   (`rss1/rss0 < flows1/flows0`). Same geometry is essential: node
///   state grows with N and would swamp the flow-state signal between
///   different node counts. `None` (JSON `null`) when no such
///   pair ran or RSS was unmeasurable. `VmHWM` is process-monotonic, so
///   out-of-order completion under sweep parallelism can only inflate
///   the earlier reading — the check degrades toward vacuous-pass,
///   never flaky-fail; run `--jobs 1` for the honest reading.
/// * `rss_subquadratic_in_nodes` — from the first point to the first
///   later one with more nodes (128 → 512 in every [`series`]), peak
///   RSS grew at most in proportion to the nodes: ≤ 4× for 4× the
///   nodes, where quadratic growth would be 16×. The small point's RSS
///   is mostly the process itself, so this bounds the larger point's
///   node state in units of a whole process. Per-peer state sized by
///   the pairs in use reads ×2.5 on the smoke series; any dense
///   per-peer layout fails — ~54 B per peer read ×4.8–5.1, ~200 B per
///   peer (a deque each for LOCAL, VOQ and relay) ×8.2. `None` like
///   `rss_sublinear`, and inflated the same harmless way under sweep
///   parallelism.
pub fn gates(points: &[ScalePoint]) -> Gates {
    let resident_ok = points
        .iter()
        .all(|p| p.resident_flows_max <= p.resident_bound());
    let pair = points.iter().enumerate().find_map(|(i, a)| {
        points[i + 1..]
            .iter()
            .find(|b| (a.nodes, a.grating) == (b.nodes, b.grating) && b.flows > a.flows)
            .map(|b| (a, b))
    });
    let rss_sublinear = pair.and_then(|(a, b)| match (a.peak_rss_bytes, b.peak_rss_bytes) {
        (Some(r0), Some(r1)) if r0 > 0 => Some(r1 * a.flows < r0 * b.flows),
        _ => None,
    });
    let rss_subquadratic_in_nodes = points.first().and_then(|a| {
        let b = points.iter().find(|b| b.nodes > a.nodes)?;
        let (r0, r1) = (a.peak_rss_bytes?, b.peak_rss_bytes?);
        Some(r1 * a.nodes as u64 <= r0 * b.nodes as u64)
    });
    Gates {
        resident_ok,
        rss_sublinear,
        rss_subquadratic_in_nodes,
    }
}

pub fn table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new(
        "scale-out series (streaming engine)",
        &[
            "nodes",
            "grating",
            "flows",
            "cells",
            "wall_s",
            "cells_per_s",
            "peak_rss_mb",
            "resident_max",
            "resident_bound",
            "completed",
            "fct_p50_us",
            "fct_p99_us",
            "digest",
        ],
    );
    let us = |v: Option<f64>| v.map(|x| f(x, 1)).unwrap_or_else(|| "n/a".into());
    for p in points {
        t.row(vec![
            p.nodes.to_string(),
            p.grating.to_string(),
            p.flows.to_string(),
            p.cells.to_string(),
            f(p.wall_secs, 3),
            f(p.cells_per_sec(), 0),
            p.peak_rss_bytes
                .map(|b| f(b as f64 / (1 << 20) as f64, 1))
                .unwrap_or_else(|| "n/a".into()),
            p.resident_flows_max.to_string(),
            p.resident_bound().to_string(),
            p.completed.to_string(),
            us(p.fct_p50_us),
            us(p.fct_p99_us),
            format!("{:016x}", p.digest),
        ]);
    }
    t
}

/// Hand-rolled JSON (the workspace is offline — no serde). Gate
/// verdicts ride in the artifact so the CI stage greps booleans instead
/// of re-deriving thresholds in shell; unmeasurable values are `null`,
/// never NaN.
pub fn to_json(points: &[ScalePoint], scale: Scale, jobs: usize) -> String {
    let Gates {
        resident_ok,
        rss_sublinear,
        rss_subquadratic_in_nodes,
    } = gates(points);
    let verdict = |v: Option<bool>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"scale_series\",\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"load\": {LOAD},\n"));
    out.push_str(&format!("  \"resident_ok\": {resident_ok},\n"));
    out.push_str(&format!(
        "  \"rss_sublinear\": {},\n",
        verdict(rss_sublinear)
    ));
    out.push_str(&format!(
        "  \"rss_subquadratic_in_nodes\": {},\n",
        verdict(rss_subquadratic_in_nodes)
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let rss = p
            .peak_rss_bytes
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".into());
        // Null-safe FCT columns: finite numbers or `null`, never NaN.
        let us = |v: Option<f64>| {
            v.filter(|x| x.is_finite())
                .map(|x| format!("{x:.3}"))
                .unwrap_or_else(|| "null".into())
        };
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"grating\": {}, \"flows\": {}, \"cells\": {}, \
             \"epochs\": {}, \"wall_secs\": {:.4}, \"cells_per_sec\": {:.0}, \"peak_rss_bytes\": {}, \
             \"resident_flows_max\": {}, \"resident_bound\": {}, \"completed\": {}, \
             \"fct_p50_us\": {}, \"fct_p99_us\": {}, \
             \"digest\": \"{:016x}\"}}{}\n",
            p.nodes,
            p.grating,
            p.flows,
            p.cells,
            p.epochs,
            p.wall_secs,
            p.cells_per_sec(),
            rss,
            p.resident_flows_max,
            p.resident_bound(),
            p.completed,
            us(p.fct_p50_us),
            us(p.fct_p99_us),
            p.digest,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `results/BENCH_scale_series.json` atomically.
pub fn emit_json(points: &[ScalePoint], scale: Scale, jobs: usize) {
    match write_results_atomic("BENCH_scale_series.json", &to_json(points, scale, jobs)) {
        Ok(path) => println!("[json] {}\n", path.display()),
        Err(e) => eprintln!("warning: could not write results/BENCH_scale_series.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny custom geometry so the unit test stays fast; the real
    /// smoke points run in `ci.sh scale-smoke` and `tests/determinism.rs`.
    fn tiny() -> ScaleGeom {
        ScaleGeom {
            nodes: 64,
            grating: 16,
            flows: 1_500,
        }
    }

    #[test]
    fn tiny_point_runs_and_gates_hold() {
        let pts = run_points(&[tiny()], 7, 1);
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert!(p.cells > 0, "no cells delivered");
        assert!(p.epochs > 0);
        assert!(p.completed > 0, "no flow completed");
        assert!(
            p.resident_flows_max < p.flows,
            "streaming run kept every flow resident ({} of {})",
            p.resident_flows_max,
            p.flows
        );
        assert!(
            gates(&pts).resident_ok,
            "resident gate failed: {}",
            p.resident_flows_max
        );
        // Streaming runs must still answer FCT percentiles — that is
        // the histogram's whole reason to exist (no records survive).
        let (p50, p99) = (p.fct_p50_us.unwrap(), p.fct_p99_us.unwrap());
        assert!(p50 > 0.0 && p50.is_finite(), "p50 = {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert_eq!(table(&pts).len(), 1);
    }

    #[test]
    fn series_shape_supports_both_gates() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            let s = series(scale);
            assert!(s.len() >= 2, "{scale:?}: need >= 2 points");
            for w in s.windows(2) {
                assert!(
                    w[0].nodes <= w[1].nodes,
                    "{scale:?}: nodes must be non-decreasing (VmHWM is monotonic)"
                );
            }
            // The RSS gate needs a fixed-geometry pair with a real flow
            // ratio; without one, rss_sublinear would always abstain.
            let pair = s.iter().enumerate().find_map(|(i, a)| {
                s[i + 1..]
                    .iter()
                    .find(|b| (a.nodes, a.grating) == (b.nodes, b.grating) && b.flows > a.flows)
                    .map(|b| (a.flows, b.flows))
            });
            let (f0, f1) = pair.unwrap_or_else(|| panic!("{scale:?}: no same-geometry pair"));
            assert!(f1 >= f0 * 4, "{scale:?}: flow ratio too small to gate on");
            for g in &s {
                point_network(*g).validate().unwrap();
            }
        }
        assert_eq!(series(Scale::Paper).last().unwrap().nodes, 4096);
        assert!(series(Scale::Paper).last().unwrap().flows >= 2_000_000);
    }

    #[test]
    fn jobs_cap_protects_the_paper_sweep() {
        assert_eq!(jobs_cap(Scale::Paper), 1);
        assert!(jobs_cap(Scale::Smoke) >= 1);
        assert!(jobs_cap(Scale::Quick) >= 1);
    }

    #[test]
    fn resident_bound_floors_small_runs() {
        assert_eq!(resident_bound(100), 4096);
        assert_eq!(resident_bound(1_000_000), 250_000);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mk_at = |nodes: u32, flows: u64, rss: Option<u64>, resident: u64| ScalePoint {
            nodes,
            grating: 16,
            flows,
            cells: 1000,
            epochs: 50,
            wall_secs: 0.5,
            peak_rss_bytes: rss,
            resident_flows_max: resident,
            completed: flows,
            fct_p50_us: Some(12.5),
            fct_p99_us: None,
            digest: 0xabcd,
        };
        let mk = |flows, rss, resident| mk_at(128, flows, rss, resident);
        // Sub-linear: flows 8x, rss 2x.
        let pts = vec![mk(8_000, Some(1 << 20), 10), mk(64_000, Some(2 << 20), 20)];
        let j = to_json(&pts, Scale::Smoke, 2);
        assert!(j.contains("\"bench\": \"scale_series\""));
        assert!(j.contains("\"scale\": \"Smoke\""));
        assert!(j.contains("\"resident_ok\": true"));
        assert!(j.contains("\"rss_sublinear\": true"));
        // One geometry: nothing to compare across node counts.
        assert!(j.contains("\"rss_subquadratic_in_nodes\": null"));
        assert!(j.contains("\"peak_rss_bytes\": 1048576"));
        assert!(j.contains("\"resident_flows_max\": 20"));
        assert!(j.contains("\"cells_per_sec\": 2000"));
        assert!(j.contains("\"fct_p50_us\": 12.500"));
        assert!(j.contains("\"fct_p99_us\": null"));
        assert!(j.contains("\"digest\": \"000000000000abcd\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        // Unmeasurable RSS abstains; a resident blow-up trips the gate.
        let pts = vec![mk(8_000, None, 9_000), mk(64_000, Some(1), 10)];
        let j = to_json(&pts, Scale::Quick, 1);
        assert!(j.contains("\"rss_sublinear\": null"));
        assert!(j.contains("\"resident_ok\": false"));
        assert!(j.contains("\"peak_rss_bytes\": null"));

        // 4x the nodes: 4x the RSS is the last passing ratio.
        let grown = |rss| {
            [
                mk_at(128, 8_000, Some(10 << 20), 10),
                mk_at(512, 8_000, rss, 10),
            ]
        };
        let ok = gates(&grown(Some(40 << 20))).rss_subquadratic_in_nodes;
        assert_eq!(ok, Some(true));
        let j = to_json(&grown(Some((40 << 20) + 1)), Scale::Smoke, 1);
        assert!(j.contains("\"rss_subquadratic_in_nodes\": false"));
        assert_eq!(gates(&grown(None)).rss_subquadratic_in_nodes, None);
    }
}
