//! One pass over a workload: set-up, the one timed simulator call, and the
//! summary every check and metric is read from.

use crate::workloads::{Entry, Workload};
use sirius_core::units::Time;
use sirius_core::CcStats;
use sirius_sim::{EsnSim, FctHistogram, RunMetrics, SiriusSim};
use sirius_workload::Flow;
use std::time::Instant;

/// The paper's short-flow boundary for FCT percentiles.
const SHORT_FLOW_BYTES: u64 = 100_000;

/// Median, the bounded tail (`sim_fct_p95_us`) and the paper's tail
/// (`metrics.fct_p99_us`, per-layer: too seed-sensitive to bound).
const FCT_PERCENTILES: [f64; 3] = [50.0, 95.0, 99.0];

/// A step's interval on the benchmark's own clock, seconds since `t0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    pub start_s: f64,
    pub dur_s: f64,
}

pub fn step<T>(t0: Instant, f: impl FnOnce() -> T) -> (T, Step) {
    let start = Instant::now();
    let out = f();
    let dur_s = start.elapsed().as_secs_f64();
    let start_s = start.duration_since(t0).as_secs_f64();
    (out, Step { start_s, dur_s })
}

/// Host timings of one pass, by layer boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Steps {
    /// `WorkloadSpec::generate` (zero-length on streaming workloads,
    /// which generate inline inside the timed call).
    pub generate: Step,
    /// `SiriusSim::new` / `EsnSim::new`.
    pub new: Step,
    /// `SiriusSim::with_faults` (zero-length without a script).
    pub attach_faults: Step,
    /// The one call `SiriusSim::run` / `run_streaming` / `EsnSim::run`.
    pub run: Step,
    /// Resident set right after construction, MiB (0 if unreadable).
    pub rss_after_new_mb: f64,
}

impl Steps {
    pub fn setup_s(&self) -> f64 {
        self.generate.dur_s + self.new.dur_s + self.attach_faults.dur_s
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub shards: usize,
    pub plane_timing: bool,
    pub audit: bool,
}

/// A workload set up and ready for its one timed call.
pub struct Ready {
    flows: Vec<Flow>,
    sim: Sim,
    pub steps: Steps,
}

enum Sim {
    Sirius(Box<SiriusSim>),
    Esn(EsnSim),
}

/// Everything before the timed call: generate the flows (slice workloads),
/// build the simulator, attach the fault script. `t0` is the origin of the
/// recorded intervals.
pub fn set_up(w: &Workload, knobs: Knobs, t0: Instant) -> Ready {
    let mut steps = Steps::default();
    let (flows, generate) = step(t0, || match w.entry {
        Entry::Stream => Vec::new(),
        Entry::Slice | Entry::Esn => w.spec.generate(),
    });
    // Streaming workloads generate inline, inside the timed call.
    steps.generate = match w.entry {
        Entry::Stream => Step {
            dur_s: 0.0,
            ..generate
        },
        _ => generate,
    };
    let (sim, new) = step(t0, || match w.entry {
        Entry::Esn => Sim::Esn(w.esn().with_audit(knobs.audit)),
        _ => Sim::Sirius(Box::new(SiriusSim::new(
            w.sim_config()
                .with_shards(knobs.shards)
                .with_audit(knobs.audit)
                .with_plane_timing(knobs.plane_timing),
        ))),
    });
    steps.new = new;
    steps.rss_after_new_mb = status_mb("VmRSS:");
    steps.attach_faults = Step {
        start_s: new.start_s + new.dur_s,
        dur_s: 0.0,
    };
    let sim = match sim {
        Sim::Sirius(s) if w.faulty => {
            let (s, attach) = step(t0, || s.with_faults(w.fault_script()));
            steps.attach_faults = attach;
            Sim::Sirius(Box::new(s))
        }
        other => other,
    };
    Ready { flows, sim, steps }
}

impl Ready {
    /// The one timed call.
    pub fn run(self, w: &Workload, t0: Instant) -> (RunMetrics, Steps) {
        let Ready {
            flows,
            sim,
            mut steps,
        } = self;
        let (m, run) = step(t0, || match (sim, w.entry) {
            (Sim::Esn(esn), _) => esn.run(&flows),
            (Sim::Sirius(sim), Entry::Stream) => sim.run_streaming(w.spec.stream()),
            (Sim::Sirius(sim), _) => sim.run(&flows),
        });
        steps.run = run;
        (m, steps)
    }
}

/// A `/proc/self/status` field (`VmHWM:` peak, `VmRSS:` current) in MiB.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything the modelled network did in one run. A deterministic
/// simulator repeats this exactly for the same inputs, so two runs are
/// compared with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub digest: u64,
    pub offered: u64,
    pub completed: u64,
    pub incomplete: u64,
    /// Final-destination cells delivered. The fluid ESN model has no
    /// cells; there it is flow events (arrivals + completions).
    pub cells: u64,
    pub epochs: u64,
    pub goodput: f64,
    pub fct_p50_us: f64,
    pub fct_p95_us: f64,
    pub fct_p99_us: f64,
    pub peak_queue_kb: f64,
    pub resident_flows_max: u64,
    pub peak_node_local_cells: u64,
    pub peak_reorder_flow_bytes: u64,
    pub cc: CcStats,
    pub fault: FaultCounts,
    pub audit_violations: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultCounts {
    pub suspicion_events: u64,
    pub exclusions: u64,
    pub column_omissions: u64,
    pub cells_rerouted: u64,
    pub cells_lost: u64,
    pub max_detection_epochs: u64,
}

/// The calls every figure makes after a run (`fct_percentile`, goodput),
/// plus the counters.
pub fn summarise(w: &Workload, m: &RunMetrics) -> Summary {
    let (completed, [fct_p50_us, fct_p95_us, fct_p99_us]) = match &m.fct_hist {
        // Streaming runs evict flow records; the histogram is the only
        // FCT signal and covers every completed flow.
        Some(h) => (h.count(), FCT_PERCENTILES.map(|p| hist_percentile_us(h, p))),
        None => {
            let us = |p| {
                m.fct_percentile(p, SHORT_FLOW_BYTES)
                    .map_or(f64::NAN, |d| d.as_us_f64())
            };
            (m.completed_flows(), FCT_PERCENTILES.map(us))
        }
    };
    let servers = w.spec.servers as u64;
    let (cells, goodput) = if w.entry == Entry::Esn {
        // The fluid model has no cells and no deadline. Its unit of work is
        // a rate recomputation, one per flow arrival and one per
        // completion. Its goodput is taken over the horizon the Sirius
        // workloads are cut at (it runs every flow to completion, so its
        // own span is set by its single largest flow).
        let horizon = Time::ZERO + w.span() + w.drain_timeout();
        (
            2 * m.completed_flows(),
            m.goodput_within(horizon, servers, w.spec.server_rate),
        )
    } else {
        (
            m.cells_delivered,
            m.normalized_goodput(servers, w.spec.server_rate),
        )
    };
    let fault = m
        .fault
        .as_ref()
        .map_or(FaultCounts::default(), |f| FaultCounts {
            suspicion_events: f.suspicion_events,
            exclusions: f.exclusions,
            column_omissions: f.column_omissions,
            cells_rerouted: f.cells_rerouted,
            cells_lost: f.cells_lost_crash + f.cells_lost_grey + f.cells_lost_mistune,
            max_detection_epochs: f.max_detection_epochs().unwrap_or(0),
        });
    Summary {
        digest: m.digest,
        offered: w.spec.flows,
        completed,
        incomplete: m.incomplete_flows,
        cells,
        epochs: m.epochs_simulated,
        goodput,
        fct_p50_us,
        fct_p95_us,
        fct_p99_us,
        peak_queue_kb: m.peak_node_fabric_bytes() as f64 / 1024.0,
        resident_flows_max: m.resident_flows_max,
        peak_node_local_cells: m.peak_node_local_cells,
        peak_reorder_flow_bytes: m.peak_reorder_flow_bytes,
        cc: m.cc,
        fault,
        audit_violations: m
            .audit
            .as_ref()
            .map(|a| a.total_violations + a.duplicate_cells),
    }
}

/// p-th percentile of a log2-bucketed histogram, interpolated inside the
/// bucket. `FctHistogram::percentile_ps` answers with the bucket's
/// midpoint, so a percentile near a bucket edge would jump by 2x on a
/// one-flow difference; interpolating on the rank's position inside the
/// bucket (in log space) makes the value move smoothly with the data.
fn hist_percentile_us(h: &FctHistogram, p: f64) -> f64 {
    let Some(v) = h.percentile_ps(p) else {
        return f64::NAN;
    };
    // The lowest and highest percentile that still answer with bucket `v`
    // are the cumulative shares at the bucket's two edges.
    let edge = |mut inside: f64, mut outside: f64| {
        for _ in 0..48 {
            let mid = 0.5 * (inside + outside);
            if h.percentile_ps(mid) == Some(v) {
                inside = mid;
            } else {
                outside = mid;
            }
        }
        inside
    };
    let lo = edge(p, 0.0);
    let hi = edge(p, 100.0);
    let frac = if hi > lo { (p - lo) / (hi - lo) } else { 0.5 };
    let floor = 2f64.powi(v.log2().floor() as i32);
    let (min, max) = (
        h.min().map_or(floor, |d| d.as_ps() as f64),
        h.max().map_or(2.0 * floor, |d| d.as_ps() as f64),
    );
    (floor * 2f64.powf(frac)).clamp(min, max) / 1e6
}
