//! One workload, measured in this process: the end-to-end numbers with
//! tracing off (`--trace 0`), or the per-layer ledger from traced passes
//! (`--trace 1`). Every pass over the workload is also checked; a failed
//! check names its reason and fails the command.

use crate::json::Json;
use crate::leaf;
use crate::manifest::Manifest;
use crate::run::{self, Knobs, Step, Steps, Summary};
use crate::trace::{Span, Tracer};
use crate::workloads::{Entry, Workload};
use crate::Args;
use sirius_sim::{CcMode, RunMetrics};
use std::time::Instant;

/// How many passes a run makes at least; `--seconds` adds more.
struct Effort {
    /// Timed repeats per `--trace 0` run.
    repeats: usize,
    /// Set-up samples per `--trace 0` run: the timed repeats' own, topped
    /// up with set-ups that are built, timed and dropped.
    setups: usize,
    /// Traced passes per `--trace 1` run (each comes with an untraced one).
    traced: usize,
}
const FULL: Effort = Effort {
    repeats: 3,
    setups: 9,
    traced: 2,
};
/// The fewest passes that can still disagree with each other.
const SMOKE: Effort = Effort {
    repeats: 2,
    setups: 0,
    traced: 1,
};
/// Flows in the verify leg (an audited re-run of the workload's head).
const VERIFY_FLOWS: u64 = 2_000;

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

fn min_max(values: &[f64]) -> Json {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::Arr(vec![Json::Num(lo), Json::Num(hi)])
}

struct Pass {
    m: RunMetrics,
    steps: Steps,
    summary: Summary,
    summarise: Step,
}

/// The passes of one invocation and the checks they must hold.
struct Session {
    t0: Instant,
    /// The first full pass; every later full pass must equal it.
    reference: Option<Summary>,
    passes: u64,
    failed_passes: u64,
    failures: Vec<String>,
}

/// What is wrong with one pass taken alone (nothing, on a correct run).
fn pass_failures(w: &Workload, knobs: Knobs, m: &RunMetrics, s: &Summary) -> Vec<String> {
    let mut reasons = Vec::new();
    if s.completed + s.incomplete != s.offered {
        reasons.push(format!(
            "completed {} + incomplete {} != offered {}",
            s.completed, s.incomplete, s.offered
        ));
    }
    if !w.faulty && (s.cc.untracked_arrivals != 0 || s.cc.bound_exceeded != 0) {
        reasons.push(format!(
            "fault-free run broke the CC bound (untracked_arrivals {}, bound_exceeded {})",
            s.cc.untracked_arrivals, s.cc.bound_exceeded
        ));
    }
    let resident_bound = (w.spec.flows / 4).max(8192);
    if w.entry == Entry::Stream && s.resident_flows_max > resident_bound {
        reasons.push(format!(
            "streaming run kept {} flows resident (bound {resident_bound})",
            s.resident_flows_max
        ));
    }
    if knobs.audit && s.audit_violations != Some(0) {
        reasons.push(format!(
            "audit violations {:?}, first: {:?}",
            s.audit_violations,
            m.audit.as_ref().and_then(|a| a.violations.first())
        ));
    }
    reasons
}

impl Session {
    /// Count one failed pass per non-empty list, and name every reason.
    fn record(&mut self, w: &Workload, reasons: Vec<String>) {
        self.failed_passes += !reasons.is_empty() as u64;
        for reason in reasons {
            eprintln!("CHECK FAILED: {}: {reason}", w.name);
            self.failures.push(format!("{}: {reason}", w.name));
        }
    }

    /// Set up, run and summarise `w` once, and check the outcome.
    /// `full` passes run the whole workload and must repeat the first one
    /// exactly: same digest, same simulated metrics, same counts,
    /// whatever the shard count or tracing.
    fn pass(&mut self, w: &Workload, knobs: Knobs, full: bool) -> Pass {
        let (m, steps) = run::set_up(w, knobs, self.t0).run(w, self.t0);
        let (summary, summarise) = run::step(self.t0, || run::summarise(w, &m));
        self.passes += 1;
        let mut reasons = pass_failures(w, knobs, &m, &summary);
        if full {
            match &self.reference {
                None => self.reference = Some(summary.clone()),
                Some(first) if *first != summary => reasons.push(format!(
                    "pass {} (shards {}, plane timing {}) differs from the first pass: \
                     digest {:016x} vs {:016x}\n  first: {first:?}\n  this:  {summary:?}",
                    self.passes, knobs.shards, knobs.plane_timing, summary.digest, first.digest
                )),
                Some(_) => {}
            }
        }
        self.record(w, reasons);
        Pass {
            m,
            steps,
            summary,
            summarise,
        }
    }

    /// Re-run the head of the workload with the invariant audit on.
    ///
    /// The audit keys its shadow state by flow id and the streaming path
    /// recycles ids, so a streaming workload's head is audited on the
    /// slice path, and a streamed pass over the same head must then agree
    /// with it on everything but the digest fold and the FCT estimator.
    fn verify(&mut self, w: &Workload) {
        let mut head = w.prefix(VERIFY_FLOWS);
        let audit = Knobs {
            shards: 1,
            plane_timing: false,
            audit: true,
        };
        if w.entry != Entry::Stream {
            self.pass(&head, audit, false);
            return;
        }
        let unaudited = Knobs {
            audit: false,
            ..audit
        };
        let streamed = self.pass(&head, unaudited, false).summary;
        head.entry = Entry::Slice;
        let audited = self.pass(&head, audit, false).summary;
        let behaviour = |s: &Summary| {
            (
                s.completed,
                s.incomplete,
                s.cells,
                s.epochs,
                s.goodput.to_bits(),
                s.cc,
            )
        };
        if behaviour(&streamed) != behaviour(&audited) {
            self.record(
                w,
                vec![format!(
                    "streamed head differs from its audited slice run\n  streamed: {streamed:?}\n  slice:    {audited:?}"
                )],
            );
        }
    }
}

pub fn single(args: &Args, manifest: &Manifest, trace: bool) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
    if !manifest.workloads.iter().any(|w| w == name) {
        return Err(format!("workload `{name}` is not in BENCHMARK.json"));
    }
    let w = Workload::by_name(name, args.seed, args.smoke)
        .ok_or(format!("unknown workload `{name}`"))?;
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    let effort = if args.smoke { &SMOKE } else { &FULL };
    let mut session = Session {
        t0: Instant::now(),
        reference: None,
        passes: 0,
        failed_passes: 0,
        failures: Vec::new(),
    };
    let (defs, values, mut detail) = if trace {
        let (values, detail, tracer) = per_layer(&mut session, &w, seconds, effort);
        args.write_out(
            &format!("trace_{name}.json"),
            &(tracer.to_json().render() + "\n"),
        )?;
        (&manifest.per_layer, values, detail)
    } else {
        let (values, detail) = end_to_end(&mut session, &w, seconds, effort);
        (&manifest.end_to_end, values, detail)
    };
    session.verify(&w);

    let metrics = Manifest::metrics_json(defs, &values)?;
    for (name, m) in metrics.as_obj().unwrap_or(&[]) {
        let (v, unit) = (m.get("value").and_then(Json::as_f64), m.get("unit"));
        eprintln!(
            "{:>18}  {name:<34} {:>16.6} {}",
            w.name,
            v.unwrap_or(f64::NAN),
            unit.and_then(Json::as_str).unwrap_or("")
        );
    }
    let reference = session.reference.as_ref();
    detail.extend([
        ("workload".to_string(), Json::str(w.name)),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("flows".to_string(), Json::Num(w.spec.flows as f64)),
        (
            "digest".to_string(),
            Json::str(format!("{:016x}", reference.map_or(0, |s| s.digest))),
        ),
        (
            "failures".to_string(),
            Json::Arr(session.failures.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", Json::Obj(detail).render());
    let correct = session.failures.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(session.passes as f64)),
            ("failed", Json::Num(session.failed_passes as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(correct)
}

type Values = Vec<(&'static str, f64)>;
type Detail = Vec<(String, Json)>;

/// `--trace 0`: timed repeats for `seconds` with tracing off; medians are
/// reported.
fn end_to_end(
    session: &mut Session,
    w: &Workload,
    seconds: f64,
    effort: &Effort,
) -> (Values, Detail) {
    let knobs = Knobs {
        shards: w.shards,
        plane_timing: false,
        audit: false,
    };
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    while walls.len() < effort.repeats || walls.iter().sum::<f64>() < seconds {
        let p = session.pass(w, knobs, true);
        setups.push(p.steps.setup_s());
        walls.push(p.steps.run.dur_s);
    }
    let s = session.reference.clone().expect("at least one pass ran");
    let peak_rss_mb = run::status_mb("VmHWM:");
    // Set-up is milliseconds on most workloads; a median over the few
    // timed repeats alone would be the noisiest number reported.
    while setups.len() < effort.setups {
        setups.push(run::set_up(w, knobs, session.t0).steps.setup_s());
    }
    if w.shards > 1 {
        // The sharded engine must reproduce the serial run bit for bit;
        // the pass is compared with the reference like any other.
        session.pass(w, Knobs { shards: 1, ..knobs }, true);
    }
    let wall_s = median(&walls);
    let per_s = |count: u64| walls.iter().map(|t| count as f64 / t).collect::<Vec<_>>();
    let values = vec![
        ("setup_s", median(&setups)),
        ("wall_s", wall_s),
        ("cells_per_s", s.cells as f64 / wall_s),
        ("flows_per_s", s.offered as f64 / wall_s),
        ("peak_rss_mb", peak_rss_mb),
        (
            "flows_completed_share",
            s.completed as f64 / s.offered as f64,
        ),
        ("sim_goodput", s.goodput),
        ("sim_fct_p50_us", s.fct_p50_us),
        ("sim_fct_p95_us", s.fct_p95_us),
    ];
    let spread = Json::obj([
        ("setup_s", min_max(&setups)),
        ("wall_s", min_max(&walls)),
        ("cells_per_s", min_max(&per_s(s.cells))),
        ("flows_per_s", min_max(&per_s(s.offered))),
    ]);
    let detail = vec![
        ("repeats".to_string(), Json::Num(walls.len() as f64)),
        ("spread".to_string(), spread),
    ];
    (values, detail)
}

/// `--trace 1`: untraced and traced passes alternate for `seconds`; the
/// traced ones flip the engine's existing `with_plane_timing` knob and are
/// recorded as spans. Per-layer times are medians over the traced passes,
/// and the gap between the two kinds of pass is the tracing overhead.
fn per_layer(
    session: &mut Session,
    w: &Workload,
    seconds: f64,
    effort: &Effort,
) -> (Values, Detail, Tracer) {
    let untraced = Knobs {
        shards: w.shards,
        plane_timing: false,
        audit: false,
    };
    let traced = Knobs {
        plane_timing: true,
        ..untraced
    };
    let mut tracer = Tracer {
        workload: w.name,
        spans: Vec::new(),
    };
    let mut walls_untraced = Vec::new();
    let mut walls_serial = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut spent = 0.0;
    while traced_passes.len() < effort.traced || spent < seconds {
        let p = session.pass(w, untraced, true);
        walls_untraced.push(p.steps.run.dur_s);
        spent += p.steps.run.dur_s;
        let p = session.pass(w, traced, true);
        spent += p.steps.run.dur_s;
        record_spans(&mut tracer, traced_passes.len() as u32, &p);
        traced_passes.push(p);
        if w.shards > 1 {
            let p = session.pass(
                w,
                Knobs {
                    shards: 1,
                    ..untraced
                },
                true,
            );
            walls_serial.push(p.steps.run.dur_s);
            spent += p.steps.run.dur_s;
        }
    }

    let s = session.reference.clone().expect("at least one pass ran");
    let over = |f: &dyn Fn(&Pass) -> f64| median(&traced_passes.iter().map(f).collect::<Vec<_>>());
    let wall = over(&|p| p.steps.run.dur_s);
    let planes = |p: &Pass| p.m.tx_secs + p.m.deliver_secs + p.m.merge_secs;
    let other = over(&|p| p.steps.run.dur_s - planes(p));
    let sirius = w.entry != Entry::Esn;
    let engine = |x: f64| if sirius { x } else { 0.0 };
    let node_slots =
        (w.net.nodes * w.net.total_uplinks()) as f64 * (s.epochs * w.net.epoch_slots()) as f64;
    let stream_ns_per_flow = if w.entry == Entry::Stream {
        let t = Instant::now();
        let bytes = w
            .spec
            .stream()
            .fold(0u64, |acc, f| acc.wrapping_add(f.bytes));
        std::hint::black_box(bytes);
        t.elapsed().as_secs_f64() * 1e9 / w.spec.flows as f64
    } else {
        0.0
    };
    let leaf = leaf::measure(&w.net, w.spec.seed);
    let cc = &s.cc;
    let protocol = sirius && w.mode == CcMode::Protocol;
    let used_grants = cc.grants_received.saturating_sub(cc.grants_unused);
    let values = vec![
        ("workload.generate_s", over(&|p| p.steps.generate.dur_s)),
        ("workload.flows", s.offered as f64),
        ("workload.stream_ns_per_flow", stream_ns_per_flow),
        ("sim.new_s", over(&|p| p.steps.new.dur_s)),
        (
            "sim.rss_after_new_mb",
            traced_passes[0].steps.rss_after_new_mb,
        ),
        (
            "sim.attach_faults_s",
            over(&|p| p.steps.attach_faults.dur_s),
        ),
        ("engine.tx_s", over(&|p| p.m.tx_secs)),
        ("engine.deliver_s", over(&|p| p.m.deliver_secs)),
        ("engine.merge_s", over(&|p| p.m.merge_secs)),
        ("engine.other_s", engine(other)),
        ("engine.other_share", engine(other / wall)),
        ("engine.ns_per_cell", engine(wall * 1e9 / s.cells as f64)),
        (
            "engine.ns_per_node_slot",
            if sirius { wall * 1e9 / node_slots } else { 0.0 },
        ),
        (
            "engine.trace_overhead",
            wall / median(&walls_untraced) - 1.0,
        ),
        ("engine.cells", engine(s.cells as f64)),
        ("engine.epochs", s.epochs as f64),
        ("engine.resident_flows_max", s.resident_flows_max as f64),
        (
            "engine.peak_node_local_cells",
            s.peak_node_local_cells as f64,
        ),
        (
            "engine.peak_reorder_flow_bytes",
            s.peak_reorder_flow_bytes as f64,
        ),
        ("engine.peak_node_fabric_kb", s.peak_queue_kb),
        (
            "engine.shard_speedup",
            if w.shards > 1 {
                median(&walls_serial) / median(&walls_untraced)
            } else {
                0.0
            },
        ),
        ("cc.requests_sent", cc.requests_sent as f64),
        ("cc.grants_issued", cc.grants_issued as f64),
        ("cc.grants_unused", cc.grants_unused as f64),
        ("cc.requests_denied", cc.requests_denied as f64),
        (
            "cc.grant_utilisation",
            if protocol && cc.grants_issued > 0 {
                used_grants as f64 / cc.grants_issued as f64
            } else {
                0.0
            },
        ),
        ("core.schedule_dest_ns", leaf.schedule_dest_ns),
        ("core.node_enqueue_ns", leaf.node_enqueue_ns),
        ("core.node_transmit_ns", leaf.node_transmit_ns),
        ("core.node_transmit_idle_ns", leaf.node_transmit_idle_ns),
        ("core.node_receive_ns", leaf.node_receive_ns),
        (
            "core.reorder_accept_inorder_ns",
            leaf.reorder_accept_inorder_ns,
        ),
        (
            "core.reorder_accept_reversed_ns",
            leaf.reorder_accept_reversed_ns,
        ),
        ("core.vlb_pick_ns", leaf.vlb_pick_ns),
        ("core.cc_round_ns_per_node", leaf.cc_round_ns_per_node),
        ("fault.suspicion_events", s.fault.suspicion_events as f64),
        ("fault.exclusions", s.fault.exclusions as f64),
        ("fault.column_omissions", s.fault.column_omissions as f64),
        ("fault.cells_rerouted", s.fault.cells_rerouted as f64),
        ("fault.cells_lost", s.fault.cells_lost as f64),
        (
            "fault.max_detection_epochs",
            s.fault.max_detection_epochs as f64,
        ),
        ("esn.run_s", if sirius { 0.0 } else { wall }),
        (
            "esn.us_per_flow",
            if sirius {
                0.0
            } else {
                wall * 1e6 / s.offered as f64
            },
        ),
        ("metrics.summarise_s", over(&|p| p.summarise.dur_s)),
        ("metrics.fct_p99_us", s.fct_p99_us),
    ];
    let detail = vec![
        ("repeats".to_string(), Json::Num(traced_passes.len() as f64)),
        ("traced_wall_s".to_string(), Json::Num(wall)),
        (
            "untraced_wall_s".to_string(),
            Json::Num(median(&walls_untraced)),
        ),
    ];
    (values, detail, tracer)
}

/// One traced pass as spans: the pass, the layer boundaries it crossed,
/// and the engine's plane ledger as aggregated children of `sim.run`,
/// whose self time is then `engine.other_s`.
fn record_spans(tracer: &mut Tracer, pass: u32, p: &Pass) {
    let first = p.steps.generate.start_s.min(p.steps.new.start_s);
    let end = p.summarise.start_s + p.summarise.dur_s;
    let root = tracer.push(Span {
        name: "benchmark.pass",
        parent: None,
        pass,
        start_s: Some(first),
        dur_s: end - first,
    });
    let child = |tracer: &mut Tracer, name, parent, step: Step| {
        tracer.push(Span {
            name,
            parent: Some(parent),
            pass,
            start_s: Some(step.start_s),
            dur_s: step.dur_s,
        })
    };
    child(tracer, "workload.generate", root, p.steps.generate);
    child(tracer, "sim.new", root, p.steps.new);
    child(tracer, "sim.attach_faults", root, p.steps.attach_faults);
    let run = child(tracer, "sim.run", root, p.steps.run);
    child(tracer, "metrics.summarise", root, p.summarise);
    for (name, dur_s) in [
        ("engine.tx", p.m.tx_secs),
        ("engine.deliver", p.m.deliver_secs),
        ("engine.merge", p.m.merge_secs),
    ] {
        tracer.push(Span {
            name,
            parent: Some(run),
            pass,
            start_s: None,
            dur_s,
        });
    }
}
