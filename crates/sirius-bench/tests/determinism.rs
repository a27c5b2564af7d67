//! Parallel-equals-serial determinism, and the run-shape equivalences
//! the engine promises:
//!
//! * **Across runs** (the sweep executor): a representative full sweep
//!   (Fig. 9: 4 systems × 5 loads, the paper's headline figure) must
//!   produce byte-identical CSVs and identical per-run digests whether
//!   it runs on 1 worker or 4.
//! * **One table** ([`runs_agree_across_audit_entry_point_and_jobs`]):
//!   for Protocol, Ideal and Greedy under the correlated+Byzantine
//!   script, through both entry points, an audited run is the
//!   unaudited run with a clean audit, the streaming run agrees with the
//!   slice run on everything eviction cannot touch, and every run — and
//!   every scale-series point — is identical at `--jobs 1` and
//!   `--jobs 2`: digest, `RunMetrics` counters, FCT percentiles and the
//!   audit ledger. (Golden digests pin behavior separately, unblessed,
//!   in `tests/golden_digests.rs`; one row here pins lazy admission in
//!   `run` against a digest recorded before the slice path was folded
//!   into the stream path.)
//!
//! The CSV comparison catches ordering or formatting drift; the digest
//! comparison is stronger — it compares the delivered-cell *sequence* of
//! each simulated run, so a nondeterministic simulation that happened to
//! round to the same table cells would still fail here.

use sirius_bench::experiments::fig9;
use sirius_bench::experiments::scale_series::{self, ScaleGeom};
use sirius_bench::{Scale, Sweep};
use sirius_sim::{CcMode, FaultEvent, FaultInjector, RunMetrics, SiriusSim};

#[test]
fn fig9_sweep_is_byte_identical_serial_vs_parallel() {
    let serial = fig9::run(Scale::Smoke, 1, 1);
    let parallel = fig9::run(Scale::Smoke, 1, 4);

    assert_eq!(serial.len(), parallel.len());

    // Run digests: the delivered-cell sequence of every Sirius run and the
    // flow outcomes of every ESN run must match point-for-point.
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            (s.system, s.load),
            (p.system, p.load),
            "sweep order diverged between jobs=1 and jobs=4"
        );
        assert_eq!(
            s.score.digest, p.score.digest,
            "digest diverged at system={} load={}",
            s.system, s.load
        );
    }
    assert!(
        serial.iter().any(|p| p.score.digest != 0),
        "no Sirius run produced a digest; the check is vacuous"
    );

    // CSV artifacts: byte-for-byte identical, exactly what a user diffing
    // results/ between serial and parallel runs would see.
    let (fct_s, gp_s) = fig9::tables(&serial);
    let (fct_p, gp_p) = fig9::tables(&parallel);
    assert_eq!(fct_s.to_csv(), fct_p.to_csv(), "fig9a CSV diverged");
    assert_eq!(gp_s.to_csv(), gp_p.to_csv(), "fig9b CSV diverged");
}

/// A fault script covering every fault draw path the engine must keep
/// deterministic: grey erasure (per-node RNG streams), mistune
/// corruption (pre-pass scratch), a crash + recovery (failure plane,
/// detector credit), and control loss (epoch-boundary serial stream).
fn fault_script(seed: u64) -> FaultInjector {
    use sirius_core::topology::NodeId;
    let mut inj = FaultInjector::new(seed);
    inj.push(FaultEvent::GreyLink {
        node: NodeId(3),
        uplink: 1,
        drop_prob: 0.3,
        from: 2,
        until: 40,
    });
    inj.push(FaultEvent::GreyLink {
        node: NodeId(9),
        uplink: 0,
        drop_prob: 0.08,
        from: 4,
        until: 60,
    });
    inj.push(FaultEvent::Mistune {
        node: NodeId(5),
        offset: 2,
        from: 6,
        until: 30,
    });
    inj.push(FaultEvent::Crash {
        node: NodeId(12),
        epoch: 8,
    });
    inj.push(FaultEvent::Recover {
        node: NodeId(12),
        epoch: 45,
    });
    inj.push(FaultEvent::ControlLoss {
        drop_prob: 0.2,
        from: 3,
        until: 25,
    });
    inj
}

/// The correlated + Byzantine arm: a laser-bank chip failure and an AWGR
/// grating band (both expand to fleet-wide column sets through the AWGR
/// route relation) plus a Byzantine node whose forge draws ride its own
/// per-node stream and whose request inflation rides the boundary. At
/// Smoke scale (16 nodes, groups of 4): chip 0 of the bank feeding
/// group 2's uplink-1 AWGR kills nodes {9, 10}; the grating band [0, 2)
/// of group 1's uplink-0 AWGR kills nodes {4, 5}.
fn correlated_byz_script(seed: u64) -> FaultInjector {
    use sirius_core::topology::NodeId;
    FaultInjector::new(seed)
        .bank_failure(2, 1, 0, 2, 3, 50)
        .grating_fault(1, 0, 0, 2, 5, 60)
        .byzantine(NodeId(14), 0.5, 4, 2, u64::MAX)
}

/// A seeded fault-script constructor, or `None` for a fault-free run.
type Script = Option<fn(u64) -> FaultInjector>;

fn run_smoke(mode: CcMode, script: Script, audit: bool) -> RunMetrics {
    let (sim, wl) = smoke_sim(mode, script, audit);
    sim.run(&wl)
}

/// The same run through the streaming entry point.
fn stream_smoke(mode: CcMode, script: Script, audit: bool) -> RunMetrics {
    let (sim, _) = smoke_sim(mode, script, audit);
    sim.run_streaming(Scale::Smoke.workload(0.6, 11).stream())
}

/// The Smoke-scale simulator (load 0.6, seed 11) with `script` attached,
/// and the workload its drain window was sized for.
fn smoke_sim(mode: CcMode, script: Script, audit: bool) -> (SiriusSim, Vec<sirius_workload::Flow>) {
    let scale = Scale::Smoke;
    let net = scale.network();
    let wl = scale.workload(0.6, 11).generate();
    let cfg = scale
        .sim_config(net, &wl, 11)
        .with_mode(mode)
        .with_audit(audit);
    let mut sim = SiriusSim::new(cfg);
    if let Some(script) = script {
        sim.set_faults(script(11));
    }
    (sim, wl)
}

/// Everything in `RunMetrics` that describes simulated behavior (i.e.
/// not host wall-clock) as a comparable value.
fn behavior_of(m: &RunMetrics) -> impl std::fmt::Debug + PartialEq {
    (
        m.digest,
        m.delivered_bytes,
        m.cells_delivered,
        m.epochs_simulated,
        m.incomplete_flows,
        m.span,
        m.peak_node_fabric_cells,
        m.peak_node_local_cells,
        m.peak_node_local_runs,
        m.peak_reorder_flow_bytes,
        m.flows
            .iter()
            .map(|f| (f.completion, f.delivered))
            .collect::<Vec<_>>(),
        m.fault.as_ref().map(|f| {
            (
                f.cells_lost_crash,
                f.cells_lost_grey,
                f.cells_lost_mistune,
                f.cells_rerouted,
                f.requests_lost,
                f.grants_lost,
                f.suspicion_events,
                f.exclusions,
                f.readmissions,
                f.column_omissions,
                (
                    f.cells_forged,
                    f.cells_forged_dropped,
                    f.requests_forged,
                    f.max_forged_per_epoch,
                    f.byz_quarantined.clone(),
                    f.correlated_domains.clone(),
                ),
            )
        }),
    )
}

/// `run(&workload)` admits the slab lazily, one flow per arrival, through
/// the same source `run_streaming` uses — admission order is the only
/// thing standing between it and the digest the bulk-populated slab
/// produced. Pinned against that pre-change digest, on a workload whose
/// arrivals span many epochs.
#[test]
fn lazily_admitted_run_matches_the_bulk_populated_digest() {
    let scale = Scale::Smoke;
    let net = scale.network();
    let wl = scale.workload(0.6, 11).generate();
    let epochs_of_arrivals = wl.last().unwrap().arrival.as_ps() / net.epoch().as_ps();
    assert!(
        epochs_of_arrivals >= 3,
        "arrivals span {epochs_of_arrivals} epochs; admission is not lazy enough to test"
    );
    let m = run_smoke(CcMode::Protocol, None, false);
    assert_eq!(m.flows.len(), wl.len(), "a flow went unreported");
    assert_eq!(m.digest, PRE_CHANGE_SMOKE_DIGEST, "got {:#018x}", m.digest);
}

/// Digest of `Scale::Smoke` load 0.6 seed 11, Protocol, fault-free, as
/// produced by `SiriusSim::run` when it bulk-populated the flow slab
/// (commit 3980410).
const PRE_CHANGE_SMOKE_DIGEST: u64 = 0x2d4e_5b98_2510_619a;

/// The scale-series arm: small geometries so the matrix stays fast in
/// debug builds (the real smoke points run in `ci.sh scale-smoke` on
/// the release binary; the engine paths exercised are identical).
fn scale_geoms() -> Vec<ScaleGeom> {
    vec![
        ScaleGeom {
            nodes: 64,
            grating: 16,
            flows: 1_000,
        },
        // The issue's N=512 smoke geometry, flow count cut for debug
        // speed.
        ScaleGeom {
            nodes: 512,
            grating: 32,
            flows: 4_000,
        },
    ]
}

/// Streaming admission is a pure refactor of workload handling: feeding
/// the engine a lazy [`sirius_workload::FlowStream`] versus a
/// materialized, test-only `generate()` vector of the same spec must
/// retire the identical delivered-cell sequence.
#[test]
fn streaming_digest_matches_materialized_workload() {
    for geom in scale_geoms() {
        let net = scale_series::point_network(geom);
        let spec = scale_series::point_workload(geom, &net, 5);
        let span = spec.mean_interarrival() * spec.flows;
        let mut cfg = sirius_sim::SiriusSimConfig::new(net)
            .with_seed(5)
            .with_audit(false);
        cfg.drain_timeout = sirius_core::units::Duration::from_us(200).max(span / 2);
        let streamed = SiriusSim::new(cfg.clone()).run_streaming(spec.stream());
        let materialized = SiriusSim::new(cfg).run_streaming(spec.generate().into_iter());
        assert_ne!(streamed.digest, 0, "n={}: digest vacuous", geom.nodes);
        assert_eq!(
            behavior_of(&streamed),
            behavior_of(&materialized),
            "n={}: streaming diverged from materialized workload",
            geom.nodes
        );
    }
}

/// `run` and `run_streaming` differ by eviction and nothing else, fault
/// scripts included: a recycled flow id aliases nothing (a slot is reused
/// only after its flow's last cell was delivered; forged cells carry an
/// id no slab reaches), so everything eviction cannot touch — what was
/// delivered, how long it took, what was left over, and every line of
/// the fault report — is equal under each script. (The digests are not
/// comparable: the streamed one folds flows in eviction order.)
#[test]
fn streamed_fault_runs_agree_with_the_slice_run() {
    let scripts: [(&str, Script); 2] = [
        ("classic", Some(fault_script)),
        ("correlated+byz", Some(correlated_byz_script)),
    ];
    for (name, script) in scripts {
        let slice = run_smoke(CcMode::Protocol, script, false);
        let streamed = stream_smoke(CcMode::Protocol, script, false);
        assert_eq!(counters(&slice), counters(&streamed), "script={name}");
        assert!(slice.fault.is_some(), "script={name}: no fault report");
        assert_eq!(
            format!("{:?}", slice.fault),
            format!("{:?}", streamed.fault),
            "fault reports diverged: script={name}"
        );
    }
}

/// What eviction cannot touch: delivered work, simulated span and what
/// was left over.
fn counters(m: &RunMetrics) -> (u64, u64, u64, u64) {
    (
        m.delivered_bytes,
        m.cells_delivered,
        m.epochs_simulated,
        m.incomplete_flows,
    )
}

/// FCT percentiles as each entry point reports them: from the flow
/// records of a slice run, from the histogram of a streaming one.
fn latency_of(m: &RunMetrics) -> impl std::fmt::Debug + PartialEq {
    (
        [50.0, 99.0].map(|p| m.fct_percentile(p, u64::MAX)),
        m.fct_hist
            .as_ref()
            .map(|h| [50.0, 99.0].map(|p| h.percentile_ps(p))),
    )
}

/// The equivalence table: CC mode × entry point × audit, every run under
/// the correlated+Byzantine script (its forge draws ride per-node
/// streams, its correlated domains drive column repair and reroute),
/// the whole table swept at `--jobs 1` and at `--jobs 2`.
///
/// * audited ≡ unaudited: same behavior, and a clean audit — probes are
///   digest-neutral;
/// * streaming ≡ slice on everything eviction cannot touch, fault
///   report included;
/// * `--jobs 1` ≡ `--jobs 2`: behavior, FCT percentiles and audit
///   ledger of every run, and every scale-series point (digest,
///   counters, resident peak and histogram percentiles).
#[test]
fn runs_agree_across_audit_entry_point_and_jobs() {
    let modes = [CcMode::Protocol, CcMode::Ideal, CcMode::Greedy];
    // (mode, streaming, audit), in table order.
    let rows: Vec<(CcMode, bool, bool)> = modes
        .iter()
        .flat_map(|&m| {
            [
                (m, false, false),
                (m, false, true),
                (m, true, false),
                (m, true, true),
            ]
        })
        .collect();
    let table = |jobs: usize| {
        let mut sweep = Sweep::new();
        for &(mode, streaming, audit) in &rows {
            let label = format!("{mode:?} streaming={streaming} audit={audit}");
            sweep.push(label, move || {
                let script = Some(correlated_byz_script as fn(u64) -> FaultInjector);
                if streaming {
                    stream_smoke(mode, script, audit)
                } else {
                    run_smoke(mode, script, audit)
                }
            });
        }
        sweep.run(jobs)
    };
    let (one, two) = (table(1), table(2));
    for ((row, a), b) in rows.iter().zip(&one).zip(&two) {
        assert_eq!(
            behavior_of(a),
            behavior_of(b),
            "{row:?}: --jobs 2 moved the run"
        );
        assert_eq!(
            latency_of(a),
            latency_of(b),
            "{row:?}: --jobs 2 moved the FCTs"
        );
        assert_eq!(
            format!("{:?}", a.audit),
            format!("{:?}", b.audit),
            "{row:?}: --jobs 2 moved the audit ledger"
        );
    }
    for (chunk, mode) in one.chunks(4).zip(modes) {
        let [slice, slice_audited, streamed, streamed_audited] = chunk else {
            unreachable!("four rows per mode")
        };
        let f = slice.fault.as_ref().expect("fault report missing");
        assert!(
            f.cells_forged > 0 && f.column_omissions > 0,
            "{mode:?}: the script fired nothing; the table is vacuous"
        );
        assert_ne!(slice.digest, 0, "{mode:?}: digest vacuous");
        for (plain, audited, entry) in [
            (slice, slice_audited, "slice"),
            (streamed, streamed_audited, "streaming"),
        ] {
            let report = audited.audit.as_ref().expect("audit report missing");
            assert!(
                report.epochs_checked > 0,
                "{mode:?} {entry}: audit never ran"
            );
            assert!(
                report.is_clean(),
                "{mode:?} {entry}: {:?}",
                report.violations
            );
            assert_eq!(
                behavior_of(plain),
                behavior_of(audited),
                "{mode:?} {entry}: audit probes moved the run"
            );
            assert_eq!(latency_of(plain), latency_of(audited), "{mode:?} {entry}");
        }
        assert_eq!(
            counters(slice),
            counters(streamed),
            "{mode:?}: streaming diverged"
        );
        assert_eq!(
            format!("{:?}", slice.fault),
            format!("{:?}", streamed.fault),
            "{mode:?}: streamed fault report diverged"
        );
    }

    let geoms = scale_geoms();
    let reference = scale_series::run_points(&geoms, 5, 1);
    let parallel = scale_series::run_points(&geoms, 5, 2);
    assert_eq!(reference.len(), geoms.len());
    for (r, p) in reference.iter().zip(&parallel) {
        assert_ne!(r.digest, 0, "n={}: digest vacuous", r.nodes);
        assert!(r.completed > 0, "n={}: nothing completed", r.nodes);
        assert!(r.fct_p50_us.is_some(), "n={}: FCT p50 vacuous", r.nodes);
        assert_eq!(
            (r.nodes, r.flows, r.cells, r.epochs, r.completed, r.digest),
            (p.nodes, p.flows, p.cells, p.epochs, p.completed, p.digest),
            "scale point diverged at --jobs 2"
        );
        assert_eq!(
            (r.resident_flows_max, r.fct_p50_us, r.fct_p99_us),
            (p.resident_flows_max, p.fct_p50_us, p.fct_p99_us),
            "n={}: resident peak or FCTs diverged at --jobs 2",
            r.nodes
        );
    }
}

/// Memory-boundedness: grow the flow population 10× at a fixed geometry
/// and the in-flight peak must stay put (it is a function of arrival
/// rate × flow service time, not of how many flows stream through).
#[test]
fn resident_flow_state_stays_bounded_as_flows_grow() {
    let base = ScaleGeom {
        nodes: 64,
        grating: 16,
        flows: 500,
    };
    let long = ScaleGeom {
        flows: 5_000,
        ..base
    };
    let pts = scale_series::run_points(&[base, long], 5, 1);
    let (p1, p2) = (&pts[0], &pts[1]);
    assert!(p2.completed > 0);
    assert!(
        p2.resident_flows_max < p2.flows / 4,
        "10x flows: resident peak {} is not far below {} total",
        p2.resident_flows_max,
        p2.flows
    );
    // Steady-state concurrency, not population, sets the peak: 10× the
    // flows may not even double it.
    assert!(
        p2.resident_flows_max < p1.resident_flows_max * 2 + 64,
        "resident peak grew with population: {} -> {}",
        p1.resident_flows_max,
        p2.resident_flows_max
    );
}
