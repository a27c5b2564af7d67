//! Workspace conformance suite: the invariant audit and the determinism
//! guarantee, exercised at the paper's deployment scale (§7: 128 nodes,
//! 16-port gratings, 3072 servers) for all three congestion-control modes.
//!
//! Two properties every figure in the reproduction rests on:
//!
//! 1. **Invariants hold at scale.** The audit layer re-derives cell
//!    conservation, the §4.3 relay bound and in-order release every
//!    epoch (receive-port exclusivity is proved once, when the schedule
//!    table is built); a clean run reports zero violations in all three
//!    modes.
//! 2. **Runs are reproducible.** Identical `(config, seed)` produces a
//!    bit-identical delivered-cell digest and flow table, so any reported
//!    number can be regenerated exactly.

use sirius::core::topology::NodeId;
use sirius::core::SiriusConfig;
use sirius::sim::{
    CcMode, EsnConfig, EsnSim, FaultInjector, RunMetrics, SiriusSim, SiriusSimConfig,
};
use sirius::workload::{Flow, Pareto, Pattern, WorkloadSpec};

/// Paper-scale network with a short, fully-completing workload: flow
/// sizes are truncated at 100 KB so the suite stays fast in debug builds
/// while still spanning hundreds of epochs of fabric activity.
fn paper_workload(net: &SiriusConfig, load: f64, flows: u64, seed: u64) -> Vec<Flow> {
    WorkloadSpec {
        servers: net.total_servers() as u32,
        server_rate: net.server_rate,
        load,
        sizes: Pareto::paper_default().truncated(1e5),
        flows,
        pattern: Pattern::Uniform,
        seed,
    }
    .generate()
}

fn run_audited(mode: CcMode, seed: u64) -> (RunMetrics, u64) {
    let net = SiriusConfig::paper_sim();
    let wl = paper_workload(&net, 0.3, 300, 17);
    let expect: u64 = wl.iter().map(|f| f.bytes).sum();
    let m = SiriusSim::new(
        SiriusSimConfig::new(net)
            .with_mode(mode)
            .with_seed(seed)
            .with_audit(true),
    )
    .run(&wl);
    (m, expect)
}

fn assert_clean(mode: CcMode) {
    let (m, expect) = run_audited(mode, 3);
    assert_eq!(m.incomplete_flows, 0, "{mode:?}: flows stuck at low load");
    assert_eq!(m.delivered_bytes, expect, "{mode:?}: byte conservation");
    let audit = m.audit.expect("audit was enabled");
    assert!(
        audit.is_clean(),
        "{mode:?}: {} violations, first: {:?}",
        audit.total_violations,
        audit.violations.first()
    );
    assert!(audit.epochs_checked > 0);
    assert_eq!(audit.cells_released, audit.cells_injected);
    assert_eq!(audit.cells_buffered, 0);
    assert_eq!(audit.cells_blackholed, 0);
}

#[test]
fn protocol_paper_scale_audit_is_clean() {
    assert_clean(CcMode::Protocol);
}

#[test]
fn ideal_paper_scale_audit_is_clean() {
    assert_clean(CcMode::Ideal);
}

#[test]
fn greedy_paper_scale_audit_is_clean() {
    // Greedy abandons the §4.3 bound (the audit skips that check for it)
    // but conservation and in-order release still hold.
    assert_clean(CcMode::Greedy);
}

#[test]
fn double_run_is_bit_identical_in_every_mode() {
    for mode in [CcMode::Protocol, CcMode::Ideal, CcMode::Greedy] {
        let (a, _) = run_audited(mode, 5);
        let (b, _) = run_audited(mode, 5);
        assert_eq!(a.digest, b.digest, "{mode:?}: digest diverged");
        assert_eq!(a.delivered_bytes, b.delivered_bytes);
        assert_eq!(a.span, b.span);
        assert_eq!(a.peak_node_fabric_cells, b.peak_node_fabric_cells);
        assert_eq!(a.peak_node_local_cells, b.peak_node_local_cells);
        assert_eq!(a.peak_node_local_runs, b.peak_node_local_runs);
        assert_eq!(a.peak_reorder_flow_bytes, b.peak_reorder_flow_bytes);
        let fa: Vec<_> = a
            .flows
            .iter()
            .map(|f| (f.completion, f.delivered))
            .collect();
        let fb: Vec<_> = b
            .flows
            .iter()
            .map(|f| (f.completion, f.delivered))
            .collect();
        assert_eq!(fa, fb, "{mode:?}: flow tables diverged");
    }
}

#[test]
fn failure_detection_is_emergent_at_paper_scale() {
    // Kill one node mid-run with NO hint to the routing plane: the only
    // path from the scripted crash to an exclusion is through per-node
    // silence detectors fed by actual slot receptions. The failure-aware
    // audit stays on, so every blackholed cell must fall inside the
    // declared crash window and every suspicion must be justified.
    let net = SiriusConfig::paper_sim();
    let wl = paper_workload(&net, 0.3, 300, 17);
    let victim = NodeId(40);
    let inj = FaultInjector::new(3).crash(victim, 5);
    let m = SiriusSim::new(
        SiriusSimConfig::new(net.clone())
            .with_seed(3)
            .with_audit(true),
    )
    .with_faults(inj)
    .run(&wl);
    let fr = m.fault.expect("fault report missing");
    let rec = &fr.failures[0];
    assert_eq!(rec.node, victim);
    let threshold = sirius::core::fault::SILENCE_THRESHOLD;
    let lat = rec.detection_epochs().expect("crash never suspected");
    assert!(
        lat <= threshold + 1,
        "detection took {lat} epochs (threshold {threshold})"
    );
    assert_eq!(
        rec.excluded_at.unwrap(),
        rec.first_suspected.unwrap() + 1,
        "exclusion must land one update epoch after suspicion"
    );
    // All losses attributed: the audit saw only justified suspicions and
    // only blackholes inside the declared crash window.
    let audit = m.audit.expect("audit was enabled");
    assert!(
        audit.is_clean(),
        "failure-aware audit violations: {:?}",
        audit.violations.first()
    );
    assert_eq!(audit.false_suspicions, 0);
    // The §4.5 rule: capacity drops by exactly 1/N.
    let expect = 1.0 - 1.0 / net.nodes as f64;
    assert!((fr.capacity_factor_end - expect).abs() < 1e-9);
}

#[test]
fn audited_streaming_is_clean_and_matches_the_audited_slice_run() {
    // `run_streaming` recycles a flow's id the moment it completes; the
    // audit's per-flow shadow follows the slab (it is told of every
    // eviction), so the streamed run must audit exactly like the slice
    // run of the same workload: zero violations, zero duplicates, and the
    // same ledger — fault-free, and under a script covering a crash and
    // reboot, grey links, a mistuned laser and lossy control messaging.
    // Arrivals spread thin (~75 epochs fault-free, 57 flows resident at
    // the peak) so most ids are recycled and the run spans the script.
    let net = SiriusConfig::paper_sim();
    let wl = paper_workload(&net, 0.005, 600, 17);
    let classic = || {
        FaultInjector::new(3)
            .grey_link(NodeId(3), 1, 0.3, 2, 40)
            .grey_link(NodeId(9), 0, 0.08, 4, 60)
            .mistune(NodeId(5), 2, 6, 30)
            .crash(NodeId(12), 8)
            .recover(NodeId(12), 45)
            .control_loss(0.2, 3, 25)
    };
    for faulty in [false, true] {
        let sim = || {
            let cfg = SiriusSimConfig::new(net.clone())
                .with_seed(3)
                .with_audit(true);
            let sim = SiriusSim::new(cfg);
            if faulty {
                sim.with_faults(classic())
            } else {
                sim
            }
        };
        let slice = sim().run(&wl);
        let streamed = sim().run_streaming(wl.iter().copied());
        assert!(
            streamed.resident_flows_max < wl.len() as u64 / 2,
            "faulty={faulty}: no flow id was recycled; the check is vacuous"
        );
        assert_eq!(streamed.fault.is_some(), faulty);
        assert_eq!(streamed.delivered_bytes, slice.delivered_bytes);
        let (a, b) = (slice.audit.unwrap(), streamed.audit.unwrap());
        assert!(
            b.is_clean(),
            "faulty={faulty}: {} violations, first: {:?}",
            b.total_violations,
            b.violations.first()
        );
        assert_eq!(b.duplicate_cells, 0);
        assert!(b.cells_released > 0 && b.epochs_checked > 0);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "faulty={faulty}: audit ledgers diverged"
        );
    }
}

#[test]
fn an_armed_script_in_which_nothing_fires_equals_the_unarmed_run() {
    // A fault-free run is the armed run with nothing armed: every
    // keepalive arrives (§4.5). A script whose only event lies beyond
    // the horizon still validates, builds the detectors, feeds them
    // credit every slot and runs the fault boundary every epoch — and
    // must change nothing but the presence of a fault report.
    let net = SiriusConfig::scaled(64, 8);
    let wl = paper_workload(&net, 0.3, 2000, 17);
    for mode in [CcMode::Protocol, CcMode::Ideal, CcMode::Greedy] {
        for audit in [false, true] {
            let run = |armed: bool| {
                let cfg = SiriusSimConfig::new(net.clone())
                    .with_mode(mode)
                    .with_seed(3)
                    .with_audit(audit);
                let sim = SiriusSim::new(cfg);
                if armed {
                    sim.with_faults(FaultInjector::new(1).crash(NodeId(0), 1_000_000))
                } else {
                    sim
                }
                .run(&wl)
            };
            let (plain, armed) = (run(false), run(true));
            let case = format!("{mode:?} audit={audit}");
            assert_eq!(plain.incomplete_flows, 0, "{case}: flows stuck");
            assert_eq!(plain.digest, armed.digest, "{case}: digest moved");
            assert_eq!(plain.cells_delivered, armed.cells_delivered, "{case}");
            let records = |m: &RunMetrics| {
                m.flows
                    .iter()
                    .map(|f| (f.bytes, f.arrival, f.completion, f.delivered))
                    .collect::<Vec<_>>()
            };
            assert_eq!(records(&plain), records(&armed), "{case}: flows");
            assert_eq!(plain.cc, armed.cc, "{case}: CC stats");
            assert!(plain.fault.is_none(), "{case}: unarmed run has a report");
            let report = armed.fault.as_ref().expect("armed run lost its report");
            assert_eq!(report.suspicion_events, 0, "{case}: false suspicion");
            for m in [&plain, &armed] {
                assert_eq!(m.audit.is_some(), audit, "{case}");
                if let Some(a) = &m.audit {
                    assert!(a.is_clean(), "{case}: {:?}", a.violations.first());
                }
            }
        }
    }
}

#[test]
fn esn_fluid_audit_is_clean_at_paper_scale() {
    // The electrical baselines get the same treatment as the cell-level
    // simulator: an independent re-check of the water-filling rates
    // (feasibility, non-negativity, max-min maximality) after every
    // re-fill, plus end-of-run byte conservation. At L = 0.5 ESN's
    // flow–resource graph stays in components of at most 64 flows, each
    // re-filled on its own, while ESN-OSUB's rack pools join components
    // above that, so both re-fill paths run under the audit.
    let net = SiriusConfig::paper_sim();
    let wl = paper_workload(&net, 0.5, 3_000, 17);
    for osub in [1.0, 3.0] {
        let m = EsnSim::new(EsnConfig {
            servers: net.total_servers() as u32,
            server_rate: net.server_rate,
            servers_per_rack: net.servers_per_node as u32,
            oversubscription: osub,
            base_latency: sirius::core::units::Duration::from_us(3),
        })
        .with_audit(true)
        .run(&wl);
        let audit = m.audit.expect("esn audit was enabled");
        assert!(
            audit.is_clean(),
            "ESN(1:{osub}) violations: {:?}",
            audit.violations.first()
        );
        assert_eq!(audit.cells_released, audit.cells_injected);
        let component_fills = audit.epochs_checked - audit.whole_set_refills;
        assert!(component_fills > 0, "ESN(1:{osub}): no component re-fill");
        if osub > 1.0 {
            assert!(
                audit.whole_set_refills > 0,
                "ESN-OSUB never re-filled the whole set"
            );
        } else {
            assert_eq!(
                audit.whole_set_refills, 0,
                "ESN met a component above 64 flows"
            );
        }
    }
}

#[test]
fn different_seeds_change_the_protocol_run() {
    // The protocol's intermediate choice is randomized, so distinct sim
    // seeds must explore distinct executions (same workload throughout).
    let net = SiriusConfig::paper_sim();
    let wl = paper_workload(&net, 0.3, 300, 17);
    let run = |seed| {
        SiriusSim::new(
            SiriusSimConfig::new(net.clone())
                .with_seed(seed)
                .with_audit(true),
        )
        .run(&wl)
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a.digest, b.digest, "seed does not influence the execution");
    // Both still deliver everything, cleanly.
    assert_eq!(a.delivered_bytes, b.delivered_bytes);
    assert!(a.audit.unwrap().is_clean());
    assert!(b.audit.unwrap().is_clean());
}
