//! Golden run digests for the `paper_sim` configuration (ROADMAP item):
//! the order-sensitive delivered-cell digest of one reference run per
//! congestion-control mode, checked into `tests/golden/paper_sim.digests`.
//!
//! Any behavior-preserving refactor of the simulator can now be *proved*
//! behavior-preserving: if the digests match, the refactored simulator
//! delivered the identical cell sequence and ended in the identical
//! aggregate state. A digest change is not necessarily a bug — but it is
//! always a behavior change, and must be a conscious one.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test golden_digests
//! ```
//!
//! and commit the updated `tests/golden/paper_sim.digests` together with
//! the change that caused it.
//!
//! The digest does not cover the reorder peak (Fig. 10d) or the resident
//! flow peak, so the reference runs pin those in [`PINNED_PEAKS`] — edit
//! that table by hand alongside a bless that moves them.
//!
//! A second file, `tests/golden/paper_sim_faults.digests`, pins the fault
//! paths: Protocol and Ideal under a crash that recovers plus a dead bank
//! chip (blackholed arrivals, first hops at the crashed intermediate
//! included; column repair and rerouted arrivals), Protocol under a
//! Byzantine-only script (no link faults, so the relay-type schedule
//! check runs), and Ideal under a mistuned laser, a grey link and a
//! Byzantine node together (first hops destroyed in flight, and
//! counterfeits that must not count as landed first hops). Nothing else
//! compares Ideal's fault handling against a fixed reference.
//!
//! A third file, `tests/golden/esn.digests`, pins the §7 fluid baseline:
//! ESN (Ideal) and ESN-OSUB (Ideal) at two loads, each with enough flows
//! active at once that `EsnSim::run` re-fills the whole active set (an
//! event touched a connected component above 64 flows) as well as single
//! components.

use sirius::core::topology::NodeId;
use sirius::core::units::{Duration, Rate};
use sirius::core::SiriusConfig;
use sirius::sim::{
    CcMode, EsnConfig, EsnSim, FaultInjector, FaultReport, SiriusSim, SiriusSimConfig,
};
use sirius::workload::{Flow, Pareto, Pattern, WorkloadSpec};
use std::path::PathBuf;

const SEED: u64 = 17;

/// `(mode, peak_reorder_flow_bytes, resident_flows_max)` of each reference
/// run. A slice run keeps every flow resident, so the second peak is the
/// workload size.
const PINNED_PEAKS: [(CcMode, u64, u64); 3] = [
    (CcMode::Protocol, 37_800, 300),
    (CcMode::Ideal, 27_540, 300),
    (CcMode::Greedy, 36_720, 300),
];

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

fn reference_workload(net: &SiriusConfig) -> Vec<Flow> {
    WorkloadSpec {
        servers: net.total_servers() as u32,
        server_rate: net.server_rate,
        load: 0.3,
        sizes: Pareto::paper_default().truncated(1e5),
        flows: 300,
        pattern: Pattern::Uniform,
        seed: SEED,
    }
    .generate()
}

fn mode_name(mode: CcMode) -> &'static str {
    match mode {
        CcMode::Protocol => "protocol",
        CcMode::Ideal => "ideal",
        CcMode::Greedy => "greedy",
    }
}

/// The exact command that refreshes the golden file; printed verbatim in
/// every mismatch message so the fix is copy-pasteable.
const BLESS_CMD: &str = "GOLDEN_BLESS=1 cargo test --test golden_digests";

/// Pure comparison of measured digests against golden-file contents.
/// Errors carry both digests and the regeneration command, so the
/// failure output alone is enough to diagnose and (if the behavior
/// change was intentional) repair the mismatch.
fn verify_against_golden(golden: &str, measured: &[(&str, u64)]) -> Result<(), String> {
    for &(name, digest) in measured {
        let want = golden
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .ok_or_else(|| format!("no golden entry for mode {name}; regenerate: {BLESS_CMD}"))?;
        let want = u64::from_str_radix(want.trim(), 16)
            .map_err(|e| format!("malformed golden digest for mode {name} ({e}): {want:?}"))?;
        if digest != want {
            return Err(format!(
                "{name}: run digest {digest:016x} != golden {want:016x} — the simulator's \
                 behavior changed; if intentional, regenerate with: {BLESS_CMD}"
            ));
        }
    }
    Ok(())
}

/// Bless `file` with `measured` under `GOLDEN_BLESS`, else check against
/// it. Returns whether the run was a bless.
fn bless_or_verify(file: &str, measured: &[(&str, u64)]) -> bool {
    let path = golden_path(file);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        let lines: String = measured
            .iter()
            .map(|(name, digest)| format!("{name} {digest:016x}\n"))
            .collect();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &lines).unwrap();
        eprintln!("blessed {} with:\n{lines}", path.display());
        return true;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run: {BLESS_CMD}",
            path.display()
        )
    });
    if let Err(msg) = verify_against_golden(&golden, measured) {
        panic!("{}: {msg}", path.display());
    }
    false
}

#[test]
fn paper_sim_digests_match_golden_file() {
    let net = SiriusConfig::paper_sim();
    let wl = reference_workload(&net);
    let mut measured = Vec::new();
    let mut peaks = Vec::new();
    for mode in [CcMode::Protocol, CcMode::Ideal, CcMode::Greedy] {
        let m = SiriusSim::new(
            SiriusSimConfig::new(net.clone())
                .with_mode(mode)
                .with_seed(SEED),
        )
        .run(&wl);
        measured.push((mode_name(mode), m.digest));
        peaks.push((mode, m.peak_reorder_flow_bytes, m.resident_flows_max));
    }
    if !bless_or_verify("paper_sim.digests", &measured) {
        assert_eq!(
            peaks, PINNED_PEAKS,
            "reorder / resident peaks of the reference runs moved"
        );
    }
}

/// The crash-and-repair script: node 5 crashes at epoch 3 and reboots at
/// 20, while chip 0 of the bank feeding (group 2, uplink 3) is dead over
/// epochs 1–40, taking four TX columns with it.
fn crash_and_dead_column() -> FaultInjector {
    FaultInjector::new(SEED)
        .crash(NodeId(5), 3)
        .recover(NodeId(5), 20)
        .bank_failure(2, 3, 0, 4, 1, 40)
}

/// What a faulted row must have exercised to count.
fn crashed_and_rerouted(r: &FaultReport) -> bool {
    r.cells_lost_crash > 0 && r.cells_rerouted > 0
}

fn forgeries_dropped(r: &FaultReport) -> bool {
    r.cells_forged_dropped > 0 && r.cells_forged_dropped == r.cells_forged
}

/// A mistuned laser, a grey link and a Byzantine node at once: launches
/// destroyed in flight, and counterfeits landing beside real first hops.
fn lossy_byzantine() -> FaultInjector {
    FaultInjector::new(SEED)
        .mistune(NodeId(7), 1, 2, 6)
        .grey_link(NodeId(3), 1, 0.3, 1, 30)
        .byzantine(NodeId(11), 0.5, 4, 2, 30)
}

fn lost_in_flight_and_forgeries_dropped(r: &FaultReport) -> bool {
    r.cells_lost_mistune + r.cells_lost_grey > 0 && forgeries_dropped(r)
}

type FaultedRow = (
    &'static str,
    CcMode,
    fn() -> FaultInjector,
    fn(&FaultReport) -> bool,
);

/// `(name, mode, script, not vacuous)` per faulted reference run.
const FAULTED_ROWS: [FaultedRow; 4] = [
    (
        "protocol_crash_column",
        CcMode::Protocol,
        crash_and_dead_column,
        crashed_and_rerouted,
    ),
    (
        "ideal_crash_column",
        CcMode::Ideal,
        crash_and_dead_column,
        crashed_and_rerouted,
    ),
    (
        "protocol_byzantine",
        CcMode::Protocol,
        || FaultInjector::new(SEED).byzantine(NodeId(11), 0.5, 4, 2, 30),
        forgeries_dropped,
    ),
    (
        "ideal_lossy_byzantine",
        CcMode::Ideal,
        lossy_byzantine,
        lost_in_flight_and_forgeries_dropped,
    ),
];

#[test]
fn faulted_digests_match_golden_file() {
    let net = SiriusConfig::paper_sim();
    // Arrivals spread over ~7 epochs so traffic is in flight when the
    // faults land; flows that can finish do so long before the drain.
    let wl = WorkloadSpec {
        servers: net.total_servers() as u32,
        server_rate: net.server_rate,
        load: 0.05,
        sizes: Pareto::paper_default().truncated(1e5),
        flows: 600,
        pattern: Pattern::Uniform,
        seed: SEED,
    }
    .generate();
    let mut measured = Vec::new();
    for (name, mode, script, exercised) in FAULTED_ROWS {
        let mut cfg = SiriusSimConfig::new(net.clone())
            .with_mode(mode)
            .with_seed(SEED)
            .with_audit(true);
        cfg.drain_timeout = Duration::from_us(200);
        let m = SiriusSim::new(cfg).with_faults(script()).run(&wl);
        let report = m.fault.as_ref().unwrap();
        assert!(exercised(report), "{name}: vacuous row: {report:?}");
        let audit = m.audit.as_ref().unwrap();
        assert!(audit.is_clean(), "{name}: {:?}", audit.violations.first());
        measured.push((name, m.digest));
    }
    bless_or_verify("paper_sim_faults.digests", &measured);
}

/// `(name, oversubscription, load, flows)` per ESN reference run.
const ESN_ROWS: [(&str, f64, f64, u64); 4] = [
    ("esn_l80", 1.0, 0.8, 2000),
    ("esn_osub_l80", 3.0, 0.8, 2000),
    ("esn_l100", 1.0, 1.0, 3000),
    ("esn_osub_l100", 3.0, 1.0, 3000),
];

#[test]
fn esn_digests_match_golden_file() {
    // 64 servers at 10 Gb/s, 8 per rack: small enough for debug builds,
    // loaded enough that a hundred or more flows are active on average.
    let servers = 64;
    let server_rate = Rate::from_gbps(10);
    let mut measured = Vec::new();
    for (name, osub, load, flows) in ESN_ROWS {
        let wl = WorkloadSpec {
            servers,
            server_rate,
            load,
            sizes: Pareto::paper_default().truncated(1e6),
            flows,
            pattern: Pattern::Uniform,
            seed: 5,
        }
        .generate();
        let m = EsnSim::new(EsnConfig {
            servers,
            server_rate,
            servers_per_rack: 8,
            oversubscription: osub,
            base_latency: Duration::from_us(3),
        })
        .with_audit(true)
        .run(&wl);
        assert_eq!(m.incomplete_flows, 0, "{name}");
        let audit = m.audit.as_ref().unwrap();
        assert!(audit.is_clean(), "{name}: {:?}", audit.violations.first());
        assert!(
            audit.whole_set_refills > 0 && audit.epochs_checked > audit.whole_set_refills,
            "{name}: {} whole-set of {} re-fills",
            audit.whole_set_refills,
            audit.epochs_checked
        );
        measured.push((name, m.digest));
    }
    bless_or_verify("esn.digests", &measured);
}

/// A digest drift must fail loudly with both digests and the exact
/// bless command — never silently pass or produce an opaque error.
#[test]
fn mutated_golden_digest_fails_with_actionable_message() {
    let measured = [("protocol", 0x1234_5678_9abc_def0u64)];
    let golden = "protocol 123456789abcdef0\n";
    assert_eq!(verify_against_golden(golden, &measured), Ok(()));

    let mutated = "protocol 0000000000000bad\n";
    let msg = verify_against_golden(mutated, &measured).unwrap_err();
    assert!(
        msg.contains("123456789abcdef0"),
        "actual digest missing: {msg}"
    );
    assert!(
        msg.contains("0000000000000bad"),
        "expected digest missing: {msg}"
    );
    assert!(msg.contains(BLESS_CMD), "bless command missing: {msg}");

    let missing = verify_against_golden("ideal 0\n", &measured).unwrap_err();
    assert!(missing.contains("protocol") && missing.contains(BLESS_CMD));
}
