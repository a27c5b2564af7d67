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

use sirius::core::SiriusConfig;
use sirius::sim::{CcMode, SiriusSim, SiriusSimConfig};
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

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("paper_sim.digests")
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
fn verify_against_golden(golden: &str, measured: &[(CcMode, u64)]) -> Result<(), String> {
    for &(mode, digest) in measured {
        let name = mode_name(mode);
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

#[test]
fn paper_sim_digests_match_golden_file() {
    let net = SiriusConfig::paper_sim();
    let wl = reference_workload(&net);
    let mut lines = String::new();
    let mut measured = Vec::new();
    let mut peaks = Vec::new();
    for mode in [CcMode::Protocol, CcMode::Ideal, CcMode::Greedy] {
        let m = SiriusSim::new(
            SiriusSimConfig::new(net.clone())
                .with_mode(mode)
                .with_seed(SEED),
        )
        .run(&wl);
        lines.push_str(&format!("{} {:016x}\n", mode_name(mode), m.digest));
        measured.push((mode, m.digest));
        peaks.push((mode, m.peak_reorder_flow_bytes, m.resident_flows_max));
    }

    let path = golden_path();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &lines).unwrap();
        eprintln!("blessed {} with:\n{lines}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run: {BLESS_CMD}",
            path.display()
        )
    });
    if let Err(msg) = verify_against_golden(&golden, &measured) {
        panic!("{}: {msg}", path.display());
    }
    assert_eq!(
        peaks, PINNED_PEAKS,
        "reorder / resident peaks of the reference runs moved"
    );
}

/// A digest drift must fail loudly with both digests and the exact
/// bless command — never silently pass or produce an opaque error.
#[test]
fn mutated_golden_digest_fails_with_actionable_message() {
    let measured = [(CcMode::Protocol, 0x1234_5678_9abc_def0u64)];
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
