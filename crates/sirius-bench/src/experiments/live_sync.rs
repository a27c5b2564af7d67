//! Live-process sync: the measurement behind `results/BENCH_live_sync.json`.
//!
//! Spawns N real `sirius-sync-node` OS processes — the *same*
//! [`SyncEngine`](sirius_sync::engine::SyncEngine) the simulator drives,
//! behind `UdpTransport`/`OsTime` instead of `SimTransport`/`SimTime` —
//! over UDP loopback, collects each node's one-line `key=value` report,
//! and emits the achieved |offset| distribution next to the in-sim
//! prediction for the same geometry.
//!
//! The two numbers are *expected* to differ by orders of magnitude, and
//! the artifact says so rather than hiding it: the simulation models
//! picosecond detector noise on a passive optical path, while loopback
//! UDP delivery is dominated by scheduler wakeup latency (tens of
//! microseconds). What the live run demonstrates is the protocol core
//! itself — rotation, replay/stale policing, RTT-calibrated measurement
//! corrections, PLL lock — running unmodified outside the simulator, with
//! the residual offset bounded well inside an epoch (`locked`).
//!
//! Wall clock is bounded: children that outlive [`LiveConfig::deadline`]
//! are killed and the run reports an error, so a hung barrier can never
//! wedge CI.

use crate::scale::Scale;
use crate::table::{f, write_results_atomic, Table};
use std::collections::HashMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Geometry and pacing of one live run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Node processes to spawn (>= 2).
    pub nodes: usize,
    /// Epochs each node free-runs before reporting.
    pub epochs: u64,
    /// Epoch length, µs (wall time — these are real microseconds).
    pub epoch_us: u64,
    /// First UDP port; node `i` binds `127.0.0.1:(port_base + i)`.
    pub port_base: u16,
    /// Leader rotation period, epochs.
    pub rotation: u64,
    /// Pre-loop §A.2 RTT calibration window, ms.
    pub calib_ms: u64,
}

impl LiveConfig {
    /// Preset per harness scale. Even `Paper` stays ~30 s: the offset
    /// process is stationary after lock, so more epochs sharpen the
    /// tail estimate but do not change the verdict.
    pub fn for_scale(scale: Scale) -> LiveConfig {
        let (nodes, epochs) = match scale {
            Scale::Smoke => (4, 1_500),
            Scale::Quick => (4, 3_000),
            Scale::Paper => (8, 15_000),
        };
        LiveConfig {
            nodes,
            epochs,
            epoch_us: 2_000,
            port_base: 47_860,
            rotation: 4,
            calib_ms: 200,
        }
    }

    /// Hard kill deadline: barrier budget + calibration + 3x the nominal
    /// run length + slack. Generous, but finite — the CI stage's wall
    /// clock bound comes from here.
    pub fn deadline(&self) -> Duration {
        let run_us = self.epochs.saturating_mul(self.epoch_us);
        Duration::from_secs(15)
            + Duration::from_millis(self.calib_ms)
            + Duration::from_micros(run_us.saturating_mul(3))
    }

    /// One epoch in ps — the scale the offset samples live on.
    pub fn epoch_ps(&self) -> f64 {
        self.epoch_us as f64 * 1e6
    }
}

/// One node's parsed end-of-run report line.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    pub node: u64,
    /// Beacons applied through `SyncEngine::on_beacon`.
    pub applied: u64,
    /// Epochs this node led (broadcast a beacon).
    pub led: u64,
    pub duplicates: u64,
    pub stale: u64,
    pub wrong_leader: u64,
    /// Beacons read after a stall (the wait in the socket is not an
    /// offset): measured, not applied, and not in the percentiles below.
    pub late: u64,
    pub timeouts: u64,
    pub malformed: u64,
    /// Final one-way delay estimate (the measurement correction), ps.
    pub delay_est_ps: f64,
    /// Post-warmup |offset| samples of the applied beacons, behind the
    /// percentiles below.
    pub samples: u64,
    pub p50_ps: f64,
    pub p99_ps: f64,
    pub max_ps: f64,
    /// p99 |offset| over every post-warmup beacon measured, late ones
    /// included.
    pub p99_all_ps: f64,
    /// Final PLL frequency trim, ppm.
    pub freq_ppm: f64,
}

/// Parse a node's stdout: scan for the single `key=value` report line.
pub fn parse_report(text: &str) -> Result<NodeReport, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("node="))
        .ok_or_else(|| format!("no report line in output {text:?}"))?;
    let kv: HashMap<&str, &str> = line
        .split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .collect();
    let int = |key: &str| -> Result<u64, String> {
        kv.get(key)
            .ok_or_else(|| format!("report missing {key}: {line:?}"))?
            .parse::<u64>()
            .map_err(|e| format!("report field {key}: {e}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        let v = kv
            .get(key)
            .ok_or_else(|| format!("report missing {key}: {line:?}"))?
            .parse::<f64>()
            .map_err(|e| format!("report field {key}: {e}"))?;
        if !v.is_finite() {
            return Err(format!("report field {key} is not finite: {line:?}"));
        }
        Ok(v)
    };
    Ok(NodeReport {
        node: int("node")?,
        applied: int("applied")?,
        led: int("led")?,
        duplicates: int("duplicates")?,
        stale: int("stale")?,
        wrong_leader: int("wrong_leader")?,
        late: int("late")?,
        timeouts: int("timeouts")?,
        malformed: int("malformed")?,
        delay_est_ps: num("delay_est_ps")?,
        samples: int("samples")?,
        p50_ps: num("p50_ps")?,
        p99_ps: num("p99_ps")?,
        max_ps: num("max_ps")?,
        p99_all_ps: num("p99_all_ps")?,
        freq_ppm: num("freq_ppm")?,
    })
}

/// Outcome of one live run plus the in-sim prediction for the same
/// geometry.
#[derive(Debug, Clone)]
pub struct LiveResult {
    pub cfg: LiveConfig,
    /// Per-node reports, sorted by node id; one per spawned process.
    pub reports: Vec<NodeReport>,
    /// Orchestrator wall clock: spawn to last exit, seconds.
    pub wall_secs: f64,
    /// `sync_sim::run` max pairwise deviation for the same nodes and
    /// epoch length (detector-noise-limited — the optical-path bound the
    /// loopback numbers should be read against).
    pub sim_max_deviation_ps: f64,
    /// Epochs the prediction simulated.
    pub sim_epochs: u64,
}

impl LiveResult {
    /// Worst-of-nodes percentile: the cluster is only as synchronized as
    /// its worst member.
    pub fn achieved_p50_ps(&self) -> f64 {
        self.reports.iter().map(|r| r.p50_ps).fold(0.0, f64::max)
    }

    pub fn achieved_p99_ps(&self) -> f64 {
        self.reports.iter().map(|r| r.p99_ps).fold(0.0, f64::max)
    }

    pub fn achieved_max_ps(&self) -> f64 {
        self.reports.iter().map(|r| r.max_ps).fold(0.0, f64::max)
    }

    pub fn achieved_p99_all_ps(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.p99_all_ps)
            .fold(0.0, f64::max)
    }

    pub fn applied_total(&self) -> u64 {
        self.reports.iter().map(|r| r.applied).sum()
    }

    /// Beacon applications if every non-leader applied every epoch's
    /// beacon: one leader per epoch, everyone else follows.
    pub fn applied_expected(&self) -> u64 {
        self.cfg.epochs * (self.cfg.nodes as u64 - 1)
    }

    /// The artifact's verdict: every node reported with post-warmup
    /// samples, the worst p99 |offset| is inside one epoch, and at least
    /// half the ideal beacon applications landed (pacing jitter eats a
    /// few; losing half would mean the cluster never actually locked).
    pub fn locked(&self) -> bool {
        let p99 = self.achieved_p99_ps();
        self.reports.len() == self.cfg.nodes
            && self.reports.iter().all(|r| r.samples > 0)
            && p99.is_finite()
            && p99 > 0.0
            && p99 < self.cfg.epoch_ps()
            && self.applied_total() * 2 >= self.applied_expected()
    }
}

/// Locate the `sirius-sync-node` binary: `SIRIUS_SYNC_NODE` env override
/// first, then siblings of the current executable (covers both
/// `target/<profile>/` for installed bins and `target/<profile>/deps/`
/// for test executables).
pub fn node_binary() -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var("SIRIUS_SYNC_NODE") {
        let p = PathBuf::from(p);
        return if p.is_file() {
            Ok(p)
        } else {
            Err(format!("SIRIUS_SYNC_NODE={} is not a file", p.display()))
        };
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe.parent();
    for _ in 0..3 {
        let Some(d) = dir else { break };
        let cand = d.join("sirius-sync-node");
        if cand.is_file() {
            return Ok(cand);
        }
        dir = d.parent();
    }
    Err(format!(
        "sirius-sync-node not found near {} (build it, or set SIRIUS_SYNC_NODE)",
        exe.display()
    ))
}

fn kill_all(children: &mut [(usize, Child)]) {
    for (_, c) in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Spawn the cluster, wait (bounded), parse every report, and attach the
/// in-sim prediction.
pub fn run(cfg: &LiveConfig) -> Result<LiveResult, String> {
    if cfg.nodes < 2 {
        return Err("live sync needs at least 2 nodes".into());
    }
    let bin = node_binary()?;
    let t0 = Instant::now();
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(cfg.nodes);
    for i in 0..cfg.nodes {
        let spawned = Command::new(&bin)
            .args([
                "--node",
                &i.to_string(),
                "--nodes",
                &cfg.nodes.to_string(),
                "--epochs",
                &cfg.epochs.to_string(),
                "--epoch-us",
                &cfg.epoch_us.to_string(),
                "--port-base",
                &cfg.port_base.to_string(),
                "--rotation",
                &cfg.rotation.to_string(),
                "--calib-ms",
                &cfg.calib_ms.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        match spawned {
            Ok(c) => children.push((i, c)),
            Err(e) => {
                kill_all(&mut children);
                return Err(format!("spawning node {i} ({}): {e}", bin.display()));
            }
        }
    }

    // Bounded wait: poll until every child exits or the deadline passes.
    // One report line per child cannot fill a pipe buffer, so reading
    // stdout after exit is safe.
    let deadline = t0 + cfg.deadline();
    let mut exited = 0usize;
    let mut done = vec![false; cfg.nodes];
    while exited < cfg.nodes {
        if Instant::now() > deadline {
            kill_all(&mut children);
            return Err(format!(
                "deadline {:?} exceeded with {} of {} nodes still running",
                cfg.deadline(),
                cfg.nodes - exited,
                cfg.nodes
            ));
        }
        for (idx, (_, c)) in children.iter_mut().enumerate() {
            if !done[idx] {
                match c.try_wait() {
                    Ok(Some(_)) => {
                        done[idx] = true;
                        exited += 1;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        kill_all(&mut children);
                        return Err(format!("waiting on node {idx}: {e}"));
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut reports = Vec::with_capacity(cfg.nodes);
    for (i, mut c) in children {
        let status = c.wait().map_err(|e| format!("node {i}: wait: {e}"))?;
        let mut out = String::new();
        if let Some(mut so) = c.stdout.take() {
            let _ = so.read_to_string(&mut out);
        }
        if !status.success() {
            return Err(format!("node {i} exited with {status}; output {out:?}"));
        }
        reports.push(parse_report(&out).map_err(|e| format!("node {i}: {e}"))?);
    }
    reports.sort_by_key(|r| r.node);

    // The in-sim prediction: identical nodes/epoch geometry on the
    // paper's oscillator and detector-noise model.
    let sim_cfg = sirius_sync::SyncSimConfig {
        nodes: cfg.nodes,
        epoch_us: cfg.epoch_us as f64,
        ..sirius_sync::SyncSimConfig::paper(cfg.nodes)
    };
    let sim = sirius_sync::run_sync(&sim_cfg, cfg.epochs, &[]);

    Ok(LiveResult {
        cfg: cfg.clone(),
        reports,
        wall_secs,
        sim_max_deviation_ps: sim.max_deviation_ps,
        sim_epochs: sim.epochs,
    })
}

/// Per-node stdout table (offsets in µs — that is the scale loopback
/// lives on).
pub fn table(res: &LiveResult) -> Table {
    let mut t = Table::new(
        "live sync: N sirius-sync-node processes over UDP loopback",
        &[
            "node",
            "applied",
            "led",
            "dup",
            "stale",
            "wrong_ldr",
            "late",
            "timeouts",
            "delay_us",
            "samples",
            "p50_us",
            "p99_us",
            "max_us",
            "p99_all_us",
            "freq_ppm",
        ],
    );
    for r in &res.reports {
        t.row(vec![
            r.node.to_string(),
            r.applied.to_string(),
            r.led.to_string(),
            r.duplicates.to_string(),
            r.stale.to_string(),
            r.wrong_leader.to_string(),
            r.late.to_string(),
            r.timeouts.to_string(),
            f(r.delay_est_ps / 1e6, 1),
            r.samples.to_string(),
            f(r.p50_ps / 1e6, 1),
            f(r.p99_ps / 1e6, 1),
            f(r.max_ps / 1e6, 1),
            f(r.p99_all_ps / 1e6, 1),
            f(r.freq_ppm, 3),
        ]);
    }
    t
}

/// Hand-rolled JSON (offline workspace — no serde). Mirrors the
/// scale-series artifact conventions: gate verdict baked in so
/// `ci.sh live-smoke` greps a boolean, no NaN/inf ever emitted.
pub fn to_json(res: &LiveResult, scale: Scale) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"live_sync\",\n");
    out.push_str("  \"transport\": \"udp_loopback\",\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str(&format!("  \"nodes\": {},\n", res.cfg.nodes));
    out.push_str(&format!("  \"epochs\": {},\n", res.cfg.epochs));
    out.push_str(&format!("  \"epoch_us\": {},\n", res.cfg.epoch_us));
    out.push_str(&format!("  \"rotation\": {},\n", res.cfg.rotation));
    out.push_str(&format!("  \"wall_secs\": {:.3},\n", res.wall_secs));
    out.push_str(&format!("  \"applied_total\": {},\n", res.applied_total()));
    out.push_str(&format!(
        "  \"applied_expected\": {},\n",
        res.applied_expected()
    ));
    out.push_str(&format!(
        "  \"achieved_p50_ps\": {:.0},\n",
        res.achieved_p50_ps()
    ));
    out.push_str(&format!(
        "  \"achieved_p99_ps\": {:.0},\n",
        res.achieved_p99_ps()
    ));
    out.push_str(&format!(
        "  \"achieved_max_ps\": {:.0},\n",
        res.achieved_max_ps()
    ));
    out.push_str(&format!(
        "  \"achieved_p99_all_ps\": {:.0},\n",
        res.achieved_p99_all_ps()
    ));
    out.push_str(&format!(
        "  \"sim_max_deviation_ps\": {:.3},\n",
        res.sim_max_deviation_ps
    ));
    out.push_str(&format!("  \"sim_epochs\": {},\n", res.sim_epochs));
    out.push_str(&format!("  \"locked\": {},\n", res.locked()));
    out.push_str("  \"node_reports\": [\n");
    for (i, r) in res.reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"node\": {}, \"applied\": {}, \"led\": {}, \"duplicates\": {}, \
             \"stale\": {}, \"wrong_leader\": {}, \"late\": {}, \"timeouts\": {}, \
             \"malformed\": {}, \
             \"delay_est_ps\": {:.0}, \"samples\": {}, \"p50_ps\": {:.0}, \
             \"p99_ps\": {:.0}, \"max_ps\": {:.0}, \"p99_all_ps\": {:.0}, \
             \"freq_ppm\": {:.3}}}{}\n",
            r.node,
            r.applied,
            r.led,
            r.duplicates,
            r.stale,
            r.wrong_leader,
            r.late,
            r.timeouts,
            r.malformed,
            r.delay_est_ps,
            r.samples,
            r.p50_ps,
            r.p99_ps,
            r.max_ps,
            r.p99_all_ps,
            r.freq_ppm,
            if i + 1 == res.reports.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `results/BENCH_live_sync.json` atomically.
pub fn emit_json(res: &LiveResult, scale: Scale) {
    match write_results_atomic("BENCH_live_sync.json", &to_json(res, scale)) {
        Ok(path) => println!("[json] {}\n", path.display()),
        Err(e) => eprintln!("warning: could not write results/BENCH_live_sync.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "node=2 applied=670 led=224 duplicates=0 stale=1 wrong_leader=0 \
         late=3 timeouts=0 malformed=0 delay_est_ps=120000000 samples=536 \
         p50_ps=50000000 p99_ps=200000000 max_ps=240000000 p99_all_ps=900000000 \
         freq_ppm=60.300\n";

    fn report(node: u64) -> NodeReport {
        let mut r = parse_report(LINE).unwrap();
        r.node = node;
        r
    }

    fn result(nodes: usize, epochs: u64) -> LiveResult {
        LiveResult {
            cfg: LiveConfig {
                nodes,
                epochs,
                epoch_us: 2_000,
                port_base: 48_421,
                rotation: 4,
                calib_ms: 50,
            },
            reports: (0..nodes as u64).map(report).collect(),
            wall_secs: 3.2,
            sim_max_deviation_ps: 4.8,
            sim_epochs: epochs,
        }
    }

    #[test]
    fn report_line_roundtrips_and_bad_lines_are_rejected() {
        let r = parse_report(LINE).unwrap();
        assert_eq!((r.node, r.applied, r.led), (2, 670, 224));
        assert_eq!(
            (r.duplicates, r.stale, r.wrong_leader, r.late),
            (0, 1, 0, 3)
        );
        assert_eq!(r.samples, 536);
        assert_eq!((r.p99_ps, r.p99_all_ps), (2.0e8, 9.0e8));
        assert_eq!(r.freq_ppm, 60.3);
        // Diagnostics before the report line are skipped, not fatal.
        let noisy = format!("some stderr-ish chatter\n{LINE}");
        assert_eq!(parse_report(&noisy).unwrap(), r);
        assert!(parse_report("no report here\n").is_err());
        assert!(parse_report("node=0 applied=1\n").is_err(), "missing keys");
        assert!(parse_report(&LINE.replace("60.300", "NaN")).is_err());
    }

    #[test]
    fn locked_gate_tracks_p99_and_applied() {
        let res = result(4, 1_000);
        // 4 nodes x 670 applied = 2680 >= 3000/2; p99 0.2 ms < 2 ms epoch.
        assert!(res.locked());
        assert_eq!(res.applied_expected(), 3_000);
        assert_eq!(res.achieved_p99_ps(), 2.0e8);

        let mut unsynced = result(4, 1_000);
        for r in &mut unsynced.reports {
            r.p99_ps = 3e9; // wider than an epoch
        }
        assert!(!unsynced.locked());

        let mut deaf = result(4, 1_000);
        for r in &mut deaf.reports {
            r.applied = 100; // cluster mostly missed its beacons
        }
        assert!(!deaf.locked());

        let mut partial = result(4, 1_000);
        partial.reports.pop(); // a node never reported
        assert!(!partial.locked());

        let mut empty = result(4, 1_000);
        empty.reports[1].samples = 0; // reported, but saw no post-warmup beacon
        assert!(!empty.locked());
    }

    #[test]
    fn json_is_well_formed_and_carries_the_verdict() {
        let res = result(4, 1_000);
        let j = to_json(&res, Scale::Smoke);
        assert!(j.contains("\"bench\": \"live_sync\""));
        assert!(j.contains("\"transport\": \"udp_loopback\""));
        assert!(j.contains("\"scale\": \"Smoke\""));
        assert!(j.contains("\"locked\": true"));
        assert!(j.contains("\"applied_total\": 2680"));
        assert!(j.contains("\"achieved_p99_ps\": 200000000"));
        assert!(j.contains("\"achieved_p99_all_ps\": 900000000"));
        assert!(j.contains("\"sim_max_deviation_ps\": 4.800"));
        assert!(j.contains("\"freq_ppm\": 60.300"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains("NaN") && !j.contains("inf"));
        assert_eq!(table(&res).len(), 4);
    }

    #[test]
    fn presets_are_bounded_and_deadline_scales() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            let cfg = LiveConfig::for_scale(scale);
            assert!(cfg.nodes >= 2);
            assert!(
                cfg.deadline() < Duration::from_secs(120),
                "{scale:?}: live run deadline must bound CI wall clock"
            );
        }
        let smoke = LiveConfig::for_scale(Scale::Smoke);
        assert!(smoke.epochs * smoke.epoch_us <= 4_000_000, "smoke <= 4 s");
    }

    /// End-to-end: a real 2-process cluster over loopback. Skipped (with
    /// a note) when the node binary is not built — `ci.sh live-smoke`
    /// covers the spawn path unconditionally.
    #[test]
    fn two_process_cluster_locks_over_loopback() {
        if std::env::var("SIRIUS_SYNC_NODE").is_err() && node_binary().is_err() {
            eprintln!("skipping: sirius-sync-node not built");
            return;
        }
        let cfg = LiveConfig {
            nodes: 2,
            epochs: 400,
            epoch_us: 1_000,
            port_base: 48_431,
            rotation: 4,
            calib_ms: 50,
        };
        let res = run(&cfg).expect("live cluster run");
        assert_eq!(res.reports.len(), 2);
        assert!(res.locked(), "cluster failed to lock: {:?}", res.reports);
        assert!(res.sim_max_deviation_ps > 0.0);
        assert!(res.wall_secs < cfg.deadline().as_secs_f64());
    }
}
