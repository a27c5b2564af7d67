//! One live sync node: the same [`SyncEngine`] the simulator drives, as
//! an OS process over UDP/loopback.
//!
//! N of these are spawned by the `live_sync` bench experiment (or by
//! hand — see README). Startup is a Hello/Go barrier through node 0,
//! followed by a §A.2-style RTT calibration window (DelayRequest/
//! DelayResponse echoes feeding a [`DelayEstimator`]; the measurement
//! correction is −one-way-delay). The epoch loop then free-runs on the
//! disciplined clock: whoever the pure-function [`LeaderSchedule`] elects
//! broadcasts a beacon once per epoch, everyone else applies PLL updates
//! via [`SyncEngine::on_beacon`] — the engine half shared verbatim with
//! the lockstep simulation, wrapped here in a pacing loop that tolerates
//! scheduler jitter instead of assuming lockstep. A beacon read after the
//! process (or its host) stalled is counted as late and not applied: its
//! wait in the socket is not a clock offset. A delay echo slower than an
//! epoch is not timed.
//!
//! The report file is one `key=value` line (parsed by `live_sync`):
//! applied/error counters, the delay estimate, the post-warmup |measured
//! offset| percentiles of the applied beacons, and the p99 over every
//! measured beacon, late ones included (`p99_all_ps`).

use sirius_sync::delay::DelayEstimator;
use sirius_sync::engine::SyncEngine;
use sirius_sync::error::SyncError;
use sirius_sync::leader::LeaderSchedule;
use sirius_sync::pll::Pll;
use sirius_sync::proto::SyncMsg;
use sirius_sync::provider::{OsTime, TimeProvider};
use sirius_sync::transport::{Transport, UdpTransport};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Args {
    node: usize,
    nodes: usize,
    epochs: u64,
    epoch_us: u64,
    port_base: u16,
    rotation: u64,
    calib_ms: u64,
    report: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        node: 0,
        nodes: 2,
        epochs: 1000,
        epoch_us: 2000,
        port_base: 47800,
        rotation: 4,
        calib_ms: 200,
        report: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--node" => args.node = val.parse().map_err(|e| format!("--node: {e}"))?,
            "--nodes" => args.nodes = val.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--epochs" => args.epochs = val.parse().map_err(|e| format!("--epochs: {e}"))?,
            "--epoch-us" => args.epoch_us = val.parse().map_err(|e| format!("--epoch-us: {e}"))?,
            "--port-base" => {
                args.port_base = val.parse().map_err(|e| format!("--port-base: {e}"))?
            }
            "--rotation" => args.rotation = val.parse().map_err(|e| format!("--rotation: {e}"))?,
            "--calib-ms" => args.calib_ms = val.parse().map_err(|e| format!("--calib-ms: {e}"))?,
            "--report" => args.report = Some(val.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if args.node >= args.nodes || args.nodes < 2 {
        return Err(format!(
            "--node {} out of range for --nodes {}",
            args.node, args.nodes
        ));
    }
    if args.epoch_us == 0 || args.epochs == 0 || args.rotation == 0 {
        return Err("--epochs/--epoch-us/--rotation must be positive".into());
    }
    Ok(args)
}

impl Args {
    fn epoch(&self) -> Duration {
        Duration::from_micros(self.epoch_us)
    }
}

/// Hello/Go barrier through node 0. Returns the instant the cluster
/// started, `t0`: calibration runs for `calib_ms` from it, and the epoch
/// loop's epoch 0 begins when calibration ends. Followers also accept any
/// beacon as an implicit Go (the cluster evidently started), back-dating
/// `t0` by the calibration window and the beacon's epoch.
fn barrier(t: &mut UdpTransport, a: &Args) -> Result<Instant, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    t.set_timeout(Duration::from_millis(50));
    if a.node == 0 {
        let mut seen = vec![false; a.nodes];
        seen[0] = true;
        while seen.iter().any(|s| !s) {
            if Instant::now() > deadline {
                let missing: Vec<usize> = (0..a.nodes).filter(|&i| !seen[i]).collect();
                return Err(format!("barrier timeout; missing Hello from {missing:?}"));
            }
            if let Ok(SyncMsg::Hello { node }) = t.poll() {
                if (node as usize) < a.nodes {
                    seen[node as usize] = true;
                }
            }
        }
        // Everyone is listening; release them. Three rounds survive the
        // odd dropped datagram on a loaded box.
        for _ in 0..3 {
            t.send_to_all(&SyncMsg::Go).map_err(|e| e.to_string())?;
        }
        Ok(Instant::now())
    } else {
        let mut next_hello = Instant::now();
        loop {
            if Instant::now() > deadline {
                return Err("barrier timeout waiting for Go".into());
            }
            if Instant::now() >= next_hello {
                t.send_to(0, &SyncMsg::Hello { node: t.node() })
                    .map_err(|e| e.to_string())?;
                next_hello = Instant::now() + Duration::from_millis(50);
            }
            match t.poll() {
                Ok(SyncMsg::Go) => return Ok(Instant::now()),
                Ok(SyncMsg::Beacon(b)) => {
                    return Ok(Instant::now()
                        - Duration::from_millis(a.calib_ms)
                        - Duration::from_micros(b.epoch.saturating_mul(a.epoch_us)));
                }
                _ => {}
            }
        }
    }
}

/// An echo's RTT, ps, or `None` if it took longer than an epoch: then
/// one end stalled while the echo was in flight (tens of ms on a
/// contended VM), and the RTT would time the stall, not the path.
fn rtt_ps(sent: Instant, a: &Args) -> Option<f64> {
    let rtt = sent.elapsed();
    (rtt <= a.epoch()).then_some(rtt.as_nanos() as f64 * 1000.0)
}

/// §A.2 over processes: ping the successor until `deadline`, echo every
/// probe we see, and average the RTTs [`rtt_ps`] times. Returns the
/// one-way estimate, ps.
fn calibrate(t: &mut UdpTransport, a: &Args, deadline: Instant) -> f64 {
    let succ = (a.node + 1) % a.nodes;
    let mut est = DelayEstimator::new();
    let mut nonce = 0u64;
    let mut outstanding: Option<(u64, Instant)> = None;
    let mut next_ping = Instant::now();
    t.set_timeout(Duration::from_millis(2));
    while Instant::now() < deadline {
        if Instant::now() >= next_ping {
            nonce += 1;
            let _ = t.send_to(
                succ,
                &SyncMsg::DelayRequest {
                    node: t.node(),
                    nonce,
                },
            );
            outstanding = Some((nonce, Instant::now()));
            next_ping = Instant::now() + Duration::from_millis(5);
        }
        match t.poll() {
            Ok(SyncMsg::DelayRequest { node, nonce }) => {
                let _ = t.send_to(
                    node as usize,
                    &SyncMsg::DelayResponse {
                        node: t.node(),
                        nonce,
                    },
                );
            }
            Ok(SyncMsg::DelayResponse { nonce: n, .. }) => {
                if let Some((want, sent)) = outstanding {
                    if n == want {
                        if let Some(rtt) = rtt_ps(sent, a) {
                            est.record_rtt_ps(rtt);
                        }
                        outstanding = None;
                    }
                }
            }
            _ => {}
        }
    }
    est.estimate().map(|d| d.as_ps() as f64).unwrap_or(0.0)
}

#[derive(Debug, Default)]
struct Counters {
    applied: u64,
    led: u64,
    duplicates: u64,
    stale: u64,
    wrong_leader: u64,
    /// Beacons read after a stall: measured, not applied.
    late: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sirius-sync-node: {e}");
            std::process::exit(2);
        }
    };
    let mut t = match UdpTransport::bind(a.node, a.nodes, a.port_base) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sirius-sync-node {}: bind failed: {e}", a.node);
            std::process::exit(2);
        }
    };
    let t0 = match barrier(&mut t, &a) {
        Ok(t0) => t0,
        Err(e) => {
            eprintln!("sirius-sync-node {}: {e}", a.node);
            std::process::exit(2);
        }
    };
    // Every node's clock starts when calibration ends after Go, so its
    // phase counts the epochs everyone else counts; the PLL then keeps it
    // there. A straggler that joined on a beacon is already past that
    // instant: it still calibrates for the whole window, from now.
    let calib = Duration::from_millis(a.calib_ms);
    let start = t0 + calib;
    let mut delay_est_ps = if a.calib_ms > 0 {
        calibrate(&mut t, &a, start.max(Instant::now() + calib))
    } else {
        0.0
    };
    t.set_correction_ps(-delay_est_ps);
    let mut engine = SyncEngine::new(
        a.node,
        LeaderSchedule::new(a.nodes, a.rotation),
        Pll::paper_tuning(),
        OsTime::since(start),
    );
    let epoch_ps = a.epoch_us as f64 * 1e6;
    let warmup = a.epochs / 5;
    let mut counters = Counters::default();
    let mut samples: Vec<f64> = Vec::new();
    let mut late_samples: Vec<f64> = Vec::new();
    let mut last_led: Option<u64> = None;
    // Continuous §A.2 calibration: the pre-loop RTT measured socket
    // latency under a tight poll loop, but delivery latency *inside* the
    // paced epoch loop also includes both ends' wakeup sleep. Keep
    // pinging the successor and fold the halved RTT into the correction,
    // so the measurement bias the PLL sees tracks the loop's real
    // delivery latency instead of railing the integral term.
    let succ = (a.node + 1) % a.nodes;
    let mut live_est = DelayEstimator::new();
    let mut live_nonce = 1u64 << 32; // distinct from the pre-loop nonces
    let mut outstanding: Option<(u64, Instant)> = None;
    let mut next_ping = Instant::now();
    // A datagram read now may have waited in the socket since the
    // previous drain emptied it, and a beacon's measured offset includes
    // that wait. A wait up to half an epoch is the loop's own sleep; a
    // longer one is a stall of the process or its host (tens of ms on a
    // contended VM), and a PLL update from that beacon would step the
    // clock by the stall, not by its offset.
    let max_wait = a.epoch() / 2;
    let mut drained = Instant::now();
    // The epoch loop paces itself with sleeps (sub-ms accurate) and
    // drains the socket non-blockingly: kernel receive-timeout
    // granularity is several ms, which would make a blocking loop skip
    // entire epochs.
    if let Err(e) = t.set_nonblocking(true) {
        eprintln!("sirius-sync-node {}: set_nonblocking: {e}", a.node);
        std::process::exit(2);
    }

    loop {
        // Epochs are counted on the disciplined clock, not on the raw
        // time since this node saw Go: the PLL pulls every node's count
        // onto the leaders', where a start skew between the nodes would
        // otherwise stay for the whole run (and make every beacon of a
        // node that counts behind stale on arrival).
        let epoch = (engine.clock().phase_ps() / epoch_ps).max(0.0) as u64;
        if epoch >= a.epochs {
            break;
        }
        // A phase step back must not lead an epoch twice.
        if engine.is_leader(epoch) && last_led.is_none_or(|l| epoch > l) {
            if let Some(b) = engine.lead(epoch) {
                let _ = t.broadcast(&b);
                counters.led += 1;
                last_led = Some(epoch);
            }
        }
        if Instant::now() >= next_ping {
            live_nonce += 1;
            let _ = t.send_to(
                succ,
                &SyncMsg::DelayRequest {
                    node: t.node(),
                    nonce: live_nonce,
                },
            );
            outstanding = Some((live_nonce, Instant::now()));
            next_ping = Instant::now() + Duration::from_millis(50);
        }
        // Drain whatever arrived; apply any fresh beacon. The engine's
        // replay/stale guards do the per-message policing.
        loop {
            match t.try_poll() {
                Ok(Some(SyncMsg::Beacon(b))) => {
                    let correction = t.correction_ps();
                    let late = drained.elapsed() > max_wait;
                    let outcome = if late {
                        engine.measure(&b, correction)
                    } else {
                        engine.on_beacon(&b, correction)
                    };
                    match outcome {
                        Ok(measured) if late => {
                            counters.late += 1;
                            if b.epoch >= warmup {
                                late_samples.push(measured.abs());
                            }
                        }
                        Ok(measured) => {
                            counters.applied += 1;
                            if b.epoch >= warmup {
                                samples.push(measured.abs());
                            }
                        }
                        Err(SyncError::Duplicate { .. }) => counters.duplicates += 1,
                        Err(SyncError::Stale { .. }) => counters.stale += 1,
                        Err(SyncError::WrongLeader { .. }) => counters.wrong_leader += 1,
                        Err(_) => {}
                    }
                }
                Ok(Some(SyncMsg::DelayRequest { node, nonce })) => {
                    let _ = t.send_to(
                        node as usize,
                        &SyncMsg::DelayResponse {
                            node: t.node(),
                            nonce,
                        },
                    );
                }
                Ok(Some(SyncMsg::Hello { node })) => {
                    // A straggler still in the barrier: re-release it.
                    if a.node == 0 {
                        let _ = t.send_to(node as usize, &SyncMsg::Go);
                    }
                }
                Ok(Some(SyncMsg::DelayResponse { nonce, .. })) => {
                    if let Some((want, sent)) = outstanding {
                        if nonce == want {
                            outstanding = None;
                            let Some(rtt) = rtt_ps(sent, &a) else {
                                continue;
                            };
                            live_est.record_rtt_ps(rtt);
                            if live_est.samples() >= 4 {
                                delay_est_ps =
                                    live_est.estimate().map(|d| d.as_ps() as f64).unwrap_or(0.0);
                                t.set_correction_ps(-delay_est_ps);
                            }
                        }
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
        drained = Instant::now();
        // Sleep to the next epoch boundary, capped so incoming beacons
        // are still served a few times per epoch. The boundary is taken
        // on the raw clock since `start`, the same schedule on every node:
        // paced on each node's own disciplined phase instead, the
        // measured offsets spread about twice as wide (DESIGN note 13).
        let now_us = start.elapsed().as_micros() as u64;
        let sleep_us = ((epoch + 1) * a.epoch_us)
            .saturating_sub(now_us)
            .clamp(20, 100);
        std::thread::sleep(Duration::from_micros(sleep_us));
    }

    let by_value = |x: &f64, y: &f64| x.partial_cmp(y).expect("samples are finite");
    let mut all = [samples.as_slice(), &late_samples].concat();
    all.sort_by(by_value);
    samples.sort_by(by_value);
    let report = format!(
        "node={} applied={} led={} duplicates={} stale={} wrong_leader={} \
         late={} timeouts={} malformed={} delay_est_ps={:.0} samples={} \
         p50_ps={:.0} p99_ps={:.0} max_ps={:.0} p99_all_ps={:.0} freq_ppm={:.3}\n",
        a.node,
        counters.applied,
        counters.led,
        counters.duplicates,
        counters.stale,
        counters.wrong_leader,
        counters.late,
        t.stats.timeouts,
        t.stats.malformed,
        delay_est_ps,
        samples.len(),
        percentile(&samples, 0.50),
        percentile(&samples, 0.99),
        samples.last().copied().unwrap_or(0.0),
        percentile(&all, 0.99),
        engine.clock().freq_ppm(),
    );
    print!("{report}");
    if let Some(path) = &a.report {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("sirius-sync-node {}: writing {path}: {e}", a.node);
            std::process::exit(2);
        }
    }
}
