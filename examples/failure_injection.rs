//! Fault tolerance (§4.5): kill a rack mid-run and watch the fabric keep
//! delivering.
//!
//! Valiant load balancing widens the blast radius of a failure — every
//! node detours traffic through every other node — but the cyclic
//! schedule also makes detection fast (every pair reconnects every few
//! microseconds), and after the failure is disseminated the only lasting
//! effect is a proportional 1/N bandwidth loss.
//!
//! ```sh
//! cargo run --release --example failure_injection
//! ```

use sirius_core::topology::NodeId;
use sirius_core::units::{Duration, Rate};
use sirius_core::SiriusConfig;
use sirius_sim::{FaultInjector, SiriusSim, SiriusSimConfig};
use sirius_workload::{Pareto, Pattern, WorkloadSpec};

fn main() {
    let mut net = SiriusConfig::scaled(32, 8);
    net.servers_per_node = 8;
    let victim = NodeId(13);

    let spec = WorkloadSpec {
        servers: net.total_servers() as u32,
        server_rate: Rate::from_gbps(25),
        load: 0.4,
        sizes: Pareto::paper_default().truncated(1e6),
        flows: 6_000,
        pattern: Pattern::Uniform,
        seed: 5,
    };
    let wl = spec.generate();
    let victim_servers: Vec<u32> = (victim.0 * 8..victim.0 * 8 + 8).collect();
    let victim_flows = wl
        .iter()
        .filter(|f| {
            victim_servers.contains(&f.src_server) || victim_servers.contains(&f.dst_server)
        })
        .count();
    println!(
        "workload: {} flows ({} touch the victim rack {victim})",
        wl.len(),
        victim_flows
    );

    // Healthy baseline.
    let mut cfg = SiriusSimConfig::new(net.clone()).with_seed(1);
    cfg.drain_timeout = Duration::from_ms(5);
    let healthy = SiriusSim::new(cfg.clone()).run(&wl);

    // Kill rack 13 at epoch 200. Nothing tells routing: the silence
    // detectors inside the simulator must notice the missing scheduled
    // slots and stage the exclusion themselves.
    let failed = SiriusSim::new(cfg)
        .with_faults(FaultInjector::new(1).crash(victim, 200))
        .run(&wl);

    println!("\n{:<24} {:>12} {:>12}", "", "healthy", "rack failure");
    println!(
        "{:<24} {:>12} {:>12}",
        "completed flows",
        healthy.completed_flows(),
        failed.completed_flows()
    );
    println!(
        "{:<24} {:>12} {:>12}",
        "incomplete flows", healthy.incomplete_flows, failed.incomplete_flows
    );
    println!(
        "{:<24} {:>12} {:>12}",
        "p99 FCT (short)",
        format!("{}", healthy.fct_percentile(99.0, 100_000).unwrap()),
        format!("{}", failed.fct_percentile(99.0, 100_000).unwrap()),
    );

    let stranded = failed.incomplete_flows as usize;
    println!(
        "\nthe failure strands {stranded} flows (those sourced at / destined to / in\n\
         flight through rack {victim} inside the detection window); everyone else\n\
         completes — traffic re-detours around the failed rack automatically."
    );
    assert!(stranded <= victim_flows + 200, "blast radius too large");

    // The measured detection pipeline: every number below comes from the
    // silence detectors embedded in the run, not from the script.
    let fr = failed.fault.expect("fault report missing");
    let rec = &fr.failures[0];
    let suspected = rec.first_suspected.expect("victim never suspected");
    let excluded = rec.excluded_at.expect("victim never excluded");
    println!(
        "\nfailure detector: rack {victim} silent from epoch {}, suspected at epoch\n\
         {suspected} ({} epochs = {} of wall clock — 'low overhead yet fast failure\n\
         detection'), excluded from routing at epoch {excluded}.",
        rec.fail_epoch,
        rec.detection_epochs().unwrap(),
        net.epoch() * rec.detection_epochs().unwrap()
    );
    println!(
        "cells blackholed inside the detection window: {}; post-failure capacity\n\
         factor {:.4} vs the §4.5 rule 1 - 1/{} = {:.4}.",
        fr.cells_lost_crash,
        fr.capacity_factor_end,
        net.nodes,
        1.0 - 1.0 / net.nodes as f64
    );
}
