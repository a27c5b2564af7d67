//! Bursty RPC traffic at packet granularity (§2.2): the workload regime
//! that motivates nanosecond reconfiguration.
//!
//! Generates single-packet RPCs with the production packet-size mixture
//! and high fan-out, at increasing burstiness (ON/OFF sources), and shows
//! how the congestion-control queue threshold Q absorbs bursts — the
//! trade-off behind Fig. 10's choice of Q = 4.
//!
//! ```sh
//! cargo run --release --example bursty_rpc
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirius::core::units::{Duration, Rate, Time};
use sirius::core::SiriusConfig;
use sirius::sim::SiriusSim;
use sirius::sim::SiriusSimConfig;
use sirius::workload::burst::{peak_to_mean, BurstySpec};
use sirius::workload::{Flow, PacketSizes, Pareto};

/// `packets` single-packet RPCs as one-packet flows: Poisson arrivals at
/// `pps` packets per second per server, sizes from `sizes`, and every
/// source cycling round-robin over its own `fanout` randomly chosen peers
/// ("an endpoint communicating with many destinations at the same time")
/// — maximal destination churn, the pattern that stresses
/// reconfiguration. A packet's FCT is its latency.
fn single_packet_rpcs(
    servers: u32,
    sizes: &PacketSizes,
    pps: f64,
    fanout: usize,
    packets: u64,
    seed: u64,
) -> Vec<Flow> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dsts: Vec<Vec<u32>> = (0..servers)
        .map(|s| {
            let mut set = Vec::with_capacity(fanout);
            while set.len() < fanout {
                let d = rng.gen_range(0..servers);
                if d != s && !set.contains(&d) {
                    set.push(d);
                }
            }
            set
        })
        .collect();
    let total_rate = pps * servers as f64;
    let mut t = 0f64;
    let mut next = vec![0usize; servers as usize];
    (0..packets)
        .map(|id| {
            let u: f64 = 1.0 - rng.gen::<f64>();
            t += -u.ln() / total_rate;
            let src = rng.gen_range(0..servers) as usize;
            let k = next[src];
            next[src] = (k + 1) % fanout;
            Flow {
                id,
                src_server: src as u32,
                dst_server: dsts[src][k],
                bytes: sizes.sample(&mut rng) as u64,
                arrival: Time::from_ps((t * 1e12) as u64),
            }
        })
        .collect()
}

fn main() {
    let mut net = SiriusConfig::scaled(32, 8);
    net.servers_per_node = 8;
    net.server_rate = Rate::from_gbps(50);

    // Part 1: packet-granular RPCs with fan-out 16.
    println!("== single-packet RPCs, fan-out 16, production size mixture ==");
    println!(
        "{:>12} {:>10} {:>12} {:>12} {:>12}",
        "pkts/s/srv", "offered", "p50", "p99", "p99.9"
    );
    let servers = net.total_servers() as u32;
    let sizes = PacketSizes::production_cloud();
    for pps in [100_000.0, 500_000.0, 2_000_000.0] {
        let wl = single_packet_rpcs(servers, &sizes, pps, 16, 20_000, 11);
        let mut cfg = SiriusSimConfig::new(net.clone()).with_seed(1);
        cfg.drain_timeout = Duration::from_ms(2);
        let m = SiriusSim::new(cfg).run(&wl);
        let latency = |p| {
            m.fct_percentile(p, u64::MAX)
                .map_or("-".into(), |d| format!("{d}"))
        };
        println!(
            "{:>12} {:>9.1}G {:>12} {:>12} {:>12}",
            pps as u64,
            pps * servers as f64 * sizes.mean() * 8.0 / 1e9,
            latency(50.0),
            latency(99.0),
            latency(99.9),
        );
    }

    // Part 2: bursty flows vs the queue threshold Q.
    println!("\n== ON/OFF bursts vs congestion-control threshold Q ==");
    println!(
        "{:>10} {:>12} {:>4} {:>12} {:>14}",
        "burstiness", "peak/mean", "Q", "p99 FCT", "peak queue (B)"
    );
    for burstiness in [1.0, 6.0] {
        let spec = BurstySpec {
            servers: net.total_servers() as u32,
            server_rate: Rate::from_bps(net.node_bandwidth().as_bps() / 8),
            load: 0.4,
            burstiness,
            mean_on_secs: 20e-6,
            sizes: Pareto::paper_default().truncated(1e6),
            flows: 8_000,
            seed: 13,
        };
        let wl = spec.generate();
        let ptm = peak_to_mean(&wl, 20e-6);
        for q in [2usize, 4] {
            let mut n = net.clone();
            n.queue_threshold = q;
            let mut cfg = SiriusSimConfig::new(n).with_seed(1);
            cfg.drain_timeout = Duration::from_ms(2);
            let m = SiriusSim::new(cfg).run(&wl);
            println!(
                "{:>10} {:>12.1} {:>4} {:>12} {:>14}",
                burstiness,
                ptm,
                q,
                m.fct_percentile(99.0, 100_000)
                    .map(|d| format!("{d}"))
                    .unwrap_or("-".into()),
                m.peak_node_fabric_bytes(),
            );
        }
    }
    println!("\nsmall Q keeps queues tight but sheds bursts; Q = 4 absorbs the");
    println!("storm without letting intermediate queues grow — Fig. 10's pick.");
}
