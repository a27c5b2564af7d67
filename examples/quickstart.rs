//! Quickstart: build a Sirius network, inspect its schedule, run a small
//! workload, and compare it against the idealized electrical baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sirius_core::schedule::{Schedule, SlotInEpoch};
use sirius_core::topology::{NodeId, UplinkId};
use sirius_core::SiriusConfig;
use sirius_sim::{EsnSim, SiriusSim, SiriusSimConfig};
use sirius_workload::{Pareto, Pattern, WorkloadSpec};

fn main() {
    // 1. A 32-rack Sirius deployment: 8-port gratings, 4 base uplinks per
    //    rack x 1.5 for load balancing, 50 Gbps channels, 100 ns slots.
    let mut net = SiriusConfig::scaled(32, 8);
    net.servers_per_node = 8;
    net.validate().expect("valid config");

    println!("Sirius deployment");
    println!("  racks               : {}", net.nodes);
    println!("  servers             : {}", net.total_servers());
    println!(
        "  uplinks per rack    : {} (base {})",
        net.total_uplinks(),
        net.base_uplinks
    );
    println!("  slot / epoch        : {} / {}", net.slot(), net.epoch());

    // 2. The scheduler-less cyclic schedule: every rack pair is connected
    //    at least once per epoch, with zero runtime computation.
    let sched = Schedule::new(&net);
    let (a, b) = (NodeId(3), NodeId(17));
    let conns = sched.connections(a, b);
    println!("\nschedule: {a} reaches {b} via");
    for c in &conns {
        println!(
            "  uplink {} at epoch slot {} (wavelength {})",
            c.uplink.0,
            c.slot.0,
            sched.wavelength(c.slot).0
        );
    }
    assert_eq!(sched.dest(a, conns[0].uplink, conns[0].slot), b);
    let u0 = UplinkId(0);
    println!(
        "  (and its self-calibration slot: dest(n3, u0, t0) = {})",
        sched.dest(a, u0, SlotInEpoch(0))
    );

    // 3. A heavy-tailed workload at 50% load, as in the paper's §7.
    let spec = WorkloadSpec {
        servers: net.total_servers() as u32,
        server_rate: sirius_core::Rate::from_gbps(25),
        load: 0.5,
        sizes: Pareto::paper_default().truncated(1e6),
        flows: 4_000,
        pattern: Pattern::Uniform,
        seed: 42,
    };
    let wl = spec.generate();
    println!(
        "\nworkload: {} flows, mean size {:.0} B, span {:.2} ms",
        wl.len(),
        spec.sizes.effective_mean(),
        wl.last().unwrap().arrival.as_ms_f64()
    );

    // 4. Run Sirius (request/grant congestion control) ...
    let m = SiriusSim::new(SiriusSimConfig::new(net.clone()).with_seed(1)).run(&wl);
    let servers = net.total_servers() as u64;
    let rate = sirius_core::Rate::from_gbps(25);
    // Goodput over the offered-load window (same horizon for both systems).
    let horizon = wl.last().unwrap().arrival;
    println!("\nSirius results");
    println!(
        "  completed flows     : {}/{}",
        m.completed_flows(),
        wl.len()
    );
    println!(
        "  p99 FCT (short)     : {}",
        m.fct_percentile(99.0, 100_000).unwrap()
    );
    println!(
        "  goodput (window)    : {:.3}",
        m.goodput_within(horizon, servers, rate)
    );
    println!("  peak queue per rack : {} B", m.peak_node_fabric_bytes());
    println!(
        "  peak reorder buffer : {} B/flow",
        m.peak_reorder_flow_bytes
    );

    // 5. ... and the idealized non-blocking electrical network.
    let e = EsnSim::new(sirius_sim::EsnConfig {
        servers: net.total_servers() as u32,
        server_rate: rate,
        servers_per_rack: net.servers_per_node as u32,
        oversubscription: 1.0,
        base_latency: sirius_core::Duration::from_us(3),
    })
    .run(&wl);
    println!("\nESN (Ideal) results");
    println!(
        "  p99 FCT (short)     : {}",
        e.fct_percentile(99.0, 100_000).unwrap()
    );
    println!(
        "  goodput (window)    : {:.3}",
        e.goodput_within(horizon, servers, rate)
    );

    println!("\nSirius approximates the ideal electrical fabric — at a fraction");
    println!("of the power (run `cargo run -p sirius-bench --bin xp -- fig6`).");
}
