//! End-to-end integration: workload generation -> Sirius simulation ->
//! metrics, across crates.

use sirius::core::topology::NodeId;
use sirius::core::units::{Duration, Rate, Time};
use sirius::core::SiriusConfig;
use sirius::sim::{CcMode, FaultInjector, SiriusSim, SiriusSimConfig};
use sirius::workload::{trace, Flow, Pareto, Pattern, WorkloadSpec};

fn net() -> SiriusConfig {
    let mut c = SiriusConfig::scaled(16, 4);
    c.servers_per_node = 2;
    c.server_rate = Rate::from_gbps(100);
    c
}

fn workload(load: f64, flows: u64, seed: u64) -> Vec<Flow> {
    WorkloadSpec {
        servers: 32,
        server_rate: Rate::from_gbps(100),
        load,
        sizes: Pareto::paper_default().truncated(1e6),
        flows,
        pattern: Pattern::Uniform,
        seed,
    }
    .generate()
}

#[test]
fn every_byte_is_delivered_exactly_once_in_order() {
    let wl = workload(0.3, 800, 1);
    let m = SiriusSim::new(SiriusSimConfig::new(net())).run(&wl);
    assert_eq!(m.incomplete_flows, 0);
    assert_eq!(
        m.delivered_bytes,
        wl.iter().map(|f| f.bytes).sum::<u64>(),
        "byte conservation across the fabric"
    );
    // Every flow's completion is at or after its arrival.
    for (f, r) in wl.iter().zip(&m.flows) {
        assert!(r.completion.unwrap() > f.arrival);
        assert_eq!(r.bytes, f.bytes);
    }
}

#[test]
fn zero_byte_flows_complete_on_every_path() {
    // A zero-byte flow is legal trace input and crosses the fabric as one
    // empty cell; it completes when that cell is released in order, like
    // any other flow's last cell. Flow 0 crosses the fabric, flow 1 stays
    // inside its rack, flow 2 is the one-byte control.
    let mut net = SiriusConfig::scaled(16, 4);
    net.servers_per_node = 2;
    net.server_rate = Rate::from_gbps(50);
    let wl = trace::from_csv(
        "id,src_server,dst_server,bytes,arrival_ps\n0,0,5,0,0\n1,0,1,0,0\n2,2,7,1,1000\n",
    )
    .unwrap();
    let cfg = SiriusSimConfig::new(net).with_audit(true);
    let slice = SiriusSim::new(cfg.clone()).run(&wl);
    let streamed = SiriusSim::new(cfg).run_streaming(wl.iter().cloned());
    for m in [&slice, &streamed] {
        assert_eq!(m.incomplete_flows, 0);
        assert_eq!(m.cells_delivered, 2, "one cell each for flows 0 and 2");
        assert_eq!(m.delivered_bytes, 1);
        assert!(m.audit.as_ref().unwrap().is_clean());
    }
    assert!(slice.flows.iter().all(|f| f.completion.is_some()));
}

#[test]
fn protocol_and_ideal_modes_agree_on_delivered_work() {
    let wl = workload(0.4, 600, 2);
    let total: u64 = wl.iter().map(|f| f.bytes).sum();
    for mode in [CcMode::Protocol, CcMode::Ideal] {
        let m = SiriusSim::new(SiriusSimConfig::new(net()).with_mode(mode)).run(&wl);
        assert_eq!(m.delivered_bytes, total, "{mode:?} lost bytes");
    }
}

#[test]
fn single_cell_flow_latency_is_a_few_epochs() {
    // The §4.3 trade-off: "this will introduce an initial epoch-length
    // worth of latency for each flow" — a one-cell flow completes within
    // a handful of epochs, never milliseconds.
    let n = net();
    let wl = vec![Flow {
        id: 0,
        src_server: 0,
        dst_server: 9, // different rack
        bytes: 100,
        arrival: Time::ZERO,
    }];
    let m = SiriusSim::new(SiriusSimConfig::new(n.clone())).run(&wl);
    let fct = m.flows[0].fct().unwrap();
    assert!(
        fct >= n.epoch(),
        "cannot beat the request/grant pipeline: {fct}"
    );
    assert!(fct < n.epoch() * 10, "one cell took {fct}");
}

#[test]
fn ideal_mode_beats_protocol_latency_for_one_cell() {
    let n = net();
    let wl = vec![Flow {
        id: 0,
        src_server: 0,
        dst_server: 9,
        bytes: 100,
        arrival: Time::ZERO,
    }];
    let p = SiriusSim::new(SiriusSimConfig::new(n.clone())).run(&wl);
    let i = SiriusSim::new(SiriusSimConfig::new(n).with_mode(CcMode::Ideal)).run(&wl);
    assert!(
        i.flows[0].fct().unwrap() < p.flows[0].fct().unwrap(),
        "ideal {} !< protocol {}",
        i.flows[0].fct().unwrap(),
        p.flows[0].fct().unwrap()
    );
}

#[test]
fn reorder_buffer_stays_small_at_moderate_load() {
    // §4.2: "due to the low queuing ensured by the congestion control,
    // only a small reordering buffer is sufficient". At this 16-node
    // scale the per-pair slot budget is tight (see baselines.rs), so we
    // assert at a comfortable load; the paper-scale number (163 KB/flow)
    // is reproduced by the fig10 harness.
    let wl = workload(0.3, 1500, 3);
    let m = SiriusSim::new(SiriusSimConfig::new(net())).run(&wl);
    assert!(
        m.peak_reorder_flow_bytes < 400_000,
        "reorder buffer blew up: {} B (paper: 163 KB at paper scale)",
        m.peak_reorder_flow_bytes
    );
}

#[test]
fn overload_is_graceful_not_fatal() {
    // At 1.3x offered load the fabric cannot drain, but the run must
    // terminate at the drain timeout with partial delivery, not hang or
    // panic.
    let wl = workload(1.3, 1200, 4);
    let mut cfg = SiriusSimConfig::new(net());
    cfg.drain_timeout = Duration::from_ms(1);
    let m = SiriusSim::new(cfg).run(&wl);
    assert!(m.delivered_bytes > 0);
    assert!(m.completed_flows() > 0);
}

#[test]
fn results_identical_across_repeated_runs() {
    let wl = workload(0.6, 700, 5);
    let run = || {
        let m = SiriusSim::new(SiriusSimConfig::new(net()).with_seed(9)).run(&wl);
        (
            m.delivered_bytes,
            m.peak_node_fabric_cells,
            m.peak_reorder_flow_bytes,
            m.flows.iter().map(|f| f.completion).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run(), "simulation must be deterministic");
}

#[test]
fn permutation_and_incast_patterns_complete() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(6);
    for pattern in [
        Pattern::random_permutation(&mut rng, 32),
        Pattern::Incast {
            targets: vec![4, 9],
        },
    ] {
        let wl = WorkloadSpec {
            servers: 32,
            server_rate: Rate::from_gbps(100),
            load: 0.2,
            sizes: Pareto::paper_default().truncated(1e5),
            flows: 300,
            pattern,
            seed: 7,
        }
        .generate();
        let m = SiriusSim::new(SiriusSimConfig::new(net())).run(&wl);
        assert_eq!(m.incomplete_flows, 0);
    }
}

#[test]
fn malformed_workload_unwinds_instead_of_hanging() {
    // A flow naming a server outside the deployment is rejected at its
    // admission — mid-run, inside the slot loop. Each run goes on a
    // helper thread and has to report its panic in bounded time, through
    // both entry points — the streaming one also with a fault script
    // armed (a crash at epoch 0 puts the run on the armed TX arm before
    // the bad flow arrives).
    use std::sync::mpsc;
    let flows = vec![
        Flow {
            id: 0,
            src_server: 0,
            dst_server: 9,
            bytes: 50_000,
            arrival: Time::ZERO,
        },
        Flow {
            id: 1,
            src_server: 3,
            dst_server: 32, // servers are 0..32
            bytes: 50_000,
            arrival: Time::ZERO + Duration::from_us(10),
        },
    ];
    for (streaming, faulty) in [(true, false), (false, false), (true, true)] {
        let flows = flows.clone();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let cfg = SiriusSimConfig::new(net());
            let mut sim = SiriusSim::new(cfg);
            if faulty {
                sim.set_faults(FaultInjector::new(1).crash(NodeId(7), 0));
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if streaming {
                    sim.run_streaming(flows.into_iter())
                } else {
                    sim.run(&flows)
                }
            }));
            let _ = tx.send(outcome.map(|m| m.digest));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| {
                panic!("streaming={streaming} faulty={faulty}: the run hung on its own panic")
            });
        let payload = outcome.expect_err("an out-of-range server was accepted");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("outside the deployment"),
            "streaming={streaming} faulty={faulty}: unexpected panic {msg:?}"
        );
    }
}
