//! Fault-tolerance integration suite (§4.5): the quantitative robustness
//! claims of the paper, measured end-to-end through the emergent
//! detection pipeline.
//!
//! * Detection latency: silence on scheduled slots is noticed within
//!   `SILENCE_THRESHOLD + 1` epochs — "a few microseconds" at the paper's
//!   1.6 us epoch.
//! * Graceful degradation: with `k` of `N` nodes down, post-failure
//!   goodput tracks `AdjustedSchedule::capacity_factor = 1 - k/N` within
//!   5% (measured for k = 1, 4, 16 of 32).
//! * Grey failures are localized to the degraded TX column, and every
//!   lost cell is attributed to a declared fault window.
//! * Link-granular repair: a single grey TX column costs `1/(N*U)` of
//!   capacity (one schedule column), not the `1/N` the whole-node §4.5
//!   rule would pay — measured as goodput >= `1 - k/(N*U)` - 5% for `k`
//!   single-column faults, strictly above the `1 - k/N` node floor on
//!   the same fault script.
//! * Fault scripts perturb nothing they shouldn't: double runs stay
//!   bit-identical.

use sirius::core::fault::SILENCE_THRESHOLD;
use sirius::core::topology::NodeId;
use sirius::core::units::{Duration, Rate, Time};
use sirius::core::SiriusConfig;
use sirius::optics::ber::Modulation;
use sirius::sim::{FaultInjector, RunMetrics, SiriusSim, SiriusSimConfig};
use sirius::workload::{Flow, Pareto, Pattern, WorkloadSpec};

/// 32-rack network sized so the optical fabric (not the server NICs) is
/// the binding constraint at saturation: 4 uplinks x 50 Gbps = 200 Gbps
/// of fabric TX per node, halved by the two VLB hops, equals the 2 x 50
/// Gbps of attached servers. Only then does dead-slot capacity loss show
/// up as goodput loss.
fn fabric_limited_net() -> SiriusConfig {
    let mut c = SiriusConfig::scaled(32, 8);
    c.servers_per_node = 2;
    c.server_rate = Rate::from_gbps(50);
    c.uplink_factor = 1.0;
    c
}

/// Saturation workload over the first `servers` server IDs, with all
/// arrivals shifted past `start`: crashing the *last* racks before
/// `start` leaves a steady-state run among the survivors only.
fn survivor_workload(
    net: &SiriusConfig,
    servers: u32,
    flows: u64,
    seed: u64,
    start: Time,
) -> Vec<Flow> {
    let mut wl = WorkloadSpec {
        servers,
        server_rate: net.server_rate,
        load: 1.0,
        sizes: Pareto::paper_default().truncated(1e5),
        flows,
        pattern: Pattern::Uniform,
        seed,
    }
    .generate();
    for f in &mut wl {
        f.arrival += start.since(Time::ZERO);
    }
    wl
}

fn goodput(m: &RunMetrics, horizon: Time, servers: u64, rate: Rate) -> f64 {
    m.goodput_within(horizon, servers, rate)
}

#[test]
fn goodput_tracks_capacity_factor_for_1_4_16_failed_nodes() {
    let net = fabric_limited_net();
    let n = net.nodes as u32;
    let start = net.epoch() * 12; // routing settles before traffic starts
    for failed in [1u32, 4, 16] {
        let survivors = n - failed;
        let servers = survivors * net.servers_per_node as u32;
        // Scale flow count with the survivor population so every variant
        // offers the same per-server load over a comparable span.
        let flows = servers as u64 * 60;
        let wl = survivor_workload(&net, servers, flows, 41, Time::ZERO + start);
        // Measure strictly inside the arrival span: saturation must hold
        // across the whole window for the ratio to mean capacity.
        let last = wl.last().unwrap().arrival.since(Time::ZERO).as_ps();
        let horizon = Time::from_ps(last * 4 / 5);
        assert!(
            horizon.since(Time::ZERO) > net.epoch() * 60,
            "span too short"
        );
        let mut cfg = SiriusSimConfig::new(net.clone()).with_seed(41);
        cfg.drain_timeout = Duration::from_ms(2);

        let healthy = SiriusSim::new(cfg.clone()).run(&wl);

        // Crash the last `failed` racks at epoch 0 — no flow touches
        // them, but every one of their schedule slots goes dark.
        let mut inj = FaultInjector::new(41);
        for k in 0..failed {
            inj.push(sirius::sim::FaultEvent::Crash {
                node: NodeId(n - 1 - k),
                epoch: 0,
            });
        }
        let degraded = SiriusSim::new(cfg).with_faults(inj).run(&wl);

        let fr = degraded.fault.as_ref().unwrap();
        let cf = fr.capacity_factor_end;
        let expect = 1.0 - failed as f64 / n as f64;
        assert!(
            (cf - expect).abs() < 1e-9,
            "{failed} failed: capacity factor {cf} != {expect}"
        );

        let rate = net.server_rate;
        let g_healthy = goodput(&healthy, horizon, servers as u64, rate);
        let g_degraded = goodput(&degraded, horizon, servers as u64, rate);
        assert!(g_healthy > 0.5, "healthy run not saturated: {g_healthy}");
        let ratio = g_degraded / g_healthy;
        assert!(
            (ratio - cf).abs() <= 0.05,
            "{failed}/{n} failed: goodput ratio {ratio:.4} vs capacity factor {cf:.4}"
        );
    }
}

#[test]
fn detection_latency_is_bounded_for_staggered_crashes() {
    // Four crashes at different epochs; every one must be suspected
    // within SILENCE_THRESHOLD + 1 epochs of its ground-truth death and
    // excluded exactly one update epoch later.
    let net = fabric_limited_net();
    let wl = survivor_workload(&net, 48, 1500, 43, Time::ZERO); // nodes 0..24
    let inj = FaultInjector::new(43)
        .crash(NodeId(28), 5)
        .crash(NodeId(29), 15)
        .crash(NodeId(30), 25)
        .crash(NodeId(31), 35);
    let mut cfg = SiriusSimConfig::new(net).with_seed(43).with_audit(true);
    cfg.drain_timeout = Duration::from_us(300);
    let m = SiriusSim::new(cfg).with_faults(inj).run(&wl);
    let fr = m.fault.unwrap();
    let threshold = SILENCE_THRESHOLD;
    assert_eq!(fr.failures.len(), 4);
    for rec in &fr.failures {
        let lat = rec
            .detection_epochs()
            .unwrap_or_else(|| panic!("{:?} never suspected", rec.node));
        assert!(
            lat <= threshold + 1,
            "{:?}: detection latency {lat} epochs",
            rec.node
        );
        assert_eq!(
            rec.excluded_at.unwrap(),
            rec.first_suspected.unwrap() + 1,
            "{:?}: exclusion not one update epoch after suspicion",
            rec.node
        );
    }
    assert!(m.audit.unwrap().is_clean());
}

#[test]
fn grey_failure_is_localized_and_attributed() {
    // One TX column degraded to -20 dBm receive power (essentially dead
    // through KP4 FEC): the per-column silence detector must localize
    // exactly that (node, uplink), and the audit must attribute every
    // lost cell to the declared grey window. The schedule connects each
    // pair exactly once per epoch, so the peers served by the dead column
    // genuinely lose all evidence the node is alive and suspect it — but
    // the repair is column-granular: only the suspect (uplink, slot)
    // column is dropped from the schedule, the node keeps relaying on its
    // healthy columns, and the whole-node §4.5 rule never fires. When the
    // grey window heals, the still-running keepalive carrier on the dead
    // slots readmits the column.
    let net = fabric_limited_net();
    let wl = survivor_workload(&net, net.total_servers() as u32, 1200, 47, Time::ZERO);
    let inj = FaultInjector::new(47).grey_link_from_ber(
        NodeId(7),
        2,
        -20.0,
        Modulation::Pam4_50,
        net.cell_bytes,
        4,
        300,
    );
    let mut cfg = SiriusSimConfig::new(net).with_seed(47).with_audit(true);
    cfg.drain_timeout = Duration::from_us(300);
    let m = SiriusSim::new(cfg).with_faults(inj).run(&wl);
    let fr = m.fault.unwrap();
    assert!(fr.cells_lost_grey > 0, "dead link lost nothing");
    assert_eq!(fr.grey_links_declared, 1);
    assert_eq!(
        fr.grey_links_localized, 1,
        "grey column not localized by the per-column detector"
    );
    assert_eq!(
        fr.exclusions, 0,
        "single grey column must not cost the whole node"
    );
    assert!(
        fr.column_omissions >= 1,
        "grey column was never dropped from the schedule"
    );
    assert!(
        fr.column_omissions <= 3,
        "grey column caused flapping repairs"
    );
    assert_eq!(
        fr.column_omissions, fr.column_readmissions,
        "healed grey column was not readmitted"
    );
    let rec = fr
        .links
        .iter()
        .find(|r| r.node == NodeId(7) && r.uplink == 2)
        .expect("no link record for the declared grey column");
    assert_eq!(
        rec.omitted_at.expect("suspected column never omitted"),
        rec.first_suspected + 1,
        "column omission not one update epoch after suspicion"
    );
    assert_eq!(
        fr.capacity_factor_end, 1.0,
        "grey link must not permanently cost capacity"
    );
    let audit = m.audit.unwrap();
    assert!(
        audit.is_clean(),
        "unattributed losses: {:?}",
        audit.violations.first()
    );
}

#[test]
fn bank_drift_detection_lags_the_ramp_but_lands_inside_the_window() {
    // Slow failure: chip 0 (capacity 4) of the laser bank feeding
    // (group 0, uplink 2) ages from -4 dBm (healthy) to -26 dBm (dead)
    // over epochs [50, 300). The AWGR input is 2 % 8 = 2, so channels
    // 0..4 land on output ports 2..6: nodes 2..6, column 2 grey out
    // *together*, with a drop probability that ramps with the power.
    //
    // The detection-latency claim under test: a drifting bank cannot be
    // caught at crash speed (`SILENCE_THRESHOLD + 1`) because the early
    // ramp still delivers almost every slot — suspicion necessarily
    // trails the ground-truth onset — but the per-column detector must
    // still localize the columns well before the window closes, never
    // escalate to whole-node exclusion, and the audit must attribute
    // every loss to the declared (ramp-long) grey windows.
    let net = fabric_limited_net();
    let wl = survivor_workload(&net, net.total_servers() as u32, 1200, 53, Time::ZERO);
    let (from, until) = (50u64, 300u64);
    let inj = FaultInjector::new(53).bank_drift(
        0,
        2,
        0,
        4,
        -4.0,
        -26.0,
        Modulation::Pam4_50,
        net.cell_bytes,
        from,
        until,
    );
    let mut cfg = SiriusSimConfig::new(net.clone())
        .with_seed(53)
        .with_audit(true);
    cfg.drain_timeout = Duration::from_us(300);
    let m = SiriusSim::new(cfg).with_faults(inj).run(&wl);
    let fr = m.fault.unwrap();
    assert!(fr.cells_lost_grey > 0, "drifting bank lost nothing");
    assert_eq!(fr.exclusions, 0, "column drift must not cost whole nodes");

    let blast: Vec<NodeId> = (2..6).map(NodeId).collect();
    for rec in &fr.links {
        assert!(
            blast.contains(&rec.node) && rec.uplink == 2,
            "suspicion leaked outside the chip's blast radius: {:?}/{}",
            rec.node,
            rec.uplink
        );
    }
    let suspected: Vec<_> = fr
        .links
        .iter()
        .filter(|r| blast.contains(&r.node) && r.uplink == 2)
        .collect();
    assert!(!suspected.is_empty(), "drift was never localized");
    let threshold = SILENCE_THRESHOLD;
    for rec in &suspected {
        let lat = rec.first_suspected - from;
        // Detection latency: slower than any fail-stop detection can be
        // (the early ramp is indistinguishable from healthy) ...
        assert!(
            lat > threshold + 1,
            "{:?}: drift suspected at crash speed ({lat} epochs) — \
             the ramp model is not actually gradual",
            rec.node
        );
        assert!(
            rec.first_suspected >= from + 30,
            "{:?}: suspected at epoch {} while the link was still healthy",
            rec.node,
            rec.first_suspected
        );
        // ... but still inside the fault window, off the near-dead tail
        // of the ramp.
        assert!(
            rec.first_suspected < until,
            "{:?}: not localized until after the window closed",
            rec.node
        );
    }
    assert!(
        fr.column_omissions >= 1,
        "no drifted column was ever repaired out of the schedule"
    );
    let audit = m.audit.unwrap();
    assert!(
        audit.is_clean(),
        "unattributed losses: {:?}",
        audit.violations.first()
    );
}

#[test]
fn single_column_repair_detects_omits_and_readmits_on_schedule() {
    // A fully dead TX column (erasure probability 1.0) over a bounded
    // window, timed exactly: suspicion within `SILENCE_THRESHOLD + 1`
    // epochs of the window opening, omission one update epoch later, and
    // readmission within a few epochs of the window healing — the same
    // latency bounds the node-granular pipeline proves for crashes, now
    // at 1/(N*U) capacity cost instead of 1/N.
    let net = fabric_limited_net();
    let n = net.nodes as f64;
    let u = 4.0; // uplinks at uplink_factor 1.0: g / groups_ratio
    let wl = survivor_workload(&net, net.total_servers() as u32, 600, 59, Time::ZERO);
    let inj = FaultInjector::new(59).grey_link(NodeId(7), 2, 1.0, 5, 60);
    let mut cfg = SiriusSimConfig::new(net).with_seed(59).with_audit(true);
    cfg.drain_timeout = Duration::from_us(300);
    let m = SiriusSim::new(cfg).with_faults(inj).run(&wl);
    let fr = m.fault.unwrap();
    let thr = SILENCE_THRESHOLD;

    assert_eq!(fr.exclusions, 0);
    assert_eq!(fr.column_omissions, 1);
    assert_eq!(fr.column_readmissions, 1);
    let rec = &fr.links[0];
    assert_eq!((rec.node, rec.uplink), (NodeId(7), 2));
    let sus = rec.first_suspected;
    assert!(
        (5..=5 + thr + 2).contains(&sus),
        "column suspected at {sus}, window opened at 5"
    );
    assert_eq!(
        rec.omitted_at.unwrap(),
        sus + 1,
        "omission not one update epoch after suspicion"
    );
    let readmit = rec.readmitted_at.expect("healed column never readmitted");
    assert!(
        (60..=60 + thr + 2).contains(&readmit),
        "readmission at {readmit}, window healed at 60"
    );
    // While omitted, exactly one of N*U columns is dark.
    assert_eq!(fr.capacity_factor_end, 1.0);
    let one_column = 1.0 / (n * u);
    assert!(one_column < 1.0 / n, "column cost must undercut node cost");
    let audit = m.audit.unwrap();
    assert!(audit.is_clean(), "{:?}", audit.violations.first());
}

#[test]
fn column_escalation_restores_the_whole_node_rule() {
    // Two of four TX columns dead on one node: at the default escalation
    // fraction (0.5) that is exactly the threshold, so the repair gives
    // up on column granularity and applies the paper's §4.5 whole-node
    // exclusion — and keepalives on the two surviving columns must NOT
    // resurrect the node while the suspect columns stay silent.
    let net = fabric_limited_net();
    let wl = survivor_workload(&net, 62, 800, 61, Time::ZERO); // nodes 0..31
    let inj = FaultInjector::new(61)
        .grey_link(NodeId(31), 0, 1.0, 0, u64::MAX)
        .grey_link(NodeId(31), 1, 1.0, 0, u64::MAX);
    let mut cfg = SiriusSimConfig::new(net.clone())
        .with_seed(61)
        .with_audit(true);
    cfg.drain_timeout = Duration::from_us(200);
    let m = SiriusSim::new(cfg).with_faults(inj).run(&wl);
    let fr = m.fault.unwrap();
    assert_eq!(
        fr.exclusions, 1,
        "half-dead node not escalated to exclusion"
    );
    assert_eq!(fr.readmissions, 0, "escalated node flapped back in");
    assert_eq!(
        fr.column_omissions, 0,
        "columns suspected together must escalate, not repair piecemeal"
    );
    let expect = 1.0 - 1.0 / net.nodes as f64;
    assert!(
        (fr.capacity_factor_end - expect).abs() < 1e-9,
        "escalated capacity {} != {expect}",
        fr.capacity_factor_end
    );
    let audit = m.audit.unwrap();
    assert!(audit.is_clean(), "{:?}", audit.violations.first());
}

#[test]
fn link_granular_repair_beats_node_granular_floor() {
    // The tentpole claim: for k single-column grey faults, column-granular
    // repair retains goodput >= 1 - k/(N*U) - 5%, strictly above the
    // 1 - k/N floor that whole-node exclusion (the escalation-fraction-0
    // comparison mode, i.e. the paper's §4.5 rule) pays on the *same*
    // fault script. Faults land on the last 4 nodes; traffic runs among
    // the other 28, so the ratio to the healthy run measures pure fabric
    // capacity, exactly like the crash-based capacity-factor test.
    let net = fabric_limited_net();
    let n = net.nodes as u32;
    let uplinks = 4u32;
    let k = 4u32;
    let survivors = n - k;
    let servers = survivors * net.servers_per_node as u32;
    let start = net.epoch() * 12; // repair settles before traffic starts
    let wl = survivor_workload(&net, servers, servers as u64 * 40, 67, Time::ZERO + start);
    let last = wl.last().unwrap().arrival.since(Time::ZERO).as_ps();
    let horizon = Time::from_ps(last * 4 / 5);
    let script = || {
        let mut inj = FaultInjector::new(67);
        for i in 0..k {
            inj = inj.grey_link(NodeId(n - 1 - i), 1, 1.0, 0, u64::MAX);
        }
        inj
    };
    let mut cfg = SiriusSimConfig::new(net.clone()).with_seed(67);
    cfg.drain_timeout = Duration::from_ms(2);

    let healthy = SiriusSim::new(cfg.clone()).run(&wl);
    let link = SiriusSim::new(cfg.clone()).with_faults(script()).run(&wl);
    let node = SiriusSim::new(cfg.clone().with_column_escalation_fraction(0.0))
        .with_faults(script())
        .run(&wl);

    // Column-granular: k columns dark, zero nodes excluded.
    let fl = link.fault.as_ref().unwrap();
    assert_eq!(fl.exclusions, 0, "column faults must not exclude nodes");
    assert_eq!(fl.column_omissions as u32, k);
    assert_eq!(fl.column_readmissions, 0, "permanently dead column healed?");
    let cf_link = 1.0 - k as f64 / (n * uplinks) as f64;
    assert!(
        (fl.capacity_factor_end - cf_link).abs() < 1e-9,
        "link-granular capacity {} != {cf_link}",
        fl.capacity_factor_end
    );

    // Node-granular comparison mode: the same script costs whole nodes.
    let fn_ = node.fault.as_ref().unwrap();
    assert_eq!(fn_.exclusions as u32, k, "node mode must exclude per fault");
    assert_eq!(fn_.readmissions, 0, "dead-column node flapped back in");
    assert_eq!(fn_.column_omissions, 0, "node mode must not repair columns");
    let cf_node = 1.0 - k as f64 / n as f64;
    assert!(
        (fn_.capacity_factor_end - cf_node).abs() < 1e-9,
        "node-granular capacity {} != {cf_node}",
        fn_.capacity_factor_end
    );

    // Goodput: link-granular holds the 1 - k/(N*U) bound and strictly
    // beats both the node-granular floor and the node-granular run.
    let rate = net.server_rate;
    let g_healthy = goodput(&healthy, horizon, servers as u64, rate);
    assert!(g_healthy > 0.5, "healthy run not saturated: {g_healthy}");
    let ratio_link = goodput(&link, horizon, servers as u64, rate) / g_healthy;
    let ratio_node = goodput(&node, horizon, servers as u64, rate) / g_healthy;
    assert!(
        ratio_link >= cf_link - 0.05,
        "link-granular goodput ratio {ratio_link:.4} below bound {cf_link:.4} - 5%"
    );
    assert!(
        (ratio_node - cf_node).abs() <= 0.05,
        "node-granular ratio {ratio_node:.4} off its {cf_node:.4} floor"
    );
    assert!(
        ratio_link > cf_node,
        "link-granular ratio {ratio_link:.4} not above the node floor {cf_node:.4}"
    );
    assert!(
        ratio_link > ratio_node,
        "link granularity did not beat node granularity ({ratio_link:.4} vs {ratio_node:.4})"
    );

    // Determinism: the repaired run replays bit-identically.
    let link2 = SiriusSim::new(cfg).with_faults(script()).run(&wl);
    assert_eq!(link.digest, link2.digest, "repaired run digest diverged");
    let fl2 = link2.fault.unwrap();
    assert_eq!(fl.column_omissions, fl2.column_omissions);
    assert_eq!(fl.cells_rerouted, fl2.cells_rerouted);
}

#[test]
fn correlated_bank_failure_is_one_domain_not_k_exclusions() {
    // The correlated-domain claim: a dead laser-bank chip (uplink 1) plus
    // a destroyed AWGR grating band (uplink 2) silence TWO columns on each
    // of four nodes of group 3 — exactly the per-node escalation threshold
    // (fraction 0.5 of 4 uplinks). Cross-node correlation must recognize
    // the fleet-wide column pattern and keep the repair column-granular:
    // 8 columns at 1/(N*U) each, ZERO whole-node exclusions — while the
    // node-granular comparison mode pays 4 whole nodes on the same script.
    let net = fabric_limited_net();
    let n = net.nodes as u32; // 32, groups of 8
    let uplinks = 4u32;
    let start = net.epoch() * 12;
    // Blast radius: chip 0 (channels 0..4) of the bank feeding input 1 of
    // group 3's uplink-1 AWGR dies -> outputs (1+w)%8 = ports 1..5 ->
    // nodes 25..29 on uplink 1; the grating band [1, 5) of the uplink-2
    // AWGR -> the same nodes 25..29 on uplink 2.
    let blast = 4u32;
    let servers = 48u32; // nodes 0..24 carry the traffic
    let wl = survivor_workload(&net, servers, servers as u64 * 40, 71, Time::ZERO + start);
    let last = wl.last().unwrap().arrival.since(Time::ZERO).as_ps();
    let horizon = Time::from_ps(last * 4 / 5);
    let script = || {
        FaultInjector::new(71)
            .bank_failure(3, 1, 0, 4, 0, u64::MAX)
            .grating_fault(3, 2, 1, 5, 0, u64::MAX)
    };
    let mut cfg = SiriusSimConfig::new(net.clone()).with_seed(71);
    cfg.drain_timeout = Duration::from_ms(2);

    let healthy = SiriusSim::new(cfg.clone()).run(&wl);
    let link = SiriusSim::new(cfg.clone()).with_faults(script()).run(&wl);
    let node = SiriusSim::new(cfg.clone().with_column_escalation_fraction(0.0))
        .with_faults(script())
        .run(&wl);

    // Correlated diagnosis: one domain per uplink column, each spanning
    // the four blast nodes, detected within the silence bound.
    let fl = link.fault.as_ref().unwrap();
    let thr = SILENCE_THRESHOLD;
    assert_eq!(
        fl.correlated_domains.len(),
        2,
        "expected one correlated domain per damaged uplink: {:?}",
        fl.correlated_domains
    );
    for d in &fl.correlated_domains {
        assert!(
            d.uplink == 1 || d.uplink == 2,
            "domain on uplink {}",
            d.uplink
        );
        assert_eq!(d.nodes, blast, "domain width {} != blast radius", d.nodes);
        assert!(
            d.detected_at <= thr + 1,
            "domain detected at {} epochs",
            d.detected_at
        );
    }
    // Repair stayed column-granular: 2 columns per blast node, no
    // whole-node exclusions despite each node sitting AT the escalation
    // threshold — that suppression is exactly the blast-radius bound.
    assert_eq!(fl.exclusions, 0, "correlated domain cost whole nodes");
    assert_eq!(fl.column_omissions as u32, 2 * blast);
    assert_eq!(fl.column_readmissions, 0, "dead domain healed?");
    for rec in &fl.links {
        assert!(
            rec.first_suspected <= thr + 1,
            "column ({:?},{}) suspected at {}",
            rec.node,
            rec.uplink,
            rec.first_suspected
        );
        assert_eq!(
            rec.omitted_at.expect("suspected column never omitted"),
            rec.first_suspected + 1
        );
    }
    let cf_link = 1.0 - (2 * blast) as f64 / (n * uplinks) as f64;
    assert!(
        (fl.capacity_factor_end - cf_link).abs() < 1e-9,
        "correlated capacity {} != {cf_link}",
        fl.capacity_factor_end
    );

    // Node-granular comparison mode: the same physics costs 4 whole nodes.
    let fn_ = node.fault.as_ref().unwrap();
    assert_eq!(
        fn_.exclusions as u32, blast,
        "node mode must pay the k/N floor"
    );
    assert_eq!(fn_.column_omissions, 0);
    let cf_node = 1.0 - blast as f64 / n as f64;
    assert!(
        (fn_.capacity_factor_end - cf_node).abs() < 1e-9,
        "node-granular capacity {} != {cf_node}",
        fn_.capacity_factor_end
    );
    assert!(cf_link > cf_node, "column repair must beat the node floor");

    // Goodput follows the capacity factors: the correlated repair holds
    // its k/(N*U) bound and beats the node-granular run on the same
    // script.
    let rate = net.server_rate;
    let g_healthy = goodput(&healthy, horizon, servers as u64, rate);
    assert!(g_healthy > 0.5, "healthy run not saturated: {g_healthy}");
    let ratio_link = goodput(&link, horizon, servers as u64, rate) / g_healthy;
    let ratio_node = goodput(&node, horizon, servers as u64, rate) / g_healthy;
    assert!(
        ratio_link >= cf_link - 0.05,
        "correlated goodput ratio {ratio_link:.4} below {cf_link:.4} - 5%"
    );
    assert!(
        ratio_link > ratio_node,
        "column-granular domain repair did not beat node granularity \
         ({ratio_link:.4} vs {ratio_node:.4})"
    );

    // Determinism: the correlated-repair run replays bit-identically.
    let link2 = SiriusSim::new(cfg).with_faults(script()).run(&wl);
    assert_eq!(link.digest, link2.digest, "correlated run digest diverged");
}

#[test]
fn byzantine_node_is_filtered_and_quarantined() {
    // A compromised node forges cells on its idle slots and floods
    // intermediates with counterfeit requests. The RX-side filter must
    // drop EVERY counterfeit (header validation against the flow table
    // and the epoch schedule), attribute them to the true transmitter,
    // and quarantine the liar after one epoch over the threshold — with
    // honest traffic completing untouched and conservation exact.
    let mut net = SiriusConfig::scaled(16, 4);
    net.servers_per_node = 2;
    net.server_rate = Rate::from_gbps(50);
    let liar = NodeId(15);
    // Traffic among nodes 0..15 only; the liar's own slots stay idle, so
    // its forge probability applies to every scheduled opportunity.
    let wl = survivor_workload(&net, 30, 600, 73, Time::ZERO);
    let script = || FaultInjector::new(73).byzantine(liar, 0.9, 8, 0, u64::MAX);
    let mut cfg = SiriusSimConfig::new(net.clone())
        .with_seed(73)
        .with_audit(true);
    cfg.drain_timeout = Duration::from_ms(4);
    let m = SiriusSim::new(cfg.clone()).with_faults(script()).run(&wl);
    let fr = m.fault.as_ref().unwrap();

    // The attack ran: cells were forged and requests inflated.
    assert!(fr.cells_forged > 0, "no cells forged");
    assert!(fr.requests_forged > 0, "no requests forged");
    // Damage bound: every forged cell that landed was caught by the RX
    // filter — none was ever delivered (conservation would break and the
    // audit below would flag it).
    assert_eq!(
        fr.cells_forged_dropped, fr.cells_forged,
        "a counterfeit escaped the RX filter"
    );
    assert!(fr.max_forged_per_epoch > 0);
    // Quarantine: attributed to the right node, within a few epochs,
    // sticky (healthy keepalives must not readmit a liar).
    assert_eq!(
        fr.byz_quarantined.len(),
        1,
        "liar not quarantined exactly once"
    );
    let q = &fr.byz_quarantined[0];
    assert_eq!(q.node, liar, "quarantined the wrong node");
    assert!(
        q.quarantined_at <= 4,
        "quarantine at epoch {}",
        q.quarantined_at
    );
    assert_eq!(fr.exclusions, 1, "quarantine must exclude the liar");
    assert_eq!(fr.readmissions, 0, "quarantined liar flapped back in");
    // Honest traffic is unharmed and the ledger balances with forgery
    // accounted (forged cells live outside flow conservation).
    assert_eq!(
        m.incomplete_flows, 0,
        "Byzantine node stranded honest flows"
    );
    let audit = m.audit.as_ref().unwrap();
    assert!(audit.is_clean(), "{:?}", audit.violations.first());

    // Determinism: forge draws ride the per-node fault streams.
    let m2 = SiriusSim::new(cfg).with_faults(script()).run(&wl);
    assert_eq!(m.digest, m2.digest, "Byzantine run digest diverged");
    let fr2 = m2.fault.as_ref().unwrap();
    assert_eq!(fr.cells_forged, fr2.cells_forged);
    assert_eq!(fr.requests_forged, fr2.requests_forged);
}

#[test]
fn fault_scripts_keep_double_runs_bit_identical() {
    // The injector draws from its own RNG stream, once per scheduled
    // slot — never per cell — so an identical (config, seed, script)
    // reruns to the same digest even with every fault class active.
    let net = fabric_limited_net();
    let wl = survivor_workload(&net, 48, 600, 53, Time::ZERO);
    let run = || {
        let inj = FaultInjector::new(53)
            .crash(NodeId(30), 10)
            .recover(NodeId(30), 80)
            .grey_link(NodeId(5), 1, 0.3, 20, 120)
            .mistune(NodeId(9), 2, 140, 180)
            .control_loss(0.2, 0, 200);
        let mut cfg = SiriusSimConfig::new(net.clone()).with_seed(53);
        cfg.drain_timeout = Duration::from_us(300);
        SiriusSim::new(cfg).with_faults(inj).run(&wl)
    };
    let a = run();
    let b = run();
    assert_eq!(a.digest, b.digest, "fault run digest diverged");
    assert_eq!(a.delivered_bytes, b.delivered_bytes);
    let fa = a.fault.unwrap();
    let fb = b.fault.unwrap();
    assert_eq!(fa.cells_lost_grey, fb.cells_lost_grey);
    assert_eq!(fa.cells_lost_mistune, fb.cells_lost_mistune);
    assert_eq!(fa.requests_lost, fb.requests_lost);
    assert_eq!(fa.grants_lost, fb.grants_lost);
    assert_eq!(fa.suspicion_events, fb.suspicion_events);
    assert_eq!(fa.column_omissions, fb.column_omissions);
    assert_eq!(fa.column_readmissions, fb.column_readmissions);
    assert_eq!(fa.cells_rerouted, fb.cells_rerouted);
    // The script actually exercised each class.
    assert!(fa.cells_lost_grey > 0);
    assert!(fa.requests_lost + fa.grants_lost > 0);
}
