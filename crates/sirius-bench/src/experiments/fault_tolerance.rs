//! §4.5 fault tolerance, measured end-to-end through the emergent
//! silence-detection pipeline: detection latency for scripted crashes,
//! goodput degradation vs the `1 - failed/N` capacity line, and grey-link
//! localization accuracy across receive-power levels.
//!
//! Every §4.5 run — here, in `repair_granularity` and in
//! `correlated_faults` — is one [`Survivor`] run: the *fabric-limited*
//! variant of the scale's network ([`fabric_limited_net`]: `uplink_factor`
//! 1.0, two servers per rack sized so fabric TX exactly balances NIC
//! injection across the two VLB hops; only when the optical fabric is the
//! binding constraint does dead-slot capacity loss show up as goodput loss
//! instead of vanishing into uplink headroom), a saturation workload over
//! the racks that survive, and an optional fault script. Its goodput is
//! measured over the first 4/5 of the arrival span, so a ratio means
//! capacity, not drain behavior.
//!
//! The link-vs-node comparison ([`repair_sweep`]) runs each fault size
//! under three [`Arm`]s — healthy, column-granular repair, and the paper's
//! whole-node rule — and `repair_granularity` and `correlated_faults` are
//! that one comparison under two fault scripts.

use crate::pool::Sweep;
use crate::scale::Scale;
use crate::table::{f, Table};
use sirius_core::config::SiriusConfig;
use sirius_core::fault::SILENCE_THRESHOLD;
use sirius_core::topology::NodeId;
use sirius_core::units::{Duration, Rate, Time};
use sirius_optics::ber::Modulation;
use sirius_sim::{
    cell_drop_probability, FaultInjector, FaultReport, RunMetrics, SiriusSim, SiriusSimConfig,
};
use sirius_workload::{Pareto, Pattern, WorkloadSpec};

/// Receive-power sweep for the grey-link localization curve, bracketing
/// the KP4 FEC waterfall (per-cell drop ~1e-15 at -8 dBm, ~1 by -10): a
/// clean column, two points on the cliff, and a dead column.
pub const GREY_RX_DBM: [f64; 4] = [-8.0, -8.75, -9.0, -12.0];

/// Fabric-limited network at this scale's rack count: 2 servers per rack
/// with `server_rate` chosen so `2 x rate x 2 VLB hops = base_uplinks x
/// channel_rate`.
pub fn fabric_limited_net(scale: Scale) -> SiriusConfig {
    let base = scale.network();
    let mut c = SiriusConfig::scaled(base.nodes, base.grating_ports);
    c.uplink_factor = 1.0;
    c.servers_per_node = 2;
    c.server_rate = Rate::from_bps(c.channel_rate.as_bps() * c.base_uplinks as u64 / 4);
    c
}

/// One §4.5 survivor run on [`fabric_limited_net`].
#[derive(Debug, Clone, Copy)]
pub struct Survivor {
    /// Racks left dark: the last `dark` racks source and sink nothing, so
    /// crashing or blinding them leaves a steady state among the rest.
    pub dark: u32,
    /// Saturation flows per surviving server.
    pub flows_per_server: u64,
    /// Shift every arrival past 12 epochs so routing settles first.
    pub settle: bool,
    /// How long the run may drain after the last arrival.
    pub drain: Duration,
    /// Force the invariant audit on (otherwise the build's default).
    pub audit: bool,
    /// Repair by the paper's whole-node rule: the first suspected column
    /// escalates to a node exclusion (column-escalation fraction 0).
    pub whole_node: bool,
}

impl Survivor {
    /// Run it with `faults` attached, if any. Returns the survivors'
    /// goodput over the first 4/5 of the arrival span, and the metrics.
    pub fn run(self, scale: Scale, seed: u64, faults: Option<FaultInjector>) -> (f64, RunMetrics) {
        let net = fabric_limited_net(scale);
        let servers = (net.nodes as u32 - self.dark) * net.servers_per_node as u32;
        let mut wl = WorkloadSpec {
            servers,
            server_rate: net.server_rate,
            load: 1.0,
            sizes: Pareto::paper_default().truncated(1e5),
            flows: servers as u64 * self.flows_per_server,
            pattern: Pattern::Uniform,
            seed,
        }
        .generate();
        if self.settle {
            for fl in &mut wl {
                fl.arrival += net.epoch() * 12;
            }
        }
        let horizon = Time::from_ps(wl.last().unwrap().arrival.as_ps() * 4 / 5);
        let mut cfg = SiriusSimConfig::new(net.clone()).with_seed(seed);
        cfg.drain_timeout = self.drain;
        if self.audit {
            cfg = cfg.with_audit(true);
        }
        if self.whole_node {
            cfg = cfg.with_column_escalation_fraction(0.0);
        }
        let mut sim = SiriusSim::new(cfg);
        if let Some(faults) = faults {
            sim = sim.with_faults(faults);
        }
        let m = sim.run(&wl);
        let goodput = m.goodput_within(horizon, servers as u64, net.server_rate);
        (goodput, m)
    }
}

/// The §4.5 silence bound every detection latency must respect.
pub fn silence_bound() -> u64 {
    SILENCE_THRESHOLD + 1
}

/// One scripted crash and what the silence detectors made of it.
#[derive(Debug, Clone)]
pub struct DetectionPoint {
    pub node: u32,
    pub fail_epoch: u64,
    /// Epochs from ground-truth death to first suspicion (None: missed).
    pub latency_epochs: Option<u64>,
    /// Epochs from suspicion to routing exclusion taking effect.
    pub exclusion_gap: Option<u64>,
    /// The §4.5 bound every latency must respect.
    pub bound_epochs: u64,
}

/// Four staggered crashes, detected purely from slot-level silence.
pub fn detection_points(scale: Scale, seed: u64) -> Vec<DetectionPoint> {
    let n = fabric_limited_net(scale).nodes as u32;
    let victims = 4u32.min(n / 4);
    let crashes = (0..victims).fold(FaultInjector::new(seed), |inj, k| {
        inj.crash(NodeId(n - 1 - k), 5 + 10 * k as u64)
    });
    let run = Survivor {
        dark: victims,
        flows_per_server: 30,
        settle: false,
        drain: Duration::from_us(300),
        audit: true,
        whole_node: false,
    };
    let (_, m) = run.run(scale, seed, Some(crashes));
    let fr = m.fault.expect("fault report missing");
    fr.failures
        .iter()
        .map(|rec| DetectionPoint {
            node: rec.node.0,
            fail_epoch: rec.fail_epoch,
            latency_epochs: rec.detection_epochs(),
            exclusion_gap: rec.excluded_at.zip(rec.first_suspected).map(|(e, s)| e - s),
            bound_epochs: silence_bound(),
        })
        .collect()
}

/// Saturation goodput with `failed` of `nodes` racks dark, against the
/// `capacity_factor = 1 - failed/N` line.
#[derive(Debug, Clone)]
pub struct GoodputPoint {
    pub failed: u32,
    pub nodes: u32,
    pub capacity_factor: f64,
    /// Degraded / healthy goodput over the same saturated horizon.
    pub goodput_ratio: f64,
}

/// One point of the goodput-vs-failed-nodes sweep: a healthy and a
/// degraded run over the same survivors, the `failed` last racks crashed
/// from the start.
pub fn goodput_point(scale: Scale, seed: u64, failed: u32) -> GoodputPoint {
    let n = fabric_limited_net(scale).nodes as u32;
    let crashes = (0..failed).fold(FaultInjector::new(seed), |inj, k| {
        inj.crash(NodeId(n - 1 - k), 0)
    });
    let run = Survivor {
        dark: failed,
        flows_per_server: 60,
        settle: true,
        drain: Duration::from_ms(2),
        audit: false,
        whole_node: false,
    };
    let (healthy, _) = run.run(scale, seed, None);
    let (degraded, m) = run.run(scale, seed, Some(crashes));
    GoodputPoint {
        failed,
        nodes: n,
        capacity_factor: m.fault.unwrap().capacity_factor_end,
        goodput_ratio: degraded / healthy,
    }
}

/// One grey-link run: a single TX column degraded to `rx_dbm`, and
/// whether the per-column silence detector localized it.
#[derive(Debug, Clone)]
pub struct GreyPoint {
    pub rx_dbm: f64,
    /// Per-cell drop probability the BER model assigns at this power.
    pub drop_prob: f64,
    pub cells_lost: u64,
    pub localized: bool,
    /// Whole-node exclusions the dead column provoked (zero when the
    /// link-granular repair path confines it to its column).
    pub exclusions: u64,
    pub readmissions: u64,
    pub audit_clean: bool,
}

/// Grey-link localization at one receive power: a marginal link loses
/// little and stays invisible; a dead column must be localized to exactly
/// its (node, uplink) without permanently excluding the node.
pub fn grey_point(scale: Scale, seed: u64, rx_dbm: f64) -> GreyPoint {
    let cell_bytes = fabric_limited_net(scale).cell_bytes;
    let grey = FaultInjector::new(seed).grey_link_from_ber(
        NodeId(7),
        2,
        rx_dbm,
        Modulation::Pam4_50,
        cell_bytes,
        4,
        300,
    );
    let run = Survivor {
        dark: 0,
        flows_per_server: 25,
        settle: false,
        drain: Duration::from_us(300),
        audit: true,
        whole_node: false,
    };
    let (_, m) = run.run(scale, seed, Some(grey));
    let fr = m.fault.expect("fault report missing");
    GreyPoint {
        rx_dbm,
        drop_prob: cell_drop_probability(rx_dbm, Modulation::Pam4_50, cell_bytes),
        cells_lost: fr.cells_lost_grey,
        localized: fr.grey_links_localized == fr.grey_links_declared,
        exclusions: fr.exclusions,
        readmissions: fr.readmissions,
        audit_clean: m.audit.is_some_and(|a| a.is_clean()),
    }
}

/// The full §4.5 evaluation.
pub struct Points {
    pub detection: Vec<DetectionPoint>,
    pub goodput: Vec<GoodputPoint>,
    pub grey: Vec<GreyPoint>,
}

/// Failed-node sweep proportional to the rack count.
pub fn failed_sweep(nodes: u32) -> Vec<u32> {
    let mut ks = vec![1, nodes / 8, nodes / 2];
    ks.dedup();
    ks
}

pub fn run(scale: Scale, seed: u64, jobs: usize) -> Points {
    let n = fabric_limited_net(scale).nodes as u32;
    let mut goodput = Sweep::new();
    for k in failed_sweep(n) {
        goodput.push(format!("fault_tolerance goodput failed={k}"), move || {
            goodput_point(scale, seed, k)
        });
    }
    let mut grey = Sweep::new();
    for dbm in GREY_RX_DBM {
        grey.push(format!("fault_tolerance grey rx={dbm}dBm"), move || {
            grey_point(scale, seed, dbm)
        });
    }
    Points {
        detection: detection_points(scale, seed),
        goodput: goodput.run(jobs),
        grey: grey.run(jobs),
    }
}

pub fn tables(points: &Points) -> (Table, Table, Table) {
    let mut det = Table::new(
        "§4.5 crash detection latency (emergent, slot-level silence)",
        &[
            "node",
            "fail_epoch",
            "latency_epochs",
            "bound",
            "exclusion_gap",
        ],
    );
    for p in &points.detection {
        det.row(vec![
            p.node.to_string(),
            p.fail_epoch.to_string(),
            p.latency_epochs
                .map(|l| l.to_string())
                .unwrap_or_else(|| "missed".into()),
            p.bound_epochs.to_string(),
            p.exclusion_gap
                .map(|g| g.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    let mut gp = Table::new(
        "§4.5 saturation goodput vs failed racks (fabric-limited)",
        &["failed", "nodes", "capacity_factor", "goodput_ratio"],
    );
    for p in &points.goodput {
        gp.row(vec![
            p.failed.to_string(),
            p.nodes.to_string(),
            f(p.capacity_factor, 4),
            f(p.goodput_ratio, 4),
        ]);
    }
    let mut grey = Table::new(
        "§4.5 grey-link localization vs receive power (one TX column)",
        &[
            "rx_dbm",
            "drop_prob",
            "cells_lost",
            "localized",
            "exclusions",
            "readmissions",
            "audit_clean",
        ],
    );
    for p in &points.grey {
        grey.row(vec![
            f(p.rx_dbm, 1),
            format!("{:.2e}", p.drop_prob),
            p.cells_lost.to_string(),
            p.localized.to_string(),
            p.exclusions.to_string(),
            p.readmissions.to_string(),
            p.audit_clean.to_string(),
        ]);
    }
    (det, gp, grey)
}

/// The three arms of the link-vs-node repair comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// No faults: the ratio denominator.
    Healthy,
    /// The script under column-granular repair (default escalation).
    Link,
    /// The same script under the whole-node rule.
    Node,
}

/// A fault script of size `k` on a network: the racks it leaves dark and
/// the faults it injects.
pub type Script = fn(&SiriusConfig, u32, u64) -> (u32, FaultInjector);

/// One fault size `k`, measured under both repair granularities.
#[derive(Debug, Clone)]
pub struct RepairPoint {
    pub k: u32,
    pub nodes: u32,
    pub uplinks: u32,
    /// Distinct nodes whose TX columns the link arm's detectors suspected,
    /// as *detected* — not echoed from the script.
    pub blast_nodes: u32,
    /// Correlated domains the link arm diagnosed (0 below the correlation
    /// threshold, where columns are just omitted singly).
    pub domains: u32,
    /// Epochs from fault onset to the last afflicted column's first
    /// suspicion (None: nothing detected).
    pub detect_epochs: Option<u64>,
    /// The silence bound detection must respect.
    pub bound_epochs: u64,
    /// Capacity the adjusted schedule keeps under column-granular repair.
    pub cf_link: f64,
    /// Degraded / healthy goodput with column-granular repair.
    pub ratio_link: f64,
    pub column_omissions: u64,
    pub exclusions_link: u64,
    /// Capacity the whole-node rule keeps on the same faults.
    pub cf_node: f64,
    /// Degraded / healthy goodput with whole-node exclusion.
    pub ratio_node: f64,
    pub exclusions_node: u64,
}

impl RepairPoint {
    /// Fault size `k`'s point from its healthy, link and node arms.
    pub(crate) fn new(net: &SiriusConfig, k: u32, arms: &[(f64, Option<FaultReport>)]) -> Self {
        let [(gh, _), (gl, link), (gn, node)] = arms else {
            unreachable!("three arms per k");
        };
        let link = link.as_ref().expect("link-arm fault report missing");
        let node = node.as_ref().expect("node-arm fault report missing");
        let mut afflicted: Vec<u32> = link.links.iter().map(|l| l.node.0).collect();
        afflicted.sort_unstable();
        afflicted.dedup();
        RepairPoint {
            k,
            nodes: net.nodes as u32,
            uplinks: net.total_uplinks() as u32,
            blast_nodes: afflicted.len() as u32,
            domains: link.correlated_domains.len() as u32,
            detect_epochs: link.links.iter().map(|l| l.first_suspected).max(),
            bound_epochs: silence_bound(),
            cf_link: link.capacity_factor_end,
            ratio_link: gl / gh,
            column_omissions: link.column_omissions,
            exclusions_link: link.exclusions,
            cf_node: node.capacity_factor_end,
            ratio_node: gn / gh,
            exclusions_node: node.exclusions,
        }
    }

    /// Goodput retained by repairing per-column instead of per-node.
    pub fn advantage(&self) -> f64 {
        self.ratio_link - self.ratio_node
    }
}

/// One arm at fault size `k`: goodput over the saturated horizon and the
/// fault report (none for the healthy arm, which runs no script).
pub fn repair_arm(
    scale: Scale,
    seed: u64,
    k: u32,
    arm: Arm,
    script: Script,
) -> (f64, Option<FaultReport>) {
    let (dark, faults) = script(&fabric_limited_net(scale), k, seed);
    let run = Survivor {
        dark,
        flows_per_server: 40,
        settle: true,
        drain: Duration::from_ms(2),
        audit: false,
        whole_node: arm == Arm::Node,
    };
    let (goodput, m) = run.run(scale, seed, (arm != Arm::Healthy).then_some(faults));
    (goodput, m.fault)
}

/// The link-vs-node comparison of `script` at each size in `ks`: the three
/// arms of every `k` are independent pool jobs, labelled `label`.
pub fn repair_sweep(
    label: &str,
    scale: Scale,
    seed: u64,
    ks: &[u32],
    script: Script,
    jobs: usize,
) -> Vec<RepairPoint> {
    let mut sweep = Sweep::new();
    for &k in ks {
        for arm in [Arm::Healthy, Arm::Link, Arm::Node] {
            sweep.push(format!("{label} k={k} arm={arm:?}"), move || {
                repair_arm(scale, seed, k, arm, script)
            });
        }
    }
    let net = fabric_limited_net(scale);
    ks.iter()
        .zip(sweep.run(jobs).chunks_exact(3))
        .map(|(&k, arms)| RepairPoint::new(&net, k, arms))
        .collect()
}

/// Goodput under the two repair rules: the link arm should track its
/// capacity line `cf_link`, the node arm pays `cf_node`.
pub fn repair_table(title: &str, points: &[RepairPoint]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "k",
            "nodes",
            "uplinks",
            "cf_link",
            "ratio_link",
            "cf_node",
            "ratio_node",
            "advantage",
        ],
    );
    for p in points {
        t.row(vec![
            p.k.to_string(),
            p.nodes.to_string(),
            p.uplinks.to_string(),
            f(p.cf_link, 4),
            f(p.ratio_link, 4),
            f(p.cf_node, 4),
            f(p.ratio_node, 4),
            f(p.advantage(), 4),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_latency_is_bounded_at_smoke_scale() {
        let pts = detection_points(Scale::Smoke, 11);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            let lat = p.latency_epochs.expect("crash missed");
            assert!(lat <= p.bound_epochs, "node {}: {lat} epochs", p.node);
            assert_eq!(p.exclusion_gap, Some(1));
        }
        let (det, _, _) = tables(&Points {
            detection: pts,
            goodput: vec![],
            grey: vec![],
        });
        det.assert_csv_digest(0x9625_1df2_bd2b_3f03);
    }

    #[test]
    fn goodput_tracks_the_capacity_line() {
        let p = goodput_point(Scale::Smoke, 11, 2);
        assert!((p.capacity_factor - (1.0 - 2.0 / p.nodes as f64)).abs() < 1e-9);
        assert!(
            (p.goodput_ratio - p.capacity_factor).abs() <= 0.05,
            "ratio {} vs capacity {}",
            p.goodput_ratio,
            p.capacity_factor
        );
        let (_, gp, _) = tables(&Points {
            detection: vec![],
            goodput: vec![p],
            grey: vec![],
        });
        gp.assert_csv_digest(0x7191_be80_fa28_74e8);
    }

    #[test]
    fn dead_column_is_localized_and_marginal_column_is_invisible() {
        let pts = [-8.0, -12.0].map(|dbm| grey_point(Scale::Smoke, 11, dbm));
        let [marginal, dead] = &pts;
        assert!(marginal.drop_prob < 1e-6, "-8 dBm should be FEC-clean");
        assert!(dead.localized, "-12 dBm column not localized");
        assert!(dead.cells_lost > 0);
        assert_eq!(dead.exclusions, dead.readmissions, "exclusion not vetoed");
        assert!(dead.audit_clean && marginal.audit_clean);
        let (t1, t2, t3) = tables(&Points {
            detection: vec![],
            goodput: vec![],
            grey: pts.to_vec(),
        });
        assert!(t1.is_empty() && t2.is_empty());
        assert_eq!(t3.len(), 2);
        t3.assert_csv_digest(0xc428_990f_da25_0675);
    }
}
