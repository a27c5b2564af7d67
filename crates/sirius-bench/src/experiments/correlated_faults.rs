//! Correlated failure domains and the Byzantine data plane, end to end:
//! a dead laser-bank chip (or AWGR grating band) takes out a *set* of TX
//! columns across the fleet through the AWGR route relation, and a
//! Byzantine rack launches counterfeit cells and inflated requests.
//!
//! The bank sweep measures the tentpole claim: a `k`-wavelength chip
//! failure costs `k/(N*U)` of the fabric when diagnosed as one
//! correlated column domain (cross-node correlation suppresses per-node
//! escalation), versus the `k/N` floor the paper's §4.5 whole-node rule
//! pays for the same photons. Both arms run the identical script and the
//! identical survivor workload; only the repair policy differs
//! (node-granular behavior via `with_column_escalation_fraction(0.0)`,
//! as in `repair_granularity`).
//!
//! The Byzantine sweep measures the damage bound: every counterfeit is
//! dropped at the receiver (header/schedule/grant validation), per-epoch
//! forgery attributed to the scheduled transmitter is capped by the
//! quarantine threshold, and the liar is excluded whole-node within the
//! silence bound — with the audit's conservation check left on so forged
//! cells cannot hide in the loss accounting.

use crate::experiments::fault_tolerance::{fabric_limited_net, survivor_workload};
use crate::pool::Sweep;
use crate::scale::Scale;
use crate::table::{f, write_results_atomic, Table};
use sirius_core::fault::FaultConfig;
use sirius_core::topology::NodeId;
use sirius_core::units::{Duration, Time};
use sirius_sim::{FaultInjector, FaultReport, SiriusSim, SiriusSimConfig};

/// One dead-chip point: `k` wavelengths gone from one bank, measured
/// under both repair granularities.
#[derive(Debug, Clone)]
pub struct BankPoint {
    /// Channels on the dead chip (the bank-size axis).
    pub k: u32,
    pub nodes: u32,
    pub uplinks: u32,
    /// Distinct nodes whose TX column the chip silenced (the AWGR image
    /// of the dead wavelengths), as *detected* — not echoed from the
    /// script.
    pub blast_nodes: u32,
    /// Correlated domains diagnosed (1 once `k` crosses the correlation
    /// threshold; 0 below it, where columns are just omitted singly).
    pub domains: u32,
    /// Epochs from fault onset to the last afflicted column's first
    /// suspicion (None: nothing detected).
    pub detect_epochs: Option<u64>,
    /// The silence bound detection must respect.
    pub bound_epochs: u64,
    /// `1 - k/(N*U)` measured from the adjusted schedule (link arm).
    pub cf_link: f64,
    pub ratio_link: f64,
    pub column_omissions: u64,
    pub exclusions_link: u64,
    /// `1 - blast/N` measured under the whole-node rule (node arm).
    pub cf_node: f64,
    pub ratio_node: f64,
    pub exclusions_node: u64,
}

impl BankPoint {
    /// Goodput retained by repairing the domain as columns, not nodes.
    pub fn advantage(&self) -> f64 {
        self.ratio_link - self.ratio_node
    }
}

/// One Byzantine point: `liars` racks forging cells and requests.
#[derive(Debug, Clone)]
pub struct ByzPoint {
    pub liars: u32,
    pub cells_forged: u64,
    pub cells_forged_dropped: u64,
    pub requests_forged: u64,
    /// Worst per-epoch forged count attributed to one node — the
    /// measured damage bound.
    pub max_forged_per_epoch: u64,
    /// Nodes the RX filter quarantined (must equal `liars`).
    pub quarantined: u32,
    /// Epochs from onset to the last quarantine (None: none fired).
    pub quarantine_epochs: Option<u64>,
    pub bound_epochs: u64,
    /// Honest-population goodput under attack / healthy.
    pub goodput_ratio: f64,
    pub audit_clean: bool,
}

impl ByzPoint {
    /// Fraction of counterfeits the RX filter caught (must be 1.0).
    pub fn drop_rate(&self) -> f64 {
        if self.cells_forged == 0 {
            1.0
        } else {
            self.cells_forged_dropped as f64 / self.cells_forged as f64
        }
    }
}

/// Bank-size axis: a single wavelength, a two-channel chip, and a chip
/// holding the whole grating (every port of one group dark on that
/// uplink). Only the last crosses the correlation threshold.
pub fn bank_sweep(grating_ports: u32) -> Vec<u32> {
    let mut ks = vec![1, 2, grating_ports];
    ks.dedup();
    ks.retain(|&k| k >= 1 && k <= grating_ports);
    ks
}

/// Byzantine-rack axis.
pub const BYZ_SWEEP: [u32; 2] = [1, 2];

/// The repair-policy arms of a bank point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Healthy,
    Link,
    Node,
}

/// The dead chip lives in the *last* group so the survivor workload
/// (dense over the first server IDs) never sources or sinks traffic at
/// an afflicted rack; its TX columns still matter because every flow
/// relays through them under VLB.
fn bank_script(net_nodes: u32, g: u32, k: u32, seed: u64) -> FaultInjector {
    let group = net_nodes / g - 1;
    FaultInjector::new(seed).bank_failure(group as u16, 1, 0, k as u16, 0, u64::MAX)
}

/// One (k, arm) run: goodput over the saturated horizon plus the fault
/// report. Regenerates its own workload so each pool job is independent.
fn bank_arm(scale: Scale, seed: u64, k: u32, arm: Arm) -> (f64, Option<FaultReport>) {
    let net = fabric_limited_net(scale);
    let n = net.nodes as u32;
    let g = net.grating_ports as u32;
    let start = Time::ZERO + net.epoch() * 12; // routing settles first
    let servers = (n - g) * net.servers_per_node as u32;
    let wl = survivor_workload(&net, servers, servers as u64 * 40, seed, start);
    let last = wl.last().unwrap().arrival.since(Time::ZERO).as_ps();
    let horizon = Time::from_ps(last * 4 / 5);
    let mut cfg = SiriusSimConfig::new(net.clone()).with_seed(seed);
    cfg.drain_timeout = Duration::from_ms(2);
    if arm == Arm::Node {
        cfg = cfg.with_column_escalation_fraction(0.0);
    }
    let mut sim = SiriusSim::new(cfg);
    if arm != Arm::Healthy {
        sim = sim.with_faults(bank_script(n, g, k, seed));
    }
    let m = sim.run(&wl);
    (
        m.goodput_within(horizon, servers as u64, net.server_rate),
        m.fault,
    )
}

/// One (liars, attacked?) run over the honest population, audit on so
/// the conservation check vouches that no counterfeit was double-counted
/// as goodput or hidden as loss.
fn byz_arm(
    scale: Scale,
    seed: u64,
    liars: u32,
    attacked: bool,
) -> (f64, Option<FaultReport>, bool) {
    let net = fabric_limited_net(scale);
    let n = net.nodes as u32;
    let servers = (n - liars) * net.servers_per_node as u32;
    let wl = survivor_workload(&net, servers, servers as u64 * 30, seed, Time::ZERO);
    let last = wl.last().unwrap().arrival.since(Time::ZERO).as_ps();
    let horizon = Time::from_ps(last * 4 / 5);
    let mut cfg = SiriusSimConfig::new(net.clone())
        .with_seed(seed)
        .with_audit(true);
    cfg.drain_timeout = Duration::from_ms(4);
    let mut sim = SiriusSim::new(cfg);
    if attacked {
        let mut inj = FaultInjector::new(seed);
        for i in 0..liars {
            inj = inj.byzantine(NodeId(n - 1 - i), 0.9, 8, 0, u64::MAX);
        }
        sim = sim.with_faults(inj);
    }
    let m = sim.run(&wl);
    let clean = m.audit.as_ref().map(|a| a.is_clean()).unwrap_or(false);
    (
        m.goodput_within(horizon, servers as u64, net.server_rate),
        m.fault,
        clean,
    )
}

/// The full evaluation.
#[derive(Debug, Clone)]
pub struct Points {
    pub bank: Vec<BankPoint>,
    pub byz: Vec<ByzPoint>,
}

pub fn run(scale: Scale, seed: u64, jobs: usize) -> Points {
    let net = fabric_limited_net(scale);
    let n = net.nodes as u32;
    let uplinks = net.total_uplinks() as u32;
    let ks = bank_sweep(net.grating_ports as u32);
    let bound = FaultConfig::default().silence_threshold + 1;

    // One pool for every independent run: 3 arms per bank size, then 2
    // arms per liar count; `Sweep` returns results in submission order
    // so fixed-size chunks reassemble the points.
    let mut sweep: Sweep<(f64, Option<FaultReport>, bool)> = Sweep::new();
    for &k in &ks {
        for arm in [Arm::Healthy, Arm::Link, Arm::Node] {
            sweep.push(
                format!("correlated_faults bank k={k} arm={arm:?}"),
                move || {
                    let (g, fr) = bank_arm(scale, seed, k, arm);
                    (g, fr, true)
                },
            );
        }
    }
    for &liars in &BYZ_SWEEP {
        for attacked in [false, true] {
            sweep.push(
                format!("correlated_faults byz liars={liars} attacked={attacked}"),
                move || byz_arm(scale, seed, liars, attacked),
            );
        }
    }
    let results = sweep.run(jobs);
    let (bank_res, byz_res) = results.split_at(ks.len() * 3);

    let bank = ks
        .iter()
        .zip(bank_res.chunks_exact(3))
        .map(|(&k, arms)| {
            let [(gh, _, _), (gl, fr_l, _), (gn, fr_n, _)] = arms else {
                unreachable!("three arms per k");
            };
            let fl = fr_l.as_ref().expect("link-arm fault report missing");
            let fn_ = fr_n.as_ref().expect("node-arm fault report missing");
            let mut afflicted: Vec<u32> = fl.links.iter().map(|l| l.node.0).collect();
            afflicted.sort_unstable();
            afflicted.dedup();
            BankPoint {
                k,
                nodes: n,
                uplinks,
                blast_nodes: afflicted.len() as u32,
                domains: fl.correlated_domains.len() as u32,
                detect_epochs: fl.links.iter().map(|l| l.first_suspected).max(),
                bound_epochs: bound,
                cf_link: fl.capacity_factor_end,
                ratio_link: gl / gh,
                column_omissions: fl.column_omissions,
                exclusions_link: fl.exclusions,
                cf_node: fn_.capacity_factor_end,
                ratio_node: gn / gh,
                exclusions_node: fn_.exclusions,
            }
        })
        .collect();

    let byz = BYZ_SWEEP
        .iter()
        .zip(byz_res.chunks_exact(2))
        .map(|(&liars, arms)| {
            let [(gh, _, _), (gb, fr, clean)] = arms else {
                unreachable!("two arms per liar count");
            };
            let fr = fr.as_ref().expect("byz fault report missing");
            ByzPoint {
                liars,
                cells_forged: fr.cells_forged,
                cells_forged_dropped: fr.cells_forged_dropped,
                requests_forged: fr.requests_forged,
                max_forged_per_epoch: fr.max_forged_per_epoch,
                quarantined: fr.byz_quarantined.len() as u32,
                quarantine_epochs: fr.byz_quarantined.iter().map(|q| q.quarantined_at).max(),
                bound_epochs: bound,
                goodput_ratio: gb / gh,
                audit_clean: *clean,
            }
        })
        .collect();

    Points { bank, byz }
}

/// Blast-radius accounting: `k` dead wavelengths become `blast` afflicted
/// racks, one domain, `k` column omissions — not `k` node exclusions.
pub fn blast_table(points: &[BankPoint]) -> Table {
    let mut t = Table::new(
        "correlated bank failure: blast radius vs repair granularity",
        &[
            "k",
            "blast_nodes",
            "domains",
            "column_omissions",
            "exclusions_link",
            "exclusions_node",
            "cf_link",
            "cf_node",
        ],
    );
    for p in points {
        t.row(vec![
            p.k.to_string(),
            p.blast_nodes.to_string(),
            p.domains.to_string(),
            p.column_omissions.to_string(),
            p.exclusions_link.to_string(),
            p.exclusions_node.to_string(),
            f(p.cf_link, 4),
            f(p.cf_node, 4),
        ]);
    }
    t
}

/// Detection latency for both fault classes against the silence bound.
pub fn detect_table(points: &Points) -> Table {
    let opt = |v: Option<u64>| v.map(|e| e.to_string()).unwrap_or_else(|| "missed".into());
    let mut t = Table::new(
        "correlated + Byzantine detection latency (epochs from onset)",
        &["fault", "size", "latency_epochs", "bound", "records"],
    );
    for p in &points.bank {
        t.row(vec![
            "bank".into(),
            p.k.to_string(),
            opt(p.detect_epochs),
            p.bound_epochs.to_string(),
            p.domains.to_string(),
        ]);
    }
    for p in &points.byz {
        t.row(vec![
            "byzantine".into(),
            p.liars.to_string(),
            opt(p.quarantine_epochs),
            p.bound_epochs.to_string(),
            p.quarantined.to_string(),
        ]);
    }
    t
}

/// Goodput under the correlated fault: the column arm should track
/// `1 - k/(N*U)`, the node arm pays `1 - blast/N`.
pub fn goodput_table(points: &[BankPoint]) -> Table {
    let mut t = Table::new(
        "correlated bank failure: goodput, column-granular vs whole-node",
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

/// Byzantine damage bound: forged vs dropped, the per-epoch cap, and the
/// goodput the honest population kept.
pub fn byz_table(points: &[ByzPoint]) -> Table {
    let mut t = Table::new(
        "Byzantine data plane: forgery damage and quarantine",
        &[
            "liars",
            "cells_forged",
            "forged_dropped",
            "drop_rate",
            "requests_forged",
            "max_forged_per_epoch",
            "quarantined",
            "goodput_ratio",
            "audit_clean",
        ],
    );
    for p in points {
        t.row(vec![
            p.liars.to_string(),
            p.cells_forged.to_string(),
            p.cells_forged_dropped.to_string(),
            f(p.drop_rate(), 4),
            p.requests_forged.to_string(),
            p.max_forged_per_epoch.to_string(),
            p.quarantined.to_string(),
            f(p.goodput_ratio, 4),
            p.audit_clean.to_string(),
        ]);
    }
    t
}

/// Hand-rolled JSON (the workspace is offline — no serde), mirroring the
/// `BENCH_sim_throughput.json` convention: everything a CI gate needs to
/// assert the damage bounds without re-parsing CSVs.
pub fn to_json(points: &Points, scale: Scale) -> String {
    let opt = |v: Option<u64>| v.map(|e| e.to_string()).unwrap_or_else(|| "null".into());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"correlated_faults\",\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str(&format!(
        "  \"silence_bound_epochs\": {},\n",
        FaultConfig::default().silence_threshold + 1
    ));
    out.push_str("  \"bank\": [\n");
    for (i, p) in points.bank.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"k\": {}, \"nodes\": {}, \"uplinks\": {}, \"blast_nodes\": {}, \
             \"domains\": {}, \"detect_epochs\": {}, \"cf_link\": {:.6}, \
             \"ratio_link\": {:.6}, \"column_omissions\": {}, \"exclusions_link\": {}, \
             \"cf_node\": {:.6}, \"ratio_node\": {:.6}, \"exclusions_node\": {}, \
             \"advantage\": {:.6}}}{}\n",
            p.k,
            p.nodes,
            p.uplinks,
            p.blast_nodes,
            p.domains,
            opt(p.detect_epochs),
            p.cf_link,
            p.ratio_link,
            p.column_omissions,
            p.exclusions_link,
            p.cf_node,
            p.ratio_node,
            p.exclusions_node,
            p.advantage(),
            if i + 1 == points.bank.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"byzantine\": [\n");
    for (i, p) in points.byz.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"liars\": {}, \"cells_forged\": {}, \"cells_forged_dropped\": {}, \
             \"drop_rate\": {:.6}, \"requests_forged\": {}, \"max_forged_per_epoch\": {}, \
             \"quarantined\": {}, \"quarantine_epochs\": {}, \"goodput_ratio\": {:.6}, \
             \"audit_clean\": {}}}{}\n",
            p.liars,
            p.cells_forged,
            p.cells_forged_dropped,
            p.drop_rate(),
            p.requests_forged,
            p.max_forged_per_epoch,
            p.quarantined,
            opt(p.quarantine_epochs),
            p.goodput_ratio,
            p.audit_clean,
            if i + 1 == points.byz.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Emit the three CSVs, the Byzantine table, and the JSON artifact.
pub fn emit(points: &Points, scale: Scale) {
    blast_table(&points.bank).emit("correlated_blast");
    detect_table(points).emit("correlated_detect");
    goodput_table(&points.bank).emit("correlated_goodput");
    byz_table(&points.byz).emit("byzantine_damage");
    match write_results_atomic("BENCH_correlated_faults.json", &to_json(points, scale)) {
        Ok(path) => println!("[json] {}\n", path.display()),
        Err(e) => eprintln!("warning: could not write results/BENCH_correlated_faults.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dead chip's wavelength count and the Byzantine damage bound,
    /// end to end at smoke scale. One bank size (the whole grating, so a
    /// correlated domain fires) and one liar keep this test's runtime in
    /// line with its siblings; the full sweep is `xp correlated_faults`'s job.
    #[test]
    fn full_chip_is_one_domain_and_forgeries_are_contained() {
        let net = fabric_limited_net(Scale::Smoke);
        let g = net.grating_ports as u32;
        let (gh, _) = bank_arm(Scale::Smoke, 11, g, Arm::Healthy);
        let (gl, fr) = bank_arm(Scale::Smoke, 11, g, Arm::Link);
        let fr = fr.expect("fault report missing");
        assert_eq!(
            fr.correlated_domains.len(),
            1,
            "full chip must be one domain"
        );
        assert_eq!(fr.correlated_domains[0].nodes, g);
        assert_eq!(fr.exclusions, 0, "correlation must suppress exclusion");
        assert_eq!(fr.column_omissions as u32, g);
        let nu = (net.nodes * net.total_uplinks()) as f64;
        assert!((fr.capacity_factor_end - (1.0 - g as f64 / nu)).abs() < 1e-9);
        assert!(gl / gh >= fr.capacity_factor_end - 0.05);

        let (_, fr, clean) = byz_arm(Scale::Smoke, 11, 1, true);
        let fr = fr.expect("fault report missing");
        assert!(fr.cells_forged > 0, "liar never forged; test is vacuous");
        assert_eq!(fr.cells_forged_dropped, fr.cells_forged);
        assert_eq!(fr.byz_quarantined.len(), 1);
        assert!(clean, "audit must stay clean under forgery");
    }

    #[test]
    fn sweeps_and_json_are_well_formed() {
        let pts = Points {
            bank: vec![BankPoint {
                k: 2,
                nodes: 16,
                uplinks: 64,
                blast_nodes: 2,
                domains: 0,
                detect_epochs: Some(3),
                bound_epochs: 4,
                cf_link: 0.96875,
                ratio_link: 0.95,
                column_omissions: 2,
                exclusions_link: 0,
                cf_node: 0.875,
                ratio_node: 0.86,
                exclusions_node: 2,
            }],
            byz: vec![ByzPoint {
                liars: 1,
                cells_forged: 100,
                cells_forged_dropped: 100,
                requests_forged: 12,
                max_forged_per_epoch: 9,
                quarantined: 1,
                quarantine_epochs: Some(2),
                bound_epochs: 4,
                goodput_ratio: 0.97,
                audit_clean: true,
            }],
        };
        assert_eq!(bank_sweep(4), vec![1, 2, 4]);
        assert_eq!(bank_sweep(2), vec![1, 2]);
        assert_eq!(blast_table(&pts.bank).len(), 1);
        assert_eq!(detect_table(&pts).len(), 2);
        assert_eq!(goodput_table(&pts.bank).len(), 1);
        assert_eq!(byz_table(&pts.byz).len(), 1);
        let j = to_json(&pts, Scale::Smoke);
        assert!(j.contains("\"bench\": \"correlated_faults\""));
        assert!(j.contains("\"bank\": ["));
        assert!(j.contains("\"byzantine\": ["));
        assert!(j.contains("\"drop_rate\": 1.000000"));
        assert!(!j.contains("NaN") && !j.contains("inf"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
