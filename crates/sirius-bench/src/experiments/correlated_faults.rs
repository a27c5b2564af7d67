//! Correlated failure domains and the Byzantine data plane, end to end:
//! a dead laser-bank chip (or AWGR grating band) takes out a *set* of TX
//! columns across the fleet through the AWGR route relation, and a
//! Byzantine rack launches counterfeit cells and inflated requests.
//!
//! The bank sweep measures the tentpole claim: a `k`-wavelength chip
//! failure costs `k/(N*U)` of the fabric when diagnosed as one
//! correlated column domain (cross-node correlation suppresses per-node
//! escalation), versus the `k/N` floor the paper's §4.5 whole-node rule
//! pays for the same photons. It is `fault_tolerance`'s link-vs-node
//! comparison, the one `repair_granularity` runs on single dead columns,
//! under a dead-chip script instead.
//!
//! The Byzantine sweep measures the damage bound: every counterfeit is
//! dropped at the receiver (header/schedule/grant validation), per-epoch
//! forgery attributed to the scheduled transmitter is capped by the
//! quarantine threshold, and the liar is excluded whole-node within the
//! silence bound — with the audit's conservation check left on so forged
//! cells cannot hide in the loss accounting.

use crate::experiments::fault_tolerance::{
    fabric_limited_net, repair_sweep, repair_table, silence_bound, RepairPoint, Survivor,
};
use crate::pool::Sweep;
use crate::scale::Scale;
use crate::table::{f, write_results_atomic, Table};
use sirius_core::config::SiriusConfig;
use sirius_core::topology::NodeId;
use sirius_core::units::Duration;
use sirius_sim::{FaultInjector, FaultReport};

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

/// The dead chip lives in the *last* group so the survivor workload
/// (dense over the first server IDs) never sources or sinks traffic at
/// an afflicted rack; its TX columns still matter because every flow
/// relays through them under VLB. That group's racks are left dark.
fn bank_script(net: &SiriusConfig, k: u32, seed: u64) -> (u32, FaultInjector) {
    let g = net.grating_ports as u32;
    let group = net.nodes as u32 / g - 1;
    let faults = FaultInjector::new(seed).bank_failure(group as u16, 1, 0, k as u16, 0, u64::MAX);
    (g, faults)
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
    let n = fabric_limited_net(scale).nodes as u32;
    let forgers = (0..liars).fold(FaultInjector::new(seed), |inj, i| {
        inj.byzantine(NodeId(n - 1 - i), 0.9, 8, 0, u64::MAX)
    });
    let run = Survivor {
        dark: liars,
        flows_per_server: 30,
        settle: false,
        drain: Duration::from_ms(4),
        audit: true,
        whole_node: false,
    };
    let (goodput, m) = run.run(scale, seed, attacked.then_some(forgers));
    let clean = m.audit.is_some_and(|a| a.is_clean());
    (goodput, m.fault, clean)
}

/// `liars`' point from its healthy and attacked arms.
fn byz_point(liars: u32, arms: &[(f64, Option<FaultReport>, bool)]) -> ByzPoint {
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
        bound_epochs: silence_bound(),
        goodput_ratio: gb / gh,
        audit_clean: *clean,
    }
}

/// The full evaluation.
#[derive(Debug, Clone)]
pub struct Points {
    pub bank: Vec<RepairPoint>,
    pub byz: Vec<ByzPoint>,
}

pub fn run(scale: Scale, seed: u64, jobs: usize) -> Points {
    let ks = bank_sweep(fabric_limited_net(scale).grating_ports as u32);
    let bank = repair_sweep(
        "correlated_faults bank",
        scale,
        seed,
        &ks,
        bank_script,
        jobs,
    );
    // Two arms per liar count; `Sweep` returns results in submission
    // order, so pairs reassemble the points.
    let mut sweep = Sweep::new();
    for &liars in &BYZ_SWEEP {
        for attacked in [false, true] {
            sweep.push(
                format!("correlated_faults byz liars={liars} attacked={attacked}"),
                move || byz_arm(scale, seed, liars, attacked),
            );
        }
    }
    let byz = BYZ_SWEEP
        .iter()
        .zip(sweep.run(jobs).chunks_exact(2))
        .map(|(&liars, arms)| byz_point(liars, arms))
        .collect();
    Points { bank, byz }
}

/// Blast-radius accounting: `k` dead wavelengths become `blast` afflicted
/// racks, one domain, `k` column omissions — not `k` node exclusions.
pub fn blast_table(points: &[RepairPoint]) -> Table {
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

/// The goodput table's title: the column arm should track `1 - k/(N*U)`,
/// the node arm pays `1 - blast/N`.
const GOODPUT_TITLE: &str = "correlated bank failure: goodput, column-granular vs whole-node";

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
        silence_bound()
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
    repair_table(GOODPUT_TITLE, &points.bank).emit("correlated_goodput");
    byz_table(&points.byz).emit("byzantine_damage");
    match write_results_atomic("BENCH_correlated_faults.json", &to_json(points, scale)) {
        Ok(path) => println!("[json] {}\n", path.display()),
        Err(e) => eprintln!("warning: could not write results/BENCH_correlated_faults.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fault_tolerance::{repair_arm, Arm};

    /// The dead chip's wavelength count and the Byzantine damage bound,
    /// end to end at smoke scale. One bank size (the whole grating, so a
    /// correlated domain fires) and one liar keep this test's runtime in
    /// line with its siblings; the full sweep is `xp correlated_faults`'s job.
    /// The four tables of that one point are pinned by CSV digest.
    #[test]
    fn full_chip_is_one_domain_and_forgeries_are_contained() {
        let net = fabric_limited_net(Scale::Smoke);
        let g = net.grating_ports as u32;
        let bank = [Arm::Healthy, Arm::Link, Arm::Node]
            .map(|arm| repair_arm(Scale::Smoke, 11, g, arm, bank_script));
        let (gh, gl) = (bank[0].0, bank[1].0);
        let fr = bank[1].1.as_ref().expect("fault report missing");
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

        let byz = [false, true].map(|attacked| byz_arm(Scale::Smoke, 11, 1, attacked));
        let (_, fr, clean) = &byz[1];
        let fr = fr.as_ref().expect("fault report missing");
        assert!(fr.cells_forged > 0, "liar never forged; test is vacuous");
        assert_eq!(fr.cells_forged_dropped, fr.cells_forged);
        assert_eq!(fr.byz_quarantined.len(), 1);
        assert!(clean, "audit must stay clean under forgery");

        let points = Points {
            bank: vec![RepairPoint::new(&net, g, &bank)],
            byz: vec![byz_point(1, &byz)],
        };
        blast_table(&points.bank).assert_csv_digest(0x1517_0031_6e12_e7cf);
        detect_table(&points).assert_csv_digest(0xbc49_aa2f_c322_5ba7);
        repair_table(GOODPUT_TITLE, &points.bank).assert_csv_digest(0xe056_0bfa_366a_d7cf);
        byz_table(&points.byz).assert_csv_digest(0x41bd_9e05_28d4_bab2);
    }

    #[test]
    fn sweeps_and_json_are_well_formed() {
        let pts = Points {
            bank: vec![RepairPoint {
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
        assert_eq!(repair_table(GOODPUT_TITLE, &pts.bank).len(), 1);
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
