//! The one experiment registry: every table, figure and probe the
//! harness can produce, by name.
//!
//! `xp` is the only harness binary. `xp` alone runs the reproduction
//! (every [`Suite::Default`] entry, in registry order, plus the
//! [`Suite::Live`] one under `--live`); `xp <name> ...` runs the named
//! entries in the order given. An entry is the whole program for its
//! artifact — it prints its tables, writes its `results/` files and
//! returns the process exit status — so one path produces a table
//! whether it is asked for alone or as part of the suite.

use crate::experiments as xp;
use crate::experiments::fig9::System;
use crate::table::fct_ms;
use crate::{Cli, Scale};

/// When `xp` runs an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Part of the reproduction: runs when no name is given.
    Default,
    /// Joins the reproduction only under `--live`: it spawns real OS
    /// processes and measures the host's scheduling latency, so it is
    /// neither deterministic nor machine-independent like the rest.
    Live,
    /// Runs only when named: ad-hoc probes, and the single analytic
    /// figures that the suite already covers through `analytic`.
    Named,
}

/// One named experiment.
pub struct Entry {
    pub name: &'static str,
    pub suite: Suite,
    /// Runs the experiment and returns its exit status (0 = success).
    pub run: fn(&Cli) -> i32,
}

const fn entry(name: &'static str, suite: Suite, run: fn(&Cli) -> i32) -> Entry {
    Entry { name, suite, run }
}

/// Every experiment. The order of the `Default` entries is the order of
/// `BENCH_xp_wall.json`'s `experiments` array, a longitudinal series:
/// append, never reorder.
pub static REGISTRY: &[Entry] = &[
    entry("analytic", Suite::Default, analytic),
    entry("sync", Suite::Default, sync),
    entry("fig9", Suite::Default, fig9),
    entry("fig10", Suite::Default, fig10),
    entry("fig11", Suite::Default, fig11),
    entry("fig12", Suite::Default, fig12),
    entry("fig13", Suite::Default, fig13),
    entry("ablation", Suite::Default, ablation),
    entry("fault_tolerance", Suite::Default, fault_tolerance),
    entry("repair_granularity", Suite::Default, repair_granularity),
    entry("correlated_faults", Suite::Default, correlated_faults),
    entry("relay_burst", Suite::Default, relay_burst),
    entry("sim_throughput", Suite::Default, sim_throughput),
    entry("scale_series", Suite::Default, scale_series),
    entry("granularity", Suite::Default, granularity),
    entry("fig5", Suite::Default, fig5),
    entry("deploy", Suite::Default, deploy),
    entry("live_sync", Suite::Live, live_sync),
    entry("fig2", Suite::Named, fig2),
    entry("fig6", Suite::Named, fig6),
    entry("fig8", Suite::Named, fig8),
    entry("tuning", Suite::Named, tuning),
    entry("fig9_point", Suite::Named, fig9_point),
];

/// The entries `operands` select, in the order given; none named selects
/// the reproduction. An operand that parses as a number is not a name
/// but an argument for the experiments (`fig9_point`'s load percent);
/// any other operand must name an entry.
pub fn select(operands: &[String], live: bool) -> Result<Vec<&'static Entry>, String> {
    let names: Vec<&String> = operands
        .iter()
        .filter(|op| op.parse::<f64>().is_err())
        .collect();
    if names.is_empty() {
        return Ok(REGISTRY
            .iter()
            .filter(|e| e.suite == Suite::Default || (live && e.suite == Suite::Live))
            .collect());
    }
    names
        .into_iter()
        .map(|op| {
            REGISTRY.iter().find(|e| e.name == op).ok_or_else(|| {
                let valid: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
                format!(
                    "unknown experiment {op:?}; valid names: {}",
                    valid.join(" ")
                )
            })
        })
        .collect()
}

/// The analytic tables of the reproduction (no sweep to fan out) as one
/// suite step.
fn analytic(cli: &Cli) -> i32 {
    fig2(cli);
    fig6(cli);
    fig8(cli);
    tuning(cli)
}

/// Fig. 2a (scale tax) and Fig. 2b (CMOS scaling).
fn fig2(_: &Cli) -> i32 {
    xp::fig2::fig2a_table().emit("fig2a");
    xp::fig2::fig2b_table().emit("fig2b");
    0
}

/// Fig. 5b: the four-node network schedule.
fn fig5(_: &Cli) -> i32 {
    xp::fig5::table().emit("fig5b");
    0
}

/// Fig. 6a (power) and Fig. 6b (cost) plus the §5 variants.
fn fig6(_: &Cli) -> i32 {
    xp::fig6::fig6a_table().emit("fig6a");
    xp::fig6::fig6b_table().emit("fig6b");
    xp::fig6::variants_table().emit("s5_variants");
    0
}

/// Fig. 8a-8d (fast-switching demonstration): seeded single measurements.
fn fig8(_: &Cli) -> i32 {
    xp::fig8::fig8a_table(7).emit("fig8a");
    xp::fig8::fig8b_table(7).emit("fig8b");
    xp::fig8::fig8c_table(7).emit("fig8c");
    xp::fig8::fig8d_table().emit("fig8d");
    0
}

/// The §3.2/§4.5 laser-tuning tables.
fn tuning(_: &Cli) -> i32 {
    xp::tuning::tuning_table(7).emit("tuning");
    xp::tuning::dsdbr_cdf_table().emit("tuning_cdf");
    xp::tuning::bank_sizing_table().emit("bank_sizing");
    0
}

/// The §4.1 deployment-sizing table.
fn deploy(_: &Cli) -> i32 {
    xp::deploy::table().emit("deployments");
    0
}

/// The §6 time-synchronization measurement.
fn sync(cli: &Cli) -> i32 {
    let epochs = match cli.scale {
        Scale::Paper => 2_000_000,
        Scale::Quick => 200_000,
        Scale::Smoke => 30_000,
    };
    xp::sync::sync_table(epochs).emit("sync");
    0
}

/// Fig. 9: FCT and goodput vs load for all four systems. `--full` runs
/// the paper-scale deployment (minutes); `--jobs N` fans the (system,
/// load) points across workers.
fn fig9(cli: &Cli) -> i32 {
    let points = xp::fig9::run(cli.scale, 1, cli.jobs);
    let (fct, gp) = xp::fig9::tables(&points);
    fct.emit("fig9a");
    gp.emit("fig9b");
    0
}

/// Fig. 10: the queue-threshold (Q) sweep.
fn fig10(cli: &Cli) -> i32 {
    let points = xp::fig10::run(cli.scale, &xp::fig9::LOADS, 1, cli.jobs);
    xp::fig10::table(&points).emit("fig10");
    0
}

/// Fig. 11: FCT vs guardband at L = 100%.
fn fig11(cli: &Cli) -> i32 {
    // The paper runs L = 100%; at saturation the protocol accumulates
    // backlog that flattens the tail, so we also emit a 75% sweep where
    // the epoch-length effect is visible in isolation.
    let points = xp::fig11::run(cli.scale, 1.0, 1, cli.jobs);
    xp::fig11::table(&points).emit("fig11");
    let points75 = xp::fig11::run(cli.scale, 0.75, 1, cli.jobs);
    xp::fig11::table(&points75).emit("fig11_l75");
    0
}

/// Fig. 12: goodput vs load for 1x/1.5x/2x uplinks.
fn fig12(cli: &Cli) -> i32 {
    let points = xp::fig12::run(cli.scale, &xp::fig9::LOADS, 1, cli.jobs);
    xp::fig12::table(&points).emit("fig12");
    0
}

/// Fig. 13: FCT and goodput vs mean flow size. Its wall clock is a few
/// long runs rather than sweep width.
fn fig13(cli: &Cli) -> i32 {
    let points = xp::fig13::run(cli.scale, 0.5, 1, cli.jobs);
    xp::fig13::table(&points).emit("fig13");
    0
}

/// The congestion-control ablation table.
fn ablation(cli: &Cli) -> i32 {
    xp::ablation::table(&xp::ablation::run(cli.scale, &xp::fig9::LOADS, 1, cli.jobs))
        .emit("ablation");
    0
}

/// The §2.2/§8 switching-granularity comparison.
fn granularity(cli: &Cli) -> i32 {
    xp::granularity::table(&xp::granularity::run(cli.scale, 0.75, 1, cli.jobs)).emit("granularity");
    0
}

/// The §4.5 fault-tolerance evaluation.
fn fault_tolerance(cli: &Cli) -> i32 {
    let points = xp::fault_tolerance::run(cli.scale, 1, cli.jobs);
    let (det, gp, grey) = xp::fault_tolerance::tables(&points);
    det.emit("fault_detect");
    gp.emit("fault_goodput");
    grey.emit("fault_grey");
    0
}

/// The repair-granularity comparison: §4.5's link-vs-node sweep on `k`
/// single dead columns.
fn repair_granularity(cli: &Cli) -> i32 {
    use xp::repair_granularity::{dead_columns, k_sweep};
    let ks = k_sweep(cli.scale.network().nodes as u32);
    let points = xp::fault_tolerance::repair_sweep(
        "repair_granularity",
        cli.scale,
        1,
        &ks,
        dead_columns,
        cli.jobs,
    );
    xp::fault_tolerance::repair_table(
        "repair granularity: k dead TX columns, link-granular vs whole-node",
        &points,
    )
    .emit("repair_granularity");
    0
}

/// The correlated-failure-domain and Byzantine-data-plane evaluation.
fn correlated_faults(cli: &Cli) -> i32 {
    let points = xp::correlated_faults::run(cli.scale, 1, cli.jobs);
    xp::correlated_faults::emit(&points, cli.scale);
    0
}

/// The RELAY_BURST sensitivity sweep.
fn relay_burst(cli: &Cli) -> i32 {
    let fct = xp::relay_burst::run_fct(
        cli.scale,
        0.75,
        1,
        &xp::relay_burst::BURSTS,
        &xp::relay_burst::GUARDS_NS,
        cli.jobs,
    );
    xp::relay_burst::fct_table(&fct).emit("relay_burst_fct");
    let sat = xp::relay_burst::run_saturation(cli.scale, 1, &xp::relay_burst::BURSTS, cli.jobs);
    xp::relay_burst::sat_table(&sat).emit("relay_burst_sat");
    0
}

/// Simulator throughput. `--full` is paper_sim scale, `--smoke` the
/// harness self-test size.
fn sim_throughput(cli: &Cli) -> i32 {
    let scale = cli.scale;
    // Paper scale is the acceptance measurement: best-of-3 to shed
    // one-sided OS noise, and always a single sweep job — concurrent
    // modes contend for cores and would inflate each other's wall clock,
    // corrupting the longitudinal series. The smaller scales are smoke checks of the harness path, where
    // `--jobs` parallelism is exercised.
    let (repeats, jobs) = if scale == Scale::Paper {
        if cli.jobs > 1 {
            eprintln!("note: paper-scale throughput is a wall-clock measurement; forcing --jobs 1");
        }
        (3, 1)
    } else {
        (1, cli.jobs)
    };
    eprintln!("=== simulator throughput, {scale:?} scale, --jobs {jobs} ===");
    let pts = xp::sim_throughput::run_best(scale, 1, repeats, jobs);
    xp::sim_throughput::table(&pts).emit("sim_throughput");
    xp::sim_throughput::emit_json(&pts, scale);
    0
}

/// The scale-out series. `--smoke` is the CI gate size, `--full` the
/// 4096-node / 2M-flow series. Fails when resident flow state exceeds
/// its bound.
fn scale_series(cli: &Cli) -> i32 {
    let scale = cli.scale;
    // The largest points hold the full per-node deployment state per
    // concurrent sweep job, so --jobs is capped (and the cap also keeps
    // the per-point VmHWM readings honest).
    let jobs = cli.jobs_capped(xp::scale_series::jobs_cap(scale));
    eprintln!("=== scale-out series, {scale:?} scale, --jobs {jobs} ===");
    let pts = xp::scale_series::run(scale, 1, jobs);
    let gates = xp::scale_series::gates(&pts);
    xp::scale_series::table(&pts).emit("scale_series");
    xp::scale_series::emit_json(&pts, scale, jobs);
    eprintln!("{gates:?}");
    if !gates.resident_ok {
        eprintln!("error: resident flow state exceeded its bound; see table above");
        return 1;
    }
    0
}

/// The live-process sync measurement. `--smoke` is the CI gate size (4
/// nodes, ~3 s); `--full` runs 8 nodes for ~30 s. Fails when the
/// cluster does not lock.
fn live_sync(cli: &Cli) -> i32 {
    let cfg = xp::live_sync::LiveConfig::for_scale(cli.scale);
    eprintln!(
        "=== live sync: {} sirius-sync-node processes, {} epochs x {} us over UDP loopback ===",
        cfg.nodes, cfg.epochs, cfg.epoch_us
    );
    match xp::live_sync::run(&cfg) {
        Ok(res) => {
            xp::live_sync::table(&res).emit("live_sync");
            xp::live_sync::emit_json(&res, cli.scale);
            eprintln!(
                "locked={} applied={}/{} p99={:.1} us (sim prediction: {:.1} ps)",
                res.locked(),
                res.applied_total(),
                res.applied_expected(),
                res.achieved_p99_ps() / 1e6,
                res.sim_max_deviation_ps
            );
            if !res.locked() {
                eprintln!("error: live cluster failed to lock; see table above");
                return 1;
            }
            0
        }
        Err(e) => {
            eprintln!("error: live sync run failed: {e}");
            1
        }
    }
}

/// Ad-hoc probe: one Fig. 9 load point at a chosen scale, its four
/// systems as one sweep on `--jobs` workers started longest first,
/// printing each system's row in legend order with its run's wall clock
/// — for paper-scale
/// validation where the full sweep is hours of wall clock on a shared
/// core.
///
/// Usage: `xp fig9_point [--full] <load-percent>`
fn fig9_point(cli: &Cli) -> i32 {
    let load = cli
        .rest
        .iter()
        .filter_map(|a| a.parse::<f64>().ok())
        .next()
        .unwrap_or(50.0)
        / 100.0;
    eprintln!(
        "fig9 point: {:?} scale, load {:.0}%, --jobs {}",
        cli.scale,
        load * 100.0,
        cli.jobs
    );
    // Started longest first, printed in legend order.
    let (points, walls) =
        xp::fig9::sweep(cli.scale, &[load], &System::LONGEST_FIRST, 1).run_timed(cli.jobs);
    let mut rows: Vec<_> = points.iter().zip(&walls).collect();
    rows.sort_by_key(|(p, _)| System::ALL.iter().position(|s| s.label() == p.system));
    for (p, t) in rows {
        println!(
            "load={:.0}% system={:<18} fct_p99_ms={} goodput={:.3} [{:?}]",
            load * 100.0,
            p.system,
            fct_ms(p.score.fct_p99),
            p.score.goodput,
            t.wall,
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(entries: &[&Entry]) -> Vec<&'static str> {
        entries.iter().map(|e| e.name).collect()
    }

    fn ops(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.name), "duplicate entry {}", e.name);
        }
    }

    /// The wall series' `experiments` array may only grow at the tail:
    /// the suite is the order `xp` ran before the registry existed,
    /// followed by the three tables it never ran.
    #[test]
    fn default_suite_is_the_old_order_plus_the_three_missing_tables() {
        let old = "analytic sync fig9 fig10 fig11 fig12 fig13 ablation fault_tolerance \
                   repair_granularity correlated_faults relay_burst sim_throughput scale_series";
        let mut want: Vec<&str> = old.split(' ').collect();
        want.extend(["granularity", "fig5", "deploy"]);
        assert_eq!(names(&select(&[], false).unwrap()), want);
        want.push("live_sync");
        assert_eq!(names(&select(&[], true).unwrap()), want);
        // A bare number is an experiment argument, not a selection.
        assert_eq!(names(&select(&ops(&["75"]), true).unwrap()), want);
    }

    /// Every `pub mod` of `experiments` has an entry of the same name, so
    /// no experiment module is unreachable from `xp`.
    #[test]
    fn every_experiment_module_has_an_entry() {
        let mods: Vec<&str> = include_str!("experiments/mod.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        assert!(!mods.is_empty(), "module list not parsed");
        for m in mods {
            assert!(
                REGISTRY.iter().any(|e| e.name == m),
                "experiments::{m} has no registry entry"
            );
        }
    }

    #[test]
    fn names_select_in_the_order_given_and_numbers_pass_through() {
        let picked = select(&ops(&["fig9_point", "75", "fig2"]), false).unwrap();
        assert_eq!(names(&picked), ["fig9_point", "fig2"]);
        // Naming the live measurement needs no --live.
        assert_eq!(
            names(&select(&ops(&["live_sync"]), false).unwrap()),
            ["live_sync"]
        );
    }

    #[test]
    fn unknown_name_is_an_error_listing_the_valid_ones() {
        let err = select(&ops(&["fig9", "nosuch"]), false)
            .err()
            .expect("unknown name must not select anything");
        assert!(err.contains("\"nosuch\""), "{err}");
        for e in REGISTRY {
            assert!(err.contains(e.name), "{err} does not list {}", e.name);
        }
    }
}
