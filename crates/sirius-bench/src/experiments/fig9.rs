//! Fig. 9: 99th-percentile FCT for short flows and average goodput vs
//! network load, for ESN (Ideal), ESN-OSUB (Ideal), Sirius, and
//! Sirius (Ideal).

use crate::pool::Sweep;
use crate::scale::{Scale, Score, Sim};
use crate::table::{f, fct_ms, Table};
use sirius_sim::CcMode;

/// The paper's x-axis.
pub const LOADS: [f64; 5] = [0.10, 0.25, 0.50, 0.75, 1.00];

/// The four systems, in the paper's legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Sirius,
    SiriusIdeal,
    Esn,
    EsnOsub,
}

impl System {
    pub const ALL: [System; 4] = [
        System::Sirius,
        System::SiriusIdeal,
        System::Esn,
        System::EsnOsub,
    ];

    /// `ALL` by run time at paper scale, longest first (`xp fig9_point
    /// --full 100`: Sirius 11.6 s, ESN-OSUB 9.2 s, ESN 7.2 s, Sirius
    /// (Ideal) 5.6 s), the order to start one load's runs in, so that the
    /// longest never starts last.
    pub const LONGEST_FIRST: [System; 4] = [
        System::Sirius,
        System::EsnOsub,
        System::Esn,
        System::SiriusIdeal,
    ];

    pub fn label(self) -> &'static str {
        match self {
            System::Sirius => "Sirius",
            System::SiriusIdeal => "Sirius (Ideal)",
            System::Esn => "ESN (Ideal)",
            System::EsnOsub => "ESN-OSUB (Ideal)",
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Point {
    pub system: &'static str,
    pub load: f64,
    pub score: Score,
}

/// Run one (system, load) point. The workload is regenerated inside the
/// point (deterministic for a given `(scale, load, seed)`), so a sweep's
/// peak memory scales with the worker count, not the sweep size.
pub fn run_point(scale: Scale, system: System, load: f64, seed: u64) -> Point {
    let wl = scale.workload(load, seed).generate();
    let sirius = |mode| Sim::Sirius(scale.sim_config(scale.network(), &wl, seed).with_mode(mode));
    let sim = match system {
        System::Sirius => sirius(CcMode::Protocol),
        System::SiriusIdeal => sirius(CcMode::Ideal),
        System::Esn => Sim::Esn(1.0),
        System::EsnOsub => Sim::Esn(3.0),
    };
    Point {
        system: system.label(),
        load,
        score: scale.score(&wl, sim),
    }
}

/// The (load, system) jobs for the pool, `systems` in the order given
/// within each load.
pub fn sweep(scale: Scale, loads: &[f64], systems: &[System], seed: u64) -> Sweep<Point> {
    let mut sweep = Sweep::new();
    for &load in loads {
        for &system in systems {
            sweep.push(
                format!("fig9 load={:.0}% system={}", load * 100.0, system.label()),
                move || run_point(scale, system, load, seed),
            );
        }
    }
    sweep
}

/// The full Fig. 9 sweep on `jobs` workers.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<Point> {
    sweep(scale, &LOADS, &System::ALL, seed).run(jobs)
}

/// Render the two panels as tables.
pub fn tables(points: &[Point]) -> (Table, Table) {
    let mut fct = Table::new(
        "Fig 9a: 99th-perc. FCT of short flows (<100 KB), ms",
        &["load_%", "system", "fct_p99_ms"],
    );
    let mut gp = Table::new(
        "Fig 9b: average server goodput (normalized)",
        &["load_%", "system", "goodput"],
    );
    for p in points {
        fct.row(vec![
            f(p.load * 100.0, 0),
            p.system.to_string(),
            fct_ms(p.score.fct_p99),
        ]);
        gp.row(vec![
            f(p.load * 100.0, 0),
            p.system.to_string(),
            f(p.score.goodput, 3),
        ]);
    }
    (fct, gp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_systems() {
        let pts = sweep(Scale::Smoke, &[0.25], &System::ALL, 42).run(2);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.score.goodput > 0.0, "{} produced no goodput", p.system);
        }
        let (t1, t2) = tables(&pts);
        assert_eq!(t1.len(), 4);
        assert_eq!(t2.len(), 4);
        t1.assert_csv_digest(0x70f1_ae53_cb6c_125a);
        t2.assert_csv_digest(0x3858_affa_df55_1531);
    }

    #[test]
    fn shape_sirius_tracks_esn_and_beats_osub() {
        // The paper's headline comparison at a congested load: ESN-OSUB
        // collapses; Sirius stays near ESN (Ideal).
        let pts = sweep(Scale::Smoke, &[0.75], &System::ALL, 7).run(2);
        let get = |name: &str| pts.iter().find(|p| p.system == name).unwrap();
        let sirius = get("Sirius");
        let esn = get("ESN (Ideal)");
        let osub = get("ESN-OSUB (Ideal)");
        assert!(
            sirius.score.goodput > osub.score.goodput,
            "Sirius {} <= OSUB {}",
            sirius.score.goodput,
            osub.score.goodput
        );
        assert!(
            sirius.score.goodput > 0.5 * esn.score.goodput,
            "Sirius {} far below ESN {}",
            sirius.score.goodput,
            esn.score.goodput
        );
    }
}
