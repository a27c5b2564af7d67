//! Fig. 10: impact of the congestion-control queue threshold Q
//! (2, 4, 8, 16) on FCT, goodput, peak aggregate queue occupancy per
//! node, and the out-of-order (reorder) buffer.

use crate::pool::Sweep;
use crate::scale::{Scale, Score, Sim};
use crate::table::{f, fct_ms, Table};

pub const QS: [usize; 4] = [2, 4, 8, 16];

#[derive(Debug, Clone)]
pub struct Point {
    pub q: usize,
    pub load: f64,
    pub score: Score,
}

pub fn run_point(scale: Scale, q: usize, load: f64, seed: u64) -> Point {
    let wl = scale.workload(load, seed).generate();
    let mut net = scale.network();
    net.queue_threshold = q;
    let cfg = scale.sim_config(net, &wl, seed);
    Point {
        q,
        load,
        score: scale.score(&wl, Sim::Sirius(cfg)),
    }
}

pub fn run(scale: Scale, loads: &[f64], seed: u64, jobs: usize) -> Vec<Point> {
    let mut sweep = Sweep::new();
    for &q in &QS {
        for &l in loads {
            sweep.push(format!("fig10 Q={q} load={:.0}%", l * 100.0), move || {
                run_point(scale, q, l, seed)
            });
        }
    }
    sweep.run(jobs)
}

pub fn table(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Fig 10: queue threshold Q sweep (FCT / goodput / occupancy / reorder)",
        &[
            "Q",
            "load_%",
            "fct_p99_ms",
            "goodput",
            "peak_queue_KB",
            "reorder_KB",
        ],
    );
    for p in points {
        t.row(vec![
            p.q.to_string(),
            f(p.load * 100.0, 0),
            fct_ms(p.score.fct_p99),
            f(p.score.goodput, 3),
            f(p.score.peak_fabric_kb, 1),
            f(p.score.reorder_kb, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_occupancy_grows_with_q() {
        // Fig. 10c: larger Q admits deeper relay queues.
        let lo = run_point(Scale::Smoke, 2, 0.75, 3);
        let hi = run_point(Scale::Smoke, 16, 0.75, 3);
        assert!(
            hi.score.peak_fabric_kb >= lo.score.peak_fabric_kb,
            "Q=16 occupancy {} < Q=2 occupancy {}",
            hi.score.peak_fabric_kb,
            lo.score.peak_fabric_kb
        );
        assert!(lo.score.goodput > 0.0 && hi.score.goodput > 0.0);
    }

    #[test]
    fn table_shape() {
        let pts = run(Scale::Smoke, &[0.5], 1, 2);
        assert_eq!(pts.len(), 4);
        assert_eq!(table(&pts).len(), 4);
        table(&pts).assert_csv_digest(0xe7fd_a590_597d_0724);
    }
}
