//! The harness binary: `xp [name ...]` runs the named experiments from
//! [`sirius_bench::registry`]; with no name it runs every experiment of
//! the reproduction in sequence. The first experiment to fail ends the
//! run with its exit status; an unknown name exits 2 and lists the valid
//! ones.
//!
//! The flags — scale, `--jobs`, `--timing`, `--live` — are
//! [`sirius_bench::cli`]'s.
use sirius_bench::registry::{self, Entry};
use sirius_bench::wall::{ExperimentWall, WallReport};
use sirius_bench::Cli;
use std::time::Instant;

/// Run `entries` once, returning per-experiment wall-clock seconds in
/// order; the first non-zero status ends the process with it.
fn run_all(entries: &[&Entry], cli: &Cli) -> Vec<(&'static str, f64)> {
    entries
        .iter()
        .map(|e| {
            eprintln!(
                "running {} at {:?} scale, --jobs {}...",
                e.name, cli.scale, cli.jobs
            );
            let t0 = Instant::now();
            let status = (e.run)(cli);
            if status != 0 {
                std::process::exit(status);
            }
            (e.name, t0.elapsed().as_secs_f64())
        })
        .collect()
}

fn main() {
    let cli = Cli::parse();
    let entries = registry::select(&cli.rest, cli.live).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // --timing puts a serial leg in front of the requested one.
    let serial = cli.timing.then(|| {
        run_all(
            &entries,
            &Cli {
                jobs: 1,
                ..cli.clone()
            },
        )
    });
    let parallel = run_all(&entries, &cli);
    let Some(serial) = serial else {
        eprintln!("=== done; CSVs under results/ ===");
        return;
    };
    let report = WallReport {
        scale: cli.scale,
        jobs: cli.jobs,
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        experiments: serial
            .into_iter()
            .zip(parallel)
            .map(|((name, s), (_, p))| ExperimentWall {
                name,
                serial_secs: s,
                parallel_secs: p,
            })
            .collect(),
    };
    report.emit();
    eprintln!(
        "=== done; serial {:.1}s vs --jobs {} {:.1}s ({}x); CSVs + BENCH_xp_wall.json under results/ ===",
        report.serial_total_secs(),
        report.jobs,
        report.parallel_total_secs(),
        report
            .total_speedup()
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "-".into()),
    );
}
