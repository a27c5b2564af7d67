//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root; `run.sh` builds and starts this.
//!
//! Two ways in:
//! * `--workload W --seed N --seconds S --trace 0|1` measures one workload
//!   in this process and prints one JSON result as the last line of stdout
//!   (`--trace 0`: end-to-end metrics, tracing off; `--trace 1`: per-layer
//!   metrics from traced passes).
//! * without `--trace`, the suite: one child process per workload and
//!   trace mode, in sequence, merged into `out/result.json`.

mod json;
mod leaf;
mod manifest;
mod measure;
mod run;
mod suite;
mod trace;
mod workloads;

use manifest::Manifest;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--smoke]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
       benchmark/run.sh --compare A.json B.json";

pub struct Args {
    /// Checkout root: where `BENCHMARK.json` lives.
    pub root: PathBuf,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    /// Write `contents` to `benchmark/out/<file>` (results and traces; the
    /// directory is git-ignored).
    pub fn write_out(&self, file: &str, contents: &str) -> Result<(), String> {
        let dir = self.root.join("benchmark").join("out");
        let path = dir.join(file);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value()?),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build (use benchmark/run.sh)");
        return ExitCode::from(2);
    }
    let outcome = parse_args().and_then(|args| {
        let manifest = Manifest::load(&args.root)?;
        match (&args.compare, args.trace) {
            (Some((a, b)), _) => suite::compare(&manifest, a, b),
            (None, Some(trace)) => measure::single(&args, &manifest, trace),
            (None, None) => suite::run(&args, &manifest),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
