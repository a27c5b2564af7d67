//! Argument parsing for the harness binary (`xp`):
//!
//! * `--full` / `--quick` / `--smoke` — experiment scale (default quick);
//! * `--jobs N` / `--jobs=N` — sweep workers (default `SIRIUS_JOBS`, then
//!   [`std::thread::available_parallelism`]);
//! * `--timing` — run the selection serially and in parallel and emit
//!   `results/BENCH_xp_wall.json`;
//! * `--live` — also run the live-process sync measurement (spawns real
//!   `sirius-sync-node` processes over UDP loopback; off by default so
//!   `xp` stays deterministic and machine-independent).
//!
//! Unknown `--flags` are an error (a typo'd `--job 4` silently running a
//! serial sweep would be worse); bare operands are collected into
//! [`Cli::rest`], wherever they sit among the flags: the experiment
//! names [`crate::registry::select`] resolves, and `fig9_point`'s load
//! percent.

use crate::pool;
use crate::scale::Scale;

/// Parsed common command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    pub scale: Scale,
    /// Sweep worker count (≥ 1).
    pub jobs: usize,
    /// `--timing`: measure serial vs parallel wall-clock.
    pub timing: bool,
    /// `--live`: include the live-process sync measurement.
    pub live: bool,
    /// Positional (non-flag) arguments, in order.
    pub rest: Vec<String>,
}

impl Cli {
    /// Parse `std::env::args`, exiting with usage on error.
    pub fn parse() -> Cli {
        match Cli::parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: [--full|--quick|--smoke] [--jobs N] [--timing] [--live] [args...]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Pure parser (testable). `args` excludes the program name. `--jobs`
    /// defaults to [`pool::default_jobs`] when absent.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: Scale::Quick,
            jobs: 0,
            timing: false,
            live: false,
            rest: Vec::new(),
        };
        let mut scale_flag: Option<&str> = None;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut set_scale = |flag: &'static str, s: Scale| -> Result<(), String> {
                if let Some(prev) = scale_flag.replace(flag) {
                    if prev != flag {
                        return Err(format!("conflicting scale flags {prev} and {flag}"));
                    }
                }
                cli.scale = s;
                Ok(())
            };
            match a.as_str() {
                "--full" => set_scale("--full", Scale::Paper)?,
                "--quick" => set_scale("--quick", Scale::Quick)?,
                "--smoke" => set_scale("--smoke", Scale::Smoke)?,
                "--timing" => cli.timing = true,
                "--live" => cli.live = true,
                "--jobs" => {
                    let v = args.next().ok_or("--jobs needs a worker count")?;
                    cli.jobs = parse_jobs(&v)?;
                }
                _ => {
                    if let Some(v) = a.strip_prefix("--jobs=") {
                        cli.jobs = parse_jobs(v)?;
                    } else if a.starts_with("--") {
                        return Err(format!("unknown flag {a}"));
                    } else {
                        cli.rest.push(a);
                    }
                }
            }
        }
        if cli.jobs == 0 {
            cli.jobs = pool::default_jobs();
        }
        Ok(cli)
    }

    /// The sweep worker count for a high-memory experiment (the
    /// scale-out series, whose largest point is a 4096-node deployment):
    /// each concurrent job duplicates the whole per-node state, so
    /// `--jobs` (or the core-count default) is capped at `cap`, with a
    /// warning naming the cap so a user who typed `--jobs 8` learns why
    /// the sweep ran narrower.
    pub fn jobs_capped(&self, cap: usize) -> usize {
        let cap = cap.max(1);
        if self.jobs > cap {
            eprintln!(
                "warning: high-memory sweep: capping --jobs {} to {cap} \
                 (each concurrent job duplicates the full deployment state)",
                self.jobs
            );
        }
        self.jobs.min(cap)
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs wants an integer >= 1, got {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick_scale_and_machine_jobs() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.scale, Scale::Quick);
        assert!(cli.jobs >= 1);
        assert!(!cli.timing);
        assert!(!cli.live);
        assert!(cli.rest.is_empty());
    }

    #[test]
    fn scale_jobs_and_positionals_parse() {
        let cli = parse(&["--full", "--jobs", "4", "75"]).unwrap();
        assert_eq!(cli.scale, Scale::Paper);
        assert_eq!(cli.jobs, 4);
        assert_eq!(cli.rest, vec!["75".to_string()]);
        let cli = parse(&["--jobs=2", "--smoke", "--timing"]).unwrap();
        assert_eq!((cli.scale, cli.jobs, cli.timing), (Scale::Smoke, 2, true));
        assert!(parse(&["--live"]).unwrap().live);
        // Repeating the same scale flag is harmless.
        assert!(parse(&["--smoke", "--smoke"]).is_ok());
        // Operands on either side of a flag keep their order.
        let cli = parse(&["fig9", "--smoke", "fig13"]).unwrap();
        assert_eq!(cli.scale, Scale::Smoke);
        assert_eq!(cli.rest, vec!["fig9".to_string(), "fig13".to_string()]);
    }

    #[test]
    fn jobs_capped_caps_only_above_the_cap() {
        let mut cli = parse(&["--jobs", "8"]).unwrap();
        assert_eq!(cli.jobs_capped(2), 2);
        assert_eq!(cli.jobs_capped(1), 1);
        // Under the cap, the request passes through untouched.
        cli.jobs = 1;
        assert_eq!(cli.jobs_capped(2), 1);
        // A zero cap is treated as 1, never 0 workers.
        assert_eq!(cli.jobs_capped(0), 1);
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(parse(&["--job", "4"]).is_err(), "typo'd flag must not pass");
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs=many"]).is_err());
        assert!(parse(&["--full", "--smoke"]).is_err(), "conflicting scales");
    }
}
