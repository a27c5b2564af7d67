//! # sirius-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation. There is one binary, `xp`, over one
//! [`registry`] of named experiments (`cargo run --release -p
//! sirius-bench --bin xp -- fig9`); each prints the paper's rows/series
//! and writes a CSV under `results/`, `xp` with no name runs them all,
//! and `--full` selects the paper-scale configuration. Every sweep fans
//! out across `--jobs N` workers (env `SIRIUS_JOBS`, default: all cores)
//! through [`pool::Sweep`], with results collected in submission order so
//! parallel runs emit byte-identical tables, CSVs, and digests to
//! `--jobs 1`.
//!
//! The experiment names are [`registry::REGISTRY`]'s, and each
//! [`experiments`] module is named after the entry that drives it; the
//! paper artifact behind each is DESIGN.md's per-experiment index.

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod pool;
pub mod registry;
pub mod scale;
pub mod table;
pub mod wall;

pub use cli::Cli;
pub use pool::Sweep;
pub use scale::Scale;
pub use table::Table;
