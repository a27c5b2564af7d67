//! # sirius-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation. Each figure has a binary (`cargo run --release -p
//! sirius-bench --bin fig9`) that prints the paper's rows/series and
//! writes a CSV under `results/`; pass `--full` for the paper-scale
//! configuration. Every sweep fans out across `--jobs N` workers (env
//! `SIRIUS_JOBS`, default: all cores) through [`pool::Sweep`], with
//! results collected in submission order so parallel runs emit
//! byte-identical tables, CSVs, and digests to `--jobs 1`. Criterion
//! benches under `benches/` time scaled-down versions of the same code
//! paths plus the simulator hot loops.
//!
//! | Paper artifact | Binary | Module |
//! |---|---|---|
//! | Fig 2a/2b | `fig2` | [`experiments::fig2`] |
//! | Fig 6a/6b + §5 variants | `fig6` | [`experiments::fig6`] |
//! | Fig 8a-8d | `fig8` | [`experiments::fig8`] |
//! | Fig 9a/9b | `fig9` | [`experiments::fig9`] |
//! | Fig 10a-10d | `fig10` | [`experiments::fig10`] |
//! | Fig 11 | `fig11` | [`experiments::fig11`] |
//! | Fig 12 | `fig12` | [`experiments::fig12`] |
//! | Fig 13 | `fig13` | [`experiments::fig13`] |
//! | §3.2/§4.5 tuning tables | `tuning` | [`experiments::tuning`] |
//! | §6 sync measurement | `sync_xp` | [`experiments::sync`] |
//! | §6 sync, live UDP processes | `live_sync` | [`experiments::live_sync`] |
//! | CC on/ideal/off ablation | `ablation` | [`experiments::ablation`] |
//! | §4.5 fault tolerance | `fault_tolerance` | [`experiments::fault_tolerance`] |
//! | RELAY_BURST sensitivity | `relay_burst` | [`experiments::relay_burst`] |
//! | simulator throughput | `sim_throughput` | [`experiments::sim_throughput`] |
//! | scale-out series (streaming) | `scale_series` | [`experiments::scale_series`] |
//! | everything | `xp` | all of the above |

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod pool;
pub mod scale;
pub mod table;
pub mod wall;

pub use cli::{Cli, MemoryClass};
pub use pool::Sweep;
pub use scale::Scale;
pub use table::Table;
