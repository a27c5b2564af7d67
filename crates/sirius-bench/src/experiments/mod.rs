//! One module per paper figure/table; each exposes the `run`/`*table`
//! functions its [`crate::registry`] entry drives.

pub mod ablation;
pub mod correlated_faults;
pub mod deploy;
pub mod fault_tolerance;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod granularity;
pub mod live_sync;
pub mod relay_burst;
pub mod repair_granularity;
pub mod scale_series;
pub mod sim_throughput;
pub mod sync;
pub mod tuning;
