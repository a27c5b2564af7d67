//! # sirius-workload
//!
//! Workload generation for the Sirius reproduction: heavy-tailed flow
//! sizes ([`pareto`]), Poisson arrivals at a target normalized load
//! ([`flowgen`]), endpoint-selection patterns ([`patterns`]), and the
//! synthetic packet-size distribution matching the production traces the
//! paper analyzed ([`packets`]).
//!
//! Everything is seeded and deterministic: the same [`flowgen::WorkloadSpec`]
//! always generates the same flow list, which is what makes the figure
//! harnesses in `sirius-bench` reproducible.

#![forbid(unsafe_code)]

pub mod burst;
pub mod flowgen;
pub mod packets;
pub mod pareto;
pub mod patterns;
pub mod trace;

pub use flowgen::{Flow, FlowStream, WorkloadSpec};
pub use packets::PacketSizes;
pub use pareto::Pareto;
pub use patterns::Pattern;
