//! # sirius-sim
//!
//! Cell-level datacenter network simulator for the Sirius reproduction
//! (§7 of the paper): the slot-synchronous Sirius fabric simulator
//! ([`sirius_net`]), the idealized electrically-switched Clos baselines
//! ([`esn`]), and the flow-level metrics both report ([`metrics`]).
//!
//! The headline comparison of the paper — Figs. 9-13 — is driven entirely
//! through these types by the `sirius-bench` harness:
//!
//! ```
//! use sirius_core::SiriusConfig;
//! use sirius_sim::{CcMode, SiriusSim, SiriusSimConfig};
//! use sirius_workload::{Pareto, Pattern, WorkloadSpec};
//!
//! let mut net = SiriusConfig::scaled(16, 4);
//! net.servers_per_node = 2;
//! let wl = WorkloadSpec {
//!     servers: net.total_servers() as u32,
//!     server_rate: net.server_rate,
//!     load: 0.25,
//!     sizes: Pareto::paper_default().truncated(1e6),
//!     flows: 100,
//!     pattern: Pattern::Uniform,
//!     seed: 1,
//! }
//! .generate();
//! let metrics = SiriusSim::new(SiriusSimConfig::new(net)).run(&wl);
//! assert_eq!(metrics.incomplete_flows, 0);
//! ```

// Compiler-enforced budget: the only `allow`s are on `engine::pool` (the
// broadcast's closure-lifetime erasure) and the `FlowSlots` element view
// in `engine::deliver`.
#![deny(unsafe_code)]

pub mod audit;
pub(crate) mod engine;
pub mod esn;
pub mod faults;
pub mod metrics;
pub mod sirius_net;

pub use audit::{Audit, AuditReport, LossCause, RunDigest};
pub use esn::{EsnConfig, EsnSim};
pub use faults::{cell_drop_probability, FaultEvent, FaultInjector};
pub use metrics::{FailureRecord, FaultReport, FctHistogram, FlowRecord, RunMetrics};
pub use sirius_net::{CcMode, SiriusSim, SiriusSimConfig};
