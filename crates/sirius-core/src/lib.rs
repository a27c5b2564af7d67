//! # sirius-core
//!
//! The network-layer contribution of *"Sirius: A Flat Datacenter Network
//! with Nanosecond Optical Switching"* (SIGCOMM 2020): a flat,
//! optically-switched topology with a static cyclic schedule, Valiant
//! load-balanced routing, and a request/grant congestion-control protocol
//! that bounds in-network queuing.
//!
//! The crate is deliberately simulator-agnostic: it holds the topology,
//! schedule and per-node protocol state machines; the cell-level network
//! simulator in `sirius-sim` drives them, and the physical substrate
//! (lasers, gratings, clock recovery) lives in `sirius-optics` and
//! `sirius-sync`.
//!
//! ## Map of the design (paper section -> module)
//!
//! | Paper | Module |
//! |-------|--------|
//! | §4.1 physical topology | [`topology`] |
//! | §4.2 routing & scheduling | [`schedule`], [`vlb`], [`cell`], [`reorder`] |
//! | §4.3 congestion control | [`congestion`], [`node`] |
//! | §4.5 fault tolerance | [`fault`] |
//!
//! ## Quick example
//!
//! ```
//! use sirius_core::config::SiriusConfig;
//! use sirius_core::schedule::{Schedule, SlotInEpoch};
//! use sirius_core::topology::{NodeId, UplinkId};
//!
//! // The paper's §7 deployment: 128 racks, 8x50G uplinks, 16-port gratings.
//! let cfg = SiriusConfig::paper_sim();
//! let sched = Schedule::new(&cfg);
//!
//! // Node 5 is connected to some destination on every uplink every slot...
//! let d = sched.dest(NodeId(5), UplinkId(2), SlotInEpoch(7));
//! // ...and every pair of nodes is connected at least once per epoch.
//! assert!(!sched.connections(NodeId(5), d).is_empty());
//! assert!((sched.epoch_len().as_us_f64() - 1.6).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod bits;
pub mod cell;
pub mod config;
pub mod congestion;
pub mod deployment;
pub mod fault;
pub mod node;
mod peers;
pub mod reorder;
pub mod repair;
pub mod schedule;
pub mod topology;
pub mod units;
pub mod vlb;

pub use cell::{Cell, FlowId, Grant, Request};
pub use config::{ConfigError, SiriusConfig};
pub use congestion::{CcStats, CongestionState};
pub use node::{SiriusNode, SlotTx};
pub use reorder::ReorderBuffer;
pub use schedule::{Connection, Schedule, SlotInEpoch, Wavelength};
pub use topology::{GratingId, NodeId, ServerId, Topology, UplinkId};
pub use units::{Duration, Rate, Time};
pub use vlb::Vlb;
