//! # sirius-sync
//!
//! Time synchronization for Sirius (§4.4, §A.2): drifting oscillator
//! models ([`clock`]), the PLL/DLL frequency-recovery loop ([`pll`]), the
//! rotating-leader protocol ([`leader`]), propagation-delay calibration
//! with per-node epoch-start offsets ([`delay`]), and the network-wide
//! simulation reproducing the paper's ±5 ps / 24 h measurement
//! ([`sync_sim`]).
//!
//! The protocol core is backend-agnostic: [`engine::SyncEngine`] runs
//! over any clock implementing [`provider::TimeProvider`] and any
//! network implementing [`transport::Transport`], with failures typed by
//! [`error::SyncError`] and messages framed by [`proto`]. The simulation
//! instantiates it over [`provider::SimTime`] +
//! [`transport::SimTransport`]; the `sirius-sync-node` binary runs the
//! *same* engine as one OS process per node over
//! [`transport::UdpTransport`] and a disciplined monotonic clock
//! ([`provider::OsTime`]).
//!
//! The design leans on two properties of the Sirius core: gratings are
//! passive (no retiming, so the sender's clock survives to the receiver)
//! and the cyclic schedule reconnects every node pair every epoch (so a
//! reference is always at most an epoch old, and a dead leader is replaced
//! within microseconds).

#![forbid(unsafe_code)]

pub mod clock;
pub mod delay;
pub mod engine;
pub mod error;
pub mod leader;
pub mod pll;
pub mod proto;
pub mod provider;
pub mod sync_sim;
pub mod transport;

pub use clock::{LocalClock, OscillatorSpec};
pub use delay::{arrival_misalignment, epoch_start_offsets, DelayEstimator};
pub use engine::{Step, SyncEngine};
pub use error::SyncError;
pub use leader::LeaderSchedule;
pub use pll::Pll;
pub use proto::{Beacon, SyncMsg};
pub use provider::{OsTime, SimTime, TimeProvider};
pub use sync_sim::{run as run_sync, Disruption, SyncResult, SyncSimConfig};
pub use transport::{SimTransport, Transport, TransportStats, UdpTransport};
