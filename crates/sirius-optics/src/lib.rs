//! # sirius-optics
//!
//! The optical substrate of the Sirius reproduction (§3 and §6 of the
//! paper): passive AWGR gratings, the four tunable-laser designs
//! (including the fabricated fixed-bank/SOA chip), SOA gate physics, the
//! optical link budget with laser sharing, BER/FEC receiver models, and
//! the phase-caching burst-mode CDR.
//!
//! Hardware substitution: the paper's InP photonic chip, FPGAs and
//! oscilloscopes are unreachable; every device here is an analytical or
//! stochastic model calibrated against the paper's published measurements
//! (912 ps worst-case SOA tuning, 14/92 ns dampened DSDBR tuning, -8 dBm
//! PAM-4 sensitivity, 3.84 ns end-to-end reconfiguration). See DESIGN.md
//! for the substitution table.
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use sirius_optics::laser::{FixedLaserBank, TunableSource};
//! use sirius_optics::transceiver::v2;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! // The fabricated chip tunes in under a nanosecond...
//! let chip = FixedLaserBank::paper_chip(&mut rng);
//! assert!(chip.worst_tuning_latency().as_ns_f64() < 1.0);
//! // ...enabling 3.84 ns end-to-end reconfiguration.
//! let t = v2::transceiver(&mut rng);
//! assert_eq!(t.reconfiguration_time().as_ns_f64(), 3.84);
//! ```

#![forbid(unsafe_code)]

pub mod awgr;
pub mod ber;
pub mod cdr;
pub mod fec;
pub mod laser;
pub mod link_budget;
pub mod soa;
pub mod transceiver;
pub mod wavelength;

pub use awgr::Awgr;
pub use ber::{Modulation, Receiver, KP4_FEC_THRESHOLD};
pub use cdr::CdrConfig;
pub use laser::{CombLaser, DsdbrLaser, FixedLaserBank, TunableLaserBank, TunableSource};
pub use link_budget::LinkBudget;
pub use soa::{Soa, SoaChip};
pub use transceiver::Transceiver;
pub use wavelength::Grid;
