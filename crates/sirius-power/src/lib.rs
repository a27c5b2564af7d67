//! # sirius-power
//!
//! The power and cost analysis of the paper's §2 and §5: the hierarchical
//! "scale tax" ([`scale_tax`], Fig. 2a), CMOS scaling slowdown ([`cmos`],
//! Fig. 2b), the component catalog with the paper's anchor figures
//! ([`catalog`]), and the datacenter-level Sirius-vs-ESN power and cost
//! models ([`power`] / [`cost`], Figs. 6a/6b).
//!
//! ```
//! use sirius_power::{catalog::Catalog, power::{self, Datacenter}};
//!
//! // The abstract's headline: "up to 74-77% lower power".
//! let r = power::power_ratio(&Catalog::paper(), &Datacenter::paper(), 4.0);
//! assert!(r < 0.3);
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod cmos;
pub mod cost;
pub mod power;
pub mod scale_tax;

pub use catalog::Catalog;
pub use power::Datacenter;
