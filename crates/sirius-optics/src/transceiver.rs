//! End-to-end transceiver composition: what sets the guardband (§4.5, §6).
//!
//! The guardband between timeslots must cover everything that happens when
//! the lightpath is torn down and re-established: the laser retune, the
//! receiver's (cached) CDR lock, residual time-synchronization error, and
//! the burst preamble used to refresh the phase/amplitude caches and align
//! the FEC. The paper's two prototypes:
//!
//! * **Sirius v1** — optimized DSDBR (92 ns worst-case tune), 25G NRZ:
//!   100 ns guardband.
//! * **Sirius v2** — the fabricated SOA-selector chip (912 ps), 50G PAM-4,
//!   sub-ns CDR: **3.84 ns** guardband, "allowing for a slot as low as
//!   38 ns".

use crate::ber::{Modulation, Receiver};
use crate::cdr::CdrConfig;
use crate::laser::TunableSource;
use sirius_core::units::Duration;

/// One directional transceiver: a tunable source plus a burst receiver.
pub struct Transceiver<S: TunableSource> {
    pub source: S,
    pub receiver: Receiver,
    pub cdr: CdrConfig,
    /// Residual time-sync error between any two nodes (±5 ps measured in
    /// §6, counted twice: sender + receiver side).
    pub sync_error: Duration,
    /// Burst preamble: cache-refresh pattern + FEC alignment marker.
    pub preamble: Duration,
}

impl<S: TunableSource> Transceiver<S> {
    /// The end-to-end reconfiguration time: no data can flow while the
    /// laser settles, the clocks may disagree, the CDR locks, and the
    /// preamble plays.
    pub fn reconfiguration_time(&self) -> Duration {
        self.source.worst_tuning_latency()
            + self.sync_error * 2
            + self.cdr.cached_lock
            + self.preamble
    }

    /// Guardband overhead at a given slot duration.
    pub fn guardband_overhead(&self, slot: Duration) -> f64 {
        self.reconfiguration_time().as_ps() as f64 / slot.as_ps() as f64
    }
}

/// Sirius v2 composition values (§6): chosen so the components sum to the
/// demonstrated 3.84 ns.
pub mod v2 {
    use super::*;
    use crate::laser::FixedLaserBank;
    use rand::Rng;

    /// Preamble long enough to refresh the amplitude cache and align the
    /// FEC at 50 Gbps: ~2.29 ns (~14 bytes).
    pub const PREAMBLE: Duration = Duration::from_ps(2_293);

    pub fn transceiver<R: Rng + ?Sized>(rng: &mut R) -> Transceiver<FixedLaserBank> {
        Transceiver {
            source: FixedLaserBank::paper_chip(rng),
            receiver: Receiver::new(Modulation::Pam4_50),
            cdr: CdrConfig::paper(),
            sync_error: Duration::from_ps(5),
            preamble: PREAMBLE,
        }
    }
}

/// Sirius v1 composition values (§6): DSDBR + 100 ns guardband.
pub mod v1 {
    use super::*;
    use crate::laser::standard::{DriveMode, DsdbrLaser};

    pub fn transceiver() -> Transceiver<DsdbrLaser> {
        Transceiver {
            source: DsdbrLaser::new(112, DriveMode::Dampened),
            receiver: Receiver::new(Modulation::Nrz25),
            cdr: CdrConfig::paper(),
            sync_error: Duration::from_ps(5),
            preamble: v2::PREAMBLE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn v2_reconfigures_in_3_84ns() {
        let t = v2::transceiver(&mut SmallRng::seed_from_u64(1));
        let r = t.reconfiguration_time();
        // 912 ps tune + 10 ps sync + 625 ps CDR + 2.293 ns preamble.
        assert_eq!(r, Duration::from_ps(3_840), "reconfiguration = {r}");
    }

    #[test]
    fn v2_meets_the_10ns_target() {
        // §2.2: "we target an end-to-end reconfiguration latency of less
        // than 10 ns".
        let t = v2::transceiver(&mut SmallRng::seed_from_u64(2));
        assert!(t.reconfiguration_time() < Duration::from_ns(10));
    }

    #[test]
    fn v2_allows_38ns_slots() {
        // §4.5: 3.84 ns guardband "allowing for a slot as low as 38 ns"
        // at the 10% overhead target.
        let t = v2::transceiver(&mut SmallRng::seed_from_u64(3));
        let overhead = t.guardband_overhead(Duration::from_ps(38_400));
        assert!((overhead - 0.10).abs() < 0.01, "overhead = {overhead}");
    }

    #[test]
    fn v1_needs_about_100ns() {
        let t = v1::transceiver();
        let r = t.reconfiguration_time();
        // 92 ns tune dominates; the paper budgeted a 100 ns guardband.
        assert!(
            r > Duration::from_ns(90) && r <= Duration::from_ns(100),
            "{r}"
        );
    }

    #[test]
    fn v2_is_25x_faster_than_v1() {
        let v1t = v1::transceiver();
        let v2t = v2::transceiver(&mut SmallRng::seed_from_u64(4));
        let ratio =
            v1t.reconfiguration_time().as_ps() as f64 / v2t.reconfiguration_time().as_ps() as f64;
        assert!(ratio > 20.0, "only {ratio}x faster");
    }
}
