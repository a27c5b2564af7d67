//! Disaggregated design 1: fixed laser bank + SOA wavelength selector
//! (§3.3, Fig. 4b) — the design the paper fabricated on its InP chip.
//!
//! One always-on single-wavelength laser per channel feeds an array of SOA
//! gates; selecting a wavelength turns one gate on and another off, so the
//! tuning latency is the SOA switching time — sub-nanosecond and
//! independent of the spectral span. The trade-off is power and chip area:
//! every laser in the bank is lit all the time.

use super::TunableSource;
use crate::soa::SoaChip;
use rand::Rng;
use sirius_core::units::Duration;

/// A fixed laser bank with an SOA selector, possibly ganged from multiple
/// chips ("we were limited by the chip area ... but can use multiple chips
/// to tune across a larger set of wavelengths", §6).
#[derive(Debug, Clone)]
pub struct FixedLaserBank {
    chips: Vec<SoaChip>,
    /// Per fixed laser: bias power (W).
    laser_power_w: f64,
    /// Multiplexer (AWG) insertion loss inside the source, dB.
    mux_loss_db: f64,
    /// Per-laser optical output, dBm, before SOA gain and mux loss.
    laser_output_dbm: f64,
}

impl FixedLaserBank {
    /// Build a bank covering `wavelengths` channels from chips of
    /// `chip_capacity` gates each.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        wavelengths: usize,
        chip_capacity: usize,
    ) -> FixedLaserBank {
        assert!(wavelengths >= 1 && chip_capacity >= 1);
        let n_chips = wavelengths.div_ceil(chip_capacity);
        let mut chips = Vec::with_capacity(n_chips);
        let mut remaining = wavelengths;
        for _ in 0..n_chips {
            let n = remaining.min(chip_capacity);
            chips.push(SoaChip::fabricate(rng, n));
            remaining -= n;
        }
        FixedLaserBank {
            chips,
            laser_power_w: 1.0, // fixed laser ~1 W (§5)
            mux_loss_db: 3.0,
            laser_output_dbm: 13.0,
        }
    }

    /// The paper's fabricated chip: 19 wavelengths on one 6x8 mm InP die.
    pub fn paper_chip<R: Rng + ?Sized>(rng: &mut R) -> FixedLaserBank {
        FixedLaserBank::new(rng, 19, 19)
    }

    /// Map a channel to its (chip, gate) position; `None` when the channel
    /// is beyond the bank's grid.
    fn locate(&self, ch: usize) -> Option<(usize, usize)> {
        let mut base = 0;
        for (ci, chip) in self.chips.iter().enumerate() {
            if ch < base + chip.len() {
                return Some((ci, ch - base));
            }
            base += chip.len();
        }
        None
    }
}

impl TunableSource for FixedLaserBank {
    fn wavelengths(&self) -> usize {
        self.chips.iter().map(|c| c.len()).sum()
    }

    fn tuning_latency(&self, from: usize, to: usize) -> Option<Duration> {
        let (cf, gf) = self.locate(from)?;
        let (ct, gt) = self.locate(to)?;
        if from == to {
            return Some(Duration::ZERO);
        }
        // Off-gate fall and on-gate rise overlap; the slower one bounds the
        // latency even across chips.
        Some(
            self.chips[cf].gates()[gf]
                .fall
                .max(self.chips[ct].gates()[gt].rise),
        )
    }

    fn electrical_power_w(&self) -> f64 {
        // All fixed lasers are lit; one SOA gate is on per chip stack.
        let lasers = self.wavelengths() as f64 * self.laser_power_w;
        let soa = self.chips.iter().map(|c| c.power_w()).fold(0.0, f64::max);
        lasers + soa
    }

    fn output_power_dbm(&self) -> f64 {
        // Laser output, minus the internal mux, plus the on-SOA's gain.
        let soa_gain = self.chips[0].gates()[0].gain_db;
        self.laser_output_dbm - self.mux_loss_db + soa_gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn bank() -> FixedLaserBank {
        FixedLaserBank::paper_chip(&mut SmallRng::seed_from_u64(3))
    }

    #[test]
    fn sub_nanosecond_worst_case() {
        // The headline of §6: tuning latency < 912 ps for every pair.
        let b = bank();
        let worst = b.worst_tuning_latency();
        assert!(worst <= Duration::from_ps(912), "worst = {worst}");
        assert!(worst > Duration::from_ps(400), "implausibly fast: {worst}");
    }

    #[test]
    fn latency_span_independent() {
        // Unlike the DSDBR, adjacent and extreme switches cost the same
        // order: both sub-ns (Fig. 8b).
        let b = bank();
        assert!(b.tuning_latency(0, 1).unwrap() < Duration::from_ns(1));
        assert!(b.tuning_latency(0, 18).unwrap() < Duration::from_ns(1));
    }

    #[test]
    fn multi_chip_bank_covers_112_channels() {
        let mut rng = SmallRng::seed_from_u64(4);
        let b = FixedLaserBank::new(&mut rng, 112, 19);
        assert_eq!(b.wavelengths(), 112);
        assert_eq!(b.chips.len(), 6);
        // Cross-chip switching is still sub-ns.
        assert!(b.tuning_latency(0, 111).unwrap() < Duration::from_ns(1));
    }

    #[test]
    fn power_scales_with_bank_size() {
        let mut rng = SmallRng::seed_from_u64(5);
        let small = FixedLaserBank::new(&mut rng, 19, 19);
        let big = FixedLaserBank::new(&mut rng, 112, 19);
        // The §3.3 disadvantage: "the number of wavelengths is limited by
        // the number of lasers, which, in turn, increase the power".
        assert!(big.electrical_power_w() > 5.0 * small.electrical_power_w());
    }

    #[test]
    fn channel_out_of_range_is_an_error_not_a_panic() {
        let b = bank();
        assert_eq!(b.tuning_latency(0, 19), None);
        assert_eq!(b.tuning_latency(19, 0), None);
        assert_eq!(b.tuning_latency(19, 19), None); // even for from == to
        assert!(b.tuning_latency(0, 18).is_some());
    }
}
