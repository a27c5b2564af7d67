//! Bit-error-rate vs. received optical power, and the FEC threshold
//! (Fig. 8d).
//!
//! The prototype runs 25 Gbps NRZ (Sirius v1) and 50 Gbps PAM-4 (v2) and
//! achieves post-FEC error-free operation (BER < 1e-12) at -8 dBm of
//! received power. We model a thermal-noise-limited receiver: the Q factor
//! scales linearly with received optical power, PAM-4 pays the standard
//! ~9.5 dB multi-level penalty relative to NRZ at the same symbol rate,
//! and KP4 RS(544,514) FEC corrects any pre-FEC BER below ~2.2e-4.
//! The model is calibrated so the PAM-4 waterfall crosses the FEC
//! threshold at exactly -8 dBm (the paper's measured sensitivity).

/// Modulation formats used by the prototypes (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modulation {
    /// 25 Gbps non-return-to-zero (Sirius v1).
    Nrz25,
    /// 50 Gbps four-level pulse-amplitude modulation (Sirius v2); the lane
    /// format of 400G transceivers ("8 lanes of 50 Gbps").
    Pam4_50,
}

/// Pre-FEC BER threshold of KP4 RS(544,514), the FEC of 50G PAM-4 lanes.
pub const KP4_FEC_THRESHOLD: f64 = 2.2e-4;

/// A receiver model: BER as a function of received power.
#[derive(Debug, Clone, Copy)]
pub struct Receiver {
    pub modulation: Modulation,
    /// Per-channel implementation penalty, dB (Fig. 8d's four channels sit
    /// within ~1 dB of each other).
    pub channel_penalty_db: f64,
}

impl Receiver {
    pub fn new(modulation: Modulation) -> Receiver {
        Receiver {
            modulation,
            channel_penalty_db: 0.0,
        }
    }

    pub fn with_penalty(mut self, db: f64) -> Receiver {
        self.channel_penalty_db = db;
        self
    }

    /// Q factor at `rx_dbm` of received power. Thermal-noise-limited:
    /// Q is proportional to optical power (linear mW). Calibrated so
    /// PAM-4 hits the KP4 threshold (Q ~ 3.51) at -8 dBm.
    pub fn q_factor(&self, rx_dbm: f64) -> f64 {
        let eff_dbm = rx_dbm - self.channel_penalty_db;
        let mw = 10f64.powf(eff_dbm / 10.0);
        // Q(threshold) for BER = (3/8) erfc(Q/sqrt(2)) = 2.2e-4 is 3.513;
        // anchor: PAM-4, -8 dBm (0.1585 mW) -> Q = 3.513.
        let k_pam4 = 3.513 / 0.158_489;
        match self.modulation {
            Modulation::Pam4_50 => k_pam4 * mw,
            // NRZ at the same symbol rate has 3x the eye amplitude
            // (~9.5 dB sensitivity advantage at fixed Q) and no 3/4
            // multi-eye factor.
            Modulation::Nrz25 => 3.0 * k_pam4 * mw,
        }
    }

    /// Pre-FEC bit error rate at `rx_dbm`.
    pub fn pre_fec_ber(&self, rx_dbm: f64) -> f64 {
        let q = self.q_factor(rx_dbm);
        let p = 0.5 * erfc(q / std::f64::consts::SQRT_2);
        match self.modulation {
            Modulation::Nrz25 => p,
            // PAM-4: 3 eyes over 2 bits -> 3/4 symbol factor, Gray coded.
            Modulation::Pam4_50 => 0.75 * p,
        }
    }

    /// Receiver sensitivity: the power at which pre-FEC BER crosses the
    /// FEC threshold (bisection).
    pub fn sensitivity_dbm(&self, fec_threshold: f64) -> f64 {
        let (mut lo, mut hi) = (-30.0, 10.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.pre_fec_ber(mid) > fec_threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Post-FEC error-free at this power? (KP4 corrects everything below
    /// its threshold to far beyond 1e-12.)
    pub fn error_free(&self, rx_dbm: f64) -> bool {
        self.pre_fec_ber(rx_dbm) <= KP4_FEC_THRESHOLD
    }
}

/// Complementary error function (Abramowitz & Stegun 7.1.26-style rational
/// approximation; |error| < 1.5e-7, ample for waterfall curves).
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    poly * (-x * x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn pam4_sensitivity_is_minus_8dbm() {
        // Fig. 8d: "post-FEC error-free transmission at -8 dBm".
        let rx = Receiver::new(Modulation::Pam4_50);
        let s = rx.sensitivity_dbm(KP4_FEC_THRESHOLD);
        assert!((s - (-8.0)).abs() < 0.1, "sensitivity = {s} dBm");
        assert!(rx.error_free(-8.0 + 0.01));
        assert!(!rx.error_free(-9.0));
    }

    #[test]
    fn ber_waterfall_is_monotone() {
        let rx = Receiver::new(Modulation::Pam4_50);
        let mut prev = 1.0;
        for p in -10..=-2 {
            let ber = rx.pre_fec_ber(p as f64);
            assert!(ber <= prev, "BER not monotone at {p} dBm");
            prev = ber;
        }
        // Shape check against Fig. 8d's axis: log10(BER) spans ~-2..-12
        // over the -10..-2 dBm range.
        assert!(rx.pre_fec_ber(-10.0) > 1e-3);
        assert!(rx.pre_fec_ber(-2.0) < 1e-12);
    }

    #[test]
    fn nrz_is_more_sensitive_than_pam4() {
        let nrz = Receiver::new(Modulation::Nrz25);
        let pam = Receiver::new(Modulation::Pam4_50);
        let s_nrz = nrz.sensitivity_dbm(KP4_FEC_THRESHOLD);
        let s_pam = pam.sensitivity_dbm(KP4_FEC_THRESHOLD);
        // ~4.8 dB optical (=9.5 dB electrical) advantage for NRZ.
        assert!(
            s_nrz < s_pam - 3.0,
            "NRZ {s_nrz} dBm should be well below PAM-4 {s_pam} dBm"
        );
    }

    #[test]
    fn four_channels_within_a_db() {
        // Fig. 8d shows four channel curves clustered together.
        let base = Receiver::new(Modulation::Pam4_50);
        for pen in [0.0, 0.3, 0.6, 0.9] {
            let ch = base.with_penalty(pen);
            let s = ch.sensitivity_dbm(KP4_FEC_THRESHOLD);
            assert!((s - (-8.0 + pen)).abs() < 0.1);
        }
    }
}
