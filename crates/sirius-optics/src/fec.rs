//! Forward error correction: the Reed-Solomon codes behind "post-FEC
//! error-free" (§6).
//!
//! The prototype demonstrates BER < 1e-12 *after* FEC at -8 dBm. Ethernet
//! 50G PAM-4 lanes use RS(544,514) over GF(2^10) ("KP4", corrects t = 15
//! symbol errors per frame). This module computes the exact post-FEC
//! frame/bit error rates from the pre-FEC BER via the binomial tail, which
//! is where the "FEC threshold" lines of Fig. 8d come from.

/// A Reed-Solomon code RS(n, k) over `m`-bit symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReedSolomon {
    /// Codeword length in symbols.
    pub n: u32,
    /// Data symbols per codeword.
    pub k: u32,
    /// Bits per symbol.
    pub m: u32,
}

/// KP4: RS(544,514,10) — the FEC of 50G/100G PAM-4 lanes.
pub const KP4: ReedSolomon = ReedSolomon {
    n: 544,
    k: 514,
    m: 10,
};

impl ReedSolomon {
    /// Symbol-correction capability `t = (n-k)/2`.
    pub fn t(&self) -> u32 {
        (self.n - self.k) / 2
    }

    /// Probability a symbol is received in error given pre-FEC BER
    /// (independent bit errors).
    pub fn symbol_error_rate(&self, ber: f64) -> f64 {
        1.0 - (1.0 - ber).powi(self.m as i32)
    }

    /// Post-FEC *frame* error rate: probability more than `t` of `n`
    /// symbols are bad (binomial upper tail, computed in log space for
    /// numerical range).
    pub fn frame_error_rate(&self, ber: f64) -> f64 {
        let p = self.symbol_error_rate(ber);
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return 1.0;
        }
        let n = self.n as f64;
        let t = self.t();
        let ln_p = p.ln();
        let ln_q = (1.0 - p).ln();
        if n * p > t as f64 {
            // The binomial mode sits above the correction capability: the
            // upper tail is most of the mass, so compute its complement
            // P(X <= t) exactly (t+1 terms) instead — the windowed tail
            // sum below would miss the mode entirely.
            let mut below = 0f64;
            for j in 0..=t {
                let ln_term = ln_choose(self.n, j) + j as f64 * ln_p + (n - j as f64) * ln_q;
                below += ln_term.exp();
            }
            return (1.0 - below).clamp(0.0, 1.0);
        }
        // Sum_{j=t+1..n} C(n,j) p^j (1-p)^(n-j). The tail is dominated by
        // j = t+1 for small p; we sum a window beyond that and bound the
        // remainder by a geometric series.
        let mut total = 0f64;
        for j in (t + 1)..=(t + 60).min(self.n) {
            let ln_term = ln_choose(self.n, j) + j as f64 * ln_p + (n - j as f64) * ln_q;
            total += ln_term.exp();
        }
        total.min(1.0)
    }

    /// Post-FEC *bit* error rate (uncorrectable frames scatter roughly
    /// `t+1` symbol errors over the frame).
    pub fn post_fec_ber(&self, ber: f64) -> f64 {
        let fer = self.frame_error_rate(ber);
        let bits_per_frame = (self.n * self.m) as f64;
        let errd_bits = ((self.t() + 1) * self.m) as f64 / 2.0;
        (fer * errd_bits / bits_per_frame).min(0.5)
    }

    /// The pre-FEC BER at which post-FEC BER crosses `target`
    /// (bisection) — the "FEC threshold" of Fig. 8d.
    pub fn threshold(&self, target: f64) -> f64 {
        let (mut lo, mut hi) = (1e-12_f64, 0.4_f64);
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if self.post_fec_ber(mid) > target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (lo * hi).sqrt()
    }
}

/// ln C(n, k) via Stirling/lgamma-free accumulation.
fn ln_choose(n: u32, k: u32) -> f64 {
    debug_assert!(k <= n);
    let k = k.min(n - k);
    let mut acc = 0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_error_rate_saturates_at_catastrophic_ber() {
        // Above the correction capability the windowed tail sum used in
        // the waterfall region misses the binomial mode; the complement
        // path must take over and saturate toward 1.
        assert!(KP4.frame_error_rate(0.3) > 0.999);
        assert!(KP4.frame_error_rate(0.05) > 0.999);
        // Monotone across the regime switch (mode crosses t near
        // p_sym = t/n, i.e. BER ~ 2.9e-3 for KP4).
        let mut prev = 0.0;
        for &ber in &[1e-4, 5e-4, 1e-3, 2e-3, 3e-3, 5e-3, 1e-2, 1e-1] {
            let fer = KP4.frame_error_rate(ber);
            assert!(fer >= prev, "FER not monotone at BER {ber}");
            prev = fer;
        }
    }

    #[test]
    fn code_parameters() {
        assert_eq!(KP4.t(), 15);
    }

    #[test]
    fn kp4_threshold_is_around_2e4() {
        // The industry-standard quoted threshold for KP4 at 1e-15 post-FEC
        // is ~2.2e-4 pre-FEC.
        let thr = KP4.threshold(1e-15);
        assert!(
            (1e-4..5e-4).contains(&thr),
            "KP4 threshold = {thr:e} (expected ~2.2e-4)"
        );
    }

    #[test]
    fn error_free_below_threshold() {
        // The §6 demonstration: pre-FEC BER at the sensitivity point maps
        // to post-FEC far below the 1e-12 "error-free" bar.
        let pre = 1e-4; // comfortably below KP4's threshold
        let post = KP4.post_fec_ber(pre);
        assert!(post < 1e-12, "post-FEC {post:e}");
    }

    #[test]
    fn fec_cliff_is_steep() {
        // A decade of pre-FEC BER around the threshold swings post-FEC by
        // many decades — the "waterfall cliff" that makes the threshold a
        // meaningful single number.
        let at = KP4.post_fec_ber(2e-4);
        let above = KP4.post_fec_ber(2e-3);
        assert!(
            above / at.max(1e-300) > 1e10,
            "cliff too shallow: {at:e} -> {above:e}"
        );
    }

    #[test]
    fn fer_monotone_in_ber() {
        let mut prev = 0.0;
        for exp in [-6.0f64, -5.0, -4.0, -3.0, -2.0] {
            let fer = KP4.frame_error_rate(10f64.powf(exp));
            assert!(fer >= prev);
            prev = fer;
        }
        assert_eq!(KP4.frame_error_rate(0.0), 0.0);
        assert_eq!(KP4.frame_error_rate(1.0), 1.0);
    }

    #[test]
    fn ln_choose_matches_small_cases() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 0)).abs() < 1e-12);
        assert!((ln_choose(544, 16) - 69.89).abs() < 0.1);
    }
}
