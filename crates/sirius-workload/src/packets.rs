//! Synthetic packet-size distribution matching the production trace the
//! paper analyzed (§2.2).
//!
//! The paper reports, from two days of a production cloud service in March
//! 2019: "over 34% of the packets comprise less than 128 bytes while 97.8%
//! of the packets are 576 bytes or less". The raw traces are
//! proprietary; this module substitutes a mixture distribution constrained
//! to reproduce exactly those quantiles (the only properties the paper's
//! argument uses), so burstiness-sensitive experiments exercise the same
//! regime.

use rand::Rng;

/// A packet-size distribution built from (upper-bound, cumulative
/// probability) breakpoints with uniform spread inside each bucket.
#[derive(Debug, Clone)]
pub struct PacketSizes {
    /// (lower, upper, cumulative-probability-at-upper) per bucket.
    buckets: Vec<(u32, u32, f64)>,
}

impl PacketSizes {
    /// The §2.2 production-cloud trace shape: 34% < 128 B,
    /// 97.8% <= 576 B, remainder up to 1500 B MTU.
    pub fn production_cloud() -> PacketSizes {
        PacketSizes {
            buckets: vec![(64, 127, 0.34), (128, 576, 0.978), (577, 1500, 1.0)],
        }
    }

    /// Sample one packet size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        let mut prev = 0.0;
        for &(lo, hi, cum) in &self.buckets {
            if u <= cum {
                let within = (u - prev) / (cum - prev);
                return lo + ((hi - lo) as f64 * within) as u32;
            }
            prev = cum;
        }
        self.buckets.last().unwrap().1
    }

    /// Mean packet size of the mixture.
    pub fn mean(&self) -> f64 {
        let mut prev_cum = 0.0;
        let mut m = 0.0;
        for &(lo, hi, cum) in &self.buckets {
            m += (cum - prev_cum) * (lo as f64 + hi as f64) / 2.0;
            prev_cum = cum;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn production_quantiles_match_paper() {
        // "Over 34% of the packets comprise less than 128 bytes while 97.8%
        // of the packets are 576 bytes or less".
        let p = PacketSizes::production_cloud();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 200_000;
        let mut small = 0u32;
        let mut le576 = 0u32;
        for _ in 0..n {
            let s = p.sample(&mut rng);
            assert!((64..=1500).contains(&s));
            if s < 128 {
                small += 1;
            }
            if s <= 576 {
                le576 += 1;
            }
        }
        assert!((small as f64 / n as f64 - 0.34).abs() < 0.01);
        assert!((le576 as f64 / n as f64 - 0.978).abs() < 0.005);
    }

    #[test]
    fn mean_is_sane() {
        let m = PacketSizes::production_cloud().mean();
        // Dominated by small packets: mean in the 64 B..576 B range.
        assert!(m > 128.0 && m < 576.0, "mean = {m}");
    }
}
