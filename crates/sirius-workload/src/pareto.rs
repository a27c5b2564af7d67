//! Heavy-tailed flow sizes: the Pareto distribution of §7.
//!
//! The paper draws flow sizes from a Pareto distribution with shape 1.05
//! and mean 100 KB — "the majority of flows are small, but the majority of
//! traffic is from large flows". For shape `a` and scale (minimum) `xm`,
//! `mean = a*xm/(a-1)`, so the paper's parameters imply `xm ~ 4.76 KB`; for
//! the Fig. 13 sweep down to a 512 B mean, `xm = 24.4 B` and the median is
//! ~46 B, matching the paper's quoted "median size flow of just 46 byte".

use rand::Rng;

/// Pareto flow-size sampler (optionally truncated at a maximum).
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    shape: f64,
    scale: f64,
    /// Truncation cap in bytes (simulations need finite flows; the paper's
    /// 200 k-flow runs implicitly truncate at the largest sample).
    cap: f64,
}

impl Pareto {
    /// Construct from shape and *mean*, the paper's parameterization.
    /// Requires `shape > 1` so the mean exists.
    pub fn with_mean(shape: f64, mean_bytes: f64) -> Pareto {
        assert!(shape > 1.0, "Pareto mean requires shape > 1");
        assert!(mean_bytes > 0.0);
        let scale = mean_bytes * (shape - 1.0) / shape;
        Pareto {
            shape,
            scale,
            cap: f64::INFINITY,
        }
    }

    /// The paper's default workload: shape 1.05, mean 100 KB.
    pub fn paper_default() -> Pareto {
        Pareto::with_mean(1.05, 100_000.0)
    }

    /// Truncate samples at `cap` bytes. Note truncation lowers the
    /// effective mean; [`Pareto::effective_mean`] reports the result.
    pub fn truncated(mut self, cap: f64) -> Pareto {
        assert!(cap >= self.scale);
        self.cap = cap;
        self
    }

    /// Median of the (untruncated) distribution: `xm * 2^(1/a)`.
    pub fn median(&self) -> f64 {
        self.scale * 2f64.powf(1.0 / self.shape)
    }

    /// Mean of the *truncated* distribution (equals the configured mean
    /// when no cap is set and shape > 1).
    pub fn effective_mean(&self) -> f64 {
        if self.cap.is_infinite() {
            assert!(self.shape > 1.0);
            return self.shape * self.scale / (self.shape - 1.0);
        }
        // E[min(X, cap)] for Pareto(a, xm):
        //   = a*xm/(a-1) - (xm/cap)^a * cap/(a-1)      (a != 1)
        let a = self.shape;
        let xm = self.scale;
        let c = self.cap;
        (a * xm - (xm / c).powf(a) * c) / (a - 1.0)
    }

    /// Draw one flow size in bytes (>= 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Inverse CDF: xm * U^(-1/a), with U in (0,1].
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        let x = self.scale * u.powf(-1.0 / self.shape);
        x.min(self.cap).max(1.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn paper_parameters() {
        let p = Pareto::paper_default();
        assert!((p.scale - 4761.9).abs() < 1.0, "xm = {}", p.scale);
        assert!((p.effective_mean() - 100_000.0).abs() < 1e-6);
        // Median ~ 9.2 KB: "majority of flows are small".
        assert!(
            (p.median() - 9200.0).abs() < 100.0,
            "median = {}",
            p.median()
        );
    }

    #[test]
    fn fig13_small_mean_matches_quoted_median() {
        // "F = 512 byte will result in a median size flow of just 46 byte".
        let p = Pareto::with_mean(1.05, 512.0);
        assert!(
            (p.median() - 46.0).abs() < 2.0,
            "median = {} (paper: ~46 B)",
            p.median()
        );
    }

    #[test]
    fn sample_mean_converges() {
        let p = Pareto::paper_default().truncated(1e9);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 2_000_000u64;
        let sum: f64 = (0..n).map(|_| p.sample(&mut rng) as f64).sum();
        let mean = sum / n as f64;
        let expect = p.effective_mean();
        // Shape 1.05 converges slowly; allow 20%.
        assert!(
            (mean - expect).abs() / expect < 0.2,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn ccdf_tail_index_matches_shape() {
        // Below the cap, P(X > x) = (xm / x)^a, so the sampled CCDF is a
        // straight line of slope -a on log-log axes. Fit it by least
        // squares at 25 log-spaced sizes from 2 xm to 1e7 B: a decade
        // below the §7 workload's 1e8 B cap, where about 130 of the 400 k
        // samples still exceed the last size.
        let p = Pareto::paper_default().truncated(1e8);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut samples: Vec<u64> = (0..400_000).map(|_| p.sample(&mut rng)).collect();
        samples.sort_unstable();
        let n = samples.len() as f64;
        let (lo, hi) = ((2.0 * p.scale).ln(), 1e7f64.ln());
        let points: Vec<(f64, f64)> = (0..25)
            .map(|k| {
                let ln_x = lo + (hi - lo) * k as f64 / 24.0;
                let above = samples.len() - samples.partition_point(|&s| (s as f64) <= ln_x.exp());
                (ln_x, (above as f64 / n).ln())
            })
            .collect();
        let mx = points.iter().map(|q| q.0).sum::<f64>() / points.len() as f64;
        let my = points.iter().map(|q| q.1).sum::<f64>() / points.len() as f64;
        let sxy: f64 = points.iter().map(|q| (q.0 - mx) * (q.1 - my)).sum();
        let sxx: f64 = points.iter().map(|q| (q.0 - mx).powi(2)).sum();
        let slope = sxy / sxx;
        // Tolerance: 0.05, about 5% of the shape.
        assert!(
            (slope + p.shape).abs() < 0.05,
            "CCDF slope {slope:.3}, expected {:.3}",
            -p.shape
        );
    }

    #[test]
    fn samples_respect_bounds() {
        let p = Pareto::paper_default().truncated(1e6);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let s = p.sample(&mut rng);
            assert!(s as f64 >= p.scale.floor());
            assert!(s <= 1_000_000);
        }
    }

    #[test]
    fn majority_of_bytes_from_large_flows() {
        // The defining property of the heavy tail the paper relies on.
        let p = Pareto::paper_default().truncated(1e9);
        let mut rng = SmallRng::seed_from_u64(3);
        let samples: Vec<u64> = (0..200_000).map(|_| p.sample(&mut rng)).collect();
        let total: u64 = samples.iter().sum();
        let small_flows = samples.iter().filter(|&&s| s < 100_000).count();
        let small_bytes: u64 = samples.iter().filter(|&&s| s < 100_000).sum();
        // Most flows are below the mean...
        assert!(small_flows as f64 > 0.85 * samples.len() as f64);
        // ...but they carry a minority of the bytes.
        assert!((small_bytes as f64) < 0.5 * total as f64);
    }

    #[test]
    fn truncation_lowers_mean() {
        let p = Pareto::paper_default();
        let t = p.truncated(1e6);
        assert!(t.effective_mean() < p.effective_mean());
        assert!(t.effective_mean() > p.scale);
    }

    #[test]
    #[should_panic(expected = "shape > 1")]
    fn mean_requires_shape_above_one() {
        let _ = Pareto::with_mean(1.0, 100.0);
    }
}
