//! CMOS scaling slowdown (Fig. 2b): why the electrical status quo gets
//! worse, not better.
//!
//! The paper plots normalized performance/area and performance/power
//! across transistor nodes (16+ nm in 2014 down to 5 nm in 2022) against
//! the "ideal scaling" line of doubling every generation. The divergence
//! below 7 nm is the quantitative backdrop for §2.1's claim that "the
//! cost and power of switches and transceivers beyond two generations is
//! unlikely to stay constant". The figures here follow published
//! process-node scaling surveys the paper references [5, 52, 64].

/// One generation point of Fig. 2b.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmosNode {
    /// Marketing node label.
    pub label: &'static str,
    pub year: u32,
    /// Normalized performance per area (16+ nm = 1).
    pub perf_per_area: f64,
    /// Normalized performance per power (16+ nm = 1).
    pub perf_per_power: f64,
}

/// The Fig. 2b series.
pub fn fig2b() -> Vec<CmosNode> {
    vec![
        CmosNode {
            label: "16+",
            year: 2014,
            perf_per_area: 1.0,
            perf_per_power: 1.0,
        },
        CmosNode {
            label: "10",
            year: 2016,
            perf_per_area: 1.9,
            perf_per_power: 1.7,
        },
        CmosNode {
            label: "7",
            year: 2018,
            perf_per_area: 3.3,
            perf_per_power: 2.6,
        },
        CmosNode {
            label: "7+",
            year: 2020,
            perf_per_area: 4.2,
            perf_per_power: 3.1,
        },
        CmosNode {
            label: "5",
            year: 2022,
            perf_per_area: 5.6,
            perf_per_power: 3.6,
        },
    ]
}

/// The ideal-scaling reference: doubling every generation.
pub fn ideal(generation: usize) -> f64 {
    2f64.powi(generation as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Achieved/ideal ratio of `metric` at each generation.
    fn shortfall(metric: impl Fn(&CmosNode) -> f64) -> Vec<f64> {
        fig2b()
            .iter()
            .enumerate()
            .map(|(g, n)| metric(n) / ideal(g))
            .collect()
    }

    #[test]
    fn scaling_diverges_from_ideal() {
        // Fig. 2b: "as the CMOS node size reduces below 7nm, the power and
        // area gains are far from the historic doubling every generation".
        let area = shortfall(|n| n.perf_per_area);
        let power = shortfall(|n| n.perf_per_power);
        assert!((area[0] - 1.0).abs() < 1e-9);
        // Monotone decline of achieved/ideal.
        for w in area.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        // By 5 nm (generation 4, ideal 16x) both metrics fall well short.
        assert!(area[4] < 0.5, "area shortfall {}", area[4]);
        assert!(power[4] < 0.33, "power shortfall {}", power[4]);
    }

    #[test]
    fn power_scales_worse_than_area() {
        // The SERDES/analog story: power efficiency lags density.
        for n in fig2b().iter().skip(1) {
            assert!(n.perf_per_power < n.perf_per_area);
        }
    }

    #[test]
    fn ideal_doubles() {
        assert_eq!(ideal(0), 1.0);
        assert_eq!(ideal(4), 16.0);
    }
}
