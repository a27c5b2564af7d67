//! ON/OFF bursty sources (§2.2: "datacenter traffic patterns are changing
//! with scenarios like key-value stores and memory disaggregation
//! resulting in very bursty workloads").
//!
//! A two-state Markov-modulated Poisson process: a source alternates
//! between ON periods (flows arrive at a high rate) and OFF periods
//! (silence). The `burstiness` knob is the peak-to-mean rate ratio; 1.0
//! degenerates to plain Poisson. Used by ablation studies to stress the
//! congestion-control protocol's burst absorption (the Fig. 10 Q trade-off).

use crate::flowgen::Flow;
use crate::pareto::Pareto;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirius_core::units::{Rate, Time};

/// Bursty workload description.
#[derive(Debug, Clone)]
pub struct BurstySpec {
    pub servers: u32,
    pub server_rate: Rate,
    /// Long-run average normalized load.
    pub load: f64,
    /// Peak-to-mean ratio (>= 1.0): ON-period arrival rate is
    /// `burstiness x` the average.
    pub burstiness: f64,
    /// Mean ON duration in seconds (OFF duration follows from the duty
    /// cycle `1/burstiness`).
    pub mean_on_secs: f64,
    pub sizes: Pareto,
    pub flows: u64,
    pub seed: u64,
}

impl BurstySpec {
    /// Generate flows. The network-wide ON/OFF state is modulated
    /// globally (synchronized bursts — the worst case for the fabric).
    pub fn generate(&self) -> Vec<Flow> {
        assert!(self.burstiness >= 1.0);
        assert!(self.load > 0.0 && self.mean_on_secs > 0.0);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mean_bytes = self.sizes.effective_mean();
        let avg_rate = self.load * (self.server_rate.as_bps() as f64 * self.servers as f64)
            / (mean_bytes * 8.0);
        let on_rate = avg_rate * self.burstiness;
        let mean_off = self.mean_on_secs * (self.burstiness - 1.0);

        let mut out = Vec::with_capacity(self.flows as usize);
        let mut t = 0f64;
        let mut on_until = exp(&mut rng, self.mean_on_secs);
        let mut id = 0u64;
        while id < self.flows {
            {
                let u: f64 = 1.0 - rng.gen::<f64>();
                let dt = -u.ln() / on_rate;
                if t + dt > on_until {
                    // ON period over: jump across the OFF gap and start
                    // the next ON period.
                    t = on_until;
                    if mean_off > 0.0 {
                        t += exp(&mut rng, mean_off);
                    }
                    on_until = t + exp(&mut rng, self.mean_on_secs);
                    continue;
                }
                t += dt;
                let src = rng.gen_range(0..self.servers);
                let mut dst = rng.gen_range(0..self.servers - 1);
                if dst >= src {
                    dst += 1;
                }
                out.push(Flow {
                    id,
                    src_server: src,
                    dst_server: dst,
                    bytes: self.sizes.sample(&mut rng),
                    arrival: Time::from_ps((t * 1e12) as u64),
                });
                id += 1;
            }
        }
        out
    }
}

fn exp<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

/// Burstiness estimator: peak-to-mean arrival rate over `window_secs`
/// windows (used in tests and to verify generated traces).
pub fn peak_to_mean(flows: &[Flow], window_secs: f64) -> f64 {
    if flows.len() < 2 {
        return 1.0;
    }
    let span = flows.last().unwrap().arrival.as_secs_f64();
    let windows = (span / window_secs).ceil().max(1.0) as usize;
    let mut counts = vec![0u64; windows];
    for f in flows {
        let w = ((f.arrival.as_secs_f64() / window_secs) as usize).min(windows - 1);
        counts[w] += 1;
    }
    let peak = *counts.iter().max().unwrap() as f64;
    let mean = flows.len() as f64 / windows as f64;
    peak / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(burstiness: f64) -> BurstySpec {
        BurstySpec {
            servers: 64,
            server_rate: Rate::from_gbps(10),
            load: 0.5,
            burstiness,
            mean_on_secs: 20e-6,
            sizes: Pareto::paper_default().truncated(1e6),
            flows: 20_000,
            seed: 9,
        }
    }

    #[test]
    fn burstiness_one_is_poisson() {
        let flows = spec(1.0).generate();
        // Poisson: peak-to-mean over coarse windows stays near 1.
        let ptm = peak_to_mean(&flows, 50e-6);
        assert!(ptm < 2.0, "poisson peak-to-mean {ptm}");
    }

    #[test]
    fn high_burstiness_shows_in_the_trace() {
        let calm = peak_to_mean(&spec(1.0).generate(), 20e-6);
        let bursty = peak_to_mean(&spec(8.0).generate(), 20e-6);
        assert!(
            bursty > 2.0 * calm,
            "burstiness invisible: calm {calm}, bursty {bursty}"
        );
    }

    #[test]
    fn average_load_is_preserved() {
        // Same long-run rate regardless of burstiness.
        for b in [1.0, 4.0] {
            let s = spec(b);
            let flows = s.generate();
            let span = flows.last().unwrap().arrival.as_secs_f64();
            let measured = flows.len() as f64 / span;
            let expected = s.load * (10e9 * 64.0) / (s.sizes.effective_mean() * 8.0);
            let err = (measured - expected).abs() / expected;
            assert!(err < 0.25, "b={b}: rate {measured:.0} vs {expected:.0}");
        }
    }

    #[test]
    fn arrivals_sorted_and_valid() {
        let flows = spec(6.0).generate();
        for w in flows.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for f in &flows {
            assert_ne!(f.src_server, f.dst_server);
        }
    }
}
