//! Propagation-delay estimation and epoch-start offsets (§A.2).
//!
//! For cells from different nodes to arrive at the grating aligned to the
//! same slot boundary, each node must start its epoch *early* by exactly
//! its own fiber delay to the grating: "the longer this distance is, the
//! sooner it will start so that the different distances are factored out
//! and the packets belonging to the same slot arrive at the AWGR at the
//! same time."
//!
//! The passive core makes measuring that distance easy: the cyclic
//! schedule contains a self-slot (wavelength 0 on the own-group column
//! routes a node's light back to itself), so a node can timestamp a
//! loopback burst and halve the round-trip. We model the measurement with
//! configurable timestamp noise and average over repeated epochs.

use rand::Rng;
use sirius_core::units::Duration;

/// One node's calibration state.
#[derive(Debug, Clone)]
pub struct DelayEstimator {
    /// Accumulated round-trip samples, ps.
    sum_rtt_ps: f64,
    samples: u32,
}

impl Default for DelayEstimator {
    fn default() -> Self {
        DelayEstimator::new()
    }
}

impl DelayEstimator {
    pub fn new() -> DelayEstimator {
        DelayEstimator {
            sum_rtt_ps: 0.0,
            samples: 0,
        }
    }

    /// Record one loopback measurement: the true one-way delay plus
    /// symmetric timestamping noise.
    pub fn record<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        true_one_way: Duration,
        timestamp_noise_ps: f64,
    ) {
        let noise = crate::clock::gauss(rng) * timestamp_noise_ps;
        let rtt = 2.0 * true_one_way.as_ps() as f64 + noise;
        self.sum_rtt_ps += rtt;
        self.samples += 1;
    }

    /// Record one *measured* round-trip, ps — the live-transport flavor
    /// of [`DelayEstimator::record`]: a real RTT (e.g. a
    /// `DelayRequest`/`DelayResponse` echo over UDP) already contains
    /// its own timestamping noise, so nothing is synthesized.
    pub fn record_rtt_ps(&mut self, rtt_ps: f64) {
        self.sum_rtt_ps += rtt_ps;
        self.samples += 1;
    }

    /// Current estimate of the one-way delay.
    pub fn estimate(&self) -> Option<Duration> {
        if self.samples == 0 {
            return None;
        }
        Some(Duration::from_ps(
            (self.sum_rtt_ps / self.samples as f64 / 2.0)
                .round()
                .max(0.0) as u64,
        ))
    }

    pub fn samples(&self) -> u32 {
        self.samples
    }
}

/// Compute per-node epoch-start offsets from estimated delays: the node
/// with the longest fiber starts first (offset 0); everyone else starts
/// `max_delay - own_delay` later, so all first cells hit the grating
/// simultaneously.
pub fn epoch_start_offsets(delays: &[Duration]) -> Vec<Duration> {
    let max = delays.iter().copied().max().unwrap_or(Duration::ZERO);
    delays.iter().map(|&d| max - d).collect()
}

/// Residual per-node arrival error at the grating given true delays and
/// the offsets computed from (noisy) estimates, ps.
pub fn arrival_misalignment(true_delays: &[Duration], offsets: &[Duration]) -> Vec<i64> {
    // Arrival time of node i's slot-0 cell = offset_i + true_delay_i; the
    // misalignment is the deviation from the common (max) arrival target.
    let arrivals: Vec<i64> = true_delays
        .iter()
        .zip(offsets)
        .map(|(d, o)| (d.as_ps() + o.as_ps()) as i64)
        .collect();
    let target = *arrivals.iter().max().unwrap();
    arrivals.iter().map(|&a| a - target).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sirius_core::units::fiber_delay as fiber;

    #[test]
    fn noiseless_estimate_is_exact() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut est = DelayEstimator::new();
        est.record(&mut rng, fiber(137), 0.0);
        assert_eq!(est.estimate().unwrap(), fiber(137));
    }

    #[test]
    fn averaging_beats_timestamp_noise() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut est = DelayEstimator::new();
        let truth = fiber(420); // 2.1 us
        for _ in 0..1000 {
            est.record(&mut rng, truth, 50.0); // 50 ps timestamp noise
        }
        let err = est.estimate().unwrap().as_ps() as i64 - truth.as_ps() as i64;
        assert!(err.abs() < 5, "residual error {err} ps after averaging");
    }

    #[test]
    fn offsets_align_heterogeneous_fibers() {
        // Nodes at 10 m, 250 m and 500 m from the grating.
        let delays = vec![fiber(10), fiber(250), fiber(500)];
        let offsets = epoch_start_offsets(&delays);
        // Farthest node starts immediately; nearest waits the difference.
        assert_eq!(offsets[2], Duration::ZERO);
        assert_eq!(offsets[0], fiber(490));
        let mis = arrival_misalignment(&delays, &offsets);
        assert!(mis.iter().all(|&m| m == 0), "misalignment {mis:?}");
    }

    #[test]
    fn calibrated_network_aligns_within_guardband_budget() {
        // End-to-end: noisy measurements, offsets from estimates, residual
        // misalignment must be a negligible slice of the 10 ns guardband.
        let mut rng = SmallRng::seed_from_u64(3);
        let true_delays: Vec<Duration> = (0..64).map(|_| fiber(rng.gen_range(5..500))).collect();
        let estimates: Vec<Duration> = true_delays
            .iter()
            .map(|&d| {
                let mut est = DelayEstimator::new();
                for _ in 0..200 {
                    est.record(&mut rng, d, 50.0);
                }
                est.estimate().unwrap()
            })
            .collect();
        let offsets = epoch_start_offsets(&estimates);
        let mis = arrival_misalignment(&true_delays, &offsets);
        let worst = mis.iter().map(|m| m.abs()).max().unwrap();
        assert!(worst < 100, "worst misalignment {worst} ps");
    }

    #[test]
    fn no_samples_no_estimate() {
        assert!(DelayEstimator::new().estimate().is_none());
    }

    #[test]
    fn measured_rtts_average_like_synthesized_ones() {
        let mut est = DelayEstimator::new();
        // Three real 100 us RTTs with asymmetric jitter.
        for rtt in [1.0e8, 1.1e8, 0.9e8] {
            est.record_rtt_ps(rtt);
        }
        assert_eq!(est.samples(), 3);
        assert_eq!(est.estimate().unwrap(), Duration::from_ps(50_000_000));
    }
}
