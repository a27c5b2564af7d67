//! Flow generation: Poisson arrivals of Pareto-sized flows (§7).
//!
//! The paper defines network load as `L = F / (R * N * tau)` where `F` is
//! the mean flow size, `R` the per-server bandwidth, `N` the number of
//! servers and `tau` the mean flow inter-arrival time; i.e. at `L = 1` the
//! offered load equals the aggregate server bandwidth. Given a target load
//! the generator derives the Poisson arrival rate and emits a reproducible
//! flow list.

use crate::pareto::Pareto;
use crate::patterns::Pattern;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirius_core::units::{Duration, Rate, Time};

/// One application flow to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    pub id: u64,
    pub src_server: u32,
    pub dst_server: u32,
    pub bytes: u64,
    pub arrival: Time,
}

/// Workload description, in the paper's parameterization.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of servers `N`.
    pub servers: u32,
    /// Per-server bandwidth `R`.
    pub server_rate: Rate,
    /// Target normalized load `L` (1.0 = aggregate server bandwidth).
    pub load: f64,
    /// Flow-size distribution (mean `F`).
    pub sizes: Pareto,
    /// Number of flows to generate (paper: ~200,000).
    pub flows: u64,
    /// Endpoint selection pattern.
    pub pattern: Pattern,
    /// RNG seed: same seed, same workload, bit for bit.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's §7 default at a given load: 3072 servers, 50 Gbps...
    /// Per-server bandwidth is rack bandwidth / servers-per-rack =
    /// 8 x 50 Gbps / 24 ~ 16.7 Gbps.
    pub fn paper_default(load: f64, flows: u64, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            servers: 3072,
            server_rate: Rate::from_bps(400_000_000_000 / 24),
            load,
            sizes: Pareto::paper_default().truncated(1e8),
            flows,
            pattern: Pattern::Uniform,
            seed,
        }
    }

    /// Mean inter-arrival time `tau = F / (R * N * L)`.
    pub fn mean_interarrival(&self) -> Duration {
        let f = self.sizes.effective_mean(); // bytes
        let agg_bps = self.server_rate.as_bps() as f64 * self.servers as f64;
        let tau_secs = f * 8.0 / (agg_bps * self.load);
        Duration::from_ps((tau_secs * 1e12).round().max(1.0) as u64)
    }

    /// Generate the flow list (sorted by arrival time by construction).
    pub fn generate(&self) -> Vec<Flow> {
        self.stream().collect()
    }

    /// Stream the same flow sequence one at a time without materializing
    /// it: `spec.stream().collect()` is bit-identical to `generate()`,
    /// but a consumer that admits flows as they arrive holds O(1)
    /// workload state instead of O(flows). This is what lets the
    /// scale-out series push flow counts into the millions.
    pub fn stream(&self) -> FlowStream {
        FlowStream {
            rng: SmallRng::seed_from_u64(self.seed),
            tau: self.mean_interarrival().as_ps() as f64,
            t: 0f64,
            next: 0,
            total: self.flows,
            servers: self.servers,
            sizes: self.sizes,
            pattern: self.pattern.clone(),
        }
    }
}

/// Lazy flow generator: yields the exact `generate()` sequence (same
/// seed, same draws, same order) while holding only the RNG and the
/// arrival-time accumulator.
#[derive(Debug, Clone)]
pub struct FlowStream {
    rng: SmallRng,
    /// Mean inter-arrival in picoseconds.
    tau: f64,
    /// Arrival-time accumulator (f64 ps, matching `generate()` exactly).
    t: f64,
    next: u64,
    total: u64,
    servers: u32,
    sizes: Pareto,
    pattern: Pattern,
}

impl Iterator for FlowStream {
    type Item = Flow;

    fn next(&mut self) -> Option<Flow> {
        if self.next >= self.total {
            return None;
        }
        let id = self.next;
        self.next += 1;
        // Exponential inter-arrival via inverse CDF.
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        self.t += -self.tau * u.ln();
        let (src, dst) = self.pattern.pick(&mut self.rng, self.servers, id);
        Some(Flow {
            id,
            src_server: src,
            dst_server: dst,
            bytes: self.sizes.sample(&mut self.rng),
            arrival: Time::from_ps(self.t as u64),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FlowStream {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(load: f64) -> WorkloadSpec {
        WorkloadSpec {
            servers: 64,
            server_rate: Rate::from_gbps(10),
            load,
            sizes: Pareto::paper_default().truncated(1e7),
            flows: 20_000,
            pattern: Pattern::Uniform,
            seed: 42,
        }
    }

    #[test]
    fn arrival_rate_matches_load_definition() {
        let spec = small_spec(0.5);
        let flows = spec.generate();
        let span = flows.last().unwrap().arrival.as_secs_f64();
        let measured_rate = flows.len() as f64 / span;
        let expected = 1.0 / spec.mean_interarrival().as_secs_f64();
        assert!(
            (measured_rate - expected).abs() / expected < 0.05,
            "measured {measured_rate}, expected {expected}"
        );
    }

    #[test]
    fn offered_load_close_to_target() {
        for load in [0.1, 0.5, 1.0] {
            let spec = small_spec(load);
            let flows = spec.generate();
            let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
            let span = flows.last().unwrap().arrival.as_secs_f64();
            let offered_bps = bytes as f64 * 8.0 / span;
            let agg = spec.server_rate.as_bps() as f64 * spec.servers as f64;
            let measured_load = offered_bps / agg;
            // Pareto(1.05) sample means wobble; 25% tolerance.
            assert!(
                (measured_load - load).abs() / load < 0.25,
                "load {load}: measured {measured_load}"
            );
        }
    }

    #[test]
    fn arrivals_are_sorted_and_ids_unique() {
        let flows = small_spec(1.0).generate();
        for w in flows.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small_spec(0.7).generate();
        let b = small_spec(0.7).generate();
        assert_eq!(a, b);
        let mut spec = small_spec(0.7);
        spec.seed = 43;
        assert_ne!(a, spec.generate());
    }

    #[test]
    fn stream_matches_generate_exactly() {
        let spec = small_spec(0.5);
        let streamed: Vec<Flow> = spec.stream().collect();
        assert_eq!(streamed, spec.generate());
        // ExactSizeIterator bookkeeping survives partial consumption.
        let mut s = spec.stream();
        assert_eq!(s.len(), spec.flows as usize);
        s.next();
        assert_eq!(s.len(), spec.flows as usize - 1);
    }

    #[test]
    fn no_self_flows() {
        for f in small_spec(1.0).generate() {
            assert_ne!(f.src_server, f.dst_server);
        }
    }

    #[test]
    fn paper_default_interarrival_scale() {
        // 3072 servers x 16.67 Gbps at L=1 with 100 KB mean flows:
        // arrival rate = L*R*N/F ~ 64e12/8e5 = 8e7 flows/s -> tau ~ 12.5 ns.
        // (Truncation at 100 MB lowers the effective mean slightly, so the
        // derived tau is a bit below the untruncated estimate.)
        let spec = WorkloadSpec::paper_default(1.0, 1000, 1);
        let tau_ns = spec.mean_interarrival().as_ns_f64();
        assert!(tau_ns > 6.0 && tau_ns < 13.0, "tau = {tau_ns} ns");
    }
}
