//! Experiment scale presets.
//!
//! `Paper` is the exact §7 setup (128 racks x 24 servers, ~200k flows) —
//! minutes of wall-clock per figure. `Quick` is a proportionally reduced
//! deployment for CI — the same ratios (uplinks =
//! nodes/grating-ports, uplink factor 1.5, 50 Gbps channels), one quarter
//! the racks, and fewer flows. `Smoke` is for unit tests of the harness
//! itself.

use sirius_core::config::SiriusConfig;
use sirius_core::units::{Duration, Rate};
use sirius_sim::EsnConfig;
use sirius_workload::{Pareto, Pattern, WorkloadSpec};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: harness self-tests.
    Smoke,
    /// Reduced: the harness default.
    Quick,
    /// The paper's full §7 setup (`--full`).
    Paper,
}

impl Scale {
    /// The Sirius network for this scale.
    pub fn network(self) -> SiriusConfig {
        match self {
            Scale::Smoke => {
                let mut c = SiriusConfig::scaled(16, 4);
                c.servers_per_node = 2;
                // Two servers share a 200 Gbps node: keep the NIC at least
                // as fast as the per-server share so load 1.0 is offerable.
                c.server_rate = Rate::from_gbps(100);
                // Keep fiber flight well under an epoch, as at paper scale.
                c.propagation = Duration::from_ns(100);
                c
            }
            Scale::Quick => {
                let mut c = SiriusConfig::scaled(32, 8);
                c.servers_per_node = 8;
                c.propagation = Duration::from_ns(100);
                c
            }
            Scale::Paper => SiriusConfig::paper_sim(),
        }
    }

    /// Flows to simulate.
    pub fn flows(self) -> u64 {
        match self {
            Scale::Smoke => 2_000,
            Scale::Quick => 10_000,
            Scale::Paper => 200_000,
        }
    }

    /// Per-server bandwidth share `R` (the paper's load/goodput
    /// normalizer): rack base uplink bandwidth / servers per rack.
    pub fn server_share(self) -> Rate {
        let net = self.network();
        Rate::from_bps(net.node_bandwidth().as_bps() / net.servers_per_node as u64)
    }

    /// Workload spec at a given normalized load. Flow sizes are truncated
    /// so the largest flow stays small relative to the run (the paper's
    /// 200k-flow runs get the same effect from sheer population size).
    pub fn workload(self, load: f64, seed: u64) -> WorkloadSpec {
        let net = self.network();
        let cap = match self {
            Scale::Paper => 1e8,
            _ => 1e7,
        };
        WorkloadSpec {
            servers: net.total_servers() as u32,
            server_rate: self.server_share(),
            load,
            sizes: Pareto::paper_default().truncated(cap),
            flows: self.flows(),
            pattern: Pattern::Uniform,
            seed,
        }
    }

    /// Simulator config for a generated workload: the drain window after
    /// the last arrival is proportional to the arrival span, so overloaded
    /// runs report goodput over a comparable horizon instead of being
    /// dominated by however long we let the backlog drain.
    pub fn sim_config(
        self,
        net: SiriusConfig,
        wl: &[sirius_workload::Flow],
        seed: u64,
    ) -> sirius_sim::SiriusSimConfig {
        let span = wl
            .last()
            .map(|f| Duration::from_ps(f.arrival.as_ps()))
            .unwrap_or(Duration::from_us(100));
        let mut cfg = sirius_sim::SiriusSimConfig::new(net).with_seed(seed);
        cfg.drain_timeout = Duration::from_us(200).max(span / 2);
        cfg
    }

    /// The matching ESN baseline (`oversubscription` 1.0 or 3.0).
    pub fn esn(self, oversubscription: f64) -> EsnConfig {
        let net = self.network();
        EsnConfig {
            servers: net.total_servers() as u32,
            server_rate: self.server_share(),
            servers_per_rack: net.servers_per_node as u32,
            oversubscription,
            base_latency: Duration::from_us(3),
        }
    }

    /// Drain timeout for Sirius runs: overloaded runs never finish, so cap
    /// the post-arrival simulation.
    pub fn drain_timeout(self) -> Duration {
        match self {
            Scale::Smoke => Duration::from_ms(2),
            Scale::Quick => Duration::from_ms(2),
            Scale::Paper => Duration::from_ms(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section7() {
        let net = Scale::Paper.network();
        assert_eq!(net.nodes, 128);
        assert_eq!(net.total_servers(), 3072);
        assert_eq!(Scale::Paper.flows(), 200_000);
        // R = 400 Gbps / 24 servers = 16.67 Gbps.
        let r = Scale::Paper.server_share().as_gbps_f64();
        assert!((r - 16.67).abs() < 0.01, "R = {r}");
    }

    #[test]
    fn quick_scale_preserves_ratios() {
        let net = Scale::Quick.network();
        net.validate().unwrap();
        assert_eq!(net.base_uplinks, net.nodes / net.grating_ports);
        assert_eq!(net.uplink_factor, 1.5);
        // 4 x 50G uplinks / 8 servers = 25 Gbps per server.
        assert_eq!(Scale::Quick.server_share().as_gbps_f64(), 25.0);
    }

    #[test]
    fn workload_and_esn_agree_on_population() {
        for s in [Scale::Smoke, Scale::Quick] {
            let w = s.workload(0.5, 1);
            let e = s.esn(1.0);
            assert_eq!(w.servers, e.servers);
            assert_eq!(w.server_rate, e.server_rate);
        }
    }
}
