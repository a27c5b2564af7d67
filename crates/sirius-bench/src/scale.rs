//! Experiment scale presets, and the one §7 point path.
//!
//! `Paper` is the exact §7 setup (128 racks x 24 servers, ~200k flows) —
//! minutes of wall-clock per figure. `Quick` is a proportionally reduced
//! deployment for CI — the same ratios (uplinks =
//! nodes/grating-ports, uplink factor 1.5, 50 Gbps channels), one quarter
//! the racks, and fewer flows. `Smoke` is for unit tests of the harness
//! itself.
//!
//! Every figure sweep (fig. 9–13, the ablation, the `RELAY_BURST` and
//! switching-granularity sweeps) runs and scores its points through
//! [`Scale::score`], so every system §7 compares is measured by one rule.

use sirius_core::config::SiriusConfig;
use sirius_core::units::{Duration, Rate};
use sirius_sim::{EsnConfig, EsnSim, SiriusSim, SiriusSimConfig};
use sirius_workload::{Flow, Pareto, Pattern, WorkloadSpec};

/// "Short flows" cutoff (flow size < 100 KB), §7's FCT population.
pub const SHORT_FLOW_BYTES: u64 = 100_000;

/// What a §7 point runs on.
#[derive(Debug)]
pub enum Sim {
    /// The cell-level Sirius simulator, configured for the point's
    /// workload by [`Scale::sim_config`] (plus any mode or burst tweak).
    Sirius(SiriusSimConfig),
    /// The fluid ESN baseline at this oversubscription (1.0 or 3.0).
    Esn(f64),
}

/// One run measured by §7's rule. Goodput is normalised by the per-server
/// share R over the last-arrival horizon, the same window for every
/// system; the fluid ESN baseline reports zero occupancy.
#[derive(Debug, Clone, Copy)]
pub struct Score {
    /// p99 FCT of completed flows under [`SHORT_FLOW_BYTES`].
    pub fct_p99: Option<Duration>,
    /// Goodput delivered by the last arrival, normalised by N x R.
    pub goodput: f64,
    /// Peak aggregate fabric (VOQ + relay) occupancy at any node, cells.
    pub peak_fabric_cells: u64,
    /// The same peak in KB.
    pub peak_fabric_kb: f64,
    /// Peak per-flow reorder buffer, KB.
    pub reorder_kb: f64,
    /// Completed flows as a fraction of the workload.
    pub completed: f64,
    /// The run digest: of the delivered-cell sequence for Sirius, of the
    /// flow outcomes for ESN.
    pub digest: u64,
}

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
    pub fn sim_config(self, net: SiriusConfig, wl: &[Flow], seed: u64) -> SiriusSimConfig {
        let span = wl
            .last()
            .map(|f| Duration::from_ps(f.arrival.as_ps()))
            .unwrap_or(Duration::from_us(100));
        let mut cfg = SiriusSimConfig::new(net).with_seed(seed);
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

    /// Run the generated workload `wl` on `sim` and score it.
    pub fn score(self, wl: &[Flow], sim: Sim) -> Score {
        let m = match sim {
            Sim::Sirius(cfg) => SiriusSim::new(cfg).run(wl),
            Sim::Esn(oversubscription) => EsnSim::new(self.esn(oversubscription)).run(wl),
        };
        let horizon = wl.last().expect("empty workload").arrival;
        let servers = self.network().total_servers() as u64;
        Score {
            fct_p99: m.fct_percentile(99.0, SHORT_FLOW_BYTES),
            goodput: m.goodput_within(horizon, servers, self.server_share()),
            peak_fabric_cells: m.peak_node_fabric_cells,
            peak_fabric_kb: m.peak_node_fabric_bytes() as f64 / 1000.0,
            reorder_kb: m.peak_reorder_flow_bytes as f64 / 1000.0,
            completed: m.completed_flows() as f64 / wl.len() as f64,
            digest: m.digest,
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
