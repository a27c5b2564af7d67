//! The seven workloads. Networks and specs are built from `sirius-core` and
//! `sirius-workload` directly (not from `sirius-bench::Scale`), so a later
//! change to the harness presets cannot silently change a workload, and
//! every engine knob the environment could otherwise set (`SIRIUS_SHARDS`,
//! the debug-build audit default) is pinned here.

use sirius_core::topology::NodeId;
use sirius_core::units::{Duration, Rate};
use sirius_core::SiriusConfig;
use sirius_sim::{CcMode, EsnConfig, EsnSim, FaultInjector, SiriusSimConfig};
use sirius_workload::{Pareto, Pattern, WorkloadSpec};

/// `--smoke` divides every flow count by this.
const SMOKE_DIVISOR: u64 = 50;

/// Which simulator entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `SiriusSim::run` over a materialised flow list.
    Slice,
    /// `SiriusSim::run_streaming` over `WorkloadSpec::stream()`.
    Stream,
    /// `EsnSim::run` (the §7 fluid baseline).
    Esn,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub net: SiriusConfig,
    /// Open-loop Poisson arrivals in simulated time, generated from the
    /// seed; the simulator receives only the generated flows.
    pub spec: WorkloadSpec,
    pub mode: CcMode,
    pub shards: usize,
    pub entry: Entry,
    pub faulty: bool,
}

/// The paper's per-server bandwidth share `R` (load and goodput
/// normaliser): rack base uplink bandwidth / servers per rack.
fn server_share(net: &SiriusConfig) -> Rate {
    Rate::from_bps(net.node_bandwidth().as_bps() / net.servers_per_node as u64)
}

fn paper_spec(net: &SiriusConfig, flows: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        servers: net.total_servers() as u32,
        server_rate: server_share(net),
        load: 0.5,
        sizes: Pareto::paper_default().truncated(1e8),
        flows,
        pattern: Pattern::Uniform,
        seed,
    }
}

impl Workload {
    pub fn by_name(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let paper = SiriusConfig::paper_sim();
        let scale = |flows: u64| if smoke { flows / SMOKE_DIVISOR } else { flows };
        let w = |name, net: SiriusConfig, spec, mode, shards, entry, faulty| Workload {
            name,
            net,
            spec,
            mode,
            shards,
            entry,
            faulty,
        };
        use CcMode::{Ideal, Protocol};
        use Entry::{Esn, Slice, Stream};
        Some(match name {
            "paper_protocol" => {
                let spec = paper_spec(&paper, scale(60_000), seed);
                w("paper_protocol", paper, spec, Protocol, 1, Slice, false)
            }
            "paper_ideal" => {
                let spec = paper_spec(&paper, scale(60_000), seed);
                w("paper_ideal", paper, spec, Ideal, 1, Slice, false)
            }
            "paper_sharded" => {
                let spec = paper_spec(&paper, scale(60_000), seed);
                w("paper_sharded", paper, spec, Protocol, 2, Slice, false)
            }
            "scale1024_stream" => {
                // Fixed 10 Gb/s NICs, four per rack: offered traffic grows
                // with servers, not with fabric capacity, so per-slot work
                // scales with N while traffic stays modest.
                let mut net = SiriusConfig::scaled(1024, 32);
                net.servers_per_node = 4;
                net.server_rate = Rate::from_gbps(10);
                net.propagation = Duration::from_ns(100);
                let spec = WorkloadSpec {
                    servers: net.total_servers() as u32,
                    server_rate: net.server_rate,
                    load: 0.5,
                    sizes: Pareto::paper_default().truncated(1e5),
                    flows: scale(24_000),
                    pattern: Pattern::Uniform,
                    seed,
                };
                w("scale1024_stream", net, spec, Protocol, 1, Stream, false)
            }
            "mice_stream" => {
                let mut spec = paper_spec(&paper, scale(900_000), seed);
                spec.load = 0.25;
                spec.sizes = Pareto::with_mean(1.05, 4096.0).truncated(1e7);
                w("mice_stream", paper, spec, Protocol, 1, Stream, false)
            }
            "paper_faults" => {
                let spec = paper_spec(&paper, scale(18_000), seed);
                w("paper_faults", paper, spec, Protocol, 1, Slice, true)
            }
            "esn_fluid" => {
                let spec = paper_spec(&paper, scale(9_600), seed);
                w("esn_fluid", paper, spec, Protocol, 1, Esn, false)
            }
            _ => return None,
        })
    }

    /// The same workload cut to its first `flows` flows (the generator
    /// yields a prefix of the same sequence).
    pub fn prefix(&self, flows: u64) -> Workload {
        let mut w = self.clone();
        w.spec.flows = flows.min(self.spec.flows);
        w
    }

    /// Expected arrival span: flows × mean inter-arrival. Analytic so the
    /// streaming workloads, which never materialise their flows, size
    /// their drain window by the same rule as the slice ones.
    pub fn span(&self) -> Duration {
        self.spec.mean_interarrival() * self.spec.flows
    }

    /// Give up this long after the last arrival: proportional to the
    /// arrival span, so a run is not dominated by however long its largest
    /// flows take to drain. Flows still open then count as failed.
    pub fn drain_timeout(&self) -> Duration {
        Duration::from_us(200).max(self.span() / 2)
    }

    pub fn sim_config(&self) -> SiriusSimConfig {
        let mut cfg = SiriusSimConfig::new(self.net.clone())
            .with_mode(self.mode)
            .with_seed(self.spec.seed)
            .with_shards(self.shards)
            .with_audit(false);
        cfg.drain_timeout = self.drain_timeout();
        cfg
    }

    /// The one fixed fault script of `paper_faults`: a crash that
    /// recovers, a permanent crash, a grey link, a dead laser-bank chip and
    /// a Byzantine node. It is written on a 1000-tick timeline stretched
    /// over the run's horizon (arrival span + drain window), so every
    /// event fires inside the run at any flow count.
    pub fn fault_script(&self) -> FaultInjector {
        let horizon = (self.span() + self.drain_timeout()) / self.net.epoch();
        let at = |tick: u64| (tick * horizon / 1000).max(1);
        let n = self.net.nodes as u32;
        FaultInjector::new(self.spec.seed)
            .crash(NodeId(n - 1), at(40))
            .recover(NodeId(n - 1), at(400))
            .crash(NodeId(n - 2), at(120))
            .grey_link(NodeId(3), 1, 0.5, at(60), at(600))
            .bank_failure(0, 1, 0, 2, at(200), at(800))
            .byzantine(NodeId(7), 0.3, 2, at(100), at(700))
    }

    pub fn esn(&self) -> EsnSim {
        EsnSim::new(EsnConfig {
            servers: self.spec.servers,
            server_rate: self.spec.server_rate,
            servers_per_rack: self.net.servers_per_node as u32,
            oversubscription: 1.0,
            base_latency: Duration::from_us(3),
        })
    }
}
