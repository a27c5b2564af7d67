//! Slot-synchronous cell-level simulator of a Sirius deployment (§7).
//!
//! The fabric is perfectly synchronous — that is the whole point of the
//! paper's time-synchronization machinery — so the simulator advances
//! slot-by-slot over dense arrays instead of a per-cell event heap:
//!
//! * At every **epoch boundary** servers inject cells into their rack's
//!   `LOCAL` buffer (credit-limited by the server link rate, modelling the
//!   one-hop server<->rack flow control of §4.3), the congestion-control
//!   round runs (grant issue for last epoch's requests, then fresh
//!   requests), and failure visibility is refreshed.
//! * At every **slot**, each node transmits on each uplink to the
//!   destination dictated by the static schedule; cells arrive after the
//!   fiber propagation delay and are either relayed or delivered into
//!   their flow's reorder state.
//!
//! Requests and grants are piggybacked on cells in the real system; the
//! simulator exchanges them at epoch boundaries with the one-epoch
//! pipelining the paper describes (requests sent during epoch `e` are
//! granted at `e+1`; granted cells transmit from `e+1` onward).
//!
//! Two congestion-control modes reproduce the paper's §7 comparison:
//! [`CcMode::Protocol`] is the request/grant protocol; [`CcMode::Ideal`]
//! is the SIRIUS (IDEAL) upper bound with per-flow queues and idealized
//! (zero-latency, global-knowledge) back-pressure.
//!
//! This module holds configuration, construction and the epoch-boundary
//! congestion-control round; the per-slot hot loop lives in
//! `crate::engine` (crate-private): one phased driver over a generic
//! worker pool, with the invariant audit behind a zero-cost observer.

use crate::audit::{Audit, AuditReport, RunDigest};
use crate::engine::deliver::FlowSlots;
use crate::engine::{
    split, DeliverPlane, DestTable, DetectPlane, FaultPlane, NullObserver, SlotObserver, TxPlane,
};
use crate::faults::{FaultEvent, FaultInjector, FaultScriptError};
use crate::metrics::{FctHistogram, FlowRecord, RunMetrics};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirius_core::bits;
use sirius_core::cell::{Cell, FlowId};
use sirius_core::config::SiriusConfig;
use sirius_core::fault::FaultConfig;
use sirius_core::node::SiriusNode;
use sirius_core::reorder::FlowReorder;
use sirius_core::repair::AdjustedSchedule;
use sirius_core::schedule::Schedule;
use sirius_core::topology::{NodeId, ServerId};
use sirius_core::units::{Duration, Time};
use sirius_core::vlb::Vlb;
use sirius_workload::Flow;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Congestion-control mode for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// The paper's request/grant protocol (§4.3).
    Protocol,
    /// SIRIUS (IDEAL): per-flow queues + instant back-pressure (§7).
    Ideal,
    /// Ablation: no congestion control at all — cells are launched at any
    /// intermediate with a free slot and no queue bound. This is the
    /// failure mode §4.3 opens with ("if this keeps occurring, queues can
    /// grow very large"); the `ablation` harness quantifies it.
    Greedy,
}

/// Simulation parameters beyond the network config itself.
#[derive(Debug, Clone)]
pub struct SiriusSimConfig {
    pub network: SiriusConfig,
    pub mode: CcMode,
    pub seed: u64,
    /// Give up this long after the last flow arrival (overload runs never
    /// drain; the paper measures goodput over the simulated span).
    pub drain_timeout: Duration,
    /// Hard cap on simulated slots (safety net).
    pub max_slots: u64,
    /// Run the per-epoch invariant audit (see [`crate::audit`]). Defaults
    /// to on in debug builds (where every test exercises it) and off in
    /// release, keeping the paper-scale sweeps at full throughput.
    pub audit: bool,
    /// Failure-detector parameters (§4.5): the silence threshold bounds
    /// detection latency in epochs.
    pub fault: FaultConfig,
    /// Relay-vs-VOQ arbitration burst (see
    /// [`sirius_core::node::SiriusNode::set_relay_burst`]).
    pub relay_burst: u8,
    /// Worker shards for the slot engine (`1` = serial, the default).
    /// Sharded runs are digest-identical to serial (see `crate::engine`);
    /// Ideal mode and audit-enabled runs use one shard regardless.
    /// Defaults to `SIRIUS_SHARDS` when that is set to an integer ≥ 1.
    pub shards: usize,
    /// Record per-plane wall-clock breakdown (the `*_secs` fields of
    /// [`crate::RunMetrics`]). Off by default: the clock reads cost real
    /// time on the hot path, and the breakdown is a bench-harness
    /// concern. Never affects behavior or digests.
    pub plane_timing: bool,
}

impl SiriusSimConfig {
    pub fn new(network: SiriusConfig) -> SiriusSimConfig {
        SiriusSimConfig {
            network,
            mode: CcMode::Protocol,
            seed: 1,
            drain_timeout: Duration::from_ms(2),
            max_slots: 200_000_000,
            audit: cfg!(debug_assertions),
            fault: FaultConfig::default(),
            relay_burst: sirius_core::node::RELAY_BURST,
            shards: env_default_shards(),
            plane_timing: false,
        }
    }

    pub fn with_mode(mut self, mode: CcMode) -> SiriusSimConfig {
        self.mode = mode;
        self
    }
    pub fn with_seed(mut self, seed: u64) -> SiriusSimConfig {
        self.seed = seed;
        self
    }
    pub fn with_audit(mut self, audit: bool) -> SiriusSimConfig {
        self.audit = audit;
        self
    }
    pub fn with_silence_threshold(mut self, epochs: u64) -> SiriusSimConfig {
        self.fault.silence_threshold = epochs;
        self
    }
    /// Fraction of a node's TX columns that must be suspect before the
    /// repair escalates from column-granular omission to whole-node
    /// exclusion (see [`FaultConfig::column_escalation_fraction`]). `0.0`
    /// reproduces the paper's §4.5 node-granular rule exactly — the first
    /// suspected column excludes the whole node.
    pub fn with_column_escalation_fraction(mut self, fraction: f64) -> SiriusSimConfig {
        self.fault.column_escalation_fraction = fraction;
        self
    }
    pub fn with_relay_burst(mut self, burst: u8) -> SiriusSimConfig {
        self.relay_burst = burst;
        self
    }
    /// Shard the slot engine's per-slot phases across `shards` threads
    /// (see [`SiriusSimConfig::shards`]). `1` spawns nothing.
    pub fn with_shards(mut self, shards: usize) -> SiriusSimConfig {
        assert!(shards >= 1, "shards must be >= 1");
        self.shards = shards;
        self
    }
    /// Record the per-plane wall-clock breakdown (see
    /// [`SiriusSimConfig::plane_timing`]).
    pub fn with_plane_timing(mut self, on: bool) -> SiriusSimConfig {
        self.plane_timing = on;
        self
    }
}

/// Default shard count when [`SiriusSimConfig::with_shards`] is not
/// called: `SIRIUS_SHARDS` if set to an integer ≥ 1, else 1 (serial).
/// The parse is cached and a malformed value warns exactly once per
/// process (same contract as `SIRIUS_JOBS` in the bench harness).
fn env_default_shards() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("SIRIUS_SHARDS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring SIRIUS_SHARDS={v:?} (want an integer >= 1)");
                1
            }
        },
        Err(_) => 1,
    })
}

/// Per-flow simulation state.
#[derive(Debug, Clone)]
pub(crate) struct FlowSt {
    pub(crate) bytes: u64,
    pub(crate) arrival: Time,
    pub(crate) src_server: u32,
    pub(crate) dst_server: u32,
    /// `u32` like [`Cell::seq`]: admission refuses a flow needing more
    /// cells.
    pub(crate) cells_total: u32,
    pub(crate) cells_injected: u32,
    pub(crate) delivered: u64,
    pub(crate) completion: Option<Time>,
    /// Receiver-side reordering (§4.2): written only by the deliver
    /// phase, through the receiver-owned element view.
    pub(crate) reorder: FlowReorder,
}

// The deliver plane may be sharded by receiver: workers then write flow
// records (each touching only flows terminating in its receiver range)
// from worker threads, so `FlowSt` must be `Send`. Compile-time check,
// mirroring `SiriusNode`'s.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FlowSt>()
};

/// Slab of per-flow state, filled one admission at a time. A streaming
/// run ([`SiriusSim::run_streaming`]) evicts on completion, so the slab's
/// occupancy tracks flows *in flight*, not flows *ever seen* — the
/// memory bound that lets the scale-out series push total flow counts
/// into the millions; a materialized run ([`SiriusSim::run`]) never
/// evicts, so slot `i` is workload flow `i`. Slot indices are the
/// engine's `FlowId`s; a slot is only reused after its flow completed
/// (every cell delivered), so a recycled id can never collide with a
/// live cell. The slab is the one owner of a flow's state, reorder
/// state included, and of its id's lifetime: the only other per-id
/// state, the audit's shadow reassembly, is told of each eviction
/// ([`SlotObserver::note_evicted`]) and drops its entry with the slot.
#[derive(Debug, Default)]
pub(crate) struct FlowTable {
    slots: Vec<FlowSt>,
    free: Vec<u32>,
    occupied: Vec<bool>,
    admitted: u64,
    resident: u64,
    resident_peak: u64,
}

impl FlowTable {
    /// Size the slab for `n` flows that will all stay resident, so lazy
    /// admission never pays (or keeps the slack of) `Vec` doubling.
    fn reserve(&mut self, n: usize) {
        self.slots.reserve_exact(n);
        self.occupied.reserve_exact(n);
    }

    /// Admit one flow into a free slot.
    fn alloc(&mut self, f: &Flow, payload: u32) -> u32 {
        let st = FlowSt {
            bytes: f.bytes,
            arrival: f.arrival,
            src_server: f.src_server,
            dst_server: f.dst_server,
            cells_total: Cell::count_for(f.bytes, payload) as u32,
            cells_injected: 0,
            delivered: 0,
            completion: None,
            reorder: FlowReorder::default(),
        };
        let fi = match self.free.pop() {
            Some(fi) => {
                debug_assert!(!self.occupied[fi as usize]);
                self.slots[fi as usize] = st;
                self.occupied[fi as usize] = true;
                fi
            }
            None => {
                self.slots.push(st);
                self.occupied.push(true);
                (self.slots.len() - 1) as u32
            }
        };
        self.admitted += 1;
        self.resident += 1;
        self.resident_peak = self.resident_peak.max(self.resident);
        fi
    }

    /// Free a completed flow's slot for reuse.
    fn evict(&mut self, fi: u32) {
        debug_assert!(self.occupied[fi as usize]);
        self.occupied[fi as usize] = false;
        self.free.push(fi);
        self.resident -= 1;
    }

    /// Flows admitted over the whole run.
    pub(crate) fn admitted(&self) -> u64 {
        self.admitted
    }

    /// High-water mark of simultaneously resident flows.
    pub(crate) fn resident_peak(&self) -> u64 {
        self.resident_peak
    }

    /// Element view of the slab for the deliver phase (see [`FlowSlots`]):
    /// arrival effects are receiver-local but flow ids are
    /// receiver-interleaved in slot order, so shards index disjoint
    /// *elements*, never disjoint ranges. The view borrows the slab, so
    /// growth (epoch boundaries) and eviction (replayed serially in the
    /// merge) cannot overlap it.
    pub(crate) fn element_view(&mut self) -> FlowSlots<'_> {
        FlowSlots::new(&mut self.slots)
    }

    /// Occupied slots in slot order (without eviction: every admitted
    /// flow, in workload order).
    pub(crate) fn iter_occupied(&self) -> impl Iterator<Item = &FlowSt> {
        self.slots
            .iter()
            .zip(&self.occupied)
            .filter_map(|(f, &occ)| occ.then_some(f))
    }
}

impl std::ops::Index<usize> for FlowTable {
    type Output = FlowSt;
    #[inline]
    fn index(&self, i: usize) -> &FlowSt {
        &self.slots[i]
    }
}

impl std::ops::IndexMut<usize> for FlowTable {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut FlowSt {
        &mut self.slots[i]
    }
}

/// Where the slot loop's flows come from: an iterator pulled one
/// admission at a time, holding a single-flow lookahead, so the source
/// stays O(1) in state beyond the [`FlowTable`] itself. The lookahead
/// refills immediately after each admission, so exhaustion (and with it
/// the drain deadline) is discovered at the same epoch boundary the last
/// flow is admitted.
pub(crate) struct StreamSource<I: Iterator<Item = Flow>> {
    iter: I,
    lookahead: Option<Flow>,
    drain: Duration,
    last_arrival: Time,
    deadline: Time,
    payload: u32,
    total_servers: usize,
}

impl<I: Iterator<Item = Flow>> StreamSource<I> {
    fn new(mut iter: I, drain: Duration, payload: u32, total_servers: usize) -> StreamSource<I> {
        let lookahead = iter.next();
        let deadline = if lookahead.is_none() {
            Time::ZERO + drain
        } else {
            Time::from_ps(u64::MAX)
        };
        StreamSource {
            iter,
            lookahead,
            drain,
            last_arrival: Time::ZERO,
            deadline,
            payload,
            total_servers,
        }
    }

    /// Admit the next flow with `arrival <= now` into the table,
    /// returning its slot, or `None` if no further flow has arrived yet.
    fn pop_arrived(&mut self, now: Time, table: &mut FlowTable) -> Option<u32> {
        if self.lookahead.as_ref()?.arrival > now {
            return None;
        }
        let f = self.lookahead.take().unwrap();
        assert!(
            (f.src_server as usize) < self.total_servers
                && (f.dst_server as usize) < self.total_servers,
            "workload references servers outside the deployment"
        );
        assert!(
            Cell::count_for(f.bytes, self.payload) <= u32::MAX as u64,
            "flow of {} bytes needs more than u32::MAX cells (Cell::seq is u32)",
            f.bytes
        );
        assert!(
            f.arrival >= self.last_arrival,
            "streamed workload arrivals must be nondecreasing"
        );
        self.last_arrival = f.arrival;
        let fi = table.alloc(&f, self.payload);
        self.lookahead = self.iter.next();
        if self.lookahead.is_none() {
            self.deadline = self.last_arrival + self.drain;
        }
        Some(fi)
    }

    /// True once every flow this source will ever produce has completed.
    pub(crate) fn finished(&self, table: &FlowTable, completed: u64) -> bool {
        self.lookahead.is_none() && completed >= table.admitted()
    }

    /// Absolute give-up time (last arrival + drain timeout): `u64::MAX`
    /// ps until the last arrival is known.
    pub(crate) fn deadline(&self) -> Time {
        self.deadline
    }
}

/// Per-server injection state.
#[derive(Debug, Default)]
pub(crate) struct ServerSt {
    /// Flows with cells still to inject, served round-robin.
    pub(crate) active: VecDeque<u32>,
    /// Byte credit accumulated from the server link.
    pub(crate) credit: i64,
}

/// The simulator itself. Build with [`SiriusSim::new`], then
/// [`run`](SiriusSim::run) a workload.
///
/// State is grouped by engine plane (see `crate::engine`); the
/// remaining fields are the cross-plane routing state (schedule, VLB,
/// nodes) and the workload bookkeeping the epoch boundary drives.
pub struct SiriusSim {
    pub(crate) cfg: SiriusSimConfig,
    /// Data-plane schedule with consistent-update dead-slot overlays; the
    /// base physical schedule is `sched.base()`.
    pub(crate) sched: AdjustedSchedule,
    pub(crate) vlb: Vlb,
    pub(crate) nodes: Vec<SiriusNode>,
    pub(crate) flows: FlowTable,
    pub(crate) servers: Vec<ServerSt>,
    pub(crate) rng: SmallRng,
    pub(crate) prop_slots: usize,
    /// Precomputed base-schedule destinations (static for the whole run).
    pub(crate) tables: DestTable,
    pub(crate) faults: FaultPlane,
    pub(crate) detect: DetectPlane,
    pub(crate) tx: TxPlane,
    pub(crate) delivery: DeliverPlane,
    /// The invariant audit, when [`SiriusSimConfig::audit`] is on.
    pub(crate) audit: Option<Audit>,
    /// Per-node grey-erasure RNG streams (empty until a fault script is
    /// armed at the start of the run); node `i`'s draw sequence depends
    /// only on the seed and `i`, never on the shard partition.
    pub(crate) fault_rngs: Vec<SmallRng>,
    /// Per-plane wall-clock accumulators (populated only when
    /// [`SiriusSimConfig::plane_timing`] is on).
    pub(crate) plane_times: crate::engine::PlaneTimes,
    /// Streaming mode: free a flow's slab slot the moment it completes,
    /// folding its terminal state into [`SiriusSim::stream_fold`] so the
    /// run digest still covers every flow. [`SiriusSim::run`] keeps this
    /// off: every flow stays resident and is reported.
    pub(crate) evict_completed: bool,
    /// Digest accumulator over evicted flows' terminal (delivered,
    /// completion) pairs, in eviction order. Eviction happens only in
    /// serial phases (epoch boundary, ring drain), so sharded and serial
    /// streaming runs fold identically.
    pub(crate) stream_fold: RunDigest,
    /// O(1)-memory FCT histogram folded alongside [`SiriusSim::stream_fold`]
    /// at eviction time. Metrics-only: it never feeds the run digest, so
    /// streaming digests stay byte-identical to before it existed.
    pub(crate) fct_hist: FctHistogram,
    payload: u32,
    epoch_credit_bytes: i64,
}

impl SiriusSim {
    pub fn new(cfg: SiriusSimConfig) -> SiriusSim {
        cfg.network.validate().expect("invalid network config");
        let net = &cfg.network;
        let sched = Schedule::new(net);
        let n = net.nodes;
        let uplinks = sched.uplinks();
        let mut grant_timeout = net.grant_timeout_epochs;
        // A grant must survive the request->grant->send->arrive pipeline,
        // which includes the fiber flight time.
        let prop_slots = net.propagation.as_ps().div_ceil(net.slot().as_ps());
        let prop_epochs = prop_slots / net.epoch_slots() + 1;
        // Floor: the worst legitimate VOQ wait. A granted cell for
        // intermediate I queues behind at most Q cells per destination
        // (each holding one of I's `queued + outstanding < Q` reservation
        // units), i.e. < Q*n cells, and relay-burst arbitration guarantees
        // the VOQ at least one departure every `RELAY_BURST + 1` scheduled
        // slots to I — so a grant that outlives `(RELAY_BURST+1) * Q * n`
        // epochs plus the flight time is genuinely lost (node failure),
        // never merely slow. A smaller timeout fires the loss backstop
        // spuriously at saturation and corrupts the conservation
        // accounting the audit layer checks.
        let voq_wait_bound =
            (cfg.relay_burst as u64 + 1) * (net.queue_threshold as u64) * (n as u64);
        grant_timeout = grant_timeout
            .max(16 + prop_epochs)
            .max(voq_wait_bound + prop_epochs);
        let nodes: Vec<SiriusNode> = (0..n as u32)
            .map(|i| {
                let mut node = match cfg.mode {
                    CcMode::Protocol => {
                        SiriusNode::new(NodeId(i), n, net.queue_threshold, grant_timeout)
                    }
                    CcMode::Ideal | CcMode::Greedy => {
                        SiriusNode::new_ideal(NodeId(i), n, net.queue_threshold)
                    }
                };
                node.set_relay_burst(cfg.relay_burst);
                node
            })
            .collect();
        let servers = (0..net.total_servers())
            .map(|_| ServerSt::default())
            .collect();
        let ring_len = prop_slots as usize + 1;
        // i128: millisecond-scale epochs (the granularity sweep's MEMS
        // point) overflow i64 in `rate x epoch`.
        let epoch_credit_bytes = ((net.server_rate.as_bps() as i128 / 8)
            * net.epoch().as_ps() as i128
            / 1_000_000_000_000) as i64;
        let audit = cfg.audit.then(|| {
            Audit::new(
                n,
                sched.uplinks(),
                net.queue_threshold,
                // The greedy ablation deliberately abandons the §4.3 bound.
                cfg.mode != CcMode::Greedy,
            )
        });
        let tables = DestTable::new(&sched);
        let queue_threshold = net.queue_threshold as u32;
        let payload = net.payload_bytes;
        SiriusSim {
            audit,
            tables,
            sched: AdjustedSchedule::new(sched),
            vlb: Vlb::new(n),
            nodes,
            flows: FlowTable::default(),
            servers,
            rng: SmallRng::seed_from_u64(cfg.seed),
            prop_slots: prop_slots as usize,
            faults: FaultPlane::new(cfg.seed, n, uplinks, net.grating_ports),
            detect: DetectPlane::new(n),
            tx: TxPlane::new(cfg.mode, n, queue_threshold),
            delivery: DeliverPlane::new(ring_len),
            fault_rngs: Vec::new(),
            plane_times: Default::default(),
            evict_completed: false,
            stream_fold: RunDigest::new(),
            fct_hist: FctHistogram::default(),
            payload,
            epoch_credit_bytes,
            cfg,
        }
    }

    /// Attach a scripted fault plane (builder form).
    pub fn with_faults(mut self, injector: FaultInjector) -> SiriusSim {
        self.set_faults(injector);
        self
    }

    /// Attach a scripted fault plane.
    ///
    /// # Panics
    /// On a malformed script (see [`try_set_faults`](Self::try_set_faults)):
    /// a script that silently never fires is worse than a loud
    /// constructor.
    pub fn set_faults(&mut self, injector: FaultInjector) {
        if let Err(e) = self.try_set_faults(injector) {
            panic!("invalid fault script: {e}");
        }
    }

    /// Attach a scripted fault plane, or say what is wrong with it
    /// ([`FaultInjector::validate`]): inverted windows, out-of-range
    /// nodes/uplinks/groups/chips/port bands, or contradictory events. On
    /// error the previously attached script stays in place.
    pub fn try_set_faults(&mut self, injector: FaultInjector) -> Result<(), FaultScriptError> {
        injector.validate(
            self.cfg.network.nodes,
            self.sched.base().uplinks(),
            self.cfg.network.grating_ports,
        )?;
        self.faults.injector = injector;
        Ok(())
    }

    fn node_of_server(&self, s: u32) -> NodeId {
        NodeId(s / self.cfg.network.servers_per_node as u32)
    }

    /// Run the workload (sorted by arrival) to completion or drain
    /// timeout; consumes the sim. Every flow stays resident and is
    /// reported in [`RunMetrics::flows`], in workload order.
    pub fn run(mut self, workload: &[Flow]) -> RunMetrics {
        let wall_start = std::time::Instant::now();
        self.flows.reserve(workload.len());
        self.dispatch(workload.iter().copied(), wall_start)
    }

    /// Run a *streamed* workload to completion (or drain timeout),
    /// holding flow state only for flows in flight: each flow's slab
    /// slot, reorder state included, is freed the moment it completes,
    /// so memory tracks concurrency, not total flow count. The delivered-
    /// cell digest covers exactly what [`SiriusSim::run`] covers, but
    /// evicted flows fold into a side accumulator in eviction order, so
    /// streaming digests are comparable only to streaming digests.
    /// [`RunMetrics::flows`] is empty — per-flow records for millions of
    /// flows are exactly the memory this path exists to avoid.
    ///
    /// Eviction is the only difference from [`SiriusSim::run`]: fault
    /// scripts, the audit and sharding all apply, and
    /// [`RunMetrics::fault`] is populated exactly as there. A recycled id
    /// cannot alias anything — a slot is reused only after its flow's
    /// last cell was delivered, and forged cells carry an id no slab
    /// reaches.
    pub fn run_streaming<I: Iterator<Item = Flow>>(mut self, flows: I) -> RunMetrics {
        let wall_start = std::time::Instant::now();
        self.evict_completed = true;
        self.dispatch(flows, wall_start)
    }

    /// Shared body of [`SiriusSim::run`] / [`SiriusSim::run_streaming`]:
    /// build the source, arm the fault script, run the slot loop under
    /// the configured observer, collect metrics.
    fn dispatch<I: Iterator<Item = Flow>>(
        mut self,
        flows: I,
        wall_start: std::time::Instant,
    ) -> RunMetrics {
        let mut src = StreamSource::new(
            flows,
            self.cfg.drain_timeout,
            self.payload,
            self.cfg.network.total_servers(),
        );
        self.arm_fault_script();
        // The slot loop is monomorphized per observer: the audit itself
        // when it is on, else the NullObserver instantiation that
        // compiles the probes away (see `crate::engine::observer`).
        let mut audit = self.audit.take();
        let abs_slot = match &mut audit {
            Some(audit) => self.run_loop(&mut src, audit),
            None => self.run_loop(&mut src, &mut NullObserver),
        };
        let slot_ps = self.cfg.network.slot().as_ps();
        let epochs = abs_slot / self.cfg.network.epoch_slots();
        self.finish(
            Time::from_ps(abs_slot * slot_ps),
            epochs,
            wall_start.elapsed().as_secs_f64(),
            audit.map(Audit::finish),
        )
    }

    /// Fold a completed flow's terminal state into the streaming digest
    /// accumulator and free its slab slot, telling the observer the id is
    /// reusable from here on.
    pub(crate) fn fold_and_evict<O: SlotObserver>(&mut self, fi: u32, obs: &mut O) {
        let f = &self.flows[fi as usize];
        debug_assert!(f.completion.is_some());
        self.stream_fold.update(f.delivered);
        self.stream_fold.update(
            f.completion
                .map(|c| c.since(Time::ZERO).as_ps())
                .unwrap_or(u64::MAX),
        );
        if let Some(c) = f.completion {
            self.fct_hist.record(c.since(f.arrival));
        }
        self.flows.evict(fi);
        obs.note_evicted(FlowId(fi as u64));
    }

    /// Epoch boundary: flow admission + injection, then the CC round.
    /// `clock` is the plane-timing mark the driver opened for this
    /// boundary (`None` when timing is off); each stage charges its share.
    pub(crate) fn epoch_boundary<I: Iterator<Item = Flow>, O: SlotObserver>(
        &mut self,
        epoch: u64,
        now: Time,
        src: &mut StreamSource<I>,
        obs: &mut O,
        clock: &mut Option<std::time::Instant>,
    ) {
        // 1. Admit flows that have arrived.
        while let Some(fi) = src.pop_arrived(now, &mut self.flows) {
            let (bytes, src_server, dst_server) = {
                let f = &self.flows[fi as usize];
                (f.bytes, f.src_server, f.dst_server)
            };
            let src_node = self.node_of_server(src_server);
            let dst_node = self.node_of_server(dst_server);
            if src_node == dst_node {
                // Intra-rack traffic bypasses the optical core (§4.2):
                // delivered after one server-link serialization.
                let done = now + self.cfg.network.server_rate.tx_time(bytes);
                self.flows[fi as usize].completion = Some(done);
                self.flows[fi as usize].delivered = bytes;
                self.delivery.delivered_bytes += bytes;
                self.delivery.completed += 1;
                self.delivery.last_delivery = self.delivery.last_delivery.max(done);
                if self.evict_completed {
                    self.fold_and_evict(fi, obs);
                }
            } else {
                self.servers[src_server as usize].active.push_back(fi);
            }
        }
        split(&mut self.plane_times.admit, clock);

        // 2. Server injection: every server earns one epoch of link credit
        //    and injects cells round-robin across its active flows.
        for s in 0..self.servers.len() {
            if self.faults.is_crashed(self.node_of_server(s as u32)) {
                // Servers behind a crashed ToR are off the fabric entirely.
                self.servers[s].credit = 0;
                continue;
            }
            if self.servers[s].active.is_empty() {
                // Credit does not accumulate while idle (non-work-conserving
                // credits would let a server burst above its link rate).
                self.servers[s].credit = 0;
                continue;
            }
            self.servers[s].credit += self.epoch_credit_bytes;
            while let Some(&fi) = self.servers[s].active.front() {
                let spn = self.cfg.network.servers_per_node as u32;
                let f = &mut self.flows[fi as usize];
                let seq = f.cells_injected;
                let pay = Cell::payload_of(seq as u64, f.bytes, self.payload);
                if self.servers[s].credit < pay as i64 {
                    break;
                }
                self.servers[s].credit -= pay as i64;
                let src_node = NodeId(f.src_server / spn);
                let dst_node = NodeId(f.dst_server / spn);
                let cell = Cell {
                    flow: FlowId(fi as u64),
                    seq,
                    payload: pay,
                    src: src_node,
                    dst: dst_node,
                    dst_server: ServerId(f.dst_server),
                    last: seq + 1 == f.cells_total,
                };
                f.cells_injected += 1;
                let finished = f.cells_injected == f.cells_total;
                self.nodes[src_node.0 as usize].enqueue_local(cell);
                obs.note_injected();
                // Round-robin: rotate the flow to the back (or drop it).
                let fi = self.servers[s].active.pop_front().unwrap();
                if !finished {
                    self.servers[s].active.push_back(fi);
                }
            }
        }

        split(&mut self.plane_times.inject, clock);

        if self.cfg.mode != CcMode::Protocol {
            return;
        }

        // 3. Begin epoch on every node (rotates request inboxes, expires
        //    grants).
        for node in &mut self.nodes {
            node.begin_epoch(epoch);
        }

        // 4. Issue grants for requests received last epoch; deliver them to
        //    the sources, which move granted cells into VOQs.
        let control_loss = self.faults.active.control_loss;
        let repaired = self.sched.has_omitted_columns();
        for i in 0..self.nodes.len() {
            let ni = NodeId(i as u32);
            if self.faults.is_crashed(ni) || self.sched.is_omitted(ni) {
                continue;
            }
            // With a column-repaired schedule the intermediate must not
            // grant requests for destinations its own TX columns can no
            // longer reach (denied requests re-roll a fresh detour at the
            // source).
            let reachable = repaired.then(|| self.sched.usable_from(ni));
            let grants = self.nodes[i]
                .cc
                .issue_grants_filtered(&mut self.rng, epoch, |d| {
                    reachable.is_none_or(|row| bits::get(row, d.0 as usize))
                });
            for (src, dst) in grants {
                if self.faults.is_crashed(src) || self.sched.is_omitted(src) {
                    continue; // the loss backstop reclaims this grant
                }
                // ControlLoss window: the grant is corrupted in flight.
                // Grant expiry at the intermediate reclaims the slot.
                if control_loss > 0.0 && self.faults.injector.draw(control_loss) {
                    self.faults.report.grants_lost += 1;
                    continue;
                }
                let used = self.nodes[src.0 as usize].receive_grant(ni, dst);
                if !used {
                    // Source had no waiting cell: decline (piggybacked on
                    // the next scheduled cell back to the intermediate).
                    self.nodes[i].cc.grant_declined(dst);
                }
            }
        }

        // 5. Generate this epoch's requests (piggybacked on this epoch's
        //    cells; considered for grants next epoch).
        for i in 0..self.nodes.len() {
            let ni = NodeId(i as u32);
            if self.faults.is_crashed(ni) || self.sched.is_omitted(ni) {
                continue;
            }
            let vlb = &self.vlb;
            let sched = &self.sched;
            // Under column repair a VLB detour must be reachable from the
            // source *and* able to reach the destination through the
            // repaired schedule; the healthy pick keeps its O(1) eligible
            // count.
            let from = repaired.then(|| sched.usable_from(ni));
            let reqs = self.nodes[i].gen_requests(&mut self.rng, |rng, src, dst| match from {
                Some(from) => vlb.pick_masked(rng, src, dst, from, sched.usable_to(dst)),
                None => vlb.pick(rng, src, dst),
            });
            for (intermediate, dst) in reqs {
                if self.faults.is_crashed(intermediate) {
                    // A request addressed to a dead node vanishes with it;
                    // the sticky VOQ entry re-requests next epoch.
                    continue;
                }
                // ControlLoss window: the request is corrupted in flight.
                if control_loss > 0.0 && self.faults.injector.draw(control_loss) {
                    self.faults.report.requests_lost += 1;
                    continue;
                }
                self.nodes[intermediate.0 as usize]
                    .cc
                    .receive_request(ni, dst);
            }
        }

        // 6. Byzantine request inflation: a compromised node floods random
        //    intermediates with counterfeit requests for cells that do not
        //    exist. The damage shows up as declined grants (the liar has
        //    no waiting cell when granted) — capacity stolen from honest
        //    requesters — and is bounded per epoch by `extra_requests`.
        //    Draws come from the liar's own fault stream, after any TX
        //    forge draws of the preceding epoch, so the sequence stays
        //    shard-partition-independent.
        if self.faults.active.any_byz() {
            let n = self.nodes.len() as u32;
            for bi in 0..self.faults.active.byz_nodes.len() {
                let b = self.faults.active.byz_nodes[bi];
                let extra = self.faults.active.byz_extra_of(b);
                if extra == 0 || self.faults.is_crashed(b) || self.sched.is_omitted(b) {
                    continue;
                }
                for _ in 0..extra {
                    let rng = &mut self.fault_rngs[b.0 as usize];
                    let dst = NodeId(rng.gen_range(0..n));
                    let intermediate = NodeId(rng.gen_range(0..n));
                    if self.faults.is_crashed(intermediate) {
                        continue;
                    }
                    self.nodes[intermediate.0 as usize]
                        .cc
                        .receive_request(b, dst);
                    self.faults.report.requests_forged += 1;
                }
            }
        }
        split(&mut self.plane_times.cc, clock);
    }

    fn finish(
        self,
        end: Time,
        epochs: u64,
        wall_secs: f64,
        audit: Option<AuditReport>,
    ) -> RunMetrics {
        let total_flows = self.flows.admitted();
        let span = if self.delivery.last_delivery > Time::ZERO {
            self.delivery.last_delivery.since(Time::ZERO)
        } else {
            end.since(Time::ZERO)
        };
        // Fold the summary into the delivered-cell digest: two runs agree
        // iff they delivered the same cells in the same order *and* ended
        // in the same aggregate state. Streaming runs fold evicted flows
        // through the side accumulator plus whatever is still resident;
        // materialized runs fold every flow in slot (= workload) order.
        let mut digest = self.delivery.digest;
        digest.update(self.delivery.delivered_bytes);
        digest.update(span.as_ps());
        digest.update(total_flows - self.delivery.completed);
        if self.evict_completed {
            digest.update(self.stream_fold.value());
        }
        for f in self.flows.iter_occupied() {
            digest.update(f.delivered);
            digest.update(
                f.completion
                    .map(|c| c.since(Time::ZERO).as_ps())
                    .unwrap_or(u64::MAX),
            );
        }
        let fault = if !self.faults.injector.is_empty() {
            let mut fr = self.faults.report;
            fr.capacity_factor_end = self.sched.capacity_factor();
            // Grey-localization score: of the (node, uplink) TX columns the
            // script degraded, how many did the per-column detector flag?
            let mut declared: Vec<(NodeId, u16)> = Vec::new();
            for e in self.faults.injector.events() {
                if let FaultEvent::GreyLink { node, uplink, .. } = *e {
                    if !declared.contains(&(node, uplink)) {
                        declared.push((node, uplink));
                    }
                }
            }
            fr.grey_links_declared = declared.len() as u32;
            fr.grey_links_localized = declared
                .iter()
                .filter(|&&l| fr.links.iter().any(|r| (r.node, r.uplink) == l))
                .count() as u32;
            Some(fr)
        } else {
            None
        };
        RunMetrics {
            flows: if self.evict_completed {
                Vec::new()
            } else {
                self.flows
                    .iter_occupied()
                    .map(|f| FlowRecord {
                        bytes: f.bytes,
                        arrival: f.arrival,
                        completion: f.completion,
                        delivered: f.delivered,
                    })
                    .collect()
            },
            delivered_bytes: self.delivery.delivered_bytes,
            span,
            peak_node_fabric_cells: self
                .nodes
                .iter()
                .map(|n| n.peak_fabric_cells())
                .max()
                .unwrap_or(0),
            peak_node_local_cells: self
                .nodes
                .iter()
                .map(|n| n.peak_local_cells())
                .max()
                .unwrap_or(0),
            peak_reorder_flow_bytes: self.delivery.peak_reorder_flow_bytes,
            resident_flows_max: self.flows.resident_peak(),
            cell_bytes: self.cfg.network.cell_bytes,
            incomplete_flows: total_flows - self.delivery.completed,
            cc: {
                let mut total = sirius_core::congestion::CcStats::default();
                for n in &self.nodes {
                    total.add(&n.cc.stats());
                }
                total
            },
            digest: digest.value(),
            audit,
            fault,
            wall_secs,
            cells_delivered: self.delivery.cells_delivered,
            epochs_simulated: epochs,
            tx_secs: self.plane_times.tx.as_secs_f64(),
            deliver_secs: self.plane_times.deliver.as_secs_f64(),
            merge_secs: self.plane_times.merge.as_secs_f64(),
            fault_boundary_secs: self.plane_times.fault_boundary.as_secs_f64(),
            admit_secs: self.plane_times.admit.as_secs_f64(),
            inject_secs: self.plane_times.inject.as_secs_f64(),
            cc_secs: self.plane_times.cc.as_secs_f64(),
            fct_hist: if self.evict_completed {
                Some(self.fct_hist)
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_core::units::Rate;
    use sirius_workload::{Pareto, Pattern, WorkloadSpec};

    fn tiny_net() -> SiriusConfig {
        let mut c = SiriusConfig::scaled(16, 4);
        c.servers_per_node = 2;
        c.server_rate = Rate::from_gbps(50);
        c
    }

    fn tiny_workload(net: &SiriusConfig, load: f64, flows: u64, seed: u64) -> Vec<Flow> {
        WorkloadSpec {
            servers: net.total_servers() as u32,
            server_rate: net.server_rate,
            load,
            sizes: Pareto::paper_default().truncated(1e6),
            flows,
            pattern: Pattern::Uniform,
            seed,
        }
        .generate()
    }

    #[test]
    fn all_flows_complete_at_low_load() {
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.2, 300, 7);
        let m = SiriusSim::new(SiriusSimConfig::new(net)).run(&wl);
        assert_eq!(m.incomplete_flows, 0, "flows stuck at low load");
        let expect: u64 = wl.iter().map(|f| f.bytes).sum();
        assert_eq!(m.delivered_bytes, expect, "byte conservation violated");
    }

    #[test]
    fn drain_timeout_terminates_an_overloaded_run() {
        // At twice the offerable load the backlog never drains; the run
        // must still stop `drain_timeout` after the last arrival and
        // report the unfinished flows instead of spinning forever.
        let net = tiny_net();
        let wl = tiny_workload(&net, 2.0, 400, 12);
        let last_arrival = wl.last().unwrap().arrival;
        let mut cfg = SiriusSimConfig::new(net);
        cfg.drain_timeout = Duration::from_us(50);
        let m = SiriusSim::new(cfg).run(&wl);
        assert!(m.incomplete_flows > 0, "overload run completed everything");
        assert!(m.delivered_bytes > 0, "nothing delivered before cutoff");
        // The clock stopped within one epoch of the deadline.
        let deadline = last_arrival + Duration::from_us(50);
        assert!(
            m.span <= deadline.since(Time::ZERO) + Duration::from_us(5),
            "run span {} way past the drain deadline",
            m.span
        );
    }

    #[test]
    fn ideal_mode_also_completes() {
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.2, 300, 8);
        let m = SiriusSim::new(SiriusSimConfig::new(net).with_mode(CcMode::Ideal)).run(&wl);
        assert_eq!(m.incomplete_flows, 0);
    }

    #[test]
    fn ideal_fct_not_worse_than_protocol() {
        // The ideal baseline removes the request/grant latency, so short
        // flows must finish at least as fast (paper: 55-63% faster at low
        // load).
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.1, 400, 9);
        let proto = SiriusSim::new(SiriusSimConfig::new(net.clone())).run(&wl);
        let ideal = SiriusSim::new(SiriusSimConfig::new(net).with_mode(CcMode::Ideal)).run(&wl);
        let fp = proto.fct_mean(100_000).unwrap();
        let fi = ideal.fct_mean(100_000).unwrap();
        // Tiny-scale runs are noisy; the ideal mean must not be
        // meaningfully above the protocol mean.
        assert!(
            fi.as_ps() as f64 <= fp.as_ps() as f64 * 1.10,
            "ideal mean FCT {fi} well above protocol mean {fp}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.3, 200, 11);
        let a = SiriusSim::new(SiriusSimConfig::new(net.clone()).with_seed(5)).run(&wl);
        let b = SiriusSim::new(SiriusSimConfig::new(net).with_seed(5)).run(&wl);
        assert_eq!(a.delivered_bytes, b.delivered_bytes);
        assert_eq!(a.peak_node_fabric_cells, b.peak_node_fabric_cells);
        let fa: Vec<_> = a.flows.iter().map(|f| f.completion).collect();
        let fb: Vec<_> = b.flows.iter().map(|f| f.completion).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn relay_queues_bounded_by_q() {
        // The protocol's whole purpose: no relay queue ever exceeds Q.
        // (Enforced by debug_asserts inside CongestionState, exercised here
        // at a bursty load.)
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.9, 1500, 13);
        let m = SiriusSim::new(SiriusSimConfig::new(net.clone())).run(&wl);
        // Peak fabric cells per node is bounded by relay (<= Q per dest) +
        // VOQs; sanity: it stays far below the total cell population.
        assert!(m.peak_node_fabric_cells < 4000);
        assert!(m.delivered_bytes > 0);
    }

    #[test]
    fn intra_rack_flows_bypass_core() {
        let mut net = tiny_net();
        net.servers_per_node = 4;
        let wl = vec![Flow {
            id: 0,
            src_server: 0,
            dst_server: 1, // same node (servers 0..4 on node 0)
            bytes: 10_000,
            arrival: Time::ZERO,
        }];
        let m = SiriusSim::new(SiriusSimConfig::new(net)).run(&wl);
        assert_eq!(m.incomplete_flows, 0);
        // FCT = one server-link serialization: 10 KB at 50 Gbps = 1.6 us.
        let fct = m.flows[0].fct().unwrap();
        assert!(fct < Duration::from_us(2), "intra-rack FCT {fct}");
    }

    #[test]
    #[should_panic(expected = "needs more than u32::MAX cells")]
    fn a_flow_whose_sequence_numbers_would_wrap_is_refused_at_admission() {
        let net = tiny_net();
        let payload = net.payload_bytes as u64;
        let wl = vec![Flow {
            id: 0,
            src_server: 0,
            dst_server: 2,
            bytes: (u32::MAX as u64 + 1) * payload,
            arrival: Time::ZERO,
        }];
        SiriusSim::new(SiriusSimConfig::new(net)).run(&wl);
    }

    #[test]
    fn flow_record_stays_compact() {
        // One per admitted flow, reorder state included; a slice run keeps
        // every record for the whole run.
        assert!(std::mem::size_of::<FlowSt>() <= 88);
    }

    #[test]
    fn failed_node_strands_its_flows_only() {
        let net = tiny_net();
        // One flow through every src node to dst node 1.
        let mut wl = Vec::new();
        for (k, s) in (0..16u32).enumerate() {
            if s == 1 {
                continue;
            }
            wl.push(Flow {
                id: k as u64,
                src_server: s * 2,
                dst_server: 2, // node 1
                bytes: 5_000,
                arrival: Time::from_ps(k as u64),
            });
        }
        // Node 3 dies immediately; flows from server 6 (node 3) strand.
        let m = SiriusSim::new(SiriusSimConfig::new(net))
            .with_faults(FaultInjector::new(1).crash(NodeId(3), 0))
            .run(&wl);
        // Some cells may be lost in the detection window if they were
        // relayed via node 3; flows sourced at node 3 definitely strand.
        assert!(m.incomplete_flows >= 1);
        // But the network as a whole keeps delivering.
        assert!(m.completed_flows() >= 10);
        // Detection was emergent: nothing told routing about the crash, yet
        // the silence detectors converged within threshold + 1 epochs.
        let fr = m.fault.expect("injector attached, report missing");
        let rec = &fr.failures[0];
        assert_eq!(rec.fail_epoch, 0);
        let lat = rec.detection_epochs().expect("crash never suspected");
        assert!(lat <= 3 + 1, "detection latency {lat} epochs");
        assert_eq!(
            rec.excluded_at.expect("never excluded"),
            rec.first_suspected.unwrap() + 1,
            "exclusion must land exactly one update epoch after suspicion"
        );
        assert!(fr.capacity_factor_end < 1.0);
    }

    #[test]
    fn crash_and_recover_readmits_emergently() {
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.2, 200, 19);
        let inj = FaultInjector::new(19)
            .crash(NodeId(5), 10)
            .recover(NodeId(5), 60);
        let m = SiriusSim::new(SiriusSimConfig::new(net))
            .with_faults(inj)
            .run(&wl);
        let fr = m.fault.unwrap();
        let rec = &fr.failures[0];
        assert!(rec.excluded_at.is_some(), "crash never excluded");
        let readmit = rec.readmitted_at.expect("reboot never readmitted");
        assert!(
            (60..=60 + 3 + 2).contains(&readmit),
            "readmission at {readmit}, reboot at 60"
        );
        assert_eq!(fr.exclusions, 1);
        assert_eq!(fr.readmissions, 1);
        // Full capacity restored by the end of the run.
        assert_eq!(fr.capacity_factor_end, 1.0);
    }

    #[test]
    fn a_rejected_fault_script_leaves_the_attached_one_in_place() {
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.2, 200, 19);
        let mut sim = SiriusSim::new(SiriusSimConfig::new(net));
        sim.try_set_faults(FaultInjector::new(19).crash(NodeId(5), 10))
            .expect("a well-formed script attaches");
        // Node 16 does not exist in a 16-node deployment.
        let err = sim
            .try_set_faults(FaultInjector::new(19).crash(NodeId(16), 10))
            .unwrap_err();
        assert!(
            matches!(err, FaultScriptError::NodeOutOfRange { nodes: 16, .. }),
            "{err}"
        );
        let fr = sim.run(&wl).fault.expect("the first script still runs");
        assert_eq!(fr.failures.len(), 1);
        assert_eq!(fr.failures[0].node, NodeId(5));
    }

    #[test]
    fn control_loss_is_absorbed_without_data_loss() {
        // Sticky request re-issue and grant expiry must absorb lossy
        // control messaging: flows complete, no cells vanish.
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.3, 300, 23);
        let inj = FaultInjector::new(23).control_loss(0.3, 0, u64::MAX);
        let mut cfg = SiriusSimConfig::new(net).with_audit(true);
        // Lossy control costs extra request/grant round trips; give the
        // tail flows room to drain.
        cfg.drain_timeout = Duration::from_ms(10);
        let m = SiriusSim::new(cfg).with_faults(inj).run(&wl);
        assert_eq!(m.incomplete_flows, 0, "control loss stranded flows");
        let fr = m.fault.unwrap();
        assert!(
            fr.requests_lost + fr.grants_lost > 0,
            "control-loss window never fired"
        );
        assert_eq!(
            fr.cells_lost_crash + fr.cells_lost_grey + fr.cells_lost_mistune,
            0
        );
        let audit = m.audit.unwrap();
        assert!(audit.is_clean(), "audit violations: {:?}", audit.violations);
    }

    #[test]
    fn grey_link_losses_are_attributed() {
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.5, 400, 29);
        let inj = FaultInjector::new(29).grey_link(NodeId(2), 1, 0.5, 5, 200);
        let m = SiriusSim::new(SiriusSimConfig::new(net).with_audit(true))
            .with_faults(inj)
            .run(&wl);
        let fr = m.fault.unwrap();
        assert!(fr.cells_lost_grey > 0, "grey window erased nothing");
        let audit = m.audit.unwrap();
        assert!(audit.is_clean(), "audit violations: {:?}", audit.violations);
    }

    #[test]
    fn mistuned_laser_is_detected_and_excluded() {
        // A fully mistuned node goes silent on every RX column it should
        // be driving, so node-level silence detection excludes it; when the
        // laser is re-tuned its keepalives readmit it.
        let net = tiny_net();
        let wl = tiny_workload(&net, 0.2, 200, 31);
        let inj = FaultInjector::new(31).mistune(NodeId(4), 3, 10, 60);
        let m = SiriusSim::new(SiriusSimConfig::new(net).with_audit(true))
            .with_faults(inj)
            .run(&wl);
        let fr = m.fault.unwrap();
        assert!(fr.exclusions >= 1, "mistuned node never excluded");
        assert!(fr.readmissions >= 1, "re-tuned node never readmitted");
        assert!(fr.cells_lost_mistune > 0);
        let audit = m.audit.unwrap();
        assert!(audit.is_clean(), "audit violations: {:?}", audit.violations);
    }

    #[test]
    fn no_false_suspicions_without_faults_under_saturation() {
        // Keepalives ride every scheduled slot, so load can never imitate
        // silence: a saturated but healthy run must produce zero suspicion
        // events. (Run with an empty injector attached to get the report.)
        let net = tiny_net();
        let wl = tiny_workload(&net, 1.0, 800, 37);
        let inj = FaultInjector::new(37).crash(NodeId(0), u64::MAX - 1);
        let m = SiriusSim::new(SiriusSimConfig::new(net))
            .with_faults(inj)
            .run(&wl);
        let fr = m.fault.unwrap();
        assert_eq!(fr.suspicion_events, 0, "false suspicion under saturation");
        assert_eq!(fr.exclusions, 0);
    }

    #[test]
    fn fct_grows_with_load() {
        let net = tiny_net();
        let lo = SiriusSim::new(SiriusSimConfig::new(net.clone()))
            .run(&tiny_workload(&net, 0.1, 400, 21));
        let hi = SiriusSim::new(SiriusSimConfig::new(net.clone()))
            .run(&tiny_workload(&net, 0.9, 400, 21));
        let f_lo = lo.fct_percentile(99.0, 100_000).unwrap();
        let f_hi = hi.fct_percentile(99.0, 100_000).unwrap();
        assert!(f_hi >= f_lo, "p99 at high load {f_hi} < low load {f_lo}");
    }
}
