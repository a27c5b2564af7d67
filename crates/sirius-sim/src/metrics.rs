//! Flow-level metrics: flow completion times, goodput, queue occupancy.
//!
//! These implement the measurements of §7: 99th-percentile FCT of short
//! flows (< 100 KB), average server goodput normalized by `N * R`, peak
//! aggregate queue occupancy per node, and peak per-flow reorder buffer.

use crate::audit::AuditReport;
use sirius_core::congestion::CcStats;
use sirius_core::units::{Duration, Rate, Time};

/// Record of one completed (or still-running) flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowRecord {
    pub bytes: u64,
    pub arrival: Time,
    pub completion: Option<Time>,
    /// Payload bytes delivered in order by the end of the run.
    pub delivered: u64,
}

impl FlowRecord {
    pub fn fct(&self) -> Option<Duration> {
        self.completion.map(|c| c.since(self.arrival))
    }
}

/// What happened to one scripted node crash, as *measured* by the
/// silence-driven detection pipeline (§4.5): when the node actually died,
/// when the first detector suspected it, when routing excluded it, and —
/// if it recovered — when routing readmitted it.
#[derive(Debug, Clone, Copy)]
pub struct FailureRecord {
    pub node: sirius_core::topology::NodeId,
    /// Ground-truth epoch the node died.
    pub fail_epoch: u64,
    /// Epoch the first silence detector suspected it (None: never).
    pub first_suspected: Option<u64>,
    /// Epoch the staged exclusion took routing effect (None: never).
    pub excluded_at: Option<u64>,
    /// Ground-truth epoch the node rebooted, if scripted.
    pub recovered_epoch: Option<u64>,
    /// Epoch the staged readmission took routing effect, if any.
    pub readmitted_at: Option<u64>,
}

impl FailureRecord {
    /// Detection latency in epochs (suspicion minus ground-truth death).
    pub fn detection_epochs(&self) -> Option<u64> {
        self.first_suspected.map(|s| s - self.fail_epoch)
    }
}

/// What happened to one suspected grey TX column, as measured by the
/// per-column silence pipeline: when some receiver first went silent on
/// it, when the column-granular repair dropped it from the schedule, and
/// — if its keepalives came back — when it was readmitted. Columns that
/// escalate to whole-node exclusion keep their record but may never get
/// an `omitted_at` of their own.
#[derive(Debug, Clone, Copy)]
pub struct LinkRecord {
    pub node: sirius_core::topology::NodeId,
    pub uplink: u16,
    /// Epoch the per-column detector first suspected this TX column.
    pub first_suspected: u64,
    /// Epoch the staged column omission took routing effect (None: the
    /// suspicion escalated to whole-node exclusion instead, or repair is
    /// running in node-granular comparison mode).
    pub omitted_at: Option<u64>,
    /// Epoch the staged column readmission took routing effect, if any.
    pub readmitted_at: Option<u64>,
}

/// A correlated failure domain diagnosed by cross-node column
/// correlation: at `detected_at`, `nodes` distinct peers were suspect on
/// the same `uplink` column — a shared laser-bank chip or AWGR grating
/// band, not independent transceivers — so repair stayed column-granular
/// fleet-wide instead of escalating node by node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelatedDomainRecord {
    pub uplink: u16,
    /// Distinct nodes suspect on the column when the diagnosis fired.
    pub nodes: u32,
    /// Epoch the correlation threshold was crossed.
    pub detected_at: u64,
}

/// One node quarantined by the RX-side Byzantine filter: its per-epoch
/// forged-cell count crossed `sirius_core::fault::BYZ_QUARANTINE_THRESHOLD` at
/// `quarantined_at` and whole-node exclusion was staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineRecord {
    pub node: sirius_core::topology::NodeId,
    pub quarantined_at: u64,
}

/// Fault-plane accounting for a run with a `FaultInjector` attached.
/// Everything here is measured from emergent behavior — nothing is an
/// echo of the script.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// One record per scripted crash, in script order.
    pub failures: Vec<FailureRecord>,
    /// (observer, suspect) suspicion transitions seen by the detectors.
    pub suspicion_events: u64,
    /// Routing exclusions / readmissions applied at update epochs.
    pub exclusions: u64,
    pub readmissions: u64,
    /// Column-granular (single TX link) repairs applied at update epochs.
    pub column_omissions: u64,
    pub column_readmissions: u64,
    /// One record per suspected TX column, in first-suspicion order.
    pub links: Vec<LinkRecord>,
    /// Cells already committed to a path severed by a column omission
    /// that were pulled back and relaunched on a fresh detour (reclaimed
    /// from VOQs, drained from relay queues, or rerouted on arrival).
    pub cells_rerouted: u64,
    /// Cells lost, by cause.
    pub cells_lost_crash: u64,
    pub cells_lost_grey: u64,
    pub cells_lost_mistune: u64,
    /// Control messages dropped by a `ControlLoss` window.
    pub requests_lost: u64,
    pub grants_lost: u64,
    /// Distinct grey TX links declared by the script, and how many of
    /// them the per-column silence detector localized.
    pub grey_links_declared: u32,
    pub grey_links_localized: u32,
    /// `AdjustedSchedule::capacity_factor` at the end of the run.
    pub capacity_factor_end: f64,
    /// Counterfeit cells a Byzantine node launched onto the fabric.
    pub cells_forged: u64,
    /// Counterfeits the RX-side filter caught and dropped.
    pub cells_forged_dropped: u64,
    /// Worst per-epoch forged-cell count attributed to any single node —
    /// the measured damage bound the quarantine threshold enforces.
    pub max_forged_per_epoch: u64,
    /// Counterfeit bandwidth requests injected at epoch boundaries.
    pub requests_forged: u64,
    /// Nodes quarantined by the Byzantine filter, in quarantine order.
    pub byz_quarantined: Vec<ByzantineRecord>,
    /// Correlated domains diagnosed by cross-node column correlation.
    pub correlated_domains: Vec<CorrelatedDomainRecord>,
}

impl FaultReport {
    /// Worst measured detection latency across scripted crashes, in
    /// epochs (None when nothing was detected).
    pub fn max_detection_epochs(&self) -> Option<u64> {
        self.failures
            .iter()
            .filter_map(|f| f.detection_epochs())
            .max()
    }
}

/// Streaming flow-completion-time histogram: power-of-two buckets over
/// picoseconds, O(1) memory regardless of flow count. Bucket `b` counts
/// FCTs in `[2^b, 2^(b+1))` ps (bucket 0 also absorbs zero). Percentile
/// queries answer with the bucket's geometric midpoint clamped into the
/// exactly-tracked `[min, max]` envelope, so they carry at most a
/// factor-of-√2 relative error — sufficient for the scale series'
/// order-of-magnitude FCT columns, while `min`/`max`/`mean` stay exact.
///
/// A materialized run ([`RunMetrics::fct_percentile`]) keeps every
/// [`FlowRecord`] and sorts for exact percentiles; the streaming path
/// evicts flow state at completion, so this histogram is the only FCT
/// signal that survives a memory-bounded run.
#[derive(Debug, Clone)]
pub struct FctHistogram {
    counts: [u64; 64],
    total: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl Default for FctHistogram {
    fn default() -> FctHistogram {
        FctHistogram {
            counts: [0; 64],
            total: 0,
            sum_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }
}

impl FctHistogram {
    /// Fold one completed flow's FCT in (O(1) time and memory).
    pub fn record(&mut self, fct: Duration) {
        let ps = fct.as_ps();
        let b = 63u32.saturating_sub(ps.leading_zeros()) as usize;
        self.counts[b] += 1;
        self.total += 1;
        self.sum_ps += ps as u128;
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Flows recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// p-th percentile (0..=100) of recorded FCTs in picoseconds
    /// (nearest-rank over buckets; ±√2 bucket resolution). `None` when
    /// empty.
    pub fn percentile_ps(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p));
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = (1u64 << b) as f64 * std::f64::consts::SQRT_2;
                return Some(mid.clamp(self.min_ps as f64, self.max_ps as f64));
            }
        }
        unreachable!("rank is clamped to the recorded total");
    }

    /// Exact mean FCT in picoseconds (`None` when empty).
    pub fn mean_ps(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        Some(self.sum_ps as f64 / self.total as f64)
    }

    /// Exact smallest recorded FCT.
    pub fn min(&self) -> Option<Duration> {
        (self.total > 0).then(|| Duration::from_ps(self.min_ps))
    }

    /// Exact largest recorded FCT.
    pub fn max(&self) -> Option<Duration> {
        (self.total > 0).then(|| Duration::from_ps(self.max_ps))
    }

    /// Fold another histogram in (bucket-wise; envelope and mean stay
    /// exact).
    pub fn merge(&mut self, other: &FctHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ps += other.sum_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    pub flows: Vec<FlowRecord>,
    /// Total payload bytes delivered in order to applications.
    pub delivered_bytes: u64,
    /// Wall-clock span of the run (first arrival to last delivery).
    pub span: Duration,
    /// Peak fabric (VOQ + relay) cells at any single node.
    pub peak_node_fabric_cells: u64,
    /// Peak LOCAL cells at any single node.
    pub peak_node_local_cells: u64,
    /// Peak LOCAL runs (stored records of one flow's consecutive cells)
    /// at any single node: `peak_node_local_cells` over this is how many
    /// cells a LOCAL record stands for.
    pub peak_node_local_runs: u64,
    /// Peak reorder-buffer bytes for any single flow.
    pub peak_reorder_flow_bytes: u64,
    /// High-water mark of simultaneously resident flow state: the flow
    /// slab's occupancy peak (a flow's reorder state lives in its slab
    /// record, so this covers it). On the streaming path
    /// ([`crate::SiriusSim::run_streaming`]) this tracks flows *in
    /// flight* and is the memory-boundedness gate the scale series
    /// checks; under [`crate::SiriusSim::run`] every flow stays resident,
    /// so it is ≈ total flows.
    pub resident_flows_max: u64,
    /// Cell wire size used (to convert occupancies to bytes), 0 if N/A.
    pub cell_bytes: u32,
    /// Flows that had not completed when the run was cut off.
    pub incomplete_flows: u64,
    /// Congestion-control counters summed over all nodes (zeros in the
    /// ideal/greedy modes, which bypass the protocol).
    pub cc: CcStats,
    /// Order-sensitive digest of the delivered-cell sequence and the
    /// summary above; bit-identical across runs with the same
    /// `(config, seed)` (see [`crate::audit::RunDigest`]).
    pub digest: u64,
    /// Invariant-audit report, present when auditing was enabled.
    pub audit: Option<AuditReport>,
    /// Fault-plane measurements, present when a `FaultInjector` was
    /// attached to the run.
    pub fault: Option<FaultReport>,
    /// Host wall-clock seconds spent inside the run loop (simulator
    /// throughput, not simulated time).
    pub wall_secs: f64,
    /// Cells delivered to their final destination node (relay hops are
    /// not double-counted) — the numerator of [`cells_per_sec`].
    ///
    /// [`cells_per_sec`]: RunMetrics::cells_per_sec
    pub cells_delivered: u64,
    /// Schedule epochs the run simulated (slot count / slots per epoch).
    pub epochs_simulated: u64,
    /// Wall-clock seconds in the slot's transmit pass (with the mistune
    /// pre-pass of a faulted run). Per-plane breakdown is recorded only
    /// when [`crate::SiriusSimConfig::plane_timing`] is on; 0.0
    /// otherwise. The three planes tile each slot after its epoch
    /// boundary, so they do not sum to [`wall_secs`]: epoch boundaries
    /// (admission, CC rounds) are timed by the fields below, and loop
    /// bookkeeping is untimed.
    ///
    /// [`deliver_secs`]: RunMetrics::deliver_secs
    /// [`wall_secs`]: RunMetrics::wall_secs
    pub tx_secs: f64,
    /// Wall-clock seconds in the slot's receive pass: every arrival's
    /// full effect in due order (relay, reorder, digest, completion,
    /// eviction, fault counters). See [`tx_secs`].
    ///
    /// [`tx_secs`]: RunMetrics::tx_secs
    pub deliver_secs: f64,
    /// Wall-clock seconds in the slot's epilogue: the corruption-scratch
    /// reset of a faulted run, near zero otherwise. See [`tx_secs`].
    ///
    /// [`tx_secs`]: RunMetrics::tx_secs
    pub merge_secs: f64,
    /// Wall-clock seconds in the epoch-boundary fault pipeline (ground
    /// truth, detector ticks, staged repair); zero without a fault
    /// script. With the three fields below it splits the serial epoch
    /// boundary, so the planes, these four and a bookkeeping remainder
    /// add up to [`wall_secs`](RunMetrics::wall_secs). Same opt-in and
    /// caveats as [`tx_secs`](RunMetrics::tx_secs); the clock is read at
    /// the boundary only, never per slot.
    pub fault_boundary_secs: f64,
    /// Wall-clock seconds admitting arrived flows at epoch boundaries.
    pub admit_secs: f64,
    /// Wall-clock seconds in server injection (cells into LOCAL).
    pub inject_secs: f64,
    /// Wall-clock seconds in the request/grant round (`begin_epoch`,
    /// grant issue and delivery, request generation and delivery); zero
    /// outside [`crate::CcMode::Protocol`].
    pub cc_secs: f64,
    /// Streaming FCT histogram over every completed flow, folded at
    /// eviction time. Present on streaming runs
    /// ([`crate::SiriusSim::run_streaming`]), where per-flow records are
    /// evicted and [`fct_percentile`] has nothing to sort; `None` on
    /// slice runs, which keep full [`flows`] records for exact
    /// percentiles.
    ///
    /// [`fct_percentile`]: RunMetrics::fct_percentile
    /// [`flows`]: RunMetrics::flows
    pub fct_hist: Option<FctHistogram>,
}

impl RunMetrics {
    /// p-th percentile (0..=100) of FCT over completed flows with
    /// `bytes < size_cap` (the paper's "short flows" are < 100 KB).
    pub fn fct_percentile(&self, p: f64, size_cap: u64) -> Option<Duration> {
        let mut fcts: Vec<Duration> = self
            .flows
            .iter()
            .filter(|f| f.bytes < size_cap)
            .filter_map(|f| f.fct())
            .collect();
        if fcts.is_empty() {
            return None;
        }
        fcts.sort_unstable();
        Some(fcts[percentile_index(fcts.len(), p)])
    }

    /// Mean FCT over completed flows below `size_cap`.
    pub fn fct_mean(&self, size_cap: u64) -> Option<Duration> {
        let fcts: Vec<Duration> = self
            .flows
            .iter()
            .filter(|f| f.bytes < size_cap)
            .filter_map(|f| f.fct())
            .collect();
        if fcts.is_empty() {
            return None;
        }
        let total: u64 = fcts.iter().map(|d| d.as_ps()).sum();
        Some(Duration::from_ps(total / fcts.len() as u64))
    }

    /// Average per-server goodput normalized by `servers * rate`
    /// ("the total number of bytes received during the simulation divided
    /// by the total simulation time and normalized by N*R", §7).
    pub fn normalized_goodput(&self, servers: u64, rate: Rate) -> f64 {
        if self.span.is_zero() {
            return 0.0;
        }
        let bits = self.delivered_bytes as f64 * 8.0;
        let secs = self.span.as_secs_f64();
        bits / secs / (servers as f64 * rate.as_bps() as f64)
    }

    /// Normalized goodput measured over a fixed horizon: payload bytes
    /// delivered by `horizon` divided by `horizon`, normalized by
    /// `servers * rate`. Flows still in flight at the horizon contribute
    /// linearly-interpolated partial progress. Unlike the span-based
    /// metric, this compares different simulators (and different drain
    /// policies) over the same window — use it for saturation sweeps.
    pub fn goodput_within(&self, horizon: Time, servers: u64, rate: Rate) -> f64 {
        if horizon == Time::ZERO {
            return 0.0;
        }
        let mut bytes = 0f64;
        for f in &self.flows {
            if f.arrival >= horizon {
                continue;
            }
            match f.completion {
                Some(c) if c <= horizon => bytes += f.bytes as f64,
                Some(c) => {
                    let frac =
                        horizon.since(f.arrival).as_ps() as f64 / c.since(f.arrival).as_ps() as f64;
                    bytes += f.bytes as f64 * frac;
                }
                // Cut off incomplete: count what actually arrived.
                None => bytes += f.delivered as f64,
            }
        }
        bytes * 8.0
            / horizon.since(Time::ZERO).as_secs_f64()
            / (servers as f64 * rate.as_bps() as f64)
    }

    /// Peak aggregate fabric queue occupancy per node, in bytes.
    pub fn peak_node_fabric_bytes(&self) -> u64 {
        self.peak_node_fabric_cells * self.cell_bytes as u64
    }

    pub fn completed_flows(&self) -> u64 {
        self.flows.iter().filter(|f| f.completion.is_some()).count() as u64
    }

    /// Simulator throughput: final-destination cell deliveries per
    /// wall-clock second (0 when the run was too short to time).
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cells_delivered as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Simulator throughput: schedule epochs per wall-clock second.
    pub fn epochs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.epochs_simulated as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Index of the p-th percentile in a sorted slice of `n` items
/// (nearest-rank method).
pub fn percentile_index(n: usize, p: f64) -> usize {
    assert!(n > 0);
    assert!((0.0..=100.0).contains(&p));
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.saturating_sub(1).min(n - 1)
}

/// Convenience: p-th percentile of a f64 slice (sorts a copy).
pub fn percentile_f64(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[percentile_index(v.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bytes: u64, arrival_ns: u64, fct_ns: Option<u64>) -> FlowRecord {
        FlowRecord {
            bytes,
            arrival: Time::from_ps(arrival_ns * 1000),
            completion: fct_ns.map(|f| Time::from_ps((arrival_ns + f) * 1000)),
            delivered: if fct_ns.is_some() { bytes } else { 0 },
        }
    }

    #[test]
    fn percentile_index_nearest_rank() {
        assert_eq!(percentile_index(100, 99.0), 98);
        assert_eq!(percentile_index(100, 100.0), 99);
        assert_eq!(percentile_index(100, 1.0), 0);
        assert_eq!(percentile_index(1, 99.0), 0);
        assert_eq!(percentile_index(3, 50.0), 1);
    }

    #[test]
    fn fct_percentile_filters_short_flows() {
        let m = RunMetrics {
            flows: vec![
                rec(1_000, 0, Some(10)),
                rec(2_000, 0, Some(20)),
                rec(500_000, 0, Some(100_000)), // long flow, excluded
                rec(3_000, 0, None),            // incomplete, excluded
            ],
            delivered_bytes: 0,
            span: Duration::ZERO,
            peak_node_fabric_cells: 0,
            peak_node_local_cells: 0,
            peak_node_local_runs: 0,
            peak_reorder_flow_bytes: 0,
            resident_flows_max: 4,
            cell_bytes: 562,
            incomplete_flows: 1,
            cc: Default::default(),
            digest: 0,
            audit: None,
            fault: None,
            wall_secs: 0.0,
            cells_delivered: 0,
            epochs_simulated: 0,
            tx_secs: 0.0,
            deliver_secs: 0.0,
            merge_secs: 0.0,
            fault_boundary_secs: 0.0,
            admit_secs: 0.0,
            inject_secs: 0.0,
            cc_secs: 0.0,
            fct_hist: None,
        };
        let p99 = m.fct_percentile(99.0, 100_000).unwrap();
        assert_eq!(p99, Duration::from_ns(20));
        let mean = m.fct_mean(100_000).unwrap();
        assert_eq!(mean, Duration::from_ns(15));
    }

    #[test]
    fn goodput_normalization() {
        let m = RunMetrics {
            flows: vec![],
            delivered_bytes: 125_000_000, // 1 Gbit
            span: Duration::from_ms(1),
            peak_node_fabric_cells: 10,
            peak_node_local_cells: 0,
            peak_node_local_runs: 0,
            peak_reorder_flow_bytes: 0,
            resident_flows_max: 0,
            cell_bytes: 562,
            incomplete_flows: 0,
            cc: Default::default(),
            digest: 0,
            audit: None,
            fault: None,
            wall_secs: 0.5,
            cells_delivered: 1_000_000,
            epochs_simulated: 40_000,
            tx_secs: 0.0,
            deliver_secs: 0.0,
            merge_secs: 0.0,
            fault_boundary_secs: 0.0,
            admit_secs: 0.0,
            inject_secs: 0.0,
            cc_secs: 0.0,
            fct_hist: None,
        };
        // 1 Gbit in 1 ms = 1 Tbps; with 100 servers at 10 Gbps = 1 Tbps
        // aggregate, normalized goodput = 1.0.
        let g = m.normalized_goodput(100, Rate::from_gbps(10));
        assert!((g - 1.0).abs() < 1e-9, "g = {g}");
        assert_eq!(m.peak_node_fabric_bytes(), 5620);
        // Simulator throughput: counts divided by wall seconds.
        assert!((m.cells_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert!((m.epochs_per_sec() - 80_000.0).abs() < 1e-6);
    }

    #[test]
    fn percentile_f64_basic() {
        let v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile_f64(&v, 50.0), 3.0);
        assert_eq!(percentile_f64(&v, 100.0), 5.0);
    }

    #[test]
    fn fct_histogram_empty_answers_none() {
        let h = FctHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.percentile_ps(50.0), None);
        assert_eq!(h.mean_ps(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn fct_histogram_single_value_is_exact() {
        // With one sample the min/max envelope collapses the bucket
        // midpoint to the exact value.
        let mut h = FctHistogram::default();
        h.record(Duration::from_ns(1_234));
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile_ps(50.0), Some(1_234_000.0));
        assert_eq!(h.percentile_ps(99.0), Some(1_234_000.0));
        assert_eq!(h.mean_ps(), Some(1_234_000.0));
        assert_eq!(h.min(), Some(Duration::from_ns(1_234)));
        assert_eq!(h.max(), Some(Duration::from_ns(1_234)));
    }

    #[test]
    fn fct_histogram_percentiles_within_bucket_resolution() {
        // Against the exact sorted percentile: log2 buckets promise at
        // most a factor-of-2 error; the geometric midpoint halves that
        // to √2 on either side.
        let mut h = FctHistogram::default();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 1_000u64; // ps
        for i in 0..500 {
            let v = x + i * 37;
            h.record(Duration::from_ps(v));
            exact.push(v);
            if i % 50 == 0 {
                x *= 3; // spread across many buckets
            }
        }
        exact.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let approx = h.percentile_ps(p).unwrap();
            let truth = exact[percentile_index(exact.len(), p)] as f64;
            let ratio = approx / truth;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "p{p}: approx {approx} vs exact {truth} (ratio {ratio})"
            );
        }
        // The envelope stays exact regardless of bucketing.
        assert_eq!(h.min().unwrap().as_ps(), exact[0]);
        assert_eq!(h.max().unwrap().as_ps(), *exact.last().unwrap());
        let mean = exact.iter().sum::<u64>() as f64 / exact.len() as f64;
        assert!((h.mean_ps().unwrap() - mean).abs() < 1e-6);
    }

    #[test]
    fn fct_histogram_handles_extremes_and_merges() {
        let mut h = FctHistogram::default();
        h.record(Duration::ZERO); // bucket 0, no panic
        h.record(Duration::from_ps(u64::MAX)); // top bucket, no overflow
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(Duration::ZERO));
        assert_eq!(h.max(), Some(Duration::from_ps(u64::MAX)));
        let mut other = FctHistogram::default();
        other.record(Duration::from_ns(5));
        other.merge(&h);
        assert_eq!(other.count(), 3);
        assert_eq!(other.min(), Some(Duration::ZERO));
        assert_eq!(other.max(), Some(Duration::from_ps(u64::MAX)));
        // p50 of {0, 5ns, MAX} lands in the 5ns sample's bucket.
        let p50 = other.percentile_ps(50.0).unwrap();
        assert!((2_500.0..=10_000.0).contains(&p50), "p50 = {p50}");
    }
}
