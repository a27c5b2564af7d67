//! ESN (Ideal): the electrically-switched baseline of §7.
//!
//! The paper compares Sirius against an *idealized* three-tier folded Clos:
//! per-flow queues and back-pressure at every switch plus packet spraying
//! over all paths — "an upper bound on the performance achievable by any
//! rate control and routing protocol across an electrically switched
//! network". A non-blocking fabric with those assumptions is behaviourally
//! a max-min fair fluid system whose only capacity constraints are the
//! server NICs (and, for the 3:1 oversubscribed ESN-OSUB variant, each
//! rack's aggregation uplink pool). We therefore simulate it as an
//! event-driven progressive-filling (water-filling) fluid model — this is
//! exact for the idealized baseline, which is the point: it removes "any
//! bias due to the specific shortcomings of existing load-balancing and
//! congestion-control protocols".
//!
//! Rates change only at events (arrivals and completions). `run` re-fills
//! after every event while at most 64 flows are active, then every
//! `active / 64` events; against a re-fill after every event that moves
//! short-flow FCT percentiles and goodput by under 1 % (EXPERIMENTS.md).
//! One fill is a heap-driven progressive filling, O(A log A) in the A
//! active flows and bit-identical to the textbook round-by-round scan
//! (see `EsnSim::waterfill`).
//!
//! Per-packet effects Sirius pays for and ESN does not (fixed-size cell
//! padding) are naturally absent here: the fluid model transports exactly
//! `bytes` per flow, which is what Fig. 13 measures.

use crate::audit::{AuditReport, RunDigest, MAX_RECORDED_VIOLATIONS};
use crate::metrics::{FlowRecord, RunMetrics};
use sirius_core::units::{Duration, Rate, Time};
use sirius_workload::Flow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the ESN baseline.
#[derive(Debug, Clone)]
pub struct EsnConfig {
    /// Servers in the datacenter.
    pub servers: u32,
    /// Server NIC rate (up and down), `R`.
    pub server_rate: Rate,
    /// Servers per rack (for the oversubscription pool).
    pub servers_per_rack: u32,
    /// Aggregation oversubscription: 1 = non-blocking ESN (Ideal); 3 =
    /// ESN-OSUB (Ideal) with a 3:1 tier beyond the racks.
    pub oversubscription: f64,
    /// Fixed per-flow base latency: store-and-forward over the switch
    /// hierarchy plus propagation. Added to every flow's fluid FCT.
    pub base_latency: Duration,
}

impl EsnConfig {
    /// Paper's §7 setup: 3072 servers, 16.67 Gbps per-server share, 24 per
    /// rack. `oversubscription` selects ESN (1.0) or ESN-OSUB (3.0).
    pub fn paper(oversubscription: f64) -> EsnConfig {
        EsnConfig {
            servers: 3072,
            server_rate: Rate::from_bps(400_000_000_000 / 24),
            servers_per_rack: 24,
            oversubscription,
            // ~6 store-and-forward hops of a 576 B packet at 400 Gbps plus
            // intra-DC propagation: a few microseconds.
            base_latency: Duration::from_us(3),
        }
    }

    fn racks(&self) -> u32 {
        self.servers.div_ceil(self.servers_per_rack)
    }

    /// Inter-rack capacity pool per rack (bits/s); `f64::INFINITY` when
    /// non-blocking.
    fn rack_pool_bps(&self) -> f64 {
        if self.oversubscription <= 1.0 {
            f64::INFINITY
        } else {
            self.servers_per_rack as f64 * self.server_rate.as_bps() as f64 / self.oversubscription
        }
    }
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    id: u32,
    src: u32,
    dst: u32,
    remaining_bits: f64,
    rate_bps: f64,
    bytes: u64,
}

/// When `EsnSim::run_with` recomputes rates after an event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Refill {
    /// After every event up to 64 active flows, then every `active / 64`
    /// events: what `run` does.
    Amortized,
    /// After every event: the exact fluid model the amortization
    /// approximates. Only the amortization tests run it.
    #[cfg_attr(not(test), allow(dead_code))]
    EveryEvent,
}

/// Event-driven max-min fluid simulator for the ESN baselines.
pub struct EsnSim {
    cfg: EsnConfig,
    audit: bool,
}

/// Relative tolerance for the fluid-model capacity checks (water-filling
/// is exact rational arithmetic done in f64; violations beyond this are
/// algorithmic, not rounding).
const ESN_AUDIT_EPS: f64 = 1e-6;

impl EsnSim {
    pub fn new(cfg: EsnConfig) -> EsnSim {
        EsnSim { cfg, audit: false }
    }

    /// Enable the fluid-model invariant audit: after every rate
    /// recomputation the allocation is re-checked from first principles
    /// (capacity feasibility at every NIC and rack pool, non-negative
    /// rates, and max-min bottleneck maximality), and at the end of the
    /// run byte conservation is verified. Mirrors `SiriusSimConfig::
    /// with_audit` for the cell simulator.
    pub fn with_audit(mut self, audit: bool) -> EsnSim {
        self.audit = audit;
        self
    }

    /// Run the workload; returns the same metrics shape as the Sirius
    /// simulator (queue/reorder peaks are zero — the idealized fluid
    /// model has no cell queues).
    pub fn run(&self, workload: &[Flow]) -> RunMetrics {
        self.run_with(workload, Refill::Amortized)
    }

    fn run_with(&self, workload: &[Flow], refill: Refill) -> RunMetrics {
        let wall_start = std::time::Instant::now();
        let mut scratch = FillScratch::new(&self.cfg);
        let mut active: Vec<ActiveFlow> = Vec::new();
        let mut records: Vec<FlowRecord> = workload
            .iter()
            .map(|f| FlowRecord {
                bytes: f.bytes,
                arrival: f.arrival,
                completion: None,
                delivered: 0,
            })
            .collect();
        let mut delivered = 0u64;
        let mut last_delivery = Time::ZERO;

        let mut next = 0usize;
        let mut now = Time::ZERO;
        let mut events_since_fill = 0usize;
        let mut audit_checks = 0u64;
        let mut audit_violations = 0u64;
        let mut audit_messages: Vec<String> = Vec::new();
        // Event loop: next event is either the next arrival or the earliest
        // completion under current rates.
        loop {
            // Earliest completion among active flows.
            let completion: Option<(f64, usize)> = active
                .iter()
                .enumerate()
                .filter(|(_, f)| f.rate_bps > 0.0)
                .map(|(i, f)| (f.remaining_bits / f.rate_bps, i))
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let next_arrival = workload.get(next).map(|f| f.arrival);

            let advance_to: Time;
            let mut arriving = false;
            match (completion, next_arrival) {
                (None, None) => {
                    // No rated flow and no arrival left — but flows that
                    // arrived since the last (amortized) recompute may
                    // still be waiting for a rate.
                    if active.is_empty() {
                        break;
                    }
                    self.waterfill(&mut active, &mut scratch);
                    if self.audit {
                        audit_checks += 1;
                        self.audit_rates(
                            &active,
                            &mut scratch.used,
                            &mut audit_violations,
                            &mut audit_messages,
                        );
                    }
                    events_since_fill = 0;
                    continue;
                }
                (Some((dt, _)), None) => {
                    advance_to = now + Duration::from_ps((dt * 1e12).ceil() as u64);
                }
                (None, Some(a)) => {
                    advance_to = a;
                    arriving = true;
                }
                (Some((dt, _)), Some(a)) => {
                    let c = now + Duration::from_ps((dt * 1e12).ceil() as u64);
                    if a <= c {
                        advance_to = a;
                        arriving = true;
                    } else {
                        advance_to = c;
                    }
                }
            }

            // Drain transferred bits up to `advance_to`.
            let dt_secs = advance_to.since(now).as_secs_f64();
            for f in &mut active {
                f.remaining_bits = (f.remaining_bits - f.rate_bps * dt_secs).max(0.0);
            }
            now = advance_to;

            if arriving {
                let f = &workload[next];
                active.push(ActiveFlow {
                    id: f.id as u32,
                    src: f.src_server,
                    dst: f.dst_server,
                    remaining_bits: f.bytes as f64 * 8.0,
                    rate_bps: 0.0,
                    bytes: f.bytes,
                });
                next += 1;
            }

            // Complete flows that have drained (within float tolerance).
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining_bits <= 1e-6 {
                    let f = active.swap_remove(i);
                    let done = now + self.cfg.base_latency;
                    records[f.id as usize].completion = Some(done);
                    records[f.id as usize].delivered = f.bytes;
                    delivered += f.bytes;
                    last_delivery = last_delivery.max(done);
                } else {
                    i += 1;
                }
            }

            // Recompute max-min fair rates. Water-filling is the hot path
            // (O(active log active) per fill); with a large active set we
            // amortize: exact below 64 active flows (the unit-test regime),
            // otherwise every ~active/64 events. Fair shares drift little
            // over such a window when hundreds of flows are active (the
            // amortization moves short-flow FCT percentiles and goodput by
            // under 1 %, see EXPERIMENTS.md), and a freshly arrived flow
            // waits at most one window for its rate.
            events_since_fill += 1;
            let budget = match refill {
                Refill::Amortized => (active.len() / 64).max(1),
                Refill::EveryEvent => 1,
            };
            if active.len() <= 64 || events_since_fill >= budget {
                self.waterfill(&mut active, &mut scratch);
                if self.audit {
                    audit_checks += 1;
                    self.audit_rates(
                        &active,
                        &mut scratch.used,
                        &mut audit_violations,
                        &mut audit_messages,
                    );
                }
                events_since_fill = 0;
            }
        }

        let incomplete = records.iter().filter(|f| f.completion.is_none()).count() as u64;
        if self.audit {
            // Byte conservation: the fluid model has no loss channel, so
            // everything injected must come out, flow by flow.
            let injected: u64 = workload.iter().map(|f| f.bytes).sum();
            if delivered != injected || incomplete != 0 {
                audit_violations += 1;
                if audit_messages.len() < MAX_RECORDED_VIOLATIONS {
                    audit_messages.push(format!(
                        "fluid conservation broken: injected {injected} B, delivered \
                         {delivered} B, {incomplete} flows incomplete"
                    ));
                }
            }
        }
        let span = if last_delivery > Time::ZERO {
            last_delivery.since(Time::ZERO)
        } else {
            now.since(Time::ZERO)
        };
        // The fluid model has no cell stream; digest the flow outcomes so
        // ESN runs get the same determinism guarantee as the cell sim.
        let mut digest = RunDigest::new();
        digest.update(delivered);
        digest.update(span.as_ps());
        for r in &records {
            digest.update(r.delivered);
            digest.update(
                r.completion
                    .map(|c| c.since(Time::ZERO).as_ps())
                    .unwrap_or(u64::MAX),
            );
        }
        RunMetrics {
            flows: records,
            delivered_bytes: delivered,
            span,
            peak_node_fabric_cells: 0,
            peak_node_local_cells: 0,
            peak_reorder_flow_bytes: 0,
            // The fluid model holds every flow's state for the whole run.
            resident_flows_max: workload.len() as u64,
            cell_bytes: 0,
            incomplete_flows: incomplete,
            cc: Default::default(),
            digest: digest.value(),
            audit: if self.audit {
                Some(AuditReport {
                    epochs_checked: audit_checks,
                    cells_injected: workload.len() as u64,
                    cells_released: workload.len() as u64 - incomplete,
                    total_violations: audit_violations,
                    violations: audit_messages,
                    ..AuditReport::default()
                })
            } else {
                None
            },
            fault: None,
            wall_secs: wall_start.elapsed().as_secs_f64(),
            // The fluid model has no cell stream or slot clock.
            cells_delivered: 0,
            epochs_simulated: 0,
            tx_secs: 0.0,
            deliver_secs: 0.0,
            merge_secs: 0.0,
            fault_boundary_secs: 0.0,
            admit_secs: 0.0,
            inject_secs: 0.0,
            cc_secs: 0.0,
            // Every record is kept, so exact percentiles want `flows`.
            fct_hist: None,
        }
    }

    /// Re-check a freshly computed rate allocation from first principles,
    /// independently of the water-filling bookkeeping: rates are
    /// non-negative, no NIC or rack pool is oversubscribed, and the
    /// allocation is max-min maximal (every flow is pinned by at least one
    /// saturated resource — otherwise water-filling stopped early and the
    /// "upper bound on any protocol" claim is void). `used` is the run's
    /// buffer for the per-resource load, sized and zeroed here.
    fn audit_rates(
        &self,
        active: &[ActiveFlow],
        used: &mut Vec<f64>,
        violations: &mut u64,
        messages: &mut Vec<String>,
    ) {
        let n_servers = self.cfg.servers as usize;
        let racks = self.cfg.racks() as usize;
        let spr = self.cfg.servers_per_rack;
        let r = self.cfg.server_rate.as_bps() as f64;
        let pool = self.cfg.rack_pool_bps();
        let rack_of = |s: u32| (s / spr) as usize;

        let mut flag = |msg: String| {
            *violations += 1;
            if messages.len() < MAX_RECORDED_VIOLATIONS {
                messages.push(msg);
            }
        };

        used.clear();
        used.resize(2 * n_servers + racks, 0.0);
        for f in active {
            if f.rate_bps < 0.0 {
                flag(format!("flow {}: negative rate {}", f.id, f.rate_bps));
            }
            used[f.src as usize] += f.rate_bps;
            used[n_servers + f.dst as usize] += f.rate_bps;
            if pool.is_finite() && rack_of(f.src) != rack_of(f.dst) {
                used[2 * n_servers + rack_of(f.src)] += f.rate_bps;
            }
        }
        let tol = r * ESN_AUDIT_EPS;
        for s in 0..n_servers {
            if used[s] > r + tol {
                flag(format!(
                    "server {s} uplink oversubscribed: {} > {r}",
                    used[s]
                ));
            }
            if used[n_servers + s] > r + tol {
                flag(format!(
                    "server {s} downlink oversubscribed: {} > {r}",
                    used[n_servers + s]
                ));
            }
        }
        if pool.is_finite() {
            for k in 0..racks {
                let u = used[2 * n_servers + k];
                if u > pool + pool * ESN_AUDIT_EPS {
                    flag(format!("rack {k} pool oversubscribed: {u} > {pool}"));
                }
            }
        }
        // Max-min maximality: a flow whose every resource has slack could
        // be sped up, so the allocation is not max-min fair.
        for f in active {
            let up_slack = r - used[f.src as usize] > tol;
            let down_slack = r - used[n_servers + f.dst as usize] > tol;
            let pool_slack = if pool.is_finite() && rack_of(f.src) != rack_of(f.dst) {
                pool - used[2 * n_servers + rack_of(f.src)] > pool * ESN_AUDIT_EPS
            } else {
                true
            };
            if up_slack && down_slack && pool_slack {
                flag(format!(
                    "flow {}: not bottlenecked (rate {} bps, all resources slack)",
                    f.id, f.rate_bps
                ));
            }
        }
    }

    /// Max-min fair rates by progressive filling over three resource
    /// families: server uplinks, server downlinks, and (if oversubscribed)
    /// per-rack inter-rack pools.
    ///
    /// Each round freezes every unfrozen flow of the bottleneck — the
    /// in-use resource with the smallest fair share `cap / cnt`, ties to
    /// the resource touched first in active order — at that share. The
    /// bottleneck comes off a min-heap of `(share, first-touch position)`
    /// keys with lazy invalidation, and a round walks only the bottleneck's
    /// member list, so one fill costs O(A log A) for A active flows instead
    /// of a scan of every resource and flow per round. The rates are
    /// bit-identical to that scan's (`tests::scan_fill`): the heap minimum
    /// is the scan's argmin (`share_key` orders shares as `<` does, and the
    /// position breaks ties as a strict `<` over first-touch order does),
    /// and a round's flows are frozen in active order, so every resource
    /// sees the same sequence of `cap -= share` steps. Rounds on disjoint
    /// resources commute, which is why a flow alone on all its resources
    /// can be settled before the heap starts.
    fn waterfill(&self, active: &mut [ActiveFlow], s: &mut FillScratch) {
        let n_servers = self.cfg.servers as usize;
        let spr = self.cfg.servers_per_rack;
        let r = self.cfg.server_rate.as_bps() as f64;
        let pool = self.cfg.rack_pool_bps();
        let rack_of = |s: u32| (s / spr) as usize;

        // Resources: [0, n) = uplinks, [n, 2n) = downlinks, [2n, 2n+racks)
        // = rack pools (inter-rack flows only; the source rack's pool is
        // the constrained direction in a 3:1 aggregation tier). Only
        // resources an active flow crosses are numbered, by first touch;
        // `cap`, `cnt` and the member lists are indexed by that position.
        s.touched.clear();
        s.cap.clear();
        s.cnt.clear();
        s.flow_res.clear();
        for f in active.iter() {
            let rack = (pool.is_finite() && rack_of(f.src) != rack_of(f.dst))
                .then(|| 2 * n_servers + rack_of(f.src));
            let uses = [Some(f.src as usize), Some(n_servers + f.dst as usize), rack];
            let mut ps = [NO_RES; 3];
            for (p, res) in ps.iter_mut().zip(uses.into_iter().flatten()) {
                if s.pos[res] == NO_RES {
                    s.pos[res] = s.touched.len() as u32;
                    s.touched.push(res as u32);
                    s.cap.push(if res < 2 * n_servers { r } else { pool });
                    s.cnt.push(0);
                }
                *p = s.pos[res];
                s.cnt[*p as usize] += 1;
            }
            s.flow_res.push(ps);
        }

        // Member lists (CSR), each in active order.
        s.start.clear();
        s.start.push(0);
        let mut total = 0u32;
        for &c in &s.cnt {
            total += c;
            s.start.push(total);
        }
        s.fill.clear();
        s.fill.extend_from_slice(&s.start[..s.cnt.len()]);
        s.members.clear();
        s.members.resize(total as usize, 0);
        for (i, ps) in s.flow_res.iter().enumerate() {
            for &p in crossed(ps) {
                s.members[s.fill[p as usize] as usize] = i as u32;
                s.fill[p as usize] += 1;
            }
        }

        s.frozen.clear();
        s.frozen.resize(active.len(), false);
        // A flow alone on every resource it crosses gets the smallest of
        // their capacities, whichever of them the heap would pop first, and
        // freezing it touches no other flow's resources: settle it here.
        for (i, ps) in s.flow_res.iter().enumerate() {
            let ps = crossed(ps);
            if ps.iter().all(|&p| s.cnt[p as usize] == 1) {
                s.frozen[i] = true;
                active[i].rate_bps = ps
                    .iter()
                    .map(|&p| s.cap[p as usize])
                    .fold(f64::INFINITY, f64::min);
                for &p in ps {
                    s.cnt[p as usize] = 0;
                }
            }
        }
        let mut keys = std::mem::take(&mut s.heap).into_vec();
        keys.clear();
        keys.extend(
            (0..s.cnt.len())
                .filter(|&p| s.cnt[p] > 0)
                .map(|p| share_key(s.cap[p] / s.cnt[p] as f64, p)),
        );
        s.heap = BinaryHeap::from(keys);
        // `stamp[p]` is the last round that changed resource `p`, so each
        // changed resource is pushed once per round.
        s.stamp.clear();
        s.stamp.resize(s.cnt.len(), 0);
        let mut round = 0u32;
        while let Some(key) = s.heap.pop() {
            let b = key.0 .1 as usize;
            // Lazy invalidation: an entry is live only while its resource
            // still has unfrozen flows and its key is the current share.
            if s.cnt[b] == 0 {
                continue;
            }
            let share = s.cap[b] / s.cnt[b] as f64;
            if share_key(share, b) != key {
                continue;
            }
            round += 1;
            s.changed.clear();
            for &i in &s.members[s.start[b] as usize..s.start[b + 1] as usize] {
                let i = i as usize;
                if s.frozen[i] {
                    continue;
                }
                s.frozen[i] = true;
                active[i].rate_bps = share;
                for &p in crossed(&s.flow_res[i]) {
                    let p = p as usize;
                    s.cap[p] -= share;
                    s.cnt[p] -= 1;
                    if s.stamp[p] != round {
                        s.stamp[p] = round;
                        s.changed.push(p as u32);
                    }
                }
            }
            for &p in &s.changed {
                let p = p as usize;
                if s.cnt[p] > 0 {
                    s.heap.push(share_key(s.cap[p] / s.cnt[p] as f64, p));
                }
            }
        }
        for &res in &s.touched {
            s.pos[res as usize] = NO_RES;
        }
    }
}

/// Position of a resource no active flow crosses (and the third resource
/// of a flow that crosses no rack pool).
const NO_RES: u32 = u32::MAX;

/// The positions of the two or three resources a flow crosses.
fn crossed(ps: &[u32; 3]) -> &[u32] {
    &ps[..if ps[2] == NO_RES { 2 } else { 3 }]
}

/// The min-heap key of resource position `p` at fair share `share`:
/// the share's bits mapped so that integer order is `f64` order (−0.0 and
/// 0.0 equal, as under `<`; shares are never NaN), then the position.
fn share_key(share: f64, p: usize) -> Reverse<(u64, u32)> {
    let bits = if share == 0.0 { 0 } else { share.to_bits() };
    let ordered = if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    };
    Reverse((ordered, p as u32))
}

/// Buffers reused by every water-fill (and audit) of one run, so a fill
/// allocates nothing once they have grown to the run's largest active set.
/// Only `pos` (and `used`, when auditing) spans every resource; a fill
/// resets just the `pos` entries it set.
struct FillScratch {
    /// Per resource: first-touch position in the current fill, or `NO_RES`.
    pos: Vec<u32>,
    /// Per position: the resource, its residual capacity, its unfrozen
    /// flows, the last round that changed it, and its member-list start
    /// (one more entry than positions) and fill cursor.
    touched: Vec<u32>,
    cap: Vec<f64>,
    cnt: Vec<u32>,
    stamp: Vec<u32>,
    start: Vec<u32>,
    fill: Vec<u32>,
    /// Active-flow indices, grouped by resource.
    members: Vec<u32>,
    /// Per active flow: the positions of its two or three resources.
    flow_res: Vec<[u32; 3]>,
    frozen: Vec<bool>,
    /// Positions changed in the current round.
    changed: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per resource: rate in use, for `audit_rates`.
    used: Vec<f64>,
}

impl FillScratch {
    fn new(cfg: &EsnConfig) -> FillScratch {
        FillScratch {
            pos: vec![NO_RES; 2 * cfg.servers as usize + cfg.racks() as usize],
            touched: Vec::new(),
            cap: Vec::new(),
            cnt: Vec::new(),
            stamp: Vec::new(),
            start: Vec::new(),
            fill: Vec::new(),
            members: Vec::new(),
            flow_res: Vec::new(),
            frozen: Vec::new(),
            changed: Vec::new(),
            heap: BinaryHeap::new(),
            used: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_workload::{Pareto, Pattern, WorkloadSpec};

    fn cfg(osub: f64) -> EsnConfig {
        EsnConfig {
            servers: 64,
            server_rate: Rate::from_gbps(10),
            servers_per_rack: 8,
            oversubscription: osub,
            base_latency: Duration::from_us(3),
        }
    }

    fn workload(load: f64, flows: u64, seed: u64) -> Vec<Flow> {
        WorkloadSpec {
            servers: 64,
            server_rate: Rate::from_gbps(10),
            load,
            sizes: Pareto::paper_default().truncated(1e6),
            flows,
            pattern: Pattern::Uniform,
            seed,
        }
        .generate()
    }

    #[test]
    fn single_flow_runs_at_nic_rate() {
        let wl = vec![Flow {
            id: 0,
            src_server: 0,
            dst_server: 9,
            bytes: 1_250_000, // 10 Mbit at 10 Gbps = 1 ms
            arrival: Time::ZERO,
        }];
        let m = EsnSim::new(cfg(1.0)).run(&wl);
        let fct = m.flows[0].fct().unwrap();
        let expect = Duration::from_ms(1) + Duration::from_us(3);
        let err = (fct.as_ps() as f64 - expect.as_ps() as f64).abs() / expect.as_ps() as f64;
        assert!(err < 0.001, "fct = {fct}, expected {expect}");
    }

    #[test]
    fn two_flows_share_a_downlink() {
        // Both flows target server 9: each gets 5 Gbps.
        let wl = vec![
            Flow {
                id: 0,
                src_server: 0,
                dst_server: 9,
                bytes: 1_250_000,
                arrival: Time::ZERO,
            },
            Flow {
                id: 1,
                src_server: 1,
                dst_server: 9,
                bytes: 1_250_000,
                arrival: Time::ZERO,
            },
        ];
        let m = EsnSim::new(cfg(1.0)).run(&wl);
        for f in &m.flows {
            let fct = f.fct().unwrap();
            let expect = Duration::from_ms(2) + Duration::from_us(3);
            let err = (fct.as_ps() as f64 - expect.as_ps() as f64).abs() / expect.as_ps() as f64;
            assert!(err < 0.001, "fct = {fct}");
        }
    }

    #[test]
    fn oversubscription_throttles_inter_rack_only() {
        // 8 servers/rack at 10 Gbps, 3:1 -> 26.67 Gbps pool per rack.
        // 4 inter-rack flows from rack 0 share it: 6.67 Gbps each.
        let wl: Vec<Flow> = (0..4)
            .map(|k| Flow {
                id: k,
                src_server: k as u32,
                dst_server: 8 + k as u32 * 8 % 56, // distinct racks
                bytes: 1_250_000,
                arrival: Time::ZERO,
            })
            .collect();
        let m = EsnSim::new(cfg(3.0)).run(&wl);
        for f in &m.flows {
            let fct = f.fct().unwrap().as_ms_f64();
            assert!((fct - 1.5).abs() < 0.01, "fct = {fct} ms, expected 1.5 ms");
        }
        // Intra-rack flow is unaffected by the pool.
        let wl = vec![Flow {
            id: 0,
            src_server: 0,
            dst_server: 1,
            bytes: 1_250_000,
            arrival: Time::ZERO,
        }];
        let m = EsnSim::new(cfg(3.0)).run(&wl);
        assert!((m.flows[0].fct().unwrap().as_ms_f64() - 1.003).abs() < 0.01);
    }

    #[test]
    fn all_flows_complete_and_bytes_conserved() {
        let wl = workload(0.5, 2000, 3);
        let m = EsnSim::new(cfg(1.0)).run(&wl);
        assert_eq!(m.incomplete_flows, 0);
        assert_eq!(m.delivered_bytes, wl.iter().map(|f| f.bytes).sum::<u64>());
    }

    #[test]
    fn osub_goodput_lower_at_high_load() {
        let wl = workload(1.0, 3000, 5);
        let ideal = EsnSim::new(cfg(1.0)).run(&wl);
        let osub = EsnSim::new(cfg(3.0)).run(&wl);
        let g_ideal = ideal.normalized_goodput(64, Rate::from_gbps(10));
        let g_osub = osub.normalized_goodput(64, Rate::from_gbps(10));
        assert!(
            g_osub < g_ideal,
            "osub {g_osub} should be below ideal {g_ideal}"
        );
    }

    #[test]
    fn fct_monotone_in_load() {
        let lo = EsnSim::new(cfg(1.0)).run(&workload(0.1, 2000, 7));
        let hi = EsnSim::new(cfg(1.0)).run(&workload(1.0, 2000, 7));
        let f_lo = lo.fct_percentile(99.0, 100_000).unwrap();
        let f_hi = hi.fct_percentile(99.0, 100_000).unwrap();
        assert!(f_hi >= f_lo);
    }

    #[test]
    fn audit_is_clean_for_both_esn_variants() {
        let wl = workload(0.8, 1500, 11);
        for osub in [1.0, 3.0] {
            let m = EsnSim::new(cfg(osub)).with_audit(true).run(&wl);
            let a = m.audit.expect("audit report");
            assert!(a.is_clean(), "osub {osub}: {:?}", a.violations);
            assert!(a.epochs_checked > 0);
            assert_eq!(a.cells_released, wl.len() as u64);
        }
    }

    /// One water-fill over `(src, dst)` flows; returns each rate's bits.
    fn fill_bits(sim: &EsnSim, pairs: &[(u32, u32)]) -> Vec<u64> {
        let mut active: Vec<ActiveFlow> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| ActiveFlow {
                id: i as u32,
                src,
                dst,
                remaining_bits: 1.0,
                rate_bps: 0.0,
                bytes: 1,
            })
            .collect();
        let mut scratch = FillScratch::new(&sim.cfg);
        sim.waterfill(&mut active, &mut scratch);
        active.iter().map(|f| f.rate_bps.to_bits()).collect()
    }

    #[test]
    fn waterfill_breaks_an_exact_tie_by_first_touch_and_pins_every_bit() {
        // 2:1 rack pools of 40 Gb/s. Uplink 0 and downlink 20 tie exactly
        // at 10/3 Gb/s and share flow 0 -> 20. The first touched (uplink
        // 0) freezes first; downlink 20's last two flows then get
        // (10 - 10/3) / 2 Gb/s, which in f64 is not 10/3 to the bit, so
        // the tie order shows in the rates. Rack 0's pool is drawn down by
        // both and binds its last three flows, whose rate depends on the
        // order of the pool's `cap -= share` steps.
        let pairs = [
            (0, 20), // uplink 0 and downlink 20, rack 0 pool
            (0, 9),  // uplink 0, rack 0 pool
            (0, 17), // uplink 0, rack 0 pool
            (1, 20), // downlink 20, rack 0 pool
            (2, 20), // downlink 20, rack 0 pool
            (3, 41), // rack 0 pool only
            (4, 49), // rack 0 pool only
            (5, 57), // rack 0 pool only
            (6, 7),  // intra-rack: no pool, NIC rate
            (9, 33), // rack 1 pool, not binding: NIC rate
        ];
        let bits = fill_bits(&EsnSim::new(cfg(2.0)), &pairs);
        let third = 0x41e8_d5d4_2aaa_aaab; // 10e9 / 3
        let rest = 0x41e8_d5d4_2aaa_aaaa; // (10e9 - 10e9 / 3) / 2, one ulp less
        let pool = 0x41fc_f977_871c_71c8; // 7777777777.777779
        let nic = 0x4202_a05f_2000_0000; // 10e9 exactly
        assert_eq!(
            bits,
            [third, third, third, rest, rest, pool, pool, pool, nic, nic]
        );
    }

    /// The water-fill as a scan: every round rescans every in-use resource
    /// for the smallest share (strict `<`, so the first touched wins a tie)
    /// and every flow for the bottleneck's members. The heap fill must
    /// reproduce its rates bit for bit.
    fn scan_fill(sim: &EsnSim, pairs: &[(u32, u32)]) -> Vec<u64> {
        let n = sim.cfg.servers as usize;
        let spr = sim.cfg.servers_per_rack;
        let pool = sim.cfg.rack_pool_bps();
        let r = sim.cfg.server_rate.as_bps() as f64;
        let uses: Vec<Vec<usize>> = pairs
            .iter()
            .map(|&(src, dst)| {
                let mut v = vec![src as usize, n + dst as usize];
                if pool.is_finite() && src / spr != dst / spr {
                    v.push(2 * n + (src / spr) as usize);
                }
                v
            })
            .collect();
        let nres = 2 * n + sim.cfg.racks() as usize;
        let mut cap: Vec<f64> = (0..nres)
            .map(|k| if k < 2 * n { r } else { pool })
            .collect();
        let mut cnt = vec![0u32; nres];
        let mut in_use = Vec::new();
        for &res in uses.iter().flatten() {
            if cnt[res] == 0 {
                in_use.push(res);
            }
            cnt[res] += 1;
        }
        let mut rates = vec![None; pairs.len()];
        loop {
            let mut best = (f64::INFINITY, usize::MAX);
            for &res in &in_use {
                if cnt[res] > 0 && cap[res] / (cnt[res] as f64) < best.0 {
                    best = (cap[res] / cnt[res] as f64, res);
                }
            }
            if best.1 == usize::MAX {
                break;
            }
            for (i, u) in uses.iter().enumerate() {
                if rates[i].is_none() && u.contains(&best.1) {
                    rates[i] = Some(best.0);
                    for &res in u {
                        cap[res] -= best.0;
                        cnt[res] -= 1;
                    }
                }
            }
        }
        rates.iter().map(|r| r.unwrap().to_bits()).collect()
    }

    #[test]
    fn heap_fill_matches_the_scan_bit_for_bit() {
        // Few servers and many flows, so shares collide and tie often.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as u32
        };
        for case in 0..300 {
            let osub = [1.0, 1.5, 2.0, 3.0][case % 4];
            let sim = EsnSim::new(cfg(osub));
            let servers: u32 = [4, 16, 64][case % 3];
            let flows = 1 + next(200) as usize;
            let pairs: Vec<(u32, u32)> = (0..flows)
                .map(|_| {
                    let src = next(servers);
                    (src, (src + 1 + next(servers - 1)) % servers)
                })
                .collect();
            assert_eq!(
                fill_bits(&sim, &pairs),
                scan_fill(&sim, &pairs),
                "case {case}"
            );
        }
    }

    fn short_flow_summary(m: &RunMetrics, servers: u64, rate: Rate) -> [f64; 4] {
        let p = |q| m.fct_percentile(q, 100_000).unwrap().as_us_f64();
        [
            p(50.0),
            p(95.0),
            p(99.0),
            m.normalized_goodput(servers, rate),
        ]
    }

    #[test]
    fn amortized_refill_is_within_one_percent_of_exact() {
        // L = 1.0: about 300 flows active on average, so the amortized run
        // re-fills only every few events.
        let wl = workload(1.0, 3000, 5);
        for osub in [1.0, 3.0] {
            let sim = EsnSim::new(cfg(osub));
            let amortized = sim.run_with(&wl, Refill::Amortized);
            let exact = sim.run_with(&wl, Refill::EveryEvent);
            assert_ne!(amortized.digest, exact.digest, "osub {osub}: same run");
            let a = short_flow_summary(&amortized, 64, Rate::from_gbps(10));
            let e = short_flow_summary(&exact, 64, Rate::from_gbps(10));
            for (k, name) in ["p50", "p95", "p99", "goodput"].iter().enumerate() {
                let rel = (a[k] - e[k]).abs() / e[k];
                assert!(
                    rel <= 0.01,
                    "osub {osub} {name}: amortized {} vs exact {}",
                    a[k],
                    e[k]
                );
            }
        }
    }

    /// The amortization's error at `esn_fluid`'s inputs (the paper network,
    /// L = 0.5, 9,600 flows), printed as EXPERIMENTS.md's table. Run with
    /// `cargo test --release -p sirius-sim --lib esn::tests::amortization_error_table
    /// -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn amortization_error_table() {
        let net = sirius_core::SiriusConfig::paper_sim();
        let servers = net.total_servers() as u64;
        let rate = Rate::from_bps(net.node_bandwidth().as_bps() / net.servers_per_node as u64);
        println!("| variant | seed | p50 | p95 | p99 | goodput | wall exact / amortized |");
        println!("|---|---|---|---|---|---|---|");
        for osub in [1.0, 3.0] {
            for seed in 1..=3 {
                let wl = WorkloadSpec {
                    servers: servers as u32,
                    server_rate: rate,
                    load: 0.5,
                    sizes: Pareto::paper_default().truncated(1e8),
                    flows: 9_600,
                    pattern: Pattern::Uniform,
                    seed,
                }
                .generate();
                let sim = EsnSim::new(EsnConfig {
                    servers: servers as u32,
                    server_rate: rate,
                    servers_per_rack: net.servers_per_node as u32,
                    oversubscription: osub,
                    base_latency: Duration::from_us(3),
                });
                let exact = sim.run_with(&wl, Refill::EveryEvent);
                let amortized = sim.run_with(&wl, Refill::Amortized);
                let e = short_flow_summary(&exact, servers, rate);
                let a = short_flow_summary(&amortized, servers, rate);
                let d: Vec<String> = (0..4)
                    .map(|k| format!("{:+.3} %", (e[k] - a[k]) / a[k] * 100.0))
                    .collect();
                println!(
                    "| {} | {seed} | {} | {} | {} | {} | {:.2} / {:.2} s |",
                    if osub > 1.0 { "ESN-OSUB" } else { "ESN" },
                    d[0],
                    d[1],
                    d[2],
                    d[3],
                    exact.wall_secs,
                    amortized.wall_secs
                );
            }
        }
    }

    #[test]
    fn max_min_is_work_conserving_for_symmetric_pairs() {
        // A permutation workload at moderate size: every flow should get
        // the full NIC rate (no shared bottlenecks).
        let wl: Vec<Flow> = (0..8)
            .map(|k| Flow {
                id: k,
                src_server: k as u32,
                dst_server: 32 + k as u32,
                bytes: 125_000,
                arrival: Time::ZERO,
            })
            .collect();
        let m = EsnSim::new(cfg(1.0)).run(&wl);
        for f in &m.flows {
            let fct = f.fct().unwrap().as_us_f64();
            assert!((fct - 103.0).abs() < 1.0, "fct = {fct} us");
        }
    }
}
