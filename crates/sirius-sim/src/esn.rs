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
//! Per-packet effects Sirius pays for and ESN does not (fixed-size cell
//! padding) are naturally absent here: the fluid model transports exactly
//! `bytes` per flow, which is what Fig. 13 measures.

use crate::audit::{AuditReport, RunDigest, MAX_RECORDED_VIOLATIONS};
use crate::metrics::{FlowRecord, RunMetrics};
use sirius_core::units::{Duration, Rate, Time};
use sirius_workload::Flow;

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
        let wall_start = std::time::Instant::now();
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
                    self.waterfill(&mut active);
                    if self.audit {
                        audit_checks += 1;
                        self.audit_rates(&active, &mut audit_violations, &mut audit_messages);
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
            // (O(active) per round); with a large active set we amortize:
            // exact below 64 active flows (the unit-test regime), otherwise
            // every ~active/64 events. Fair shares drift negligibly over
            // such a window when thousands of flows are active, and a
            // freshly arrived flow waits at most one window for its rate.
            events_since_fill += 1;
            let budget = (active.len() / 64).max(1);
            if active.len() <= 64 || events_since_fill >= budget {
                self.waterfill(&mut active);
                if self.audit {
                    audit_checks += 1;
                    self.audit_rates(&active, &mut audit_violations, &mut audit_messages);
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
    /// "upper bound on any protocol" claim is void).
    fn audit_rates(&self, active: &[ActiveFlow], violations: &mut u64, messages: &mut Vec<String>) {
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

        let mut used = vec![0f64; 2 * n_servers + racks];
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

    /// Progressive filling over three resource families: server uplinks,
    /// server downlinks, and (if oversubscribed) per-rack inter-rack pools.
    fn waterfill(&self, active: &mut [ActiveFlow]) {
        let n_servers = self.cfg.servers as usize;
        let racks = self.cfg.racks() as usize;
        let spr = self.cfg.servers_per_rack;
        let r = self.cfg.server_rate.as_bps() as f64;
        let pool = self.cfg.rack_pool_bps();

        // Residual capacity and unfrozen-flow count per resource.
        // Resources: [0, n) = uplinks, [n, 2n) = downlinks,
        // [2n, 2n+racks) = rack pools (inter-rack flows only).
        let nres = 2 * n_servers + racks;
        let mut cap = vec![0f64; nres];
        let mut cnt = vec![0u32; nres];
        for s in 0..n_servers {
            cap[s] = r;
            cap[n_servers + s] = r;
        }
        for k in 0..racks {
            cap[2 * n_servers + k] = pool;
        }

        // Which resources each flow uses.
        let rack_of = |s: u32| (s / spr) as usize;
        let uses = |f: &ActiveFlow| -> ([usize; 3], usize) {
            let up = f.src as usize;
            let down = n_servers + f.dst as usize;
            if pool.is_finite() && rack_of(f.src) != rack_of(f.dst) {
                // Inter-rack flows consume the source rack's uplink pool
                // (the constrained direction in a 3:1 aggregation tier).
                ([up, down, 2 * n_servers + rack_of(f.src)], 3)
            } else {
                ([up, down, 0], 2)
            }
        };

        // Only resources actually crossed by an active flow can be
        // bottlenecks; scan that sparse set instead of all `nres`.
        let mut in_use: Vec<usize> = Vec::with_capacity(3 * active.len());
        for f in active.iter() {
            let (rs, k) = uses(f);
            for &res in &rs[..k] {
                if cnt[res] == 0 {
                    in_use.push(res);
                }
                cnt[res] += 1;
            }
        }

        let mut frozen = vec![false; active.len()];
        let mut rates = vec![0f64; active.len()];
        let mut remaining = active.len();
        while remaining > 0 {
            // Bottleneck: resource with the smallest fair share.
            let mut best_share = f64::INFINITY;
            let mut best_res = usize::MAX;
            for &res in &in_use {
                if cnt[res] > 0 {
                    let share = cap[res] / cnt[res] as f64;
                    if share < best_share {
                        best_share = share;
                        best_res = res;
                    }
                }
            }
            if best_res == usize::MAX {
                break;
            }
            // Freeze all unfrozen flows crossing the bottleneck at the
            // bottleneck share.
            let mut froze_any = false;
            for (i, f) in active.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let (rs, k) = uses(f);
                if rs[..k].contains(&best_res) {
                    frozen[i] = true;
                    rates[i] = best_share;
                    remaining -= 1;
                    froze_any = true;
                    for &res in &rs[..k] {
                        cap[res] -= best_share;
                        cnt[res] -= 1;
                    }
                }
            }
            if !froze_any {
                // Bottleneck had capacity but no unfrozen flows (shouldn't
                // happen since cnt counts unfrozen only).
                break;
            }
        }
        for (f, &rate) in active.iter_mut().zip(rates.iter()) {
            f.rate_bps = rate;
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
