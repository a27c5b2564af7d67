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
//! Rates change only at events (arrivals and completions), and only in the
//! connected components of the flow–resource graph an event touches:
//! max-min rates decompose over components. So `run` keeps each
//! resource's member list across events and, at each event, walks the
//! components of the resources the event touched and re-fills just those
//! — exactly the rates a fill of every active flow would give them, bit
//! for bit (see `waterfill`). A component above `COMPONENT_LIMIT` flows
//! is not re-filled on its own; the whole active set is re-filled every
//! `active / 64` events while such a component is stale. At `esn_fluid`'s
//! inputs ESN's largest component averages 10 flows (18 at most, seed 1),
//! so ESN is exact at every event there; ESN-OSUB's rack pools join about
//! 756 of 877 active flows into one component, and so does saturation
//! (paper scale, L = 100 %) for both.
//!
//! A flow's remaining bits are settled only when its rate changes, and
//! completions come off a min-heap of projected finish times (entries
//! invalidated lazily by a per-flow version), so an event costs time in
//! the flows it re-rates, not in the active set.
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

/// Event-driven max-min fluid simulator for the ESN baselines.
pub struct EsnSim {
    cfg: EsnConfig,
    audit: bool,
}

/// Relative tolerance for the fluid-model capacity checks (water-filling
/// is exact rational arithmetic done in f64; violations beyond this are
/// algorithmic, not rounding).
const ESN_AUDIT_EPS: f64 = 1e-6;

/// The largest connected component an event re-fills on its own (the
/// size below which the engine has always been exact).
const COMPONENT_LIMIT: usize = 64;

/// Projected completions: `(finish ps, flow, version)`, earliest first.
type FinishHeap = BinaryHeap<Reverse<(u64, u32, u32)>>;

/// What the audit tallies over a run.
#[derive(Default)]
struct Checks {
    /// Audited re-fills, and how many of them covered the whole active
    /// set because a component passed `COMPONENT_LIMIT`.
    fills: u64,
    whole_set_refills: u64,
    violations: u64,
    messages: Vec<String>,
}

impl Checks {
    fn flag(&mut self, msg: String) {
        self.violations += 1;
        if self.messages.len() < MAX_RECORDED_VIOLATIONS {
            self.messages.push(msg);
        }
    }
}

impl EsnSim {
    pub fn new(cfg: EsnConfig) -> EsnSim {
        EsnSim { cfg, audit: false }
    }

    /// Enable the fluid-model invariant audit: after every rate
    /// recomputation the re-filled flows are re-checked from first
    /// principles (capacity feasibility at every NIC and rack pool they
    /// cross, non-negative rates, and max-min bottleneck maximality), and
    /// at the end of the run byte conservation is verified. Mirrors
    /// `SiriusSimConfig::with_audit` for the cell simulator.
    pub fn with_audit(mut self, audit: bool) -> EsnSim {
        self.audit = audit;
        self
    }

    /// Run the workload; returns the same metrics shape as the Sirius
    /// simulator (queue/reorder peaks are zero — the idealized fluid
    /// model has no cell queues).
    pub fn run(&self, workload: &[Flow]) -> RunMetrics {
        let wall_start = std::time::Instant::now();
        let mut g = Fluid::new(&self.cfg);
        let mut s = FillScratch::new(&g);
        let mut finish = FinishHeap::new();
        let mut records = flow_records(workload);
        let mut delivered = 0u64;
        let mut last_delivery = Time::ZERO;
        let mut checks = Checks::default();

        let mut next = 0usize;
        let mut now = Time::ZERO;
        // Events since a component above the limit went without a re-fill
        // (0 while every flow's rate is exact).
        let mut stale_events = 0usize;
        let mut touched: Vec<u32> = Vec::new();
        let mut exact: Vec<u32> = Vec::new();
        loop {
            while let Some(&Reverse((_, i, v))) = finish.peek() {
                if g.flows[i as usize].version == v {
                    break;
                }
                finish.pop();
            }
            let completion = finish.peek().map(|e| Time::from_ps(e.0 .0));
            let arrival = workload.get(next).map(|f| f.arrival);
            now = match (completion, arrival) {
                (Some(c), Some(a)) => c.min(a),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => {
                    if g.active.is_empty() {
                        break;
                    }
                    // Nothing will finish and nothing arrives, but flows
                    // that arrived into a component above the limit since
                    // the last whole-set fill still wait for a rate.
                    self.refill_all(&mut g, &mut s, now, &mut finish, &mut checks);
                    stale_events = 0;
                    continue;
                }
            };

            touched.clear();
            while let Some(&Reverse((t, i, v))) = finish.peek() {
                if t > now.as_ps() {
                    break;
                }
                finish.pop();
                let slot = i as usize;
                if g.flows[slot].version == v {
                    let id = g.flows[slot].id as usize;
                    touched.extend_from_slice(crossed(&g.flows[slot].res));
                    g.remove(slot);
                    complete(&mut records[id], now + self.cfg.base_latency);
                    delivered += records[id].bytes;
                    last_delivery = last_delivery.max(now + self.cfg.base_latency);
                }
            }
            while let Some(f) = workload.get(next).filter(|f| f.arrival <= now) {
                if f.bytes == 0 {
                    // Its share would last no time at all.
                    complete(&mut records[next], now + self.cfg.base_latency);
                    last_delivery = last_delivery.max(now + self.cfg.base_latency);
                } else {
                    let slot = g.add(next, f.src_server, f.dst_server, f.bytes as f64 * 8.0, now);
                    touched.push(g.flows[slot].res[0]);
                }
                next += 1;
            }

            // Re-fill the components the event touched, each alone while
            // it has at most `COMPONENT_LIMIT` flows; every `active / 64`
            // events while a larger one is stale, the whole active set.
            exact.clear();
            let skipped = s.components(&g, &touched, COMPONENT_LIMIT, &mut exact);
            if !exact.is_empty() {
                exact.sort_unstable_by_key(|&k| g.flows[k as usize].id);
                self.refill(&exact, &mut g, &mut s, now, &mut finish, &mut checks);
            }
            if skipped || stale_events > 0 {
                stale_events += 1;
            }
            if stale_events >= (g.active.len() / COMPONENT_LIMIT).max(1) {
                self.refill_all(&mut g, &mut s, now, &mut finish, &mut checks);
                stale_events = 0;
            }
            // Superseded projections stay in the heap until they surface;
            // drop them once they outnumber the live ones.
            if finish.len() > 2 * g.active.len() + 64 {
                finish.retain(|&Reverse((_, i, v))| g.flows[i as usize].version == v);
            }
        }

        let incomplete = records.iter().filter(|f| f.completion.is_none()).count() as u64;
        let audit = self.audit.then(|| {
            // Byte conservation: the fluid model has no loss channel, so
            // everything injected must come out, flow by flow.
            let injected: u64 = workload.iter().map(|f| f.bytes).sum();
            if delivered != injected || incomplete != 0 {
                checks.flag(format!(
                    "fluid conservation broken: injected {injected} B, delivered \
                     {delivered} B, {incomplete} flows incomplete"
                ));
            }
            AuditReport {
                epochs_checked: checks.fills,
                whole_set_refills: checks.whole_set_refills,
                cells_injected: workload.len() as u64,
                cells_released: workload.len() as u64 - incomplete,
                total_violations: checks.violations,
                violations: checks.messages,
                ..AuditReport::default()
            }
        });
        let span = if last_delivery > Time::ZERO {
            last_delivery.since(Time::ZERO)
        } else {
            now.since(Time::ZERO)
        };
        metrics(records, delivered, span, audit, wall_start)
    }

    /// Re-fill the slots `flows` and re-rate those whose rate moved, then
    /// audit them. `flows` must be closed (every flow on a resource they
    /// cross is among them) and in arrival order.
    fn refill(
        &self,
        flows: &[u32],
        g: &mut Fluid,
        s: &mut FillScratch,
        now: Time,
        finish: &mut FinishHeap,
        checks: &mut Checks,
    ) {
        waterfill(g, flows, s);
        for &i in flows {
            g.rerate(i as usize, s.rate[i as usize], now, finish);
        }
        if self.audit {
            checks.fills += 1;
            audit_rates(g, flows, s, checks);
        }
    }

    /// `refill` of the whole active set.
    fn refill_all(
        &self,
        g: &mut Fluid,
        s: &mut FillScratch,
        now: Time,
        finish: &mut FinishHeap,
        checks: &mut Checks,
    ) {
        let all = std::mem::take(&mut g.active);
        self.refill(&all, g, s, now, finish, checks);
        g.active = all;
        checks.whole_set_refills += 1;
    }
}

/// One record per workload flow, none complete.
fn flow_records(workload: &[Flow]) -> Vec<FlowRecord> {
    workload
        .iter()
        .map(|f| FlowRecord {
            bytes: f.bytes,
            arrival: f.arrival,
            completion: None,
            delivered: 0,
        })
        .collect()
}

fn complete(r: &mut FlowRecord, at: Time) {
    r.completion = Some(at);
    r.delivered = r.bytes;
}

/// The metrics of a finished fluid run.
fn metrics(
    records: Vec<FlowRecord>,
    delivered: u64,
    span: Duration,
    audit: Option<AuditReport>,
    wall_start: std::time::Instant,
) -> RunMetrics {
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
    let incomplete = records.iter().filter(|f| f.completion.is_none()).count() as u64;
    RunMetrics {
        // The fluid model holds every flow's state for the whole run.
        resident_flows_max: records.len() as u64,
        flows: records,
        delivered_bytes: delivered,
        span,
        peak_node_fabric_cells: 0,
        peak_node_local_cells: 0,
        peak_node_local_runs: 0,
        peak_reorder_flow_bytes: 0,
        cell_bytes: 0,
        incomplete_flows: incomplete,
        cc: Default::default(),
        digest: digest.value(),
        audit,
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

/// Re-check freshly filled rates from first principles, independently of
/// the water-filling bookkeeping: rates are non-negative, no NIC or rack
/// pool `flows` cross is oversubscribed, and the allocation is max-min
/// maximal (every flow is pinned by at least one saturated resource —
/// otherwise water-filling stopped early and the "upper bound on any
/// protocol" claim is void). `flows` is closed, so the load it puts on a
/// resource is the resource's whole load.
fn audit_rates(g: &Fluid, flows: &[u32], s: &mut FillScratch, checks: &mut Checks) {
    s.touched.clear();
    s.used.clear();
    for &i in flows {
        let f = &g.flows[i as usize];
        if f.rate_bps < 0.0 {
            checks.flag(format!("flow {}: negative rate {}", f.id, f.rate_bps));
        }
        for &res in crossed(&f.res) {
            let res = res as usize;
            if s.pos[res] == NO_RES {
                s.pos[res] = s.touched.len() as u32;
                s.touched.push(res as u32);
                s.used.push(0.0);
            }
            s.used[s.pos[res] as usize] += f.rate_bps;
        }
    }
    for (&res, &used) in s.touched.iter().zip(&s.used) {
        let cap = g.capacity(res as usize);
        if used > cap + cap * ESN_AUDIT_EPS {
            checks.flag(format!(
                "{} oversubscribed: {used} > {cap}",
                g.describe(res as usize)
            ));
        }
    }
    // Max-min maximality: a flow whose every resource has slack could be
    // sped up, so the allocation is not max-min fair.
    for &i in flows {
        let f = &g.flows[i as usize];
        let slack = crossed(&f.res).iter().all(|&res| {
            let cap = g.capacity(res as usize);
            cap - s.used[s.pos[res as usize] as usize] > cap * ESN_AUDIT_EPS
        });
        if slack {
            checks.flag(format!(
                "flow {}: not bottlenecked (rate {} bps, all resources slack)",
                f.id, f.rate_bps
            ));
        }
    }
    for &res in &s.touched {
        s.pos[res as usize] = NO_RES;
    }
}

/// Max-min fair rates of the slots `flows` by progressive filling, into
/// `s.rate`.
/// `flows` must be closed (every flow on a resource they cross is among
/// them) and in arrival order. Three resource families constrain a flow:
/// its server uplink, its server downlink, and (if oversubscribed) its
/// source rack's inter-rack pool.
///
/// Each round freezes every unfrozen flow of the bottleneck — the
/// in-use resource with the smallest fair share `cap / cnt`, ties to
/// the resource first touched in `flows` order — at that share. The
/// bottleneck comes off a min-heap of `(share, first-touch position)`
/// keys with lazy invalidation, and a round walks only the bottleneck's
/// member list, so one fill costs O(F log F) for F flows instead of a
/// scan of every resource and flow per round. The rates are
/// bit-identical to that scan's (`tests::scan_fill`): the heap minimum
/// is the scan's argmin (`share_key` orders shares as `<` does, and the
/// position breaks ties as a strict `<` over first-touch order does),
/// and every flow a round freezes subtracts the same share, so every
/// resource sees the same sequence of `cap -= share` steps whatever the
/// order of its member list. Rounds on disjoint resources commute, which
/// is why a flow alone on all its resources can be settled before the
/// heap starts — and why filling one connected component on its own
/// gives its flows the very bits a fill of every active flow gives them:
/// restricted to the component, the arrival order yields the same
/// first-touch order, so the same sequence of rounds.
fn waterfill(g: &Fluid, flows: &[u32], s: &mut FillScratch) {
    // Only resources `flows` cross are numbered, by first touch; `cap`
    // and `cnt` are indexed by that position.
    s.fit(g);
    s.touched.clear();
    s.cap.clear();
    s.cnt.clear();
    for &i in flows {
        for &res in crossed(&g.flows[i as usize].res) {
            let res = res as usize;
            if s.pos[res] == NO_RES {
                s.pos[res] = s.touched.len() as u32;
                s.touched.push(res as u32);
                s.cap.push(g.capacity(res));
                s.cnt.push(0);
            }
            s.cnt[s.pos[res] as usize] += 1;
        }
    }
    debug_assert!(
        s.touched
            .iter()
            .zip(&s.cnt)
            .all(|(&res, &cnt)| g.members(res).count() == cnt as usize),
        "water-fill over a set that is not closed"
    );

    // A flow alone on every resource it crosses gets the smallest of
    // their capacities, whichever of them the heap would pop first, and
    // freezing it touches no other flow's resources: settle it here.
    for &i in flows {
        let i = i as usize;
        let res = crossed(&g.flows[i].res);
        s.frozen[i] = res.iter().all(|&r| s.cnt[s.pos[r as usize] as usize] == 1);
        if s.frozen[i] {
            s.rate[i] = res
                .iter()
                .map(|&r| s.cap[s.pos[r as usize] as usize])
                .fold(f64::INFINITY, f64::min);
            for &r in res {
                s.cnt[s.pos[r as usize] as usize] = 0;
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
    // `stamp[p]` is the last round that changed position `p`, so each
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
        for i in g.members(s.touched[b]) {
            let i = i as usize;
            if s.frozen[i] {
                continue;
            }
            s.frozen[i] = true;
            s.rate[i] = share;
            for &r in crossed(&g.flows[i].res) {
                let p = s.pos[r as usize] as usize;
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

/// A resource no active flow crosses in `FillScratch::pos`, and the third
/// resource of a flow that crosses no rack pool.
const NO_RES: u32 = u32::MAX;

/// The two or three resources of a flow.
fn crossed(res: &[u32; 3]) -> &[u32] {
    &res[..if res[2] == NO_RES { 2 } else { 3 }]
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

/// One active flow's fluid state.
#[derive(Debug, Clone, Copy)]
struct FluidFlow {
    /// Its workload index: arrival order.
    id: u32,
    /// Its resources (see `Fluid`); the third is `NO_RES` when it crosses
    /// no rack pool.
    res: [u32; 3],
    /// Its neighbours on the member list of each resource in `res`, or
    /// `NO_FLOW`.
    next: [u32; 3],
    prev: [u32; 3],
    rate_bps: f64,
    /// Bits left at `since`, the time its rate last changed: at `t` it
    /// has `bits − rate_bps × (t − since)` left.
    bits: f64,
    since: Time,
    /// Bumped at every rate change and when the flow leaves: a
    /// finish-heap entry is live only while it carries its slot's current
    /// version.
    version: u32,
}

/// The end of a member list.
const NO_FLOW: u32 = u32::MAX;

/// The flow–resource graph of the active flows. Resources are numbered
/// `[0, n)` server uplinks, `[n, 2n)` server downlinks and `[2n, 2n +
/// racks)` rack pools, so a flow's `k`-th resource is always of family
/// `k`; a flow crosses a pool only between racks under oversubscription
/// (the source rack's pool is the constrained direction in a 3:1
/// aggregation tier). Flows live in reused slots, so the graph's memory
/// follows the active set, not the workload.
struct Fluid {
    servers: usize,
    servers_per_rack: u32,
    nic_bps: f64,
    pool_bps: f64,
    /// Per slot.
    flows: Vec<FluidFlow>,
    free: Vec<u32>,
    /// Per resource: the first flow of its member list, linked through
    /// `FluidFlow::next`/`prev` in no particular order.
    head: Vec<u32>,
    /// The active slots in arrival order, the order a whole-set fill
    /// takes them in.
    active: Vec<u32>,
}

impl Fluid {
    fn new(cfg: &EsnConfig) -> Fluid {
        let servers = cfg.servers as usize;
        let resources = 2 * servers + cfg.racks() as usize;
        Fluid {
            servers,
            servers_per_rack: cfg.servers_per_rack,
            nic_bps: cfg.server_rate.as_bps() as f64,
            pool_bps: cfg.rack_pool_bps(),
            flows: Vec::new(),
            free: Vec::new(),
            head: vec![NO_FLOW; resources],
            active: Vec::new(),
        }
    }

    fn capacity(&self, res: usize) -> f64 {
        if res < 2 * self.servers {
            self.nic_bps
        } else {
            self.pool_bps
        }
    }

    fn describe(&self, res: usize) -> String {
        let n = self.servers;
        match res {
            r if r < n => format!("server {r} uplink"),
            r if r < 2 * n => format!("server {} downlink", r - n),
            r => format!("rack {} pool", r - 2 * n),
        }
    }

    /// The slots on resource `res`'s member list.
    fn members(&self, res: u32) -> impl Iterator<Item = u32> + '_ {
        // The resource's family is its index in each member's `res`.
        let k = (res as usize / self.servers).min(2);
        let listed = |i: u32| (i != NO_FLOW).then_some(i);
        std::iter::successors(listed(self.head[res as usize]), move |&i| {
            listed(self.flows[i as usize].next[k])
        })
    }

    /// Workload flow `id` arrives at `now` with `bits` to send and no rate
    /// yet; returns its slot. Ids arrive in increasing order, so `active`
    /// stays in arrival order.
    fn add(&mut self, id: usize, src: u32, dst: u32, bits: f64, now: Time) -> usize {
        let (src_rack, dst_rack) = (src / self.servers_per_rack, dst / self.servers_per_rack);
        let pool = if self.pool_bps.is_finite() && src_rack != dst_rack {
            2 * self.servers as u32 + src_rack
        } else {
            NO_RES
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.flows.push(FluidFlow {
                id: 0,
                res: [NO_RES; 3],
                next: [NO_FLOW; 3],
                prev: [NO_FLOW; 3],
                rate_bps: 0.0,
                bits: 0.0,
                since: Time::ZERO,
                version: 0,
            });
            self.flows.len() as u32 - 1
        });
        let f = &mut self.flows[slot as usize];
        f.id = id as u32;
        f.res = [src, self.servers as u32 + dst, pool];
        f.prev = [NO_FLOW; 3];
        f.rate_bps = 0.0;
        f.bits = bits;
        f.since = now;
        for k in 0..crossed(&f.res).len() {
            let res = self.flows[slot as usize].res[k] as usize;
            let first = self.head[res];
            self.flows[slot as usize].next[k] = first;
            if first != NO_FLOW {
                self.flows[first as usize].prev[k] = slot;
            }
            self.head[res] = slot;
        }
        self.active.push(slot);
        slot as usize
    }

    /// The flow in `slot` leaves the graph.
    fn remove(&mut self, slot: usize) {
        let f = self.flows[slot];
        for (k, &res) in crossed(&f.res).iter().enumerate() {
            let (prev, next) = (f.prev[k], f.next[k]);
            if prev == NO_FLOW {
                self.head[res as usize] = next;
            } else {
                self.flows[prev as usize].next[k] = next;
            }
            if next != NO_FLOW {
                self.flows[next as usize].prev[k] = prev;
            }
        }
        let flows = &self.flows;
        let k = self
            .active
            .binary_search_by_key(&f.id, |&i| flows[i as usize].id)
            .expect("an active flow is listed in `active`");
        self.active.remove(k);
        self.flows[slot].version += 1;
        self.free.push(slot as u32);
    }

    /// Give the flow in `slot` rate `rate` from `now` on: settle what it
    /// drained at its old rate and project its finish onto `finish`. A
    /// rate equal to the old one to the bit changes nothing, not even the
    /// rounding.
    fn rerate(&mut self, slot: usize, rate: f64, now: Time, finish: &mut FinishHeap) {
        let f = &mut self.flows[slot];
        if f.rate_bps.to_bits() == rate.to_bits() {
            return;
        }
        f.bits = (f.bits - f.rate_bps * now.since(f.since).as_secs_f64()).max(0.0);
        f.since = now;
        f.rate_bps = rate;
        f.version += 1;
        if rate > 0.0 {
            let at = now + Duration::from_ps((f.bits / rate * 1e12).ceil() as u64);
            finish.push(Reverse((at.as_ps(), slot as u32, f.version)));
        }
    }
}

/// Buffers reused by every fill, walk and audit of one run, so none
/// allocates once they have grown to the run's largest set. A fill or
/// audit resets just the `pos` entries it set.
struct FillScratch {
    /// Per resource: its position in the current fill or audit, or
    /// `NO_RES`.
    pos: Vec<u32>,
    /// Per position: the resource, its residual capacity, its unfrozen
    /// flows, the last round that changed it, and (auditing) its load.
    touched: Vec<u32>,
    cap: Vec<f64>,
    cnt: Vec<u32>,
    stamp: Vec<u32>,
    used: Vec<f64>,
    /// Positions changed in the current round.
    changed: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per slot: the rate the last fill that covered it gave it, and
    /// whether the current fill has frozen it.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Per resource and per slot: the last walk that reached it; `walk`
    /// numbers the walks, `stack` holds a walk's resources to visit.
    res_walk: Vec<u32>,
    flow_walk: Vec<u32>,
    walk: u32,
    stack: Vec<u32>,
}

impl FillScratch {
    fn new(g: &Fluid) -> FillScratch {
        FillScratch {
            pos: vec![NO_RES; g.head.len()],
            touched: Vec::new(),
            cap: Vec::new(),
            cnt: Vec::new(),
            stamp: Vec::new(),
            used: Vec::new(),
            changed: Vec::new(),
            heap: BinaryHeap::new(),
            rate: Vec::new(),
            frozen: Vec::new(),
            res_walk: vec![0; g.head.len()],
            flow_walk: Vec::new(),
            walk: 0,
            stack: Vec::new(),
        }
    }

    /// Size the per-slot buffers to `g`'s slots.
    fn fit(&mut self, g: &Fluid) {
        let slots = g.flows.len();
        if self.rate.len() < slots {
            self.rate.resize(slots, 0.0);
            self.frozen.resize(slots, false);
            self.flow_walk.resize(slots, 0);
        }
    }

    /// Append to `comp` the flows of each connected component a resource
    /// in `starts` belongs to, except components above `limit` flows;
    /// returns whether one was left out. One walk per start no earlier
    /// walk of this call reached; a walk gives up once it passes `limit`
    /// flows or meets what an earlier walk that gave up reached (the same
    /// component, then).
    fn components(&mut self, g: &Fluid, starts: &[u32], limit: usize, comp: &mut Vec<u32>) -> bool {
        self.fit(g);
        if self.walk > u32::MAX - starts.len() as u32 {
            self.res_walk.fill(0);
            self.flow_walk.fill(0);
            self.walk = 0;
        }
        let first = self.walk + 1;
        let mut left_out = false;
        for &start in starts {
            if self.res_walk[start as usize] >= first {
                continue;
            }
            self.walk += 1;
            let me = self.walk;
            let from = comp.len();
            self.res_walk[start as usize] = me;
            self.stack.clear();
            self.stack.push(start);
            let mut whole = true;
            'walk: while let Some(res) = self.stack.pop() {
                for i in g.members(res) {
                    let mark = self.flow_walk[i as usize];
                    if mark == me {
                        continue;
                    }
                    if mark >= first || comp.len() - from == limit {
                        whole = false;
                        break 'walk;
                    }
                    self.flow_walk[i as usize] = me;
                    comp.push(i);
                    for &r in crossed(&g.flows[i as usize].res) {
                        let mark = self.res_walk[r as usize];
                        if mark != me {
                            if mark >= first {
                                whole = false;
                                break 'walk;
                            }
                            self.res_walk[r as usize] = me;
                            self.stack.push(r);
                        }
                    }
                }
            }
            if !whole {
                comp.truncate(from);
                left_out = true;
            }
        }
        left_out
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

    fn flow(id: u64, src: u32, dst: u32, bytes: u64, arrival: Time) -> Flow {
        Flow {
            id,
            src_server: src,
            dst_server: dst,
            bytes,
            arrival,
        }
    }

    #[test]
    fn single_flow_runs_at_nic_rate() {
        // 10 Mbit at 10 Gbps = 1 ms.
        let wl = vec![flow(0, 0, 9, 1_250_000, Time::ZERO)];
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
            flow(0, 0, 9, 1_250_000, Time::ZERO),
            flow(1, 1, 9, 1_250_000, Time::ZERO),
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
            .map(|k| flow(k, k as u32, 8 + k as u32 * 8 % 56, 1_250_000, Time::ZERO))
            .collect();
        let m = EsnSim::new(cfg(3.0)).run(&wl);
        for f in &m.flows {
            let fct = f.fct().unwrap().as_ms_f64();
            assert!((fct - 1.5).abs() < 0.01, "fct = {fct} ms, expected 1.5 ms");
        }
        // Intra-rack flow is unaffected by the pool.
        let wl = vec![flow(0, 0, 1, 1_250_000, Time::ZERO)];
        let m = EsnSim::new(cfg(3.0)).run(&wl);
        assert!((m.flows[0].fct().unwrap().as_ms_f64() - 1.003).abs() < 0.01);
    }

    #[test]
    fn an_arrival_re_rates_the_flows_of_its_component() {
        // Flow 0 has 20 Mbit alone on downlink 9 at 10 Gb/s. Flow 1 joins
        // it at 1 ms with 5 Mbit: both run at 5 Gb/s, flow 1 leaves at
        // 2 ms, and flow 0's last 5 Mbit take 0.5 ms at 10 Gb/s again.
        // Flow 2 shares nothing with either and keeps its 10 Gb/s.
        let wl = vec![
            flow(0, 0, 9, 2_500_000, Time::ZERO),
            flow(1, 1, 9, 625_000, Time::from_ps(1_000_000_000)),
            flow(2, 2, 10, 3_750_000, Time::from_ps(1_000_000_000)),
        ];
        let m = EsnSim::new(cfg(1.0)).with_audit(true).run(&wl);
        let fct = |k: usize| m.flows[k].fct().unwrap();
        let base = Duration::from_us(3);
        assert_eq!(fct(0), Duration::from_us(2_500) + base);
        assert_eq!(fct(1), Duration::from_ms(1) + base);
        assert_eq!(fct(2), Duration::from_ms(3) + base);
        assert!(m.audit.unwrap().is_clean());
    }

    #[test]
    fn flows_finishing_in_the_same_picosecond_complete_in_one_event() {
        // Three flows share downlink 9 at 10/3 Gb/s; flows 0 and 1 carry
        // the same bytes, so their projected finishes are the same
        // picosecond. One event completes both and re-fills flow 2 once:
        // two audited fills in all (the arrivals and that one). Two events
        // would re-fill flows 1 and 2, then flow 2: three.
        let wl = vec![
            flow(0, 0, 9, 1_250_000, Time::ZERO),
            flow(1, 1, 9, 1_250_000, Time::ZERO),
            flow(2, 2, 9, 2_500_000, Time::ZERO),
        ];
        let m = EsnSim::new(cfg(1.0)).with_audit(true).run(&wl);
        assert_eq!(m.flows[0].completion, m.flows[1].completion);
        assert!(m.flows[2].completion > m.flows[0].completion);
        let audit = m.audit.unwrap();
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert_eq!(audit.epochs_checked, 2);
        assert_eq!(audit.whole_set_refills, 0);
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

    /// The graph of `(src, dst)` flows, all active; flow `i` is in slot
    /// `i`.
    fn graph(cfg: &EsnConfig, pairs: &[(u32, u32)]) -> Fluid {
        let mut g = Fluid::new(cfg);
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            assert_eq!(g.add(i, src, dst, 1.0, Time::ZERO), i);
        }
        g
    }

    /// One water-fill of `flows` over `g`; returns each one's rate bits.
    fn fill_bits(g: &Fluid, flows: &[u32]) -> Vec<u64> {
        let mut s = FillScratch::new(g);
        waterfill(g, flows, &mut s);
        flows
            .iter()
            .map(|&i| s.rate[i as usize].to_bits())
            .collect()
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
        let g = graph(&cfg(2.0), &pairs);
        let bits = fill_bits(&g, &g.active);
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
    fn scan_fill(cfg: &EsnConfig, pairs: &[(u32, u32)]) -> Vec<u64> {
        let n = cfg.servers as usize;
        let spr = cfg.servers_per_rack;
        let pool = cfg.rack_pool_bps();
        let r = cfg.server_rate.as_bps() as f64;
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
        let nres = 2 * n + cfg.racks() as usize;
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

    /// A xorshift stream of `u32`s below `m`.
    fn xorshift() -> impl FnMut(u32) -> u32 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        move |m| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as u32
        }
    }

    /// `flows` random `(src, dst)` pairs over `servers` servers.
    fn random_pairs(
        next: &mut impl FnMut(u32) -> u32,
        servers: u32,
        flows: usize,
    ) -> Vec<(u32, u32)> {
        (0..flows)
            .map(|_| {
                let src = next(servers);
                (src, (src + 1 + next(servers - 1)) % servers)
            })
            .collect()
    }

    #[test]
    fn heap_fill_matches_the_scan_bit_for_bit() {
        // Few servers and many flows, so shares collide and tie often.
        let mut next = xorshift();
        for case in 0..300 {
            let cfg = cfg([1.0, 1.5, 2.0, 3.0][case % 4]);
            let servers: u32 = [4, 16, 64][case % 3];
            let flows = 1 + next(200) as usize;
            let pairs = random_pairs(&mut next, servers, flows);
            let g = graph(&cfg, &pairs);
            assert_eq!(
                fill_bits(&g, &g.active),
                scan_fill(&cfg, &pairs),
                "case {case}"
            );
        }
    }

    #[test]
    fn component_fills_match_one_whole_set_fill_bit_for_bit() {
        // Sparse enough (up to 96 flows over 64 servers) that the graph
        // falls apart into many components, some of them dozens of flows.
        let mut next = xorshift();
        let mut split = 0;
        for case in 0..400 {
            let cfg = cfg([1.0, 3.0][case % 2]);
            let flows = 1 + next(96) as usize;
            let pairs = random_pairs(&mut next, 64, flows);
            let g = graph(&cfg, &pairs);
            let whole = fill_bits(&g, &g.active);
            let mut s = FillScratch::new(&g);
            let mut rates = vec![None; pairs.len()];
            let mut comps = 0;
            for i in 0..pairs.len() {
                if rates[i].is_some() {
                    continue;
                }
                let mut comp = Vec::new();
                assert!(!s.components(&g, &g.flows[i].res[..1], usize::MAX, &mut comp));
                comp.sort_unstable();
                for (&k, bits) in comp.iter().zip(fill_bits(&g, &comp)) {
                    assert!(rates[k as usize].replace(bits).is_none(), "case {case}");
                }
                comps += 1;
            }
            let parts: Vec<u64> = rates.into_iter().map(Option::unwrap).collect();
            assert_eq!(parts, whole, "case {case}");
            split += (comps > 1) as usize;
        }
        assert!(split > 300, "only {split} cases split into components");
    }

    #[test]
    fn a_walk_gives_up_past_the_limit_and_its_component_stays_out() {
        // Flows 0..5 chain uplinks and downlinks into one component of
        // five; flow 5 is alone.
        let pairs = [(0, 10), (1, 10), (1, 11), (2, 11), (2, 12), (5, 20)];
        let g = graph(&cfg(1.0), &pairs);
        let mut s = FillScratch::new(&g);
        let mut comp = Vec::new();
        // Limit 5: the chain is whole.
        assert!(!s.components(&g, &[0, 5], 5, &mut comp));
        comp.sort_unstable();
        assert_eq!(comp, [0, 1, 2, 3, 4, 5]);
        // Limit 4: both starts hit the chain and give up; the lone flow
        // is still walked.
        comp.clear();
        assert!(s.components(&g, &[0, 64 + 12, 5], 4, &mut comp));
        assert_eq!(comp, [5]);
    }

    /// The exact fluid model as a re-fill after every event runs it:
    /// every event drains every active flow by `rate × dt`, completes
    /// those within 1e-6 bits of empty, and re-fills the whole active set
    /// in arrival order. The event-local engine must match it to within
    /// rounding wherever it is exact.
    fn every_event_reference(sim: &EsnSim, wl: &[Flow]) -> RunMetrics {
        let wall_start = std::time::Instant::now();
        let mut g = Fluid::new(&sim.cfg);
        let mut s = FillScratch::new(&g);
        let mut records = flow_records(wl);
        let (mut delivered, mut last_delivery) = (0u64, Time::ZERO);
        let (mut now, mut next) = (Time::ZERO, 0usize);
        loop {
            let completion = g
                .active
                .iter()
                .map(|&i| &g.flows[i as usize])
                .filter(|f| f.rate_bps > 0.0)
                .map(|f| now + Duration::from_ps((f.bits / f.rate_bps * 1e12).ceil() as u64))
                .min();
            let arrival = wl.get(next).map(|f| f.arrival);
            let to = match (completion, arrival) {
                (Some(c), Some(a)) => c.min(a),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => break,
            };
            let dt = to.since(now).as_secs_f64();
            for &i in &g.active {
                let f = &mut g.flows[i as usize];
                f.bits = (f.bits - f.rate_bps * dt).max(0.0);
            }
            now = to;
            if arrival == Some(now) {
                let f = &wl[next];
                g.add(next, f.src_server, f.dst_server, f.bytes as f64 * 8.0, now);
                next += 1;
            }
            for i in g.active.clone() {
                let f = g.flows[i as usize];
                if f.bits <= 1e-6 {
                    g.remove(i as usize);
                    let id = f.id as usize;
                    complete(&mut records[id], now + sim.cfg.base_latency);
                    delivered += records[id].bytes;
                    last_delivery = last_delivery.max(now + sim.cfg.base_latency);
                }
            }
            waterfill(&g, &g.active, &mut s);
            for &i in &g.active {
                g.flows[i as usize].rate_bps = s.rate[i as usize];
            }
        }
        metrics(
            records,
            delivered,
            last_delivery.since(Time::ZERO),
            None,
            wall_start,
        )
    }

    /// `esn_fluid`'s inputs: the paper network, L = 0.5, 9,600 flows.
    fn esn_fluid(osub: f64, seed: u64) -> (EsnSim, Vec<Flow>, u64, Rate) {
        let net = sirius_core::SiriusConfig::paper_sim();
        let servers = net.total_servers() as u64;
        let rate = Rate::from_bps(net.node_bandwidth().as_bps() / net.servers_per_node as u64);
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
        (sim, wl, servers, rate)
    }

    /// Release only: its reference re-fills ~860 flows at every one of
    /// ~19,000 events, about 35 s of a debug build. `ci.sh audit` runs it
    /// in release on every push (about 3 s).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only; ci.sh audit runs it")]
    fn esn_is_exact_at_every_event_at_esn_fluid_inputs() {
        // No component passes the limit, so no whole-set fill runs, and
        // every completion lands within 1 ns of the every-event reference
        // (the lazy drain rounds differently from a per-event one).
        let check = |seed| {
            let (sim, wl, _, _) = esn_fluid(1.0, seed);
            let sim = sim.with_audit(true);
            let m = sim.run(&wl);
            let audit = m.audit.as_ref().unwrap();
            assert!(audit.is_clean(), "seed {seed}: {:?}", audit.violations);
            assert_eq!(audit.whole_set_refills, 0, "seed {seed}");
            let reference = every_event_reference(&sim, &wl);
            for (k, (a, b)) in m.flows.iter().zip(&reference.flows).enumerate() {
                let (a, b) = (a.completion.unwrap(), b.completion.unwrap());
                let gap = a.as_ps().abs_diff(b.as_ps());
                assert!(gap <= 1_000, "seed {seed} flow {k}: {a} vs {b}");
            }
        };
        std::thread::scope(|s| {
            let others = [2, 3].map(|seed| s.spawn(move || check(seed)));
            check(1);
            for seed in others {
                seed.join().unwrap();
            }
        });
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

    /// Release only: about 4.5 s of a debug build. `ci.sh audit` runs it
    /// in release on every push.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only; ci.sh audit runs it")]
    fn amortized_refill_is_within_one_percent_of_exact() {
        // ESN-OSUB at L = 1.0: about 300 flows active on average, most of
        // them joined by the eight rack pools into components above the
        // limit, which are re-filled only every few events.
        let wl = workload(1.0, 3000, 5);
        let sim = EsnSim::new(cfg(3.0)).with_audit(true);
        let run = sim.run(&wl);
        let audit = run.audit.as_ref().unwrap();
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert!(audit.whole_set_refills > 0, "never amortized");
        let exact = every_event_reference(&sim, &wl);
        assert_ne!(run.digest, exact.digest, "same run");
        let a = short_flow_summary(&run, 64, Rate::from_gbps(10));
        let e = short_flow_summary(&exact, 64, Rate::from_gbps(10));
        for (k, name) in ["p50", "p95", "p99", "goodput"].iter().enumerate() {
            let rel = (a[k] - e[k]).abs() / e[k];
            assert!(rel <= 0.01, "{name}: amortized {} vs exact {}", a[k], e[k]);
        }
    }

    /// The error of what still amortizes, ESN-OSUB's components above 64
    /// flows, at `esn_fluid`'s inputs, printed as EXPERIMENTS.md's table.
    /// Run with `cargo test --release -p sirius-sim --lib
    /// esn::tests::amortization_error_table -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn amortization_error_table() {
        println!("| variant | seed | p50 | p95 | p99 | goodput | wall exact / run |");
        println!("|---|---|---|---|---|---|---|");
        for seed in 1..=3 {
            let (sim, wl, servers, rate) = esn_fluid(3.0, seed);
            let exact = every_event_reference(&sim, &wl);
            let run = sim.run(&wl);
            let e = short_flow_summary(&exact, servers, rate);
            let a = short_flow_summary(&run, servers, rate);
            let d: Vec<String> = (0..4)
                .map(|k| format!("{:+.3} %", (e[k] - a[k]) / a[k] * 100.0))
                .collect();
            println!(
                "| ESN-OSUB | {seed} | {} | {} | {} | {} | {:.2} / {:.3} s |",
                d[0], d[1], d[2], d[3], exact.wall_secs, run.wall_secs
            );
        }
    }

    #[test]
    fn max_min_is_work_conserving_for_symmetric_pairs() {
        // A permutation workload at moderate size: every flow should get
        // the full NIC rate (no shared bottlenecks).
        let wl: Vec<Flow> = (0..8)
            .map(|k| flow(k, k as u32, 32 + k as u32, 125_000, Time::ZERO))
            .collect();
        let m = EsnSim::new(cfg(1.0)).run(&wl);
        for f in &m.flows {
            let fct = f.fct().unwrap().as_us_f64();
            assert!((fct - 103.0).abs() < 1.0, "fct = {fct} us");
        }
    }
}
