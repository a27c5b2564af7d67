//! FaultPlane: scripted ground truth, per-slot corruption scratch, and
//! the epoch-boundary fault pipeline.
//!
//! The plane owns the [`FaultInjector`] script, crash ground truth (which
//! nodes are down), the per-epoch [`ActiveFaults`] snapshot and the
//! [`FaultReport`] ledger. Per slot it runs the mistune pre-pass (which
//! RX ports does a detuned laser corrupt this slot?) and grey-erasure
//! draws; per epoch, [`SiriusSim::fault_boundary`] lands scripted
//! crashes and reboots and turns detector silence into staged schedule
//! repair.
//!
//! Runs with an empty script never arm this plane: the slot passes run
//! their unarmed arm, and the boundary — whose only observable effects
//! (crashes, detector ticks, staged updates, report entries) all require
//! scripted faults to exist — never runs.

use crate::audit::LossCause;
use crate::engine::observer::SlotObserver;
use crate::faults::{ActiveFaults, FaultEvent, FaultInjector};
use crate::metrics::{ByzantineRecord, CorrelatedDomainRecord, FailureRecord, FaultReport};
use crate::sirius_net::SiriusSim;
use rand::rngs::SmallRng;
use rand::Rng;
use sirius_core::cell::{Cell, FlowId};
use sirius_core::fault::{BYZ_QUARANTINE_THRESHOLD, CORRELATION_THRESHOLD};
use sirius_core::repair::AdjustedSchedule;
use sirius_core::schedule::{Schedule, SlotInEpoch};
use sirius_core::topology::{NodeId, ServerId, UplinkId};

/// Fabricate one counterfeit cell from a Byzantine node `ni` whose slot
/// (RX port of `j`) would otherwise idle. Two lies, chosen per forgery
/// from the node's own stream:
///
/// * **Header forgery** — a fabricated origin, addressed to the slot's
///   scheduled destination (framing another node as the sender).
/// * **Stale-grant replay** — the node's own origin but a stale
///   destination, replaying a long-consumed reservation.
///
/// Every counterfeit carries an out-of-range `FlowId`: the liar does not
/// know the receivers' flow tables, which is exactly why the RX-side
/// header validation is sound.
pub(crate) fn forge_cell(rng: &mut SmallRng, ni: NodeId, j: NodeId, n: usize) -> Cell {
    let kind = rng.gen_range(0..2u8);
    let (src, dst) = if kind == 0 {
        (NodeId(rng.gen_range(0..n as u32)), j)
    } else {
        (ni, NodeId(rng.gen_range(0..n as u32)))
    };
    Cell {
        flow: FlowId(u64::MAX),
        seq: 0,
        payload: 0,
        src,
        dst,
        dst_server: ServerId(0),
        last: false,
    }
}

/// RX-side Byzantine bookkeeping, armed only when the script contains a
/// [`crate::faults::FaultEvent::Byzantine`] window.
///
/// The schedule names exactly one legitimate transmitter for every
/// (receiver, RX column, epoch slot), so a receiver that catches a
/// counterfeit can attribute it to the *true* transmitter of the slot it
/// arrived on — not to the node named in the forged header. Suspicion
/// accumulates per epoch and is reset at every fault boundary: the
/// quarantine threshold therefore bounds the liar's damage *per epoch*
/// (mirroring the §4.4 slew clamp), after which whole-node exclusion is
/// staged and held sticky (the report's quarantine records are the list a
/// resumed keepalive is checked against: the liar's laser works fine — its
/// *software* lies).
pub(crate) struct ByzPlane {
    /// Forged cells attributed to each node during the current epoch.
    pub suspicion: Vec<u64>,
}

pub(crate) struct FaultPlane {
    /// Scripted ground-truth faults; detection is emergent.
    pub injector: FaultInjector,
    /// Crash ground truth: which nodes are down right now. Written only
    /// by the fault boundary as scripted crashes and reboots land; what
    /// routing believes is the schedule overlay, never this.
    crashed: Vec<bool>,
    /// Per-epoch snapshot of active grey/mistune/control-loss windows.
    pub active: ActiveFaults,
    pub report: FaultReport,
    /// RX-side Byzantine filter state (None unless the script has a
    /// Byzantine window — the fault-free and fault-only paths skip it).
    pub byz: Option<ByzPlane>,
    /// Per-slot scratch: RX ports hit by a stray (mistuned) signal,
    /// indexed `node * uplinks + uplink`.
    corrupt: Vec<Option<NodeId>>,
    corrupt_touched: Vec<u32>,
    uplinks: usize,
    /// Nodes per group (= AWGR ports); drives correlated-domain expansion.
    group_size: usize,
    /// Reused scratch for `FaultInjector::node_events_at`.
    node_scratch: Vec<(NodeId, bool)>,
}

impl FaultPlane {
    pub fn new(seed: u64, n: usize, uplinks: usize, group_size: usize) -> FaultPlane {
        FaultPlane {
            injector: FaultInjector::new(seed),
            crashed: vec![false; n],
            active: ActiveFaults::default(),
            report: FaultReport::default(),
            byz: None,
            corrupt: vec![None; n * uplinks],
            corrupt_touched: Vec::new(),
            uplinks,
            group_size,
            node_scratch: Vec::new(),
        }
    }

    /// Mistune pre-pass: a wavelength shifted by `offset` follows the
    /// grating to the destination scheduled `offset` slots later, so the
    /// stray signal corrupts whatever legitimately arrives on that RX
    /// port this slot.
    pub fn mistune_prepass(&mut self, t: SlotInEpoch, sched: &Schedule) {
        let epoch_slots = sched.epoch_slots();
        let uplinks = self.uplinks;
        for k in 0..self.active.mistuned_nodes.len() {
            let m = self.active.mistuned_nodes[k];
            if self.is_crashed(m) {
                continue; // a dead laser emits nothing
            }
            let off = self.active.mistune_of(m).unwrap() as u64;
            let shifted = SlotInEpoch(((t.0 as u64 + off) % epoch_slots) as u16);
            for u in 0..uplinks as u16 {
                let wrong = sched.dest(m, UplinkId(u), shifted);
                let idx = wrong.0 as usize * uplinks + u as usize;
                if self.corrupt[idx].is_none() {
                    self.corrupt[idx] = Some(m);
                    self.corrupt_touched.push(idx as u32);
                }
            }
        }
    }

    /// Whether `node` is down (crash ground truth).
    #[inline]
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.0 as usize]
    }

    /// Which mistuned sender (if any) corrupts RX port (`j`, `u`) this
    /// slot.
    #[inline]
    pub fn corrupted_by(&self, j: NodeId, u: u16) -> Option<NodeId> {
        self.corrupt[j.0 as usize * self.uplinks + u as usize]
    }

    /// Clear the per-slot corruption scratch (sparse: only touched ports).
    #[inline]
    pub fn end_slot(&mut self) {
        for &idx in &self.corrupt_touched {
            self.corrupt[idx as usize] = None;
        }
        self.corrupt_touched.clear();
    }
}

/// Stage whole-node omission of `p` at the next update epoch (one epoch of
/// dissemination riding the cyclic schedule), unless `p` is already
/// omitted or on its way out.
fn stage_node_omit(sched: &mut AdjustedSchedule, p: NodeId, epoch: u64) {
    if !sched.is_omitted(p) && sched.pending_node(p) != Some(true) {
        sched.stage_omit(p, epoch + 1);
    }
}

/// Stage readmission of an omitted `p` at the next update epoch, unless it
/// is already on its way back.
fn stage_node_readmit(sched: &mut AdjustedSchedule, p: NodeId, epoch: u64) {
    if sched.is_omitted(p) && sched.pending_node(p) != Some(false) {
        sched.stage_readmit(p, epoch + 1);
    }
}

impl SiriusSim {
    /// Arm the attached fault script for a run: the per-node draw
    /// streams and silence detectors, the per-column detector and the
    /// RX-side Byzantine filter where the script needs them, and every scripted window declared
    /// to the audit up front so it holds its invariants *with
    /// attribution* — losses must fall inside a declared window of the
    /// matching cause, and detector suspicions outside any window are
    /// false positives. No-op without a script.
    pub(crate) fn arm_fault_script(&mut self) {
        let injector = &self.faults.injector;
        if injector.is_empty() {
            return;
        }
        let n = self.nodes.len();
        self.fault_rngs = injector.node_streams(n);
        self.detect.arm(
            injector
                .has_link_faults()
                .then(|| self.sched.base().uplinks()),
        );
        if injector.has_byzantine() {
            self.faults.byz = Some(ByzPlane {
                suspicion: vec![0; n],
            });
        }
        let Some(audit) = self.audit.as_mut() else {
            return;
        };
        let events = injector.events();
        for e in events {
            match *e {
                FaultEvent::Crash { node, epoch } => {
                    let until = events
                        .iter()
                        .filter_map(|e2| match *e2 {
                            FaultEvent::Recover { node: n2, epoch: r }
                                if n2 == node && r > epoch =>
                            {
                                Some(r)
                            }
                            _ => None,
                        })
                        .min()
                        .unwrap_or(u64::MAX);
                    audit.declare_window(LossCause::Crash, node, epoch, until);
                }
                FaultEvent::GreyLink {
                    node, from, until, ..
                } => audit.declare_window(LossCause::Grey, node, from, until),
                FaultEvent::Mistune {
                    node, from, until, ..
                } => audit.declare_window(LossCause::Mistune, node, from, until),
                // Correlated domains expand to per-node grey columns
                // (p = 1.0 for an outright failure, a rising ramp for a
                // drift), so the audit windows are Grey windows on every
                // node in the blast radius. A drift's window covers the
                // whole ramp: losses during the early (barely degraded)
                // phase are legitimate grey losses too.
                FaultEvent::BankFailure { from, until, .. }
                | FaultEvent::BankDrift { from, until, .. }
                | FaultEvent::GratingFault { from, until, .. } => {
                    for (node, _) in e.columns(self.cfg.network.grating_ports, n) {
                        audit.declare_window(LossCause::Grey, node, from, until);
                    }
                }
                // Forgeries (and their RX-side drops) must fall inside a
                // declared Byzantine window or the audit flags them.
                FaultEvent::Byzantine {
                    node, from, until, ..
                } => audit.declare_window(LossCause::Byzantine, node, from, until),
                FaultEvent::Recover { .. } | FaultEvent::ControlLoss { .. } => {}
            }
        }
    }

    /// Epoch-boundary fault pipeline: scripted ground truth lands, the
    /// silence detectors tick, suspicions stage consistent updates one
    /// epoch out, and the schedule overlay — the one routing view —
    /// applies the staged set at the boundary, the VLB picker following
    /// it.
    pub(crate) fn fault_boundary<O: SlotObserver>(&mut self, epoch: u64, obs: &mut O) {
        // 1. Ground-truth transitions (routing is NOT told). The event
        //    list is collected into a reused scratch buffer — the engine
        //    loop calls this every epoch and must not allocate for it.
        let mut ev = std::mem::take(&mut self.faults.node_scratch);
        self.faults.injector.node_events_at(epoch, &mut ev);
        for (node, is_crash) in ev.drain(..) {
            self.faults.crashed[node.0 as usize] = is_crash;
            if is_crash {
                self.faults.report.failures.push(FailureRecord {
                    node,
                    fail_epoch: epoch,
                    first_suspected: None,
                    excluded_at: None,
                    recovered_epoch: None,
                    readmitted_at: None,
                });
            } else {
                // A rebooted node's counters predate the outage; reset so
                // it re-earns suspicions instead of suspecting everyone.
                self.detect.detectors[node.0 as usize].reset(epoch);
                if let Some(rec) = self
                    .faults
                    .report
                    .failures
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == node && r.recovered_epoch.is_none())
                {
                    rec.recovered_epoch = Some(epoch);
                }
            }
        }
        self.faults.node_scratch = ev;

        // 2. Refresh the flat per-epoch fault snapshot.
        let n = self.nodes.len();
        let uplinks = self.sched.base().uplinks();
        let FaultPlane {
            injector,
            active,
            group_size,
            ..
        } = &mut self.faults;
        injector.refresh(epoch, n, uplinks, *group_size, active);

        // 3. Link-granular silence detection (maintained only when the
        //    script can produce partial-node faults): a newly silent TX
        //    column is repaired by dropping just that (uplink, slot)
        //    column from the schedule — costing `1/(N*U)` of capacity —
        //    unless enough of the node's columns are suspect that the
        //    §4.5 whole-node rule takes over (escalation, and the whole
        //    mechanism in node-granular comparison mode).
        let thresh = self.cfg.fault.escalation_threshold(uplinks);
        let ticked = match &mut self.detect.link_det {
            Some(ld) => ld.tick(epoch),
            None => Vec::new(),
        };
        for (peer, col) in ticked {
            let links = &mut self.faults.report.links;
            if !links
                .iter()
                .any(|r| r.node == peer && r.uplink == col as u16)
            {
                links.push(crate::metrics::LinkRecord {
                    node: peer,
                    uplink: col as u16,
                    first_suspected: epoch,
                    omitted_at: None,
                    readmitted_at: None,
                });
            }
            // Cross-node correlation (§4.5 extended to shared components):
            // independent transceiver failures scatter across columns, but
            // a dead laser-bank chip or AWGR grating band silences the
            // *same* uplink column on several distinct nodes at once. When
            // enough peers are simultaneously suspect on this column, the
            // diagnosis flips to ONE fleet-wide correlated domain: repair
            // stays column-granular (k columns at `1/(N*U)` each) and the
            // per-node escalation rule is suppressed — a bank failure must
            // never cost k whole-node exclusions (`k/N`). Only meaningful
            // when column-granular repair is on: the node-granular
            // comparison mode (escalation fraction 0, the paper's pure
            // §4.5 rule) must keep excluding whole nodes regardless.
            let corr_nodes = if self.cfg.fault.column_escalation_fraction > 0.0 {
                self.detect
                    .link_det
                    .as_ref()
                    .map_or(0, |ld| ld.column_suspected_nodes(col))
            } else {
                0
            };
            let correlated = corr_nodes >= CORRELATION_THRESHOLD;
            let domains = &mut self.faults.report.correlated_domains;
            if correlated && !domains.iter().any(|d| d.uplink == col as u16) {
                domains.push(CorrelatedDomainRecord {
                    uplink: col as u16,
                    nodes: corr_nodes as u32,
                    detected_at: epoch,
                });
            }
            let escalated = !correlated
                && self
                    .detect
                    .link_det
                    .as_ref()
                    .is_some_and(|ld| ld.suspected_count(peer) >= thresh);
            if escalated {
                stage_node_omit(&mut self.sched, peer, epoch);
            } else if !self.sched.is_column_omitted(peer, UplinkId(col as u16))
                && self.sched.pending_column(peer, UplinkId(col as u16)) != Some(true)
            {
                self.sched
                    .stage_omit_column(peer, UplinkId(col as u16), epoch + 1);
            }
        }

        // 3b. Node-level silence detection: every live node's detector
        //    ticks; a new suspicion stages exclusion at `epoch + 1`. A
        //    grey node below the escalation threshold keeps its healthy
        //    columns — the column omission above already repaired the
        //    schedule, so the node-level suspicion (receivers served
        //    only by the dead column genuinely stop hearing the sender)
        //    must not exclude the whole node.
        for o in 0..n {
            if self.faults.is_crashed(NodeId(o as u32)) {
                continue;
            }
            for p in self.detect.detectors[o].tick(epoch) {
                if p.0 as usize == o {
                    continue; // a node never hears itself on the fabric
                }
                self.faults.report.suspicion_events += 1;
                obs.note_suspicion(epoch, p);
                if let Some(rec) = self
                    .faults
                    .report
                    .failures
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == p && r.first_suspected.is_none())
                {
                    rec.first_suspected = Some(epoch);
                }
                // When the per-column detector runs, it owns repair
                // staging: a receiver's node-level silence cannot
                // distinguish a dead node from the death of the one
                // column serving it, and its per-receiver counters lag
                // the column view by up to an epoch — acting on them
                // would exclude a whole node for a single grey column.
                // Node-level suspicions then only feed the record books;
                // exclusion comes from column escalation above.
                if self.detect.link_det.is_none() {
                    stage_node_omit(&mut self.sched, p, epoch);
                }
            }
        }

        // 3c. Byzantine quarantine: suspicion accumulated by the RX-side
        //    filter since the last boundary is the node's forged-cell
        //    count *for this epoch*. Crossing the threshold stages sticky
        //    whole-node exclusion; resetting the counters every boundary
        //    is what makes the threshold a per-epoch damage bound (the
        //    §4.4 slew-clamp shape: lie a little, tolerated; lie past the
        //    clamp, evicted).
        let FaultPlane { byz, report, .. } = &mut self.faults;
        if let Some(bz) = byz {
            for p in 0..n {
                let s = bz.suspicion[p];
                if s > report.max_forged_per_epoch {
                    report.max_forged_per_epoch = s;
                }
                let node = NodeId(p as u32);
                if s >= BYZ_QUARANTINE_THRESHOLD
                    && !report.byz_quarantined.iter().any(|r| r.node == node)
                {
                    report.byz_quarantined.push(ByzantineRecord {
                        node,
                        quarantined_at: epoch,
                    });
                    stage_node_omit(&mut self.sched, node, epoch);
                }
                bz.suspicion[p] = 0;
            }
        }

        // 4. Emergent readmission: an excluded node heard again within the
        //    last epoch (keepalives resume the moment it reboots) is
        //    staged back in — unless the per-column view still holds
        //    `thresh` or more suspect columns, in which case keepalives on
        //    the surviving columns must not resurrect an escalated node.
        //    Quarantined liars never come back: their carrier is healthy
        //    (keepalives arrive every epoch), so silence-based readmission
        //    would instantly resurrect them.
        for p in 0..n as u32 {
            let p = NodeId(p);
            let quarantined = &self.faults.report.byz_quarantined;
            if quarantined.iter().any(|r| r.node == p) {
                continue;
            }
            let still_escalated = self
                .detect
                .link_det
                .as_ref()
                .is_some_and(|ld| ld.suspected_count(p) >= thresh);
            if !still_escalated && self.detect.last_heard_any[p.0 as usize] + 1 >= epoch {
                stage_node_readmit(&mut self.sched, p, epoch);
            }
        }

        // 4b. Column readmission: an omitted column still carries the
        //    keepalive carrier on its dead slots, so the moment its
        //    receivers hear it again (grey window healed) it is staged
        //    back into the schedule.
        if let Some(ld) = &self.detect.link_det {
            for (p, c) in self.sched.omitted_columns() {
                if self.sched.pending_column(p, c) != Some(false)
                    && !self.faults.is_crashed(p)
                    && ld.last_heard(p, c.0 as usize) + 1 >= epoch
                {
                    self.sched.stage_readmit_column(p, c, epoch + 1);
                }
            }
        }

        // 5. Update epoch: the schedule applies the staged set, and the
        //    VLB picker follows the node transitions it reports — one set,
        //    one boundary, so dead slots and detours cannot disagree.
        let applied = self.sched.advance_to(epoch);
        for &(node, excluded) in &applied.nodes {
            if excluded {
                self.vlb.mark_failed(node);
                self.faults.report.exclusions += 1;
                // Granted cells queued for the now-dead-slot intermediate
                // would strand until grant expiry; pull them back to LOCAL
                // (front, order preserved) so they re-request live detours.
                for o in 0..n {
                    if o != node.0 as usize && !self.faults.is_crashed(NodeId(o as u32)) {
                        self.nodes[o].reclaim_voq(node);
                    }
                }
                if let Some(rec) = self
                    .faults
                    .report
                    .failures
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == node && r.excluded_at.is_none())
                {
                    rec.excluded_at = Some(epoch);
                }
            } else {
                self.vlb.mark_recovered(node);
                self.faults.report.readmissions += 1;
                if let Some(rec) = self
                    .faults
                    .report
                    .failures
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == node && r.readmitted_at.is_none())
                {
                    rec.readmitted_at = Some(epoch);
                }
            }
        }
        for &(node, uplink, omitted) in &applied.columns {
            if omitted {
                self.faults.report.column_omissions += 1;
                obs.note_column_omitted(node, uplink.0, true);
                if let Some(rec) = self
                    .faults
                    .report
                    .links
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == node && r.uplink == uplink.0)
                {
                    if rec.omitted_at.is_none() {
                        rec.omitted_at = Some(epoch);
                    }
                }
                // At uplink factor 1 each (src, dst) pair rides exactly
                // one column, so the dropped column fully severs `node`
                // from the destination group it alone served. Pull back
                // every cell already committed to a now-dead path so it
                // re-requests a live detour instead of stranding until
                // grant expiry.
                let stranded: Vec<bool> = (0..n as u32)
                    .map(|d| !self.sched.pair_usable(node, NodeId(d)))
                    .collect();
                let p = node.0 as usize;
                for o in 0..n {
                    // Cells at other sources granted through `node` whose
                    // second hop `node -> dst` died.
                    if o != p && !self.faults.is_crashed(NodeId(o as u32)) {
                        let pulled =
                            self.nodes[o].reclaim_voq_where(node, |d| stranded[d.0 as usize]);
                        self.faults.report.cells_rerouted += pulled as u64;
                    }
                }
                for (m, &dead) in stranded.iter().enumerate() {
                    // `node`'s own granted cells whose first hop
                    // `node -> intermediate` died.
                    if m != p && dead {
                        let pulled = self.nodes[p].reclaim_voq(NodeId(m as u32));
                        self.faults.report.cells_rerouted += pulled as u64;
                    }
                }
                for (d, &dead) in stranded.iter().enumerate() {
                    // Relay cells already queued at `node` whose second
                    // hop died: rejoin LOCAL for a fresh detour (in
                    // place — the cells never leave the node's arena).
                    if d != p && dead {
                        let moved = self.nodes[p].reroute_relay_to_local(NodeId(d as u32));
                        self.faults.report.cells_rerouted += moved as u64;
                    }
                }
            } else {
                self.faults.report.column_readmissions += 1;
                obs.note_column_omitted(node, uplink.0, false);
                if let Some(rec) = self
                    .faults
                    .report
                    .links
                    .iter_mut()
                    .rev()
                    .find(|r| r.node == node && r.uplink == uplink.0)
                {
                    if rec.readmitted_at.is_none() {
                        rec.readmitted_at = Some(epoch);
                    }
                }
            }
        }
    }
}
