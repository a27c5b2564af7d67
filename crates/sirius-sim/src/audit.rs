//! Run-time invariant auditing and run digests.
//!
//! The simulator is the evidence base for every figure the harness
//! reproduces, so it carries an optional audit layer that re-checks the
//! paper's structural invariants from first principles every epoch,
//! independently of the data structures that are supposed to enforce them:
//!
//! * **Cell conservation** — at every epoch boundary, every injected cell
//!   is exactly one of: resident in a node queue, in flight on the fiber,
//!   buffered out of order at a receiver, released in order, or blackholed
//!   at a failed node.
//! * **§4.3 queue bounds** — under the request/grant protocol (and the
//!   ideal back-pressure baseline) no relay queue ever holds more than `Q`
//!   cells for any destination.
//! * **In-order release** — the reorder buffer releases each flow's cells
//!   as a strictly contiguous prefix, verified against an independent
//!   shadow reassembly rather than the buffer's own bookkeeping.
//! * **Receive-port exclusivity** — no (node, uplink) receive port is
//!   driven by two senders in the same slot (the optical core has no
//!   buffers, §4.2 — two simultaneous senders would mean the cyclic
//!   schedule is not a permutation).
//!
//! The audit is **failure-aware**: the simulator declares every scripted
//! fault window up front ([`Audit::declare_window`]), and the checks then
//! hold *with attribution* instead of being waived — every blackholed or
//! link-lost cell must fall inside a declared window of the matching cause
//! (`note_blackholed`, `note_lost`), every detector
//! suspicion must be justified by a window on the suspected node
//! (`note_suspicion`; an unjustified one is a *false positive*
//! and a violation), and the RX-exclusivity check tolerates double-driven
//! ports only while a declared mistuning window taints them
//! (`note_rx_mistuned`). A fault-free run degenerates to the
//! strict checks.
//!
//! Violations are recorded, not panicked on, so failure-injection runs can
//! observe how invariants degrade; clean runs assert
//! [`AuditReport::is_clean`]. Auditing is controlled by
//! `SiriusSimConfig::audit` (on by default in debug builds, off in release
//! so the paper-scale sweeps keep their throughput).
//!
//! The module also provides [`RunDigest`], an order-sensitive FNV-1a hash
//! of the delivered-cell sequence folded with the final run summary. Two
//! runs with identical `(config, seed)` must produce bit-identical
//! digests; the workspace conformance suite asserts this for all three
//! congestion-control modes.

use crate::engine::SlotObserver;
use sirius_core::cell::{Cell, FlowId};
use sirius_core::node::SiriusNode;
use sirius_core::topology::NodeId;
use std::collections::{BTreeSet, HashMap};

/// Cap on verbatim violation messages kept in the report (the total count
/// keeps climbing past it, so `is_clean` stays exact).
pub const MAX_RECORDED_VIOLATIONS: usize = 32;

/// Why a cell left the fabric without being delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Arrived at a crashed node.
    Crash,
    /// Erased on a grey (BER-degraded) TX link.
    Grey,
    /// Sent by — or corrupted by a collision with — a mistuned laser.
    Mistune,
    /// Forged by a compromised data plane and dropped by the RX filter.
    /// Used for window declaration/attribution: forged cells were never
    /// injected, so they ride their own conservation ledger
    /// (`note_forged_tx` / `note_forged_dropped`)
    /// rather than `note_lost`.
    Byzantine,
}

/// A declared fault window `[from, until)` on `node`; losses and detector
/// suspicions are only legitimate inside a covering window.
#[derive(Debug, Clone, Copy)]
struct FaultWindow {
    cause: LossCause,
    node: NodeId,
    from: u64,
    until: u64,
}

/// Outcome of one audited run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Epoch boundaries at which the full invariant sweep ran.
    pub epochs_checked: u64,
    /// Cells injected into the fabric by source nodes.
    pub cells_injected: u64,
    /// Cells released in order to applications.
    pub cells_released: u64,
    /// Cells still buffered out of order when the run ended.
    pub cells_buffered: u64,
    /// Cells blackholed at failed nodes (0 without failure injection).
    pub cells_blackholed: u64,
    /// Cells erased or corrupted on the fiber by grey links / mistuned
    /// lasers (0 without failure injection).
    pub cells_lost_link: u64,
    /// Detector suspicions not justified by any declared fault window
    /// (false positives; each is also a violation).
    pub false_suspicions: u64,
    /// Cells the receiver saw twice (must stay 0: the core is lossless and
    /// never retransmits).
    pub duplicate_cells: u64,
    /// Counterfeit cells launched by declared-Byzantine nodes (tracked on
    /// their own ledger; they were never injected, so conservation
    /// subtracts the outstanding ones from the in-flight count).
    pub cells_forged: u64,
    /// Counterfeits the RX-side filter caught and dropped.
    pub cells_forged_dropped: u64,
    /// Total invariant violations observed.
    pub total_violations: u64,
    /// First [`MAX_RECORDED_VIOLATIONS`] violation messages, verbatim.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// True when the run upheld every audited invariant.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0 && self.duplicate_cells == 0
    }
}

/// Independent shadow reassembly state for one flow.
#[derive(Debug, Default)]
struct FlowShadow {
    /// Next in-order sequence number expected.
    next: u32,
    /// Out-of-order sequence numbers seen but not yet released.
    pending: BTreeSet<u32>,
}

/// The audit engine. The simulator feeds it injection, receive, and
/// delivery events plus a per-epoch state snapshot; it accumulates an
/// [`AuditReport`].
#[derive(Debug)]
pub struct Audit {
    n: usize,
    uplinks: usize,
    q: usize,
    /// Whether the mode claims the §4.3 relay bound (protocol and ideal
    /// modes do; the greedy ablation deliberately does not).
    check_queue_bound: bool,
    injected: u64,
    released: u64,
    buffered: u64,
    blackholed: u64,
    lost_link: u64,
    false_suspicions: u64,
    duplicates: u64,
    forged_tx: u64,
    forged_dropped: u64,
    epochs_checked: u64,
    total_violations: u64,
    violations: Vec<String>,
    /// Per-flow shadow reassembly; an entry lives exactly as long as the
    /// flow's id does (see `note_evicted`).
    shadow: HashMap<FlowId, FlowShadow>,
    /// Receive ports driven this slot, indexed `dst * uplinks + uplink`.
    rx_busy: Vec<bool>,
    rx_touched: Vec<u32>,
    /// Ports hit by a declared-mistuned signal this slot (double drives
    /// there are expected corruption, not schedule bugs).
    rx_mistuned: Vec<bool>,
    rx_mistuned_touched: Vec<u32>,
    /// Declared fault windows (attribution base for losses/suspicions).
    windows: Vec<FaultWindow>,
    /// Detector silence threshold (suspicion-justification slack).
    silence_threshold: u64,
    /// TX columns the repair layer has dropped from the schedule, indexed
    /// `node * uplinks + uplink`. Kept as an independent shadow of
    /// `AdjustedSchedule` so data sends onto an omitted column are caught
    /// even if the scheduler's own dead-slot check regresses.
    tx_omitted: Vec<bool>,
}

impl Audit {
    /// `check_queue_bound` should be true for modes that promise the §4.3
    /// relay bound. A run without the audit holds no `Audit` at all (the
    /// engine then runs the null observer).
    pub fn new(n: usize, uplinks: usize, q: usize, check_queue_bound: bool) -> Audit {
        Audit {
            n,
            uplinks,
            q,
            check_queue_bound,
            injected: 0,
            released: 0,
            buffered: 0,
            blackholed: 0,
            lost_link: 0,
            false_suspicions: 0,
            duplicates: 0,
            forged_tx: 0,
            forged_dropped: 0,
            epochs_checked: 0,
            total_violations: 0,
            violations: Vec::new(),
            shadow: HashMap::new(),
            rx_busy: vec![false; n * uplinks],
            rx_touched: Vec::new(),
            rx_mistuned: vec![false; n * uplinks],
            rx_mistuned_touched: Vec::new(),
            windows: Vec::new(),
            silence_threshold: sirius_core::fault::FaultConfig::default().silence_threshold,
            tx_omitted: vec![false; n * uplinks],
        }
    }

    /// Declare a fault window `[from, until)` on `node` (use `u64::MAX`
    /// for an open-ended crash). Losses and suspicions are checked for
    /// coverage against the declared set.
    pub fn declare_window(&mut self, cause: LossCause, node: NodeId, from: u64, until: u64) {
        self.windows.push(FaultWindow {
            cause,
            node,
            from,
            until,
        });
    }

    /// Set the detector's silence threshold, used as justification slack
    /// when checking suspicions against windows.
    pub fn set_silence_threshold(&mut self, threshold: u64) {
        self.silence_threshold = threshold;
    }

    fn covered(&self, cause: LossCause, node: NodeId, epoch: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.cause == cause && w.node == node && w.from <= epoch && epoch < w.until)
    }

    fn violation(&mut self, msg: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    /// Consume the audit into its report.
    pub fn finish(self) -> AuditReport {
        AuditReport {
            epochs_checked: self.epochs_checked,
            cells_injected: self.injected,
            cells_released: self.released,
            cells_buffered: self.buffered,
            cells_blackholed: self.blackholed,
            cells_lost_link: self.lost_link,
            false_suspicions: self.false_suspicions,
            duplicate_cells: self.duplicates,
            cells_forged: self.forged_tx,
            cells_forged_dropped: self.forged_dropped,
            total_violations: self.total_violations,
            violations: self.violations,
        }
    }
}

/// The audit is the engine's enabled observer: the slot loop is
/// monomorphized over it directly (see [`crate::engine::observer`]).
impl SlotObserver for Audit {
    const ENABLED: bool = true;

    /// A source node injected a cell into the fabric.
    #[inline]
    fn note_injected(&mut self) {
        self.injected += 1;
    }

    /// A cell was dropped at crashed `node` during `epoch`. Must fall
    /// inside a declared crash window — an unattributed blackhole is a
    /// violation (cells vanishing without a scripted cause).
    fn note_blackholed(&mut self, node: NodeId, epoch: u64) {
        self.blackholed += 1;
        if !self.covered(LossCause::Crash, node, epoch) {
            let id = node.0;
            self.violation(format!(
                "epoch {epoch}: unattributed blackhole at node {id} (no declared crash window)"
            ));
        }
    }

    /// A cell was lost on the fiber during `epoch` — `cause` says how,
    /// `node` is the faulty party (the grey sender, or the mistuned node
    /// whose signal corrupted the port). Must fall inside a declared
    /// window of the same cause.
    fn note_lost(&mut self, cause: LossCause, node: NodeId, epoch: u64) {
        debug_assert_ne!(cause, LossCause::Crash, "crash losses use note_blackholed");
        self.lost_link += 1;
        if !self.covered(cause, node, epoch) {
            let id = node.0;
            self.violation(format!(
                "epoch {epoch}: unattributed {cause:?} loss at node {id} (no declared window)"
            ));
        }
    }

    /// `node` launched a counterfeit cell during `epoch`. Legitimate only
    /// inside a declared Byzantine window — a forged cell outside one
    /// means the data plane fabricated traffic without a scripted cause.
    /// Forged cells were never injected, so they go on their own ledger:
    /// conservation subtracts the outstanding (launched, not yet dropped)
    /// count from the in-flight total.
    fn note_forged_tx(&mut self, node: NodeId, epoch: u64) {
        self.forged_tx += 1;
        if !self.covered(LossCause::Byzantine, node, epoch) {
            let id = node.0;
            self.violation(format!(
                "epoch {epoch}: unattributed forged cell from node {id} (no declared \
                 Byzantine window)"
            ));
        }
    }

    /// The RX-side Byzantine filter caught and dropped a counterfeit.
    #[inline]
    fn note_forged_dropped(&mut self) {
        self.forged_dropped += 1;
    }

    /// The silence detector suspected `node` at `epoch`. Justified only if
    /// some declared window on that node was active within the detector's
    /// lookback (`silence_threshold + 1` epochs past the window's end);
    /// otherwise it is a false positive — a healthy node starved of
    /// keepalives, which §4.5's always-on slots make structurally
    /// impossible.
    ///
    /// Exception: while a *mistune* window is active anywhere, suspicions
    /// of other nodes are also justified. A laser stuck `k` ports off its
    /// tuning target jams the RX port scheduled `k` slots later — under
    /// the cyclic schedule that is the same collateral sender on every
    /// slot, so an innocent node genuinely goes silent on the fabric. The
    /// victim is schedule-dependent, so the window cannot name it.
    fn note_suspicion(&mut self, epoch: u64, node: NodeId) {
        let slack = self.silence_threshold + 1;
        let justified = self.windows.iter().any(|w| {
            (w.node == node || w.cause == LossCause::Mistune)
                && w.from <= epoch
                && epoch < w.until.saturating_add(slack)
        });
        if !justified {
            self.false_suspicions += 1;
            let id = node.0;
            self.violation(format!(
                "epoch {epoch}: false suspicion of healthy node {id} (no declared fault window)"
            ));
        }
    }

    /// The repair layer applied a column transition: TX column
    /// (`node`, `uplink`) is now omitted from (`omitted = true`) or
    /// readmitted to (`omitted = false`) the schedule. Updates the
    /// audit's shadow view used by `note_data_tx`.
    fn note_column_omitted(&mut self, node: NodeId, uplink: u16, omitted: bool) {
        self.tx_omitted[node.0 as usize * self.uplinks + uplink as usize] = omitted;
    }

    /// A *data* cell (not the always-on keepalive carrier) left on TX
    /// column (`node`, `uplink`) this slot. Scheduling payload onto an
    /// omitted column is a violation: the repair contract says omitted
    /// columns carry carrier only, and the receiver's silence bookkeeping
    /// would otherwise resurrect a link the detector already condemned.
    #[inline]
    fn note_data_tx(&mut self, slot: u64, node: NodeId, uplink: u16) {
        if self.tx_omitted[node.0 as usize * self.uplinks + uplink as usize] {
            self.violation(format!(
                "slot {slot}: data cell sent on omitted TX column (node {}, uplink {uplink})",
                node.0
            ));
        }
    }

    /// A sender is driving receive port (`dst`, `uplink`) this slot.
    /// Flags a violation if the port is already driven — the schedule's
    /// per-slot permutation property is broken.
    #[inline]
    fn note_rx(&mut self, slot: u64, dst: NodeId, uplink: u16) {
        let idx = dst.0 as usize * self.uplinks + uplink as usize;
        if self.rx_busy[idx] {
            // A port tainted by a declared-mistuned signal is *expected*
            // to be double-driven (the mistuned laser collides with the
            // scheduled sender); only untainted double drives are
            // schedule bugs.
            if !self.rx_mistuned[idx] {
                self.violation(format!(
                    "slot {slot}: rx exclusivity: two senders drive node {} uplink {uplink}",
                    dst.0
                ));
            }
        } else {
            self.rx_busy[idx] = true;
            self.rx_touched.push(idx as u32);
        }
    }

    /// A declared-mistuned laser's signal lands on receive port
    /// (`dst`, `uplink`) this slot: taint the port so the exclusivity
    /// check accounts for the collision, and treat the stray signal as a
    /// drive of its own (two mistuned strays on one port are still only
    /// garbage, not a schedule bug).
    #[inline]
    fn note_rx_mistuned(&mut self, _slot: u64, dst: NodeId, uplink: u16) {
        let idx = dst.0 as usize * self.uplinks + uplink as usize;
        if !self.rx_mistuned[idx] {
            self.rx_mistuned[idx] = true;
            self.rx_mistuned_touched.push(idx as u32);
        }
        if !self.rx_busy[idx] {
            self.rx_busy[idx] = true;
            self.rx_touched.push(idx as u32);
        }
    }

    /// Reset per-slot receive-port state (call once per slot).
    #[inline]
    fn end_slot(&mut self) {
        for &idx in &self.rx_touched {
            self.rx_busy[idx as usize] = false;
        }
        self.rx_touched.clear();
        for &idx in &self.rx_mistuned_touched {
            self.rx_mistuned[idx as usize] = false;
        }
        self.rx_mistuned_touched.clear();
    }

    /// The reorder buffer accepted cell `seq` of `cell.flow` and reported
    /// releasing `released_cells` cells in order. Replays the acceptance
    /// against the shadow reassembly and checks the two agree.
    fn note_delivery(&mut self, cell: &Cell, released_cells: u32) {
        let st = self.shadow.entry(cell.flow).or_default();
        if cell.seq < st.next || st.pending.contains(&cell.seq) {
            self.duplicates += 1;
            let flow = cell.flow.0;
            let seq = cell.seq;
            self.violation(format!("flow {flow}: cell seq {seq} delivered twice"));
            return;
        }
        if cell.seq == st.next {
            st.next += 1;
            let mut delta: u32 = 1;
            while st.pending.remove(&st.next) {
                st.next += 1;
                delta += 1;
            }
            self.buffered -= (delta - 1) as u64;
            self.released += delta as u64;
            if released_cells != delta {
                let flow = cell.flow.0;
                self.violation(format!(
                    "flow {flow}: in-order release mismatch: buffer reported {released_cells} \
                     cells, shadow reassembly expected {delta}"
                ));
            }
        } else {
            st.pending.insert(cell.seq);
            self.buffered += 1;
            if released_cells != 0 {
                let flow = cell.flow.0;
                let seq = cell.seq;
                self.violation(format!(
                    "flow {flow}: out-of-order cell seq {seq} released {released_cells} cells"
                ));
            }
        }
    }

    /// A streaming run freed `flow`'s slab slot — every cell delivered,
    /// reorder state with it — so the id is reusable from here on: drop
    /// its shadow with it. A slice run never evicts, so there the shadow
    /// keeps flagging duplicates of a completed flow to the end of the
    /// run.
    fn note_evicted(&mut self, flow: FlowId) {
        self.shadow.remove(&flow);
    }

    /// Full invariant sweep at an epoch boundary. `in_flight` is the
    /// number of cells currently on the fiber (in the propagation ring).
    fn epoch_check(&mut self, epoch: u64, nodes: &[SiriusNode], in_flight: u64) {
        self.epochs_checked += 1;

        // Cell conservation: every injected cell is in exactly one place.
        // Counterfeits from a Byzantine data plane ride the propagation
        // ring too but were never injected; their outstanding count
        // (launched minus RX-dropped) is subtracted from the in-flight
        // total so the liar cannot mask a genuinely vanished cell.
        let forged_outstanding = self.forged_tx - self.forged_dropped;
        let resident: u64 = nodes.iter().map(|n| n.resident_cells()).sum();
        let accounted = resident
            + (in_flight - forged_outstanding)
            + self.buffered
            + self.released
            + self.blackholed
            + self.lost_link
            + self.duplicates;
        if accounted != self.injected {
            let injected = self.injected;
            let (buffered, released) = (self.buffered, self.released);
            let (blackholed, duplicates) = (self.blackholed, self.duplicates);
            let lost_link = self.lost_link;
            self.violation(format!(
                "epoch {epoch}: cell conservation broken: injected {injected} != \
                 resident {resident} + in-flight {in_flight} + buffered {buffered} + \
                 released {released} + blackholed {blackholed} + link-lost {lost_link} + \
                 duplicates {duplicates}"
            ));
        }

        // §4.3 bound: relay occupancy per destination never exceeds Q.
        if self.check_queue_bound {
            for node in nodes {
                for d in 0..self.n as u32 {
                    let len = node.relay_len(NodeId(d));
                    if len > self.q {
                        let id = node.id().0;
                        let q = self.q;
                        self.violation(format!(
                            "epoch {epoch}: queue bound broken: node {id} relays {len} \
                             cells for destination {d} (Q = {q})"
                        ));
                    }
                }
            }
        }
    }
}

/// Order-sensitive 64-bit FNV-1a digest of a run: the delivered-cell
/// sequence folded with the final summary metrics. Identical
/// `(config, seed)` runs must produce identical digests — this is the
/// determinism guarantee the conformance suite enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest(u64);

impl Default for RunDigest {
    fn default() -> RunDigest {
        RunDigest::new()
    }
}

impl RunDigest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> RunDigest {
        RunDigest(Self::OFFSET)
    }

    /// Fold one 64-bit word, byte by byte (FNV-1a).
    #[inline]
    pub fn update(&mut self, word: u64) {
        let mut h = self.0;
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Fold a delivered cell (identity + payload) at delivery time `ps`.
    #[inline]
    pub fn update_cell(&mut self, cell: &Cell, ps: u64) {
        self.update(cell.flow.0);
        self.update(((cell.seq as u64) << 32) | cell.payload as u64);
        self.update(ps);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirius_core::topology::ServerId;

    fn cell(flow: u64, seq: u32) -> Cell {
        Cell {
            flow: FlowId(flow),
            seq,
            payload: 540,
            src: NodeId(0),
            dst: NodeId(1),
            dst_server: ServerId(2),
            last: false,
        }
    }

    #[test]
    fn broken_schedule_trips_rx_exclusivity() {
        // A deliberately broken schedule: two senders drive node 3's
        // uplink 1 in the same slot. The permutation property (§4.2) is
        // what normally prevents this; the audit must catch its absence.
        let mut a = Audit::new(8, 4, 4, true);
        a.note_rx(7, NodeId(3), 1);
        a.note_rx(7, NodeId(3), 1);
        // Distinct ports in the same slot are fine.
        a.note_rx(7, NodeId(3), 2);
        a.note_rx(7, NodeId(4), 1);
        a.end_slot();
        // Same port next slot is fine again.
        a.note_rx(8, NodeId(3), 1);
        a.end_slot();
        let r = a.finish();
        assert_eq!(r.total_violations, 1);
        assert!(
            r.violations[0].contains("rx exclusivity"),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn conservation_flags_a_vanished_cell() {
        let mut a = Audit::new(4, 2, 4, false);
        a.note_injected();
        a.note_injected();
        // One cell in flight, the other unaccounted for anywhere.
        a.epoch_check(0, &[], 1);
        let r = a.finish();
        assert_eq!(r.total_violations, 1);
        assert!(
            r.violations[0].contains("conservation"),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn conservation_accepts_attributed_blackholed_cells() {
        let mut a = Audit::new(4, 2, 4, false);
        a.declare_window(LossCause::Crash, NodeId(2), 5, u64::MAX);
        a.note_injected();
        a.note_blackholed(NodeId(2), 7);
        a.epoch_check(7, &[], 0);
        let r = a.finish();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.cells_blackholed, 1);
    }

    #[test]
    fn unattributed_blackhole_is_a_violation() {
        let mut a = Audit::new(4, 2, 4, false);
        a.declare_window(LossCause::Crash, NodeId(2), 5, 10);
        a.note_injected();
        a.note_injected();
        a.note_blackholed(NodeId(3), 7); // wrong node
        a.note_blackholed(NodeId(2), 12); // after the window closed
        let r = a.finish();
        assert_eq!(r.total_violations, 2);
        assert!(r.violations[0].contains("unattributed blackhole"));
    }

    #[test]
    fn link_losses_require_a_matching_window() {
        let mut a = Audit::new(4, 2, 4, false);
        a.declare_window(LossCause::Grey, NodeId(1), 0, 100);
        a.note_injected();
        a.note_injected();
        a.note_lost(LossCause::Grey, NodeId(1), 50);
        // Conservation counts the attributed loss.
        a.epoch_check(50, &[], 1);
        // A mistune loss is not covered by a grey window.
        a.note_lost(LossCause::Mistune, NodeId(1), 50);
        let r = a.finish();
        assert_eq!(r.cells_lost_link, 2);
        assert_eq!(r.total_violations, 1);
        assert!(r.violations[0].contains("Mistune"));
    }

    #[test]
    fn suspicion_justification_and_false_positives() {
        let mut a = Audit::new(4, 2, 4, false);
        a.set_silence_threshold(3);
        a.declare_window(LossCause::Crash, NodeId(1), 10, u64::MAX);
        a.declare_window(LossCause::Grey, NodeId(2), 10, 20);
        a.declare_window(LossCause::Mistune, NodeId(0), 40, 50);
        a.note_suspicion(13, NodeId(1)); // crash, justified
        a.note_suspicion(22, NodeId(2)); // grey ended at 20, within slack
        a.note_suspicion(13, NodeId(3)); // healthy node: false positive
        a.note_suspicion(30, NodeId(2)); // way past the grey window
        a.note_suspicion(45, NodeId(3)); // mistune collateral: justified
        let r = a.finish();
        assert_eq!(r.false_suspicions, 2);
        assert_eq!(r.total_violations, 2);
        assert!(r.violations[0].contains("false suspicion"));
        assert!(!r.is_clean());
    }

    #[test]
    fn mistune_taint_suppresses_expected_double_drives_only() {
        let mut a = Audit::new(8, 4, 4, true);
        // Slot 7: a declared-mistuned stray lands on (3, 1); the scheduled
        // sender drives the same port. Expected collision, no violation.
        a.note_rx_mistuned(7, NodeId(3), 1);
        a.note_rx(7, NodeId(3), 1);
        // An untainted port double-driven in the same slot still trips.
        a.note_rx(7, NodeId(4), 2);
        a.note_rx(7, NodeId(4), 2);
        a.end_slot();
        // Taint does not leak into the next slot.
        a.note_rx(8, NodeId(3), 1);
        a.note_rx(8, NodeId(3), 1);
        a.end_slot();
        let r = a.finish();
        assert_eq!(r.total_violations, 2, "{:?}", r.violations);
    }

    #[test]
    fn forged_cells_ride_their_own_ledger() {
        let mut a = Audit::new(4, 2, 4, false);
        a.declare_window(LossCause::Byzantine, NodeId(3), 5, 50);
        a.note_injected();
        // A declared liar launches two counterfeits; one legitimate cell
        // and both forgeries are on the fiber. Conservation must hold by
        // subtracting the outstanding forged count from in-flight.
        a.note_forged_tx(NodeId(3), 10);
        a.note_forged_tx(NodeId(3), 10);
        a.epoch_check(10, &[], 3);
        // The filter catches one; the other is still in flight.
        a.note_forged_dropped();
        a.epoch_check(11, &[], 2);
        let r = a.finish();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.cells_forged, 2);
        assert_eq!(r.cells_forged_dropped, 1);
    }

    #[test]
    fn unattributed_forgery_is_a_violation() {
        let mut a = Audit::new(4, 2, 4, false);
        a.declare_window(LossCause::Byzantine, NodeId(3), 5, 50);
        a.note_forged_tx(NodeId(2), 10); // wrong node
        a.note_forged_tx(NodeId(3), 60); // after the window closed
        let r = a.finish();
        assert_eq!(r.total_violations, 2);
        assert!(
            r.violations[0].contains("unattributed forged cell"),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn shadow_reassembly_tracks_out_of_order_release() {
        let mut a = Audit::new(4, 2, 4, false);
        for _ in 0..3 {
            a.note_injected();
        }
        // Arrival order 1, 2, 0: the first two buffer, the third releases
        // all three (what a correct FlowReorder reports).
        a.note_delivery(&cell(9, 1), 0);
        a.note_delivery(&cell(9, 2), 0);
        a.epoch_check(0, &[], 1); // two buffered + one still in flight
        a.note_delivery(&cell(9, 0), 3);
        a.epoch_check(1, &[], 0);
        let r = a.finish();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.cells_released, 3);
        assert_eq!(r.cells_buffered, 0);
    }

    #[test]
    fn shadow_reassembly_flags_wrong_release_count() {
        let mut a = Audit::new(4, 2, 4, false);
        a.note_injected();
        // A buggy buffer claims the in-order head released two cells.
        a.note_delivery(&cell(9, 0), 2);
        let r = a.finish();
        assert_eq!(r.total_violations, 1);
        assert!(
            r.violations[0].contains("release mismatch"),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn duplicate_delivery_is_flagged() {
        let mut a = Audit::new(4, 2, 4, false);
        a.note_injected();
        a.note_delivery(&cell(9, 0), 1);
        a.note_delivery(&cell(9, 0), 0);
        let r = a.finish();
        assert_eq!(r.duplicate_cells, 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn a_recycled_flow_id_is_a_new_flow_only_after_its_eviction() {
        // Streaming: the slab frees id 9 after its last cell, then hands
        // it to a new flow whose seq 0 must be accepted.
        let mut a = Audit::new(4, 2, 4, false);
        a.note_injected();
        a.note_injected();
        a.note_delivery(&cell(9, 0), 1);
        a.note_evicted(FlowId(9));
        a.note_delivery(&cell(9, 0), 1);
        a.epoch_check(0, &[], 0);
        let r = a.finish();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.cells_released, 2);
        // The slice path never evicts: the same sequence without the
        // probe is still a duplicate.
        let mut a = Audit::new(4, 2, 4, false);
        a.note_delivery(&cell(9, 0), 1);
        a.note_delivery(&cell(9, 0), 1);
        let r = a.finish();
        assert_eq!(r.duplicate_cells, 1);
        assert!(r.violations[0].contains("delivered twice"));
    }

    #[test]
    fn data_tx_on_omitted_column_is_a_violation() {
        let mut a = Audit::new(8, 4, 4, true);
        // Healthy column: data sends are fine.
        a.note_data_tx(3, NodeId(2), 1);
        // Omit (2, 1): a data send there is now a repair-contract breach,
        // but the node's other columns stay usable.
        a.note_column_omitted(NodeId(2), 1, true);
        a.note_data_tx(4, NodeId(2), 1);
        a.note_data_tx(4, NodeId(2), 0);
        // Readmission clears the shadow state.
        a.note_column_omitted(NodeId(2), 1, false);
        a.note_data_tx(5, NodeId(2), 1);
        let r = a.finish();
        assert_eq!(r.total_violations, 1);
        assert!(
            r.violations[0].contains("omitted TX column"),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn violation_messages_are_capped_but_counted() {
        let mut a = Audit::new(4, 2, 4, false);
        for slot in 0..(MAX_RECORDED_VIOLATIONS as u64 + 10) {
            a.note_rx(slot, NodeId(0), 0);
            a.note_rx(slot, NodeId(0), 0);
            a.end_slot();
        }
        let r = a.finish();
        assert_eq!(r.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(r.total_violations, MAX_RECORDED_VIOLATIONS as u64 + 10);
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = RunDigest::new();
        let mut b = RunDigest::new();
        a.update_cell(&cell(1, 0), 100);
        a.update_cell(&cell(1, 1), 200);
        b.update_cell(&cell(1, 0), 100);
        b.update_cell(&cell(1, 1), 200);
        assert_eq!(a.value(), b.value());
        // Swapped delivery order must change the digest.
        let mut c = RunDigest::new();
        c.update_cell(&cell(1, 1), 200);
        c.update_cell(&cell(1, 0), 100);
        assert_ne!(a.value(), c.value());
    }
}
