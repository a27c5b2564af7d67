//! Failure detection and handling (§4.5 "Fault tolerance").
//!
//! The passive core cannot fail in interesting ways (no moving parts, no
//! power), but nodes and transceivers can, and Valiant load balancing means
//! a failed node blackholes a slice of *everyone's* traffic until detected.
//! Sirius turns the cyclic schedule into a cheap failure detector: every
//! node hears from every other node once per epoch (a few microseconds), so
//! silence on the scheduled slot is evidence of failure, including for grey
//! failures that only show up on specific paths.
//!
//! This module implements that detector: per-peer "last heard" epochs and
//! a configurable silence threshold. What routing does about a suspicion
//! — the staged omission every node applies at the same epoch — lives in
//! [`crate::repair`]; which nodes are actually down is the simulator's
//! scripted ground truth, which routing never reads.

use crate::topology::NodeId;

/// Configuration of the failure detector.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Consecutive silent epochs on a scheduled slot before a peer is
    /// declared failed. The schedule guarantees one opportunity per epoch,
    /// so this directly bounds detection latency in epochs.
    pub silence_threshold: u64,
    /// Fraction of a node's TX columns that must be simultaneously
    /// suspected before link-granular repair escalates to whole-node
    /// exclusion (the §4.5 rule). `0.0` disables column repair entirely —
    /// any suspected column evicts the node, reproducing the paper's
    /// node-granular behavior for comparison.
    pub column_escalation_fraction: f64,
    /// Number of *distinct nodes* that must be simultaneously suspect on
    /// the same uplink column before the diagnosis flips from independent
    /// transceiver failures to a correlated shared-component fault (a dead
    /// laser-bank chip or AWGR grating band): the repair then stays
    /// column-granular fleet-wide instead of escalating node by node.
    pub correlation_threshold: usize,
    /// Per-epoch forged-cell suspicion count at which a node's data plane
    /// is declared Byzantine and the node is quarantined (whole-node
    /// exclusion). Mirrors the §4.4 slew clamp: damage per epoch is
    /// bounded by the threshold, then the liar is evicted.
    pub byz_quarantine_threshold: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        // 3 epochs ~ 5 us at paper scale: "interconnection of rack-pairs
        // every few microseconds allows for low overhead yet fast failure
        // detection" (§4.5).
        //
        // Escalation at half the columns: below that, each bad column is
        // omitted individually at 1/(N·U) capacity cost; at or above it,
        // the transceiver bank is likely sick as a whole and §4.5
        // whole-node exclusion applies.
        // Correlation at 3 nodes: two independent transceivers sharing a
        // column is plausible bad luck; three is a shared component.
        //
        // Byzantine quarantine at 6 forged cells per epoch: low enough
        // that a liar steals at most a handful of slots per epoch, high
        // enough that a single corrupted header never evicts a node.
        FaultConfig {
            silence_threshold: 3,
            column_escalation_fraction: 0.5,
            correlation_threshold: 3,
            byz_quarantine_threshold: 6,
        }
    }
}

impl FaultConfig {
    /// Number of simultaneously suspected TX columns at which link repair
    /// escalates to whole-node exclusion. Never below 1: a fraction of
    /// `0.0` means the very first suspected column escalates (the paper's
    /// node-granular rule).
    pub fn escalation_threshold(&self, uplinks: usize) -> usize {
        ((self.column_escalation_fraction * uplinks as f64).ceil() as usize).max(1)
    }
}

/// Per-node failure detector driven by scheduled-slot receptions.
#[derive(Debug)]
pub struct FailureDetector {
    cfg: FaultConfig,
    /// Last epoch we heard anything (data or idle keepalive) from each peer.
    last_heard: Vec<u64>,
    /// Peers currently suspected failed.
    suspected: Vec<bool>,
}

impl FailureDetector {
    pub fn new(n: usize, cfg: FaultConfig) -> FailureDetector {
        FailureDetector {
            cfg,
            last_heard: vec![0; n],
            suspected: vec![false; n],
        }
    }

    /// Record a reception (any slot content, including idle) from `peer`.
    pub fn heard_from(&mut self, peer: NodeId, epoch: u64) {
        self.last_heard[peer.0 as usize] = epoch;
        self.suspected[peer.0 as usize] = false;
    }

    /// Advance to `epoch`; returns peers newly suspected this epoch.
    pub fn tick(&mut self, epoch: u64) -> Vec<NodeId> {
        let mut newly = Vec::new();
        for (i, &lh) in self.last_heard.iter().enumerate() {
            if !self.suspected[i] && epoch.saturating_sub(lh) >= self.cfg.silence_threshold {
                self.suspected[i] = true;
                newly.push(NodeId(i as u32));
            }
        }
        newly
    }

    /// Forget all history as of `epoch` (a rebooted node must not suspect
    /// the whole world just because its counters predate the outage).
    pub fn reset(&mut self, epoch: u64) {
        self.last_heard.fill(epoch);
        self.suspected.fill(false);
    }

    pub fn is_suspected(&self, peer: NodeId) -> bool {
        self.suspected[peer.0 as usize]
    }

    pub fn last_heard(&self, peer: NodeId) -> u64 {
        self.last_heard[peer.0 as usize]
    }

    pub fn suspected_count(&self) -> usize {
        self.suspected.iter().filter(|&&s| s).count()
    }
}

/// Per-link (grey) failure detection: a transceiver that fails on one
/// uplink column only drops the cells of that column while the node stays
/// otherwise healthy — "grey failures that are sporadic or do not present
/// themselves till a link is actually used" (§4.5). The cyclic schedule
/// turns every (peer, column) pair into its own heartbeat: silence on one
/// column while others stay live isolates the bad transceiver.
#[derive(Debug)]
pub struct LinkDetector {
    cfg: FaultConfig,
    uplinks: usize,
    /// last_heard[peer * uplinks + column].
    last_heard: Vec<u64>,
    suspected: Vec<bool>,
}

impl LinkDetector {
    pub fn new(n: usize, uplinks: usize, cfg: FaultConfig) -> LinkDetector {
        LinkDetector {
            cfg,
            uplinks,
            last_heard: vec![0; n * uplinks],
            suspected: vec![false; n * uplinks],
        }
    }

    fn idx(&self, peer: NodeId, column: usize) -> usize {
        peer.0 as usize * self.uplinks + column
    }

    /// Record a reception from `peer` on RX `column`.
    pub fn heard_from(&mut self, peer: NodeId, column: usize, epoch: u64) {
        let i = self.idx(peer, column);
        self.last_heard[i] = epoch;
        self.suspected[i] = false;
    }

    /// Advance to `epoch`; returns newly suspected `(peer, column)` links.
    pub fn tick(&mut self, epoch: u64) -> Vec<(NodeId, usize)> {
        let mut newly = Vec::new();
        for peer in 0..self.last_heard.len() / self.uplinks {
            for col in 0..self.uplinks {
                let i = peer * self.uplinks + col;
                if !self.suspected[i]
                    && epoch.saturating_sub(self.last_heard[i]) >= self.cfg.silence_threshold
                {
                    self.suspected[i] = true;
                    newly.push((NodeId(peer as u32), col));
                }
            }
        }
        newly
    }

    pub fn is_suspected(&self, peer: NodeId, column: usize) -> bool {
        self.suspected[self.idx(peer, column)]
    }

    /// Last epoch anything was heard from `peer` on `column`.
    pub fn last_heard(&self, peer: NodeId, column: usize) -> u64 {
        self.last_heard[self.idx(peer, column)]
    }

    /// How many of `peer`'s TX columns are currently suspected — the
    /// quantity compared against
    /// [`FaultConfig::escalation_threshold`] to decide link-granular
    /// repair vs whole-node exclusion.
    pub fn suspected_count(&self, peer: NodeId) -> usize {
        let base = peer.0 as usize * self.uplinks;
        self.suspected[base..base + self.uplinks]
            .iter()
            .filter(|&&b| b)
            .count()
    }

    /// How many distinct peers are currently suspect on uplink `column` —
    /// the cross-node correlation signal: independent transceiver
    /// failures scatter across columns, while a shared laser-bank chip or
    /// AWGR grating band silences the *same* column on many nodes at
    /// once. Compared against [`FaultConfig::correlation_threshold`] at
    /// the fault boundary (O(N), boundary-only).
    pub fn column_suspected_nodes(&self, column: usize) -> usize {
        debug_assert!(column < self.uplinks);
        self.suspected[column..]
            .iter()
            .step_by(self.uplinks)
            .filter(|&&b| b)
            .count()
    }

    /// A peer is *grey*-failed if some, but not all, of its links are
    /// suspected — alive enough to answer on other columns, dead on these.
    pub fn is_grey(&self, peer: NodeId) -> bool {
        let base = peer.0 as usize * self.uplinks;
        let bad = self.suspected[base..base + self.uplinks]
            .iter()
            .filter(|&&b| b)
            .count();
        bad > 0 && bad < self.uplinks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_fires_after_threshold() {
        let mut fd = FailureDetector::new(
            4,
            FaultConfig {
                silence_threshold: 3,
                ..FaultConfig::default()
            },
        );
        for e in 0..3 {
            for p in 0..4 {
                fd.heard_from(NodeId(p), e);
            }
            assert!(fd.tick(e).is_empty());
        }
        // Node 2 goes silent after epoch 2.
        for e in 3..5 {
            for p in [0u32, 1, 3] {
                fd.heard_from(NodeId(p), e);
            }
            assert!(fd.tick(e).is_empty(), "too early at epoch {e}");
        }
        fd.heard_from(NodeId(0), 5);
        fd.heard_from(NodeId(1), 5);
        fd.heard_from(NodeId(3), 5);
        let newly = fd.tick(5);
        assert_eq!(newly, vec![NodeId(2)]);
        assert!(fd.is_suspected(NodeId(2)));
        assert_eq!(fd.suspected_count(), 1);
    }

    #[test]
    fn detector_clears_on_recovery() {
        let mut fd = FailureDetector::new(
            2,
            FaultConfig {
                silence_threshold: 2,
                ..FaultConfig::default()
            },
        );
        fd.tick(5);
        assert!(fd.is_suspected(NodeId(1)));
        fd.heard_from(NodeId(1), 6);
        assert!(!fd.is_suspected(NodeId(1)));
    }

    #[test]
    fn detector_reset_grants_a_grace_period() {
        let mut fd = FailureDetector::new(
            3,
            FaultConfig {
                silence_threshold: 2,
                ..FaultConfig::default()
            },
        );
        // A rebooted node's counters all predate the outage...
        assert_eq!(fd.tick(10).len(), 3);
        // ...so it resets to the reboot epoch and re-earns suspicions.
        fd.reset(20);
        assert!(fd.tick(21).is_empty());
        assert_eq!(fd.last_heard(NodeId(0)), 20);
        assert_eq!(fd.tick(22).len(), 3);
    }

    #[test]
    fn grey_failure_isolates_the_bad_transceiver() {
        // Peer 2's column 1 transceiver dies; its other columns keep
        // talking. The link detector pins the failure to (2, 1) and
        // classifies peer 2 as grey, not dead.
        let mut ld = LinkDetector::new(
            4,
            3,
            FaultConfig {
                silence_threshold: 3,
                ..FaultConfig::default()
            },
        );
        for e in 0..10u64 {
            for p in 0..4u32 {
                for c in 0..3usize {
                    if !(p == 2 && c == 1 && e >= 4) {
                        ld.heard_from(NodeId(p), c, e);
                    }
                }
            }
            let newly = ld.tick(e);
            // Last heard at epoch 3; threshold 3 -> suspected at epoch 6.
            if e < 6 {
                assert!(newly.is_empty(), "too early at epoch {e}: {newly:?}");
            } else if e == 6 {
                assert_eq!(newly, vec![(NodeId(2), 1)]);
            }
        }
        assert!(ld.is_suspected(NodeId(2), 1));
        assert!(!ld.is_suspected(NodeId(2), 0));
        assert!(ld.is_grey(NodeId(2)));
        assert!(!ld.is_grey(NodeId(0)));
    }

    #[test]
    fn total_silence_is_not_grey() {
        let mut ld = LinkDetector::new(
            2,
            2,
            FaultConfig {
                silence_threshold: 1,
                ..FaultConfig::default()
            },
        );
        ld.tick(5); // peer 1 never heard at all
        assert!(ld.is_suspected(NodeId(1), 0) && ld.is_suspected(NodeId(1), 1));
        assert!(!ld.is_grey(NodeId(1)), "fully dead, not grey");
    }

    #[test]
    fn grey_link_recovers() {
        let mut ld = LinkDetector::new(
            2,
            2,
            FaultConfig {
                silence_threshold: 2,
                ..FaultConfig::default()
            },
        );
        ld.tick(4);
        assert!(ld.is_suspected(NodeId(0), 0));
        ld.heard_from(NodeId(0), 0, 5);
        assert!(!ld.is_suspected(NodeId(0), 0));
    }

    #[test]
    fn column_correlation_counts_distinct_nodes() {
        // Nodes 0, 2 and 3 all go silent on column 1 (a shared bank chip);
        // node 1 additionally loses column 0 (an unrelated transceiver).
        let mut ld = LinkDetector::new(
            4,
            3,
            FaultConfig {
                silence_threshold: 1,
                ..FaultConfig::default()
            },
        );
        for e in 0..4u64 {
            for p in 0..4u32 {
                for c in 0..3usize {
                    let bank_dead = c == 1 && p != 1 && e >= 2;
                    let lone_dead = p == 1 && c == 0 && e >= 2;
                    if !(bank_dead || lone_dead) {
                        ld.heard_from(NodeId(p), c, e);
                    }
                }
            }
            ld.tick(e);
        }
        assert_eq!(ld.column_suspected_nodes(1), 3);
        assert_eq!(ld.column_suspected_nodes(0), 1);
        assert_eq!(ld.column_suspected_nodes(2), 0);
        let cfg = FaultConfig::default();
        assert!(ld.column_suspected_nodes(1) >= cfg.correlation_threshold);
        assert!(ld.column_suspected_nodes(0) < cfg.correlation_threshold);
    }
}
