//! Rotating-leader frequency synchronization (§4.4).
//!
//! A designated leader's clock, extracted from its cells as they arrive
//! once per epoch at every node, is the common reference everyone slaves
//! to. "For higher robustness, in Sirius we automatically switch the
//! leader every few epochs in a round-robin fashion", so a dead leader is
//! replaced within microseconds — fast enough that no noticeable drift
//! accumulates. Followers do not need to agree on absolute time, only on
//! frequency/phase relative to whoever currently leads.

/// Leader-election state shared by construction (it is a pure function of
/// the epoch number and the alive set — no messages needed).
#[derive(Debug, Clone)]
pub struct LeaderSchedule {
    nodes: usize,
    /// Epochs each node leads before rotating.
    pub rotation_epochs: u64,
    alive: Vec<bool>,
}

impl LeaderSchedule {
    pub fn new(nodes: usize, rotation_epochs: u64) -> LeaderSchedule {
        assert!(nodes > 0 && rotation_epochs > 0);
        LeaderSchedule {
            nodes,
            rotation_epochs,
            alive: vec![true; nodes],
        }
    }

    /// The paper-style default: rotate every few epochs.
    pub fn paper(nodes: usize) -> LeaderSchedule {
        LeaderSchedule::new(nodes, 4)
    }

    pub fn mark_failed(&mut self, node: usize) {
        self.alive[node] = false;
    }
    pub fn mark_recovered(&mut self, node: usize) {
        self.alive[node] = true;
    }
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// The node leading at `epoch`: round-robin over node ids, skipping
    /// failed nodes (a failed would-be leader forfeits its turn — the next
    /// alive node in the rotation takes over, which is how a dead leader
    /// is "automatically replaced in few microseconds").
    pub fn leader_at(&self, epoch: u64) -> Option<usize> {
        let slot = (epoch / self.rotation_epochs) as usize;
        // Probe the rotation order starting from the nominal leader.
        for k in 0..self.nodes {
            let cand = (slot + k) % self.nodes;
            if self.alive[cand] {
                return Some(cand);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_over_all_nodes() {
        let ls = LeaderSchedule::new(4, 4);
        assert_eq!(ls.leader_at(0), Some(0));
        assert_eq!(ls.leader_at(3), Some(0));
        assert_eq!(ls.leader_at(4), Some(1));
        assert_eq!(ls.leader_at(15), Some(3));
        assert_eq!(ls.leader_at(16), Some(0)); // wraps
    }

    #[test]
    fn failed_leader_is_replaced_same_rotation() {
        let mut ls = LeaderSchedule::new(4, 4);
        ls.mark_failed(1);
        // Node 1's turn goes to node 2 immediately.
        assert_eq!(ls.leader_at(4), Some(2));
        assert_eq!(ls.leader_at(8), Some(2)); // its own turn unaffected
        ls.mark_recovered(1);
        assert_eq!(ls.leader_at(4), Some(1));
    }

    #[test]
    fn replacement_latency_is_microseconds() {
        // 4 epochs x 1.6 us = 6.4 us worst case without a reference —
        // "sufficient to prevent any noticeable clock drift" (a 20 ppm
        // clock drifts only 0.128 ps in that window).
        let ls = LeaderSchedule::paper(128);
        // A dead leader leaves nodes without a live reference for at most
        // its remaining turn.
        let window_us = ls.rotation_epochs as f64 * 1.6;
        let drift_ps = 20.0 * window_us;
        assert!(drift_ps < 1000.0, "drift {drift_ps} ps");
    }

    #[test]
    fn all_dead_means_no_leader() {
        let mut ls = LeaderSchedule::new(2, 1);
        ls.mark_failed(0);
        ls.mark_failed(1);
        assert_eq!(ls.leader_at(0), None);
    }

    #[test]
    fn every_alive_node_eventually_leads() {
        let mut ls = LeaderSchedule::new(8, 2);
        ls.mark_failed(3);
        let mut led = [false; 8];
        for e in 0..16 {
            led[ls.leader_at(e * 2).unwrap()] = true;
        }
        for (i, &l) in led.iter().enumerate() {
            assert_eq!(l, i != 3, "node {i}");
        }
    }
}
