//! The backend-agnostic sync protocol core (§4.4).
//!
//! One `SyncEngine` is one node's whole protocol state: its disciplined
//! clock (behind [`TimeProvider`]), its PLL, and its view of the rotating
//! leader schedule. The engine is deliberately split into two halves —
//! [`SyncEngine::lead`] produces the epoch's beacon, and
//! [`SyncEngine::on_beacon`] validates and applies one — so that both
//! the lockstep simulation harness and the free-running UDP node binary
//! drive the *same* code: the simulation calls [`SyncEngine::step`] (the
//! strict per-epoch composition over a [`Transport`]), while the live
//! node wraps the same two halves in a wall-clock pacing loop that
//! tolerates scheduler jitter.

use crate::error::SyncError;
use crate::leader::LeaderSchedule;
use crate::pll::Pll;
use crate::proto::Beacon;
use crate::provider::TimeProvider;
use crate::transport::Transport;

/// What one engine did in one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// This node led: its beacon was broadcast.
    Led(Beacon),
    /// This node followed: one PLL update was applied from the measured
    /// phase error (own phase − leader phase + correction), ps.
    Followed { measured_ps: f64 },
    /// No alive leader exists; the clock free-runs this epoch.
    Idle,
}

/// One node's protocol state over any clock/transport backend.
#[derive(Debug, Clone)]
pub struct SyncEngine<C: TimeProvider> {
    node: usize,
    pll: Pll,
    leaders: LeaderSchedule,
    clock: C,
    /// Newest epoch whose beacon was applied (replay/reorder guard).
    last_applied: Option<u64>,
}

impl<C: TimeProvider> SyncEngine<C> {
    pub fn new(node: usize, leaders: LeaderSchedule, pll: Pll, clock: C) -> SyncEngine<C> {
        SyncEngine {
            node,
            pll,
            leaders,
            clock,
            last_applied: None,
        }
    }

    pub fn node(&self) -> usize {
        self.node
    }
    pub fn clock(&self) -> &C {
        &self.clock
    }
    pub fn clock_mut(&mut self) -> &mut C {
        &mut self.clock
    }

    /// This engine's view of who leads `epoch` (pure function of the
    /// epoch and the alive set — no election traffic).
    pub fn leader_at(&self, epoch: u64) -> Option<usize> {
        self.leaders.leader_at(epoch)
    }

    pub fn is_leader(&self, epoch: u64) -> bool {
        self.leader_at(epoch) == Some(self.node)
    }

    /// Update the local alive-set view (from the failure plane in-sim;
    /// from silence detection live).
    pub fn mark_failed(&mut self, node: usize) {
        self.leaders.mark_failed(node);
    }

    /// Produce this epoch's beacon — `None` unless this node leads it.
    pub fn lead(&mut self, epoch: u64) -> Option<Beacon> {
        if !self.is_leader(epoch) {
            return None;
        }
        self.last_applied = Some(self.last_applied.unwrap_or(0).max(epoch));
        Some(Beacon {
            leader: self.node as u16,
            epoch,
            phase_ps: self.clock.phase_ps(),
        })
    }

    /// Validate one received beacon and apply one PLL update from it.
    /// Returns the measured phase error, ps (see [`SyncEngine::measure`]).
    pub fn on_beacon(&mut self, b: &Beacon, correction_ps: f64) -> Result<f64, SyncError> {
        let measured = self.measure(b, correction_ps)?;
        let (dp, df) = self.pll.update(measured);
        self.clock.adjust_phase(dp);
        self.clock.adjust_frequency(df);
        self.last_applied = Some(b.epoch);
        Ok(measured)
    }

    /// Validate one received beacon and measure the phase error it shows,
    /// without applying it. `correction_ps` is the backend's measurement
    /// correction (detector noise in-sim, −propagation delay live); the
    /// error is computed as `(own_phase − beacon_phase) + correction` —
    /// the exact pre-seam expression shape, which the bit-identity tests
    /// pin.
    pub fn measure(&self, b: &Beacon, correction_ps: f64) -> Result<f64, SyncError> {
        let expected = self.leader_at(b.epoch);
        if expected != Some(b.leader as usize) {
            return Err(SyncError::WrongLeader {
                epoch: b.epoch,
                claimed: b.leader as usize,
                expected,
            });
        }
        if let Some(last) = self.last_applied {
            if b.epoch == last {
                return Err(SyncError::Duplicate { epoch: b.epoch });
            }
            if b.epoch < last {
                return Err(SyncError::Stale {
                    epoch: b.epoch,
                    newest: last,
                });
            }
        }
        Ok(self.clock.phase_ps() - b.phase_ps + correction_ps)
    }

    /// One strict lockstep epoch over a transport: lead or follow.
    pub fn step<T: Transport>(&mut self, epoch: u64, t: &mut T) -> Result<Step, SyncError> {
        match self.leader_at(epoch) {
            None => Ok(Step::Idle),
            Some(l) if l == self.node => {
                let b = self.lead(epoch).expect("leader_at said we lead");
                t.broadcast(&b)?;
                Ok(Step::Led(b))
            }
            Some(l) => {
                let b = t.recv_beacon(epoch, l)?;
                let correction = t.correction_ps();
                let measured = self.on_beacon(&b, correction)?;
                Ok(Step::Followed {
                    measured_ps: measured,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::OscillatorSpec;
    use crate::provider::{SharedRng, SimTime};
    use crate::transport::SimTransport;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn cluster(n: usize, seed: u64) -> (Vec<SyncEngine<SimTime>>, SimTransport) {
        let rng: SharedRng = Rc::new(RefCell::new(SmallRng::seed_from_u64(seed)));
        let engines = (0..n)
            .map(|i| {
                SyncEngine::new(
                    i,
                    LeaderSchedule::new(n, 4),
                    Pll::paper_tuning(),
                    SimTime::new(rng.clone(), OscillatorSpec::commodity_xo()),
                )
            })
            .collect();
        (engines, SimTransport::new(0.2, rng))
    }

    #[test]
    fn engines_over_sim_transport_lock() {
        let (mut engines, mut t) = cluster(4, 7);
        for e in 0..30_000u64 {
            for en in engines.iter_mut() {
                en.clock_mut().advance(1.6);
            }
            let lead = engines[0].leader_at(e).unwrap();
            engines[lead].step(e, &mut t).unwrap();
            for (i, en) in engines.iter_mut().enumerate() {
                if i != lead {
                    en.step(e, &mut t).unwrap();
                }
            }
        }
        let phases: Vec<f64> = engines.iter().map(|e| e.clock().phase_ps()).collect();
        let spread = phases.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - phases.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 10.0, "cluster spread {spread} ps");
    }

    #[test]
    fn on_beacon_rejects_wrong_leader() {
        let (mut engines, _) = cluster(4, 1);
        // Epoch 0 belongs to node 0; a beacon claiming node 2 is forged.
        let forged = Beacon {
            leader: 2,
            epoch: 0,
            phase_ps: 0.0,
        };
        assert_eq!(
            engines[1].on_beacon(&forged, 0.0),
            Err(SyncError::WrongLeader {
                epoch: 0,
                claimed: 2,
                expected: Some(0),
            })
        );
    }

    #[test]
    fn on_beacon_rejects_replay_and_reorder() {
        let (mut engines, _) = cluster(2, 2);
        let b4 = Beacon {
            leader: 1,
            epoch: 4,
            phase_ps: 0.0,
        };
        assert!(engines[0].on_beacon(&b4, 0.0).is_ok());
        assert_eq!(
            engines[0].on_beacon(&b4, 0.0),
            Err(SyncError::Duplicate { epoch: 4 })
        );
        let b0 = Beacon {
            leader: 0,
            epoch: 0,
            phase_ps: 0.0,
        };
        // Node 0 leads epoch 0 itself, so hand the stale beacon to a
        // fresh follower view: epoch 0 < newest applied 4.
        assert_eq!(
            engines[0].on_beacon(&b0, 0.0),
            Err(SyncError::Stale {
                epoch: 0,
                newest: 4
            })
        );
    }

    #[test]
    fn leader_role_follows_rotation_and_failures() {
        let (mut engines, mut t) = cluster(3, 3);
        assert!(matches!(engines[0].step(0, &mut t), Ok(Step::Led(_))));
        for en in engines.iter_mut() {
            en.mark_failed(1);
        }
        // Node 1's turn (epochs 4..8) falls to node 2.
        assert!(engines[2].is_leader(4));
        assert!(!engines[1].is_leader(4));
    }

    #[test]
    fn all_dead_is_idle_not_panic() {
        let (mut engines, mut t) = cluster(2, 4);
        for en in engines.iter_mut() {
            en.mark_failed(0);
            en.mark_failed(1);
        }
        assert_eq!(engines[0].step(0, &mut t), Ok(Step::Idle));
    }
}
