//! The clock seam: one trait the protocol core disciplines, two backends.
//!
//! [`SimTime`] wraps the drifting [`LocalClock`] model and shares one
//! `SmallRng` with every other simulated component, so a whole cluster's
//! randomness is a single reproducible stream (the property the seam
//! -equivalence tests pin bit-for-bit). [`OsTime`] disciplines a real
//! monotonic clock: a process cannot trim its crystal, so frequency
//! corrections become a software rate multiplier applied to raw
//! `Instant` deltas, and phase steps move the software phase directly —
//! the standard adjtime-style discipline, scaled to ps.

use crate::clock::{LocalClock, OscillatorSpec};
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What the [`crate::engine::SyncEngine`] needs from a clock: read the
/// current phase, and apply the PLL's phase/frequency corrections.
/// Everything backend-specific (advancing a simulated oscillator, real
/// time passing by itself) stays on the concrete type.
pub trait TimeProvider {
    /// Current clock phase, ps. For `SimTime` this is offset from ideal
    /// simulated time; for `OsTime` it is the disciplined software clock
    /// since process start. Only *differences* between nodes matter.
    fn phase_ps(&self) -> f64;
    /// Apply a phase step from the PLL, ps.
    fn adjust_phase(&mut self, delta_ps: f64);
    /// Apply a frequency correction from the PLL, ppm.
    fn adjust_frequency(&mut self, delta_ppm: f64);
}

/// Shared RNG handle: every simulated clock (and the sim transport's
/// detector noise) draws from the same stream, in deterministic order.
pub type SharedRng = Rc<RefCell<SmallRng>>;

/// Simulation backend: a drifting [`LocalClock`] advanced explicitly by
/// the lockstep harness once per epoch.
#[derive(Debug, Clone)]
pub struct SimTime {
    clock: LocalClock,
    rng: SharedRng,
}

impl SimTime {
    /// Draws the clock's initial frequency offset from the shared stream
    /// — construction order across a cluster is part of the RNG
    /// contract.
    pub fn new(rng: SharedRng, spec: OscillatorSpec) -> SimTime {
        let clock = LocalClock::new(&mut *rng.borrow_mut(), spec);
        SimTime { clock, rng }
    }

    /// Free-run for `dt_us` of ideal time (jitter + drift draws).
    pub fn advance(&mut self, dt_us: f64) {
        self.clock.advance(&mut *self.rng.borrow_mut(), dt_us);
    }

    /// Flip the underlying oscillator into byzantine wandering (§4.4).
    pub fn set_byzantine(&mut self, byzantine: bool) {
        self.clock.byzantine = byzantine;
    }

    /// Current frequency offset, ppm — the quantity the byzantine
    /// -containment result bounds for honest nodes.
    pub fn offset_ppm(&self) -> f64 {
        self.clock.offset_ppm
    }
}

impl TimeProvider for SimTime {
    fn phase_ps(&self) -> f64 {
        self.clock.phase_ps
    }
    fn adjust_phase(&mut self, delta_ps: f64) {
        self.clock.adjust_phase(delta_ps);
    }
    fn adjust_frequency(&mut self, delta_ppm: f64) {
        self.clock.adjust_frequency(delta_ppm);
    }
}

/// Live backend: a software clock disciplined over the OS monotonic
/// clock. Piecewise-linear: from the last adjustment anchor, phase
/// advances at `(1 + freq_ppm * 1e-6)` times raw time.
#[derive(Debug, Clone)]
pub struct OsTime {
    origin: Instant,
    /// Raw monotonic time at the last frequency adjustment, ps.
    anchor_raw_ps: f64,
    /// Disciplined phase at `anchor_raw_ps`, ps.
    anchor_phase_ps: f64,
    /// Current software rate trim, ppm.
    freq_ppm: f64,
}

/// Clamp on the software rate trim: ±500 ppm covers any commodity
/// crystal plus PLL overshoot without letting a wild correction make the
/// software clock visibly non-monotonic-ish in rate.
const MAX_TRIM_PPM: f64 = 500.0;

impl Default for OsTime {
    fn default() -> Self {
        OsTime::new()
    }
}

impl OsTime {
    pub fn new() -> OsTime {
        OsTime::since(Instant::now())
    }

    /// A clock whose phase is the time elapsed since `origin` (a live
    /// node's cluster start), until the first adjustment.
    pub fn since(origin: Instant) -> OsTime {
        OsTime {
            origin,
            anchor_raw_ps: 0.0,
            anchor_phase_ps: 0.0,
            freq_ppm: 0.0,
        }
    }

    fn raw_ps(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 * 1000.0
    }

    fn phase_at(&self, raw_ps: f64) -> f64 {
        self.anchor_phase_ps + (raw_ps - self.anchor_raw_ps) * (1.0 + self.freq_ppm * 1e-6)
    }

    /// Current rate trim, ppm (reported in live-node statistics).
    pub fn freq_ppm(&self) -> f64 {
        self.freq_ppm
    }
}

impl TimeProvider for OsTime {
    fn phase_ps(&self) -> f64 {
        self.phase_at(self.raw_ps())
    }

    fn adjust_phase(&mut self, delta_ps: f64) {
        self.anchor_phase_ps += delta_ps;
    }

    fn adjust_frequency(&mut self, delta_ppm: f64) {
        // Re-anchor at "now" so the new rate applies only forward.
        let raw = self.raw_ps();
        self.anchor_phase_ps = self.phase_at(raw);
        self.anchor_raw_ps = raw;
        self.freq_ppm = (self.freq_ppm + delta_ppm).clamp(-MAX_TRIM_PPM, MAX_TRIM_PPM);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn shared(seed: u64) -> SharedRng {
        Rc::new(RefCell::new(SmallRng::seed_from_u64(seed)))
    }

    #[test]
    fn sim_time_matches_raw_localclock_stream() {
        // A SimTime over a shared RNG must consume the stream exactly as
        // the bare LocalClock does — the foundation of seam equivalence.
        let mut raw_rng = SmallRng::seed_from_u64(9);
        let mut raw = LocalClock::new(&mut raw_rng, OscillatorSpec::commodity_xo());

        let rng = shared(9);
        let mut sim = SimTime::new(rng, OscillatorSpec::commodity_xo());

        for _ in 0..1000 {
            raw.advance(&mut raw_rng, 1.6);
            sim.advance(1.6);
        }
        assert_eq!(raw.phase_ps.to_bits(), sim.phase_ps().to_bits());
        assert_eq!(raw.offset_ppm.to_bits(), sim.offset_ppm().to_bits());
    }

    #[test]
    fn sim_time_applies_corrections() {
        let mut sim = SimTime::new(shared(1), OscillatorSpec::commodity_xo());
        let f0 = sim.offset_ppm();
        sim.adjust_frequency(-f0);
        assert!(sim.offset_ppm().abs() < 1e-12);
        sim.adjust_phase(-sim.phase_ps());
        assert_eq!(sim.phase_ps(), 0.0);
    }

    #[test]
    fn os_time_advances_monotonically() {
        let t = OsTime::new();
        let a = t.phase_ps();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = t.phase_ps();
        // 2 ms = 2e9 ps; allow generous scheduler slop but require real
        // progress at roughly wall rate.
        assert!(b - a > 1e9, "only {} ps elapsed", b - a);
    }

    #[test]
    fn os_time_phase_step_is_immediate() {
        let mut t = OsTime::new();
        let before = t.phase_ps();
        t.adjust_phase(-1e12);
        assert!(t.phase_ps() < before - 0.9e12);
    }

    #[test]
    fn os_time_frequency_trim_changes_rate() {
        let mut fast = OsTime::new();
        // +100 ppm: over 50 ms the trimmed clock gains ~5e6 ps on raw.
        fast.adjust_frequency(100.0);
        let start = fast.phase_ps();
        let wall = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let gained = (fast.phase_ps() - start) - wall.elapsed().as_nanos() as f64 * 1000.0;
        assert!(
            gained > 1e6,
            "trimmed clock gained only {gained} ps over raw"
        );
    }

    #[test]
    fn os_time_trim_is_clamped() {
        let mut t = OsTime::new();
        t.adjust_frequency(1e9);
        assert_eq!(t.freq_ppm(), MAX_TRIM_PPM);
        t.adjust_frequency(-1e9);
        assert_eq!(t.freq_ppm(), -MAX_TRIM_PPM);
    }
}
