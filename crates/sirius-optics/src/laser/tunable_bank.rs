//! Disaggregated design 2: a small bank of standard tunable lasers working
//! in a pipeline (§3.3, Fig. 4c).
//!
//! While laser A emits the current wavelength, laser B — idle — pre-tunes
//! to the *next* wavelength in the (known, cyclic) schedule; at the slot
//! boundary the SOA selector flips from A to B, hiding the DSDBR's tens of
//! nanoseconds of settling behind the slot time. §4.5: "for a system with
//! a 100 ns total slot duration and tunable lasers with a worst-case
//! tuning time less than 100 ns ... the tuning latency can be hidden by
//! using a bank of two tunable lasers (plus an additional laser as
//! back-up)".

use super::standard::DsdbrLaser;
use super::TunableSource;
use sirius_core::units::Duration;

/// A pipelined bank of tunable lasers behind an SOA selector/coupler.
#[derive(Debug, Clone)]
pub struct TunableLaserBank {
    laser: DsdbrLaser,
    /// Working lasers in the pipeline (excluding spares).
    working: usize,
    /// Spare lasers for fault tolerance.
    spares: usize,
    /// SOA selector switching time (bounds the visible tuning latency when
    /// the pipeline hides the laser settle).
    soa_gate: Duration,
    /// Coupler insertion loss, dB — higher than the fixed bank's mux
    /// because outputs can carry any wavelength (§3.3).
    coupler_loss_db: f64,
}

impl TunableLaserBank {
    pub fn new(laser: DsdbrLaser, working: usize, spares: usize, soa_gate: Duration) -> Self {
        assert!(working >= 1);
        TunableLaserBank {
            laser,
            working,
            spares,
            soa_gate,
            coupler_loss_db: 6.0,
        }
    }

    /// The §4.5 configuration: two working lasers + one spare, 100 ns slots.
    pub fn paper_bank() -> TunableLaserBank {
        TunableLaserBank::new(DsdbrLaser::paper_prototype(), 2, 1, Duration::from_ps(912))
    }

    /// Working lasers plus spares.
    pub fn total_lasers(&self) -> usize {
        self.working + self.spares
    }

    /// Minimum working lasers needed to hide a worst-case settle of
    /// `worst` behind `slot`-long timeslots: the emitting laser is busy
    /// for 1 slot, and an idle laser has `(k-1)` slots to retune.
    pub fn required_working(worst: Duration, slot: Duration) -> usize {
        let k = worst.as_ps().div_ceil(slot.as_ps().max(1)) as usize;
        k + 1
    }

    /// Can this bank sustain the cyclic schedule with `slot`-long slots
    /// without ever exposing a laser settle?
    pub fn sustains(&self, slot: Duration) -> bool {
        self.working >= Self::required_working(self.laser.worst_tuning_latency(), slot)
    }

    /// Simulate the pipeline over a wavelength sequence: returns the total
    /// stall time (settle not hidden by the pipeline). Zero when
    /// [`sustains`](Self::sustains) holds for the sequence's slot length.
    pub fn simulate_stalls(&self, sequence: &[usize], slot: Duration) -> Duration {
        // ready_at[i]: when laser i finishes its current retune.
        let mut ready_at = vec![Duration::ZERO; self.working];
        let mut now = Duration::ZERO;
        let mut stalls = Duration::ZERO;
        for (k, &wl) in sequence.iter().enumerate() {
            let laser = k % self.working;
            if ready_at[laser] > now {
                stalls += ready_at[laser] - now;
            }
            // This laser emits for this slot, then immediately starts
            // retuning toward the wavelength it will emit `working` slots
            // later.
            let next_idx = k + self.working;
            let settle = if next_idx < sequence.len() {
                self.laser
                    .tuning_latency(wl, sequence[next_idx])
                    .expect("sequence wavelength outside the laser grid")
            } else {
                Duration::ZERO
            };
            ready_at[laser] = now + slot + settle;
            now += slot;
        }
        stalls
    }
}

impl TunableSource for TunableLaserBank {
    fn wavelengths(&self) -> usize {
        self.laser.wavelengths()
    }

    /// Visible tuning latency when the pipeline is warm: just the SOA gate.
    fn tuning_latency(&self, from: usize, to: usize) -> Option<Duration> {
        if from >= self.wavelengths() || to >= self.wavelengths() {
            return None;
        }
        if from == to {
            Some(Duration::ZERO)
        } else {
            Some(self.soa_gate)
        }
    }

    fn electrical_power_w(&self) -> f64 {
        // Working lasers run hot; spares are kept dark (field-replaceable
        // cold standby, §4.5).
        self.working as f64 * self.laser.electrical_power_w() + 0.3
    }

    fn output_power_dbm(&self) -> f64 {
        self.laser.output_power_dbm() - self.coupler_loss_db + 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bank_sustains_100ns_slots() {
        // §4.5: worst-case tuning < 100 ns, slot 100 ns -> 2 working lasers.
        let b = TunableLaserBank::paper_bank();
        assert!(b.sustains(Duration::from_ns(100)));
        assert_eq!(b.total_lasers(), 3); // incl. the spare
    }

    #[test]
    fn required_working_matches_paper_rule() {
        assert_eq!(
            TunableLaserBank::required_working(Duration::from_ns(92), Duration::from_ns(100)),
            2
        );
        // Slower laser or shorter slot needs deeper pipelines.
        assert_eq!(
            TunableLaserBank::required_working(Duration::from_ns(92), Duration::from_ns(40)),
            4
        );
    }

    #[test]
    fn no_stalls_on_cyclic_schedule_at_paper_slot() {
        let b = TunableLaserBank::paper_bank();
        // Sirius' cyclic schedule: wavelength = slot index mod W.
        let seq: Vec<usize> = (0..1000).map(|k| k % 16).collect();
        assert_eq!(
            b.simulate_stalls(&seq, Duration::from_ns(100)),
            Duration::ZERO
        );
    }

    #[test]
    fn single_laser_stalls() {
        let b = TunableLaserBank::new(DsdbrLaser::paper_prototype(), 1, 0, Duration::from_ps(912));
        let seq: Vec<usize> = (0..100).map(|k| (k * 37) % 112).collect();
        assert!(b.simulate_stalls(&seq, Duration::from_ns(100)) > Duration::ZERO);
    }

    #[test]
    fn visible_latency_is_soa_gate() {
        let b = TunableLaserBank::paper_bank();
        assert_eq!(b.tuning_latency(0, 111), Some(Duration::from_ps(912)));
        assert_eq!(b.tuning_latency(4, 4), Some(Duration::ZERO));
        assert_eq!(b.tuning_latency(0, 112), None);
    }

    #[test]
    fn fewer_lasers_than_fixed_bank() {
        // The §3.3 advantage: 3 lasers instead of one per wavelength.
        let b = TunableLaserBank::paper_bank();
        assert!(b.total_lasers() < b.wavelengths());
    }
}
