//! Arrayed Waveguide Grating Router — the passive core element (§3.1).
//!
//! An AWGR diffracts the wavelengths arriving on each input port cyclically
//! across its output ports: input `p` carrying wavelength-index `w` exits
//! on output `(p + w) mod ports` (Fig. 3a of the paper). It has no moving
//! parts, no power draw, and is agnostic to the modulation carried — which
//! is why the Sirius core never needs upgrading.
//!
//! The model also carries an insertion-loss figure for the link-budget
//! analysis of §4.5 ("100-port gratings can be fabricated with a maximum
//! 6 dB insertion loss").

/// A passive wavelength grating with `ports` inputs and outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Awgr {
    ports: u16,
}

impl Awgr {
    pub fn new(ports: u16) -> Awgr {
        assert!(ports > 0, "an AWGR needs at least one port");
        Awgr { ports }
    }

    /// Cyclic wavelength routing: input `p`, wavelength-index `w` exits on
    /// output `(p + w) mod ports`.
    pub fn route(&self, input: u16, wavelength: u16) -> u16 {
        assert!(input < self.ports, "input {input} out of range");
        ((input as u32 + wavelength as u32) % self.ports as u32) as u16
    }

    /// The wavelength index input `p` must use to reach output `q`.
    pub fn wavelength_for(&self, input: u16, output: u16) -> u16 {
        assert!(input < self.ports && output < self.ports);
        ((output as u32 + self.ports as u32 - input as u32) % self.ports as u32) as u16
    }

    /// Insertion loss in dB, calibrated so a 100-port grating loses 6 dB
    /// (the paper's figure) and loss grows logarithmically with port count
    /// as in practical PLC fabrication.
    pub fn insertion_loss_db(&self) -> f64 {
        3.0 * (self.ports as f64).log10()
    }

    /// Output ports silenced when chip `chip` of a disaggregated fixed
    /// laser bank feeding input `input` dies (§3.3 + Fig. 3a).
    ///
    /// The bank carries one always-on laser per wavelength index
    /// `0..ports`, ganged from chips of `chip_capacity` channels each in
    /// the contiguous layout of `FixedLaserBank::new` (chip `c` covers
    /// channels `[c*cap, min((c+1)*cap, ports))`, the last chip possibly
    /// short). Each dead channel `w` silences exactly one output via the
    /// cyclic route relation `(input + w) mod ports` — a whole-chip
    /// failure is therefore a *correlated* blast: a contiguous wavelength
    /// band maps onto a set of distinct output ports, one column each.
    /// Returns the dead outputs in channel order; empty when `chip` is
    /// off the end of the bank.
    pub fn dead_outputs_for_chip(&self, input: u16, chip: u16, chip_capacity: u16) -> Vec<u16> {
        assert!(chip_capacity > 0, "a chip holds at least one channel");
        let lo = (chip as u32).saturating_mul(chip_capacity as u32);
        let hi = (lo + chip_capacity as u32).min(self.ports as u32);
        (lo..hi).map(|w| self.route(input, w as u16)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fig3a_four_port_routing() {
        // Fig. 3a: W(i,j) = j-th wavelength on input i. Wavelength j=0 from
        // input 0 exits output 0; wavelength 1 from input 0 exits output 1;
        // wavelength 3 from input 1 exits output 0 (cyclic wrap).
        let g = Awgr::new(4);
        assert_eq!(g.route(0, 0), 0);
        assert_eq!(g.route(0, 1), 1);
        assert_eq!(g.route(1, 3), 0);
        assert_eq!(g.route(3, 2), 1);
    }

    #[test]
    fn wavelength_for_inverts_route() {
        let g = Awgr::new(16);
        for p in 0..16 {
            for q in 0..16 {
                let w = g.wavelength_for(p, q);
                assert_eq!(g.route(p, w), q);
                assert!(w < 16);
            }
        }
    }

    #[test]
    fn each_wavelength_is_a_permutation() {
        // Physical property: for a fixed wavelength, inputs map 1:1 onto
        // outputs (no two inputs can collide on an output).
        let g = Awgr::new(9);
        for w in 0..9 {
            let mut seen = [false; 9];
            for p in 0..9 {
                let q = g.route(p, w) as usize;
                assert!(!seen[q]);
                seen[q] = true;
            }
        }
    }

    #[test]
    fn chip_death_maps_to_distinct_output_band() {
        let g = Awgr::new(8);
        // Chips of 3 channels over an 8-wavelength bank: 3 + 3 + 2.
        assert_eq!(g.dead_outputs_for_chip(0, 0, 3), vec![0, 1, 2]);
        assert_eq!(g.dead_outputs_for_chip(0, 1, 3), vec![3, 4, 5]);
        assert_eq!(g.dead_outputs_for_chip(0, 2, 3), vec![6, 7]);
        assert!(g.dead_outputs_for_chip(0, 3, 3).is_empty());
        // A nonzero input rotates the band (cyclic route relation), and
        // the dead outputs stay distinct.
        assert_eq!(g.dead_outputs_for_chip(6, 0, 3), vec![6, 7, 0]);
        let all: Vec<u16> = (0..3)
            .flat_map(|c| g.dead_outputs_for_chip(5, c, 3))
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "chips must partition the outputs: {all:?}");
    }

    #[test]
    fn insertion_loss_matches_paper_anchor() {
        assert!((Awgr::new(100).insertion_loss_db() - 6.0).abs() < 1e-9);
        // Smaller gratings lose less: 16 ports ~ 3.6 dB.
        let l16 = Awgr::new(16).insertion_loss_db();
        assert!(l16 > 3.0 && l16 < 4.0, "16-port loss {l16}");
        assert!(Awgr::new(512).insertion_loss_db() > 6.0);
    }

    proptest! {
        #[test]
        fn cyclic_routing_is_shift_invariant(ports in 1u16..64, p in 0u16..64, w in 0u16..200) {
            let p = p % ports;
            let g = Awgr::new(ports);
            // Adding `ports` to the wavelength index changes nothing (the
            // grating's free spectral range wraps).
            prop_assert_eq!(g.route(p, w), g.route(p, w + ports));
        }
    }
}
