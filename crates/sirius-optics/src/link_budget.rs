//! Optical link budget and laser sharing (§4.5 "Laser sharing").
//!
//! The laser must generate enough optical power that, after every loss on
//! the lightpath (modulator, fiber coupling, the grating's insertion loss)
//! and an engineering margin, the receiver still gets its sensitivity
//! floor. The paper's numbers: a -8 dBm receiver, a 6 dB 100-port grating,
//! 7 dB of modulator+coupling losses and a 2 dB margin require 7 dBm
//! (5 mW) at the transmitter — so a 16 dBm (40 mW) laser can feed up to 8
//! transceivers, amortizing the disaggregated laser's cost. Sharing is
//! possible *because* the cyclic schedule has every transceiver on a node
//! using the same wavelength at every instant.

/// Components of an end-to-end optical power budget, in dB/dBm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Laser output power, dBm.
    pub laser_dbm: f64,
    /// Modulator + fiber-coupling losses, dB.
    pub coupling_loss_db: f64,
    /// Grating insertion loss, dB.
    pub grating_loss_db: f64,
    /// Engineering margin, dB.
    pub margin_db: f64,
    /// Receiver sensitivity for post-FEC error-free operation, dBm.
    pub rx_sensitivity_dbm: f64,
}

/// Convert dBm to mW.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

impl LinkBudget {
    /// The testbed budget of §4.5.
    pub fn paper() -> LinkBudget {
        LinkBudget {
            laser_dbm: 16.0,
            coupling_loss_db: 7.0,
            grating_loss_db: 6.0,
            margin_db: 2.0,
            rx_sensitivity_dbm: -8.0,
        }
    }

    /// Transmit power each transceiver needs, dBm.
    pub fn required_tx_dbm(&self) -> f64 {
        self.rx_sensitivity_dbm + self.grating_loss_db + self.coupling_loss_db + self.margin_db
    }

    /// Does the budget close with the full laser behind one transceiver?
    pub fn closes(&self) -> bool {
        self.laser_dbm >= self.required_tx_dbm()
    }

    /// How many transceivers one laser can feed. Computed in linear power
    /// with a 2% engineering tolerance (the paper's own arithmetic rounds
    /// 40 mW / 5 mW = 8).
    pub fn max_shared_transceivers(&self) -> usize {
        let ratio = dbm_to_mw(self.laser_dbm) / dbm_to_mw(self.required_tx_dbm());
        (ratio * 1.02).floor().max(0.0) as usize
    }

    /// Tunable laser chips a rack needs for `uplinks` transceivers, plus
    /// `spares` backups (§4.5: "a rack with 256 uplinks would only need 32
    /// tunable laser chips plus any additional lasers for fault
    /// tolerance").
    pub fn lasers_for_rack(&self, uplinks: usize, spares: usize) -> usize {
        let share = self.max_shared_transceivers().max(1);
        uplinks.div_ceil(share) + spares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_requirement_is_7dbm() {
        let b = LinkBudget::paper();
        assert!((b.required_tx_dbm() - 7.0).abs() < 1e-9);
        assert!(b.closes());
    }

    #[test]
    fn laser_shared_across_8_transceivers() {
        // §4.5: "A single laser can thus be shared across up to 8
        // transceivers."
        assert_eq!(LinkBudget::paper().max_shared_transceivers(), 8);
    }

    #[test]
    fn rack_with_256_uplinks_needs_32_chips() {
        // §4.5 verbatim.
        assert_eq!(LinkBudget::paper().lasers_for_rack(256, 0), 32);
        assert_eq!(LinkBudget::paper().lasers_for_rack(256, 4), 36);
    }

    #[test]
    fn better_receivers_increase_sharing() {
        // §4.5: "receivers with better sensitivity ... would allow an even
        // higher degree of laser sharing".
        let mut b = LinkBudget::paper();
        b.rx_sensitivity_dbm = -11.0;
        assert!(b.max_shared_transceivers() > 8);
    }

    #[test]
    fn budget_fails_when_loss_exceeds_laser() {
        let mut b = LinkBudget::paper();
        b.grating_loss_db = 20.0;
        assert!(!b.closes());
        // The laser cannot feed even one transceiver at this loss.
        assert_eq!(b.max_shared_transceivers(), 0);
    }

    #[test]
    fn dbm_to_mw_at_paper_levels() {
        // 16 dBm laser = 40 mW; -8 dBm receiver floor = 0.16 mW.
        assert!((dbm_to_mw(16.0) - 39.81).abs() < 0.01);
        assert!((dbm_to_mw(-8.0) - 0.1585).abs() < 0.001);
    }
}
