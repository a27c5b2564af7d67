//! The ITU C-band wavelength grid used by Sirius' tunable lasers and
//! gratings (§3).
//!
//! Commercial tunable lasers cover ~100 wavelengths at 50 GHz spacing
//! around 1550 nm (§3.2); the paper's DSDBR prototype tunes across 112
//! channels, and the custom chip selects among 19. This module maps
//! channel indices to optical frequency/wavelength so physical-layer models
//! (AWGR routing, tuning transients, Fig. 8b) can speak in nanometres.

/// Speed of light in vacuum, m/s.
pub const C_M_PER_S: f64 = 299_792_458.0;

/// A wavelength-grid definition: `channels` channels spaced `spacing_ghz`
/// apart, with channel 0 at `base_thz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    pub channels: u16,
    pub spacing_ghz: f64,
    pub base_thz: f64,
}

impl Grid {
    /// The 19-channel grid of the custom InP chip (§6, limited by chip
    /// area).
    pub fn chip_19() -> Grid {
        Grid {
            channels: 19,
            spacing_ghz: 50.0,
            base_thz: 193.0,
        }
    }

    /// Optical frequency of channel `ch` in THz.
    pub fn frequency_thz(&self, ch: u16) -> f64 {
        assert!(ch < self.channels, "channel {ch} outside grid");
        self.base_thz + ch as f64 * self.spacing_ghz / 1000.0
    }

    /// Wavelength of channel `ch` in nm.
    pub fn wavelength_nm(&self, ch: u16) -> f64 {
        C_M_PER_S / (self.frequency_thz(ch) * 1e12) * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_monotone_wavelength_antitone() {
        let g = Grid::chip_19();
        for ch in 1..g.channels {
            assert!(g.frequency_thz(ch) > g.frequency_thz(ch - 1));
            assert!(g.wavelength_nm(ch) < g.wavelength_nm(ch - 1));
        }
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn out_of_grid_channel_panics() {
        Grid::chip_19().frequency_thz(19);
    }
}
