//! Burst-mode clock-and-data recovery with phase caching
//! (§4.5, §A.1, and the Nature Electronics companion paper \[21\]).
//!
//! Every timeslot establishes a brand-new optical connection, so the
//! receiver's CDR would normally have to re-lock from scratch — standard
//! transceivers take microseconds, which would dwarf a 100 ns slot. Phase
//! caching exploits two Sirius properties: (i) all nodes are frequency
//! -synchronized (§4.4), so the phase between any sender/receiver pair is
//! *stable*, and (ii) the cyclic schedule reconnects every pair every
//! epoch, so a cached phase is refreshed before it can drift away.
//! The receiver loads the cached phase when the slot opens, so "locking"
//! takes under a nanosecond; that lock time is the CDR's share of the
//! 3.84 ns reconfiguration budget (`transceiver`).

use sirius_core::units::Duration;

/// Configuration of the burst-mode receiver.
#[derive(Debug, Clone, Copy)]
pub struct CdrConfig {
    /// Lock time with a fresh cache entry ("<625 ps", \[20\]).
    pub cached_lock: Duration,
}

impl CdrConfig {
    /// The Sirius v2 receiver.
    pub fn paper() -> CdrConfig {
        CdrConfig {
            cached_lock: Duration::from_ps(625),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_lock_is_sub_nanosecond() {
        // The enabling number for 3.84 ns end-to-end reconfiguration.
        assert!(CdrConfig::paper().cached_lock < Duration::from_ns(1));
    }
}
