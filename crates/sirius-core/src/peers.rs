//! Per-peer node state sized by the pairs in use, not by `n`.
//!
//! A node keeps state per peer in each of its roles (§4.2–4.3): a LOCAL
//! queue per destination, a VOQ per intermediate, a relay queue and the
//! §4.3 counters per destination, and the request round's sticky claim
//! per intermediate. §4.3 bounds what any pair holds at `Q` cells, so a
//! node's live state follows the pairs its traffic uses — about a
//! hundred of 1023 peers at the most under the benchmark's light load on
//! 1024 racks — while one dense array per field costs every node all `n`
//! peers from the start.
//!
//! [`Peers`] keeps one [`Peer`] record per peer that holds anything, in
//! an open-addressed table keyed by peer id (Fibonacci hashing, linear
//! probing over a separate key array, at most three-quarters full).
//! Three rules keep it as cheap as the arrays it replaced:
//!
//! * **Capacity doubles up to `next_pow2(n)`, where slot = peer id.** At
//!   that size the table turns dense — a plain array, no keys, no probe —
//!   so a node that talks to most of its peers pays what the arrays did.
//!   Tables of a network of at most [`DENSE_FROM`] nodes (the paper's 128
//!   racks) start dense.
//! * **Idle records are reclaimed lazily.** A record whose every field is
//!   back at its default keeps its key until an insert would pass
//!   three-quarter load; only then does a sweep drop the idle records in
//!   place, and the table doubles unless the sweep left it at most half
//!   full, so sweeps are a quarter of the table's inserts apart. Releasing
//!   a record on the pop that empties it would repair a probe run on
//!   every drain and churn the same peers in and out.
//! * **An operation fetches its record once.** A record holds both roles'
//!   state for its pair, so a relay arrival consumes its grant and queues
//!   the cell, and a relay transmit pops the queue and releases the §4.3
//!   slot, in one record.
//!
//! Where a value lives never changes what it is, and nothing iterates
//! the table in slot order, so the layout is behaviour-neutral.

use crate::arena::Fifo;

/// No position, no sticky request, no key: the unset value of every
/// `u32` index in a record.
pub(crate) const NONE: u32 = u32::MAX;

/// First capacity of a sparse table.
const INITIAL: usize = 8;

/// Tables that span at most this many peers start dense: 6.5 KiB of
/// records, and a node of so small a network talks to most of its peers
/// within a few epochs.
const DENSE_FROM: usize = 128;

/// Everything one node keeps about one peer. The queue fields are
/// [`SiriusNode`](crate::node::SiriusNode)'s, the counters and the lapse
/// queue [`CongestionState`](crate::congestion::CongestionState)'s; both
/// reach it through the one table the CC state owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct Peer {
    /// Relay cells whose final destination is this peer.
    pub(crate) relay: Fifo,
    /// Granted cells waiting for a slot to this intermediate.
    pub(crate) voq: Fifo,
    /// As an intermediate: cells queued here for this destination.
    pub(crate) queued: u32,
    /// As an intermediate: grants (Ideal: launched first hops) for this
    /// destination whose cell has not arrived yet.
    pub(crate) outstanding: u32,
    /// Lapse epochs of the outstanding grants, oldest first, threaded
    /// through the CC state's lapse arena.
    pub(crate) expiry: Fifo,
    /// LOCAL cells for this destination, oldest first, as runs of one
    /// flow's consecutive cells threaded through the node's run arena.
    pub(crate) local: Fifo,
    /// Position of this destination in the node's non-empty LOCAL list,
    /// where its cell count sits.
    pub(crate) local_pos: u32,
    /// Position in the node's sticky requests of the one aimed at this
    /// intermediate (each intermediate holds at most one).
    pub(crate) sticky_of: u32,
    /// Contended slots toward this peer the relay queue has won in a row.
    pub(crate) relay_wins: u8,
}

impl Peer {
    /// A record with nothing in it: dropping one loses nothing.
    const IDLE: Peer = Peer {
        relay: Fifo::EMPTY,
        voq: Fifo::EMPTY,
        queued: 0,
        outstanding: 0,
        expiry: Fifo::EMPTY,
        local: Fifo::EMPTY,
        local_pos: NONE,
        sticky_of: NONE,
        relay_wins: 0,
    };

    /// A relay cell for this destination left the queue here.
    #[inline]
    pub(crate) fn depart(&mut self) {
        debug_assert!(self.queued > 0, "a departing relay cell was queued");
        self.queued -= 1;
    }
}

/// One node's [`Peer`] records. See the module docs.
#[derive(Debug)]
pub(crate) struct Peers {
    /// The records, a power of two of them.
    slots: Vec<Peer>,
    /// Sparse: the peer each slot's record is about, or [`NONE`]. Probes
    /// read these, sixteen to a cache line, and touch one record. Empty
    /// once dense.
    keys: Vec<u32>,
    /// Keyed slots, idle records included (sparse).
    used: usize,
    /// A sparse key's home slot is the top bits of `key * 2^32 / phi`
    /// (Fibonacci hashing): `32 - log2(capacity)` is the shift.
    shift: u32,
    /// `next_pow2(n)`: the capacity at which slot = peer id.
    full: usize,
}

impl Peers {
    pub(crate) fn new(n: usize) -> Peers {
        let full = n.next_power_of_two();
        let mut peers = Peers {
            slots: Vec::new(),
            keys: Vec::new(),
            used: 0,
            shift: 0,
            full,
        };
        peers.rebuild(if full <= DENSE_FROM { full } else { INITIAL });
        peers
    }

    /// Slot = peer id.
    #[inline]
    fn dense(&self) -> bool {
        self.keys.is_empty()
    }

    /// The slot holding `key` (`Ok`), or the free slot it would take
    /// (`Err`). A sparse table always has a free slot; a dense one holds
    /// every peer.
    #[inline]
    fn find(&self, key: u32) -> Result<usize, usize> {
        debug_assert!((key as usize) < self.full, "peer {key} out of range");
        if self.dense() {
            return Ok(key as usize);
        }
        let mask = self.keys.len() - 1;
        let mut s = self.home(key);
        loop {
            match self.keys[s] {
                k if k == key => return Ok(s),
                NONE => return Err(s),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// The slot `key`'s probe run starts at (sparse).
    #[inline]
    fn home(&self, key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// `key`'s record; an idle one if it has none.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> &Peer {
        match self.find(key) {
            Ok(s) => &self.slots[s],
            Err(_) => &Peer::IDLE,
        }
    }

    /// `key`'s record if it has one; `None` means every field is at its
    /// default.
    #[inline]
    pub(crate) fn get_mut(&mut self, key: u32) -> Option<&mut Peer> {
        let s = self.find(key).ok()?;
        Some(&mut self.slots[s])
    }

    /// `key`'s record, made if it has none. Making one may move every
    /// other record, so no slot is held across this call.
    #[inline]
    pub(crate) fn entry(&mut self, key: u32) -> &mut Peer {
        let s = match self.find(key) {
            Ok(s) => s,
            Err(s) => self.insert(key, s),
        };
        &mut self.slots[s]
    }

    /// Key free slot `s` for `key`, first making room if that would pass
    /// three-quarter load. Returns `key`'s slot.
    fn insert(&mut self, key: u32, s: usize) -> usize {
        let cap = self.keys.len();
        let s = if 4 * (self.used + 1) <= 3 * cap {
            s
        } else {
            // Sweep before growing, and double unless the live records
            // fill at most half: the next sweep is a quarter of the
            // table's inserts away either way.
            self.sweep();
            if 2 * (self.used + 1) > cap {
                self.rebuild(2 * cap);
            }
            match self.find(key) {
                Ok(s) => return s,
                Err(s) => s,
            }
        };
        self.keys[s] = key;
        self.used += 1;
        s
    }

    /// Drop every idle record in place (sparse). Each drop closes its
    /// probe run by pulling later records of the run back into the hole
    /// (backward-shift deletion), so no lookup ever meets a gap.
    fn sweep(&mut self) {
        let mask = self.keys.len() - 1;
        let mut i = 0;
        while i <= mask {
            if self.keys[i] == NONE || self.slots[i] != Peer::IDLE {
                i += 1;
                continue;
            }
            // Slot `i` is re-read after the drop: a record may move in.
            let (mut hole, mut j) = (i, i);
            loop {
                j = (j + 1) & mask;
                let key = self.keys[j];
                if key == NONE {
                    break;
                }
                // The record at `j` may move back iff the hole lies
                // within its probe run, i.e. in `[home, j)`.
                if j.wrapping_sub(self.home(key)) & mask >= j.wrapping_sub(hole) & mask {
                    self.keys[hole] = key;
                    self.slots[hole] = self.slots[j];
                    hole = j;
                }
            }
            self.keys[hole] = NONE;
            self.slots[hole] = Peer::IDLE;
            self.used -= 1;
        }
    }

    /// Re-lay the table at capacity `cap`, keeping the records that hold
    /// anything. At `full` the table turns dense: slot = peer id.
    fn rebuild(&mut self, cap: usize) {
        let slots = std::mem::replace(&mut self.slots, vec![Peer::IDLE; cap]);
        let keys = if cap == self.full {
            // Dense from here on: slot = peer id, and no keys.
            let keys = std::mem::take(&mut self.keys);
            if keys.is_empty() {
                return;
            }
            keys
        } else {
            self.shift = 32 - cap.trailing_zeros();
            self.used = 0;
            std::mem::replace(&mut self.keys, vec![NONE; cap])
        };
        for (key, p) in keys.into_iter().zip(slots) {
            if key != NONE && p != Peer::IDLE {
                let s = match self.find(key) {
                    Ok(s) => s,
                    Err(s) => self.insert(key, s),
                };
                self.slots[s] = p;
            }
        }
    }

    /// Heap bytes held (footprint tests).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Peer>() + self.keys.capacity() * 4
    }

    /// Slots in the table (tests).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_record_is_52_bytes() {
        assert_eq!(std::mem::size_of::<Peer>(), 52);
    }

    #[test]
    fn small_networks_start_dense_and_slot_is_peer_id() {
        for n in [1, 6, DENSE_FROM] {
            let mut t = Peers::new(n);
            assert!(t.dense() && t.capacity() == n.next_power_of_two());
            for key in 0..n as u32 {
                t.entry(key).queued = key + 1;
            }
            for (s, p) in t.slots.iter().enumerate().take(n) {
                assert_eq!(p.queued, s as u32 + 1);
            }
        }
        let t = Peers::new(DENSE_FROM + 1);
        assert!(!t.dense() && t.capacity() == INITIAL);
    }

    #[test]
    fn the_table_grows_to_the_dense_layout_and_stops() {
        let n = 1000;
        let mut t = Peers::new(n);
        assert_eq!(t.capacity(), INITIAL);
        for key in 0..n as u32 {
            t.entry(key).queued = 1;
        }
        assert_eq!(t.capacity(), 1024);
        assert!(t.dense(), "a full table is the identity");
        assert!((0..n as u32).all(|key| t.find(key) == Ok(key as usize)));
    }

    #[test]
    fn a_sweep_reclaims_idle_records_before_the_table_grows() {
        let mut t = Peers::new(4096);
        // Waves of peers that go idle again: the table keeps its size.
        for wave in 0..64u32 {
            for k in 0..3 {
                t.entry(wave * 61 + k).outstanding = 1;
            }
            for k in 0..3 {
                t.get_mut(wave * 61 + k).unwrap().outstanding = 0;
            }
        }
        assert_eq!(t.capacity(), INITIAL, "idle records were never swept");
        // A live record survives every sweep.
        t.entry(4000).relay_wins = 2;
        for key in 0..100 {
            let _ = t.entry(key);
        }
        assert_eq!(t.get(4000).relay_wins, 2);
        assert_eq!(t.capacity(), INITIAL, "idle records forced growth");
    }

    /// Each op packs a key (low 16 bits) and a value; the table must read
    /// like a dense array under any mix of writes, resets and reads, and
    /// stay within four records per live one at its peak.
    fn run(ops: Vec<u32>, n: usize) -> Result<(), TestCaseError> {
        let mut t = Peers::new(n);
        let mut dense = vec![(0u32, 0u8); n];
        let mut peak = 0;
        for packed in ops {
            let (key, v) = (packed as u16, (packed >> 16) as u8);
            // A few hot peers and the whole range, so probe runs collide.
            let key = if v.is_multiple_of(2) { key % 5 } else { key } as usize % n;
            match v % 3 {
                0 => {
                    let p = t.entry(key as u32);
                    p.queued += 1;
                    p.relay_wins = v;
                    dense[key] = (dense[key].0 + 1, v);
                }
                1 => {
                    if let Some(p) = t.get_mut(key as u32) {
                        (p.queued, p.relay_wins) = (0, 0);
                    }
                    dense[key] = (0, 0);
                }
                _ => {}
            }
            for (k, &(queued, wins)) in dense.iter().enumerate() {
                let p = t.get(k as u32);
                prop_assert_eq!((p.queued, p.relay_wins), (queued, wins));
            }
            peak = peak.max(dense.iter().filter(|&&d| d != (0, 0)).count());
            prop_assert!(t.dense() || t.capacity() <= INITIAL.max(4 * peak));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn the_table_reads_like_a_dense_array(
            ops in proptest::collection::vec(0u32..1 << 24, 1..400),
            n in 1usize..300,
        ) {
            run(ops, n)?;
        }
    }
}
