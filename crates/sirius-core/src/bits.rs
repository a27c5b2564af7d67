//! Node sets as `u64` word slices: bit `i` of word `i / 64` is node `i`.
//!
//! The per-peer masks of this crate (a node's fabric occupancy, the VLB
//! alive set, the repaired schedule's reachability rows) share this
//! layout so they can be ANDed word by word.

/// Words needed for a set over `n` nodes.
#[inline]
pub fn words(n: usize) -> usize {
    n.div_ceil(64)
}

#[inline]
pub fn get(set: &[u64], i: usize) -> bool {
    set[i >> 6] & (1 << (i & 63)) != 0
}

#[inline]
pub fn set(set: &mut [u64], i: usize) {
    set[i >> 6] |= 1 << (i & 63);
}

#[inline]
pub fn clear(set: &mut [u64], i: usize) {
    set[i >> 6] &= !(1 << (i & 63));
}

/// Index of the `rank`-th (0-based) set bit of `word`, which must have
/// more than `rank` bits set.
#[inline]
pub fn select(mut word: u64, rank: u32) -> u32 {
    debug_assert!(rank < word.count_ones());
    for _ in 0..rank {
        word &= word - 1;
    }
    word.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip_across_words() {
        let mut s = vec![0u64; words(130)];
        assert_eq!(s.len(), 3);
        for i in [0, 63, 64, 129] {
            assert!(!get(&s, i));
            set(&mut s, i);
            assert!(get(&s, i));
        }
        clear(&mut s, 64);
        assert!(!get(&s, 64) && get(&s, 63) && get(&s, 129));
    }

    #[test]
    fn select_finds_the_ranked_bit() {
        let w = (1 << 3) | (1 << 17) | (1 << 63);
        assert_eq!(select(w, 0), 3);
        assert_eq!(select(w, 1), 17);
        assert_eq!(select(w, 2), 63);
    }
}
