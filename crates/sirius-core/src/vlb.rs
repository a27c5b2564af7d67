//! Valiant load-balanced routing (§4.2).
//!
//! Sirius routes traffic from a node uniformly across all other nodes on a
//! cell-by-cell basis; the chosen *intermediate* then forwards the cell to
//! its destination on its own scheduled slot. This converts any demand
//! matrix into a uniform one, which is exactly what the static cyclic
//! schedule provides capacity for, at a worst-case 2x throughput cost
//! (compensated by the uplink factor).
//!
//! We pick intermediates uniformly from all nodes except the source and the
//! destination, so every cell takes exactly two optical hops. (Routing *via*
//! the destination would collapse to a direct hop; excluding it keeps the
//! congestion-control queue bound meaningful at every receiver and matches
//! the distributed-DRRM analogy of §4.3.) Failed nodes are excluded.

use crate::bits;
use crate::topology::NodeId;
use rand::Rng;

/// Chooses intermediates for Valiant load balancing.
///
/// Keeps an alive-node set so failures (§4.5) shrink the detour set instead
/// of blackholing traffic.
#[derive(Debug, Clone)]
pub struct Vlb {
    nodes: usize,
    /// Alive nodes as a [`bits`] set, so the repaired-schedule pick can AND
    /// it against reachability rows.
    alive: Vec<u64>,
    alive_count: usize,
}

impl Vlb {
    pub fn new(nodes: usize) -> Vlb {
        let mut alive = vec![0; bits::words(nodes)];
        (0..nodes).for_each(|i| bits::set(&mut alive, i));
        Vlb {
            nodes,
            alive,
            alive_count: nodes,
        }
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    pub fn is_alive(&self, n: NodeId) -> bool {
        bits::get(&self.alive, n.0 as usize)
    }

    /// Mark a node failed: it will no longer be chosen as an intermediate.
    pub fn mark_failed(&mut self, n: NodeId) {
        if self.is_alive(n) {
            bits::clear(&mut self.alive, n.0 as usize);
            self.alive_count -= 1;
        }
    }

    /// Mark a node recovered.
    pub fn mark_recovered(&mut self, n: NodeId) {
        if !self.is_alive(n) {
            bits::set(&mut self.alive, n.0 as usize);
            self.alive_count += 1;
        }
    }

    /// Pick an intermediate for a cell `src -> dst`, uniformly among alive
    /// nodes excluding both endpoints. Returns `None` if no eligible
    /// intermediate exists (e.g. a 2-node network or mass failure).
    pub fn pick<R: Rng + ?Sized>(&self, rng: &mut R, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let n = self.nodes;
        // Eligible count: alive nodes minus alive endpoints.
        let mut eligible = self.alive_count;
        if self.is_alive(src) {
            eligible -= 1;
        }
        if dst != src && self.is_alive(dst) {
            eligible -= 1;
        }
        if eligible == 0 {
            return None;
        }
        // Rejection sampling: with few failures this takes ~1 draw. Bound
        // the draws so a near-total failure (tiny alive fraction) cannot
        // stall the per-cell hot path for an unbounded number of rounds.
        for _ in 0..MAX_REJECTION_DRAWS {
            let c = NodeId(rng.gen_range(0..n as u32));
            if c != src && c != dst && self.is_alive(c) {
                return Some(c);
            }
        }
        // Fallback: one uniform draw over the eligible set by rank — O(n)
        // scan, still exactly uniform, and only reached when the eligible
        // fraction is so small that `MAX_REJECTION_DRAWS` misses repeatedly
        // (probability <= (1 - eligible/n)^MAX_REJECTION_DRAWS).
        let rank = rng.gen_range(0..eligible as u32);
        let mut seen = 0;
        for i in 0..n as u32 {
            let c = NodeId(i);
            if self.is_alive(c) && c != src && c != dst {
                if seen == rank {
                    return Some(c);
                }
                seen += 1;
            }
        }
        unreachable!("eligible count disagrees with the alive list")
    }

    /// Like [`pick`](Self::pick), but restricted to the intermediates in
    /// both `from` and `to` ([`bits`] sets over the nodes) — the nodes
    /// still reachable from the source *and* able to reach the destination
    /// through a column-repaired schedule (§4.5 link-granular repair; the
    /// rows come from
    /// [`AdjustedSchedule::usable_from`](crate::repair::AdjustedSchedule::usable_from)
    /// and [`usable_to`](crate::repair::AdjustedSchedule::usable_to)). The
    /// distribution is exactly uniform over the surviving eligible set,
    /// which is counted in a few word operations rather than per node.
    ///
    /// This is a separate entry point rather than the default so the
    /// healthy fast path keeps its O(1) eligible count (and its exact RNG
    /// draw sequence, which run digests depend on).
    pub fn pick_masked<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        src: NodeId,
        dst: NodeId,
        from: &[u64],
        to: &[u64],
    ) -> Option<NodeId> {
        // Word `w` of the eligible set: alive, usable both ways, and not
        // an endpoint.
        let word = |w: usize| {
            let mut x = self.alive[w] & from[w] & to[w];
            for e in [src.0 as usize, dst.0 as usize] {
                if e >> 6 == w {
                    x &= !(1 << (e & 63));
                }
            }
            x
        };
        let words = self.alive.len();
        let eligible: u32 = (0..words).map(|w| word(w).count_ones()).sum();
        if eligible == 0 {
            return None;
        }
        for _ in 0..MAX_REJECTION_DRAWS {
            let c = rng.gen_range(0..self.nodes as u32);
            if word(c as usize >> 6) & (1 << (c & 63)) != 0 {
                return Some(NodeId(c));
            }
        }
        let mut rank = rng.gen_range(0..eligible);
        for w in 0..words {
            let x = word(w);
            if rank < x.count_ones() {
                return Some(NodeId(w as u32 * 64 + bits::select(x, rank)));
            }
            rank -= x.count_ones();
        }
        unreachable!("eligible count disagrees with the masked alive set")
    }

    /// The per-node closure form [`pick_masked`](Self::pick_masked)
    /// replaced, kept as the reference the masked pick is tested against:
    /// same result and same draws for `usable(c) = c ∈ from ∩ to`.
    #[cfg(test)]
    fn pick_where<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        src: NodeId,
        dst: NodeId,
        usable: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        let n = self.nodes;
        let ok = |c: NodeId| c != src && c != dst && self.is_alive(c) && usable(c);
        let eligible = (0..n as u32).filter(|&i| ok(NodeId(i))).count();
        if eligible == 0 {
            return None;
        }
        for _ in 0..MAX_REJECTION_DRAWS {
            let c = NodeId(rng.gen_range(0..n as u32));
            if ok(c) {
                return Some(c);
            }
        }
        let rank = rng.gen_range(0..eligible as u32);
        (0..n as u32)
            .map(NodeId)
            .filter(|&c| ok(c))
            .nth(rank as usize)
    }
}

/// Rejection-sampling attempts before [`Vlb::pick`] falls back to a linear
/// scan. 32 misses at even a 10% alive fraction has probability ~3e-2;
/// below that the O(n) fallback is cheap relative to the failure state.
const MAX_REJECTION_DRAWS: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn never_picks_endpoints() {
        let v = Vlb::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let i = v.pick(&mut rng, NodeId(2), NodeId(5)).unwrap();
            assert_ne!(i, NodeId(2));
            assert_ne!(i, NodeId(5));
        }
    }

    #[test]
    fn uniform_over_eligible_nodes() {
        let v = Vlb::new(10);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0u32; 10];
        let n = 80_000;
        for _ in 0..n {
            let i = v.pick(&mut rng, NodeId(0), NodeId(1)).unwrap();
            counts[i.0 as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 0);
        let expect = n as f64 / 8.0;
        for &c in &counts[2..] {
            assert!(
                (c as f64 - expect).abs() < expect * 0.1,
                "non-uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn excludes_failed_nodes() {
        let mut v = Vlb::new(5);
        v.mark_failed(NodeId(3));
        assert_eq!(v.alive_count(), 4);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..500 {
            let i = v.pick(&mut rng, NodeId(0), NodeId(1)).unwrap();
            assert_ne!(i, NodeId(3));
        }
        v.mark_recovered(NodeId(3));
        assert_eq!(v.alive_count(), 5);
        let mut saw3 = false;
        for _ in 0..500 {
            saw3 |= v.pick(&mut rng, NodeId(0), NodeId(1)).unwrap() == NodeId(3);
        }
        assert!(saw3);
    }

    #[test]
    fn none_when_no_intermediate_exists() {
        let v = Vlb::new(2);
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(v.pick(&mut rng, NodeId(0), NodeId(1)), None);

        let mut v = Vlb::new(4);
        v.mark_failed(NodeId(2));
        v.mark_failed(NodeId(3));
        assert_eq!(v.pick(&mut rng, NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn self_traffic_excludes_only_source() {
        // src == dst (intra-node traffic shouldn't reach VLB, but the API
        // must not underflow the eligible count).
        let v = Vlb::new(3);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            let i = v.pick(&mut rng, NodeId(1), NodeId(1)).unwrap();
            assert_ne!(i, NodeId(1));
        }
    }

    #[test]
    fn near_total_failure_terminates_and_stays_uniform() {
        // 4096 nodes with three survivors: a random draw hits an eligible
        // node with probability ~2/4096, so the bounded rejection loop
        // almost always misses and the linear-scan fallback must both
        // terminate and stay exactly uniform over the eligible pair.
        let n = 4096;
        let mut v = Vlb::new(n);
        for i in 0..n {
            if ![17, 1000, 3000].contains(&i) {
                v.mark_failed(NodeId(i as u32));
            }
        }
        assert_eq!(v.alive_count(), 3);
        let mut rng = SmallRng::seed_from_u64(13);
        let (mut a, mut b) = (0u32, 0u32);
        for _ in 0..2000 {
            let i = v.pick(&mut rng, NodeId(17), NodeId(5)).unwrap();
            match i.0 {
                1000 => a += 1,
                3000 => b += 1,
                other => panic!("picked ineligible node {other}"),
            }
        }
        assert!(a > 800 && b > 800, "skewed fallback: {a} vs {b}");

        // One survivor that is also the source: nothing eligible.
        let mut v = Vlb::new(64);
        for i in 1..64 {
            v.mark_failed(NodeId(i));
        }
        assert_eq!(v.pick(&mut rng, NodeId(0), NodeId(9)), None);
    }

    /// The [`bits`] set of the nodes in `0..n` satisfying `keep`.
    fn mask(n: usize, mut keep: impl FnMut(u32) -> bool) -> Vec<u64> {
        let mut m = vec![0; bits::words(n)];
        for i in 0..n {
            if keep(i as u32) {
                bits::set(&mut m, i);
            }
        }
        m
    }

    #[test]
    fn masked_pick_respects_the_masks_and_stays_uniform() {
        let v = Vlb::new(10);
        let mut rng = SmallRng::seed_from_u64(21);
        // Only even intermediates are usable (say, odd ones lost the TX
        // column serving the destination's group).
        let (from, to) = (mask(10, |_| true), mask(10, |c| c % 2 == 0));
        let mut counts = [0u32; 10];
        let n = 40_000;
        for _ in 0..n {
            let i = v
                .pick_masked(&mut rng, NodeId(0), NodeId(2), &from, &to)
                .unwrap();
            counts[i.0 as usize] += 1;
        }
        // Eligible: {4, 6, 8} (0 is src, 2 is dst, odds filtered).
        for (i, &c) in counts.iter().enumerate() {
            if [4, 6, 8].contains(&i) {
                let expect = n as f64 / 3.0;
                assert!(
                    (c as f64 - expect).abs() < expect * 0.1,
                    "non-uniform: {counts:?}"
                );
            } else {
                assert_eq!(c, 0, "picked filtered-out node {i}");
            }
        }
    }

    #[test]
    fn masked_pick_none_when_the_masks_empty_the_set() {
        let mut v = Vlb::new(6);
        v.mark_failed(NodeId(4));
        let mut rng = SmallRng::seed_from_u64(23);
        // The masks pass only the failed node and the endpoints.
        let (from, to) = (mask(6, |c| c <= 1 || c == 4), mask(6, |_| true));
        assert_eq!(
            v.pick_masked(&mut rng, NodeId(0), NodeId(1), &from, &to),
            None
        );
        // Unfiltered pick still succeeds.
        assert!(v.pick(&mut rng, NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    fn masked_pick_matches_pick_with_full_masks() {
        // With every pair usable the two entry points draw from identical
        // distributions (they share the rejection-sampling structure).
        let v = Vlb::new(8);
        let all = mask(8, |_| true);
        let mut rng_a = SmallRng::seed_from_u64(29);
        let mut rng_b = SmallRng::seed_from_u64(29);
        for _ in 0..2000 {
            let a = v.pick(&mut rng_a, NodeId(1), NodeId(6)).unwrap();
            let b = v
                .pick_masked(&mut rng_b, NodeId(1), NodeId(6), &all, &all)
                .unwrap();
            assert_eq!(a, b, "full masks diverged from plain pick");
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Word-wise pick ≡ per-node closure pick: same intermediate,
            /// same draws, from nothing eligible (no draw) through sparse
            /// sets (the rank fallback) to nearly everything eligible.
            #[test]
            fn masked_pick_matches_the_closure_pick(
                n in 3usize..200,
                density in 0u32..=100,
                seed in 0u64..10_000,
            ) {
                let mut setup = SmallRng::seed_from_u64(seed);
                let mut coin = |pct: u32| setup.gen_range(0..100u32) < pct;
                let mut v = Vlb::new(n);
                for i in 0..n as u32 {
                    if coin(30) {
                        v.mark_failed(NodeId(i));
                    }
                }
                let from = mask(n, |_| coin(density));
                let to = mask(n, |_| coin(density));
                let (mut rng_m, mut rng_c) =
                    (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
                for k in 0..40u32 {
                    let (src, dst) = (NodeId(k % n as u32), NodeId(k * 7 % n as u32));
                    let masked = v.pick_masked(&mut rng_m, src, dst, &from, &to);
                    let closure = v.pick_where(&mut rng_c, src, dst, |c| {
                        bits::get(&from, c.0 as usize) && bits::get(&to, c.0 as usize)
                    });
                    prop_assert_eq!(masked, closure);
                    prop_assert_eq!(format!("{rng_m:?}"), format!("{rng_c:?}"));
                }
            }
        }
    }

    #[test]
    fn double_failure_is_idempotent() {
        let mut v = Vlb::new(4);
        v.mark_failed(NodeId(0));
        v.mark_failed(NodeId(0));
        assert_eq!(v.alive_count(), 3);
        v.mark_recovered(NodeId(0));
        v.mark_recovered(NodeId(0));
        assert_eq!(v.alive_count(), 4);
    }
}
