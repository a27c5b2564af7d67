//! A slab arena with a free list and intrusive FIFO links, for [`Cell`]s
//! ([`CellArena`]) and any other small `Copy` record a node queues per peer.
//!
//! Every queue in [`crate::node::SiriusNode`] is a [`Fifo`] — a
//! `{head, tail}` pair of `u32` handles — threaded through a per-node
//! arena by a per-slot `next` link, instead of a deque owning its own
//! heap buffer: the VOQs and relay queues through the node's cell arena,
//! one slot per cell, and the LOCAL queues through its run arena, one
//! slot per run of one flow's consecutive cells. A node keeps one queue
//! per peer for each of its three roles, in the per-peer records of the
//! pairs it uses, so the header is most of a record: 8 bytes here
//! against a 32-byte `VecDeque` header each. A steady-state run performs
//! zero queue-side heap traffic once the arenas reach their high-water
//! marks: freed slots are recycled LIFO through the free list, which is
//! threaded through the same links.
//!
//! Handles are plain indices; validity is the owning queue's discipline
//! (a handle lives in exactly one queue between `insert` and `remove`).
//! Debug builds track freed slots and panic on use-after-free or
//! double-free.

use crate::cell::Cell;

/// "No handle": an empty queue's ends, the last link of a chain.
const NIL: u32 = u32::MAX;

/// An intrusive FIFO of arena handles. Holds no storage of its own: the
/// links live in the [`Arena`] whose methods operate it, and a queue
/// must only ever be used with the one arena its handles came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    pub const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// The oldest handle, if any.
    #[inline]
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// The newest handle, if any.
    #[inline]
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }
}

/// The per-node cell store. See the module docs.
pub type CellArena = Arena<Cell>;

/// Slab of values + LIFO free list + per-slot FIFO link. See the module
/// docs.
#[derive(Debug, Clone)]
pub struct Arena<T> {
    slots: Vec<T>,
    /// Per slot: the next handle in whichever [`Fifo`] holds it, or the
    /// next free slot once removed.
    next: Vec<u32>,
    free_head: u32,
    free_len: u32,
    #[cfg(debug_assertions)]
    freed: Vec<bool>,
}

impl<T> Default for Arena<T> {
    fn default() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            next: Vec::new(),
            free_head: NIL,
            free_len: 0,
            #[cfg(debug_assertions)]
            freed: Vec::new(),
        }
    }
}

impl<T: Copy> Arena<T> {
    pub fn new() -> Arena<T> {
        Arena::default()
    }

    /// Store `value`, recycling a freed slot when one exists. Returns the
    /// handle to pass to [`get`](Self::get) / [`remove`](Self::remove).
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        if self.free_head != NIL {
            let h = self.free_head;
            self.free_head = self.next[h as usize];
            self.free_len -= 1;
            self.slots[h as usize] = value;
            #[cfg(debug_assertions)]
            {
                self.freed[h as usize] = false;
            }
            h
        } else {
            let h = u32::try_from(self.slots.len())
                .ok()
                .filter(|&h| h != NIL)
                .expect("arena handle overflow");
            self.slots.push(value);
            self.next.push(NIL);
            #[cfg(debug_assertions)]
            self.freed.push(false);
            h
        }
    }

    /// Read the value behind a live handle.
    #[inline]
    pub fn get(&self, h: u32) -> &T {
        #[cfg(debug_assertions)]
        debug_assert!(!self.freed[h as usize], "arena: read of freed slot {h}");
        &self.slots[h as usize]
    }

    /// Modify the value behind a live handle in place.
    #[inline]
    pub fn get_mut(&mut self, h: u32) -> &mut T {
        #[cfg(debug_assertions)]
        debug_assert!(!self.freed[h as usize], "arena: write of freed slot {h}");
        &mut self.slots[h as usize]
    }

    /// Take the value out and free its slot. The handle must already be
    /// out of every queue.
    #[inline]
    pub fn remove(&mut self, h: u32) -> T {
        #[cfg(debug_assertions)]
        {
            debug_assert!(!self.freed[h as usize], "arena: double free of slot {h}");
            self.freed[h as usize] = true;
        }
        self.next[h as usize] = self.free_head;
        self.free_head = h;
        self.free_len += 1;
        self.slots[h as usize]
    }

    /// Append live handle `h` to `q`.
    #[inline]
    pub fn push_back(&mut self, q: &mut Fifo, h: u32) {
        self.next[h as usize] = NIL;
        if q.tail == NIL {
            q.head = h;
        } else {
            self.next[q.tail as usize] = h;
        }
        q.tail = h;
    }

    /// Put live handle `h` ahead of everything in `q` (reclaim path).
    #[inline]
    pub fn push_front(&mut self, q: &mut Fifo, h: u32) {
        self.next[h as usize] = q.head;
        if q.head == NIL {
            q.tail = h;
        }
        q.head = h;
    }

    /// Unlink and return the oldest handle of `q`. The value stays in
    /// the arena.
    #[inline]
    pub fn pop_front(&mut self, q: &mut Fifo) -> Option<u32> {
        let h = q.head;
        if h == NIL {
            return None;
        }
        q.head = self.next[h as usize];
        if q.head == NIL {
            q.tail = NIL;
        }
        Some(h)
    }

    /// Unlink and return the newest handle of `q`. Walks the chain to
    /// find its predecessor, so only for queues with a small bound.
    pub fn pop_back(&mut self, q: &mut Fifo) -> Option<u32> {
        let t = q.tail;
        if t == NIL {
            return None;
        }
        if q.head == t {
            *q = Fifo::EMPTY;
            return Some(t);
        }
        let mut prev = q.head;
        while self.next[prev as usize] != t {
            prev = self.next[prev as usize];
        }
        self.next[prev as usize] = NIL;
        q.tail = prev;
        Some(t)
    }

    /// Unlink every handle of `q` whose value satisfies `out_if`,
    /// appending them to `out` oldest first; the rest keep their order in
    /// `q`.
    pub fn extract_where(
        &mut self,
        q: &mut Fifo,
        mut out_if: impl FnMut(&T) -> bool,
        out: &mut Vec<u32>,
    ) {
        let (mut prev, mut h) = (NIL, q.head);
        while h != NIL {
            let after = self.next[h as usize];
            if out_if(self.get(h)) {
                if prev == NIL {
                    q.head = after;
                } else {
                    self.next[prev as usize] = after;
                }
                out.push(h);
            } else {
                prev = h;
            }
            h = after;
        }
        q.tail = prev;
    }

    /// Handles queued in `q` (walks the chain: queues carry no count).
    pub fn fifo_len(&self, q: &Fifo) -> usize {
        let (mut len, mut h) = (0, q.head);
        while h != NIL {
            len += 1;
            h = self.next[h as usize];
        }
        len
    }

    /// Live values (inserted and not yet removed).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free_len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever allocated — the arena's high-water mark. Steady after
    /// warm-up; allocation-regression tests pin it.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes held (footprint tests).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<T>() + self.next.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::FlowId;
    use crate::topology::{NodeId, ServerId};

    fn cell(seq: u32) -> Cell {
        Cell {
            flow: FlowId(7),
            seq,
            payload: 540,
            src: NodeId(0),
            dst: NodeId(1),
            dst_server: ServerId(2),
            last: false,
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = CellArena::new();
        let h0 = a.insert(cell(0));
        let h1 = a.insert(cell(1));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h0).seq, 0);
        assert_eq!(a.get(h1).seq, 1);
        assert_eq!(a.remove(h0).seq, 0);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        assert_eq!(a.remove(h1).seq, 1);
        assert!(a.is_empty());
    }

    #[test]
    fn free_slots_are_recycled_and_capacity_is_stable() {
        let mut a = CellArena::new();
        let hs: Vec<u32> = (0..64).map(|k| a.insert(cell(k))).collect();
        assert_eq!(a.capacity(), 64);
        for &h in &hs {
            a.remove(h);
        }
        // A full churn cycle reuses the freed slots: no growth.
        for round in 0..10 {
            let hs: Vec<u32> = (0..64).map(|k| a.insert(cell(k * round))).collect();
            assert_eq!(a.capacity(), 64, "arena grew on round {round}");
            for &h in &hs {
                a.remove(h);
            }
        }
    }

    /// Drain `q` front to back, returning the cells' sequence numbers.
    fn drain(a: &mut CellArena, q: &mut Fifo) -> Vec<u32> {
        std::iter::from_fn(|| a.pop_front(q).map(|h| a.remove(h).seq)).collect()
    }

    #[test]
    fn fifos_share_one_arena_and_keep_their_own_order() {
        let mut a = CellArena::new();
        let (mut q0, mut q1) = (Fifo::EMPTY, Fifo::EMPTY);
        for k in 0..6 {
            let h = a.insert(cell(k));
            a.push_back(if k % 2 == 0 { &mut q0 } else { &mut q1 }, h);
        }
        let h = a.insert(cell(9));
        a.push_front(&mut q1, h);
        assert_eq!(a.fifo_len(&q0), 3);
        assert_eq!(a.get(q1.front().unwrap()).seq, 9);
        assert_eq!(drain(&mut a, &mut q0), [0, 2, 4]);
        assert_eq!(drain(&mut a, &mut q1), [9, 1, 3, 5]);
        assert!(q0.is_empty() && q1.is_empty() && a.is_empty());
        // A queue drained to empty takes pushes at either end again.
        let h = a.insert(cell(7));
        a.push_front(&mut q0, h);
        let h = a.insert(cell(8));
        a.push_back(&mut q0, h);
        assert_eq!(drain(&mut a, &mut q0), [7, 8]);
    }

    #[test]
    fn pop_back_drops_the_newest_down_to_empty() {
        let mut a = CellArena::new();
        let mut q = Fifo::EMPTY;
        for k in 0..3 {
            let h = a.insert(cell(k));
            a.push_back(&mut q, h);
        }
        for want in [2, 1] {
            let h = a.pop_back(&mut q).unwrap();
            assert_eq!(a.remove(h).seq, want);
        }
        let h = a.insert(cell(5));
        a.push_back(&mut q, h);
        assert_eq!(a.fifo_len(&q), 2);
        let h = a.pop_back(&mut q).unwrap();
        assert_eq!(a.remove(h).seq, 5);
        let h = a.pop_back(&mut q).unwrap();
        assert_eq!(a.remove(h).seq, 0);
        assert!(q.is_empty());
        assert_eq!(a.pop_back(&mut q), None);
    }

    #[test]
    fn extract_where_splits_a_queue_keeping_both_orders() {
        // Every subset of a 5-queue, including head, tail, all and none.
        for pattern in 0u32..32 {
            let mut a = CellArena::new();
            let mut q = Fifo::EMPTY;
            for k in 0..5 {
                let h = a.insert(cell(k));
                a.push_back(&mut q, h);
            }
            let mut out = Vec::new();
            a.extract_where(&mut q, |c| pattern >> c.seq & 1 == 1, &mut out);
            let pulled: Vec<u32> = out.iter().map(|&h| a.remove(h).seq).collect();
            let want: Vec<u32> = (0..5).filter(|k| pattern >> k & 1 == 1).collect();
            assert_eq!(pulled, want, "pattern {pattern:05b}");
            // The survivors still form a working queue.
            let h = a.insert(cell(5));
            a.push_back(&mut q, h);
            let mut kept: Vec<u32> = (0..5).filter(|k| pattern >> k & 1 == 0).collect();
            kept.push(5);
            assert_eq!(drain(&mut a, &mut q), kept, "pattern {pattern:05b}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut a = CellArena::new();
        let h = a.insert(cell(0));
        a.remove(h);
        a.remove(h);
    }
}
