//! A phased worker pool: `shards - 1` persistent scoped threads plus the
//! caller, released together once per [`Pool::broadcast`] and joined at
//! a generation barrier before it returns. Nothing here knows what a
//! simulator is — the slot engine's two per-slot phases are closures.
//!
//! * **Barrier.** `go` counts broadcasts released, `done` counts worker
//!   completions. The caller publishes the job, then `go.store(g,
//!   Release)`; a worker runs the job only after `go.load(Acquire) >= g`,
//!   then `done.fetch_add(1, Release)`; the caller returns only after
//!   `done.load(Acquire)` reaches `workers * g`. Everything the caller
//!   wrote before the broadcast is visible to the job, and everything
//!   the job wrote is visible to the caller after it.
//! * **Spin or park.** With a core per shard the waits spin then yield
//!   (lowest latency, no syscalls). With more shards than
//!   `available_parallelism` a yield-wait burns the scheduler quantum
//!   the sibling shard needs (~10 µs per phase on a 1-core host), so
//!   waits spin briefly and then park on a condvar.
//! * **Panics.** A worker's unwind is caught and re-raised on the caller
//!   after the barrier (a worker dying before its `done` increment would
//!   deadlock the run); the caller's own unwind waits for the workers
//!   first, and dropping the [`Pool`] — on any exit from [`scoped`]'s
//!   body, unwinding included — releases them to exit.
//! * **One shard.** No thread, no barrier: `broadcast(f)` is `f(0)`.
//!
//! [`Disjoint`] hands each shard its own `&mut` range of a slice, once.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Lock a mutex whose every update is a single assignment, so the data
/// is valid even if a holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Job = &'static (dyn Fn(usize) + Sync);

struct Shared {
    /// The current broadcast's closure; `None` outside a broadcast, so a
    /// released generation with no job is the stop signal.
    job: Mutex<Option<Job>>,
    go: AtomicU64,
    done: AtomicU64,
    /// First worker panic of the current broadcast.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    park: bool,
    /// Park-mode wakeup channel. The atomics stay the source of truth;
    /// the mutex/condvar only carry the wakeup.
    gate: Mutex<()>,
    cvar: Condvar,
}

impl Shared {
    /// Make a just-performed atomic store visible to parked waiters.
    /// Taking (and dropping) the gate before the notify closes the
    /// lost-wakeup window: a waiter that saw the predicate false under
    /// the gate is already inside `Condvar::wait`, so the notify cannot
    /// land between its check and its sleep.
    fn signal(&self) {
        if self.park {
            drop(lock(&self.gate));
            self.cvar.notify_all();
        }
    }

    fn wait(&self, cond: impl Fn() -> bool) {
        let mut spins = 0u32;
        while !cond() {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else if self.park {
                let mut guard = lock(&self.gate);
                while !cond() {
                    guard = self
                        .cvar
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            } else {
                std::thread::yield_now();
            }
        }
    }

    fn work(&self, s: usize) {
        let mut generation: u64 = 1;
        loop {
            self.wait(|| self.go.load(Ordering::Acquire) >= generation);
            let Some(job) = *lock(&self.job) else { return };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| job(s))) {
                lock(&self.panic).get_or_insert(p);
            }
            self.done.fetch_add(1, Ordering::Release);
            self.signal();
            generation += 1;
        }
    }
}

/// The caller's handle on the pool. `&mut self` on
/// [`broadcast`](Pool::broadcast) makes broadcasts sequential and
/// non-reentrant by construction.
pub(crate) struct Pool<'a> {
    shared: &'a Shared,
    workers: u64,
    generation: u64,
}

/// Run `body` with a pool of `shards` shards: the calling thread is
/// shard 0 and `shards - 1` scoped workers are spawned (none at one
/// shard). The workers exit when `body` returns or unwinds.
pub(crate) fn scoped<R>(shards: usize, body: impl FnOnce(&mut Pool<'_>) -> R) -> R {
    assert!(shards >= 1, "a pool has at least the calling shard");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let shared = Shared {
        job: Mutex::new(None),
        go: AtomicU64::new(0),
        done: AtomicU64::new(0),
        panic: Mutex::new(None),
        park: shards > cores,
        gate: Mutex::new(()),
        cvar: Condvar::new(),
    };
    std::thread::scope(|scope| {
        // The handle exists before the first spawn, so its `Drop` runs —
        // and stops every worker spawned so far — on any way out of this
        // closure, before the scope joins.
        let mut pool = Pool {
            shared: &shared,
            workers: (shards - 1) as u64,
            generation: 0,
        };
        for s in 1..shards {
            let shared = &shared;
            scope.spawn(move || shared.work(s));
        }
        body(&mut pool)
    })
}

impl Pool<'_> {
    /// Run `f(s)` once for every shard `s` — `f(0)` on this thread, the
    /// rest on the workers — and return when all have finished. A panic
    /// in any shard is re-raised here, after the barrier.
    pub(crate) fn broadcast(&mut self, f: &(dyn Fn(usize) + Sync)) {
        if self.workers == 0 {
            return f(0);
        }
        let sh = self.shared;
        // SAFETY: only the borrow's lifetime is erased. A worker calls
        // the job only between observing this generation's `go` and its
        // own `done` increment, and this function does not return or
        // unwind before `done` has reached every worker's increment for
        // this generation (the caller's own panic is caught and held
        // across the wait), so `f` outlives every call through `job`.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(f) };
        *lock(&sh.job) = Some(job);
        self.generation += 1;
        sh.go.store(self.generation, Ordering::Release);
        sh.signal();
        let mine = catch_unwind(AssertUnwindSafe(|| f(0)));
        let target = self.workers * self.generation;
        sh.wait(|| sh.done.load(Ordering::Acquire) >= target);
        *lock(&sh.job) = None;
        let theirs = lock(&sh.panic).take();
        if let Some(p) = mine.err().or(theirs) {
            resume_unwind(p);
        }
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        if self.workers > 0 {
            *lock(&self.shared.job) = None;
            self.shared.go.store(self.generation + 1, Ordering::Release);
            self.shared.signal();
        }
    }
}

/// A `&mut [T]` split into one contiguous range per shard, each handed
/// out exactly once: shard `s` owns `[cuts[s], cuts[s + 1])`. Built on
/// the caller before a broadcast, taken from inside it.
pub(crate) struct Disjoint<'a, T>(Vec<Mutex<Option<&'a mut [T]>>>);

impl<'a, T> Disjoint<'a, T> {
    /// `cuts` has one entry per shard plus a final one and must tile the
    /// slice: `cuts[0] == 0`, nondecreasing, `cuts[last] == slice.len()`.
    pub(crate) fn new(slice: &'a mut [T], cuts: &[usize]) -> Disjoint<'a, T> {
        assert_eq!(cuts[0], 0, "shard ranges must start at 0");
        let mut rest = slice;
        let parts = cuts
            .windows(2)
            .map(|w| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
                rest = tail;
                Mutex::new(Some(head))
            })
            .collect();
        assert!(rest.is_empty(), "shard ranges must cover the whole slice");
        Disjoint(parts)
    }

    /// Shard `s`'s range.
    ///
    /// # Panics
    /// If the range was already taken.
    pub(crate) fn take(&self, s: usize) -> &'a mut [T] {
        lock(&self.0[s])
            .take()
            .expect("shard range taken twice in one phase")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_shard_runs_exactly_once_per_broadcast() {
        // 8 shards exceeds the cores of any CI host this runs on, so the
        // park-mode waits are exercised too.
        for shards in [1usize, 2, 4, 8] {
            let mut hits = vec![0u64; shards];
            let cuts: Vec<usize> = (0..=shards).collect();
            scoped(shards, |pool| {
                for generation in 1..=10_000u64 {
                    let cells = Disjoint::new(&mut hits, &cuts);
                    pool.broadcast(&|s| cells.take(s)[0] += 1);
                    drop(cells);
                    assert!(
                        hits.iter().all(|&h| h == generation),
                        "shards={shards} generation={generation}: {hits:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn one_shard_runs_inline_and_spawns_nothing() {
        let caller = std::thread::current().id();
        scoped(1, |pool| {
            assert_eq!(pool.workers, 0);
            pool.broadcast(&|s| {
                assert_eq!(s, 0);
                assert_eq!(std::thread::current().id(), caller);
            });
        });
    }

    #[test]
    fn worker_panic_is_reraised_and_drop_does_not_hang() {
        for shards in [2usize, 4, 8] {
            for bad in [0, shards - 1] {
                let ran = AtomicUsize::new(0);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    scoped(shards, |pool| {
                        pool.broadcast(&|s| {
                            ran.fetch_add(1, Ordering::Relaxed);
                            if s == bad {
                                panic!("shard {s} failed");
                            }
                        });
                        unreachable!("broadcast must re-raise");
                    })
                }));
                let msg = *r.unwrap_err().downcast::<String>().unwrap();
                assert_eq!(msg, format!("shard {bad} failed"));
                // The barrier held: every shard ran before the re-raise.
                assert_eq!(ran.load(Ordering::Relaxed), shards);
            }
        }
    }

    #[test]
    fn caller_panic_between_broadcasts_releases_the_workers() {
        let r = catch_unwind(|| {
            scoped(4, |pool| {
                pool.broadcast(&|_| {});
                panic!("caller failed");
            })
        });
        assert_eq!(*r.unwrap_err().downcast::<&str>().unwrap(), "caller failed");
    }

    #[test]
    fn disjoint_ranges_tile_an_indivisible_slice() {
        for (n, shards) in [(10usize, 3usize), (7, 4), (3, 8), (128, 5)] {
            let cuts: Vec<usize> = (0..=shards).map(|s| s * n / shards).collect();
            let mut data: Vec<usize> = vec![usize::MAX; n];
            let d = Disjoint::new(&mut data, &cuts);
            for s in 0..shards {
                let part = d.take(s);
                assert_eq!(part.len(), cuts[s + 1] - cuts[s]);
                part.fill(s);
            }
            drop(d);
            // Every element written once, by the shard its cut names.
            for (i, &v) in data.iter().enumerate() {
                assert!(cuts[v] <= i && i < cuts[v + 1], "n={n} i={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn taking_a_range_twice_panics() {
        let mut data = [0u8; 4];
        let d = Disjoint::new(&mut data, &[0, 2, 4]);
        let _a = d.take(1);
        let _b = d.take(1);
    }

    #[test]
    #[should_panic(expected = "cover the whole slice")]
    fn cuts_that_do_not_cover_the_slice_are_rejected() {
        let mut data = [0u8; 5];
        let _ = Disjoint::new(&mut data, &[0, 2, 4]);
    }
}
