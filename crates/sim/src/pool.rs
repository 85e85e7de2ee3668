//! What the benchmark harness still names of the old worker pool: a
//! hidden [`WorkerPool`] shim over the sweep's scoped participants, and
//! [`SpinBarrier`]. Nothing else in the workspace uses either; the
//! `benchmark`-labelled change that moves `open-sharded` to
//! `Scenario::run_with` and drops `sim.pool.barrier_ns` deletes this
//! file.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A participant ceiling for [`WorkerPool::broadcast`]; it holds no
/// threads. Each broadcast spawns its participants as scoped threads and
/// joins them before it returns.
#[doc(hidden)]
pub struct WorkerPool {
    n_workers: usize,
}

impl WorkerPool {
    /// A ceiling of `n_workers` participants beyond the caller (0 runs
    /// every broadcast entirely on the caller).
    pub fn new(n_workers: usize) -> Self {
        Self { n_workers }
    }

    /// Run `f(slot)` once per slot `0..min(participants, n_workers + 1)`,
    /// all at once: slot 0 on the calling thread, the rest on scoped
    /// threads. Returns once every participant has finished, re-raising
    /// the first panic payload (the caller's, else the lowest slot's).
    /// Called from inside a participant, it runs only slot 0, inline.
    pub fn broadcast(&self, participants: usize, f: &(dyn Fn(usize) + Sync)) {
        crate::sweep::participants(participants.min(self.n_workers + 1), f);
    }
}

/// A reusable spin barrier: participants spin with
/// [`std::hint::spin_loop`] on a generation counter, and after
/// [`SPIN_BUDGET`](Self) polls yield their timeslice, so participants
/// that outnumber the cores cannot livelock it.
///
/// Used only by the benchmark harness's `sim.pool.barrier_ns` fixture.
#[doc(hidden)]
pub struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `n` participants (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        Self {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Polls of the generation counter before a waiter starts yielding
    /// its timeslice (see the type docs for why yielding matters under
    /// oversubscription).
    const SPIN_BUDGET: u32 = 256;

    /// Block until all `n` participants have called `wait`, then release
    /// them together. Reusable: the generation counter makes each
    /// rotation distinct. Spins for [`Self::SPIN_BUDGET`] polls, then
    /// yields between polls.
    pub fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arrival: reset for the next rotation, then open the
            // gate. The Release store publishes the reset count (and all
            // writes the arrivals made) to every spinner's Acquire load.
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut polls = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if polls < Self::SPIN_BUDGET {
                    polls += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    /// How often one `broadcast(participants)` runs each of slots 0..8,
    /// checking that slot 0, and only slot 0, runs on the caller.
    fn hits(pool: &WorkerPool, participants: usize) -> Vec<u64> {
        let caller = std::thread::current().id();
        let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        pool.broadcast(participants, &|slot| {
            assert_eq!(slot == 0, std::thread::current().id() == caller);
            hits[slot].fetch_add(1, Ordering::Relaxed);
        });
        hits.into_iter().map(AtomicU64::into_inner).collect()
    }

    #[test]
    fn broadcast_runs_every_slot_exactly_once() {
        assert_eq!(hits(&WorkerPool::new(3), 4), [1, 1, 1, 1, 0, 0, 0, 0]);
    }

    /// Each broadcast leaves the caller outside any participant, so the
    /// next one runs every slot again rather than slot 0 inline.
    #[test]
    fn broadcast_runs_back_to_back() {
        let pool = WorkerPool::new(2);
        for _ in 0..100 {
            assert_eq!(hits(&pool, 3), [1, 1, 1, 0, 0, 0, 0, 0]);
        }
    }

    /// A broadcast from inside a participant runs only slot 0, on that
    /// participant's thread.
    #[test]
    fn nested_broadcast_runs_inline() {
        let pool = WorkerPool::new(1);
        let inner = AtomicU64::new(0);
        pool.broadcast(2, &|_| {
            let participant = std::thread::current().id();
            pool.broadcast(2, &|slot| {
                assert_eq!((slot, std::thread::current().id()), (0, participant));
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner.into_inner(), 2);
    }

    #[test]
    fn participant_ceiling_clamps_to_pool_size() {
        assert_eq!(hits(&WorkerPool::new(1), 8), [1, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn zero_and_one_participants_run_inline() {
        let pool = WorkerPool::new(2);
        pool.broadcast(0, &|_| panic!("no participants, no calls"));
        assert_eq!(hits(&pool, 1), [1, 0, 0, 0, 0, 0, 0, 0]);
    }

    /// A panic in a spawned participant comes back with its own payload,
    /// after the others finished.
    #[test]
    fn worker_panic_reraises_its_payload() {
        let finished = AtomicU64::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::new(2).broadcast(3, &|slot| {
                assert!(slot != 1, "boom in worker");
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("panic must cross the broadcast");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom in worker"));
        assert_eq!(finished.into_inner(), 2);
    }

    /// The caller's panic wins over a worker's, and leaves the caller's
    /// thread outside any participant: the next broadcast spawns again.
    #[test]
    fn caller_panic_reraises_its_payload() {
        let pool = WorkerPool::new(1);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, &|slot| {
                assert!(slot != 0, "boom in caller");
                panic!("boom in worker");
            });
        }))
        .expect_err("panic must cross the broadcast");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom in caller"));
        assert_eq!(hits(&pool, 2), [1, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn spin_barrier_synchronizes_phases() {
        let n = 4;
        let barrier = SpinBarrier::new(n);
        let phase_sum = AtomicU64::new(0);
        let pool = WorkerPool::new(n - 1);
        pool.broadcast(n, &|slot| {
            for round in 0..50u64 {
                phase_sum.fetch_add(round + slot as u64, Ordering::Relaxed);
                barrier.wait();
                // After the barrier every participant must observe the
                // full round's contributions.
                let expect_min = (n as u64) * round;
                assert!(
                    phase_sum.load(Ordering::Relaxed) >= expect_min,
                    "round {round} not fully published"
                );
                barrier.wait();
            }
        });
        // Σ_rounds Σ_slots (round + slot) = 50·(0+1+2+3) + 4·Σ rounds.
        let expect = 50 * 6 + 4 * (49 * 50 / 2);
        assert_eq!(phase_sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn spin_barrier_single_participant_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }
}
