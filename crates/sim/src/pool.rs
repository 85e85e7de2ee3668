//! A persistent worker pool for running independent jobs side by side.
//!
//! [`parallel_map`](crate::parallel_map) used to spawn fresh scoped
//! threads on every call; for sweep grids invoked in a loop (bench rows,
//! figure harnesses) the spawn/join cost dominates cheap cells. The
//! [`WorkerPool`] here is spawned once per process ([`WorkerPool::global`])
//! and parks its workers on a condvar between jobs, so a dispatch costs a
//! mutex hand-off instead of `threads − 1` thread spawns.
//!
//! The pool exposes exactly one primitive — [`WorkerPool::broadcast`],
//! "run this closure once per participant, caller included" — and
//! `parallel_map` passes it a closure that drains an atomic-cursor item
//! queue (each participant loops popping chunks until empty). A
//! simulation runs on one thread; the parallelism is across runs, which
//! share nothing.
//!
//! # Safety model
//!
//! `broadcast` lends the workers a `&(dyn Fn(usize) + Sync)` whose
//! lifetime is erased to `'static` while it sits in the job slot. This is
//! sound because the submitting thread does not return until every
//! participant has deregistered from the job under the pool mutex — the
//! borrow therefore strictly outlives every use, exactly the scoped-thread
//! argument. Worker panics are caught per participant, forwarded to the
//! submitter, and re-raised there (first payload wins), so a panicking job
//! never poisons the pool for the next caller.
//!
//! A broadcast made from inside a participant (a `parallel_map` whose
//! closure calls `parallel_map`, as a figure cell that averages over
//! seeds does) runs inline on that participant. Posting it as a job would
//! wait for the enclosing job to drain, and the enclosing job waits for
//! this participant: a deadlock with every thread parked.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Set while this thread runs a participant of some job (a worker
    /// thread, always): a broadcast made from there runs inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Lock a pool mutex, recovering the guard if a participant panicked
/// while holding it. The pool's own state transitions are all trivially
/// restorable (counters and an `Option<Job>`), so poisoning carries no
/// information beyond the panic we already forward explicitly.
fn lock_state(m: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `Condvar::wait` with the same poison recovery as [`lock_state`].
fn wait_on<'a>(cv: &Condvar, guard: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Type-erased pointer to the job closure. The submitter keeps the real
/// borrow alive for the whole job (see module docs), so dereferencing it
/// from a worker is sound for the duration of the job.
struct JobFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the submitter pins its lifetime past every worker's use; the raw
// pointer itself carries no thread affinity.
#[allow(unsafe_code)]
unsafe impl Send for JobFn {}

/// One dispatched job: the closure plus the participant slots workers may
/// still claim. Slot 0 always belongs to the submitting thread.
struct Job {
    f: JobFn,
    /// Next participant index to hand to a worker (slot 0 is the caller's).
    next_slot: usize,
    /// Participant slots not yet claimed by a worker.
    unclaimed: usize,
}

/// Mutex-guarded pool state.
struct PoolState {
    /// Bumped once per `broadcast` so parked workers can tell a new job
    /// from a spurious wakeup (and from a job they already served).
    epoch: u64,
    job: Option<Job>,
    /// Worker participants still running the current job.
    active: usize,
    /// First panic payload raised by a worker participant of this job.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here until `active` drains to zero.
    done_cv: Condvar,
}

/// A long-lived pool of parked worker threads dispatching borrowed jobs.
pub struct WorkerPool {
    shared: &'static PoolShared,
    handles: Vec<JoinHandle<()>>,
    n_workers: usize,
}

impl WorkerPool {
    /// Spawn a pool with `n_workers` parked threads (0 is allowed: every
    /// broadcast then runs entirely on the caller).
    pub fn new(n_workers: usize) -> Self {
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        // A failed spawn degrades the pool instead of aborting the run:
        // `n_workers` reflects the threads actually parked, and every
        // consumer already treats participant count as a ceiling.
        let handles: Vec<JoinHandle<()>> = (0..n_workers)
            .filter_map(|_| {
                std::thread::Builder::new()
                    .name("jmso-pool-worker".into())
                    .spawn(move || worker_loop(shared))
                    .ok()
            })
            .collect();
        let n_workers = handles.len();
        Self {
            shared,
            handles,
            n_workers,
        }
    }

    /// The process-wide pool. Sized by the `JMSO_THREADS` env var when set
    /// to a positive integer — the value is the **total participant
    /// count** (caller included), so `JMSO_THREADS=8` parks 7 workers.
    /// This lets bench runs and CI pin the sweep width reproducibly.
    /// Without the var the pool is sized to `available_parallelism − 1`
    /// workers.
    /// Spawned on first use and kept for the process lifetime.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let pinned = std::env::var("JMSO_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1);
            let threads = pinned.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            WorkerPool::new(threads.saturating_sub(1))
        })
    }

    /// Workers parked in this pool (participants available beyond the
    /// caller).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Run `f(slot)` once per participant slot `0..participants`, slot 0
    /// on the calling thread and the rest on pool workers, and return once
    /// every participant has finished. If fewer workers than
    /// `participants − 1` exist, the extra slots are simply not run —
    /// callers must treat participant count as a ceiling, not a promise
    /// (the in-crate consumer drains a shared queue, where a missing
    /// participant only shifts work to the others).
    ///
    /// Panics raised inside any participant are re-raised here after all
    /// participants have stopped.
    ///
    /// Called from inside a participant of any pool's job, it runs only
    /// slot 0, inline (see the module docs).
    #[allow(unsafe_code)]
    pub fn broadcast(&self, participants: usize, f: &(dyn Fn(usize) + Sync)) {
        let worker_slots = participants.saturating_sub(1).min(self.n_workers);
        if worker_slots == 0 || IN_JOB.get() {
            if participants > 0 {
                f(0);
            }
            return;
        }
        // SAFETY: only the lifetime is erased; this thread blocks below
        // until `active == 0`, so the borrow outlives every worker use.
        let erased: JobFn = JobFn(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                f as *const _,
            )
        });
        {
            let mut st = lock_state(&self.shared.state);
            // Serialize concurrent submitters: a new job may only be
            // posted once the previous one has fully drained (its
            // submitter clears `job` and re-notifies `done_cv`).
            while st.job.is_some() {
                st = wait_on(&self.shared.done_cv, st);
            }
            st.job = Some(Job {
                f: erased,
                next_slot: 1,
                unclaimed: worker_slots,
            });
            st.active = worker_slots;
            st.panic = None;
            st.epoch += 1;
            self.shared.work_cv.notify_all();
        }

        // The caller is participant 0. Catch its panic so the workers are
        // always drained before unwinding out of the pool.
        IN_JOB.set(true);
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        IN_JOB.set(false);

        let mut st = lock_state(&self.shared.state);
        while st.active > 0 {
            st = wait_on(&self.shared.done_cv, st);
        }
        st.job = None;
        let worker_panic = st.panic.take();
        // Wake any submitter parked on the drain above.
        self.shared.done_cv.notify_all();
        drop(st);

        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[allow(unsafe_code)]
fn worker_loop(shared: &'static PoolShared) {
    IN_JOB.set(true);
    let mut served_epoch = 0u64;
    loop {
        // Claim a participant slot of a job we have not served yet.
        let (f, slot) = {
            let mut st = lock_state(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > served_epoch {
                    // A job newer than the one we last served: claim a
                    // slot if any remain, otherwise skip this epoch.
                    served_epoch = st.epoch;
                    if let Some(job) = st.job.as_mut() {
                        if job.unclaimed > 0 {
                            job.unclaimed -= 1;
                            let slot = job.next_slot;
                            job.next_slot += 1;
                            break (job.f.0, slot);
                        }
                    }
                }
                st = wait_on(&shared.work_cv, st);
            }
        };

        // SAFETY: the submitter blocks until we decrement `active`, so the
        // closure behind the pointer is alive for this call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*f)(slot) }));

        let mut st = lock_state(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A reusable spin barrier: participants spin with
/// [`std::hint::spin_loop`] on a generation counter, and after
/// [`SPIN_BUDGET`](Self) polls yield their timeslice, so participants
/// that outnumber the cores cannot livelock it.
///
/// Used only by the benchmark harness's `sim.pool.barrier_ns` fixture;
/// the `benchmark`-labelled change that moves `open-sharded` to
/// `Scenario::run_with` removes both.
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
    use std::sync::atomic::AtomicU64;

    #[test]
    fn broadcast_runs_every_slot_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.broadcast(4, &|slot| {
            hits[slot].fetch_add(1, Ordering::Relaxed);
        });
        for (slot, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "slot {slot}");
        }
    }

    #[test]
    fn broadcast_reuses_the_same_workers() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.broadcast(3, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn zero_and_one_participants_run_inline() {
        let pool = WorkerPool::new(2);
        pool.broadcast(0, &|_| panic!("no participants, no calls"));
        let ran = AtomicU64::new(0);
        pool.broadcast(1, &|slot| {
            assert_eq!(slot, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    /// A broadcast from inside a participant runs inline instead of
    /// waiting for the enclosing job to drain. Under a watchdog, so that
    /// a deadlock fails the test instead of hanging the suite.
    #[test]
    fn nested_broadcast_runs_inline() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = WorkerPool::new(1);
            let outer = AtomicU64::new(0);
            let inner = AtomicU64::new(0);
            pool.broadcast(2, &|_| {
                outer.fetch_add(1, Ordering::Relaxed);
                pool.broadcast(2, &|slot| {
                    assert_eq!(slot, 0, "a nested broadcast runs slot 0 only");
                    inner.fetch_add(1, Ordering::Relaxed);
                });
            });
            let _ = tx.send((outer.into_inner(), inner.into_inner()));
        });
        let counts = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("nested broadcast finished within 60 s");
        assert_eq!(counts, (2, 2));
    }

    #[test]
    fn participant_ceiling_clamps_to_pool_size() {
        let pool = WorkerPool::new(1);
        let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        pool.broadcast(8, &|slot| {
            hits[slot].fetch_add(1, Ordering::Relaxed);
        });
        let ran: u64 = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
        assert_eq!(ran, 2, "caller + one worker");
        assert_eq!(hits[0].load(Ordering::Relaxed), 1, "caller is slot 0");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(3, &|slot| {
                assert!(slot != 1, "boom in worker");
            });
        }));
        assert!(result.is_err(), "panic must cross the broadcast");
        // The pool still serves jobs afterwards.
        let ok = AtomicU64::new(0);
        pool.broadcast(3, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, &|slot| {
                assert!(slot != 0, "boom in caller");
            });
        }));
        assert!(result.is_err());
        let ok = AtomicU64::new(0);
        pool.broadcast(2, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const _;
        let b = WorkerPool::global() as *const _;
        assert_eq!(a, b);
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
