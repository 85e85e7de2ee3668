//! Deterministic parallel execution of scenario grids.
//!
//! Figure sweeps are embarrassingly parallel (every cell is an independent
//! seeded simulation), so the runner is a small work queue dispatched onto
//! the persistent [`WorkerPool`]: an atomic cursor hands out cell indices
//! and each participant writes its result into that index's dedicated
//! `ResultSlot` — one lock per index, which only its one writer ever
//! takes, so wide sweeps never serialize on a shared result mutex. Output
//! order always equals input order regardless of which participant
//! finished first. Rayon would be the idiomatic tool but is not in the
//! offline crate set (DESIGN.md §6); this queue is ~40 lines and has no
//! ordering races by construction:
//! the cursor's `fetch_add` gives every index (or chunk of indices) to
//! exactly one participant, and [`WorkerPool::broadcast`] returns —
//! propagating panics — only after every participant has stopped, before
//! any slot is read.
//!
//! For long grids the cursor hands out chunks of 8 indices instead of 1
//! so a 10 000-cell sweep costs ~1 250 `fetch_add`s per thread-count
//! rather than one cache-line bounce per cell; short grids keep chunk 1
//! for best load balancing of uneven cells.

use crate::error::SimError;
use crate::pool::WorkerPool;
use crate::results::SimResult;
use crate::scenario::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Items-per-thread threshold beyond which the cursor switches from
/// single-index dispatch to [`CHUNK`]-sized dispatch.
const CHUNK_THRESHOLD: usize = 64;
/// Indices claimed per `fetch_add` on long grids.
const CHUNK: usize = 8;

/// One result cell, written by exactly one worker: the cursor hands each
/// index to one participant, so its lock is never contested.
struct ResultSlot<R>(Mutex<Option<R>>);

impl<R> ResultSlot<R> {
    fn empty() -> Self {
        ResultSlot(Mutex::new(None))
    }

    /// Store the result. Nothing panics while the lock is held (`f` runs
    /// before it is taken), so a poisoned lock cannot occur; it is
    /// recovered rather than unwrapped all the same.
    fn write(&self, value: R) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
    }

    fn into_inner(self) -> Option<R> {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Parallel map with deterministic output ordering.
///
/// Spawns `threads` workers (clamped to the item count; 0 means "one per
/// available CPU") that apply `f` to each item. Panics in `f` propagate.
///
/// ```
/// use jmso_sim::parallel_map;
///
/// let squares = parallel_map(&[1u64, 2, 3, 4], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]); // input order preserved
/// ```
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<ResultSlot<R>> = (0..items.len()).map(|_| ResultSlot::empty()).collect();
    let chunk = if items.len() / threads > CHUNK_THRESHOLD {
        CHUNK
    } else {
        1
    };

    WorkerPool::global().broadcast(threads, &|_slot| loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= items.len() {
            break;
        }
        for i in start..(start + chunk).min(items.len()) {
            slots[i].write(f(&items[i]));
        }
    });
    // `broadcast` returns only after every participant stopped (re-raising
    // any panic), so all slot writes happen-before these reads.

    slots
        .into_iter()
        .map(|slot| match slot.into_inner() {
            Some(r) => r,
            None => unreachable!("every index was processed"),
        })
        .collect()
}

/// [`parallel_map`] for fallible `f`: returns the first error in *input*
/// order (not completion order), discarding the other results. All items
/// still run — workers drain the queue regardless of earlier failures,
/// keeping the dispatch deterministic.
pub fn try_parallel_map<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    parallel_map(items, threads, f).into_iter().collect()
}

fn effective_threads(requested: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, items)
}

/// Run a batch of scenarios in parallel; results align with the input.
/// Any scenario validation or fault-plan error aborts the whole batch
/// before any cell runs; an error surfacing mid-run (e.g. from a fault
/// plan interacting with the engine) is propagated as the first failing
/// cell in input order instead of panicking the worker.
pub fn run_scenarios(scenarios: &[Scenario], threads: usize) -> Result<Vec<SimResult>, SimError> {
    for s in scenarios {
        s.validate()?;
        s.faults.compile(s.n_users, s.slots, 1)?;
    }
    try_parallel_map(scenarios, threads, |s| s.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmso_media::WorkloadSpec;
    use jmso_sched::SchedulerSpec;

    #[test]
    fn parallel_map_preserves_order() {
        // The satellite contract: ordering holds at 1 (sequential path),
        // 2 and 8 workers, one writer per result slot.
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map(&items, threads, |x| x * x);
            assert_eq!(out, expect, "order broken at {threads} threads");
        }
    }

    #[test]
    fn results_finished_out_of_order_come_back_in_input_order() {
        // Early items sleep longest, so the slots fill back to front.
        let items: Vec<u64> = (0..8).collect();
        let expect: Vec<String> = items.iter().map(u64::to_string).collect();
        for threads in [2, 8] {
            let out = parallel_map(&items, threads, |&x| {
                std::thread::sleep(std::time::Duration::from_millis(2 * (8 - x)));
                x.to_string()
            });
            assert_eq!(out, expect, "order broken at {threads} threads");
        }
    }

    #[test]
    fn parallel_map_handles_contention() {
        // More workers than items and a non-trivial payload type.
        let items: Vec<usize> = (0..17).collect();
        let out = parallel_map(&items, 8, |&x| vec![x; x % 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 3);
            assert!(v.iter().all(|&e| e == i));
        }
    }

    /// A figure cell that averages over seeds nests one `parallel_map` in
    /// another. Under a watchdog, so that a deadlock fails the test
    /// instead of hanging the suite.
    #[test]
    fn nested_parallel_map_completes() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rows = parallel_map(&[1u64, 2, 3, 4], 2, |&a| {
                parallel_map(&[10u64, 20, 30], 2, |&b| a * b)
                    .iter()
                    .sum::<u64>()
            });
            let _ = tx.send(rows);
        });
        let rows = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("nested parallel_map finished within 60 s");
        assert_eq!(rows, vec![60, 120, 180, 240]);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |x| *x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_chunked_dispatch_covers_every_index() {
        // 2 threads over 1024 items crosses the CHUNK_THRESHOLD, so the
        // cursor hands out 8-index chunks; coverage and order must hold.
        let items: Vec<u64> = (0..1024).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [2, 8] {
            assert_eq!(parallel_map(&items, threads, |x| x * 3), expect);
        }
    }

    #[test]
    fn try_parallel_map_returns_first_error_in_input_order() {
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 2, 8] {
            let out: Result<Vec<u64>, String> = try_parallel_map(&items, threads, |&x| {
                if x == 7 || x == 150 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            });
            assert_eq!(
                out.unwrap_err(),
                "bad 7",
                "input-order error broken at {threads} threads"
            );
        }
        let ok: Result<Vec<u64>, String> = try_parallel_map(&items, 4, |&x| Ok(x * 2));
        assert_eq!(ok.unwrap()[100], 200);
    }

    #[test]
    fn zero_threads_means_all_cpus() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, 0, |x| x + 1);
        assert_eq!(out[31], 32);
    }

    #[test]
    fn panics_propagate_from_workers() {
        for threads in [1, 2, 8] {
            let items: Vec<u64> = (0..64).collect();
            let result = std::panic::catch_unwind(|| {
                parallel_map(&items, threads, |&x| {
                    assert!(x != 13, "boom at 13");
                    x
                })
            });
            assert!(result.is_err(), "panic swallowed at {threads} threads");
        }
    }

    fn quick(n_users: usize, seed: u64) -> Scenario {
        let mut s = Scenario::paper_default(n_users);
        s.slots = 150;
        s.seed = seed;
        s.workload = WorkloadSpec {
            size_range_kb: (1_000.0, 2_000.0),
            rate_range_kbps: (300.0, 600.0),
            vbr_levels: None,
            vbr_segment_slots: 30,
        };
        s
    }

    /// Parallel sweep equals sequential execution cell-for-cell.
    #[test]
    fn sweep_matches_sequential() {
        let grid: Vec<Scenario> = (0..6)
            .map(|i| quick(2 + i % 3, i as u64).with_scheduler(SchedulerSpec::RtmaUnbounded))
            .collect();
        let par = run_scenarios(&grid, 4).unwrap();
        let seq: Vec<_> = grid.iter().map(|s| s.run().unwrap()).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn sweep_rejects_invalid_cells() {
        let mut bad = quick(2, 0);
        bad.n_users = 0;
        let err = match run_scenarios(&[bad], 2) {
            Err(e) => e.to_string(),
            Ok(_) => unreachable!("invalid cell must abort the sweep"),
        };
        assert!(err.contains("n_users"));
    }

    #[test]
    fn sweep_rejects_invalid_fault_plans_before_running() {
        use crate::faults::{FaultEvent, FaultSpec};
        let mut bad = quick(2, 0);
        bad.faults = FaultSpec::Declared {
            events: vec![FaultEvent::Departure { user: 9, slot: 10 }],
        };
        let err = match run_scenarios(&[quick(2, 1), bad], 2) {
            Err(e) => e.to_string(),
            Ok(_) => unreachable!("invalid fault plan must abort the sweep"),
        };
        assert!(err.contains("faults.events[0].user"), "{err}");
    }
}
