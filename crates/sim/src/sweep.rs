//! Deterministic parallel execution of scenario grids.
//!
//! Figure sweeps are embarrassingly parallel (every cell is an independent
//! seeded simulation), so the runner is a work queue drained by scoped
//! threads ([`std::thread::scope`]): an atomic cursor hands out cell
//! indices, each participant keeps the `(index, result)` pairs it
//! computed and returns them through its join handle, and the caller
//! places them. Output order always equals input order regardless of
//! which participant finished first. Rayon would be the idiomatic tool
//! but is not in the offline crate set (DESIGN.md §6); this queue has no
//! ordering races by construction: the cursor's `fetch_add` gives every
//! index (or chunk of indices) to exactly one participant, and nothing is
//! placed until every participant has been joined.
//!
//! A `parallel_map` made from inside a participant (a figure cell that
//! averages over seeds nests one) runs sequentially on that thread, so
//! nesting never starts more threads than the outer call's width.
//!
//! For long grids the cursor hands out chunks of 8 indices instead of 1
//! so a 10 000-cell sweep costs ~1 250 `fetch_add`s per thread-count
//! rather than one cache-line bounce per cell; short grids keep chunk 1
//! for best load balancing of uneven cells.

use crate::error::SimError;
use crate::results::SimResult;
use crate::scenario::Scenario;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::ScopedJoinHandle;

/// Items-per-thread threshold beyond which the cursor switches from
/// single-index dispatch to [`CHUNK`]-sized dispatch.
const CHUNK_THRESHOLD: usize = 64;
/// Indices claimed per `fetch_add` on long grids.
const CHUNK: usize = 8;

thread_local! {
    /// Set while this thread runs a participant of [`participants`]: a
    /// call made from there runs inline.
    static IN_PARTICIPANT: Cell<bool> = const { Cell::new(false) };
}

/// Run `f(slot)` once per slot `0..n`, all at once: slot 0 on the
/// calling thread, the others on scoped threads. Returns the results in
/// slot order after every participant has stopped; if any panicked, the
/// first payload (the caller's, else the lowest slot's) is re-raised.
///
/// With `n ≤ 1`, or from inside a participant, only slot 0 runs, inline.
pub(crate) fn participants<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 || IN_PARTICIPANT.get() {
        return vec![f(0)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..n)
            .map(|slot| {
                s.spawn(move || {
                    IN_PARTICIPANT.set(true);
                    f(slot)
                })
            })
            .collect();
        IN_PARTICIPANT.set(true);
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        IN_PARTICIPANT.set(false);
        let joined = workers.into_iter().map(ScopedJoinHandle::join);
        std::iter::once(caller)
            .chain(joined)
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    })
}

/// How many participants a [`parallel_map`] over `items` items runs:
/// `requested` (0 means `hw`), capped by `jmso_threads` (the
/// `JMSO_THREADS` text) when it parses to at least 1 and by `hw`
/// otherwise, and by `items`; never below 1.
fn width(requested: usize, items: usize, jmso_threads: Option<&str>, hw: usize) -> usize {
    let cap = jmso_threads
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(hw);
    let requested = if requested == 0 { hw } else { requested };
    requested.min(cap).min(items).max(1)
}

/// `JMSO_THREADS` and the machine's parallelism, read once per process.
fn machine() -> (Option<&'static str>, usize) {
    static MACHINE: OnceLock<(Option<String>, usize)> = OnceLock::new();
    let (pinned, hw) = MACHINE.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        (std::env::var("JMSO_THREADS").ok(), hw)
    });
    (pinned.as_deref(), *hw)
}

/// Parallel map with deterministic output ordering.
///
/// Runs `f` on each item on up to `threads` participants, the calling
/// thread included (0 means "one per available CPU"). The width is
/// capped by the `JMSO_THREADS` environment variable when it is set to a
/// positive integer, and by the item count. Panics in `f` propagate.
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
    let (pinned, hw) = machine();
    let threads = width(threads, items.len(), pinned, hw);
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let chunk = if items.len() / threads > CHUNK_THRESHOLD {
        CHUNK
    } else {
        1
    };
    let parts = participants(threads, |_slot| {
        let mut done = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break done;
            }
            let end = (start + chunk).min(items.len());
            done.extend((start..end).zip(&items[start..end]).map(|(i, x)| (i, f(x))));
        }
    });

    let mut placed: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    placed.sort_unstable_by_key(|&(i, _)| i);
    placed.into_iter().map(|(_, r)| r).collect()
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
        // Ordering holds at 1 (sequential path), 2 and 8 participants.
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map(&items, threads, |x| x * x);
            assert_eq!(out, expect, "order broken at {threads} threads");
        }
    }

    /// 1000 items over 2 to 8 participants cross `CHUNK_THRESHOLD`, so
    /// the cursor hands out 8-index chunks: every index still runs once,
    /// and comes back in input order.
    #[test]
    fn parallel_map_chunked_dispatch_covers_every_index() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [2, 3, 8] {
            let hits: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let hit = |&i: &usize| (i, hits[i].fetch_add(1, Ordering::Relaxed));
            let out = parallel_map(&items, threads, hit);
            assert!(
                out.iter().enumerate().all(|(k, &o)| o == (k, 0)),
                "{threads}"
            );
            let hits: Vec<usize> = hits.into_iter().map(AtomicUsize::into_inner).collect();
            assert_eq!(hits, vec![1; 1000], "{threads}");
        }
    }

    #[test]
    fn results_finished_out_of_order_come_back_in_input_order() {
        // Early items sleep longest, so the pairs come back back to front.
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
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |x| *x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_handles_contention() {
        // More participants asked for than items, and a heap payload.
        let out = parallel_map(&[0usize, 1, 2, 3, 4], 8, |&x| vec![x; x % 3]);
        assert_eq!(out, vec![vec![], vec![1], vec![2, 2], vec![], vec![4]]);
    }

    #[test]
    fn zero_threads_means_all_cpus() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, 0, |x| x + 1);
        assert_eq!(out, (1..=32).collect::<Vec<u64>>());
    }

    /// A figure cell that averages over seeds nests one `parallel_map` in
    /// another: the inner one runs sequentially on the participant's own
    /// thread, so it can neither deadlock nor widen the sweep.
    #[test]
    fn nested_parallel_map_runs_on_the_calling_thread() {
        let rows = parallel_map(&[1u64, 2, 3, 4], 2, |&a| {
            assert_eq!(participants(2, |slot| slot), [0], "only slot 0 runs");
            let outer = std::thread::current().id();
            parallel_map(&[10u64, 20, 30], 2, |&b| {
                assert_eq!(std::thread::current().id(), outer);
                a * b
            })
            .iter()
            .sum::<u64>()
        });
        assert_eq!(rows, vec![60, 120, 180, 240]);
    }

    /// The participants never exceed the width, counted as distinct
    /// threads and as participants at once.
    #[test]
    fn participant_ceiling_holds() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [2, 3] {
            let ids = std::sync::Mutex::new(std::collections::HashSet::new());
            let (now, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            parallel_map(&items, threads, |_| {
                peak.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                if let Ok(mut ids) = ids.lock() {
                    ids.insert(std::thread::current().id());
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
                now.fetch_sub(1, Ordering::SeqCst);
            });
            let distinct = ids.into_inner().map_or(0, |ids| ids.len());
            assert!((1..=threads).contains(&distinct), "{distinct} threads");
            assert!(peak.into_inner() <= threads);
        }
    }

    /// The width rule for every `JMSO_THREADS` text: unset, unparsable
    /// and 0 leave the machine's parallelism as the cap.
    #[test]
    fn width_rule() {
        for unpinned in [None, Some("0"), Some("abc")] {
            assert_eq!(width(0, 100, unpinned, 4), 4);
            assert_eq!(width(8, 100, unpinned, 4), 4);
            assert_eq!(width(2, 100, unpinned, 4), 2);
            assert_eq!(width(0, 3, unpinned, 4), 3);
        }
        assert_eq!(width(0, 100, Some("1"), 4), 1);
        assert_eq!(width(8, 100, Some("1"), 4), 1);
        assert_eq!(width(0, 100, Some("3"), 2), 2, "0 asks for hw");
        assert_eq!(width(8, 100, Some("3"), 2), 3, "the pin may exceed hw");
        assert_eq!(width(2, 100, Some("3"), 4), 2);
        assert_eq!(width(8, 2, Some("3"), 4), 2);
        assert_eq!(width(0, 0, None, 4), 1, "never below 1");
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
    fn panics_propagate_with_their_payload() {
        for threads in [1, 2, 8] {
            let items: Vec<u64> = (0..64).collect();
            let err = std::panic::catch_unwind(|| {
                parallel_map(&items, threads, |&x| {
                    assert!(x != 13, "boom at 13");
                    x
                })
            })
            .expect_err("panic swallowed");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"boom at 13"), "{threads}");
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
