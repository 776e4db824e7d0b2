//! The cell executor: one shared cursor over the job list.
//!
//! Experiment cells are independent, single-threaded, CPU-bound
//! simulations, so the pool is deliberately simple: `workers` threads —
//! the calling thread is one of them — each claim the next unclaimed job
//! index from one shared atomic cursor until the list is exhausted. A slow
//! cell holds only the thread running it; the others keep claiming. One
//! worker is the same loop with nobody else claiming, i.e. input order on
//! the calling thread.
//!
//! # Determinism contract
//!
//! Results are returned **in input order**, whatever the worker count or
//! completion order: slot `i` of the returned vector always holds job
//! `i`'s result. Jobs must not share mutable state (each cell builds its
//! own simulator from its own seed), so the merged output of a sweep is a
//! pure function of the job list — `--jobs 1` and `--jobs N` produce
//! byte-identical artifacts. Only std threads are used.
//!
//! # Panic containment
//!
//! A panicking job must not take the batch down with it: each job body
//! runs under `catch_unwind`, the payload is captured as that slot's
//! [`Timed::result`] `Err`, and the remaining workers keep draining.
//! Every internal lock is acquired poison-tolerantly — a panic elsewhere
//! (e.g. in a caller's `on_done`) can mark a mutex poisoned, but the
//! guarded data (job slots, result slots) is always in a consistent state
//! at the panic point, so recovering the inner value is sound.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A job's outcome plus how long it ran on its worker.
#[derive(Debug, Clone)]
pub struct Timed<R> {
    /// What the job returned, or the panic message if it panicked.
    pub result: Result<R, String>,
    /// Wall-clock the job spent executing (excludes queueing).
    pub wall: Duration,
}

type Job<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// Render a `catch_unwind` payload as a human-readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lock a mutex, tolerating poison: the executor's invariants hold at
/// every await-free critical section, so a poisoned lock only records
/// that *some* thread panicked — the data is still valid.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one job with panic containment and timing.
fn run_job<R>(job: Job<'_, R>) -> (Result<R, String>, Duration) {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(job)).map_err(panic_message);
    (result, t0.elapsed())
}

/// Run every job and return the results in input order.
///
/// `workers` is clamped to `[1, jobs.len()]`; the calling thread is worker
/// 0, so one worker spawns nothing and runs the jobs in input order.
/// `on_done(i, wall)` fires as each job finishes — from whichever thread
/// ran it, in completion order — for live progress reporting; keep it
/// cheap and locked internally.
///
/// A job that panics yields `Err(message)` in its slot; the other jobs
/// still run and return in order.
pub fn run_ordered<'a, R: Send>(
    jobs: Vec<Job<'a, R>>,
    workers: usize,
    on_done: &(dyn Fn(usize, Duration) + Sync),
) -> Vec<Timed<R>> {
    let n = jobs.len();
    let workers = workers.clamp(1, n.max(1));
    // Job slots (taken once each) and their input-order result slots.
    let slots: Vec<Mutex<Option<Job<'a, R>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<Timed<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Relaxed: the cursor only hands out indices; the slot mutexes publish
    // the jobs and results, and the scope's join publishes completion.
    let cursor = AtomicUsize::new(0);

    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let job = lock(&slots[i])
            .take()
            .expect("the cursor hands out each index once");
        let (result, wall) = run_job(job);
        on_done(i, wall);
        *lock(&results[i]) = Some(Timed { result, wall });
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every claimed job stores a result")
        })
        .collect()
}

/// [`run_ordered`] without progress reporting.
pub fn run_ordered_quiet<'a, R: Send>(jobs: Vec<Job<'a, R>>, workers: usize) -> Vec<Timed<R>> {
    run_ordered(jobs, workers, &|_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Job<'static, usize>)
            .collect()
    }

    fn values<R>(out: Vec<Timed<R>>) -> Vec<R> {
        out.into_iter()
            .map(|t| t.result.expect("job succeeded"))
            .collect()
    }

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        for workers in [1, 2, 4, 9] {
            let vals = values(run_ordered_quiet(squares(25), workers));
            let want: Vec<usize> = (0..25).map(|i| i * i).collect();
            assert_eq!(vals, want, "workers={workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let jobs: Vec<Job<usize>> = (0..40usize)
            .map(|i| {
                let count = &count;
                Box::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                    i
                }) as Job<usize>
            })
            .collect();
        let out = run_ordered_quiet(jobs, 4);
        assert_eq!(count.load(Ordering::SeqCst), 40);
        assert_eq!(out.len(), 40);
    }

    /// Self-scheduling: while job 0 is stuck, the other workers claim the
    /// remaining eleven. Job 0 only returns once all eleven have finished,
    /// so a pool that parked any of them behind it would never return.
    #[test]
    fn a_slow_first_job_does_not_hold_the_other_eleven() {
        let done = AtomicUsize::new(0);
        let jobs: Vec<Job<u64>> = (0..12)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 0 {
                        while done.load(Ordering::SeqCst) < 11 {
                            std::thread::yield_now();
                        }
                    } else {
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    i as u64
                }) as Job<u64>
            })
            .collect();
        let out = run_ordered_quiet(jobs, 3);
        assert_eq!(values(out), (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_ordered_quiet(squares(2), 16);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].result, Ok(1));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out = run_ordered_quiet(Vec::<Job<u32>>::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn on_done_fires_once_per_job() {
        let fired = AtomicUsize::new(0);
        let out = run_ordered(squares(10), 4, &|_, _| {
            fired.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(out.len(), 10);
        assert_eq!(fired.load(Ordering::SeqCst), 10);
    }

    /// The ISSUE's panic-containment contract: one panicking cell out of
    /// eight, seven results still returned in input order — whether the
    /// caller runs alone or with spawned workers.
    #[test]
    fn one_panicking_cell_does_not_poison_the_batch() {
        for workers in [1, 3, 8] {
            let jobs: Vec<Job<usize>> = (0..8usize)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("cell 3 exploded (seed 42)");
                        }
                        i * 10
                    }) as Job<usize>
                })
                .collect();
            let out = run_ordered_quiet(jobs, workers);
            assert_eq!(out.len(), 8, "workers={workers}");
            for (i, t) in out.iter().enumerate() {
                if i == 3 {
                    let msg = t.result.as_ref().unwrap_err();
                    assert!(msg.contains("cell 3 exploded"), "workers={workers}: {msg}");
                } else {
                    assert_eq!(t.result, Ok(i * 10), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn panic_payload_kinds_render_as_messages() {
        let jobs: Vec<Job<u32>> = vec![
            Box::new(|| panic!("static str")),
            Box::new(|| panic!("formatted {}", 7)),
            Box::new(|| std::panic::panic_any(99u32)),
            Box::new(|| 5),
        ];
        let out = run_ordered_quiet(jobs, 2);
        assert_eq!(out[0].result, Err("static str".to_string()));
        assert_eq!(out[1].result, Err("formatted 7".to_string()));
        assert_eq!(out[2].result, Err("non-string panic payload".to_string()));
        assert_eq!(out[3].result, Ok(5));
    }
}
