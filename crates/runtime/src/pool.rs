//! A work-queue thread pool for scenario jobs.
//!
//! Deliberately minimal — scoped std threads, a mutexed deque and a
//! mutexed result slot per job — because the workspace builds offline
//! with no external executor. The calling thread is one of the workers: a
//! sweep spawns `workers − 1` threads and drains the queue beside them, so
//! a one-worker pool runs every job on the caller and spawns nothing, and
//! a short sweep (one game round) pays one spawn less and no hand-off back
//! to a waiting caller. Jobs are indexed on submission and results are
//! returned in submission order regardless of which worker finished
//! first, so callers (the `all` experiment binary, the bench harness, the
//! game's rounds) get deterministic output layout from a nondeterministic
//! schedule.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use dspp_telemetry::{AttrValue, Recorder};

use crate::RuntimeError;

/// A fixed-size pool that drains a queue of labelled jobs.
///
/// Telemetry (when enabled) gets per-job `runtime.job` spans plus the
/// `runtime.jobs`, `runtime.job_panics` counters and the
/// `runtime.job_seconds` histogram. A job the calling thread runs nests
/// its span under the caller's open span; a spawned worker's spans are
/// roots of that thread.
#[derive(Debug, Clone)]
pub struct ScenarioPool {
    workers: usize,
    telemetry: Recorder,
}

impl ScenarioPool {
    /// Creates a pool of `workers` workers (clamped to at least one), the
    /// calling thread included.
    pub fn new(workers: usize) -> Self {
        ScenarioPool {
            workers: workers.max(1),
            telemetry: Recorder::disabled(),
        }
    }

    /// A pool sized to the machine (`available_parallelism`, falling back
    /// to one worker when that cannot be determined).
    pub fn with_available_parallelism() -> Self {
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        ScenarioPool::new(workers)
    }

    /// Routes pool metrics and per-job spans to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of workers, the calling thread included: a sweep of at
    /// least this many jobs spawns `workers() − 1` threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every labelled job on the pool and returns the results in
    /// submission order. A panicking job yields
    /// [`RuntimeError::JobPanicked`] for its slot and does not take the
    /// pool (or sibling jobs) down with it.
    pub fn run<T, F>(&self, jobs: Vec<(String, F)>) -> Vec<Result<T, RuntimeError>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.run_scoped(jobs)
    }

    /// Like [`ScenarioPool::run`], but for jobs that borrow from the
    /// caller's stack: workers are scoped threads
    /// ([`std::thread::scope`]), so `T` and `F` need only be [`Send`],
    /// not `'static`. The game crate uses this to run per-provider
    /// best-response solves that borrow the game state for one round.
    ///
    /// Spawns `min(workers, jobs) − 1` threads; the calling thread drains
    /// the queue as the last worker and returns once every job is done.
    pub fn run_scoped<T, F>(&self, jobs: Vec<(String, F)>) -> Vec<Result<T, RuntimeError>>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        self.telemetry.gauge("runtime.pool_workers", workers as f64);
        let queue: Mutex<VecDeque<(usize, String, F)>> = Mutex::new(
            jobs.into_iter()
                .enumerate()
                .map(|(i, (label, f))| (i, label, f))
                .collect(),
        );
        let slots: Mutex<Vec<Option<Result<T, RuntimeError>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let telemetry = &self.telemetry;
        let drain = || loop {
            let job = queue.lock().expect("pool queue poisoned").pop_front();
            let Some((idx, label, f)) = job else { break };
            let mut span = telemetry.tracer().span("runtime.job");
            span.attr("label", label.clone());
            span.attr("index", idx);
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(f));
            telemetry.observe_duration("runtime.job_seconds", t.elapsed());
            span.attr("ok", outcome.is_ok());
            drop(span);
            let result = match outcome {
                Ok(value) => {
                    telemetry.incr("runtime.jobs", 1);
                    Ok(value)
                }
                Err(payload) => {
                    telemetry.incr("runtime.job_panics", 1);
                    let message = panic_message(payload.as_ref());
                    telemetry.tracer().event_with(
                        "runtime.job_panic",
                        [
                            ("severity", AttrValue::Str("error".into())),
                            ("label", AttrValue::Str(label.clone())),
                            ("message", AttrValue::Str(message.clone())),
                        ],
                    );
                    Err(RuntimeError::JobPanicked { label, message })
                }
            };
            slots.lock().expect("pool results poisoned")[idx] = Some(result);
        };
        thread::scope(|scope| {
            for w in 1..workers {
                thread::Builder::new()
                    .name(format!("dspp-runtime-{w}"))
                    .spawn_scoped(scope, drain)
                    .expect("failed to spawn pool worker");
            }
            // The calling thread is the last worker: it would only wait
            // for the others otherwise.
            drain();
        });
        slots
            .into_inner()
            .expect("pool results poisoned")
            .into_iter()
            .map(|slot| slot.expect("every queued job reports exactly once"))
            .collect()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = ScenarioPool::new(4);
        let jobs: Vec<(String, _)> = (0..32)
            .map(|i| {
                (format!("job-{i}"), move || {
                    // Vary the work so completion order scrambles.
                    let spin = (31 - i) * 1000;
                    let mut acc = 0u64;
                    for x in 0..spin {
                        acc = acc.wrapping_add(x);
                    }
                    (i, acc.min(1))
                })
            })
            .collect();
        let results = pool.run(jobs);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().0, i as u64);
        }
    }

    #[test]
    fn single_worker_pool_still_drains_everything() {
        let pool = ScenarioPool::new(1);
        let results = pool.run(vec![
            (
                "a".to_string(),
                Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
            ),
            ("b".to_string(), Box::new(|| 2)),
            ("c".to_string(), Box::new(|| 3)),
        ]);
        let values: Vec<i32> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn one_worker_pool_runs_every_job_on_the_calling_thread() {
        let caller = thread::current().id();
        let jobs: Vec<(String, _)> = (0..3)
            .map(|i| (format!("job-{i}"), || thread::current().id()))
            .collect();
        let results = ScenarioPool::new(1).run_scoped(jobs);
        assert_eq!(results.len(), 3);
        for r in results {
            assert_eq!(r.unwrap(), caller);
        }
    }

    /// A two-worker pool runs jobs on the caller too. Jobs 0 and 1 meet at
    /// a barrier, so each worker holds one of them; the caller's panics.
    /// Its slot gets `JobPanicked`, with the counter a spawned worker's
    /// panic tallies, and the rest of the queue still runs.
    #[test]
    fn a_panic_in_the_callers_share_is_isolated() {
        let caller = thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let telemetry = Recorder::enabled();
        let pool = ScenarioPool::new(2).with_telemetry(telemetry.clone());
        let jobs: Vec<(String, _)> = (0..6)
            .map(|i| {
                let barrier = &barrier;
                (format!("job-{i}"), move || {
                    if i < 2 {
                        barrier.wait();
                        assert!(thread::current().id() != caller, "caller job exploded");
                    }
                    i
                })
            })
            .collect();
        let results = pool.run_scoped(jobs);
        let panicked: Vec<usize> = (0..6).filter(|&i| results[i].is_err()).collect();
        assert_eq!(panicked.len(), 1, "exactly the caller's job panics");
        match &results[panicked[0]] {
            Err(RuntimeError::JobPanicked { label, message }) => {
                assert_eq!(label, &format!("job-{}", panicked[0]));
                assert!(message.contains("caller job exploded"));
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
        for (i, r) in results
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != panicked[0])
        {
            assert_eq!(*r.as_ref().unwrap(), i);
        }
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("runtime.job_panics"), 1);
        assert_eq!(snap.counter("runtime.jobs"), 5);
        assert_eq!(snap.gauge("runtime.pool_workers"), Some(2.0));
    }

    #[test]
    fn panicking_job_is_isolated() {
        let pool = ScenarioPool::new(2);
        let results = pool.run(vec![
            (
                "ok-before".to_string(),
                Box::new(|| 7) as Box<dyn FnOnce() -> i32 + Send>,
            ),
            ("boom".to_string(), Box::new(|| panic!("scenario exploded"))),
            ("ok-after".to_string(), Box::new(|| 9)),
        ]);
        assert_eq!(*results[0].as_ref().unwrap(), 7);
        match &results[1] {
            Err(RuntimeError::JobPanicked { label, message }) => {
                assert_eq!(label, "boom");
                assert!(message.contains("scenario exploded"));
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
        assert_eq!(*results[2].as_ref().unwrap(), 9);
    }

    #[test]
    fn telemetry_counts_jobs_and_panics() {
        let telemetry = Recorder::enabled();
        let pool = ScenarioPool::new(2).with_telemetry(telemetry.clone());
        let _ = pool.run(vec![
            (
                "fine".to_string(),
                Box::new(|| 0) as Box<dyn FnOnce() -> i32 + Send>,
            ),
            ("bad".to_string(), Box::new(|| panic!("x"))),
            ("fine2".to_string(), Box::new(|| 0)),
        ]);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("runtime.jobs"), 2);
        assert_eq!(snap.counter("runtime.job_panics"), 1);
        assert_eq!(snap.histogram("runtime.job_seconds").unwrap().count, 3);
    }

    #[test]
    fn scoped_jobs_can_borrow_caller_state() {
        let pool = ScenarioPool::new(4);
        let data: Vec<u64> = (0..16).collect();
        let jobs: Vec<(String, _)> = data
            .iter()
            .map(|v| (format!("borrow-{v}"), move || v * 2))
            .collect();
        let results = pool.run_scoped(jobs);
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap(), 2 * i as u64);
        }
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let pool = ScenarioPool::new(3);
        let results: Vec<Result<i32, RuntimeError>> = pool.run(Vec::<(String, fn() -> i32)>::new());
        assert!(results.is_empty());
    }
}
