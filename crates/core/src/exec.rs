//! The parallel experiment executor.
//!
//! Experiment grids are embarrassingly parallel at the `(cell × rep)`
//! grain: every repetition derives its seeds from `(cell.seed, rep)`
//! alone (see [`crate::runner`]), so repetitions can run on any thread in
//! any order and still produce the exact numbers a serial loop would.
//! The executor exploits that:
//!
//! 1. every runnable cell is flattened into `(cell index, rep)` work
//!    units, dealt round-robin onto one deque per worker;
//! 2. `available_parallelism()` scoped threads drain their own deque
//!    from the front and **steal from the back** of a victim's deque
//!    when it runs dry, so an expensive cell cannot strand the grid on
//!    one core;
//! 3. finished units are merged by sorting on `(cell, rep)` and folding
//!    in repetition order — the merge is the serial loop replayed, so
//!    parallel output is **bit-identical** to serial output for a fixed
//!    seed (asserted by `parity_with_serial_reference` below).
//!
//! Progress is reported through an optional callback; it fires once per
//! completed unit, from whichever worker finished it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::config::ExperimentCell;
use crate::error::RunError;
use crate::runner::{CellResult, ExperimentRunner, RepOutcome};

/// A progress tick: one `(cell × rep)` unit finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Units finished so far (including this one).
    pub completed: usize,
    /// Total units scheduled for the batch.
    pub total: usize,
    /// Index into the submitted cell slice of the finished unit.
    pub cell: usize,
    /// Repetition index of the finished unit.
    pub rep: u32,
}

/// Wall-clock accounting for one batch. Purely observational — the
/// timings never feed back into scheduling or results, so parallel
/// output stays bit-identical to serial.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Worker threads the batch actually used.
    pub workers: usize,
    /// `(cell × rep)` units executed.
    pub units: usize,
    /// Wall time for the whole batch (queue to merge).
    pub wall: Duration,
    /// Units each worker completed (steals included).
    pub worker_units: Vec<usize>,
    /// Time each worker spent inside repetitions (excludes idle/steal
    /// spinning).
    pub worker_busy: Vec<Duration>,
    /// Frame-pool counters aggregated over the batch's workers.
    /// Parallel batches run on fresh scoped threads, so each worker's
    /// thread-local counters are exactly its batch contribution; the
    /// aggregate's `live_peak` sums per-worker peaks and is therefore an
    /// upper bound on the true simultaneous peak. A serial batch resets
    /// the calling thread's counters when it starts draining, so the
    /// numbers are the batch's own there too.
    pub pool: bytes::pool::PoolStats,
}

impl ExecStats {
    /// Mean per-unit execution time, if any units ran.
    pub fn mean_unit(&self) -> Option<Duration> {
        let busy: Duration = self.worker_busy.iter().sum();
        (self.units > 0).then(|| busy / self.units as u32)
    }

    /// One-line human summary for benches and CLI `--verbose` output.
    pub fn summary(&self) -> String {
        let mean = self
            .mean_unit()
            .map_or_else(|| "n/a".to_string(), |d| format!("{:.2?}", d));
        format!(
            "{} units on {} workers in {:.2?} (mean {mean}/unit, spread {:?})",
            self.units, self.workers, self.wall, self.worker_units
        )
    }
}

/// One finished work unit, tagged for the deterministic merge.
struct Outcome {
    cell: usize,
    rep: u32,
    outcome: Result<RepOutcome, RunError>,
}

/// Per-worker tallies gathered while draining (units, busy time, the
/// worker thread's frame-pool counters).
type WorkerTally = (usize, Duration, bytes::pool::PoolStats);

/// Lock a mutex, recovering from poisoning: all executor-internal state
/// stays consistent under any interleaving, so a panicked peer cannot
/// leave a guard-protected value half-updated in a way that matters.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Join scoped worker threads, re-raising a worker's panic.
///
/// The scope alone returns as soon as the worker closures finish, while
/// their threads may still be exiting: dropping thread-local frame
/// pools, and the C allocator handing each thread's malloc arena back.
/// Threads spawned meanwhile by the next batch find no free arena, so
/// the allocator opens another, and a worker's whole working set stays
/// resident in it for the life of the process — a peak-RSS jump of that
/// size at random. A real join waits for each thread to finish exiting.
fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) {
    for handle in handles {
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Generic work-stealing fan-out over indexed items — the same dealt
/// deque + steal-from-the-back discipline [`Executor`] uses for
/// `(cell × rep)` units, reused by the runner's per-session capture
/// matching. Results come back in item order regardless of which worker
/// computed what, so callers can fold them ascending and stay
/// bit-identical to a serial loop.
pub(crate) fn fan_out<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n.max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let mut queues: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (i, t) in items.into_iter().enumerate() {
        queues[i % workers].push_back((i, t));
    }
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> = queues.into_iter().map(Mutex::new).collect();
    let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let queues = &queues;
        let sink = &sink;
        let f = &f;
        let handles = (0..workers).map(|wid| {
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let mut next = lock(&queues[wid]).pop_front();
                    if next.is_none() {
                        for off in 1..workers {
                            next = lock(&queues[(wid + off) % workers]).pop_back();
                            if next.is_some() {
                                break;
                            }
                        }
                    }
                    let Some((i, t)) = next else { break };
                    local.push((i, f(i, t)));
                }
                lock(sink).extend(local);
            })
        });
        join_all(handles.collect());
    });
    let mut tagged = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Work-stealing scheduler for experiment cells.
///
/// ```
/// use bnm_core::exec::Executor;
/// use bnm_core::{ExperimentCell, RuntimeSel};
/// use bnm_browser::BrowserKind;
/// use bnm_methods::MethodId;
/// use bnm_time::OsKind;
///
/// let cell = ExperimentCell::builder(
///     MethodId::XhrGet,
///     RuntimeSel::Browser(BrowserKind::Chrome),
///     OsKind::Ubuntu1204,
/// )
/// .reps(4)
/// .build()
/// .unwrap();
/// let results = Executor::new().run(std::slice::from_ref(&cell));
/// assert_eq!(results[0].as_ref().unwrap().d1.len(), 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor sized to the machine (`available_parallelism`).
    pub fn new() -> Executor {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Executor { workers }
    }

    /// An executor with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Executor {
        Executor {
            workers: workers.max(1),
        }
    }

    /// A single-worker executor: runs units in submission order on the
    /// calling thread, no threads spawned.
    pub fn serial() -> Executor {
        Executor { workers: 1 }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run a batch of cells; one `Result` per input cell, in input order.
    ///
    /// Unrunnable cells (Table 2) yield `Err(RunError::Unrunnable)`
    /// without scheduling any work; every other cell in the batch still
    /// completes.
    pub fn run(&self, cells: &[ExperimentCell]) -> Vec<Result<CellResult, RunError>> {
        self.run_with_progress(cells, |_| {})
    }

    /// [`run`](Executor::run) with a progress callback.
    ///
    /// The callback fires once per finished `(cell × rep)` unit and may
    /// be called concurrently from worker threads; `completed` is
    /// monotone per observer but ticks for different cells interleave
    /// arbitrarily.
    pub fn run_with_progress<F>(
        &self,
        cells: &[ExperimentCell],
        on_progress: F,
    ) -> Vec<Result<CellResult, RunError>>
    where
        F: Fn(Progress) + Sync,
    {
        self.run_with_stats(cells, on_progress).0
    }

    /// [`run_with_progress`](Executor::run_with_progress), additionally
    /// reporting wall-clock [`ExecStats`] for the batch. The stats are
    /// observational only; results are unaffected.
    pub fn run_with_stats<F>(
        &self,
        cells: &[ExperimentCell],
        on_progress: F,
    ) -> (Vec<Result<CellResult, RunError>>, ExecStats)
    where
        F: Fn(Progress) + Sync,
    {
        let batch_start = std::time::Instant::now();
        let mut slots: Vec<Result<CellResult, RunError>> = Vec::with_capacity(cells.len());
        let mut units: Vec<(usize, u32)> = Vec::new();
        for (idx, cell) in cells.iter().enumerate() {
            if cell.is_runnable() {
                slots.push(Ok(CellResult::default()));
                units.extend((0..cell.reps).map(|rep| (idx, rep)));
            } else {
                slots.push(Err(RunError::unrunnable(cell)));
            }
        }

        let total = units.len();
        let workers = self.workers.min(total.max(1));
        let (outcomes, tallies) = if workers <= 1 {
            Self::drain_serial(cells, &units, total, &on_progress)
        } else {
            Self::drain_parallel(cells, units, total, workers, &on_progress)
        };
        Self::merge(cells, outcomes, &mut slots);
        let mut pool = bytes::pool::PoolStats::default();
        for t in &tallies {
            pool.absorb(&t.2);
        }
        let stats = ExecStats {
            workers,
            units: total,
            wall: batch_start.elapsed(),
            worker_units: tallies.iter().map(|t| t.0).collect(),
            worker_busy: tallies.iter().map(|t| t.1).collect(),
            pool,
        };
        (slots, stats)
    }

    /// Single-worker path: the plain loop, on the calling thread.
    fn drain_serial<F: Fn(Progress) + Sync>(
        cells: &[ExperimentCell],
        units: &[(usize, u32)],
        total: usize,
        on_progress: &F,
    ) -> (Vec<Outcome>, Vec<WorkerTally>) {
        // The batch's pool contribution is the counter delta from here
        // to the end of the drain; resetting makes the end snapshot that
        // delta directly (documented on [`ExecStats::pool`]).
        bytes::pool::reset_stats();
        let mut outcomes = Vec::with_capacity(total);
        let mut busy = Duration::ZERO;
        for (completed, &(cell, rep)) in units.iter().enumerate() {
            let unit_start = std::time::Instant::now();
            outcomes.push(Outcome {
                cell,
                rep,
                outcome: ExperimentRunner::run_rep_traced(&cells[cell], rep),
            });
            busy += unit_start.elapsed();
            on_progress(Progress {
                completed: completed + 1,
                total,
                cell,
                rep,
            });
        }
        (outcomes, vec![(total, busy, bytes::pool::stats())])
    }

    /// Multi-worker path: per-worker deques plus back-of-queue stealing.
    fn drain_parallel<F: Fn(Progress) + Sync>(
        cells: &[ExperimentCell],
        units: Vec<(usize, u32)>,
        total: usize,
        workers: usize,
        on_progress: &F,
    ) -> (Vec<Outcome>, Vec<WorkerTally>) {
        // Units are dealt round-robin so expensive cells (more reps, or
        // costlier methods) spread across workers from the start; the
        // steal path only has to correct the imbalance that remains.
        let mut queues: Vec<VecDeque<(usize, u32)>> =
            (0..workers).map(|_| VecDeque::new()).collect();
        for (i, unit) in units.into_iter().enumerate() {
            queues[i % workers].push_back(unit);
        }
        let queues: Vec<Mutex<VecDeque<(usize, u32)>>> =
            queues.into_iter().map(Mutex::new).collect();
        let sink: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(total));
        let tallies: Vec<Mutex<WorkerTally>> = (0..workers)
            .map(|_| Mutex::new((0, Duration::ZERO, bytes::pool::PoolStats::default())))
            .collect();
        let completed = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let queues = &queues;
            let sink = &sink;
            let tallies = &tallies;
            let completed = &completed;
            let handles = (0..workers).map(|wid| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut done_units = 0usize;
                    let mut busy = Duration::ZERO;
                    loop {
                        // Own queue first (front), then steal from the
                        // back of the first non-empty victim. Nothing is
                        // ever re-enqueued, so an empty sweep means the
                        // batch is drained.
                        let mut next = lock(&queues[wid]).pop_front();
                        if next.is_none() {
                            for off in 1..workers {
                                next = lock(&queues[(wid + off) % workers]).pop_back();
                                if next.is_some() {
                                    break;
                                }
                            }
                        }
                        let Some((cell, rep)) = next else { break };
                        let unit_start = std::time::Instant::now();
                        local.push(Outcome {
                            cell,
                            rep,
                            outcome: ExperimentRunner::run_rep_traced(&cells[cell], rep),
                        });
                        busy += unit_start.elapsed();
                        done_units += 1;
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        on_progress(Progress {
                            completed: done,
                            total,
                            cell,
                            rep,
                        });
                    }
                    lock(sink).extend(local);
                    // A scoped worker is a fresh thread: its thread-local
                    // pool counters are exactly this batch's contribution.
                    *lock(&tallies[wid]) = (done_units, busy, bytes::pool::stats());
                })
            });
            join_all(handles.collect());
        });
        let tallies = tallies
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let outcomes = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
        (outcomes, tallies)
    }

    /// Fold outcomes into the per-cell slots in `(cell, rep)` order —
    /// exactly the order the serial loop consumes them, which is what
    /// makes parallel output bit-identical to serial.
    fn merge(
        cells: &[ExperimentCell],
        mut outcomes: Vec<Outcome>,
        slots: &mut [Result<CellResult, RunError>],
    ) {
        outcomes.sort_by_key(|o| (o.cell, o.rep));
        for o in outcomes {
            let retention = cells[o.cell].streaming.session_retention;
            let Ok(result) = &mut slots[o.cell] else {
                // Units are only scheduled for runnable cells.
                unreachable!("outcome for a cell that was never scheduled");
            };
            // The incremental fold itself lives on CellResult so the
            // monitor and any other replay path aggregate identically.
            result.fold_outcome(o.outcome, retention);
        }
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeSel;
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
    use bnm_time::OsKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn grid() -> Vec<ExperimentCell> {
        [
            (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
            (
                MethodId::WebSocket,
                BrowserKind::Firefox,
                OsKind::Ubuntu1204,
            ),
            (MethodId::Dom, BrowserKind::Opera, OsKind::Windows7),
        ]
        .into_iter()
        .map(|(m, b, os)| ExperimentCell::paper(m, RuntimeSel::Browser(b), os).with_reps(6))
        .collect()
    }

    /// The tentpole guarantee: parallel output is bit-identical to the
    /// serial reference, for every cell, at a fixed seed.
    #[test]
    fn parity_with_serial_reference() {
        let cells = grid();
        let serial = Executor::serial().run(&cells);
        let parallel = Executor::with_workers(4).run(&cells);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.d1, p.d1);
            assert_eq!(s.d2, p.d2);
            assert_eq!(s.failures, p.failures);
            assert_eq!(s.excluded_rounds, p.excluded_rounds);
            assert_eq!(s.measurements.len(), p.measurements.len());
        }
    }

    #[test]
    fn unrunnable_cell_fails_without_sinking_the_batch() {
        let mut cells = grid();
        cells.insert(
            1,
            ExperimentCell::paper(
                MethodId::WebSocket,
                RuntimeSel::Browser(BrowserKind::Ie9),
                OsKind::Windows7,
            )
            .with_reps(6),
        );
        let results = Executor::with_workers(3).run(&cells);
        assert!(matches!(results[1], Err(RunError::Unrunnable { .. })));
        for (i, r) in results.iter().enumerate() {
            if i != 1 {
                let r = r.as_ref().unwrap();
                assert_eq!(r.d1.len(), 6, "cell {i} completed despite the bad cell");
            }
        }
    }

    #[test]
    fn progress_ticks_once_per_unit() {
        let cells = grid();
        let total_units: usize = cells.iter().map(|c| c.reps as usize).sum();
        let ticks = AtomicUsize::new(0);
        let max_completed = AtomicUsize::new(0);
        Executor::with_workers(4).run_with_progress(&cells, |p| {
            ticks.fetch_add(1, Ordering::Relaxed);
            max_completed.fetch_max(p.completed, Ordering::Relaxed);
            assert_eq!(p.total, total_units);
            assert!(p.cell < 3);
        });
        assert_eq!(ticks.load(Ordering::Relaxed), total_units);
        assert_eq!(max_completed.load(Ordering::Relaxed), total_units);
    }

    #[test]
    fn zero_reps_yields_an_empty_ok_result() {
        let cells = vec![ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .with_reps(0)];
        let r = Executor::new().run(&cells);
        let r = r[0].as_ref().unwrap();
        assert!(r.d1.is_empty() && r.d2.is_empty() && r.failures == 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(Executor::new().run(&[]).is_empty());
    }

    #[test]
    fn stats_account_for_every_unit() {
        let cells = grid();
        let total: usize = cells.iter().map(|c| c.reps as usize).sum();
        let (results, stats) = Executor::with_workers(4).run_with_stats(&cells, |_| {});
        assert_eq!(results.len(), cells.len());
        assert_eq!(stats.units, total);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.worker_units.len(), stats.workers);
        assert_eq!(stats.worker_units.iter().sum::<usize>(), total);
        assert!(stats.mean_unit().is_some());
        assert!(stats.summary().contains("workers"));
        let (_, empty) = Executor::new().run_with_stats(&[], |_| {});
        assert_eq!(empty.mean_unit(), None);
    }

    #[test]
    fn worker_counts_are_clamped() {
        assert_eq!(Executor::with_workers(0).workers(), 1);
        assert!(Executor::new().workers() >= 1);
    }
}
