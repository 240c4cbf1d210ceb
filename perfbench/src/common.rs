//! Machinery shared by the workloads: the executor wrapper that times
//! repetitions from its progress callback, the round accounting checks,
//! snapshot sampling and the output digest.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use bnm_core::throughput::{run_bulk_rep, BulkMeasurement};
use bnm_core::{CellResult, ExecStats, Executor, ExperimentCell, RunError};

/// How a workload gets its repetitions run: the untraced
/// [`Recorder`] uses the program's own entry points, the traced
/// [`crate::tracer::Tracer`] replays them serially with spans.
pub trait Runs {
    /// Run every repetition of `cells`; one result per cell, in order.
    fn batch(&mut self, cells: &[ExperimentCell]) -> Vec<CellResult>;
    /// One bulk-download repetition of `n` body bytes per round.
    fn bulk(
        &mut self,
        cell: &ExperimentCell,
        rep: u32,
        n: usize,
    ) -> Result<Vec<BulkMeasurement>, RunError>;
}

/// Executor totals of the untraced run, summed over its batches.
#[derive(Debug, Clone, Default)]
pub struct ExecTotals {
    /// `(cell × rep)` units executed.
    pub units: u64,
    /// Σ time workers spent inside repetitions.
    pub busy: Duration,
    /// Σ workers × batch wall time.
    pub capacity: Duration,
    /// Frame-pool counters, absorbed over batches.
    pub pool: bytes::pool::PoolStats,
}

impl ExecTotals {
    fn absorb(&mut self, stats: &ExecStats) {
        self.units += stats.units as u64;
        self.busy += stats.worker_busy.iter().sum::<Duration>();
        self.capacity += stats.wall * stats.workers as u32;
        self.pool.absorb(&stats.pool);
    }

    /// Worker time not spent inside a repetition.
    pub fn idle(&self) -> Duration {
        self.capacity.saturating_sub(self.busy)
    }
}

/// Every round a workload scheduled, and where it went.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Rounds scheduled: reps × rounds × clients.
    pub scheduled: u64,
    /// Rounds (or datagram probes) that produced a Δd sample.
    pub delivered: u64,
    /// Rounds excluded for retransmission.
    pub excluded: u64,
    /// Rounds lost to failed repetitions.
    pub failed: u64,
    /// Broken invariants, one line each.
    pub violations: Vec<String>,
}

impl Accounting {
    /// Share of scheduled rounds lost to failed repetitions.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.scheduled.max(1) as f64
    }

    /// Check one bulk-download repetition: it delivers every round or
    /// fails whole.
    pub fn bulk(
        &mut self,
        cell: &ExperimentCell,
        outcome: &Result<Vec<BulkMeasurement>, RunError>,
    ) {
        let rounds = u64::from(cell.method.plan(cell.timing_override).rounds);
        self.scheduled += rounds;
        match outcome {
            Ok(ms) if ms.len() as u64 == rounds => self.delivered += rounds,
            Ok(ms) => self.violations.push(format!(
                "{} bulk: {} of {rounds} rounds measured",
                cell.label(),
                ms.len()
            )),
            Err(_) => self.failed += rounds,
        }
    }

    /// Check one finished cell: every scheduled round is delivered,
    /// excluded or lost to a failed repetition; for datagram methods
    /// every probe sent has exactly one verdict.
    pub fn cell(&mut self, cell: &ExperimentCell, result: &CellResult) {
        let rounds = u64::from(cell.method.plan(cell.timing_override).rounds);
        let clients = u64::from(cell.clients);
        let scheduled = u64::from(cell.reps) * rounds * clients;
        let failed = u64::from(result.failures) * rounds * clients;
        let label = cell.label();
        let excluded: u64 = result
            .sessions
            .iter()
            .map(|s| u64::from(s.excluded_rounds))
            .sum();
        if excluded != u64::from(result.excluded_rounds) {
            self.violations.push(format!(
                "{label}: per-session exclusions {excluded} != cell exclusions {}",
                result.excluded_rounds
            ));
        }
        if cell.method.is_datagram() {
            let mut sent = 0;
            for s in &result.sessions {
                let Some(d) = &s.datagram else { continue };
                sent += d.sent;
                self.delivered += d.delivered;
                if d.delivered + d.lost_upstream + d.lost_downstream != d.sent {
                    self.violations.push(format!(
                        "{label} session {}: verdicts {} + {} + {} != {} probes sent",
                        s.session, d.delivered, d.lost_upstream, d.lost_downstream, d.sent
                    ));
                }
            }
            if sent + excluded + failed != scheduled {
                self.violations.push(format!(
                    "{label}: {sent} sent + {excluded} excluded + {failed} failed != {scheduled} scheduled"
                ));
            }
        } else {
            let delivered: u64 = result
                .sessions
                .iter()
                .map(|s| s.count(1) + s.count(2))
                .sum();
            self.delivered += delivered;
            if delivered + excluded + failed != scheduled {
                self.violations.push(format!(
                    "{label}: {delivered} delivered + {excluded} excluded + {failed} failed \
                     != {scheduled} scheduled"
                ));
            }
        }
        self.scheduled += scheduled;
        self.excluded += excluded;
        self.failed += failed;
    }
}

/// What the untraced run of a workload records besides its output.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Host latency of each repetition (or monitor round), ms.
    pub unit_ms: Vec<f64>,
    /// Host latency of each snapshot, µs.
    pub snapshot_us: Vec<f64>,
    /// Executor totals.
    pub exec: ExecTotals,
    /// Round accounting.
    pub acct: Accounting,
}

impl Runs for Recorder {
    /// Run one executor batch on `Executor::new()` (one worker per
    /// core), timing each repetition from the progress callback: a
    /// worker's consecutive ticks bracket the unit it just ran. Every
    /// cell must be runnable; workloads filter at set-up.
    fn batch(&mut self, cells: &[ExperimentCell]) -> Vec<CellResult> {
        let start = Instant::now();
        let last: Mutex<HashMap<ThreadId, Instant>> = Mutex::new(HashMap::new());
        let gaps: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(cells.len() * 50));
        let (results, stats) = Executor::new().run_with_stats(cells, |_| {
            let now = Instant::now();
            let prev = last
                .lock()
                .expect("progress map lock")
                .insert(std::thread::current().id(), now)
                .unwrap_or(start);
            gaps.lock()
                .expect("progress gaps lock")
                .push((now - prev).as_secs_f64() * 1e3);
        });
        self.exec.absorb(&stats);
        self.unit_ms
            .extend(gaps.into_inner().expect("progress gaps lock"));
        let results: Vec<CellResult> = cells
            .iter()
            .zip(results)
            .map(|(cell, r)| r.unwrap_or_else(|e| panic!("{}: {e}", cell.label())))
            .collect();
        for (cell, result) in cells.iter().zip(&results) {
            self.acct.cell(cell, result);
        }
        results
    }

    fn bulk(
        &mut self,
        cell: &ExperimentCell,
        rep: u32,
        n: usize,
    ) -> Result<Vec<BulkMeasurement>, RunError> {
        let start = Instant::now();
        let out = run_bulk_rep(cell, rep, n);
        self.unit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.acct.bulk(cell, &out);
        out
    }
}

impl Recorder {
    /// Time `CellResult::summary` — the batch snapshot — `repeat` times
    /// per finished cell.
    pub fn snapshots(&mut self, finished: &[(ExperimentCell, CellResult)], repeat: usize) {
        for (cell, result) in finished {
            for _ in 0..repeat {
                let start = Instant::now();
                std::hint::black_box(result.summary(cell));
                self.snapshot_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
}

/// FNV-1a 64-bit digest of a rendered output.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `p`-quantile (R-7) of unsorted samples; `NaN` when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    bnm_stats::summary::quantile(&sorted, p)
}
