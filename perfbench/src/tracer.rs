//! The traced pass: serial, one worker, every `(cell, rep)` replayed
//! through [`crate::replica::traced_rep`] and checked against
//! `ExperimentRunner::run_rep_traced`, then folded, rendered and scored
//! through the public APIs with a span around each call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bnm_core::throughput::{run_bulk_rep, BulkMeasurement};
use bnm_core::{CellResult, ExperimentCell, ExperimentRunner, RepOutcome, RunError};
use bnm_obs::Trace;

use crate::common::{Accounting, Runs};
use crate::replica::{parity_diff, traced_bulk_rep, traced_rep, LayerSpans};

/// Everything the traced pass measures.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Build / run / sink / matching spans of the repetitions.
    pub spans: LayerSpans,
    /// `CellResult::fold_outcome`.
    pub fold: Duration,
    /// Outcomes folded.
    pub folds: u64,
    /// `CellResult::summary` and the `Render` backends.
    pub render: Duration,
    /// Bytes rendered.
    pub render_bytes: u64,
    /// `appraise_snapshot`, scoring and ranking.
    pub score: Duration,
    /// `Monitor::step`.
    pub step: Duration,
    /// `Monitor::snapshot`.
    pub snapshot: Duration,
    /// Monitor sketch buckets at the end of the run.
    pub sketch_buckets: u64,
    /// Monitor live pans (sketch and counter) at the end of the run.
    pub live_pans: u64,
    /// Virtual-time trace counters of session 0 (link, tcp, http).
    pub counters: BTreeMap<&'static str, u64>,
    /// Replayed repetitions that differ from the runner's.
    pub parity: Vec<String>,
    /// Repetitions replayed.
    pub reps: u64,
    /// Σ host time of the runner's own untraced repetitions — the
    /// parity reference calls, serial like the replays.
    pub reference: Duration,
    /// Round accounting of the replayed cells.
    pub acct: Accounting,
}

impl Tracer {
    /// Replay one repetition with spans, check it against the runner,
    /// and collect session 0's trace counters from a second, counting
    /// replay (the timed replay keeps tracing off, like the program).
    pub fn rep(&mut self, cell: &ExperimentCell, rep: u32) -> Result<RepOutcome, RunError> {
        // Alternate which of the pair runs first, so neither side always
        // meets the repetition's data cold.
        let (ours, reference) = if self.reps.is_multiple_of(2) {
            let ours = traced_rep(cell, rep, Trace::disabled(), &mut self.spans);
            (
                ours,
                self.reference(|| ExperimentRunner::run_rep_traced(cell, rep)),
            )
        } else {
            let reference = self.reference(|| ExperimentRunner::run_rep_traced(cell, rep));
            (
                traced_rep(cell, rep, Trace::disabled(), &mut self.spans),
                reference,
            )
        };
        self.reps += 1;
        if let Some(d) = parity_diff(&ours, &reference) {
            self.parity.push(format!("{} rep {rep}: {d}", cell.label()));
        }
        let mut scratch = LayerSpans::default();
        let counted = traced_rep(cell, rep, Trace::enabled(), &mut scratch);
        if let Some(d) = parity_diff(&counted, &reference) {
            self.parity
                .push(format!("{} rep {rep} (counting replay): {d}", cell.label()));
        }
        if let Some(t) = counted.ok().and_then(|o| o.trace) {
            for (k, v) in t.counters {
                *self.counters.entry(k).or_default() += v;
            }
        }
        ours
    }

    /// Time one of the runner's own repetitions.
    fn reference<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.reference += start.elapsed();
        out
    }

    /// Time a rendering step and count its bytes.
    pub fn render(&mut self, f: impl FnOnce() -> String) -> String {
        let start = Instant::now();
        let out = f();
        self.render += start.elapsed();
        self.render_bytes += out.len() as u64;
        out
    }
}

impl Runs for Tracer {
    /// Replay a batch of cells serially and fold each cell's outcomes in
    /// repetition order, as the executor's merge does.
    fn batch(&mut self, cells: &[ExperimentCell]) -> Vec<CellResult> {
        cells
            .iter()
            .map(|cell| {
                let mut result = CellResult::default();
                for rep in 0..cell.reps {
                    let outcome = self.rep(cell, rep);
                    let start = Instant::now();
                    result.fold_outcome(outcome, cell.streaming.session_retention);
                    self.fold += start.elapsed();
                    self.folds += 1;
                }
                self.acct.cell(cell, &result);
                result
            })
            .collect()
    }

    fn bulk(
        &mut self,
        cell: &ExperimentCell,
        rep: u32,
        n: usize,
    ) -> Result<Vec<BulkMeasurement>, RunError> {
        let (ours, reference) = if self.reps.is_multiple_of(2) {
            let ours = traced_bulk_rep(cell, rep, n, &mut self.spans);
            (ours, self.reference(|| run_bulk_rep(cell, rep, n)))
        } else {
            let reference = self.reference(|| run_bulk_rep(cell, rep, n));
            (traced_bulk_rep(cell, rep, n, &mut self.spans), reference)
        };
        self.reps += 1;
        let same = match (&ours, &reference) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        if !same {
            self.parity.push(format!(
                "{} bulk {n} B rep {rep}: replay differs",
                cell.label()
            ));
        }
        self.acct.bulk(cell, &ours);
        ours
    }
}
