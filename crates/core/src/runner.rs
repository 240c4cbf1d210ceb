//! The experiment runner: executes one cell (method × runtime × OS) for
//! N repetitions and assembles the Δd1/Δd2 sample sets.
//!
//! Each repetition is an independent simulation with its own derived
//! seeds: browser noise, capture noise and — crucially — the Windows
//! timer-regime process all re-draw, so a 50-rep cell samples the
//! machine's granularity regimes the way the paper's wall-clock runs did.
//! Because every stream derives from `(cell.seed, rep)` alone, the
//! repetitions are order-independent — [`crate::exec::Executor`] runs
//! them on as many threads as the machine has and still reproduces the
//! serial numbers bit-for-bit.
//!
//! Every repetition takes one path, whatever the client count: build a
//! [`Scenario`] of `cell.clients` sessions from `rep_setup`, run it,
//! and match each session's capture. The paper's single-client testbed
//! is the one-session scenario.

use bnm_browser::{session_token, BrowserProfile, ProbePlan, RoundResult};
use bnm_obs::{Trace, TraceData};
use bnm_sim::capture::CaptureSink;
use bnm_sim::link::LinkSpec;
use bnm_sim::time::SimDuration;
use bnm_sim::{rng, CaptureRecord};
use bnm_stats::QuantileSketch;
use bnm_time::MachineTimer;

use crate::attribution::{self, RoundAttribution};
use crate::config::{ExperimentCell, RuntimeSel};
use crate::delta::RoundMeasurement;
use crate::error::RunError;
use crate::exec::Executor;
use crate::matching::{MatchError, ProbeStatus, ProbeVerdict};
use crate::report::{DatagramReport, DistSummary, LinkReport, ReportSnapshot, WindowReport};
use crate::scenario::{Scenario, SessionSpec};
use crate::streaming::{DiscardSink, ServerMarkerIndex, SessionMarkerSink};
use crate::testbed::TestbedConfig;

/// Sketch-backed Δd distributions for one session — the bounded-memory
/// companion to the raw vectors when the cell runs with
/// [`crate::config::StreamingSpec::session_retention`] set. The sketches
/// see *every* sample (including the ones retained raw), so their
/// quantiles describe the full repetition set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionSketches {
    /// Streaming distribution of first-round Δd, ms.
    pub d1: QuantileSketch,
    /// Streaming distribution of second-round Δd, ms.
    pub d2: QuantileSketch,
}

/// Per-probe datagram statistics for one session, accumulated over a
/// cell's repetitions — the wire-truth appraisal of an unreliable
/// transport ([`bnm_methods::MethodId::is_datagram`]). Losses here are
/// *measurements*, not exclusions: there is no transport retransmitting
/// under the browser, so every probe's fate is scored individually.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatagramSamples {
    /// Probes the session put on the wire.
    pub sent: u64,
    /// Probes whose echo reached the client NIC.
    pub delivered: u64,
    /// Probes that never reached the server tap.
    pub lost_upstream: u64,
    /// Probes whose echo left the server but never arrived.
    pub lost_downstream: u64,
    /// Probes seen more than once in one direction of either tap.
    pub duplicated: u64,
    /// Probes whose echo arrived after a higher sequence number's.
    pub reordered: u64,
    /// Per-probe upstream one-way delay (client Tx → server Rx), ms.
    pub owd_up_ms: Vec<f64>,
    /// Per-probe downstream one-way delay (server Tx → client Rx), ms.
    pub owd_down_ms: Vec<f64>,
    /// One RFC 3550 §6.4.1 jitter estimate per repetition, computed from
    /// wire transit pairs of the downstream leg in arrival order.
    pub wire_jitter_ms: Vec<f64>,
    /// The same estimator over the *browser's* per-probe stamps — what a
    /// script using this method would report. The gap to
    /// [`DatagramSamples::wire_jitter_ms`] is the paper's §2.2 point:
    /// unstable delay overhead inflates jitter measurements.
    pub browser_jitter_ms: Vec<f64>,
}

impl DatagramSamples {
    /// Fraction of sent probes that did not complete the echo, 0..=1
    /// (`NaN` when nothing was sent).
    pub fn loss_rate(&self) -> f64 {
        (self.sent - self.delivered) as f64 / self.sent as f64
    }

    /// Fraction of sent probes flagged reordered (`NaN` when nothing
    /// was sent).
    pub fn reorder_rate(&self) -> f64 {
        self.reordered as f64 / self.sent as f64
    }

    /// Fold another repetition's statistics into this accumulator.
    pub fn merge(&mut self, other: &DatagramSamples) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.lost_upstream += other.lost_upstream;
        self.lost_downstream += other.lost_downstream;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.owd_up_ms.extend_from_slice(&other.owd_up_ms);
        self.owd_down_ms.extend_from_slice(&other.owd_down_ms);
        self.wire_jitter_ms.extend_from_slice(&other.wire_jitter_ms);
        self.browser_jitter_ms
            .extend_from_slice(&other.browser_jitter_ms);
    }
}

/// One session's Δd sample sets within a cell (ascending session-id
/// order inside [`CellResult::sessions`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionSamples {
    /// The session id the samples belong to.
    pub session: u64,
    /// Δd of the first round per repetition, ms. In bounded-retention
    /// mode this keeps only the first `session_retention` samples; the
    /// full distribution lives in [`SessionSamples::sketches`].
    pub d1: Vec<f64>,
    /// Δd of rounds two and up per repetition, ms (same retention
    /// rule). Two-round methods put exactly round 2 here; datagram
    /// trains pool every later probe.
    pub d2: Vec<f64>,
    /// Rounds of this session excluded for wire retransmissions.
    pub excluded_rounds: u32,
    /// Streaming sketches over *all* samples — `Some` only when the
    /// cell ran with a retention threshold.
    pub sketches: Option<SessionSketches>,
    /// Per-probe datagram statistics — `Some` only for datagram
    /// methods, accumulated over all repetitions.
    pub datagram: Option<DatagramSamples>,
}

impl SessionSamples {
    /// Both rounds' Δd pooled (raw retained samples).
    pub fn pooled(&self) -> Vec<f64> {
        let mut all = self.d1.clone();
        all.extend_from_slice(&self.d2);
        all
    }

    /// Record one round's Δd, honouring the cell's retention threshold:
    /// `None` keeps every raw sample (and builds no sketch); `Some(n)`
    /// keeps at most `n` raw samples per round and folds every sample
    /// into the round's sketch.
    pub(crate) fn push_round(&mut self, round: u8, v: f64, retention: Option<u32>) {
        let raw = match round {
            1 => &mut self.d1,
            _ => &mut self.d2,
        };
        match retention {
            None => raw.push(v),
            Some(limit) => {
                if raw.len() < limit as usize {
                    raw.push(v);
                }
                let sk = self.sketches.get_or_insert_with(SessionSketches::default);
                match round {
                    1 => sk.d1.insert(v),
                    _ => sk.d2.insert(v),
                }
            }
        }
    }

    /// Samples recorded for one round (1 or 2) — the sketch count when
    /// sketching, else the raw vector length.
    pub fn count(&self, round: u8) -> u64 {
        match &self.sketches {
            Some(sk) => match round {
                1 => sk.d1.count(),
                _ => sk.d2.count(),
            },
            None => match round {
                1 => self.d1.len() as u64,
                _ => self.d2.len() as u64,
            },
        }
    }

    /// The `p`-quantile of one round's Δd over **all** recorded samples:
    /// exact R-7 on the raw vector whenever it retained every sample —
    /// including bounded-retention runs that never hit their threshold
    /// (`count <= k`) — and the sketch's bounded-error estimate only
    /// when samples were actually truncated away.
    ///
    /// Returns `NaN` when the round has no samples (e.g. every probe of
    /// a datagram cell was lost); it never panics. Report renderers map
    /// the `NaN` to JSON `null` / an empty CSV field.
    pub fn quantile(&self, round: u8, p: f64) -> f64 {
        let raw = match round {
            1 => &self.d1,
            _ => &self.d2,
        };
        if let Some(sk) = &self.sketches {
            let sketch = match round {
                1 => &sk.d1,
                _ => &sk.d2,
            };
            if sketch.count() > raw.len() as u64 {
                return sketch.quantile(p);
            }
        }
        if raw.is_empty() {
            return f64::NAN;
        }
        let mut sorted = raw.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        bnm_stats::summary::quantile(&sorted, p)
    }

    /// Median Δd of one round over all recorded samples.
    pub fn median(&self, round: u8) -> f64 {
        self.quantile(round, 0.5)
    }
}

/// The outcome of one cell.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    /// Δd of the first round per repetition, ms — **session 0 only** (the
    /// traced/reference client), which in the single-client testbed is
    /// everything. Per-session sets live in [`CellResult::sessions`].
    pub d1: Vec<f64>,
    /// Δd of the second round per repetition, ms (session 0 only).
    pub d2: Vec<f64>,
    /// Full per-round measurements (every session, rep order, ascending
    /// session id within a rep).
    pub measurements: Vec<RoundMeasurement>,
    /// Repetitions that failed (incomplete session or match error).
    pub failures: u32,
    /// Rounds excluded because a probe marker was retransmitted or
    /// duplicated on the wire (the paper's §3 exclusion rule). These
    /// rounds contribute to neither `d1`/`d2` nor `measurements`.
    pub excluded_rounds: u32,
    /// Per-repetition traces, rep order. Empty unless the cell was run
    /// with [`ExperimentCell::trace`] set.
    pub traces: Vec<TraceData>,
    /// Per-round Δd attributions, rep order. Empty unless traced.
    pub attributions: Vec<RoundAttribution>,
    /// Per-session sample sets, ascending session id. A single-client
    /// cell has exactly one entry (session 0) mirroring `d1`/`d2`.
    pub sessions: Vec<SessionSamples>,
    /// Server-access-link queue telemetry over all repetitions: drops
    /// sum, queue-depth peaks max.
    pub link: LinkReport,
}

/// One repetition's full outcome: the measurements plus — when the cell
/// asked for tracing — the recorded trace and its Δd attribution.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// Both rounds' measurements, every session.
    pub measurements: Vec<RoundMeasurement>,
    /// The repetition's trace (`None` when tracing was off).
    pub trace: Option<TraceData>,
    /// One attribution row per measured round (empty when untraced).
    pub attribution: Vec<RoundAttribution>,
    /// Rounds of this repetition excluded for wire retransmissions,
    /// summed over sessions.
    pub excluded: u32,
    /// The exclusion count broken down by session id (ascending).
    pub excluded_by_session: Vec<(u64, u32)>,
    /// Per-session datagram statistics (ascending session id). Empty
    /// for reliable-transport methods.
    pub datagram: Vec<(u64, DatagramSamples)>,
    /// Queue telemetry of the server's access link for this repetition.
    pub link: LinkReport,
}

impl CellResult {
    /// Both rounds' Δd pooled (session 0 only, like `d1`/`d2`).
    pub fn pooled(&self) -> Vec<f64> {
        let mut all = self.d1.clone();
        all.extend_from_slice(&self.d2);
        all
    }

    /// Δd samples for one round (1 or 2), session 0 only.
    pub fn round(&self, round: u8) -> Result<&[f64], RunError> {
        match round {
            1 => Ok(&self.d1),
            2 => Ok(&self.d2),
            other => Err(RunError::InvalidRound(other)),
        }
    }

    /// The sample set of one session, if that session ran in this cell.
    pub fn session(&self, id: u64) -> Option<&SessionSamples> {
        self.sessions
            .binary_search_by_key(&id, |s| s.session)
            .ok()
            .map(|i| &self.sessions[i])
    }

    /// The sample set of one session, created empty (in id order) on
    /// first touch — the merge path in [`crate::exec`].
    pub(crate) fn session_mut(&mut self, id: u64) -> &mut SessionSamples {
        match self.sessions.binary_search_by_key(&id, |s| s.session) {
            Ok(i) => &mut self.sessions[i],
            Err(i) => {
                self.sessions.insert(
                    i,
                    SessionSamples {
                        session: id,
                        ..SessionSamples::default()
                    },
                );
                &mut self.sessions[i]
            }
        }
    }

    /// Fold one repetition's outcome into this result — the incremental
    /// aggregation step shared by the executor's merge and anything
    /// replaying [`RepOutcome`]s (repetitions fold in ascending
    /// `(cell, rep)` order for bit-identical parallel/serial output).
    ///
    /// `retention` is the cell's
    /// [`crate::config::StreamingSpec::session_retention`]: `None`
    /// keeps every raw sample, `Some(k)` truncates raw vectors at `k`
    /// and sketches the full distribution instead.
    pub fn fold_outcome(&mut self, outcome: Result<RepOutcome, RunError>, retention: Option<u32>) {
        match outcome {
            Ok(rep) => {
                self.excluded_rounds += rep.excluded;
                self.link.merge(&rep.link);
                for (sid, excluded) in rep.excluded_by_session {
                    self.session_mut(sid).excluded_rounds += excluded;
                }
                for (sid, d) in rep.datagram {
                    self.session_mut(sid)
                        .datagram
                        .get_or_insert_with(DatagramSamples::default)
                        .merge(&d);
                }
                for m in rep.measurements {
                    let v = m.delta_d_ms();
                    // The flat d1/d2 sets stay session-0 only: they
                    // are the single-client API, and in a scenario
                    // session 0 is the reference client. Every
                    // session's samples land in `sessions`. Under a
                    // retention threshold they truncate like session
                    // 0's raw vectors (the full distribution is in
                    // its sketches).
                    if m.session == 0 {
                        let raw = match m.round {
                            1 => &mut self.d1,
                            _ => &mut self.d2,
                        };
                        let keep = match retention {
                            None => true,
                            Some(limit) => raw.len() < limit as usize,
                        };
                        if keep {
                            raw.push(v);
                        }
                    }
                    self.session_mut(m.session)
                        .push_round(m.round, v, retention);
                    // Bounded mode keeps the full per-round
                    // measurement rows only for the reference
                    // session; a crowd's worth of rows is exactly
                    // the O(sessions × reps) growth the mode bounds.
                    if retention.is_none() || m.session == 0 {
                        self.measurements.push(m);
                    }
                }
                if let Some(t) = rep.trace {
                    self.traces.push(t);
                }
                self.attributions.extend(rep.attribution);
            }
            Err(_) => self.failures += 1,
        }
    }

    /// Digest this batch result into the same [`ReportSnapshot`] shape
    /// the continuous monitor emits, as a single lifetime `"total"`
    /// window.
    ///
    /// The Δd digests cover the reference session (the flat
    /// `d1`/`d2` view, exact R-7 quantiles whenever the raw samples
    /// were fully retained, sketch-backed otherwise), while `samples`
    /// counts every session's folded samples. Serial and parallel runs
    /// of the same cell produce `==` snapshots.
    pub fn summary(&self, cell: &ExperimentCell) -> ReportSnapshot {
        let s0_sketches = self.session(0).and_then(|s| s.sketches.as_ref());
        let digest = |raw: &[f64], sketch: Option<&QuantileSketch>| -> (DistSummary, bool) {
            match sketch {
                // Sketch only when raw truncated samples away.
                Some(sk) if sk.count() > raw.len() as u64 => (DistSummary::of_sketch(sk), true),
                _ => (DistSummary::of_samples(raw), false),
            }
        };
        let (d1, d1_sketched) = digest(&self.d1, s0_sketches.map(|s| &s.d1));
        let (d2, d2_sketched) = digest(&self.d2, s0_sketches.map(|s| &s.d2));
        let sketched = d1_sketched || d2_sketched;
        let pooled = match (sketched, s0_sketches) {
            (true, Some(sk)) => {
                let mut both = sk.d1.clone();
                both.merge(&sk.d2);
                DistSummary::of_sketch(&both)
            }
            _ => DistSummary::of_samples(&self.pooled()),
        };
        let samples = if self.sessions.is_empty() {
            (self.d1.len() + self.d2.len()) as u64
        } else {
            self.sessions.iter().map(|s| s.count(1) + s.count(2)).sum()
        };
        let relative_error_bound = match (sketched, s0_sketches) {
            (true, Some(sk)) => sk.d1.relative_error_bound(),
            _ => 0.0,
        };
        ReportSnapshot {
            label: cell.label(),
            at_secs: 0.0,
            rounds: cell.reps as u64,
            samples,
            excluded_rounds: self.excluded_rounds as u64,
            failures: self.failures as u64,
            relative_error_bound,
            windows: vec![WindowReport {
                label: "total".into(),
                span_secs: None,
                rounds: cell.reps as u64,
                excluded_rounds: self.excluded_rounds as u64,
                failures: self.failures as u64,
                d1,
                d2,
                pooled,
            }],
            datagram: self
                .session(0)
                .and_then(|s| s.datagram.as_ref())
                .map(DatagramReport::of),
            link: Some(self.link),
        }
    }
}

/// Sessions below this threshold match serially in the batch path:
/// thread spin-up costs more than the matching itself for small
/// scenarios, the paper's one-client cells among them.
const PARALLEL_MATCH_MIN_SESSIONS: usize = 16;

/// The testbed configuration and one session spec per client for one
/// repetition of `cell`, running `plan` on `profile`.
///
/// Every stream derives from `(cell.seed, rep)` and the cell label
/// alone. Session 0 draws from the unsuffixed labels, so the reference
/// client is the *same client* at every client count — only its
/// competition changes; sessions 1.. derive from `".s{id}"`-suffixed
/// labels.
///
/// All repetitions of a cell run on the *same machine*, a few seconds
/// apart: one timer-regime timeline, sampled at increasing offsets.
/// This is what makes a 50-rep Windows cell sit inside one granularity
/// regime (two discrete Δd levels, Figure 4) or straddle a regime
/// change — exactly like the paper's wall-clock sessions. The timeline
/// itself differs per cell (the seed mixes in the cell label), the way
/// different experiment sessions landed on different afternoons.
pub(crate) fn rep_setup(
    cell: &ExperimentCell,
    rep: u32,
    plan: ProbePlan,
    profile: BrowserProfile,
) -> (TestbedConfig, Vec<SessionSpec>) {
    let label = cell.label();
    let mut cfg = TestbedConfig {
        server_delay: cell.server_delay,
        capture_noise_ns: cell.capture_noise_ns,
        seed: rng::derive_seed(cell.seed, "capture"),
        impairment: cell.impairment,
        server_shape: cell.link_shape.clone(),
        ..TestbedConfig::default()
    };
    if let Some(rate) = cell.server_link_rate_bps {
        cfg.server_link = LinkSpec {
            rate_bps: rate,
            ..LinkSpec::fast_ethernet()
        };
    }
    let offset = SimDuration::from_secs(4).saturating_mul(u64::from(rep));
    let specs = (0..u64::from(cell.clients))
        .map(|sid| {
            let suffix = if sid == 0 {
                String::new()
            } else {
                format!(".s{sid}")
            };
            let machine_seed = rng::derive_seed(cell.seed, &format!("machine.{label}{suffix}"));
            let session_seed = rng::derive_seed(cell.seed, &format!("session.{label}{suffix}"));
            SessionSpec {
                id: sid,
                plan: plan.clone(),
                profile: profile.clone(),
                machine: MachineTimer::new(cell.os, machine_seed).at_offset(offset),
                seed: session_seed ^ u64::from(rep),
            }
        })
        .collect();
    (cfg, specs)
}

/// Feed records drained from a tap to `sink`, in capture order.
fn feed(sink: &mut dyn CaptureSink, records: &[CaptureRecord]) {
    for rec in records {
        sink.on_record(rec.ts, rec.dir, &rec.frame);
    }
}

/// Runs experiment cells.
pub struct ExperimentRunner;

impl ExperimentRunner {
    /// Execute one cell on all available cores.
    ///
    /// Returns [`RunError::Unrunnable`] when the runtime cannot execute
    /// the method (Table 2); per-repetition failures are *not* errors —
    /// they are counted in [`CellResult::failures`], as in the paper's
    /// wall-clock runs. Output is bit-identical to a serial loop over
    /// [`ExperimentRunner::run_rep`] regardless of core count.
    pub fn try_run(cell: &ExperimentCell) -> Result<CellResult, RunError> {
        Executor::new()
            .run(std::slice::from_ref(cell))
            .pop()
            // One input cell always yields exactly one result slot.
            .expect("executor returns one result per cell")
    }

    /// One repetition: fresh testbed, run, capture-match both rounds.
    ///
    /// Honours [`ExperimentCell::trace`] but discards the trace; use
    /// [`ExperimentRunner::run_rep_traced`] to keep it.
    pub fn run_rep(cell: &ExperimentCell, rep: u32) -> Result<Vec<RoundMeasurement>, RunError> {
        Self::run_rep_traced(cell, rep).map(|o| o.measurements)
    }

    /// One repetition, returning measurements *and* — when the cell has
    /// tracing on — the trace and its per-round Δd attribution.
    ///
    /// The repetition is one [`Scenario`] of `cell.clients` sessions
    /// (the paper's testbed is the one-session case), every session
    /// running the cell's method concurrently against the shared
    /// server; each session's capture is matched independently through
    /// its composite marker token.
    ///
    /// Tracing does not perturb the measurement: the session draws its
    /// random delays in the same order either way, so a traced rep
    /// reports bit-identical Δd to an untraced one.
    pub fn run_rep_traced(cell: &ExperimentCell, rep: u32) -> Result<RepOutcome, RunError> {
        let profile = Self::try_profile(cell)?;
        if !cell.method.available_in(&profile) {
            return Err(RunError::unrunnable(cell));
        }
        let plan = cell.method.plan(cell.timing_override);
        let plan_rounds = plan.rounds;
        let (cfg, specs) = rep_setup(cell, rep, plan, profile);
        let trace = if cell.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let mut sc = Scenario::build_traced(&cfg, specs, u64::from(rep), trace);
        let tokens: Vec<u64> = (0..sc.len())
            .map(|i| session_token(sc.session_id(i), u64::from(rep)))
            .collect();
        // Every tap's evidence folds into a marker index: one sink per
        // client tap, and on the server tap the index when it carries
        // evidence — datagram one-way stamps, or retransmissions a lossy
        // network hides from the client tap (a response dropped
        // downstream leaves the client trace clean while the server's
        // NIC saw it leave twice).
        let is_datagram = cell.method.is_datagram();
        let mut clients: Vec<SessionMarkerSink> = tokens
            .iter()
            .map(|&t| SessionMarkerSink::new(cell.method, plan_rounds, t))
            .collect();
        let indexed = is_datagram || !cell.impairment.is_clean();
        let mut server = indexed.then(|| ServerMarkerIndex::new(cell.method, plan_rounds, &tokens));
        // Streaming only decides when records reach the sinks: here at
        // capture time, so frames recycle through the pool mid-run,
        // rather than from the drained taps after the run.
        let streaming = cell.streaming.stream_captures;
        if streaming {
            for (&tap, sink) in sc.client_taps.iter().zip(clients.drain(..)) {
                sc.engine.tap_mut(tap).set_sink(Box::new(sink));
            }
            let server_sink: Box<dyn CaptureSink> = match server.take() {
                Some(index) => Box::new(index),
                None => Box::new(DiscardSink::default()),
            };
            sc.engine.tap_mut(sc.server_tap).set_sink(server_sink);
        }
        sc.run();
        let link = Self::read_link_report(&sc.engine, sc.server_link, sc.server, sc.switch);
        for i in 0..sc.len() {
            if !sc.session(i).result().completed {
                return Err(RunError::Match(MatchError::ResponseNotFound));
            }
        }
        if streaming {
            clients = sc
                .client_taps
                .iter()
                .map(|&tap| Self::take_sink(&mut sc.engine, tap))
                .collect();
            server = indexed.then(|| Self::take_sink(&mut sc.engine, sc.server_tap));
        } else {
            // Drained records are owned and `Send` (a whole engine is
            // not), so sessions fold in parallel once the crowd is big
            // enough to pay for the threads; each sink sees its own
            // records in capture order either way.
            let drained: Vec<_> = clients
                .into_iter()
                .zip(&sc.client_taps)
                .map(|(sink, &tap)| (sink, sc.engine.tap_mut(tap).drain()))
                .collect();
            let workers = Self::match_worker_count(cell, drained.len());
            clients = crate::exec::fan_out(drained, workers, |_, (mut sink, records)| {
                feed(&mut sink, &records);
                sink
            });
            if let Some(index) = &mut server {
                feed(index, &sc.engine.tap_mut(sc.server_tap).drain());
            }
        }
        // Judge each session's rounds in order, stopping at its first
        // match error. A reliable round whose marker hit more than once
        // in one direction of either tap is excluded (retransmitted or
        // duplicated on the wire); a datagram train is appraised probe
        // by probe instead and never excludes.
        let mut out = Vec::new();
        let mut excluded_total = 0u32;
        let mut excluded_by_session = Vec::with_capacity(sc.len());
        let mut datagram = Vec::new();
        for (i, sink) in clients.iter().enumerate() {
            let sid = sc.session_id(i);
            let rounds = &sc.session(i).result().rounds;
            let mut excluded = 0u32;
            if is_datagram {
                let index = server
                    .as_ref()
                    .expect("datagram cells index the server tap");
                let verdicts = sink.match_datagram_train(index, plan_rounds);
                let d = Self::fold_datagram_session(&verdicts, plan_rounds, sid, rounds, &mut out);
                datagram.push((sid, d));
            } else {
                for r in rounds {
                    let wire = match sink.match_round(r.round) {
                        Err(MatchError::Retransmitted) => {
                            excluded += 1;
                            continue;
                        }
                        other => other?,
                    };
                    if server
                        .as_ref()
                        .is_some_and(|ix| ix.round_retransmitted(r.round, tokens[i]))
                    {
                        excluded += 1;
                        continue;
                    }
                    out.push(RoundMeasurement {
                        session: sid,
                        round: r.round,
                        browser: *r,
                        wire,
                    });
                }
            }
            excluded_total += excluded;
            excluded_by_session.push((sid, excluded));
        }
        let trace = sc.take_trace();
        let attribution = match &trace {
            Some(t) => {
                // Only session 0 is traced (see `Scenario::build_traced`):
                // its rounds are the only ones the spans can explain.
                let session0: Vec<RoundMeasurement> =
                    out.iter().copied().filter(|m| m.session == 0).collect();
                attribution::attribute(t, &session0, rep)?
            }
            None => Vec::new(),
        };
        Ok(RepOutcome {
            measurements: out,
            trace,
            attribution,
            excluded: excluded_total,
            excluded_by_session,
            datagram,
            link,
        })
    }

    /// Read the server access link's queue gauges off a finished engine:
    /// downstream is the direction the server transmits, upstream the
    /// switch's side of the same link.
    fn read_link_report(
        engine: &bnm_sim::Engine,
        link: bnm_sim::LinkId,
        server: bnm_sim::NodeId,
        switch: bnm_sim::NodeId,
    ) -> LinkReport {
        LinkReport {
            down_queue_drops: engine.queue_drops(link, server),
            up_queue_drops: engine.queue_drops(link, switch),
            down_queue_peak_bytes: engine.queue_peak_bytes(link, server) as u64,
            up_queue_peak_bytes: engine.queue_peak_bytes(link, switch) as u64,
        }
    }

    /// Take a tap's sink back out of a finished engine as the type the
    /// run installed.
    fn take_sink<S: CaptureSink + Default + 'static>(
        engine: &mut bnm_sim::Engine,
        tap: bnm_sim::TapId,
    ) -> S {
        let mut sink = engine
            .tap_mut(tap)
            .take_sink()
            .expect("streaming tap carries a sink");
        let sink = sink.as_any_mut().downcast_mut::<S>();
        std::mem::take(sink.expect("tap carries the sink the run installed"))
    }

    /// Worker threads for batch-path session matching: the explicit
    /// override when set, else parallel only once a repetition has
    /// enough sessions for thread spin-up to pay for itself.
    fn match_worker_count(cell: &ExperimentCell, sessions: usize) -> usize {
        match cell.streaming.match_workers {
            Some(n) => n,
            None => {
                if sessions >= PARALLEL_MATCH_MIN_SESSIONS {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                } else {
                    1
                }
            }
        }
    }

    /// Appraise one session's datagram train from its probe verdicts:
    /// count every probe's fate, emit a [`RoundMeasurement`] per
    /// delivered probe the browser saw (arrival order, so reordering
    /// stays visible downstream), and compute the repetition's RFC 3550
    /// jitter twice — from wire transit pairs and from the browser's own
    /// stamps.
    fn fold_datagram_session(
        verdicts: &[ProbeVerdict],
        train_len: u8,
        sid: u64,
        rounds: &[RoundResult],
        out: &mut Vec<RoundMeasurement>,
    ) -> DatagramSamples {
        let mut d = DatagramSamples {
            sent: u64::from(train_len),
            ..DatagramSamples::default()
        };
        for v in verdicts {
            match v.status {
                ProbeStatus::Delivered => d.delivered += 1,
                ProbeStatus::LostUpstream => d.lost_upstream += 1,
                ProbeStatus::LostDownstream => d.lost_downstream += 1,
            }
            if v.duplicated {
                d.duplicated += 1;
            }
            if v.reordered {
                d.reordered += 1;
            }
            if let Some(owd) = v.owd_up_ms {
                d.owd_up_ms.push(owd);
            }
            if let Some(owd) = v.owd_down_ms {
                d.owd_down_ms.push(owd);
            }
        }
        // Δd rows: each delivered probe whose echo the browser stamped.
        // `rounds` is already in the order the script saw the echoes.
        for r in rounds {
            let verdict = r
                .round
                .checked_sub(1)
                .and_then(|i| verdicts.get(usize::from(i)));
            if let Some(wire) = verdict.and_then(|v| v.wire) {
                out.push(RoundMeasurement {
                    session: sid,
                    round: r.round,
                    browser: *r,
                    wire,
                });
            }
        }
        // Wire jitter: downstream transit pairs (echo leaves server,
        // echo reaches client) ordered by client arrival.
        let mut transit: Vec<(f64, f64)> = verdicts
            .iter()
            .filter_map(|v| {
                let arrive = v.wire?.tn_r.as_millis_f64();
                Some((arrive - v.owd_down_ms?, arrive))
            })
            .collect();
        transit.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("capture stamps are finite"));
        d.wire_jitter_ms
            .push(bnm_stats::jitter::rfc3550_transit_jitter(&transit));
        let browser_pairs: Vec<(f64, f64)> =
            rounds.iter().map(|r| (r.tb_s_ms, r.tb_r_ms)).collect();
        d.browser_jitter_ms
            .push(bnm_stats::jitter::rfc3550_transit_jitter(&browser_pairs));
        d
    }

    /// Resolve the runtime profile for a cell, or report why it cannot
    /// exist (browser absent on the OS).
    pub fn try_profile(cell: &ExperimentCell) -> Result<BrowserProfile, RunError> {
        let p = match cell.runtime {
            RuntimeSel::Browser(b) => {
                BrowserProfile::build(b, cell.os).ok_or_else(|| RunError::unrunnable(cell))?
            }
            RuntimeSel::AppletViewer => BrowserProfile::appletviewer(cell.os),
            RuntimeSel::MobileWebKit => BrowserProfile::mobile_webkit(),
        };
        Ok(if cell.fixed_safari_java {
            p.with_fixed_safari_java()
        } else {
            p
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
    use bnm_time::{OsKind, TimingApiKind};

    use crate::config::ContentionSpec;
    use crate::report::Render as _;

    fn small_cell(method: MethodId, browser: BrowserKind, os: OsKind) -> ExperimentCell {
        ExperimentCell::paper(method, RuntimeSel::Browser(browser), os).with_reps(10)
    }

    fn run(cell: &ExperimentCell) -> CellResult {
        ExperimentRunner::try_run(cell).unwrap()
    }

    #[test]
    fn xhr_cell_produces_full_samples() {
        let cell = small_cell(MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204);
        let r = run(&cell);
        assert_eq!(r.failures, 0);
        assert_eq!(r.d1.len(), 10);
        assert_eq!(r.d2.len(), 10);
        assert_eq!(r.measurements.len(), 20);
        // HTTP overhead is positive and non-trivial but far below the
        // handshake regime.
        for &d in r.pooled().iter() {
            assert!(d > 0.0, "Δd {d}");
            assert!(d < 60.0, "Δd {d}");
        }
    }

    #[test]
    fn round_selects_or_reports() {
        let r = CellResult {
            d1: vec![1.0],
            d2: vec![2.0],
            ..CellResult::default()
        };
        assert_eq!(r.round(1).unwrap(), &[1.0]);
        assert_eq!(r.round(2).unwrap(), &[2.0]);
        assert_eq!(r.round(3), Err(RunError::InvalidRound(3)));
    }

    #[test]
    fn websocket_overhead_below_http() {
        let ws = run(&small_cell(
            MethodId::WebSocket,
            BrowserKind::Chrome,
            OsKind::Ubuntu1204,
        ));
        let xhr = run(&small_cell(
            MethodId::XhrGet,
            BrowserKind::Chrome,
            OsKind::Ubuntu1204,
        ));
        let med = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let ws_med = med(ws.pooled());
        let xhr_med = med(xhr.pooled());
        assert!(ws_med < xhr_med, "ws {ws_med} !< xhr {xhr_med}");
        assert!(ws_med < 2.0, "ws median {ws_med}");
    }

    #[test]
    fn opera_flash_d1_includes_handshake() {
        let cell = small_cell(MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7);
        let r = run(&cell);
        assert_eq!(r.failures, 0);
        let med = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        let d1 = med(&r.d1);
        let d2 = med(&r.d2);
        assert!(d1 > 85.0, "Δd1 median {d1}");
        assert!(d2 < 50.0, "Δd2 median {d2}");
        // Table 3's arithmetic: Δd1 − Δd2 ≈ the 50 ms handshake + init.
        assert!(d1 - d2 > 45.0);
    }

    #[test]
    fn network_rtt_is_close_to_fifty_ms() {
        let cell = small_cell(MethodId::JavaTcp, BrowserKind::Chrome, OsKind::Ubuntu1204);
        let r = run(&cell);
        for m in &r.measurements {
            let rtt = m.network_rtt_ms();
            assert!(rtt > 50.0 && rtt < 51.0, "wire rtt {rtt}");
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let cell = small_cell(MethodId::Dom, BrowserKind::Firefox, OsKind::Ubuntu1204)
            .with_reps(5)
            .with_seed(77);
        let a = run(&cell);
        let b = run(&cell);
        assert_eq!(a.d1, b.d1);
        assert_eq!(a.d2, b.d2);
        let c = run(&cell.clone().with_seed(78));
        assert_ne!(a.d1, c.d1);
    }

    #[test]
    fn nanotime_removes_java_underestimation() {
        let base =
            small_cell(MethodId::JavaTcp, BrowserKind::Firefox, OsKind::Windows7).with_reps(16);
        let gettime = run(&base);
        let nano = run(&base.clone().with_timing(TimingApiKind::JavaNanoTime));
        let neg_gettime = gettime.pooled().iter().filter(|&&d| d < 0.0).count();
        let neg_nano = nano.pooled().iter().filter(|&&d| d < 0.0).count();
        assert!(
            neg_gettime > 0,
            "Date.getTime must under-estimate sometimes"
        );
        assert_eq!(neg_nano, 0, "nanoTime must never under-estimate");
        // And the nanoTime overhead is tiny.
        assert!(nano.pooled().iter().all(|&d| d < 1.0));
    }

    #[test]
    fn unrunnable_cell_reports_typed_error() {
        let cell = small_cell(MethodId::WebSocket, BrowserKind::Ie9, OsKind::Windows7);
        let err = ExperimentRunner::try_run(&cell).unwrap_err();
        assert_eq!(err, RunError::unrunnable(&cell));
        // run_rep refuses too — the executor is not the only guard.
        assert_eq!(
            ExperimentRunner::run_rep(&cell, 0).unwrap_err(),
            RunError::unrunnable(&cell)
        );
    }

    /// Tracing must be a pure observer: same Δd bit-for-bit, and the
    /// attribution must explain each round's Δd down to f64 rounding.
    #[test]
    fn traced_rep_matches_untraced_and_attributes_delta() {
        let plain =
            small_cell(MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204).with_reps(3);
        let traced = plain.clone().with_trace();
        let a = run(&plain);
        let b = run(&traced);
        assert_eq!(a.d1, b.d1);
        assert_eq!(a.d2, b.d2);
        assert!(a.traces.is_empty() && a.attributions.is_empty());
        assert_eq!(b.traces.len(), 3);
        assert_eq!(b.attributions.len(), 6);
        for att in &b.attributions {
            assert!(
                att.residual_ms.abs() < 1e-3,
                "round {} residual {} ms",
                att.round,
                att.residual_ms
            );
        }
    }

    /// A multi-client cell keys every session's samples into
    /// `sessions`, keeps the flat `d1`/`d2` as session 0's view, and
    /// matches each session's probes from its own tap.
    #[test]
    fn contended_cell_keys_results_by_session() {
        let cell = small_cell(MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204)
            .with_reps(3)
            .with_contention(ContentionSpec::clients(3));
        let r = run(&cell);
        assert_eq!(r.failures, 0);
        assert_eq!(r.sessions.len(), 3);
        for (i, s) in r.sessions.iter().enumerate() {
            assert_eq!(s.session, i as u64);
            assert_eq!(s.d1.len(), 3, "session {i} d1");
            assert_eq!(s.d2.len(), 3, "session {i} d2");
            assert!(s.pooled().iter().all(|&d| d > 0.0 && d < 60.0));
        }
        assert_eq!(r.d1, r.sessions[0].d1);
        assert_eq!(r.d2, r.sessions[0].d2);
        // 3 reps × 3 sessions × 2 rounds.
        assert_eq!(r.measurements.len(), 18);
    }

    /// A single-client cell reports exactly one session entry that
    /// mirrors the flat sample sets.
    #[test]
    fn single_client_cell_has_one_session_entry() {
        let cell =
            small_cell(MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204).with_reps(4);
        let r = run(&cell);
        assert_eq!(r.sessions.len(), 1);
        assert_eq!(r.sessions[0].session, 0);
        assert_eq!(r.sessions[0].d1, r.d1);
        assert_eq!(r.sessions[0].d2, r.d2);
        assert_eq!(r.sessions[0].excluded_rounds, r.excluded_rounds);
    }

    /// A traced multi-client rep still attributes the reference
    /// session's Δd down to rounding: the other sessions' frames cross
    /// the same switch but must not leak into session 0's components.
    #[test]
    fn traced_contended_rep_attributes_session_zero() {
        let cell = small_cell(MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204)
            .with_reps(2)
            .with_contention(ContentionSpec::clients(4))
            .with_trace();
        let r = run(&cell);
        assert_eq!(r.failures, 0);
        assert_eq!(r.traces.len(), 2);
        assert_eq!(r.attributions.len(), 4, "2 reps × 2 rounds, session 0");
        for att in &r.attributions {
            assert_eq!(att.session, 0);
            assert!(
                att.residual_ms.abs() < 1e-3,
                "round {} residual {} ms",
                att.round,
                att.residual_ms
            );
        }
    }

    /// A clean-network WebRTC cell delivers the whole train, appraises
    /// every probe individually, and its per-probe metrics match the
    /// wire-truth capture counts exactly.
    #[test]
    fn webrtc_cell_appraises_every_probe() {
        let cell =
            small_cell(MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204).with_reps(4);
        let r = run(&cell);
        assert_eq!(r.failures, 0);
        assert_eq!(r.excluded_rounds, 0, "datagram cells never exclude");
        // 16 probes per rep: probe 1 lands in d1, probes 2..=16 in d2.
        assert_eq!(r.d1.len(), 4);
        assert_eq!(r.d2.len(), 4 * 15);
        assert_eq!(r.measurements.len(), 4 * 16);
        let d = r.sessions[0].datagram.as_ref().unwrap();
        assert_eq!(d.sent, 64);
        assert_eq!(d.delivered, 64);
        assert_eq!(
            d.lost_upstream + d.lost_downstream + d.duplicated + d.reordered,
            0
        );
        assert_eq!(d.owd_up_ms.len(), 64);
        assert_eq!(d.owd_down_ms.len(), 64);
        // One-way legs sum to the ~50 ms wire RTT per probe.
        for (up, down) in d.owd_up_ms.iter().zip(&d.owd_down_ms) {
            assert!(*up > 0.0 && *down > 0.0, "owd {up}/{down}");
            let rtt = up + down;
            assert!(rtt > 50.0 && rtt < 51.0, "owd sum {rtt}");
        }
        // One jitter sample per rep, from each estimator.
        assert_eq!(d.wire_jitter_ms.len(), 4);
        assert_eq!(d.browser_jitter_ms.len(), 4);
        for &j in &d.wire_jitter_ms {
            assert!((0.0..2.0).contains(&j), "wire jitter {j}");
        }
        // Date.getTime quantization can shave a fraction of a ms off the
        // browser RTT, so Δd may dip slightly negative — but overhead
        // stays far below the handshake regime.
        for &dd in &r.pooled() {
            assert!(dd > -1.5 && dd < 60.0, "Δd {dd}");
        }
        // The snapshot carries the datagram digest through Render.
        let snap = r.summary(&cell);
        let dg = snap.datagram.as_ref().unwrap();
        assert_eq!(dg.sent, 64);
        assert!((dg.loss_rate()).abs() < 1e-12);
        assert!(snap.to_json().contains("\"datagram\": {"));
        assert!(snap.to_csv().contains("owd_up"));
    }

    /// Under loss, WebRTC probes that vanish become the loss statistic —
    /// failures stay zero (the DCEP handshake retransmits) and the Δd
    /// sample count equals the wire-truth delivered count.
    #[test]
    fn webrtc_loss_is_measured_not_excluded() {
        let cell = small_cell(MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204)
            .with_reps(6)
            .with_seed(11)
            .with_impairment(crate::Impairment::loss(0.15));
        let r = run(&cell);
        assert_eq!(r.failures, 0, "handshake must survive loss");
        assert_eq!(r.excluded_rounds, 0);
        let d = r.sessions[0].datagram.as_ref().unwrap();
        assert_eq!(d.sent, 6 * 16);
        assert_eq!(
            d.delivered + d.lost_upstream + d.lost_downstream,
            d.sent,
            "every probe is accounted for"
        );
        assert!(d.delivered < d.sent, "15% loss must bite at this seed");
        // Wire-truth count exactness: one Δd row per delivered probe.
        assert_eq!(r.measurements.len() as u64, d.delivered);
        assert_eq!(d.owd_down_ms.len() as u64, d.delivered);
    }

    /// Determinism holds for the datagram path too.
    #[test]
    fn webrtc_same_seed_same_result() {
        let cell = small_cell(MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204)
            .with_reps(3)
            .with_seed(5)
            .with_impairment(crate::Impairment::loss(0.05));
        let a = run(&cell);
        let b = run(&cell);
        assert_eq!(a.d1, b.d1);
        assert_eq!(a.d2, b.d2);
        assert_eq!(a.sessions[0].datagram, b.sessions[0].datagram);
    }

    /// Traced WebRTC reps attribute every delivered probe's Δd down to
    /// rounding — the <1 µs closure criterion, per probe.
    #[test]
    fn traced_webrtc_rep_attributes_per_probe() {
        let cell = small_cell(MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204)
            .with_reps(2)
            .with_trace();
        let r = run(&cell);
        assert_eq!(r.failures, 0);
        assert_eq!(r.traces.len(), 2);
        assert_eq!(r.attributions.len(), 2 * 16);
        for att in &r.attributions {
            assert!(
                att.residual_ms.abs() < 1e-3,
                "probe {} residual {} ms",
                att.round,
                att.residual_ms
            );
        }
    }

    /// Empty sample sets answer quantile queries with NaN, never a
    /// panic — the zero-delivered-probe cell must render cleanly.
    #[test]
    fn empty_session_quantiles_are_nan_not_panic() {
        let s = SessionSamples::default();
        assert!(s.quantile(1, 0.5).is_nan());
        assert!(s.median(2).is_nan());
        assert_eq!(s.count(1), 0);
        // A cell whose every rep failed still summarises and renders.
        let r = CellResult {
            failures: 4,
            ..CellResult::default()
        };
        let cell = small_cell(MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204);
        let snap = r.summary(&cell);
        assert_eq!(snap.total().pooled.count, 0);
        assert!(snap.verdict().is_none());
        let csv = r.summary(&cell).to_csv();
        assert!(!csv.contains("nan"), "NaN must not leak into CSV: {csv}");
    }

    /// An unrunnable Table 2 hole reports `Unrunnable` rather than
    /// producing an empty result.
    #[test]
    fn unrunnable_cell_reports_error() {
        let cell = small_cell(MethodId::WebSocket, BrowserKind::Ie9, OsKind::Windows7);
        assert!(matches!(
            ExperimentRunner::try_run(&cell),
            Err(crate::error::RunError::Unrunnable { .. })
        ));
    }
}
