//! One repetition rebuilt from the library's public entry points, with a
//! wall-clock span around each layer call.
//!
//! [`traced_rep`] performs the same steps as
//! `ExperimentRunner::run_rep_traced` — profile resolution, scenario
//! build with the runner's seed derivation, capture sinks, the run, and
//! capture matching — through `Scenario::build_traced` for every client
//! count (the N = 1 scenario is byte-identical to the single-client
//! testbed). The caller compares each outcome with the runner's own, so
//! the spans always time the program the untraced run executes.

use std::any::Any;
use std::time::{Duration, Instant};

use bnm_browser::{session_token, BrowserProfile, RoundResult};
use bnm_core::matching::{match_datagram_train, ParsedCapture, ProbeStatus};
use bnm_core::runner::DatagramSamples;
use bnm_core::throughput::{match_bulk_round, BulkMeasurement};
use bnm_core::{
    DiscardSink, ExperimentCell, ExperimentRunner, LinkReport, MatchError, RepOutcome,
    RoundMeasurement, RunError, Scenario, ServerMarkerIndex, SessionMarkerSink, SessionSpec,
    Testbed, TestbedConfig,
};
use bnm_methods::MethodId;
use bnm_obs::Trace;
use bnm_sim::capture::{CaptureDir, CaptureSink};
use bnm_sim::rng;
use bnm_sim::time::{SimDuration, SimTime};
use bnm_time::MachineTimer;
use bytes::Bytes;

/// Wall-clock time and work counts of the layers a repetition passes
/// through, summed over every repetition of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerSpans {
    /// Profile resolution, session specs and `Scenario::build_traced`.
    pub build: Duration,
    /// Scenarios built.
    pub builds: u64,
    /// `Scenario::run`: scheduler, links, TCP, HTTP, browser sessions
    /// and the capture sinks, all inside the engine loop.
    pub run: Duration,
    /// Engine events processed.
    pub events: u64,
    /// Time inside capture sinks (nested in `run`).
    pub sink: Duration,
    /// Capture records the sinks consumed.
    pub records: u64,
    /// Capture parsing, round matching and the retransmission rule.
    pub matching: Duration,
    /// Whole repetitions, build to matched outcome.
    pub rep: Duration,
    /// Server-link queue drops, both directions.
    pub queue_drops: u64,
    /// Largest server-link queue depth seen, bytes.
    pub queue_peak_bytes: u64,
}

/// Capture-sink wrapper that times every record handed to the real sink.
#[derive(Debug)]
struct TimedSink {
    inner: Box<dyn CaptureSink>,
    busy: Duration,
    records: u64,
}

impl TimedSink {
    fn new(inner: Box<dyn CaptureSink>) -> TimedSink {
        TimedSink {
            inner,
            busy: Duration::ZERO,
            records: 0,
        }
    }
}

impl CaptureSink for TimedSink {
    fn on_record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
        let start = Instant::now();
        self.inner.on_record(ts, dir, frame);
        self.busy += start.elapsed();
        self.records += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Remove a tap's timed sink after the run, adding its time and record
/// count to `spans`.
fn take_timed(
    engine: &mut bnm_sim::Engine,
    tap: bnm_sim::TapId,
    spans: &mut LayerSpans,
) -> Box<dyn CaptureSink> {
    let mut sink = engine
        .tap_mut(tap)
        .take_sink()
        .expect("streaming tap carries the timed sink");
    let timed = sink
        .as_any_mut()
        .downcast_mut::<TimedSink>()
        .expect("the benchmark installs only timed sinks");
    spans.sink += timed.busy;
    spans.records += timed.records;
    // The wrapper is only a shell around the real sink; unwrap it.
    std::mem::replace(&mut timed.inner, Box::new(DiscardSink::default()))
}

/// The runner's testbed configuration for a cell.
fn testbed_config(cell: &ExperimentCell) -> TestbedConfig {
    let mut cfg = TestbedConfig {
        server_delay: cell.server_delay,
        capture_noise_ns: cell.capture_noise_ns,
        seed: rng::derive_seed(cell.seed, "capture"),
        impairment: cell.impairment,
        server_shape: cell.link_shape.clone(),
        ..TestbedConfig::default()
    };
    // The single-client path never applies the contention rate.
    if let (true, Some(rate)) = (cell.clients > 1, cell.server_link_rate_bps) {
        cfg.server_link = bnm_sim::link::LinkSpec {
            rate_bps: rate,
            ..bnm_sim::link::LinkSpec::fast_ethernet()
        };
    }
    cfg
}

/// Session specs with the runner's per-session seed derivation.
fn session_specs(cell: &ExperimentCell, rep: u32, profile: &BrowserProfile) -> Vec<SessionSpec> {
    let label = cell.label();
    let plan = cell.method.plan(cell.timing_override);
    (0..u64::from(cell.clients))
        .map(|sid| {
            let suffix = if sid == 0 {
                String::new()
            } else {
                format!(".s{sid}")
            };
            let machine_seed = rng::derive_seed(cell.seed, &format!("machine.{label}{suffix}"));
            let machine = MachineTimer::new(cell.os, machine_seed)
                .at_offset(SimDuration::from_secs(4).saturating_mul(u64::from(rep)));
            let session_seed = rng::derive_seed(cell.seed, &format!("session.{label}{suffix}"));
            SessionSpec {
                id: sid,
                plan: plan.clone(),
                profile: profile.clone(),
                machine,
                seed: session_seed ^ u64::from(rep),
            }
        })
        .collect()
}

/// Run one `(cell, rep)` with a span around each layer. `trace` is the
/// scenario's virtual-time trace handle: disabled for timing, enabled
/// for a counting pass (its data comes back in `RepOutcome::trace`).
pub fn traced_rep(
    cell: &ExperimentCell,
    rep: u32,
    trace: Trace,
    spans: &mut LayerSpans,
) -> Result<RepOutcome, RunError> {
    let rep_start = Instant::now();
    let profile = ExperimentRunner::try_profile(cell)?;
    if !cell.method.available_in(&profile) {
        return Err(RunError::unrunnable(cell));
    }
    let cfg = testbed_config(cell);
    let specs = session_specs(cell, rep, &profile);
    let plan_rounds = cell.method.plan(cell.timing_override).rounds;
    let mut sc = Scenario::build_traced(&cfg, specs, u64::from(rep), trace);
    let tokens: Vec<u64> = (0..sc.len())
        .map(|i| session_token(sc.session_id(i), u64::from(rep)))
        .collect();
    let is_datagram = cell.method.is_datagram();
    let streaming = cell.streaming.stream_captures && !is_datagram;
    if streaming {
        for (&tap, &token) in sc.client_taps.iter().zip(&tokens) {
            let sink = SessionMarkerSink::new(cell.method, plan_rounds, token);
            sc.engine
                .tap_mut(tap)
                .set_sink(Box::new(TimedSink::new(Box::new(sink))));
        }
        let server: Box<dyn CaptureSink> = if cell.impairment.is_clean() {
            Box::new(DiscardSink::default())
        } else {
            Box::new(ServerMarkerIndex::new(cell.method, plan_rounds, &tokens))
        };
        sc.engine
            .tap_mut(sc.server_tap)
            .set_sink(Box::new(TimedSink::new(server)));
    }
    spans.build += rep_start.elapsed();
    spans.builds += 1;

    let run_start = Instant::now();
    sc.run();
    spans.run += run_start.elapsed();
    spans.events += sc.engine.events_processed();
    let link = LinkReport {
        down_queue_drops: sc.engine.queue_drops(sc.server_link, sc.server),
        up_queue_drops: sc.engine.queue_drops(sc.server_link, sc.switch),
        down_queue_peak_bytes: sc.engine.queue_peak_bytes(sc.server_link, sc.server) as u64,
        up_queue_peak_bytes: sc.engine.queue_peak_bytes(sc.server_link, sc.switch) as u64,
    };
    spans.queue_drops += link.down_queue_drops + link.up_queue_drops;
    spans.queue_peak_bytes = spans
        .queue_peak_bytes
        .max(link.down_queue_peak_bytes)
        .max(link.up_queue_peak_bytes);

    let sessions: Vec<Vec<RoundResult>> = (0..sc.len())
        .map(|i| {
            let result = sc.session(i).result();
            result.completed.then(|| result.rounds.clone())
        })
        .collect::<Option<_>>()
        .ok_or(RunError::Match(MatchError::ResponseNotFound))?;

    let match_start = Instant::now();
    let mut out = Vec::new();
    let mut excluded_total = 0u32;
    let mut excluded_by_session = Vec::with_capacity(sc.len());
    let mut datagram = Vec::new();
    if streaming {
        let server = take_timed(&mut sc.engine, sc.server_tap, spans);
        let index = server.as_any().downcast_ref::<ServerMarkerIndex>();
        for (i, rounds) in sessions.iter().enumerate() {
            let client = take_timed(&mut sc.engine, sc.client_taps[i], spans);
            let sink = client
                .as_any()
                .downcast_ref::<SessionMarkerSink>()
                .expect("client taps carry marker sinks");
            let sid = sc.session_id(i);
            let mut excluded = 0u32;
            for r in rounds {
                let wire = match sink.match_round(r.round) {
                    Err(MatchError::Retransmitted) => {
                        excluded += 1;
                        continue;
                    }
                    other => other?,
                };
                if index.is_some_and(|ix| ix.round_retransmitted(r.round, tokens[i])) {
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
            excluded_total += excluded;
            excluded_by_session.push((sid, excluded));
        }
    } else {
        let server_parsed = (is_datagram || !cell.impairment.is_clean())
            .then(|| ParsedCapture::parse(sc.engine.tap(sc.server_tap)));
        for (i, rounds) in sessions.into_iter().enumerate() {
            let sid = sc.session_id(i);
            let records = sc.engine.tap_mut(sc.client_taps[i]).drain();
            let parsed = ParsedCapture::parse_records(&records);
            if is_datagram {
                let server = server_parsed
                    .as_ref()
                    .expect("datagram cells parse the server tap");
                let d = fold_datagram(
                    cell.method,
                    plan_rounds,
                    tokens[i],
                    sid,
                    &rounds,
                    &parsed,
                    server,
                    &mut out,
                );
                excluded_by_session.push((sid, 0));
                datagram.push((sid, d));
                continue;
            }
            let mut excluded = 0u32;
            for r in rounds {
                let wire = match parsed.match_round(cell.method, r.round, tokens[i]) {
                    Err(MatchError::Retransmitted) => {
                        excluded += 1;
                        continue;
                    }
                    other => other?,
                };
                if server_parsed
                    .as_ref()
                    .is_some_and(|sp| sp.round_retransmitted(cell.method, r.round, tokens[i]))
                {
                    excluded += 1;
                    continue;
                }
                out.push(RoundMeasurement {
                    session: sid,
                    round: r.round,
                    browser: r,
                    wire,
                });
            }
            excluded_total += excluded;
            excluded_by_session.push((sid, excluded));
        }
    }
    spans.matching += match_start.elapsed();
    let trace = sc.take_trace();
    spans.rep += rep_start.elapsed();
    Ok(RepOutcome {
        measurements: out,
        trace,
        attribution: Vec::new(),
        excluded: excluded_total,
        excluded_by_session,
        datagram,
        link,
    })
}

/// One bulk-download repetition as `throughput::run_bulk_rep` runs it
/// (single-client testbed, `n` body bytes per round), with spans.
pub fn traced_bulk_rep(
    cell: &ExperimentCell,
    rep: u32,
    n: usize,
    spans: &mut LayerSpans,
) -> Result<Vec<BulkMeasurement>, RunError> {
    let rep_start = Instant::now();
    let profile = ExperimentRunner::try_profile(cell)?;
    if !cell.method.available_in(&profile) {
        return Err(RunError::unrunnable(cell));
    }
    let label = cell.label();
    let machine = MachineTimer::new(
        cell.os,
        rng::derive_seed(cell.seed, &format!("machine.{label}")),
    )
    .at_offset(SimDuration::from_secs(4).saturating_mul(u64::from(rep)));
    let cfg = TestbedConfig {
        server_delay: cell.server_delay,
        capture_noise_ns: cell.capture_noise_ns,
        seed: rng::derive_seed(cell.seed, "capture"),
        ..TestbedConfig::default()
    };
    let plan = cell.method.plan(cell.timing_override).with_bulk(n);
    let session_seed = rng::derive_seed(cell.seed, &format!("session.{label}")) ^ u64::from(rep);
    let mut tb = Testbed::build(&cfg, plan, profile, machine, u64::from(rep), session_seed);
    spans.build += rep_start.elapsed();
    spans.builds += 1;

    let run_start = Instant::now();
    tb.run();
    spans.run += run_start.elapsed();
    spans.events += tb.engine.events_processed();
    if !tb.session().result().completed {
        return Err(RunError::Match(MatchError::ResponseNotFound));
    }

    let match_start = Instant::now();
    let capture = tb.engine.tap(tb.client_tap);
    let out = tb
        .session()
        .result()
        .rounds
        .iter()
        .map(|r| {
            let (tn_s, tn_last) =
                match_bulk_round(capture, cell.method, r.round, u64::from(rep), n)?;
            Ok(BulkMeasurement {
                round: r.round,
                bytes: n,
                browser_ms: r.browser_rtt_ms(),
                wire_ms: tn_last.signed_millis_since(tn_s),
            })
        })
        .collect();
    spans.matching += match_start.elapsed();
    spans.rep += rep_start.elapsed();
    out
}

/// Per-probe appraisal of one session's datagram train from both taps,
/// as the runner does it: verdict counters, one Δd row per delivered
/// probe the browser stamped, and RFC 3550 jitter from wire and
/// browser stamps.
#[allow(clippy::too_many_arguments)]
fn fold_datagram(
    method: MethodId,
    train_len: u8,
    token: u64,
    sid: u64,
    rounds: &[RoundResult],
    client: &ParsedCapture,
    server: &ParsedCapture,
    out: &mut Vec<RoundMeasurement>,
) -> DatagramSamples {
    let verdicts = match_datagram_train(client, server, method, train_len, token);
    let mut d = DatagramSamples {
        sent: u64::from(train_len),
        ..DatagramSamples::default()
    };
    for v in &verdicts {
        match v.status {
            ProbeStatus::Delivered => d.delivered += 1,
            ProbeStatus::LostUpstream => d.lost_upstream += 1,
            ProbeStatus::LostDownstream => d.lost_downstream += 1,
        }
        d.duplicated += u64::from(v.duplicated);
        d.reordered += u64::from(v.reordered);
        d.owd_up_ms.extend(v.owd_up_ms);
        d.owd_down_ms.extend(v.owd_down_ms);
    }
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
    let browser: Vec<(f64, f64)> = rounds.iter().map(|r| (r.tb_s_ms, r.tb_r_ms)).collect();
    d.browser_jitter_ms
        .push(bnm_stats::jitter::rfc3550_transit_jitter(&browser));
    d
}

/// Where a replayed outcome differs from the runner's, or `None` when
/// measurements, exclusions, datagram statistics and link telemetry all
/// agree.
pub fn parity_diff(
    ours: &Result<RepOutcome, RunError>,
    reference: &Result<RepOutcome, RunError>,
) -> Option<String> {
    match (ours, reference) {
        (Ok(a), Ok(b)) => {
            let same = a.measurements == b.measurements
                && a.excluded == b.excluded
                && a.excluded_by_session == b.excluded_by_session
                && a.datagram == b.datagram
                && a.link == b.link;
            (!same).then(|| "measurements, exclusions or link telemetry differ".to_string())
        }
        (Err(a), Err(b)) if a.to_string() == b.to_string() => None,
        (a, b) => Some(format!(
            "outcome kind differs: replay {:?} vs runner {:?}",
            a.as_ref().err().map(ToString::to_string),
            b.as_ref().err().map(ToString::to_string)
        )),
    }
}
