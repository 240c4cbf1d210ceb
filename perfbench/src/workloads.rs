//! The four workloads: what each sets up from the seed, how one untraced
//! iteration runs through the program's entry points, and how the
//! traced pass replays the same work with spans.

use std::time::{Duration, Instant};

use bnm_browser::BrowserKind;
use bnm_core::battery::{
    run_battery, BatteryConfig, BatteryEntry, BatteryReport, BatteryScenario, ScenarioOutcome,
};
use bnm_core::config::{CellBuilder, ContentionSpec, StreamingSpec};
use bnm_core::recommend::appraise_snapshot;
use bnm_core::{
    CellResult, Executor, ExperimentCell, ExperimentRunner, FaultSpec, Impairment, LinkDynamics,
    LinkShape, Monitor, MonitorConfig, RateSchedule, Render, ReportFormat, ReportSnapshot,
    RunError, RuntimeSel,
};
use bnm_methods::MethodId;
use bnm_sim::link::LinkSpec;
use bnm_sim::time::SimDuration;
use bnm_time::OsKind;

use crate::common::{Accounting, Recorder, Runs};
use crate::paper::PaperInputs;
use crate::tracer::Tracer;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full paper reproduction.
    Paper,
    /// 1,000 lossy clients on one shared server link.
    Crowd,
    /// The scored scenario battery.
    Battery,
    /// A continuous monitor stepped in a closed loop.
    Serve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Crowd,
        Workload::Battery,
        Workload::Serve,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Crowd => "crowd",
            Workload::Battery => "battery",
            Workload::Serve => "serve",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload dimensions. [`Size::FULL`] is what the benchmark measures;
/// [`Size::SMALL`] keeps every code path for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Repetitions per paper cell (`all_experiments` uses 50).
    pub paper_reps: u32,
    /// Clients of the crowd cell.
    pub crowd_clients: u32,
    /// Repetitions of the crowd cell.
    pub crowd_reps: u32,
    /// Repetitions per battery cell (`bnm battery` uses 25).
    pub battery_reps: u32,
    /// Clients of the monitored serve cell.
    pub serve_clients: u32,
    /// Monitor rounds per serve iteration.
    pub serve_rounds: u32,
}

impl Size {
    /// The measured configuration.
    pub const FULL: Size = Size {
        paper_reps: 50,
        crowd_clients: 1000,
        crowd_reps: 2,
        battery_reps: 25,
        serve_clients: 16,
        serve_rounds: 1000,
    };

    /// The reduced self-test configuration.
    #[cfg(test)]
    pub const SMALL: Size = Size {
        paper_reps: 2,
        crowd_clients: 40,
        crowd_reps: 2,
        battery_reps: 2,
        serve_clients: 4,
        serve_rounds: 30,
    };

    /// Repetitions per cell of a workload, for the run metadata.
    pub fn reps(&self, w: Workload) -> u32 {
        match w {
            Workload::Paper => self.paper_reps,
            Workload::Crowd => self.crowd_reps,
            Workload::Battery => self.battery_reps,
            Workload::Serve => self.serve_rounds,
        }
    }
}

/// Crowd link rate per client: 1,000 clients share 6.25 Mb/s.
const CROWD_PER_CLIENT_BPS: u64 = 6_250;
/// Frame loss of the crowd and serve cells.
const LOSS: f64 = 0.02;
/// Raw samples the crowd keeps per session before sketching.
const CROWD_RETENTION: u32 = 64;
/// Serve polls a snapshot every this many rounds.
const SERVE_POLL_EVERY: u32 = 10;

/// The battery's method roster (`core::battery`).
const ROSTER: [(MethodId, BrowserKind, OsKind); 4] = [
    (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
    (MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204),
];

/// A workload's generated inputs, built in the timed set-up.
pub enum Inputs {
    /// Every cell and bulk transfer of the reproduction.
    Paper(PaperInputs),
    /// The one crowd cell.
    Crowd(Vec<ExperimentCell>),
    /// Battery cells with the index of their scenario family.
    Battery {
        /// The configuration `bnm battery` runs with.
        cfg: BatteryConfig,
        /// Runnable `(scenario × roster)` cells.
        cells: Vec<ExperimentCell>,
        /// Scenario index of each cell.
        owner: Vec<usize>,
    },
    /// A fresh monitor and how many rounds to step it.
    Serve {
        /// The monitor, constructed and validated.
        monitor: Box<Monitor>,
        /// Rounds to step.
        rounds: u32,
    },
}

/// Apply a battery scenario's network conditions to a cell, as
/// `core::battery` does for `bnm battery`.
fn battery_conditions(scenario: BatteryScenario, b: CellBuilder) -> CellBuilder {
    match scenario {
        BatteryScenario::Clean => b,
        BatteryScenario::Impaired => {
            let spec = FaultSpec {
                drop_chance: 0.02,
                ..FaultSpec::CLEAN
            };
            b.impairment(Impairment {
                up: spec,
                down: spec,
                jitter: SimDuration::from_millis(5),
            })
        }
        BatteryScenario::Contended => {
            b.contention(ContentionSpec::clients(8).with_server_link_rate(2_000_000))
        }
        BatteryScenario::Bufferbloat => {
            b.contention(ContentionSpec::clients(8).with_server_link_rate(400_000))
        }
        BatteryScenario::BufferbloatAqm => b
            .contention(ContentionSpec::clients(8).with_server_link_rate(400_000))
            .link_shape(LinkShape::symmetric(LinkDynamics::codel())),
        BatteryScenario::TimeVarying => b.link_shape(LinkShape {
            down_spec: Some(LinkSpec {
                rate_bps: 2_000_000,
                ..LinkSpec::fast_ethernet()
            }),
            down: LinkDynamics::scheduled(RateSchedule::OnOff {
                period: SimDuration::from_millis(200),
                on: SimDuration::from_millis(50),
                on_bps: 256_000,
            }),
            ..LinkShape::default()
        }),
    }
}

/// Build a workload's inputs from the seed: cell construction and
/// validation, runtime-profile resolution, monitor construction.
pub fn setup(w: Workload, seed: u64, size: Size) -> Inputs {
    let resolve = |cell: ExperimentCell| -> ExperimentCell {
        ExperimentRunner::try_profile(&cell).unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
        cell
    };
    match w {
        Workload::Paper => Inputs::Paper(PaperInputs::new(seed, size.paper_reps)),
        Workload::Crowd => {
            let cell = ExperimentCell::builder(
                MethodId::XhrGet,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .reps(size.crowd_reps)
            .seed(seed)
            .contention(
                ContentionSpec::clients(size.crowd_clients)
                    .with_server_link_rate(CROWD_PER_CLIENT_BPS * u64::from(size.crowd_clients)),
            )
            .impairment(Impairment::loss(LOSS))
            .streaming(StreamingSpec::bounded(CROWD_RETENTION))
            .build()
            .expect("the crowd cell is valid");
            Inputs::Crowd(vec![resolve(cell)])
        }
        Workload::Battery => {
            let cfg = BatteryConfig {
                reps: size.battery_reps,
                seed,
            };
            let mut cells = Vec::new();
            let mut owner = Vec::new();
            for (si, scenario) in BatteryScenario::ALL.iter().enumerate() {
                for (method, browser, os) in ROSTER {
                    let b = ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
                        .reps(cfg.reps)
                        .seed(cfg.seed);
                    match battery_conditions(*scenario, b).build() {
                        Ok(cell) => {
                            cells.push(resolve(cell));
                            owner.push(si);
                        }
                        Err(RunError::Unrunnable { .. }) => continue,
                        Err(e) => panic!("battery cell: {e}"),
                    }
                }
            }
            Inputs::Battery { cfg, cells, owner }
        }
        Workload::Serve => {
            let cell = ExperimentCell::builder(
                MethodId::XhrGet,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .reps(1)
            .seed(seed)
            .contention(ContentionSpec::clients(size.serve_clients))
            .impairment(Impairment::loss(LOSS))
            .streaming(StreamingSpec::serve())
            .build()
            .expect("the serve cell is valid");
            let monitor = Monitor::with_config(resolve(cell), MonitorConfig::default())
                .expect("the serve cell is runnable");
            Inputs::Serve {
                monitor: Box::new(monitor),
                rounds: size.serve_rounds,
            }
        }
    }
}

/// Render a batch snapshot in all three formats.
fn render_snapshot(snap: &ReportSnapshot) -> String {
    let mut out = snap.render(ReportFormat::Text);
    out.push_str(&snap.render(ReportFormat::Json));
    out.push_str(&snap.render(ReportFormat::Csv));
    out
}

/// Fold battery results into the scored report `run_battery` returns:
/// snapshot each cell, appraise it, rank each scenario by score. Adds
/// the time spent snapshotting to `render` and the time spent scoring
/// to `score`.
fn battery_report(
    cfg: BatteryConfig,
    cells: &[ExperimentCell],
    owner: &[usize],
    results: &[CellResult],
    render: &mut Duration,
    score: &mut Duration,
) -> BatteryReport {
    let mut scenarios: Vec<ScenarioOutcome> = BatteryScenario::ALL
        .iter()
        .map(|s| ScenarioOutcome {
            scenario: *s,
            entries: Vec::new(),
            no_data: Vec::new(),
        })
        .collect();
    for ((cell, &si), result) in cells.iter().zip(owner).zip(results) {
        let t = Instant::now();
        let snap = result.summary(cell);
        *render += t.elapsed();
        let t = Instant::now();
        match appraise_snapshot(&snap) {
            Some(verdict) => {
                let score = verdict.score();
                scenarios[si].entries.push(BatteryEntry {
                    verdict,
                    score,
                    link: snap.link,
                });
            }
            None => scenarios[si].no_data.push(snap.label),
        }
        *score += t.elapsed();
    }
    let t = Instant::now();
    for s in &mut scenarios {
        s.entries.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.verdict.label.cmp(&b.verdict.label))
        });
    }
    *score += t.elapsed();
    BatteryReport {
        config: cfg,
        scenarios,
    }
}

/// Render the battery report in all three formats, as `bnm battery`
/// offers them.
fn render_battery(report: &BatteryReport) -> String {
    let mut out = report.to_text();
    out.push_str(&report.to_json());
    out.push_str(&report.to_csv());
    out
}

/// Cells and results of one untraced iteration, kept for snapshot
/// sampling after the iteration's clock stops.
pub type Finished = Vec<(ExperimentCell, CellResult)>;

/// One untraced iteration: run the workload through the program's entry
/// points and return its rendered output with the finished cells.
/// Repetition latencies and round accounting land in `rec`.
pub fn run(inputs: Inputs, rec: &mut Recorder) -> (String, Finished) {
    match inputs {
        Inputs::Paper(p) => {
            let results = p.run(rec);
            let out = p.render(&results);
            (out, p.finished(results))
        }
        Inputs::Crowd(cells) => {
            let results = rec.batch(&cells);
            let out = render_snapshot(&results[0].summary(&cells[0]));
            (out, cells.into_iter().zip(results).collect())
        }
        Inputs::Battery { cfg, cells, owner } => {
            let results = rec.batch(&cells);
            let (mut render, mut score) = (Duration::ZERO, Duration::ZERO);
            let report = battery_report(cfg, &cells, &owner, &results, &mut render, &mut score);
            (
                render_battery(&report),
                cells.into_iter().zip(results).collect(),
            )
        }
        Inputs::Serve {
            mut monitor,
            rounds,
        } => {
            bytes::pool::reset_stats();
            let mut out = String::new();
            for round in 1..=rounds {
                let t = Instant::now();
                monitor.step();
                rec.unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if round % SERVE_POLL_EVERY == 0 {
                    let t = Instant::now();
                    let snap = monitor.snapshot();
                    rec.snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
                    out.push_str(&snap.render(ReportFormat::Text));
                }
            }
            rec.exec.pool.absorb(&bytes::pool::stats());
            serve_accounting(&monitor, &mut rec.acct);
            (out, Vec::new())
        }
    }
}

/// How many times to time `CellResult::summary` per finished cell, so
/// every workload gathers a few hundred snapshot samples per iteration.
pub fn snapshot_repeat(w: Workload) -> usize {
    match w {
        Workload::Paper => 3,
        Workload::Crowd => 200,
        Workload::Battery => 20,
        Workload::Serve => 0,
    }
}

/// Account a monitor's rounds: every round of every session is a Δd
/// sample, an exclusion, or part of a failed round.
fn serve_accounting(monitor: &Monitor, acct: &mut Accounting) {
    let cell = monitor.cell();
    let snap = monitor.snapshot();
    let rounds = u64::from(cell.method.plan(cell.timing_override).rounds);
    let clients = u64::from(cell.clients);
    let scheduled = snap.rounds * rounds * clients;
    let failed = snap.failures * rounds * clients;
    if snap.samples + snap.excluded_rounds + failed != scheduled {
        acct.violations.push(format!(
            "{}: {} samples + {} excluded + {failed} failed != {scheduled} scheduled",
            snap.label, snap.samples, snap.excluded_rounds
        ));
    }
    acct.scheduled += scheduled;
    acct.delivered += snap.samples;
    acct.excluded += snap.excluded_rounds;
    acct.failed += failed;
}

/// The traced pass of a workload: the same work, serial, with spans and
/// per-repetition parity. Returns the rendered output, which must digest
/// equal to the untraced run's.
pub fn traced(inputs: Inputs, tracer: &mut Tracer) -> String {
    match inputs {
        Inputs::Paper(p) => {
            let results = p.run(tracer);
            tracer.render(|| p.render(&results))
        }
        Inputs::Crowd(cells) => {
            let results = tracer.batch(&cells);
            tracer.render(|| render_snapshot(&results[0].summary(&cells[0])))
        }
        Inputs::Battery { cfg, cells, owner } => {
            let results = tracer.batch(&cells);
            let (mut render, mut score) = (Duration::ZERO, Duration::ZERO);
            let report = battery_report(cfg, &cells, &owner, &results, &mut render, &mut score);
            tracer.render += render;
            tracer.score += score;
            tracer.render(|| render_battery(&report))
        }
        Inputs::Serve {
            mut monitor,
            rounds,
        } => {
            let cell = monitor.cell().clone();
            let mut out = String::new();
            for round in 1..=rounds {
                // The monitor's round `i` is the batch repetition `i`.
                let _ = tracer.rep(&cell, round - 1);
                let t = Instant::now();
                monitor.step();
                tracer.step += t.elapsed();
                if round % SERVE_POLL_EVERY == 0 {
                    let t = Instant::now();
                    let snap = monitor.snapshot();
                    tracer.snapshot += t.elapsed();
                    out.push_str(&tracer.render(|| snap.render(ReportFormat::Text)));
                }
            }
            let fp = monitor.footprint();
            tracer.sketch_buckets = fp.sketch_buckets as u64;
            tracer.live_pans = (fp.sketch_pans + fp.counter_pans) as u64;
            serve_accounting(&monitor, &mut tracer.acct);
            out
        }
    }
}

/// Check the benchmark's battery rebuild against `run_battery` itself:
/// the same cells must give the same scored report. Returns a
/// description of the difference, if any.
pub fn battery_parity(seed: u64, size: Size) -> Option<String> {
    let Inputs::Battery { cfg, cells, owner } = setup(Workload::Battery, seed, size) else {
        unreachable!("battery set-up yields battery inputs");
    };
    let reference = match run_battery(&cfg, &Executor::new()) {
        Ok(r) => r,
        Err(e) => return Some(format!("run_battery failed: {e}")),
    };
    let results: Vec<CellResult> = Executor::new()
        .run(&cells)
        .into_iter()
        .map(|r| r.expect("battery cells are runnable"))
        .collect();
    let (mut render, mut score) = (Duration::ZERO, Duration::ZERO);
    let ours = battery_report(cfg, &cells, &owner, &results, &mut render, &mut score);
    (ours != reference).then(|| "battery report differs from run_battery".to_string())
}
