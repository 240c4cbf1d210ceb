//! The `paper` workload: the full reproduction `all_experiments` runs —
//! Tables 1–4, Figures 3–5, the delay sweep, the bulk-throughput
//! extension and the appraisal extensions — with the same cells, seeds
//! and repetition counts, in one process, every table rendered.

use std::fmt::Write as _;

use bnm_browser::BrowserKind;
use bnm_core::appraisal::Appraisal;
use bnm_core::baseline::ping_baseline;
use bnm_core::config::figure3_combos;
use bnm_core::impact::{JitterImpact, ThroughputImpact};
use bnm_core::report::{panel_rows, render_cdf_block, render_panel, to_csv, Render, Table, Value};
use bnm_core::sweep::{d1_slope, d2_slope, SweepPoint};
use bnm_core::throughput::BulkMeasurement;
use bnm_core::{CellResult, ExperimentCell, ExperimentRunner, ReportFormat, RuntimeSel};
use bnm_methods::{table1_rows, table2_rows, MethodId};
use bnm_sim::time::{SimDuration, SimTime};
use bnm_stats::{Cdf, MeanCi, Summary};
use bnm_time::probe::probe_series;
use bnm_time::{make_api, probe_granularity, MachineTimer, OsKind, TimingApiKind};

use crate::common::Runs;

/// Bulk transfer sizes of the throughput extension, bytes.
const BULK_SIZES: [usize; 3] = [16 * 1024, 128 * 1024, 1024 * 1024];
/// Server delays of the sweep extension, ms.
const SWEEP_DELAYS_MS: [u64; 5] = [10, 25, 50, 100, 200];

/// What one executor batch of the reproduction regenerates.
#[derive(Debug, Clone, Copy)]
enum StageKind {
    Fig3(MethodId),
    Table3,
    Fig4,
    Table4,
    Sweep(MethodId, BrowserKind),
    Appraisals,
    Mobile,
}

/// One executor batch: the cells one regenerator submits together.
#[derive(Debug, Clone)]
struct Stage {
    kind: StageKind,
    cells: Vec<ExperimentCell>,
}

/// The generated inputs of the reproduction.
#[derive(Debug, Clone)]
pub struct PaperInputs {
    seed: u64,
    reps: u32,
    stages: Vec<Stage>,
    /// Bulk-download cells (one per method), each run at every size.
    bulk: Vec<ExperimentCell>,
    bulk_reps: u32,
}

/// Everything the reproduction computes before rendering.
pub struct PaperResults {
    stages: Vec<Vec<CellResult>>,
    /// Per (bulk cell × size), the outcome of each repetition.
    bulk: Vec<Vec<Result<Vec<BulkMeasurement>, String>>>,
    ping_ms: Vec<f64>,
}

impl PaperInputs {
    /// Build every cell the regenerators build, validated and with the
    /// runtime profile resolved; unrunnable Table 2 holes are dropped
    /// where the regenerators drop them.
    pub fn new(seed: u64, reps: u32) -> PaperInputs {
        let mut stages = Vec::new();
        let runnable = |cells: Vec<ExperimentCell>| -> Vec<ExperimentCell> {
            cells
                .into_iter()
                .filter(|c| ExperimentRunner::try_profile(c).is_ok() && c.is_runnable())
                .collect()
        };
        for method in MethodId::FIGURE3 {
            let cells = figure3_combos()
                .into_iter()
                .map(|(rt, os)| {
                    ExperimentCell::paper(method, rt, os)
                        .with_reps(reps)
                        .with_seed(seed ^ (method as u64) << 8)
                })
                .collect();
            stages.push(Stage {
                kind: StageKind::Fig3(method),
                cells: runnable(cells),
            });
        }
        let mut cells = Vec::new();
        for method in [MethodId::FlashGet, MethodId::FlashPost] {
            for os in [OsKind::Windows7, OsKind::Ubuntu1204] {
                cells.push(
                    ExperimentCell::paper(method, RuntimeSel::Browser(BrowserKind::Opera), os)
                        .with_reps(reps)
                        .with_seed(seed ^ (method as u64) << 8),
                );
            }
        }
        stages.push(Stage {
            kind: StageKind::Table3,
            cells: runnable(cells),
        });
        let mut cells: Vec<ExperimentCell> = BrowserKind::ALL
            .iter()
            .map(|&b| {
                ExperimentCell::paper(MethodId::JavaTcp, RuntimeSel::Browser(b), OsKind::Windows7)
                    .with_reps(reps)
                    .with_seed(seed)
            })
            .collect();
        cells.push(
            ExperimentCell::paper(
                MethodId::JavaTcp,
                RuntimeSel::AppletViewer,
                OsKind::Windows7,
            )
            .with_reps(reps)
            .with_seed(seed ^ 0x0A12),
        );
        stages.push(Stage {
            kind: StageKind::Fig4,
            cells: runnable(cells),
        });
        let mut cells = Vec::new();
        for method in MethodId::JAVA {
            for browser in BrowserKind::ALL {
                cells.push(
                    ExperimentCell::paper(method, RuntimeSel::Browser(browser), OsKind::Windows7)
                        .with_reps(reps)
                        .with_seed(seed ^ (method as u64) << 8)
                        .with_timing(TimingApiKind::JavaNanoTime)
                        .with_fixed_safari_java(),
                );
            }
        }
        stages.push(Stage {
            kind: StageKind::Table4,
            cells: runnable(cells),
        });
        let sweep_reps = reps.min(15);
        for (method, browser, os) in [
            (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
            (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
            (MethodId::FlashGet, BrowserKind::Chrome, OsKind::Windows7),
            (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
            (MethodId::FlashPost, BrowserKind::Opera, OsKind::Windows7),
        ] {
            let base = ExperimentCell::paper(method, RuntimeSel::Browser(browser), os)
                .with_reps(sweep_reps)
                .with_seed(seed);
            let cells = SWEEP_DELAYS_MS
                .iter()
                .map(|&ms| {
                    let mut c = base.clone();
                    c.server_delay = SimDuration::from_millis(ms);
                    c
                })
                .collect();
            stages.push(Stage {
                kind: StageKind::Sweep(method, browser),
                cells: runnable(cells),
            });
        }
        let mut cells = Vec::new();
        for method in MethodId::ALL {
            for (rt, os) in [
                (RuntimeSel::Browser(BrowserKind::Firefox), OsKind::Windows7),
                (RuntimeSel::Browser(BrowserKind::Chrome), OsKind::Ubuntu1204),
            ] {
                if let Ok(cell) = ExperimentCell::builder(method, rt, os)
                    .reps(reps)
                    .seed(seed)
                    .build()
                {
                    cells.push(cell);
                }
            }
        }
        stages.push(Stage {
            kind: StageKind::Appraisals,
            cells: runnable(cells),
        });
        let cells = MethodId::ALL
            .iter()
            .map(|&m| {
                ExperimentCell::paper(m, RuntimeSel::MobileWebKit, OsKind::Ubuntu1204)
                    .with_reps(reps)
                    .with_seed(seed)
            })
            .collect();
        stages.push(Stage {
            kind: StageKind::Mobile,
            cells: runnable(cells),
        });
        let bulk = runnable(
            [
                MethodId::XhrGet,
                MethodId::FlashGet,
                MethodId::JavaGet,
                MethodId::WebSocket,
            ]
            .iter()
            .map(|&m| {
                ExperimentCell::paper(
                    m,
                    RuntimeSel::Browser(BrowserKind::Chrome),
                    OsKind::Ubuntu1204,
                )
                .with_seed(seed)
            })
            .collect(),
        );
        PaperInputs {
            seed,
            reps,
            stages,
            bulk,
            bulk_reps: reps.min(10),
        }
    }

    /// Every executor cell, in run order.
    pub fn cells(&self) -> impl Iterator<Item = &ExperimentCell> {
        self.stages.iter().flat_map(|s| s.cells.iter())
    }

    /// Run every stage, the bulk extension and the ping baseline.
    pub fn run(&self, runs: &mut impl Runs) -> PaperResults {
        let stages = self.stages.iter().map(|s| runs.batch(&s.cells)).collect();
        let mut bulk = Vec::new();
        for cell in &self.bulk {
            for size in BULK_SIZES {
                bulk.push(
                    (0..self.bulk_reps)
                        .map(|rep| runs.bulk(cell, rep, size).map_err(|e| e.to_string()))
                        .collect(),
                );
            }
        }
        PaperResults {
            stages,
            bulk,
            ping_ms: ping_baseline(10, SimDuration::from_millis(50), self.seed),
        }
    }

    /// Pair every executor cell with its result.
    pub fn finished(&self, res: PaperResults) -> Vec<(ExperimentCell, CellResult)> {
        self.cells()
            .cloned()
            .zip(res.stages.into_iter().flatten())
            .collect()
    }

    /// Render every table and figure of the reproduction.
    pub fn render(&self, res: &PaperResults) -> String {
        let mut out = String::new();
        render_table1(&mut out);
        render_table2(&mut out);
        for (stage, results) in self.stages.iter().zip(&res.stages) {
            let pairs: Vec<(&ExperimentCell, &CellResult)> =
                stage.cells.iter().zip(results).collect();
            match stage.kind {
                StageKind::Fig3(method) => render_fig3(&mut out, method, self.reps, &pairs),
                StageKind::Table3 => render_table3(&mut out, &pairs),
                StageKind::Fig4 => render_fig4(&mut out, &pairs),
                StageKind::Table4 => render_table4(&mut out, &pairs),
                StageKind::Sweep(method, browser) => {
                    render_sweep(&mut out, method, browser, &pairs)
                }
                StageKind::Appraisals => {
                    render_appraisals(&mut out, "Appraisal verdicts", &pairs);
                    render_impact(&mut out, &pairs);
                }
                StageKind::Mobile => {
                    render_appraisals(&mut out, "Mobile WebKit appraisals", &pairs)
                }
            }
        }
        render_fig5(&mut out, self.seed);
        render_tput(&mut out, &self.bulk, &res.bulk, &res.ping_ms);
        out
    }
}

fn render_table1(out: &mut String) {
    let _ = writeln!(out, "Table 1: browser-based measurement methods and tools");
    for r in table1_rows() {
        let _ = writeln!(
            out,
            "{:<13} {:<12} {:<13} {:<10} {:<12} {:<16} {}",
            r.approach, r.technology, r.availability, r.method, r.same_origin, r.metrics, r.tools
        );
    }
}

fn render_table2(out: &mut String) {
    let _ = writeln!(out, "Table 2: browser and system configurations");
    for r in table2_rows() {
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:<9} {:<10} {:<6} {}",
            r.os.name(),
            r.browser.name(),
            r.version,
            r.flash,
            r.java,
            r.websocket
        );
    }
}

fn render_fig3(
    out: &mut String,
    method: MethodId,
    reps: u32,
    pairs: &[(&ExperimentCell, &CellResult)],
) {
    let panel = method.figure3_panel().unwrap_or('?');
    let _ = writeln!(out, "Figure 3 ({panel}) {}", method.display_name());
    let mut rows = Vec::new();
    for (cell, result) in pairs {
        rows.extend(panel_rows(cell, result));
        out.push_str(&to_csv(cell, result));
    }
    out.push_str(&render_panel(&format!("Δd (ms), {reps} reps"), &rows, 58));
}

fn median_of(pairs: &[(&ExperimentCell, &CellResult)], m: MethodId, os: OsKind, round: u8) -> f64 {
    pairs
        .iter()
        .find(|(c, _)| c.method == m && c.os == os)
        .and_then(|(_, r)| r.round(round).ok())
        .map_or(f64::NAN, |v| Summary::of(v).median)
}

fn render_table3(out: &mut String, pairs: &[(&ExperimentCell, &CellResult)]) {
    let _ = writeln!(
        out,
        "Table 3: median Δd of the Flash HTTP methods in Opera (ms)"
    );
    for (method, name) in [(MethodId::FlashGet, "GET"), (MethodId::FlashPost, "POST")] {
        for round in [1u8, 2] {
            let w = median_of(pairs, method, OsKind::Windows7, round);
            let u = median_of(pairs, method, OsKind::Ubuntu1204, round);
            let _ = writeln!(out, "{name:<5} Δd{round} {w:8.2} {u:8.2}");
        }
    }
}

fn render_levels(out: &mut String, label: &str, cdf: &Cdf) {
    let levels: Vec<String> = cdf
        .levels(3.0)
        .iter()
        .map(|(c, m)| format!("{c:7.2} ms ({:4.0}%)", m * 100.0))
        .collect();
    let _ = writeln!(out, "{label:<18} levels: {}", levels.join("  "));
}

fn render_fig4(out: &mut String, pairs: &[(&ExperimentCell, &CellResult)]) {
    let _ = writeln!(out, "Figure 4: Java TCP socket Δd CDFs (Windows)");
    for (cell, result) in pairs {
        let (c1, c2) = Appraisal::cdfs(result);
        let label = cell.runtime.figure_label(cell.os);
        render_levels(out, &format!("{label} Δd1"), &c1);
        render_levels(out, &format!("{label} Δd2"), &c2);
        for (round, data) in [(1u8, &result.d1), (2u8, &result.d2)] {
            for d in data {
                let _ = writeln!(out, "{label},{round},{d:.4}");
            }
        }
        out.push_str(&render_cdf_block(&format!("{label} Δd1 CDF"), &c1, 58, 10));
    }
}

fn render_table4(out: &mut String, pairs: &[(&ExperimentCell, &CellResult)]) {
    let _ = writeln!(
        out,
        "Table 4: Java methods with System.nanoTime() (mean ± 95% CI, ms)"
    );
    for (cell, result) in pairs {
        let _ = write!(out, "{:<28}", cell.label());
        for data in [&result.d1, &result.d2] {
            let _ = write!(out, " {:>13}", MeanCi::of(data).format_table4());
        }
        out.push('\n');
    }
}

fn render_sweep(
    out: &mut String,
    method: MethodId,
    browser: BrowserKind,
    pairs: &[(&ExperimentCell, &CellResult)],
) {
    let label = format!("{} / {}", method.display_name(), browser.initial());
    let points: Option<Vec<SweepPoint>> = pairs
        .iter()
        .map(|(cell, r)| {
            (!r.d1.is_empty() && !r.d2.is_empty()).then(|| SweepPoint {
                delay_ms: cell.server_delay.as_millis_f64(),
                d1_median: Summary::of(&r.d1).median,
                d2_median: Summary::of(&r.d2).median,
            })
        })
        .collect();
    let Some(points) = points else {
        let _ = writeln!(out, "sweep {label}: no samples");
        return;
    };
    let d1: Vec<String> = points
        .iter()
        .map(|p| format!("{:8.1}", p.d1_median))
        .collect();
    let _ = writeln!(
        out,
        "sweep {label:<28} {}   ({:+.2}, {:+.2})",
        d1.join(" "),
        d1_slope(&points).unwrap_or(f64::NAN),
        d2_slope(&points).unwrap_or(f64::NAN)
    );
}

fn render_appraisals(out: &mut String, title: &str, pairs: &[(&ExperimentCell, &CellResult)]) {
    let mut table = Table::new(title, &["cell", "d1_median", "d2_median", "iqr", "verdict"]);
    for (cell, result) in pairs {
        let Ok(a) = Appraisal::try_of(result) else {
            continue;
        };
        table.row(vec![
            Value::Text(cell.label()),
            Value::Num(a.d1.median),
            Value::Num(a.d2.median),
            Value::Num(a.pooled.iqr()),
            Value::Text(format!("{:?}", a.verdict)),
        ]);
    }
    out.push_str(&table.render(ReportFormat::Text));
    out.push_str(&table.to_csv());
}

fn render_impact(out: &mut String, pairs: &[(&ExperimentCell, &CellResult)]) {
    for (cell, result) in pairs {
        if !matches!(cell.method, MethodId::FlashGet | MethodId::WebSocket) {
            continue;
        }
        let wire: Vec<f64> = result
            .measurements
            .iter()
            .map(|m| m.network_rtt_ms())
            .collect();
        let browser: Vec<f64> = result
            .measurements
            .iter()
            .map(|m| m.browser_rtt_ms())
            .collect();
        let j = JitterImpact::of(&wire, &browser);
        let Ok(t) = ThroughputImpact::try_of(
            100_000,
            Summary::of(&wire).median,
            Summary::of(&browser).median,
        ) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:40} jitter {:6.2} → {:6.2} ms   100KB-tput underest {:5.1}%",
            cell.label(),
            j.true_jitter_ms,
            j.measured_jitter_ms,
            t.underestimation() * 100.0
        );
    }
}

fn render_fig5(out: &mut String, seed: u64) {
    let _ = writeln!(out, "Figure 5: timestamp-granularity probe");
    let machine_w = MachineTimer::new(OsKind::Windows7, seed);
    let machine_u = MachineTimer::new(OsKind::Ubuntu1204, seed);
    for (name, machine) in [("Windows 7", &machine_w), ("Ubuntu 12.04", &machine_u)] {
        let mut api = make_api(TimingApiKind::JavaDateGetTime, machine);
        if let Some(p) = probe_granularity(api.as_mut(), SimTime::from_secs(1), 10_000_000) {
            let _ = writeln!(
                out,
                "Date.getTime on {name}: {} ms ({} calls)",
                p.observed_ms, p.calls
            );
        }
    }
    let mut nano = make_api(TimingApiKind::JavaNanoTime, &machine_w);
    if let Some(p) = probe_granularity(nano.as_mut(), SimTime::from_secs(1), 10_000) {
        let _ = writeln!(
            out,
            "nanoTime on Windows 7: {:.6} ms ({} calls)",
            p.observed_ms, p.calls
        );
    }
    let mut api = make_api(TimingApiKind::JavaDateGetTime, &machine_w);
    let series = probe_series(api.as_mut(), SimTime::ZERO, SimDuration::from_secs(60), 180);
    let line: String = series
        .iter()
        .map(|(_, g)| if *g > 2.0 { 'C' } else { '.' })
        .collect();
    let _ = writeln!(out, "{line}");
}

fn render_tput(
    out: &mut String,
    cells: &[ExperimentCell],
    bulk: &[Vec<Result<Vec<BulkMeasurement>, String>>],
    ping_ms: &[f64],
) {
    let s = Summary::of(ping_ms);
    let _ = writeln!(
        out,
        "ping baseline: median {:.3} ms (min {:.3}, max {:.3})",
        s.median, s.min, s.max
    );
    let sizes = cells
        .iter()
        .flat_map(|c| BULK_SIZES.iter().map(move |&n| (c, n)));
    for ((cell, size), reps) in sizes.zip(bulk) {
        let mut wire = Vec::new();
        let mut meas = Vec::new();
        for m in reps.iter().flatten().flatten() {
            let _ = writeln!(
                out,
                "{},{size},{},{:.4},{:.4},{:.4}",
                cell.method.label(),
                m.round,
                m.wire_bps() / 1e6,
                m.browser_bps() / 1e6,
                m.underestimation()
            );
            if m.round == 2 {
                wire.push(m.wire_bps() / 1e6);
                meas.push(m.browser_bps() / 1e6);
            }
        }
        if wire.is_empty() {
            continue;
        }
        let (w, b) = (Summary::of(&wire).median, Summary::of(&meas).median);
        let _ = writeln!(
            out,
            "{:<22} {:>6} KB {w:>12.2} {b:>12.2} {:>9.1}%",
            cell.method.display_name(),
            size / 1024,
            (1.0 - b / w) * 100.0
        );
    }
}
