//! The sweeps behind the `bnm` subcommands and the `bnm-bench`
//! extension binaries, each defined once.
//!
//! * [`try_sweep`] — the server-delay sweep, validating the paper's §3
//!   remark that the simulated delay "is a major factor determining the
//!   amount of RTT inflation when a measurement method includes TCP
//!   handshaking in the delay measurement". For connection-reusing
//!   methods Δd is *independent* of the base RTT, while for
//!   handshake-including methods (Opera's Flash) Δd1 grows by exactly
//!   one RTT per RTT — the line has slope ≈ 1.
//! * [`contend`] — Δd vs concurrent clients on a shared server link.
//! * [`loss`] — Δd vs network impairment (loss, corruption,
//!   duplication, jitter), reliable and datagram methods alike.
//! * [`tput`] — browser vs wire throughput per bulk download round.
//!
//! A sweep crosses a list of target cells (builders carrying method,
//! runtime, OS, reps, seed and any other knob) with a list of points,
//! validates every resulting cell before running any, and returns one
//! [`Table`] whose schema is the same whichever front end asked. The
//! contend and loss rows share their outcome columns: Δd medians and
//! counts pooled over every session, then the datagram counters and
//! per-probe digests (empty for reliable methods). The cells run on the
//! executor, so the numbers are identical to a serial sweep.

use bnm_sim::link::LinkSpec;
use bnm_sim::time::SimDuration;
use bnm_sim::Impairment;
use bnm_stats::Summary;

use crate::config::{CellBuilder, ContentionSpec, ExperimentCell};
use crate::error::RunError;
use crate::exec::Executor;
use crate::report::{DistSummary, Table, Value};
use crate::runner::{CellResult, DatagramSamples};
use crate::throughput::run_bulk_rep;

/// One point of a delay sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The configured one-way server delay, ms.
    pub delay_ms: f64,
    /// Median Δd1 at this delay, ms.
    pub d1_median: f64,
    /// Median Δd2 at this delay, ms.
    pub d2_median: f64,
}

/// Run `cell` at each server delay (in parallel) and collect the Δd
/// medians.
///
/// Fails with [`RunError::Unrunnable`] when the cell cannot run at all,
/// or [`RunError::NoSamples`] when a point yields no Δd samples (every
/// repetition failed) — a median of nothing is not a point.
pub fn try_sweep(
    cell: &ExperimentCell,
    delays: &[SimDuration],
) -> Result<Vec<SweepPoint>, RunError> {
    let cells: Vec<ExperimentCell> = delays
        .iter()
        .map(|&d| {
            let mut c = cell.clone();
            c.server_delay = d;
            c
        })
        .collect();
    let results = Executor::new().run(&cells);
    delays
        .iter()
        .zip(results)
        .map(|(&d, r)| {
            let r = r?;
            if r.d1.is_empty() || r.d2.is_empty() {
                return Err(RunError::NoSamples);
            }
            Ok(SweepPoint {
                delay_ms: d.as_millis_f64(),
                d1_median: Summary::of(&r.d1).median,
                d2_median: Summary::of(&r.d2).median,
            })
        })
        .collect()
}

/// The columns every [`contend`] and [`loss`] row ends with: the Δd
/// outcome, then the datagram counters and per-probe digests.
const OUTCOME_COLUMNS: &str = "d1_median_ms,d2_median_ms,d1_n,d2_n,excluded_rounds,failures,\
    dgram_sent,dgram_delivered,dgram_lost,dgram_reordered,loss_pct_meas,owd_up_p50_ms,\
    owd_down_p50_ms,wire_jitter_p50_ms";

/// A sweep table headed by the comma-separated `columns`.
fn table(title: &str, columns: &str) -> Table {
    Table::new(title, &columns.split(',').collect::<Vec<_>>())
}

/// Every target crossed with every point, validated before anything
/// runs (`reps = 0`, an unrunnable target or an out-of-range point fails
/// the whole sweep with its [`RunError`]).
fn grid<P>(
    targets: &[CellBuilder],
    points: &[P],
    apply: impl Fn(CellBuilder, &P) -> CellBuilder,
) -> Result<Vec<ExperimentCell>, RunError> {
    targets
        .iter()
        .flat_map(|t| points.iter().map(|p| apply(t.clone(), p).build()))
        .collect()
}

/// A cell's [`OUTCOME_COLUMNS`] values. Every session is a measuring
/// client, so the Δd samples and datagram statistics pool over all of
/// them; for a one-client cell that is exactly session 0.
fn outcome_cells(r: &CellResult) -> Vec<Value> {
    let med = |v: &[f64]| Value::Num(DistSummary::of_samples(v).p50);
    let count = |n: u64| Value::Int(n as i64);
    let d1: Vec<f64> = r.sessions.iter().flat_map(|s| s.d1.clone()).collect();
    let d2: Vec<f64> = r.sessions.iter().flat_map(|s| s.d2.clone()).collect();
    let mut row = vec![
        med(&d1),
        med(&d2),
        count(d1.len() as u64),
        count(d2.len() as u64),
        count(r.excluded_rounds.into()),
        count(r.failures.into()),
    ];
    let mut dgram = r
        .sessions
        .iter()
        .filter_map(|s| s.datagram.as_ref())
        .peekable();
    if dgram.peek().is_none() {
        row.resize(
            OUTCOME_COLUMNS.split(',').count(),
            Value::Text(String::new()),
        );
        return row;
    }
    let mut d = DatagramSamples::default();
    dgram.for_each(|s| d.merge(s));
    row.extend([
        count(d.sent),
        count(d.delivered),
        count(d.lost_upstream + d.lost_downstream),
        count(d.reordered),
        Value::Num(d.loss_rate() * 100.0),
        med(&d.owd_up_ms),
        med(&d.owd_down_ms),
        med(&d.wire_jitter_ms),
    ]);
    row
}

/// Δd vs concurrent clients: every target at every [`ContentionSpec`]
/// point. Columns: `cell`, `clients`, `rate_mbps` (the shared server
/// link), the outcome columns, then the frame pool's live-buffer
/// high-water mark and fresh allocations for that cell
/// (`pool_live_peak`, `pool_allocated`; the peak sums per-worker peaks,
/// see [`crate::exec::ExecStats::pool`]).
pub fn contend(targets: &[CellBuilder], points: &[ContentionSpec]) -> Result<Table, RunError> {
    let cells = grid(targets, points, |t, &p| t.contention(p))?;
    let columns = format!("cell,clients,rate_mbps,{OUTCOME_COLUMNS},pool_live_peak,pool_allocated");
    let mut table = table("Δd vs concurrent clients", &columns);
    for cell in &cells {
        // One batch per cell, so the pool counters are the cell's own.
        let (results, stats) = Executor::new().run_with_stats(std::slice::from_ref(cell), |_| {});
        for r in results {
            let rate = cell
                .server_link_rate_bps
                .unwrap_or(LinkSpec::fast_ethernet().rate_bps);
            let mut row = vec![
                Value::Text(cell.label()),
                Value::Int(cell.clients.into()),
                Value::Num(rate as f64 / 1e6),
            ];
            row.extend(outcome_cells(&r?));
            row.push(Value::Int(stats.pool.live_peak));
            row.push(Value::Int(stats.pool.allocated as i64));
            table.row(row);
        }
    }
    Ok(table)
}

/// Δd vs network impairment: every target under every [`Impairment`]
/// point. Columns: `cell`, `loss_pct`, `corrupt`, `duplicate` (the
/// upstream [`bnm_sim::FaultSpec`]; every front end sweeps symmetric
/// impairments), `jitter_ms`, then the outcome columns. Reliable methods
/// exclude retransmitted rounds; datagram methods measure their loss in
/// `loss_pct_meas` instead.
pub fn loss(targets: &[CellBuilder], points: &[Impairment]) -> Result<Table, RunError> {
    let cells = grid(targets, points, |t, &p| t.impairment(p))?;
    let columns = format!("cell,loss_pct,corrupt,duplicate,jitter_ms,{OUTCOME_COLUMNS}");
    let mut table = table("Δd vs loss", &columns);
    for (cell, r) in cells.iter().zip(Executor::new().run(&cells)) {
        let imp = cell.impairment;
        let mut row = vec![
            Value::Text(cell.label()),
            Value::Num(imp.up.drop_chance * 100.0),
            Value::Num(imp.up.corrupt_chance),
            Value::Num(imp.up.duplicate_chance),
            Value::Num(imp.jitter.as_millis_f64()),
        ];
        row.extend(outcome_cells(&r?));
        table.row(row);
    }
    Ok(table)
}

/// Throughput-estimate accuracy: every target downloading every size,
/// each of its `reps` repetitions, one row per bulk round (`cell`,
/// `size_bytes`, `rep`, `round`, `wire_mbps`, `measured_mbps`,
/// `underestimated_pct`). A repetition that fails fails the sweep.
pub fn tput(targets: &[CellBuilder], sizes: &[usize]) -> Result<Table, RunError> {
    if sizes.contains(&0) {
        return Err(RunError::InvalidInput("transfer size must be >= 1 byte"));
    }
    let cells = targets
        .iter()
        .map(|t| t.clone().build())
        .collect::<Result<Vec<_>, _>>()?;
    let mut table = table(
        "Throughput-estimate accuracy",
        "cell,size_bytes,rep,round,wire_mbps,measured_mbps,underestimated_pct",
    );
    for cell in &cells {
        for &size in sizes {
            for rep in 0..cell.reps {
                for m in run_bulk_rep(cell, rep, size)? {
                    table.row(vec![
                        Value::Text(cell.label()),
                        Value::Int(size as i64),
                        Value::Int(rep.into()),
                        Value::Int(m.round.into()),
                        Value::Num(m.wire_bps() / 1e6),
                        Value::Num(m.browser_bps() / 1e6),
                        Value::Num(m.underestimation() * 100.0),
                    ]);
                }
            }
        }
    }
    Ok(table)
}

/// Least-squares slope of `y` against `x` (how much Δd grows per ms of
/// extra network delay; ≈ 0 for reuse methods, ≈ 1 for
/// handshake-including ones). Needs at least two points.
pub fn slope(points: &[(f64, f64)]) -> Result<f64, RunError> {
    if points.len() < 2 {
        return Err(RunError::InsufficientData {
            needed: 2,
            got: points.len(),
        });
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    Ok((n * sxy - sx * sy) / (n * sxx - sx * sx))
}

/// Slope of Δd1 over the sweep.
pub fn d1_slope(points: &[SweepPoint]) -> Result<f64, RunError> {
    slope(
        &points
            .iter()
            .map(|p| (p.delay_ms, p.d1_median))
            .collect::<Vec<_>>(),
    )
}

/// Slope of Δd2 over the sweep.
pub fn d2_slope(points: &[SweepPoint]) -> Result<f64, RunError> {
    slope(
        &points
            .iter()
            .map(|p| (p.delay_ms, p.d2_median))
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeSel;
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
    use bnm_time::OsKind;

    fn chrome(method: MethodId) -> CellBuilder {
        ExperimentCell::builder(
            method,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
    }

    const ZERO_REPS: Result<Table, RunError> = Err(RunError::InvalidInput("reps must be >= 1"));

    #[test]
    fn contend_rejects_zero_reps() {
        let t = [chrome(MethodId::WebSocket).reps(0)];
        assert_eq!(contend(&t, &[ContentionSpec::clients(2)]), ZERO_REPS);
    }

    #[test]
    fn loss_rejects_zero_reps() {
        let t = [chrome(MethodId::WebRtc).reps(0)];
        assert_eq!(loss(&t, &[Impairment::loss(0.01)]), ZERO_REPS);
    }

    #[test]
    fn tput_rejects_zero_reps_and_empty_transfers() {
        let t = [chrome(MethodId::XhrGet).reps(0)];
        assert_eq!(tput(&t, &[16 * 1024]), ZERO_REPS);
        assert_eq!(
            tput(&[chrome(MethodId::XhrGet)], &[0]),
            Err(RunError::InvalidInput("transfer size must be >= 1 byte"))
        );
    }

    #[test]
    fn loss_rows_fill_datagram_columns_only_for_datagram_methods() {
        let targets = [
            chrome(MethodId::WebRtc).reps(2),
            chrome(MethodId::WebSocket).reps(2),
        ];
        let t = loss(&targets, &[Impairment::NONE]).unwrap();
        let col = |name: &str| t.columns.iter().position(|c| c == name).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][col("d1_n")], Value::Int(2));
        assert_eq!(t.rows[0][col("dgram_sent")], Value::Int(32));
        assert_eq!(t.rows[0][col("loss_pct_meas")], Value::Num(0.0));
        assert_eq!(t.rows[1][col("dgram_sent")], Value::Text(String::new()));
        assert_eq!(t.rows[1][col("failures")], Value::Int(0));
    }

    fn delays() -> Vec<SimDuration> {
        vec![
            SimDuration::from_millis(25),
            SimDuration::from_millis(50),
            SimDuration::from_millis(100),
        ]
    }

    #[test]
    fn slope_math() {
        let s = |pts: &[(f64, f64)]| slope(pts).unwrap();
        assert!((s(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) - 1.0).abs() < 1e-12);
        assert!(s(&[(0.0, 5.0), (10.0, 5.0)]).abs() < 1e-12);
    }

    #[test]
    fn slope_needs_two_points() {
        assert_eq!(
            slope(&[(1.0, 1.0)]),
            Err(RunError::InsufficientData { needed: 2, got: 1 })
        );
        assert_eq!(
            slope(&[]),
            Err(RunError::InsufficientData { needed: 2, got: 0 })
        );
        assert!(d1_slope(&[]).is_err());
        assert!(d2_slope(&[]).is_err());
    }

    #[test]
    fn unrunnable_sweep_reports_instead_of_panicking() {
        let cell = ExperimentCell::paper(
            MethodId::WebSocket,
            RuntimeSel::Browser(BrowserKind::Ie9),
            OsKind::Windows7,
        );
        assert!(matches!(
            try_sweep(&cell, &delays()),
            Err(RunError::Unrunnable { .. })
        ));
    }

    #[test]
    fn reuse_methods_have_flat_delta_d() {
        let cell = ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .with_reps(10);
        let pts = try_sweep(&cell, &delays()).unwrap();
        assert_eq!(pts.len(), 3);
        // Δd barely depends on the base RTT: slope ≈ 0.
        let s1 = d1_slope(&pts).unwrap();
        let s2 = d2_slope(&pts).unwrap();
        assert!(s1.abs() < 0.1, "Δd1 slope {s1}");
        assert!(s2.abs() < 0.1, "Δd2 slope {s2}");
    }

    #[test]
    fn handshake_methods_scale_with_rtt() {
        // Opera Flash: Δd1 includes one handshake ≈ one RTT → slope ≈ 1;
        // GET Δd2 reuses → slope ≈ 0; POST Δd2 re-handshakes → slope ≈ 1.
        let get = ExperimentCell::paper(
            MethodId::FlashGet,
            RuntimeSel::Browser(BrowserKind::Opera),
            OsKind::Windows7,
        )
        .with_reps(10);
        let pts = try_sweep(&get, &delays()).unwrap();
        let s1 = d1_slope(&pts).unwrap();
        let s2 = d2_slope(&pts).unwrap();
        assert!((s1 - 1.0).abs() < 0.15, "GET Δd1 slope {s1}");
        assert!(s2.abs() < 0.15, "GET Δd2 slope {s2}");

        let post = ExperimentCell::paper(
            MethodId::FlashPost,
            RuntimeSel::Browser(BrowserKind::Opera),
            OsKind::Windows7,
        )
        .with_reps(10);
        let ppts = try_sweep(&post, &delays()).unwrap();
        let ps2 = d2_slope(&ppts).unwrap();
        assert!((ps2 - 1.0).abs() < 0.15, "POST Δd2 slope {ps2}");
    }
}
