//! # bnm-bench — experiment regenerators and benches
//!
//! One binary per table/figure of the paper, plus the extension sweeps:
//!
//! | binary            | regenerates                                    |
//! |-------------------|------------------------------------------------|
//! | `table1`          | Table 1 — method taxonomy                      |
//! | `table2`          | Table 2 — browser/OS configurations            |
//! | `fig3`            | Figure 3 (a)–(j) — Δd box plots, full grid     |
//! | `table3`          | Table 3 — Opera Flash GET/POST medians         |
//! | `fig4`            | Figure 4 — Java TCP Δd CDFs (browsers + appletviewer) |
//! | `fig5`            | Figure 5 — timestamp-granularity probe         |
//! | `table4`          | Table 4 — Java methods with `System.nanoTime()`|
//! | `tput`            | extension — throughput accuracy + ping baseline |
//! | `sweep`           | extension — Δd vs server delay                 |
//! | `impair`          | extension — Δd vs loss, four methods           |
//! | `webrtc`          | extension — WebRTC vs WebSocket under loss     |
//! | `contend`         | extension — Δd vs concurrent clients, 1 to 1,000 |
//! | `all_experiments` | Tables 1–4, Figures 3–5, `tput`, `sweep` and the appraisal extensions |
//!
//! Run with `cargo run --release -p bnm-bench --bin fig3`.
//!
//! Every binary accepts the shared flags of [`cli::BenchArgs`]
//! (`--seed`, `--reps`, `--results`, `--format text|json|csv`), checked
//! by the strict parser in [`bnm_core::cli`]. The `tput`, `impair`,
//! `webrtc` and `contend` binaries print and save a table built by
//! [`bnm_core::sweep`], the same sweeps the `bnm` subcommands run.

#![deny(deprecated)]

pub mod cli;
pub mod meta;

use std::io::IsTerminal;

use bnm_core::{CellResult, Executor, ExperimentCell, Impairment};

/// Repetitions per cell: the paper's 50.
pub const PAPER_REPS: u32 = 50;

/// Run a batch of cells on `bnm_core`'s work-stealing executor.
///
/// Results come back **in input order** with numbers bit-identical to a
/// serial run (the executor parallelises at the `(cell × rep)` grain and
/// merges deterministically). Unrunnable cells are reported to stderr
/// and dropped; when stderr is a terminal, a live rep counter is shown.
pub fn run_cells(cells: Vec<ExperimentCell>) -> Vec<(ExperimentCell, CellResult)> {
    let live = std::io::stderr().is_terminal();
    let (results, stats) = Executor::new().run_with_stats(&cells, |p| {
        if live {
            eprint!("\r  {}/{} reps", p.completed, p.total);
        }
    });
    if live && !cells.is_empty() {
        eprintln!("\r  {}", stats.summary());
    }
    cells
        .into_iter()
        .zip(results)
        .filter_map(|(cell, r)| match r {
            Ok(result) => Some((cell, result)),
            Err(e) => {
                eprintln!("skipping {}: {e}", cell.label());
                None
            }
        })
        .collect()
}

/// The loss ladder the `impair` and `webrtc` sweeps share: symmetric
/// loss at 0, 0.5, 1, 2 and 5%.
pub fn loss_ladder() -> [Impairment; 5] {
    [0.0, 0.5, 1.0, 2.0, 5.0].map(|pct| Impairment::loss(pct / 100.0))
}

/// Print a horizontal rule + heading.
pub fn heading(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Format a median table cell.
pub fn fmt_med(v: f64) -> String {
    format!("{v:8.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_browser::BrowserKind;
    use bnm_core::RuntimeSel;
    use bnm_methods::MethodId;
    use bnm_time::OsKind;

    #[test]
    fn parallel_and_serial_runs_agree() {
        let mk = || {
            vec![
                ExperimentCell::paper(
                    MethodId::Dom,
                    RuntimeSel::Browser(BrowserKind::Chrome),
                    OsKind::Ubuntu1204,
                )
                .with_reps(4),
                ExperimentCell::paper(
                    MethodId::WebSocket,
                    RuntimeSel::Browser(BrowserKind::Firefox),
                    OsKind::Ubuntu1204,
                )
                .with_reps(4),
            ]
        };
        let par = run_cells(mk());
        let ser: Vec<_> = mk()
            .into_iter()
            .map(|c| {
                let r = bnm_core::ExperimentRunner::try_run(&c).unwrap();
                (c, r)
            })
            .collect();
        // The executor preserves input order, so the rows line up 1:1.
        assert_eq!(par.len(), ser.len());
        for ((pc, pr), (sc, sr)) in par.iter().zip(&ser) {
            assert_eq!(pc.label(), sc.label());
            assert_eq!(pr.d1, sr.d1);
            assert_eq!(pr.d2, sr.d2);
        }
    }

    #[test]
    fn unrunnable_cells_are_dropped_not_fatal() {
        let cells = vec![
            ExperimentCell::paper(
                MethodId::WebSocket,
                RuntimeSel::Browser(BrowserKind::Ie9),
                OsKind::Windows7,
            )
            .with_reps(2),
            ExperimentCell::paper(
                MethodId::XhrGet,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .with_reps(2),
        ];
        let out = run_cells(cells);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.method, MethodId::XhrGet);
        assert_eq!(out[0].1.d1.len(), 2);
    }
}
