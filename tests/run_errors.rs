//! End-to-end coverage of the `RunError` taxonomy through the public
//! (facade) API — every variant a caller can provoke, provoked.

#![deny(deprecated)]

use bnm::core::error::RunError;
use bnm::core::matching::{match_round, MatchError};
use bnm::core::sweep::slope;
use bnm::prelude::*;
use bnm::sim::capture::CaptureBuffer;

fn ie9_websocket() -> ExperimentCell {
    ExperimentCell::builder(
        MethodId::WebSocket,
        RuntimeSel::Browser(BrowserKind::Ie9),
        OsKind::Windows7,
    )
    .reps(2)
    .build_unchecked()
}

#[test]
fn unrunnable_surfaces_from_every_entry_point() {
    let cell = ie9_websocket();
    let want = RunError::unrunnable(&cell);
    assert_eq!(ExperimentRunner::try_run(&cell).unwrap_err(), want);
    assert_eq!(ExperimentRunner::run_rep(&cell, 0).unwrap_err(), want);
    assert_eq!(
        ExperimentRunner::run_rep_traced(&cell, 0).unwrap_err(),
        want
    );
    let batch = Executor::new().run(std::slice::from_ref(&cell));
    assert_eq!(batch[0].as_ref().unwrap_err(), &want);
    assert_eq!(want.to_string(), "IE (W) cannot run WebSocket");
}

#[test]
fn invalid_round_from_result_selection() {
    let cell = ExperimentCell::paper(
        MethodId::WebSocket,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .with_reps(1);
    let r = ExperimentRunner::try_run(&cell).unwrap();
    assert_eq!(r.round(0).unwrap_err(), RunError::InvalidRound(0));
    assert_eq!(r.round(3).unwrap_err(), RunError::InvalidRound(3));
    assert!(r.round(1).is_ok() && r.round(2).is_ok());
}

#[test]
fn insufficient_data_from_slope_fitting() {
    assert_eq!(
        slope(&[(50.0, 1.0)]).unwrap_err(),
        RunError::InsufficientData { needed: 2, got: 1 }
    );
    assert_eq!(
        slope(&[]).unwrap_err(),
        RunError::InsufficientData { needed: 2, got: 0 }
    );
    assert!(slope(&[(10.0, 1.0), (20.0, 2.0)]).is_ok());
}

#[test]
fn match_errors_wrap_into_run_errors() {
    // An empty capture can never contain the request marker.
    let empty = CaptureBuffer::new("empty");
    let e = match_round(&empty, MethodId::XhrGet, 1, 0).unwrap_err();
    assert_eq!(e, MatchError::RequestNotFound);
    let wrapped: RunError = e.into();
    assert_eq!(wrapped, RunError::Match(MatchError::RequestNotFound));
    assert!(std::error::Error::source(&wrapped).is_some());
}

#[test]
fn invalid_input_from_builders() {
    let zero = ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(0)
    .build();
    assert_eq!(
        zero.unwrap_err(),
        RunError::InvalidInput("reps must be >= 1")
    );
    let sc_err = match Scenario::builder().build() {
        Ok(_) => panic!("empty scenario builder must not validate"),
        Err(e) => e,
    };
    assert_eq!(
        sc_err,
        RunError::InvalidInput("a scenario needs at least one session")
    );
}

#[test]
fn no_samples_from_empty_appraisal() {
    let empty = CellResult::default();
    assert_eq!(Appraisal::try_of(&empty).unwrap_err(), RunError::NoSamples);
}

/// Run the `bnm` binary: (exit code, stdout, stderr).
fn bnm(args: &[&str]) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bnm"))
        .args(args)
        .output()
        .expect("launch bnm");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn bad_cli_input_exits_2_with_usage_and_runs_nothing() {
    for args in [
        &["impair", "--loss", "abc"][..],
        &["impair", "--rep", "2", "--los", "0.05"],
        &["impair", "--jitter", "-5"],
        &["impair", "--loss", "1.5"],
        &["impair", "--loss"],
        &["impair", "--reps", "0"],
        &["contend", "--rate-mbps", "abc"],
        &["contend", "--rep", "2"],
        &["contend", "--clients", "4097"],
        &["serve", "--period", "0"],
        &["battery", "--seed", "zap"],
        &["list", "stray"],
    ] {
        let (code, stdout, stderr) = bnm(args);
        assert_eq!(code, Some(2), "{args:?} exit code; stderr: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed: {stdout}");
        assert!(
            stderr.contains("invalid input") && stderr.contains("usage: bnm"),
            "{args:?} stderr: {stderr}"
        );
    }
}

#[test]
fn hex_seed_is_the_seed_that_runs() {
    let hex = bnm(&["impair", "--seed", "0xAB", "--reps", "2"]);
    assert_eq!(hex.0, Some(0), "stderr: {}", hex.2);
    assert!(hex.1.contains("seed 0xab"), "{}", hex.1);
    // The same run as the decimal spelling of the same seed.
    assert_eq!(hex, bnm(&["impair", "--seed", "171", "--reps", "2"]));
}
