//! `perfbench` — the end-to-end and per-layer benchmark of `bnm`.
//!
//! ```text
//! perfbench --workload paper|crowd|battery|serve|all
//!           [--seed N | --heldout] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats the workload (set-up, run, rendering) until
//! `--seconds` have passed and prints the end-to-end metrics; `--trace 1`
//! runs it untraced twice, then once more serially with a wall-clock span
//! around every layer call, and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all`
//! runs each workload in a process of its own. See `README.md`.

mod common;
mod paper;
mod replica;
mod tracer;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use common::{digest, quantile, Recorder};
use tracer::Tracer;
use workloads::{Size, Workload};

/// The regenerators' master seed, used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0xB32B_2013;
/// The held-out seed `--heldout` selects: not used while tuning a
/// change, so a claimed gain can be checked on inputs it never saw.
const HELDOUT_SEED: u64 = 0x4E1D_0A57;
/// Iterations every measured run makes at least, so digests compare.
const MIN_ITERATIONS: usize = 2;
/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 31;
/// Each set-up sample repeats the set-up for at least this long and
/// reports the mean, so a microsecond set-up still times steadily.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(2);

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    heldout: bool,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => v.replace('_', "").parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        heldout: false,
        seconds: 10.0,
        trace: false,
        size: Size::FULL,
    };
    let mut seed_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match v.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::by_name(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = parse_seed(v).ok_or_else(|| format!("bad seed {v}"))?;
                seed_given = true;
            }
            "--heldout" => args.heldout = true,
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.heldout {
        if seed_given {
            return Err("--heldout selects the held-out seed; drop --seed".into());
        }
        args.seed = HELDOUT_SEED;
    }
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        // JSON has no NaN; an undefined ratio reads as 0.
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The outcome of one invocation on one workload.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Failed output checks, one line each.
    violations: Vec<String>,
    /// Run metadata as `"key": value` JSON members.
    meta: Vec<(&'static str, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A command's standard output, if it ran and succeeded.
fn probe(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()
}

/// The checked-out commit with `+dirty` when the tree has changes, or
/// `"unknown"` outside a git work tree.
fn git_rev() -> String {
    let Some(rev) = probe("git", &["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".into();
    };
    let rev = rev.trim().to_string();
    match probe("git", &["status", "--porcelain"]) {
        Some(s) if s.trim().is_empty() => rev,
        Some(_) => format!("{rev}+dirty"),
        None => format!("{rev}+unknown-status"),
    }
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn median(d: &[Duration]) -> f64 {
    let secs: Vec<f64> = d.iter().map(Duration::as_secs_f64).collect();
    quantile(&secs, 0.5)
}

fn common_meta(args: &Args, w: Workload) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        ("workload", json_str(w.name())),
        ("seed", args.seed.to_string()),
        (
            "seed_role",
            json_str(if args.heldout { "heldout" } else { "dev" }),
        ),
        ("reps", args.size.reps(w).to_string()),
        ("git_rev", json_str(&git_rev())),
        ("cores", cores.to_string()),
        ("workers", bnm_core::Executor::new().workers().to_string()),
        (
            "rustc",
            json_str(
                probe("rustc", &["--version"])
                    .as_deref()
                    .unwrap_or("unknown")
                    .trim(),
            ),
        ),
    ]
}

/// Check that every iteration rendered the same output.
fn check_digests(digests: &[u64], violations: &mut Vec<String>) -> String {
    if digests.windows(2).any(|p| p[0] != p[1]) {
        violations.push(format!(
            "rendered output differs across iterations: {digests:x?}"
        ));
    }
    json_str(&format!("{:016x}", digests[0]))
}

/// Median set-up time, s: [`SETUP_SAMPLES`] samples, each the mean of
/// enough back-to-back set-ups to fill [`SETUP_SAMPLE_MIN`]. `first` is
/// a set-up time already observed, which sizes the batches.
fn setup_time(args: &Args, w: Workload, first: f64) -> f64 {
    let batch = (SETUP_SAMPLE_MIN.as_secs_f64() / first.max(1e-9))
        .ceil()
        .max(1.0) as u32;
    let samples: Vec<Duration> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(workloads::setup(w, args.seed, args.size));
            }
            t0.elapsed() / batch
        })
        .collect();
    median(&samples)
}

/// `--trace 0`: repeat the workload for `seconds`, report end-to-end
/// metrics.
fn measure(args: &Args, w: Workload) -> Outcome {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut rec = Recorder::default();
    let (mut walls, mut setups, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    // Latency quantiles are taken per iteration and reported as their
    // median over iterations, so one burst of host noise moves one
    // iteration's tail, not the result.
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    while walls.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let units_before = rec.unit_ms.len();
        let t0 = Instant::now();
        let inputs = workloads::setup(w, args.seed, args.size);
        let t1 = Instant::now();
        let (out, _) = workloads::run(inputs, &mut rec);
        walls.push(t0.elapsed());
        setups.push(t1 - t0);
        digests.push(digest(&out));
        let units = &rec.unit_ms[units_before..];
        p50s.push(quantile(units, 0.5));
        p99s.push(quantile(units, 0.99));
    }
    let setup_s = setup_time(args, w, median(&setups));
    let mut violations = std::mem::take(&mut rec.acct.violations);
    let digest = check_digests(&digests, &mut violations);
    if w == Workload::Battery {
        violations.extend(workloads::battery_parity(args.seed, args.size));
    }
    let mut meta = common_meta(args, w);
    meta.push(("iterations", walls.len().to_string()));
    let list: Vec<String> = walls
        .iter()
        .map(|d| format!("{:.4}", d.as_secs_f64()))
        .collect();
    meta.push(("iteration_wall_s", format!("[{}]", list.join(", "))));
    let list: Vec<String> = p50s.iter().map(|v| format!("{v:.5}")).collect();
    meta.push(("iteration_round_p50_ms", format!("[{}]", list.join(", "))));
    meta.push(("digest", digest));
    meta.push(("round_samples", rec.unit_ms.len().to_string()));
    Outcome {
        metrics: vec![
            metric("wall_s", median(&walls), "s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
            metric("success_rate", 1.0 - rec.acct.error_rate(), "ratio"),
            metric("round_p50_ms", quantile(&p50s, 0.5), "ms"),
            metric("round_p99_ms", quantile(&p99s, 0.5), "ms"),
        ],
        attempted: rec.acct.scheduled,
        failed: rec.acct.failed,
        violations,
        meta,
    }
}

/// `--trace 1`: untraced reference runs, then the serial traced pass;
/// report per-layer metrics.
fn trace(args: &Args, w: Workload) -> Outcome {
    // The second untraced run is the reference: caches and allocator
    // are warm, as they are for the traced pass that follows.
    let mut rec = Recorder::default();
    let mut digests = Vec::new();
    for _ in 0..2 {
        rec = Recorder::default();
        let inputs = workloads::setup(w, args.seed, args.size);
        let (out, finished) = workloads::run(inputs, &mut rec);
        digests.push(digest(&out));
        rec.snapshots(&finished, workloads::snapshot_repeat(w));
    }
    let inputs = workloads::setup(w, args.seed, args.size);
    let mut tr = Tracer::default();
    let out = workloads::traced(inputs, &mut tr);
    digests.push(digest(&out));

    let mut violations = std::mem::take(&mut rec.acct.violations);
    violations.append(&mut tr.acct.violations);
    violations.extend(tr.parity.iter().cloned());
    let digest = check_digests(&digests, &mut violations);
    if w == Workload::Battery {
        violations.extend(workloads::battery_parity(args.seed, args.size));
    }

    let s = &tr.spans;
    let secs = |d: Duration| d.as_secs_f64();
    let counter = |k: &str| tr.counters.get(k).copied().unwrap_or(0) as f64;
    let pool = &rec.exec.pool;
    let covered = s.build + s.run + s.matching;
    let metrics = vec![
        metric("exec.units", rec.exec.units as f64, "count"),
        metric("exec.busy_s", secs(rec.exec.busy), "s"),
        metric("exec.idle_s", secs(rec.exec.idle()), "s"),
        metric("scenario.build_s", secs(s.build), "s"),
        metric("scenario.builds", s.builds as f64, "count"),
        metric("sim.run_s", secs(s.run), "s"),
        metric("sim.events", s.events as f64, "count"),
        metric("sim.events_per_s", s.events as f64 / secs(s.run), "1/s"),
        metric("link.frames", counter("link.frames"), "count"),
        metric("link.bytes", counter("link.bytes"), "bytes"),
        metric("link.queue_drops", s.queue_drops as f64, "count"),
        metric("link.queue_peak_bytes", s.queue_peak_bytes as f64, "bytes"),
        metric("tcp.connects", counter("tcp.connects"), "count"),
        metric("tcp.retransmits", counter("tcp.retransmits"), "count"),
        metric("http.messages", counter("http.messages"), "count"),
        metric("http.bytes_fed", counter("http.bytes_fed"), "bytes"),
        metric("capture.records", s.records as f64, "count"),
        metric("capture.sink_s", secs(s.sink), "s"),
        metric("matching.match_s", secs(s.matching), "s"),
        metric("matching.delivered", tr.acct.delivered as f64, "count"),
        metric("matching.excluded", tr.acct.excluded as f64, "count"),
        metric(
            "matching.yield",
            tr.acct.delivered as f64 / tr.acct.scheduled as f64,
            "ratio",
        ),
        metric("stats.fold_s", secs(tr.fold), "s"),
        metric("stats.folds", tr.folds as f64, "count"),
        metric("report.render_s", secs(tr.render), "s"),
        metric("report.bytes", tr.render_bytes as f64, "bytes"),
        metric("recommend.score_s", secs(tr.score), "s"),
        metric("monitor.step_s", secs(tr.step), "s"),
        metric("monitor.snapshot_s", secs(tr.snapshot), "s"),
        metric("snapshot_p50_us", quantile(&rec.snapshot_us, 0.5), "us"),
        metric("monitor.sketch_buckets", tr.sketch_buckets as f64, "count"),
        metric("monitor.live_pans", tr.live_pans as f64, "count"),
        metric("pool.allocated", pool.allocated as f64, "count"),
        metric("pool.reused", pool.reused as f64, "count"),
        metric(
            "pool.reuse_ratio",
            pool.reused as f64 / (pool.reused + pool.allocated) as f64,
            "ratio",
        ),
        metric("pool.live_peak", pool.live_peak as f64, "count"),
        metric("trace.overhead_s", secs(s.rep) - secs(tr.reference), "s"),
        metric(
            "trace.unattributed_s",
            secs(tr.reference) - secs(covered),
            "s",
        ),
        metric("error_rate", rec.acct.error_rate(), "ratio"),
    ];
    let mut meta = common_meta(args, w);
    meta.push(("digest", digest));
    meta.push(("traced_reps", tr.reps.to_string()));
    Outcome {
        metrics,
        attempted: rec.acct.scheduled + tr.acct.scheduled,
        failed: rec.acct.failed + tr.acct.failed,
        violations,
        meta,
    }
}

/// Run one workload in this process and print its result lines.
fn run_one(args: &Args, w: Workload) -> ExitCode {
    let o = if args.trace {
        trace(args, w)
    } else {
        measure(args, w)
    };
    for v in &o.violations {
        eprintln!("check failed: {v}");
    }
    let meta: Vec<String> = o
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    for m in &o.metrics {
        println!("# {:<24} {:>18} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let correct = o.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one child process per workload, so each one's peak
/// RSS is its own.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), w.name().to_string()]);
        let status = Command::new(&exe).args(&child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload paper|crowd|battery|serve|all \
                 [--seed N | --heldout] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&argv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_core::ExperimentRunner;
    use workloads::Inputs;

    /// One reduced-size invocation of a workload.
    fn small(w: Workload, trace: bool) -> Outcome {
        let args = Args {
            workload: Some(w),
            seed: DEFAULT_SEED,
            heldout: false,
            seconds: 0.01,
            trace,
            size: Size::SMALL,
        };
        if trace {
            super::trace(&args, w)
        } else {
            measure(&args, w)
        }
    }

    /// The metric names `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("section closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    fn names(o: &Outcome) -> Vec<String> {
        o.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn every_workload_passes_its_output_checks() {
        for w in Workload::ALL {
            let o = small(w, false);
            assert!(o.violations.is_empty(), "{}: {:?}", w.name(), o.violations);
            assert_eq!(o.failed, 0, "{}", w.name());
            assert!(o.attempted > 0, "{}", w.name());
            assert_eq!(names(&o), declared("end_to_end"), "{}", w.name());
            for m in &o.metrics {
                assert!(m.value > 0.0, "{} {} must never be 0", w.name(), m.name);
            }
        }
    }

    #[test]
    fn traced_pass_matches_the_runner_on_every_workload() {
        for w in Workload::ALL {
            let o = small(w, true);
            assert!(o.violations.is_empty(), "{}: {:?}", w.name(), o.violations);
            assert_eq!(names(&o), declared("per_layer"), "{}", w.name());
            let get = |n: &str| o.metrics.iter().find(|m| m.name == n).expect(n).value;
            assert!(get("scenario.builds") > 0.0, "{}", w.name());
            assert!(get("sim.events") > 0.0, "{}", w.name());
            assert!(get("link.frames") > 0.0, "{}", w.name());
            assert!(get("matching.delivered") > 0.0, "{}", w.name());
        }
    }

    #[test]
    fn a_round_that_disappears_fails_the_accounting() {
        let cell = bnm_core::ExperimentCell::paper(
            bnm_methods::MethodId::XhrGet,
            bnm_core::RuntimeSel::Browser(bnm_browser::BrowserKind::Chrome),
            bnm_time::OsKind::Ubuntu1204,
        )
        .with_reps(3);
        let result = ExperimentRunner::try_run(&cell).expect("runnable");
        let check = |r: &bnm_core::CellResult| {
            let mut acct = common::Accounting::default();
            acct.cell(&cell, r);
            acct.violations
        };
        assert!(check(&result).is_empty(), "{:?}", check(&result));
        // A sample lost between the session and the cell.
        let mut lost = result.clone();
        lost.sessions[0].d2.pop();
        assert_eq!(check(&lost).len(), 1, "{:?}", check(&lost));
        // An exclusion recorded on the cell but on no session.
        let mut phantom = result;
        phantom.excluded_rounds += 1;
        assert_eq!(check(&phantom).len(), 1, "{:?}", check(&phantom));
    }

    #[test]
    fn a_replay_that_diverges_fails_parity() {
        let Inputs::Crowd(cells) = workloads::setup(Workload::Crowd, 7, Size::SMALL) else {
            unreachable!("crowd inputs");
        };
        let reference = ExperimentRunner::run_rep_traced(&cells[0], 0);
        let mut spans = replica::LayerSpans::default();
        let mut ours = replica::traced_rep(&cells[0], 0, bnm_obs::Trace::disabled(), &mut spans);
        assert_eq!(replica::parity_diff(&ours, &reference), None);
        ours.as_mut().expect("the rep runs").excluded += 1;
        assert!(replica::parity_diff(&ours, &reference).is_some());
        assert!(spans.records > 0, "the crowd streams its captures");
    }

    #[test]
    fn differing_digests_are_a_violation() {
        let mut v = Vec::new();
        check_digests(&[1, 1, 1], &mut v);
        assert!(v.is_empty());
        check_digests(&[1, 2], &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload crowd --seed 0x10 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::Crowd), 16, 3.0, true)
        );
        let a = parse_args(&argv("--workload serve --heldout")).unwrap();
        assert_eq!(a.seed, HELDOUT_SEED);
        assert!(parse_args(&argv("--heldout --seed 3")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert_eq!(parse_args(&argv("--workload all")).unwrap().workload, None);
    }
}
