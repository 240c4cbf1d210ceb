//! `bnm` — command-line front end to the appraisal library.
//!
//! Each subcommand in [`COMMANDS`] declares the flags it accepts; the
//! shared parser `bnm_core::cli` checks them before anything runs (bad
//! input exits 2 with usage, a failed run exits 1). The sweep
//! subcommands (`impair`, `contend`, `tput`) print tables built by
//! `bnm_core::sweep`, the same sweeps the `bnm-bench` binaries run.
//!
//! Every data-producing subcommand shares one `--format {text,json,csv}`
//! code path: it builds a [`Render`]able (`Table`, `ReportSnapshot` or
//! `TraceReport`) and emits it — no per-command formatters.

#![deny(deprecated)]

use bnm::browser::BrowserKind;
use bnm::core::appraisal::Appraisal;
use bnm::core::baseline::ping_baseline;
use bnm::core::cli::{self, Flags};
use bnm::core::recommend::{self, Constraints};
use bnm::core::report::{Table, TraceReport, Value};
use bnm::core::sweep;
use bnm::core::{
    CellBuilder, ContentionSpec, ExperimentCell, ExperimentRunner, FaultSpec, Impairment, Monitor,
    MonitorConfig, Render, ReportFormat, RunError, RuntimeSel, StreamingSpec,
};
use bnm::methods::{table1_rows, MethodId};
use bnm::sim::time::{SimDuration, SimTime};
use bnm::stats::Summary;
use bnm::timeapi::{make_api, probe_granularity, MachineTimer, OsKind, TimingApiKind};

/// What a subcommand runs, once its flags have passed the shared parser.
type Command = fn(&Flags) -> Result<(), RunError>;

/// Every subcommand: its name, the flags it accepts, what it runs and a
/// one-line summary for the usage text.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, Command, &str)] = &[
    ("list", "", cmd_list, "show the Table 1 method taxonomy"),
    ("appraise", "method browser os reps seed nanotime", cmd_appraise,
        "run one experiment cell and appraise it"),
    ("trace", "method browser os reps seed format events", cmd_trace,
        "Δd attribution per round"),
    ("impair", "method browser os reps seed loss corrupt duplicate jitter format", cmd_impair,
        "Δd on an impaired network"),
    ("contend", "method browser os clients reps seed rate-mbps format", cmd_contend,
        "Δd vs concurrent clients sharing one server link"),
    ("serve", "method browser os clients rate-mbps loss seed duration every period format",
        cmd_serve, "continuous monitoring: windowed snapshots"),
    ("webrtc", "browser os reps seed loss jitter format", cmd_webrtc,
        "WebRTC data channel: per-probe OWD, RFC 3550 jitter, loss and reordering"),
    ("probe", "os", cmd_probe, "timestamp-granularity probe (Figure 5)"),
    ("ping", "", cmd_ping, "ICMP baseline over the testbed"),
    ("tput", "method size format", cmd_tput, "throughput-estimate accuracy"),
    ("recommend", "mobile no-plugins no-ports strict-origin format", cmd_recommend,
        "§5 method recommendations"),
    ("battery", "quick reps seed serial format", cmd_battery,
        "the full scored appraisal battery, ranked per scenario"),
];

fn usage() -> ! {
    eprintln!("usage: bnm <command> [options]\ncommands:");
    for (name, accepts, _, summary) in COMMANDS {
        eprintln!("  {name:<10} {summary}");
        for flags in cli::synopsis(accepts).chunks(5) {
            eprintln!("{:13}{}", "", flags.join(" "));
        }
    }
    eprintln!(
        "\nP is a probability in [0,1]; N a count >= 1 (clients <= 4096); S a decimal or \
         0x-hex seed.\nmethod labels: {}",
        MethodId::EXTENDED
            .iter()
            .map(|m| m.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// Emit a renderable in the chosen format — text gets a trailing-newline
/// print, csv/json come out exactly as rendered.
fn emit(r: &impl Render, fmt: ReportFormat) {
    let out = r.render(fmt);
    if out.ends_with('\n') {
        print!("{out}");
    } else {
        println!("{out}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    let Some(&(_, accepts, run, _)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        usage()
    };
    let flags = Flags::parse(rest, accepts).unwrap_or_else(|e| {
        eprintln!("bnm {cmd}: {e}");
        usage()
    });
    if let Err(e) = run(&flags) {
        match e {
            RunError::Unrunnable { .. } => eprintln!("bnm {cmd}: {e} (Table 2 feature matrix)"),
            _ => eprintln!("bnm {cmd}: {e}"),
        }
        std::process::exit(1);
    }
}

const CHROME_UBUNTU: (BrowserKind, OsKind) = (BrowserKind::Chrome, OsKind::Ubuntu1204);

/// The cell a single-target subcommand starts from: `--method`,
/// `--browser`, `--os`, `--reps` and `--seed` over per-command defaults.
fn target(flags: &Flags, method: MethodId, on: (BrowserKind, OsKind), reps: u32) -> CellBuilder {
    let runtime = RuntimeSel::Browser(flags.browser(on.0));
    ExperimentCell::builder(flags.method(method), runtime, flags.os(on.1))
        .reps(flags.reps(reps))
        .seed(flags.seed())
}

/// `--loss`/`--corrupt`/`--duplicate` on both directions plus
/// `--jitter` — all clean when absent.
fn impairment(flags: &Flags) -> Impairment {
    let p = |name| flags.num(name).unwrap_or(0.0);
    let spec = FaultSpec {
        drop_chance: p("loss"),
        corrupt_chance: p("corrupt"),
        duplicate_chance: p("duplicate"),
        ..FaultSpec::CLEAN
    };
    Impairment {
        up: spec,
        down: spec,
        jitter: SimDuration::from_millis_f64(p("jitter")),
    }
}

fn cmd_list(_: &Flags) -> Result<(), RunError> {
    println!(
        "{:<12} {:<13} {:<12} {:<10} {:<11} metrics",
        "label", "approach", "technology", "method", "same-origin"
    );
    for row in table1_rows() {
        println!(
            "{:<12} {:<13} {:<12} {:<10} {:<11} {}",
            row.id.label(),
            row.approach,
            row.technology,
            row.method,
            row.same_origin,
            row.metrics
        );
    }
    // Post-paper extensions live outside Table 1.
    for m in MethodId::EXTENDED {
        if MethodId::ALL.contains(&m) {
            continue;
        }
        println!(
            "{:<12} {:<13} {:<12} {:<10} {:<11} {}  (extension)",
            m.label(),
            if m.is_http_based() {
                "HTTP-based"
            } else {
                "Socket-based"
            },
            m.display_name(),
            m.transport().name(),
            m.same_origin().cell(),
            m.metrics()
        );
    }
    Ok(())
}

fn cmd_appraise(flags: &Flags) -> Result<(), RunError> {
    let mut builder = target(flags, MethodId::WebSocket, CHROME_UBUNTU, 25);
    if flags.on("nanotime") {
        builder = builder.timing(TimingApiKind::JavaNanoTime);
    }
    let cell = builder.build()?;
    println!(
        "Appraising {} ({} reps, seed {:#x}) …",
        cell.label(),
        cell.reps,
        cell.seed
    );
    let result = ExperimentRunner::try_run(&cell)?;
    let a = Appraisal::try_of(&result)?;
    println!(
        "\nΔd1: median {:8.3} ms  IQR [{:8.3}, {:8.3}]  outliers {}",
        a.d1.median,
        a.d1.q1,
        a.d1.q3,
        a.d1.outliers.len()
    );
    println!(
        "Δd2: median {:8.3} ms  IQR [{:8.3}, {:8.3}]  outliers {}",
        a.d2.median,
        a.d2.q1,
        a.d2.q3,
        a.d2.outliers.len()
    );
    println!("pooled mean ± 95% CI: {} ms", a.mean_ci.format_table4());
    println!("verdict: {:?}", a.verdict);
    if result.failures > 0 {
        println!("({} repetitions failed)", result.failures);
    }
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), RunError> {
    let cell = target(flags, MethodId::XhrGet, CHROME_UBUNTU, 5)
        .trace(true)
        .build()?;
    let result = ExperimentRunner::try_run(&cell)?;
    let format = flags.format();
    if format == ReportFormat::Text {
        println!(
            "Δd attribution for {} ({} reps, seed {:#x}), ms:\n",
            cell.label(),
            cell.reps,
            cell.seed
        );
    }
    emit(&TraceReport::new(&result.attributions), format);
    if format == ReportFormat::Text && result.failures > 0 {
        println!("({} repetitions failed)", result.failures);
    }

    // Raw event dump for the first repetition, in the same format.
    if flags.on("events") {
        if let Some(t) = result.traces.first() {
            match format {
                ReportFormat::Json => println!("{}", t.to_json()),
                _ => print!("{}", t.to_csv()),
            }
        }
    }
    Ok(())
}

fn cmd_impair(flags: &Flags) -> Result<(), RunError> {
    let target = target(flags, MethodId::WebSocket, CHROME_UBUNTU, 25);
    let cell = target.clone().build()?;
    let mut table = sweep::loss(&[target], &[impairment(flags)])?;
    table.title = format!(
        "{} on an impaired network ({} reps, seed {:#x})",
        cell.label(),
        cell.reps,
        cell.seed
    );
    table.note(
        "Rounds hit by retransmission are excluded per §3.2; medians are R-7 \
         over the surviving rounds. The dgram_* and datagram digest columns are \
         populated only for datagram methods (webrtc), whose losses are measured, \
         not excluded.",
    );
    emit(&table, flags.format());
    Ok(())
}

fn cmd_contend(flags: &Flags) -> Result<(), RunError> {
    let target = target(
        flags,
        MethodId::FlashGet,
        (BrowserKind::Opera, OsKind::Windows7),
        10,
    );
    let cell = target.clone().build()?;
    let max_clients = flags.count("clients", 64) as u32;
    let rate_mbps = flags.num("rate-mbps").unwrap_or(0.4);
    let rate_bps = (rate_mbps * 1e6) as u64;
    // Sweep the powers of two up to the requested cap (the cap itself is
    // always included so `--clients 48` still ends at 48).
    let points: Vec<ContentionSpec> = std::iter::successors(Some(1u32), |c| Some(c * 2))
        .take_while(|c| *c < max_clients)
        .chain([max_clients])
        .map(|c| ContentionSpec::clients(c).with_server_link_rate(rate_bps))
        .collect();
    let mut table = sweep::contend(&[target], &points)?;
    table.title = format!(
        "{} vs concurrent clients on a {rate_mbps} Mbps server link ({} reps, seed {:#x})",
        cell.method.display_name(),
        cell.reps,
        cell.seed
    );
    table.note(
        "Fresh-connection methods (Flash GET round 1, Flash POST every round) \
         queue their in-round handshake behind the crowd's traffic — that wait \
         lands before tN_s and inflates Δd. Connection-reusing methods shed the \
         crowd's queueing because it falls between tN_s and tN_r (Eq. 1).",
    );
    emit(&table, flags.format());
    Ok(())
}

/// `bnm webrtc` — run the WebRTC data-channel cell and emit its
/// per-probe appraisal: OWD both ways, RFC 3550 jitter (wire vs
/// browser), loss and reordering, plus the usual Δd digests.
fn cmd_webrtc(flags: &Flags) -> Result<(), RunError> {
    let cell = target(flags, MethodId::WebRtc, CHROME_UBUNTU, 25)
        .impairment(impairment(flags))
        .build()?;
    let result = ExperimentRunner::try_run(&cell)?;
    emit(&result.summary(&cell), flags.format());
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), RunError> {
    if flags.method(MethodId::XhrGet).is_datagram() {
        eprintln!(
            "serve drives streaming marker sinks, which cannot recover \
             per-probe one-way delays; use `bnm webrtc` for datagram methods"
        );
        std::process::exit(2);
    }
    let mut contention = ContentionSpec::clients(flags.count("clients", 1) as u32);
    if let Some(r) = flags.num("rate-mbps") {
        contention = contention.with_server_link_rate((r * 1e6) as u64);
    }
    // The monitor owns the round loop, so the cell's rep count is only a
    // label-level detail; streaming capture with bounded retention keeps
    // per-round memory flat no matter how long the run goes.
    let cell = target(flags, MethodId::XhrGet, CHROME_UBUNTU, 1)
        .streaming(StreamingSpec::serve())
        .contention(contention)
        .impairment(impairment(flags))
        .build()?;
    let cfg = MonitorConfig {
        round_period: SimDuration::from_millis_f64(flags.num("period").unwrap_or(1000.0)),
        ..MonitorConfig::default()
    };
    let mut monitor = Monitor::with_config(cell, cfg)?;

    let format = flags.format();
    let end = SimTime::ZERO + SimDuration::from_secs_f64(flags.num("duration").unwrap_or(60.0));
    let every = SimDuration::from_secs_f64(flags.num("every").unwrap_or(10.0));
    let mut polls = 0u32;
    while monitor.now() < end {
        let remaining = SimDuration::from_nanos(end.as_nanos() - monitor.now().as_nanos());
        let slice = if every.as_nanos() < remaining.as_nanos() {
            every
        } else {
            remaining
        };
        monitor.run_for(slice);
        let snap = monitor.snapshot();
        let out = snap.render(format);
        match format {
            // One CSV header for the whole run: strip it off every poll
            // after the first so the stream stays machine-readable.
            ReportFormat::Csv if polls > 0 => {
                if let Some((_, rest)) = out.split_once('\n') {
                    print!("{rest}");
                }
            }
            ReportFormat::Csv => print!("{out}"),
            ReportFormat::Json => println!("{out}"),
            ReportFormat::Text => {
                if polls > 0 {
                    println!();
                }
                print!("{out}");
            }
        }
        polls += 1;
    }
    Ok(())
}

fn cmd_probe(flags: &Flags) -> Result<(), RunError> {
    let os = flags.os(OsKind::Windows7);
    let machine = MachineTimer::new(os, 2013);
    println!("Granularity probe on {} (Figure 5):", os.name());
    for kind in [TimingApiKind::JavaDateGetTime, TimingApiKind::JavaNanoTime] {
        let mut api = make_api(kind, &machine);
        // Probe at several points of the regime timeline.
        let mut seen = Vec::new();
        for minute in [0u64, 5, 17, 43, 91] {
            if let Some(p) =
                probe_granularity(api.as_mut(), SimTime::from_secs(minute * 60), 10_000_000)
            {
                if !seen.iter().any(|s: &f64| (s - p.observed_ms).abs() < 1e-9) {
                    seen.push(p.observed_ms);
                }
            }
        }
        println!(
            "  {:<26} observed tick(s): {}",
            kind.to_string(),
            seen.iter()
                .map(|g| format!("{g:.6} ms"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    Ok(())
}

fn cmd_ping(_: &Flags) -> Result<(), RunError> {
    let rtts = ping_baseline(10, SimDuration::from_millis(50), 1);
    let s = Summary::of(&rtts);
    for (i, r) in rtts.iter().enumerate() {
        println!("64 bytes from 192.168.1.10: icmp_seq={i} time={r:.3} ms");
    }
    println!(
        "\n--- 192.168.1.10 ping statistics ---\n{} packets, min/med/max = {:.3}/{:.3}/{:.3} ms",
        rtts.len(),
        s.min,
        s.median,
        s.max
    );
    Ok(())
}

fn cmd_tput(flags: &Flags) -> Result<(), RunError> {
    let method = flags.method(MethodId::XhrGet);
    let size = flags.count("size", 128 * 1024) as usize;
    // One repetition of the paper's Chrome/Ubuntu cell (its own seed).
    let target = ExperimentCell::builder(
        method,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(1);
    let mut table = sweep::tput(&[target], &[size])?;
    table.title = format!("Throughput check: {method} downloading {size} bytes");
    emit(&table, flags.format());
    Ok(())
}

/// `bnm battery` — the full scored appraisal suite: every roster method
/// across the clean, impaired, contended, bufferbloat (drop-tail and
/// CoDel) and time-varying scenarios, ranked per scenario by the
/// measured deployment score.
fn cmd_battery(flags: &Flags) -> Result<(), RunError> {
    let mut cfg = if flags.on("quick") {
        bnm::BatteryConfig::quick()
    } else {
        bnm::BatteryConfig::default()
    };
    cfg.reps = flags.reps(cfg.reps);
    cfg.seed = flags.count("seed", cfg.seed);
    let exec = if flags.on("serial") {
        bnm::Executor::serial()
    } else {
        bnm::Executor::new()
    };
    emit(&bnm::run_battery(&cfg, &exec)?, flags.format());
    Ok(())
}

fn cmd_recommend(flags: &Flags) -> Result<(), RunError> {
    let c = Constraints {
        mobile: flags.on("mobile"),
        plugins_allowed: !flags.on("no-plugins"),
        can_open_ports: !flags.on("no-ports"),
        strict_cross_origin: flags.on("strict-origin"),
    };
    let mut table = Table::new(
        format!("§5 method recommendations under {c:?}"),
        &["rank", "method", "timing", "rationale"],
    );
    for (i, rec) in recommend::recommend_methods(&c).iter().enumerate() {
        table.row(vec![
            Value::Int((i + 1) as i64),
            Value::Text(rec.method.display_name().to_string()),
            Value::Text(rec.timing.to_string()),
            Value::Text(rec.rationale.to_string()),
        ]);
    }
    for (m, why) in recommend::discouraged() {
        table.note(format!("Discouraged: {} — {}", m.display_name(), why));
    }
    emit(&table, flags.format());
    Ok(())
}
