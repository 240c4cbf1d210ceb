//! Extension experiment: throughput-measurement accuracy (§2.2 and the
//! "Tput" column of Table 1).
//!
//! For each method that speedtest tools download through, and for several
//! object sizes, compare the browser-level throughput estimate against
//! the wire-level truth. Also prints the ICMP ping baseline (§6, the
//! Yeboah et al. comparison).

use bnm_bench::cli::BenchArgs;
use bnm_bench::heading;
use bnm_browser::BrowserKind;
use bnm_core::baseline::ping_baseline;
use bnm_core::sweep;
use bnm_methods::MethodId;
use bnm_stats::Summary;
use bnm_time::OsKind;

fn main() {
    let args = BenchArgs::parse();
    let n = args.reps.min(10); // bulk repetitions are heavier

    heading("Extension: ICMP ping baseline (§6)");
    let pings = ping_baseline(10, bnm_sim::time::SimDuration::from_millis(50), args.seed);
    let s = Summary::of(&pings);
    println!(
        "ping RTT over the testbed: median {:.3} ms (min {:.3}, max {:.3}) — the ground truth\n\
         browser methods are judged against.",
        s.median, s.min, s.max
    );

    heading("Extension: throughput-estimate accuracy by method and size");
    let targets = [
        MethodId::XhrGet,
        MethodId::FlashGet,
        MethodId::JavaGet,
        MethodId::WebSocket,
    ]
    .map(|m| args.target((m, BrowserKind::Chrome, OsKind::Ubuntu1204), n));
    let sizes = [16 * 1024, 128 * 1024, 1024 * 1024];
    let table = sweep::tput(&targets, &sizes).map(|mut table| {
        table.title = format!(
            "Throughput-estimate accuracy, Chrome/Ubuntu ({n} reps, seed {:#x})",
            args.seed
        );
        table.note(
            "Reading: the overhead is a fixed per-transfer tax, so it dominates small \
             transfers and dilutes on large ones — and Flash taxes every size hardest (§2.2). \
             Round 2 reuses the connection, as speedtests do.",
        );
        table
    });
    args.publish("tput.csv", table);
}
