//! Extension experiment: WebRTC data channel vs WebSocket under loss.
//!
//! Sweeps a symmetric loss rate from 0 to 5% and compares the two
//! socket-era in-browser transports side by side:
//!
//! * **WebSocket** (reliable): a lost probe is retransmitted by TCP, so
//!   the round is *excluded* per the paper's §3.2 rule and the Δd
//!   medians estimate only the clean rounds.
//! * **WebRTC data channel** (unreliable datagram): a lost probe is a
//!   *measurement* — the per-probe matcher attributes it to a
//!   direction, and the delivered probes still yield per-probe OWD and
//!   RFC 3550 jitter alongside Δd.
//!
//! The table shows the complementary behaviours: the WebSocket row's
//! `excluded_rounds` grows with the injected rate while its medians
//! barely move, and the WebRTC row's `loss_pct_meas` tracks the
//! injected `loss_pct` while its delivered-probe medians stay put.

use bnm_bench::cli::BenchArgs;
use bnm_bench::{heading, loss_ladder};
use bnm_browser::BrowserKind;
use bnm_core::sweep;
use bnm_methods::MethodId;
use bnm_time::OsKind;

fn main() {
    let args = BenchArgs::parse();
    let n = args.reps.min(20);
    heading("Extension: WebRTC datagrams vs WebSocket — loss as a measurement vs an exclusion");

    let targets = [MethodId::WebRtc, MethodId::WebSocket]
        .map(|m| args.target((m, BrowserKind::Chrome, OsKind::Ubuntu1204), n));
    let table = sweep::loss(&targets, &loss_ladder()).map(|mut table| {
        table.title = format!(
            "WebRTC vs WebSocket under loss ({n} reps, seed {:#x})",
            args.seed
        );
        table.note(
            "Reading: both transports keep their Δd medians flat across the sweep, but for \
             opposite reasons. WebSocket hides loss behind TCP retransmission, so affected \
             rounds are excluded (excluded_rounds grows with the rate) and the estimator never \
             sees them. WebRTC's unreliable channel surfaces loss directly: loss_pct_meas \
             tracks the injected loss_pct, the delivered probes keep their one-way delays, and \
             nothing needs excluding.",
        );
        table
    });
    args.publish("webrtc.csv", table);
}
