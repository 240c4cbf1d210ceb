//! Extension experiment: Δd vs concurrent measuring clients — what does
//! contention on the shared server link do to each method's overhead?
//!
//! Sweeps the client count from 1 to 64 at a fixed narrowed link, every
//! client running the same method concurrently against one web server
//! whose access link is the shared bottleneck — then pushes on into the
//! crowd regime (128 to 1,000 clients) with the link scaled to a
//! constant per-client share. Per Eq. 1, queueing
//! *between* `tN_s` and `tN_r` cancels out of Δd — so methods that reuse
//! their measurement connection (XHR steady-state, WebSocket) should
//! stay tight at any client count, while methods that open a **fresh TCP
//! connection inside a timed round** (Opera's Flash GET in round 1,
//! Flash POST in every round) absorb a handshake that queues behind the
//! other clients' traffic: their Δd medians grow with the crowd.

use bnm_bench::cli::BenchArgs;
use bnm_bench::heading;
use bnm_browser::BrowserKind;
use bnm_core::config::{ContentionSpec, StreamingSpec};
use bnm_core::sweep;
use bnm_methods::MethodId;
use bnm_time::OsKind;

fn main() {
    let args = BenchArgs::parse_with("rate-mbps");
    let n = args.reps.min(10);
    // The narrowed server access link (`--rate-mbps`, default 0.4).
    // 100 Mbps never queues long enough to see; narrowed, the concurrent
    // sessions' page/asset/probe responses share the line and in-round
    // handshakes have to wait their turn.
    let rate = (args.flags.num("rate-mbps").unwrap_or(0.4) * 1e6) as u64;
    heading("Extension: Δd vs concurrent clients — contention on the shared server link");

    // Two fresh-connection methods (Opera Flash: GET handshakes in round
    // 1, POST in every round) against two connection-reusing controls.
    let targets = [
        (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
        (MethodId::FlashPost, BrowserKind::Opera, OsKind::Windows7),
        (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    ]
    .map(|t| args.target(t, n));
    let points =
        [1u32, 2, 4, 8, 16, 32, 64].map(|c| ContentionSpec::clients(c).with_server_link_rate(rate));

    // ---- Crowd regime: 128 .. 1,000 clients -------------------------
    //
    // At these scales a fixed link would starve every session, so the
    // shared link grows with the crowd instead: each client keeps the
    // same per-client share it had at the legacy sweep's 64-client
    // endpoint (rate/64, 6,250 bps under the default 0.4 Mbps). What is
    // held constant is therefore *fairness*, and what the sweep shows is
    // pure crowd-size effect: whether a method's Δd degrades simply
    // because 1,000 handshakes and probes interleave on one line.
    //
    // Crowd tiers run the streaming pipeline with bounded retention:
    // frames recycle at capture time instead of accumulating a tier's
    // whole capture, and the per-session samples spill to sketches past
    // 64 raw values (at crowd reps <= 2 every raw sample is retained,
    // so the medians are exactly the batch pipeline's — asserted
    // bit-for-bit by tests/streaming_parity.rs).
    let per_client = (rate / 64).max(1);
    let crowd_targets = [
        (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
    ]
    .map(|t| {
        args.target(t, n.min(2))
            .streaming(StreamingSpec::bounded(64))
    });
    let crowd_points = [128u32, 256, 512, 1000]
        .map(|c| ContentionSpec::clients(c).with_server_link_rate(per_client * u64::from(c)));

    let table = sweep::contend(&targets, &points).and_then(|mut table| {
        let crowd = sweep::contend(&crowd_targets, &crowd_points)?;
        table.rows.extend(crowd.rows);
        table.title = format!(
            "Δd vs concurrent clients ({n} reps, seed {:#x}, legacy link {rate} bps)",
            args.seed
        );
        table.note(
            "Reading: the Flash methods' Δd medians (Δd1 for GET, both rounds for POST) \
             climb with the client count — their in-round TCP handshakes queue behind the \
             other sessions' traffic on the narrowed shared server link, and that wait sits \
             *before* tN_s, inside the browser-timed interval. The reused-connection \
             methods barely move: for them the crowd's queueing falls between tN_s and \
             tN_r, which Eq. 1 subtracts away.",
        );
        table.note(
            "Crowd tiers (128+) hold the per-client link share constant at the 64-client \
             endpoint's, so they show pure crowd-size effect under the streaming pipeline \
             with bounded retention.",
        );
        Ok(table)
    });
    args.publish("contend.csv", table);
}
