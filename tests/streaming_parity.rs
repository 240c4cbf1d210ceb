//! Tier-1 guarantees of the streaming post-processing pipeline:
//!
//! 1. **Streaming parity** — a cell run with streaming capture
//!    consumption ([`StreamingSpec::streaming`]) is bit-identical to the
//!    batch pipeline. Both fold every tap into the same marker index;
//!    streaming feeds it at capture time, batch from the drained taps
//!    after the run, and the sinks observe exactly the records a
//!    retaining tap would store (same noise-stamped timestamps, same
//!    snaplen truncation). Asserted on clean, impaired and noisy-capture
//!    reliable cells, single- and multi-client, and on WebRTC datagram
//!    cells (clean, lossy and contended), datagram samples included.
//! 2. **Parallel-matching parity** — batch-path per-session evidence
//!    folding is bit-identical between one worker and many, for
//!    reliable and datagram cells: each session's sink is independent,
//!    and results fold in ascending session order either way.
//! 3. **Bounded memory** — in streaming mode, the frame pool's
//!    live-buffer high-water mark does not grow with the client count,
//!    while batch retention does.
//! 4. **Bounded retention** — with a `session_retention` threshold the
//!    raw vectors truncate but the sketches still see every sample and
//!    report quantiles within their documented error bound.

use bnm::prelude::*;

fn base_cell(clients: u32, reps: u32) -> CellBuilder {
    ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(reps)
    .seed(0xB32B_57E4)
    .contention(ContentionSpec::clients(clients).with_server_link_rate(2_000_000))
}

fn webrtc_cell(clients: u32, reps: u32) -> CellBuilder {
    ExperimentCell::builder(
        MethodId::WebRtc,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(reps)
    .seed(0xB32B_57E4)
    .contention(ContentionSpec::clients(clients).with_server_link_rate(2_000_000))
}

fn assert_bit_identical(a: &CellResult, b: &CellResult, what: &str) {
    assert_eq!(a.d1, b.d1, "{what}: d1");
    assert_eq!(a.d2, b.d2, "{what}: d2");
    assert_eq!(a.measurements, b.measurements, "{what}: measurements");
    assert_eq!(a.failures, b.failures, "{what}: failures");
    assert_eq!(a.excluded_rounds, b.excluded_rounds, "{what}: exclusions");
    assert_eq!(a.sessions.len(), b.sessions.len(), "{what}: session count");
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x, y, "{what}: session {}", x.session);
        assert_eq!(
            x.datagram, y.datagram,
            "{what}: session {} datagram",
            x.session
        );
    }
}

/// (1) Streaming consumption is invisible in the output: clean cell,
/// impaired cell (exercising the server-side marker index), and a cell
/// with capture-timestamp noise (exercising stamp parity inside the
/// sink), for both the single-client testbed and a contended scenario.
#[test]
fn streaming_mode_is_bit_identical_to_batch() {
    let variants: Vec<(&str, ExperimentCell)> = vec![
        ("clean single", base_cell(1, 4).build().unwrap()),
        ("clean contended", base_cell(3, 3).build().unwrap()),
        (
            "impaired single",
            base_cell(1, 6)
                .impairment(Impairment::loss(0.08))
                .build()
                .unwrap(),
        ),
        (
            "impaired contended",
            base_cell(3, 4)
                .impairment(Impairment::loss(0.05))
                .build()
                .unwrap(),
        ),
        (
            "noisy capture",
            base_cell(2, 3).capture_noise_ns(400_000).build().unwrap(),
        ),
        ("webrtc clean single", webrtc_cell(1, 4).build().unwrap()),
        (
            "webrtc lossy single",
            webrtc_cell(1, 8)
                .impairment(Impairment::loss(0.05))
                .build()
                .unwrap(),
        ),
        ("webrtc contended", webrtc_cell(8, 3).build().unwrap()),
    ];
    for (what, batch) in variants {
        let streaming = batch.clone().with_streaming(StreamingSpec::streaming());
        let a = ExperimentRunner::try_run(&batch).unwrap();
        let b = ExperimentRunner::try_run(&streaming).unwrap();
        assert_bit_identical(&a, &b, what);
    }
}

/// (1b) An impaired cell actually excludes rounds in this configuration
/// — otherwise the parity above would not be exercising the
/// retransmission paths at all. Likewise the lossy WebRTC cell must
/// actually lose probes.
#[test]
fn impaired_parity_cells_exercise_exclusions() {
    let cell = base_cell(3, 4)
        .impairment(Impairment::loss(0.05))
        .build()
        .unwrap();
    let r = ExperimentRunner::try_run(&cell).unwrap();
    assert!(
        r.excluded_rounds > 0 || r.failures > 0,
        "loss 5% produced neither exclusions nor failures; parity test is vacuous"
    );
    let lossy = webrtc_cell(1, 8)
        .impairment(Impairment::loss(0.05))
        .build()
        .unwrap();
    let r = ExperimentRunner::try_run(&lossy).unwrap();
    let d = r.sessions[0].datagram.as_ref().expect("datagram samples");
    assert!(
        d.lost_upstream + d.lost_downstream > 0,
        "loss 5% lost no probe; datagram parity test is vacuous"
    );
}

/// (2) Parallel per-session matching folds to the serial bits: forcing
/// one worker and forcing several must agree on everything, including
/// which error a failing repetition reports and the datagram samples.
#[test]
fn parallel_matching_is_bit_identical_to_serial() {
    let cells = [
        base_cell(24, 2),
        base_cell(24, 2).impairment(Impairment::loss(0.04)),
        webrtc_cell(24, 2).impairment(Impairment::loss(0.02)),
    ];
    for cell in cells {
        let serial = cell
            .streaming(StreamingSpec::batch().with_match_workers(1))
            .build()
            .unwrap();
        let parallel = serial
            .clone()
            .with_streaming(StreamingSpec::batch().with_match_workers(4));
        let a = ExperimentRunner::try_run(&serial).unwrap();
        let b = ExperimentRunner::try_run(&parallel).unwrap();
        assert_bit_identical(&a, &b, "match workers 1 vs 4");
    }
}

/// (3) The reason streaming exists: with sinks consuming records at
/// capture time, the pool's live-buffer high-water mark tracks only
/// frames genuinely in flight inside the engine — it no longer carries
/// a full rep's worth of retained capture. Concretely:
///
/// * batch peak ≈ one rep's whole capture (scales with clients ×
///   rounds of traffic);
/// * streaming peak ≈ instantaneous queue depth, so the *per-client*
///   peak must not grow as the crowd does, and the absolute peak must
///   sit well below batch retention at scale.
///
/// Run serially so the drain happens on this thread and the pool gauge
/// is exact.
#[test]
fn streaming_bounds_the_frame_pool_high_water_mark() {
    let peak_of = |clients: u32, spec: StreamingSpec| {
        let cell = base_cell(clients, 1).streaming(spec).build().unwrap();
        let (results, stats) =
            Executor::serial().run_with_stats(std::slice::from_ref(&cell), |_| {});
        results[0].as_ref().unwrap();
        stats.pool.live_peak
    };

    let batch_small = peak_of(4, StreamingSpec::batch());
    let batch_big = peak_of(32, StreamingSpec::batch());
    let stream_small = peak_of(4, StreamingSpec::streaming());
    let stream_big = peak_of(32, StreamingSpec::streaming());

    assert!(
        batch_big > 2 * batch_small,
        "batch retention should grow with the crowd: {batch_small} -> {batch_big}"
    );
    assert!(
        4 * stream_big < batch_big,
        "streaming peak {stream_big} not well below batch peak {batch_big} at scale"
    );
    // In-flight frames may grow with concurrent sessions, but retention
    // must not: the per-client peak has to stay flat or shrink (small
    // slack for shared-queue effects).
    let per_client_small = stream_small as f64 / 4.0;
    let per_client_big = stream_big as f64 / 32.0;
    assert!(
        per_client_big <= per_client_small * 1.25,
        "streaming per-client peak grew {per_client_small:.2} -> \
         {per_client_big:.2}; retention is leaking"
    );
}

/// (4) Bounded retention: raw vectors cap at the threshold, sketches
/// cover every sample, and sketch quantiles sit within the documented
/// relative-error bound of the exact full-sample quantiles.
#[test]
fn bounded_retention_truncates_raw_and_sketches_all() {
    let full = base_cell(3, 8).build().unwrap();
    let bounded = full.clone().with_streaming(StreamingSpec::bounded(4));
    let a = ExperimentRunner::try_run(&full).unwrap();
    let b = ExperimentRunner::try_run(&bounded).unwrap();

    assert_eq!(a.sessions.len(), b.sessions.len());
    for (fs, bs) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(fs.d1.len(), 8);
        assert_eq!(bs.d1.len(), 4, "session {} raw d1 capped", bs.session);
        assert_eq!(bs.d2.len(), 4, "session {} raw d2 capped", bs.session);
        // The retained prefix is the same bits as the full run's prefix.
        assert_eq!(&fs.d1[..4], &bs.d1[..], "session {} prefix", bs.session);
        let sk = bs.sketches.as_ref().expect("bounded mode builds sketches");
        assert_eq!(sk.d1.count(), 8, "sketch saw every sample");
        assert_eq!(bs.count(1), 8);
        // Sketch quantiles track the exact full-sample R-7 quantiles.
        for round in [1u8, 2] {
            let exact_set = if round == 1 { &fs.d1 } else { &fs.d2 };
            let mut sorted = exact_set.clone();
            sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let exact = bnm::stats::summary::quantile(&sorted, p);
                let est = bs.quantile(round, p);
                let bound = sk.d1.relative_error_bound() * exact.abs().max(1e-9) + 1e-9;
                assert!(
                    (est - exact).abs() <= bound,
                    "session {} round {round} p{p}: {est} vs {exact} (bound {bound})",
                    bs.session
                );
            }
        }
    }
    // Bounded mode keeps measurement rows only for the reference session.
    assert!(b.measurements.iter().all(|m| m.session == 0));
    assert_eq!(a.d1.len(), 8);
    assert_eq!(b.d1.len(), 4, "flat d1 truncates like session 0's raw");
    // Exclusion counters are unaffected by retention.
    assert_eq!(a.excluded_rounds, b.excluded_rounds);
}
