//! Property-based tests (proptest) over the core data structures and
//! invariants: wire codecs, checksums, WebSocket framing, base64/SHA-1,
//! sequence arithmetic, buffers, statistics, delay models, clocks, and
//! capture evidence (the substring kernel, and the marker index against
//! the full capture scan).

use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

use bnm::http::websocket::{accept_key, base64, frame::Frame, frame::FrameDecoder, frame::Opcode};
use bnm::methods::MethodId;
use bnm::sim::time::{SimDuration, SimTime};
use bnm::sim::wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, ParsedPacket, TcpFlags, TcpSegment,
    UdpDatagram,
};
use bnm::stats::{summary::quantile, BoxStats, Cdf, Summary};
use bnm::tcp::seq::SeqNum;

fn ip_strategy() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    // ---------- wire formats ----------

    #[test]
    fn tcp_segment_roundtrips(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in 0u8..32,
        window in any::<u16>(),
        mss in proptest::option::of(536u16..9000),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        src in ip_strategy(),
        dst in ip_strategy(),
    ) {
        let seg = TcpSegment {
            src_port, dst_port, seq, ack,
            flags: TcpFlags(flags),
            window, mss,
            payload: Bytes::from(payload.clone()),
        };
        let wire = seg.emit(src, dst);
        let back = TcpSegment::parse(&wire, src, dst).unwrap();
        prop_assert_eq!(back.src_port, src_port);
        prop_assert_eq!(back.dst_port, dst_port);
        prop_assert_eq!(back.seq, seq);
        prop_assert_eq!(back.ack, ack);
        prop_assert_eq!(back.flags.0, flags);
        prop_assert_eq!(back.window, window);
        prop_assert_eq!(back.mss, mss);
        prop_assert_eq!(&back.payload[..], &payload[..]);
    }

    #[test]
    fn full_frame_roundtrips_and_any_corruption_is_caught(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        ident in any::<u16>(),
        corrupt_at in any::<usize>(),
        corrupt_xor in 1u8..=255,
    ) {
        let src = Ipv4Addr::new(192, 168, 1, 2);
        let dst = Ipv4Addr::new(192, 168, 1, 10);
        let seg = TcpSegment {
            src_port: 50000, dst_port: 80, seq: 1, ack: 2,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 100, mss: None,
            payload: Bytes::from(payload),
        };
        let frame = EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
            payload: Ipv4Packet {
                src, dst, protocol: IpProtocol::Tcp, ttl: 64, ident,
                payload: seg.emit(src, dst),
            }.emit(),
        }.emit();
        // Clean parse succeeds.
        prop_assert!(ParsedPacket::parse(&frame).is_ok());
        // Flip one byte anywhere past the Ethernet header: the IPv4 or TCP
        // checksum must catch it (or the parse must fail structurally).
        let mut bad = frame.to_vec();
        let idx = 14 + corrupt_at % (bad.len() - 14);
        bad[idx] ^= corrupt_xor;
        let parsed = ParsedPacket::parse(&bad);
        prop_assert!(parsed.is_err(), "corruption at {} went unnoticed", idx);
    }

    #[test]
    fn udp_roundtrips(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        src in ip_strategy(),
        dst in ip_strategy(),
    ) {
        let d = UdpDatagram { src_port, dst_port, payload: Bytes::from(payload.clone()) };
        let back = UdpDatagram::parse(&d.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(back.src_port, src_port);
        prop_assert_eq!(&back.payload[..], &payload[..]);
    }

    // ---------- WebSocket / base64 ----------

    #[test]
    fn ws_frames_roundtrip_masked_and_unmasked(
        payload in proptest::collection::vec(any::<u8>(), 0..70000),
        mask in proptest::option::of(any::<[u8; 4]>()),
    ) {
        let f = Frame { opcode: Opcode::Binary, payload: Bytes::from(payload) };
        let wire = f.emit(mask);
        let mut d = FrameDecoder::new();
        d.feed(&wire);
        let out = d.poll().unwrap().unwrap();
        prop_assert_eq!(out, f);
        prop_assert!(d.poll().unwrap().is_none());
    }

    #[test]
    fn ws_decoder_is_incremental(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        split in any::<usize>(),
    ) {
        let f = Frame { opcode: Opcode::Text, payload: Bytes::from(payload) };
        let wire = f.emit(Some([1, 2, 3, 4]));
        let cut = split % wire.len().max(1);
        let mut d = FrameDecoder::new();
        d.feed(&wire[..cut]);
        let early = d.poll().unwrap();
        prop_assert!(early.is_none() || cut == wire.len());
        d.feed(&wire[cut..]);
        prop_assert_eq!(d.poll().unwrap().unwrap(), f);
    }

    #[test]
    fn base64_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(base64::decode(&base64::encode(&data)).unwrap(), data);
    }

    #[test]
    fn accept_key_is_deterministic_and_injective_ish(a in "[A-Za-z0-9+/]{22}==", b in "[A-Za-z0-9+/]{22}==") {
        prop_assert_eq!(accept_key(&a), accept_key(&a));
        if a != b {
            prop_assert_ne!(accept_key(&a), accept_key(&b));
        }
    }

    // ---------- sequence arithmetic ----------

    #[test]
    fn seqnum_ordering_is_antisymmetric_for_small_gaps(base in any::<u32>(), gap in 1u32..1_000_000) {
        let a = SeqNum(base);
        let b = a + gap;
        prop_assert!(a.lt(b));
        prop_assert!(!b.lt(a));
        prop_assert!(b.gt(a));
        prop_assert_eq!(b.since(a), gap);
    }

    #[test]
    fn seqnum_window_membership(base in any::<u32>(), len in 1u32..10_000, off in 0u32..20_000) {
        let s = SeqNum(base);
        let x = s + off;
        prop_assert_eq!(x.in_window(s, len), off < len);
    }

    // ---------- statistics ----------

    #[test]
    fn summary_orders_its_quantiles(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&data);
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
    }

    #[test]
    fn boxstats_whiskers_inside_data_outliers_outside_fences(
        data in proptest::collection::vec(-1e4f64..1e4, 4..150)
    ) {
        let b = BoxStats::of(&data);
        let s = Summary::of(&data);
        prop_assert!(b.whisker_lo >= s.min - 1e-9);
        prop_assert!(b.whisker_hi <= s.max + 1e-9);
        prop_assert!(b.whisker_lo <= b.q1 + 1e-9);
        prop_assert!(b.whisker_hi >= b.q3 - 1e-9);
        let lo_fence = b.q1 - 1.5 * b.iqr();
        let hi_fence = b.q3 + 1.5 * b.iqr();
        for o in &b.outliers {
            prop_assert!(*o < lo_fence || *o > hi_fence);
        }
        // Outlier count + in-fence count == n.
        let inside = data.iter().filter(|&&x| x >= lo_fence && x <= hi_fence).count();
        prop_assert_eq!(inside + b.outliers.len(), b.n);
    }

    #[test]
    fn cdf_is_monotone_and_bounded(data in proptest::collection::vec(-1e4f64..1e4, 1..100), probes in proptest::collection::vec(-2e4f64..2e4, 2..20)) {
        let c = Cdf::of(&data);
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = 0.0;
        for p in sorted_probes {
            let f = c.eval(p);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        let (lo, hi) = c.range();
        prop_assert_eq!(c.eval(hi), 1.0);
        prop_assert!(c.eval(lo - 1.0) == 0.0);
    }

    #[test]
    fn quantile_is_monotone_in_p(data in proptest::collection::vec(-1e4f64..1e4, 1..100), p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(quantile(&sorted, lo) <= quantile(&sorted, hi) + 1e-9);
    }

    // The streaming sketch must agree with the exact R-7 quantiles it
    // replaces in bounded-retention mode, within its documented bound:
    // a relative error of `relative_error_bound()` on the value axis
    // (plus the tiny absolute epsilon that the zero bucket absorbs).
    // Signs, duplicates and wide magnitude spreads are all fair game.
    #[test]
    fn sketch_quantiles_match_exact_r7_within_bound(
        data in proptest::collection::vec(-1e6f64..1e6, 1..400),
        ps in proptest::collection::vec(0.0f64..=1.0, 1..20),
        split in any::<usize>(),
    ) {
        use bnm::stats::QuantileSketch;

        // Build one sketch by straight insertion and one by merging two
        // halves: both must satisfy the bound (merge adds no error).
        let mut whole = QuantileSketch::default();
        whole.extend(&data);
        let cut = split % data.len();
        let mut left = QuantileSketch::default();
        left.extend(&data[..cut]);
        let mut right = QuantileSketch::default();
        right.extend(&data[cut..]);
        left.merge(&right);

        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let scale = sorted.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for sk in [&whole, &left] {
            prop_assert_eq!(sk.count(), data.len() as u64);
            let bound = sk.relative_error_bound() * scale + 1e-8;
            for &p in &ps {
                let exact = quantile(&sorted, p);
                let est = sk.quantile(p);
                prop_assert!(
                    (est - exact).abs() <= bound,
                    "p={}: sketch {} vs exact {} (bound {})", p, est, exact, bound
                );
            }
            // Extremes are exact: the sketch tracks min/max directly.
            prop_assert_eq!(sk.quantile(0.0), sorted[0]);
            prop_assert_eq!(sk.quantile(1.0), sorted[sorted.len() - 1]);
        }
    }

    #[test]
    fn cdf_levels_masses_sum_to_one(data in proptest::collection::vec(-100f64..100.0, 1..80), tol in 0.1f64..20.0) {
        let c = Cdf::of(&data);
        let levels = c.levels(tol);
        let total: f64 = levels.iter().map(|(_, m)| m).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Level centers are strictly increasing.
        for w in levels.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    // ---------- time & delay models ----------

    #[test]
    fn sim_time_arithmetic_is_consistent(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let dur = SimDuration::from_nanos(d);
        let t2 = t + dur;
        prop_assert_eq!(t2.saturating_since(t), dur);
        prop_assert_eq!(t2.signed_millis_since(t), d as f64 / 1e6);
        prop_assert_eq!(t.signed_millis_since(t2), -(d as f64) / 1e6);
    }

    #[test]
    fn delay_model_respects_its_floor(floor in 0.0f64..10_000.0, median in 0.0f64..10_000.0, sigma in 0.0f64..2.0, seed in any::<u64>()) {
        use bnm::browser::DelayModel;
        let m = DelayModel::lognorm(floor, median, sigma);
        let mut rng = bnm::sim::rng::stream(seed, "prop");
        for _ in 0..20 {
            let s = m.sample(&mut rng);
            prop_assert!(s.as_nanos() as f64 >= floor * 1e3 - 1.0);
        }
    }

    #[test]
    fn gettime_is_monotone_nondecreasing(seed in any::<u64>(), steps in proptest::collection::vec(1u64..10_000_000, 1..50)) {
        use bnm::timeapi::{make_api, MachineTimer, OsKind, TimingApiKind};
        let machine = MachineTimer::new(OsKind::Windows7, seed);
        let mut api = make_api(TimingApiKind::JavaDateGetTime, &machine);
        let mut t = SimTime::ZERO;
        let mut last = api.read(t);
        for step in steps {
            t += SimDuration::from_nanos(step);
            let v = api.read(t);
            prop_assert!(v >= last, "clock went backwards: {} -> {}", last, v);
            last = v;
        }
    }

    #[test]
    fn granularity_quantization_error_is_bounded(seed in any::<u64>(), t_ns in 0u64..3_600_000_000_000) {
        use bnm::timeapi::{MachineTimer, OsKind};
        let machine = MachineTimer::new(OsKind::Windows7, seed);
        let t = SimTime::from_nanos(t_ns);
        let reported = machine.system_time_ms(t) as i128 - machine.epoch_ms() as i128;
        let actual = (t_ns / 1_000_000) as i128;
        let g_ms = (machine.system_granularity(t).as_nanos() / 1_000_000) as i128;
        // The reported clock lags actual time by at most one granule.
        prop_assert!(reported <= actual + 1);
        prop_assert!(actual - reported <= g_ms + 1, "lag {} > granule {}", actual - reported, g_ms);
    }
}

// ---------- scheduler equivalence ----------
//
// The engine's hierarchical timer wheel must be observationally
// identical to the reference `BinaryHeap` scheduler: for ANY
// interleaving of inserts and pops, both return the same events in the
// same `(time, seq)` order. The heap is the executable specification;
// the wheel is the optimisation. Determinism of every simulation rests
// on this.
proptest! {
    #[test]
    fn timer_wheel_matches_reference_heap(
        ops in proptest::collection::vec(any::<u64>(), 1..300),
    ) {
        use bnm::sim::event::{Event, EventKind, EventQueue};

        fn check_pop(wheel: &mut EventQueue, heap: &mut EventQueue) {
            let key = |e: &Event| (e.at, e.seq);
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(
                w.as_ref().map(key),
                h.as_ref().map(key),
                "wheel and heap diverged"
            );
        }

        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::reference_heap();
        // Each sampled word encodes one step: bit 0 chooses pop-then-push
        // vs push; bits 1..7 pick a magnitude shift so event times span
        // every wheel level (nanoseconds up to the full u64 range, with
        // plenty of exact duplicates at large shifts); the rotated word
        // is the raw timestamp.
        for (i, raw) in ops.into_iter().enumerate() {
            if raw & 1 == 1 {
                check_pop(&mut wheel, &mut heap);
            }
            let shift = ((raw >> 1) & 63) as u32;
            let at = SimTime::from_nanos(raw.rotate_left(7) >> shift);
            let kind = EventKind::Timer { node: 0, token: i as u64 };
            wheel.push(at, kind.clone());
            heap.push(at, kind);
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain both completely; the tails must agree too.
        while !wheel.is_empty() || !heap.is_empty() {
            check_pop(&mut wheel, &mut heap);
        }
        check_pop(&mut wheel, &mut heap); // both report empty
    }
}

// ---------- link dynamics ----------
//
// The lazily-evaluated rate schedule must conserve bytes: the rate in
// force at any instant never exceeds `max_rate`, and because every
// serialization span is rounded *up*, no window of virtual time can
// deliver more than `max_rate × span` bits back-to-back. This is the
// bound the bufferbloat appraisal leans on — a schedule can starve a
// queue but never smuggle extra capacity in.
proptest! {
    #[test]
    fn rate_schedule_conserves_bytes(
        kind in 0u8..3,
        raw_steps in proptest::collection::vec(any::<u64>(), 0..16),
        period in 1u64..1_000_000_000,
        on_permille in 0u64..=1000,
        on_bps in 1u64..100_000_000,
        base_bps in 1u64..100_000_000,
        frames in proptest::collection::vec(1usize..1500, 1..50),
        probes in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        use bnm::RateSchedule;

        // The shim has no one-of combinator, so the schedule variant and
        // its parameters are sampled as primitives and assembled here.
        let schedule = match kind {
            0 => RateSchedule::Static,
            1 => {
                let mut steps: Vec<(SimTime, u64)> = raw_steps
                    .chunks_exact(2)
                    .map(|w| {
                        (
                            SimTime::from_nanos(w[0] % 60_000_000_000),
                            w[1] % 99_999_999 + 1,
                        )
                    })
                    .collect();
                steps.sort_by_key(|(t, _)| *t);
                steps.dedup_by_key(|(t, _)| *t);
                RateSchedule::Steps(steps)
            }
            _ => RateSchedule::OnOff {
                period: SimDuration::from_nanos(period),
                on: SimDuration::from_nanos(period * on_permille / 1000),
                on_bps,
            },
        };
        prop_assert!(schedule.validate().is_ok());
        let max = schedule.max_rate(base_bps);

        // At any probe instant the rate is positive and bounded, and the
        // static schedule is exactly the base rate.
        for raw in probes {
            let t = SimTime::from_nanos(raw);
            let rate = schedule.rate_at(t, base_bps);
            prop_assert!(rate >= 1);
            prop_assert!(rate <= max);
            if matches!(schedule, RateSchedule::Static) {
                prop_assert_eq!(rate, base_bps);
            }
        }

        // Serialize the frames back-to-back under the lazy rule the link
        // uses (rate sampled when serialization starts) and check the
        // conservation bound in exact integer arithmetic.
        let mut now = SimTime::ZERO;
        let mut bits: u128 = 0;
        for bytes in frames {
            let rate = schedule.rate_at(now, base_bps);
            now += SimDuration::serialization(bytes, rate);
            bits += bytes as u128 * 8;
        }
        prop_assert!(
            bits * 1_000_000_000 <= max as u128 * now.as_nanos() as u128,
            "delivered {} bits in {} ns at max rate {} bps",
            bits, now.as_nanos(), max
        );
    }
}

// An all-static schedule — explicit specs plus a `Steps` schedule with
// no change-points — must be bit-identical to the plain fixed-rate cell
// at EVERY seed, not just the one the deterministic parity test pins.
// One repetition per side keeps the whole-cell runs cheap.
proptest! {
    #[test]
    fn all_static_schedule_is_bit_identical_to_fixed_rate(seed in any::<u64>()) {
        use bnm::prelude::*;
        use bnm::sim::link::LinkSpec;
        use bnm::{LinkDynamics, LinkShape, RateSchedule};

        let build = |shaped: bool| {
            let b = ExperimentCell::builder(
                MethodId::WebSocket,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .reps(1)
            .seed(seed);
            let b = if shaped {
                b.link_shape(LinkShape {
                    down_spec: Some(LinkSpec::fast_ethernet()),
                    up_spec: Some(LinkSpec::fast_ethernet()),
                    down: LinkDynamics::scheduled(RateSchedule::Steps(Vec::new())),
                    up: LinkDynamics::scheduled(RateSchedule::Steps(Vec::new())),
                })
            } else {
                b
            };
            b.build().unwrap()
        };
        let plain = ExperimentRunner::try_run(&build(false)).unwrap();
        let shaped = ExperimentRunner::try_run(&build(true)).unwrap();
        prop_assert_eq!(plain.d1, shaped.d1);
        prop_assert_eq!(plain.d2, shaped.d2);
        prop_assert_eq!(plain.measurements, shaped.measurements);
        prop_assert_eq!(plain.link, shaped.link);
    }
}

// ---------- capture evidence ----------

/// A SplitMix64 stream, so one sampled word can shape a whole record.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Marker tokens whose decimal forms prefix one another, plus the
/// composite-token shapes sessions use (`sid << 32 | rep`).
const TOKENS: [u64; 8] = [0, 1, 7, 10, 12, 100, 1 << 32, (1 << 32) + 1];

/// One payload of one to three marker-shaped runs — an anchor of some
/// marker kind, round digits, a separator, token digits, a terminator —
/// each part sometimes wrong (zero-led digits, a foreign anchor or
/// separator, a longer token sharing a decimal prefix, no terminator),
/// with junk between; sometimes cut mid-marker, sometimes random bytes.
fn evidence_payload(m: &mut Mix, method: MethodId) -> Vec<u8> {
    if m.below(8) == 0 {
        return (0..m.below(40)).map(|_| m.next() as u8).collect();
    }
    let label = method.label();
    let (own, own_sep) = if method.is_http_based() {
        (format!("m={label}&r="), "&t=")
    } else {
        (format!("probe m={label} r="), " t=")
    };
    let anchors = [
        own.as_str(),
        "pong r=",
        "m=xhr_get&r=",
        "probe m=java_tcp r=",
        "r=",
    ];
    let rounds = ["1", "2", "3", "01", "4", "", "256"];
    let seps = [own_sep, " t=", "&t=", "t="];
    let ends = [" ", "", "x", "0", " HTTP/1.1"];
    let mut p = Vec::new();
    for _ in 0..1 + m.below(3) {
        if m.below(3) == 0 {
            p.extend_from_slice(["x", " ", "7", "&"][m.below(4)].as_bytes());
        }
        let pick = |m: &mut Mix, xs: &[&str]| {
            // The first entry — the method's own shape — half the time.
            let i = if m.below(2) == 0 {
                0
            } else {
                m.below(xs.len())
            };
            xs[i].as_bytes().to_vec()
        };
        p.extend(pick(m, &anchors));
        p.extend(pick(m, &rounds));
        p.extend(pick(m, &seps));
        if m.below(6) == 0 {
            p.push(b'0');
        }
        p.extend_from_slice(TOKENS[m.below(TOKENS.len())].to_string().as_bytes());
        p.extend(pick(m, &ends));
    }
    // Digit runs cut at the frame end.
    if m.below(4) == 0 {
        p.truncate(m.below(p.len() + 1));
    }
    p
}

/// A TCP or UDP frame carrying `payload`; sometimes corrupted or
/// truncated so the wire parser drops it.
fn evidence_frame(m: &mut Mix, payload: Vec<u8>) -> Bytes {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let (protocol, transport) = if m.below(2) == 0 {
        let seg = TcpSegment {
            src_port: 5,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 1000,
            mss: None,
            payload: Bytes::from(payload),
        };
        (IpProtocol::Tcp, seg.emit(src, dst))
    } else {
        let d = UdpDatagram {
            src_port: 40000,
            dst_port: 3478,
            payload: Bytes::from(payload),
        };
        (IpProtocol::Udp, d.emit(src, dst))
    };
    let mut frame = EthernetFrame {
        dst: MacAddr::local(1),
        src: MacAddr::local(2),
        ethertype: EtherType::Ipv4,
        payload: Ipv4Packet {
            src,
            dst,
            protocol,
            ttl: 64,
            ident: 1,
            payload: transport,
        }
        .emit(),
    }
    .emit()
    .to_vec();
    match m.below(10) {
        0 => {
            let at = 14 + m.below(frame.len() - 14);
            frame[at] ^= 1 + m.below(255) as u8;
        }
        1 => frame.truncate(m.below(frame.len())),
        _ => {}
    }
    Bytes::from(frame)
}

/// One tap's records from sampled words: non-decreasing stamps (equal
/// ones included), both directions.
fn evidence_tap(
    words: &[u64],
    method: MethodId,
) -> Vec<(SimTime, bnm::sim::capture::CaptureDir, Bytes)> {
    use bnm::sim::capture::CaptureDir;
    let mut ts = 0u64;
    words
        .iter()
        .map(|&w| {
            let mut m = Mix(w);
            ts += m.below(3) as u64;
            let dir = if m.below(2) == 0 {
                CaptureDir::Tx
            } else {
                CaptureDir::Rx
            };
            let payload = evidence_payload(&mut m, method);
            (
                SimTime::from_micros(ts),
                dir,
                evidence_frame(&mut m, payload),
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn contains_agrees_with_the_naive_scan(
        // Long enough for several of the kernel's 32-byte blocks.
        haystack in proptest::collection::vec(0u8..4, 0..100),
        needle in proptest::collection::vec(0u8..4, 0..6),
    ) {
        use bnm::core::frames::{contains, occurrences};
        let naive: Vec<usize> = if needle.is_empty() {
            Vec::new()
        } else {
            haystack
                .windows(needle.len())
                .enumerate()
                .filter(|(_, w)| *w == &needle[..])
                .map(|(i, _)| i)
                .collect()
        };
        prop_assert_eq!(contains(&haystack, &needle), !naive.is_empty());
        prop_assert_eq!(occurrences(&haystack, &needle).collect::<Vec<_>>(), naive);
    }

    /// `payload_of` skips the parser's copies but not its checks: on
    /// arbitrary bytes, valid frames, frames with one byte flipped and
    /// every truncation of them, it never panics and yields exactly the
    /// payload the full parse does.
    #[test]
    fn payload_of_never_panics_and_matches_the_full_parse(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
        word in any::<u64>(),
    ) {
        use bnm::core::frames::payload_of;
        use bnm::sim::wire::Transport;
        let full_parse = |frame: &[u8]| match ParsedPacket::parse(frame).ok()?.transport {
            Transport::Tcp(seg) => Some(seg.payload.to_vec()),
            Transport::Udp(d) => Some(d.payload.to_vec()),
            _ => None,
        };
        let mut m = Mix(word);
        let payload = evidence_payload(&mut m, MethodId::XhrGet);
        let frame = evidence_frame(&mut m, payload).to_vec();
        let mut flipped = frame.clone();
        if !flipped.is_empty() {
            let at = m.below(flipped.len());
            flipped[at] ^= 1 + m.below(255) as u8;
        }
        for f in [&bytes, &frame, &flipped] {
            for cut in 0..=f.len() {
                let f = &f[..cut];
                prop_assert_eq!(payload_of(f).map(<[u8]>::to_vec), full_parse(f));
            }
        }
    }

    /// The marker index — client sinks and the server index alike —
    /// answers every question exactly as a full scan of the parsed
    /// capture does, on record sets built to probe the scan's edges.
    #[test]
    fn marker_index_agrees_with_the_capture_scan(
        client_words in proptest::collection::vec(any::<u64>(), 0..30),
        server_words in proptest::collection::vec(any::<u64>(), 0..30),
        method_pick in 0usize..4,
        rounds in 1u8..=3,
    ) {
        use bnm::core::matching::{match_datagram_train, ParsedCapture};
        use bnm::core::{ServerMarkerIndex, SessionMarkerSink};
        use bnm::sim::capture::{CaptureBuffer, CaptureSink};

        let method = [
            MethodId::XhrGet,
            MethodId::JavaTcp,
            MethodId::WebRtc,
            MethodId::WebSocket,
        ][method_pick];
        let taps = [evidence_tap(&client_words, method), evidence_tap(&server_words, method)];
        let [client_scan, server_scan] = taps.clone().map(|records| {
            let mut buf = CaptureBuffer::new("oracle");
            for (ts, dir, frame) in records {
                buf.record(ts, dir, frame);
            }
            ParsedCapture::parse(&buf)
        });
        let mut server = ServerMarkerIndex::new(method, rounds, &TOKENS);
        for (ts, dir, frame) in &taps[1] {
            server.on_record(*ts, *dir, frame);
        }
        for token in TOKENS {
            let mut client = SessionMarkerSink::new(method, rounds, token);
            for (ts, dir, frame) in &taps[0] {
                client.on_record(*ts, *dir, frame);
            }
            for round in 1..=rounds {
                prop_assert_eq!(
                    client.match_round(round),
                    client_scan.match_round(method, round, token),
                    "{:?} token {} round {}", method, token, round
                );
                prop_assert_eq!(
                    server.round_retransmitted(round, token),
                    server_scan.round_retransmitted(method, round, token),
                    "{:?} token {} round {}", method, token, round
                );
            }
            prop_assert_eq!(
                client.match_datagram_train(&server, rounds),
                match_datagram_train(&client_scan, &server_scan, method, rounds, token),
                "{:?} token {}", method, token
            );
        }
    }
}
