//! Capture evidence: the one structure every repetition's capture
//! matching answers from.
//!
//! A capture record is parsed ([`crate::frames::payload_of`]) and
//! scanned **once** for the method's marker anchor (`m={label}&r=`,
//! `pong r=` or `probe m={label} r=`). The round and token digits that
//! follow are decoded, and the record's stamp is folded into a
//! constant-size `HitAcc` per (token, round, marker kind, direction):
//! the first stamp and a hit count. Client-tap round matching, the
//! server-tap retransmission rule and the four-quadrant datagram verdict
//! all read those accumulators, so matching costs one pass over each
//! tap, whatever the crowd size.
//!
//! When the records arrive is the caller's choice. Installed as a tap's
//! [`CaptureSink`], the evidence folds at capture time and frames recycle
//! through the pool mid-run (streaming). Fed from a tap's drained
//! records after the run, it folds the same records in the same order
//! (batch). Both give the same evidence: the tap stamps records
//! identically in both modes (same noise RNG stream, same monotonicity
//! clamp, same snaplen truncation).
//!
//! The scan-based [`crate::matching::ParsedCapture`] is the oracle.
//! [`ServerMarkerIndex`] reproduces `contains`' semantics *exactly*,
//! including the subtle one: an HTTP request marker
//! (`m={label}&r={round}&t={token}`, no terminator) hits every record
//! whose digit run has the token's decimal form as a **byte prefix** —
//! token `1` matches a frame carrying token `10`. Every marker counts
//! at most once per record, as `contains` is a per-record test.

use std::any::Any;
use std::collections::HashMap;

use bnm_methods::MethodId;
use bnm_sim::capture::{CaptureDir, CaptureSink};
use bnm_sim::time::SimTime;
use bytes::Bytes;

use crate::frames::{occurrences, payload_of};
use crate::matching::{
    judge_round, judge_train, HitAcc, MatchError, ProbeEvidence, ProbeVerdict, WireTimes,
};

/// Quadrant of a (token, round) slot's evidence: `[req_tx, req_rx,
/// resp_tx, resp_rx]`.
fn quadrant(is_resp: bool, dir: CaptureDir) -> usize {
    (usize::from(is_resp) << 1) | usize::from(dir == CaptureDir::Rx)
}

/// Marker evidence for a set of sessions' tokens, folded one record at a
/// time. The server tap's sink; every client tap carries one through
/// [`SessionMarkerSink`].
///
/// Per record the work is one scan per marker anchor plus a lookup per
/// anchor occurrence, independent of how many sessions and rounds are
/// registered; every query is then a lookup.
#[derive(Debug, Default)]
pub struct ServerMarkerIndex {
    /// `m={label}&r=` (HTTP) or `probe m={label} r=` (echo transports).
    req_anchor: Vec<u8>,
    /// `pong r=` for HTTP methods. `None` for echo transports, whose
    /// response marker is the request marker: the request quadrants
    /// then stand for both.
    resp_anchor: Option<Vec<u8>>,
    /// Registered rounds are `1..=rounds`.
    rounds: u8,
    /// Registered token → slot (`slot * rounds` indexes `hits`).
    tokens: HashMap<u64, u32>,
    /// Shortest and longest decimal form of a registered token.
    token_digits: (usize, usize),
    /// Four quadrants per (token slot × round).
    hits: Vec<[HitAcc; 4]>,
    /// Per-record scratch of `(slot, round, is_resp)` hits, deduplicated
    /// before folding.
    seen: Vec<(u32, u8, bool)>,
}

impl ServerMarkerIndex {
    /// An index for `rounds` rounds of `method` probes from the sessions
    /// whose marker tokens are `tokens`.
    pub fn new(method: MethodId, rounds: u8, tokens: &[u64]) -> ServerMarkerIndex {
        let (req_anchor, resp_anchor) = if method.is_http_based() {
            (
                format!("m={}&r=", method.label()),
                Some(b"pong r=".to_vec()),
            )
        } else {
            (format!("probe m={} r=", method.label()), None)
        };
        let digits = tokens.iter().map(|t| t.to_string().len());
        ServerMarkerIndex {
            req_anchor: req_anchor.into_bytes(),
            resp_anchor,
            rounds,
            tokens: tokens.iter().zip(0..).map(|(&t, i)| (t, i)).collect(),
            token_digits: (digits.clone().min().unwrap_or(1), digits.max().unwrap_or(0)),
            hits: vec![[HitAcc::default(); 4]; tokens.len() * usize::from(rounds)],
            seen: Vec::new(),
        }
    }

    /// The evidence of one marker kind in one direction.
    fn acc(&self, round: u8, token: u64, is_resp: bool, dir: CaptureDir) -> HitAcc {
        let is_resp = is_resp && self.resp_anchor.is_some();
        self.slot(round, token)
            .map_or_else(HitAcc::default, |q| q[quadrant(is_resp, dir)])
    }

    fn slot(&self, round: u8, token: u64) -> Option<&[HitAcc; 4]> {
        let &slot = self.tokens.get(&token)?;
        let ri = usize::from(round.checked_sub(1).filter(|&r| r < self.rounds)?);
        self.hits.get(slot as usize * usize::from(self.rounds) + ri)
    }

    /// `ParsedCapture::round_retransmitted`, answered from the index:
    /// whether either of the round's markers hit more than one record
    /// in any one direction.
    pub fn round_retransmitted(&self, round: u8, token: u64) -> bool {
        self.slot(round, token)
            .is_some_and(|q| q.iter().any(|h| h.count > 1))
    }

    /// Fold one record's payload: every (token, round, kind) whose
    /// marker it carries gets one hit in `dir`.
    fn fold(&mut self, ts: SimTime, dir: CaptureDir, payload: &[u8]) {
        let ServerMarkerIndex {
            req_anchor,
            resp_anchor,
            rounds,
            tokens,
            token_digits: (shortest, longest),
            seen,
            ..
        } = self;
        let mut scan = |anchor: &[u8], sep: &[u8], open_ended: bool, is_resp: bool| {
            for at in occurrences(payload, anchor) {
                let rest = &payload[at + anchor.len()..];
                let n = digit_run(rest);
                let Some(round) =
                    canonical(&rest[..n]).filter(|r| (1..=u64::from(*rounds)).contains(r))
                else {
                    continue;
                };
                let Some(rest) = rest[n..].strip_prefix(sep) else {
                    continue;
                };
                let n = digit_run(rest);
                let mut hit = |digits: &[u8]| {
                    let slot = canonical(digits).and_then(|t| tokens.get(&t));
                    if let Some(&slot) = slot {
                        seen.push((slot, round as u8, is_resp));
                    }
                };
                if open_ended {
                    // Token T hits iff T's decimal form is a byte prefix
                    // of the digit run: walk the run's prefixes as long
                    // as a registered token's.
                    (*shortest..=n.min(*longest)).for_each(|k| hit(&rest[..k]));
                } else if rest.get(n) == Some(&b' ') {
                    hit(&rest[..n]);
                }
            }
        };
        // HTTP requests end at the token (`m=…&r=R&t=T`), so a token
        // matches by decimal prefix; every other marker is
        // space-terminated and matches its whole digit run.
        if let Some(resp) = resp_anchor {
            scan(req_anchor, b"&t=", true, false);
            scan(resp, b" t=", false, true);
        } else {
            scan(req_anchor, b" t=", false, false);
        }
        seen.sort_unstable();
        seen.dedup();
        let per_token = usize::from(self.rounds);
        for (slot, round, is_resp) in self.seen.drain(..) {
            let i = slot as usize * per_token + usize::from(round - 1);
            self.hits[i][quadrant(is_resp, dir)].note(ts);
        }
    }
}

/// Length of the ASCII digit run `bytes` starts with.
fn digit_run(bytes: &[u8]) -> usize {
    bytes.iter().take_while(|b| b.is_ascii_digit()).count()
}

/// The value of a digit run written the way `u64`'s `Display` writes
/// it: non-empty, no leading zero (except `0` itself), no overflow.
fn canonical(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || (digits.len() > 1 && digits[0] == b'0') {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &d| {
        v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
    })
}

impl CaptureSink for ServerMarkerIndex {
    fn on_record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
        if let Some(payload) = payload_of(frame) {
            self.fold(ts, dir, payload);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One session's client-tap evidence: a [`ServerMarkerIndex`] over the
/// session's one token.
///
/// Its answers are `ParsedCapture::parse` + `match_round` /
/// `match_datagram_train`'s exactly — same payload extraction, same
/// substring semantics, same decision order — asserted against the scan
/// by the tests below, `tests/properties.rs` and
/// `tests/streaming_parity.rs`.
#[derive(Debug, Default)]
pub struct SessionMarkerSink {
    index: ServerMarkerIndex,
    token: u64,
    /// Records seen (diagnostics only).
    records: u64,
}

impl SessionMarkerSink {
    /// A sink grepping for `rounds` rounds of `method` probes under
    /// `token` (the session's composite marker token).
    pub fn new(method: MethodId, rounds: u8, token: u64) -> SessionMarkerSink {
        SessionMarkerSink {
            index: ServerMarkerIndex::new(method, rounds, &[token]),
            token,
            records: 0,
        }
    }

    /// `ParsedCapture::match_round`, answered from the accumulated
    /// evidence: same checks, same order.
    pub fn match_round(&self, round: u8) -> Result<WireTimes, MatchError> {
        let acc = |is_resp, dir| self.index.acc(round, self.token, is_resp, dir);
        judge_round(acc(false, CaptureDir::Tx), acc(true, CaptureDir::Rx))
    }

    /// `match_datagram_train` over this client tap and the `server`
    /// tap's index: the probe marker's four quadrants per sequence
    /// number, judged in the same order.
    pub fn match_datagram_train(
        &self,
        server: &ServerMarkerIndex,
        train_len: u8,
    ) -> Vec<ProbeVerdict> {
        let t = self.token;
        judge_train(train_len, |seq| ProbeEvidence {
            probe_tx: self.index.acc(seq, t, false, CaptureDir::Tx),
            probe_at_server: server.acc(seq, t, false, CaptureDir::Rx),
            echo_tx: server.acc(seq, t, false, CaptureDir::Tx),
            echo_rx: self.index.acc(seq, t, false, CaptureDir::Rx),
        })
    }

    /// Records this sink observed.
    pub fn records_seen(&self) -> u64 {
        self.records
    }
}

impl CaptureSink for SessionMarkerSink {
    fn on_record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
        self.records += 1;
        self.index.on_record(ts, dir, frame);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A sink that drops every record unexamined — for taps whose contents
/// the pipeline never reads (the server tap of a clean reliable cell)
/// while still recycling frames.
#[derive(Debug, Default)]
pub struct DiscardSink {
    records: u64,
}

impl DiscardSink {
    /// Records dropped.
    pub fn records_seen(&self) -> u64 {
        self.records
    }
}

impl CaptureSink for DiscardSink {
    fn on_record(&mut self, _ts: SimTime, _dir: CaptureDir, _frame: &Bytes) {
        self.records += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    use bnm_sim::capture::CaptureBuffer;
    use bnm_sim::wire::{
        EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment,
    };

    use crate::matching::ParsedCapture;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn tcp_frame(payload: &[u8]) -> Bytes {
        let seg = TcpSegment {
            src_port: 5,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 1000,
            mss: None,
            payload: Bytes::copy_from_slice(payload),
        };
        let ip = Ipv4Packet {
            src: A,
            dst: B,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 1,
            payload: seg.emit(A, B),
        };
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        }
        .emit()
    }

    /// Feed the same records to a retaining buffer (batch reference) and
    /// to the sinks; return the batch parse.
    fn batch_of(records: &[(u64, CaptureDir, &[u8])]) -> ParsedCapture {
        let mut buf = CaptureBuffer::new("ref");
        for (ms, dir, payload) in records {
            buf.record(SimTime::from_millis(*ms), *dir, tcp_frame(payload));
        }
        ParsedCapture::parse(&buf)
    }

    fn feed_sink(sink: &mut dyn CaptureSink, records: &[(u64, CaptureDir, &[u8])]) {
        for (ms, dir, payload) in records {
            sink.on_record(SimTime::from_millis(*ms), *dir, &tcp_frame(payload));
        }
    }

    #[test]
    fn session_sink_matches_like_parsed_capture() {
        let records: &[(u64, CaptureDir, &[u8])] = &[
            (
                10,
                CaptureDir::Tx,
                b"GET /probe?m=xhr_get&r=1&t=7 HTTP/1.1\r\n\r\n",
            ),
            (
                61,
                CaptureDir::Rx,
                b"HTTP/1.1 200 OK\r\n\r\npong r=1 t=7 .....",
            ),
            (
                80,
                CaptureDir::Tx,
                b"GET /probe?m=xhr_get&r=2&t=7 HTTP/1.1\r\n\r\n",
            ),
            (
                131,
                CaptureDir::Rx,
                b"HTTP/1.1 200 OK\r\n\r\npong r=2 t=7 .....",
            ),
        ];
        let batch = batch_of(records);
        let mut sink = SessionMarkerSink::new(MethodId::XhrGet, 2, 7);
        feed_sink(&mut sink, records);
        for r in 1..=2 {
            assert_eq!(
                sink.match_round(r),
                batch.match_round(MethodId::XhrGet, r, 7),
                "round {r}"
            );
        }
        assert_eq!(sink.records_seen(), 4);
    }

    #[test]
    fn session_sink_reports_every_error_like_batch() {
        // Retransmitted request, then a round with no response, then an
        // out-of-order round.
        let records: &[(u64, CaptureDir, &[u8])] = &[
            (10, CaptureDir::Tx, b"m=xhr_get&r=1&t=9 "),
            (210, CaptureDir::Tx, b"m=xhr_get&r=1&t=9 "),
            (261, CaptureDir::Rx, b"pong r=1 t=9 "),
            (300, CaptureDir::Tx, b"m=xhr_get&r=2&t=9 "),
        ];
        let batch = batch_of(records);
        let mut sink = SessionMarkerSink::new(MethodId::XhrGet, 3, 9);
        feed_sink(&mut sink, records);
        for r in 1..=3 {
            assert_eq!(
                sink.match_round(r),
                batch.match_round(MethodId::XhrGet, r, 9),
                "round {r}"
            );
        }
    }

    #[test]
    fn session_sink_handles_echo_transports() {
        let marker: &[u8] = b"probe m=java_tcp r=1 t=3 .......";
        let records: &[(u64, CaptureDir, &[u8])] =
            &[(5, CaptureDir::Tx, marker), (55, CaptureDir::Rx, marker)];
        let batch = batch_of(records);
        let mut sink = SessionMarkerSink::new(MethodId::JavaTcp, 1, 3);
        feed_sink(&mut sink, records);
        assert_eq!(
            sink.match_round(1),
            batch.match_round(MethodId::JavaTcp, 1, 3)
        );
    }

    /// The decisive semantic test: tokens whose decimal forms prefix
    /// each other. `contains` makes token 1 hit a frame carrying token
    /// 10 for open-ended HTTP request markers (and only for those);
    /// the index must reproduce that bit-exactly.
    #[test]
    fn server_index_preserves_decimal_prefix_ambiguity() {
        let t_short = 1u64;
        let t_long = 10u64;
        let records: &[(u64, CaptureDir, &[u8])] = &[
            // One "real" occurrence for token 1...
            (10, CaptureDir::Rx, b"m=xhr_get&r=1&t=1 HTTP/1.1"),
            // ...and token 10's request, which ALSO hits token 1's
            // open-ended needle "m=xhr_get&r=1&t=1".
            (11, CaptureDir::Rx, b"m=xhr_get&r=1&t=10 HTTP/1.1"),
            // Responses are space-terminated: no cross-hit.
            (12, CaptureDir::Tx, b"pong r=1 t=1 "),
            (13, CaptureDir::Tx, b"pong r=1 t=10 "),
        ];
        let batch = batch_of(records);
        let mut idx = ServerMarkerIndex::new(MethodId::XhrGet, 2, &[t_short, t_long]);
        feed_sink(&mut idx, records);
        for &tok in &[t_short, t_long] {
            for r in 1..=2 {
                assert_eq!(
                    idx.round_retransmitted(r, tok),
                    batch.round_retransmitted(MethodId::XhrGet, r, tok),
                    "token {tok} round {r}"
                );
            }
        }
        // Token 1's request marker was hit twice (once by its own frame,
        // once inside token 10's) — the batch rule calls that
        // retransmitted, and so must the index.
        assert!(idx.round_retransmitted(1, t_short));
        assert!(!idx.round_retransmitted(1, t_long));
    }

    #[test]
    fn server_index_detects_downstream_duplicates() {
        let records: &[(u64, CaptureDir, &[u8])] = &[
            (35, CaptureDir::Rx, b"m=xhr_get&r=1&t=7 "),
            (36, CaptureDir::Tx, b"pong r=1 t=7 "),
            (236, CaptureDir::Tx, b"pong r=1 t=7 "),
        ];
        let batch = batch_of(records);
        let mut idx = ServerMarkerIndex::new(MethodId::XhrGet, 2, &[7]);
        feed_sink(&mut idx, records);
        assert!(idx.round_retransmitted(1, 7));
        assert_eq!(
            idx.round_retransmitted(1, 7),
            batch.round_retransmitted(MethodId::XhrGet, 1, 7)
        );
        assert!(!idx.round_retransmitted(2, 7));
    }

    /// Edge cases: digit runs cut off by the frame end (no terminator),
    /// non-digit continuations, duplicate occurrences within one
    /// payload, and echo markers — all against the batch oracle.
    #[test]
    fn server_index_edge_cases_agree_with_batch() {
        let tokens = &[0u64, 7, 70, 4294967296 /* 1<<32: session 1 rep 0 */];
        let records: &[(u64, CaptureDir, &[u8])] = &[
            // Truncated digit run at end of payload: space-terminated
            // needles must NOT hit.
            (1, CaptureDir::Tx, b"pong r=1 t=7"),
            // Non-digit after the run: "t=7x" — open-ended token 7 hits
            // ("m=...&t=7" is a substring), exact "pong r=1 t=7 " would
            // not.
            (2, CaptureDir::Rx, b"m=xhr_get&r=1&t=7x"),
            // Two occurrences of the same marker in one payload: one hit
            // (contains is per-record).
            (
                3,
                CaptureDir::Rx,
                b"m=xhr_get&r=1&t=70 ... m=xhr_get&r=1&t=70",
            ),
            // Token 0 and the 1<<32 composite.
            (4, CaptureDir::Rx, b"m=xhr_get&r=2&t=0 "),
            (5, CaptureDir::Rx, b"m=xhr_get&r=2&t=4294967296 "),
            (6, CaptureDir::Tx, b"pong r=2 t=4294967296 "),
            (7, CaptureDir::Tx, b"pong r=2 t=4294967296 "),
        ];
        let batch = batch_of(records);
        let mut idx = ServerMarkerIndex::new(MethodId::XhrGet, 2, tokens);
        feed_sink(&mut idx, records);
        for &tok in tokens {
            for r in 1..=2 {
                assert_eq!(
                    idx.round_retransmitted(r, tok),
                    batch.round_retransmitted(MethodId::XhrGet, r, tok),
                    "token {tok} round {r}"
                );
            }
        }
        // The duplicated pong makes (round 2, 1<<32) retransmitted.
        assert!(idx.round_retransmitted(2, 4294967296));
    }

    #[test]
    fn server_index_echo_methods_agree_with_batch() {
        let records: &[(u64, CaptureDir, &[u8])] = &[
            (5, CaptureDir::Rx, b"probe m=java_tcp r=1 t=3 ......."),
            (6, CaptureDir::Tx, b"probe m=java_tcp r=1 t=3 ......."),
            (206, CaptureDir::Tx, b"probe m=java_tcp r=1 t=3 ......."),
            (300, CaptureDir::Rx, b"probe m=java_tcp r=2 t=3 ......."),
            (301, CaptureDir::Tx, b"probe m=java_tcp r=2 t=3 ......."),
        ];
        let batch = batch_of(records);
        let mut idx = ServerMarkerIndex::new(MethodId::JavaTcp, 2, &[3]);
        feed_sink(&mut idx, records);
        for r in 1..=2 {
            assert_eq!(
                idx.round_retransmitted(r, 3),
                batch.round_retransmitted(MethodId::JavaTcp, r, 3),
                "round {r}"
            );
        }
        assert!(idx.round_retransmitted(1, 3));
        assert!(!idx.round_retransmitted(2, 3));
    }

    #[test]
    fn discard_sink_only_counts() {
        let mut s = DiscardSink::default();
        s.on_record(SimTime::ZERO, CaptureDir::Tx, &tcp_frame(b"anything"));
        s.on_record(SimTime::ZERO, CaptureDir::Rx, &Bytes::from_static(b"junk"));
        assert_eq!(s.records_seen(), 2);
    }
}
