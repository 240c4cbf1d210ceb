//! Shared frame-parsing helpers for capture analysis.
//!
//! Both the client-side matcher ([`crate::matching`]) and the
//! server-side overhead appraisal ([`crate::server_side`]) grep
//! transport payloads out of raw captured frames. The two modules used
//! to carry verbatim copies of these helpers; they live here once.

use bnm_sim::wire::ParsedPacket;

/// Transport payload of a captured frame, if it parses.
///
/// A view into the frame itself, checked exactly as
/// [`ParsedPacket::parse`] checks it (lengths, IPv4 and TCP/UDP
/// checksums, TCP options) but without copying any layer. Frames that
/// fail to parse, and transports without a greppable payload (ICMP,
/// unknown), yield `None`, exactly as a checksum-filtering analyst would
/// drop them.
pub fn payload_of(frame: &[u8]) -> Option<&[u8]> {
    ParsedPacket::transport_payload(frame)
}

/// Substring search (the capture analyst's `grep`). An empty needle
/// never matches.
pub fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    occurrences(haystack, needle).next().is_some()
}

/// Offsets [`occurrences`] filters per step.
const BLOCK: usize = 32;

/// Start offsets of every occurrence of `needle` in `haystack`,
/// overlapping ones included, in ascending order; none for an empty
/// needle.
///
/// Offsets are filtered 32 at a time on the needle's first two
/// bytes, a branch-free test the compiler vectorizes; only a block that
/// holds a candidate is compared offset by offset, inline (most
/// candidates differ early, sooner than a `memcmp` call returns).
pub fn occurrences<'a>(haystack: &'a [u8], needle: &'a [u8]) -> impl Iterator<Item = usize> + 'a {
    // Offsets a whole needle fits after; zero of them for an empty one.
    let starts = if needle.is_empty() {
        0
    } else {
        (haystack.len() + 1).saturating_sub(needle.len())
    };
    // The second byte filtered on (the first again for a one-byte needle).
    let second = usize::from(needle.len() > 1);
    let first_byte = needle.first().copied().unwrap_or(0);
    let second_byte = needle.get(second).copied().unwrap_or(0);
    let mut from = 0;
    std::iter::from_fn(move || {
        while from < starts {
            let end = (from + BLOCK).min(starts);
            let block = |at: usize| <&[u8; BLOCK]>::try_from(haystack.get(at..at + BLOCK)?).ok();
            // A short final block is always compared offset by offset.
            let candidate = match (block(from), block(from + second)) {
                (Some(firsts), Some(seconds)) if end - from == BLOCK => (0..BLOCK)
                    .fold(false, |any, i| {
                        any | ((firsts[i] == first_byte) & (seconds[i] == second_byte))
                    }),
                _ => true,
            };
            if !candidate {
                from = end;
                continue;
            }
            while from < end {
                let at = from;
                from += 1;
                if haystack[at] == first_byte
                    && haystack[at + second] == second_byte
                    && haystack[at..at + needle.len()].iter().eq(needle)
                {
                    return Some(at);
                }
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_sim::wire::{
        EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment,
        UdpDatagram,
    };
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn wrap(protocol: IpProtocol, payload: Bytes) -> Bytes {
        let ip = Ipv4Packet {
            src: A,
            dst: B,
            protocol,
            ttl: 64,
            ident: 1,
            payload,
        };
        EthernetFrame {
            dst: MacAddr([2; 6]),
            src: MacAddr([1; 6]),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        }
        .emit()
    }

    #[test]
    fn tcp_payload_extracted() {
        let seg = TcpSegment {
            src_port: 5,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 1000,
            mss: None,
            payload: Bytes::from_static(b"m=xhr_get&r=1&t=7"),
        };
        let frame = wrap(IpProtocol::Tcp, seg.emit(A, B));
        let p = payload_of(&frame).expect("parses");
        assert_eq!(p, b"m=xhr_get&r=1&t=7");
    }

    #[test]
    fn udp_payload_extracted() {
        let dgram = UdpDatagram {
            src_port: 5,
            dst_port: 53,
            payload: Bytes::from_static(b"probe"),
        };
        let frame = wrap(IpProtocol::Udp, dgram.emit(A, B));
        assert_eq!(payload_of(&frame).unwrap(), b"probe");
    }

    #[test]
    fn garbage_yields_none() {
        assert!(payload_of(b"not a frame").is_none());
        assert!(payload_of(&[]).is_none());
    }

    #[test]
    fn contains_finds_substrings() {
        assert!(contains(b"xx pong r=1 t=0 yy", b"pong r=1 t=0 "));
        assert!(!contains(b"pong r=1", b"pong r=10"));
        assert!(!contains(b"anything", b""), "empty needle never matches");
        assert!(contains(b"abc", b"abc"));
        assert!(!contains(b"ab", b"abc"), "needle longer than the haystack");
    }

    #[test]
    fn occurrences_include_overlaps() {
        let at: Vec<usize> = occurrences(b"aaab aa", b"aa").collect();
        assert_eq!(at, [0, 1, 5]);
        assert_eq!(occurrences(b"abc", b"").count(), 0);
    }
}
