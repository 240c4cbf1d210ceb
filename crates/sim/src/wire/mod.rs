//! Byte-exact wire formats: Ethernet II, IPv4, TCP, UDP.
//!
//! Frames that travel over simulated links are real packet bytes. The
//! experiment harness recovers its ground-truth timestamps (`tN` in the
//! paper's Eq. 1) by parsing capture-tap records with these parsers — the
//! same workflow as running WinDump/tcpdump next to a browser.

pub mod checksum;
pub mod datagram;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use datagram::{ChunkKind, DataChunk};
pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use icmp::IcmpEcho;
pub use ipv4::{IpProtocol, Ipv4Packet};
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;

use std::fmt;
use std::net::Ipv4Addr;

/// Errors raised while parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// A checksum failed to verify.
    BadChecksum,
    /// A length field disagrees with the buffer.
    BadLength,
    /// A version/format field has an unsupported value.
    Malformed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadLength => write!(f, "length field mismatch"),
            WireError::Malformed => write!(f, "malformed header"),
        }
    }
}

impl std::error::Error for WireError {}

/// A fully parsed client-visible packet: Ethernet → IPv4 → TCP/UDP.
///
/// Convenience for capture-analysis code that wants to go from raw frame
/// bytes to transport payload in one call.
#[derive(Debug, Clone)]
pub struct ParsedPacket {
    /// Link-layer header.
    pub eth: EthernetFrame,
    /// Network-layer header (present for IPv4 ethertype).
    pub ip: Ipv4Packet,
    /// Transport-layer content.
    pub transport: Transport,
}

/// Transport-layer content of a [`ParsedPacket`].
#[derive(Debug, Clone)]
pub enum Transport {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// An ICMP echo message.
    Icmp(IcmpEcho),
    /// An IP protocol this crate does not parse further.
    Other(u8),
}

impl ParsedPacket {
    /// Parse a raw Ethernet frame all the way to the transport layer,
    /// verifying every checksum on the way.
    pub fn parse(frame: &[u8]) -> Result<ParsedPacket, WireError> {
        let eth = EthernetFrame::parse(frame)?;
        if eth.ethertype != EtherType::Ipv4 {
            return Err(WireError::Malformed);
        }
        let ip = Ipv4Packet::parse(&eth.payload)?;
        let transport = match ip.protocol {
            IpProtocol::Tcp => Transport::Tcp(TcpSegment::parse(&ip.payload, ip.src, ip.dst)?),
            IpProtocol::Udp => Transport::Udp(UdpDatagram::parse(&ip.payload, ip.src, ip.dst)?),
            IpProtocol::Icmp => Transport::Icmp(IcmpEcho::parse(&ip.payload)?),
            IpProtocol::Other(p) => Transport::Other(p),
        };
        Ok(ParsedPacket { eth, ip, transport })
    }

    /// The TCP or UDP payload of `frame`, borrowed from it: exactly the
    /// bytes [`Self::parse`] copies into the segment or datagram, and
    /// `None` wherever `parse` fails or finds another transport. The
    /// header checks are `parse`'s own; only the copies are skipped.
    pub fn transport_payload(frame: &[u8]) -> Option<&[u8]> {
        let ether = frame.get(12..ethernet::HEADER_LEN)?;
        if EtherType::from_value(u16::from_be_bytes([ether[0], ether[1]])) != EtherType::Ipv4 {
            return None;
        }
        let ip = &frame[ethernet::HEADER_LEN..];
        let (ihl, total_len) = Ipv4Packet::check(ip).ok()?;
        let src = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
        let dst = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
        let seg = &ip[ihl..total_len];
        match IpProtocol::from_value(ip[9]) {
            IpProtocol::Tcp => Some(&seg[TcpSegment::check(seg, src, dst).ok()?.0..]),
            IpProtocol::Udp => Some(&seg[udp::HEADER_LEN..UdpDatagram::check(seg, src, dst).ok()?]),
            IpProtocol::Icmp | IpProtocol::Other(_) => None,
        }
    }

    /// The TCP segment, if this packet carries one.
    pub fn tcp(&self) -> Option<&TcpSegment> {
        match &self.transport {
            Transport::Tcp(seg) => Some(seg),
            _ => None,
        }
    }

    /// The UDP datagram, if this packet carries one.
    pub fn udp(&self) -> Option<&UdpDatagram> {
        match &self.transport {
            Transport::Udp(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    #[test]
    fn end_to_end_tcp_roundtrip() {
        let src_ip = Ipv4Addr::new(192, 168, 1, 2);
        let dst_ip = Ipv4Addr::new(192, 168, 1, 10);
        let seg = TcpSegment {
            src_port: 49152,
            dst_port: 80,
            seq: 1000,
            ack: 2000,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
            mss: None,
            payload: Bytes::from_static(b"GET /probe?r=1 HTTP/1.1\r\n\r\n"),
        };
        let ip = Ipv4Packet {
            src: src_ip,
            dst: dst_ip,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 7,
            payload: seg.emit(src_ip, dst_ip),
        };
        let eth = EthernetFrame {
            dst: MacAddr([2, 0, 0, 0, 0, 1]),
            src: MacAddr([2, 0, 0, 0, 0, 2]),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        };
        let bytes = eth.emit();
        let parsed = ParsedPacket::parse(&bytes).expect("parse");
        let tcp = parsed.tcp().expect("tcp");
        assert_eq!(tcp.src_port, 49152);
        assert_eq!(tcp.dst_port, 80);
        assert_eq!(&tcp.payload[..], b"GET /probe?r=1 HTTP/1.1\r\n\r\n");
        assert!(tcp.flags.contains(TcpFlags::PSH));
        assert_eq!(parsed.ip.src, src_ip);
    }

    #[test]
    fn non_ip_frame_rejected() {
        let eth = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr([2, 0, 0, 0, 0, 2]),
            ethertype: EtherType::Other(0x0806), // ARP
            payload: Bytes::from_static(&[0u8; 28]),
        };
        assert_eq!(
            ParsedPacket::parse(&eth.emit()).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let src_ip = Ipv4Addr::new(10, 0, 0, 1);
        let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 1000,
            mss: Some(1460),
            payload: Bytes::new(),
        };
        let ip = Ipv4Packet {
            src: src_ip,
            dst: dst_ip,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 0,
            payload: seg.emit(src_ip, dst_ip),
        };
        let eth = EthernetFrame {
            dst: MacAddr([0; 6]),
            src: MacAddr([1; 6]),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        };
        let mut bytes = eth.emit().to_vec();
        // Corrupt a byte inside the TCP header (after 14 eth + 20 ip).
        let idx = 14 + 20 + 4;
        bytes[idx] ^= 0xFF;
        assert!(ParsedPacket::parse(&bytes).is_err());
    }
}
