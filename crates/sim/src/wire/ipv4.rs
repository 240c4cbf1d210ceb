//! IPv4 header emission and parsing (no options, no fragmentation —
//! the testbed's MTU is never exceeded because the experiment messages are
//! deliberately single-packet, per Section 3 of the paper).

use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

use super::checksum;
use super::WireError;

/// Length of the option-less IPv4 header.
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers this crate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpProtocol {
    /// 1.
    Icmp,
    /// 6.
    Tcp,
    /// 17.
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProtocol {
    /// Numeric protocol value.
    pub fn value(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// From the numeric value.
    pub fn from_value(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// An IPv4 packet (DF set, never fragmented).
#[derive(Debug, Clone)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used by the hosts as a per-packet counter,
    /// handy when eyeballing pcaps).
    pub ident: u16,
    /// Transport payload.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Serialize, computing the header checksum.
    pub fn emit(&self) -> Bytes {
        let total_len = HEADER_LEN + self.payload.len();
        assert!(total_len <= u16::MAX as usize, "IPv4 packet too large");
        let mut buf = BytesMut::with_capacity(total_len);
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(0); // DSCP/ECN
        buf.put_u16(total_len as u16);
        buf.put_u16(self.ident);
        buf.put_u16(0x4000); // flags: DF, fragment offset 0
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol.value());
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        let c = checksum::checksum(&buf[..HEADER_LEN]);
        buf[10..12].copy_from_slice(&c.to_be_bytes());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parse and verify the header checksum and length fields.
    pub fn parse(data: &[u8]) -> Result<Ipv4Packet, WireError> {
        let (ihl, total_len) = Self::check(data)?;
        let ident = u16::from_be_bytes([data[4], data[5]]);
        let ttl = data[8];
        let protocol = IpProtocol::from_value(data[9]);
        let src = Ipv4Addr::new(data[12], data[13], data[14], data[15]);
        let dst = Ipv4Addr::new(data[16], data[17], data[18], data[19]);
        Ok(Ipv4Packet {
            src,
            dst,
            protocol,
            ttl,
            ident,
            payload: Bytes::copy_from_slice(&data[ihl..total_len]),
        })
    }

    /// The header length and total length of a packet that passes every
    /// check [`Self::parse`] makes; the payload is `data[ihl..total_len]`.
    pub(crate) fn check(data: &[u8]) -> Result<(usize, usize), WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[0] >> 4 != 4 {
            return Err(WireError::Malformed);
        }
        let ihl = (data[0] & 0x0F) as usize * 4;
        if ihl < HEADER_LEN || data.len() < ihl {
            return Err(WireError::Malformed);
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || total_len > data.len() {
            return Err(WireError::BadLength);
        }
        if !checksum::verify(checksum::sum(0, &data[..ihl])) {
            return Err(WireError::BadChecksum);
        }
        Ok((ihl, total_len))
    }

    /// Length of the emitted packet.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(192, 168, 1, 2),
            dst: Ipv4Addr::new(192, 168, 1, 10),
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 0x1234,
            payload: Bytes::from_static(b"payload bytes"),
        }
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let bytes = p.emit();
        let q = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(q.src, p.src);
        assert_eq!(q.dst, p.dst);
        assert_eq!(q.protocol, IpProtocol::Tcp);
        assert_eq!(q.ttl, 64);
        assert_eq!(q.ident, 0x1234);
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut bytes = sample().emit().to_vec();
        bytes[8] ^= 0x55; // flip TTL bits
        assert_eq!(
            Ipv4Packet::parse(&bytes).unwrap_err(),
            WireError::BadChecksum
        );
    }

    #[test]
    fn rejects_non_v4() {
        let mut bytes = sample().emit().to_vec();
        bytes[0] = 0x65; // version 6
        assert_eq!(Ipv4Packet::parse(&bytes).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn rejects_bad_total_length() {
        let mut bytes = sample().emit().to_vec();
        // Claim a longer packet than the buffer holds; recompute checksum
        // so the length check (not the checksum) trips.
        bytes[2] = 0xFF;
        bytes[3] = 0xFF;
        bytes[10] = 0;
        bytes[11] = 0;
        let c = checksum::checksum(&bytes[..HEADER_LEN]);
        bytes[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(Ipv4Packet::parse(&bytes).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn truncated() {
        assert_eq!(
            Ipv4Packet::parse(&[0x45; 10]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn trailing_link_padding_ignored() {
        // Ethernet can pad short frames; parse must honour total_len.
        let p = sample();
        let mut bytes = p.emit().to_vec();
        bytes.extend_from_slice(&[0u8; 12]);
        let q = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(q.payload, p.payload);
    }
}
