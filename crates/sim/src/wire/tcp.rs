//! TCP segment emission and parsing, including the MSS option and the
//! pseudo-header checksum.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::BitOr;

use super::checksum;
use super::WireError;

/// Length of the option-less TCP header.
pub const HEADER_LEN: usize = 20;

/// TCP control flags as a bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Whether every flag in `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any flag in `other` is set in `self`.
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.contains(TcpFlags::SYN) {
            parts.push("SYN");
        }
        if self.contains(TcpFlags::ACK) {
            parts.push("ACK");
        }
        if self.contains(TcpFlags::FIN) {
            parts.push("FIN");
        }
        if self.contains(TcpFlags::RST) {
            parts.push("RST");
        }
        if self.contains(TcpFlags::PSH) {
            parts.push("PSH");
        }
        if parts.is_empty() {
            parts.push(".");
        }
        write!(f, "{}", parts.join("|"))
    }
}

/// A TCP segment.
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when ACK is set).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// MSS option (emitted only on SYN segments, as real stacks do).
    pub mss: Option<u16>,
    /// Application payload.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Serialize with a valid checksum over the given pseudo-header
    /// addresses.
    pub fn emit(&self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Bytes {
        let opt_len = if self.mss.is_some() { 4 } else { 0 };
        let header_len = HEADER_LEN + opt_len;
        let total = header_len + self.payload.len();
        let mut buf = BytesMut::with_capacity(total);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(((header_len / 4) as u8) << 4);
        buf.put_u8(self.flags.0);
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(0); // urgent pointer
        if let Some(mss) = self.mss {
            buf.put_u8(2); // kind: MSS
            buf.put_u8(4); // length
            buf.put_u16(mss);
        }
        buf.put_slice(&self.payload);
        let mut acc = checksum::pseudo_header(src_ip, dst_ip, 6, total);
        acc = checksum::sum(acc, &buf);
        let c = checksum::finish(acc);
        buf[16..18].copy_from_slice(&c.to_be_bytes());
        buf.freeze()
    }

    /// Parse and verify the checksum against the pseudo-header.
    pub fn parse(data: &[u8], src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Result<TcpSegment, WireError> {
        let (data_offset, mss) = Self::check(data, src_ip, dst_ip)?;
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            mss,
            payload: Bytes::copy_from_slice(&data[data_offset..]),
        })
    }

    /// The data offset and MSS option of a segment that passes every
    /// check [`Self::parse`] makes; the payload is `data[data_offset..]`.
    pub(crate) fn check(
        data: &[u8],
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
    ) -> Result<(usize, Option<u16>), WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let data_offset = ((data[12] >> 4) as usize) * 4;
        if data_offset < HEADER_LEN || data.len() < data_offset {
            return Err(WireError::Malformed);
        }
        let mut acc = checksum::pseudo_header(src_ip, dst_ip, 6, data.len());
        acc = checksum::sum(acc, data);
        if !checksum::verify(acc) {
            return Err(WireError::BadChecksum);
        }
        let mut mss = None;
        let mut opts = &data[HEADER_LEN..data_offset];
        while !opts.is_empty() {
            match opts[0] {
                0 => break,             // end of options
                1 => opts = &opts[1..], // NOP
                2 => {
                    if opts.len() < 4 || opts[1] != 4 {
                        return Err(WireError::Malformed);
                    }
                    mss = Some(u16::from_be_bytes([opts[2], opts[3]]));
                    opts = &opts[4..];
                }
                _ => {
                    // Unknown option: skip by its length byte.
                    if opts.len() < 2 {
                        return Err(WireError::Malformed);
                    }
                    let l = opts[1] as usize;
                    if l < 2 || opts.len() < l {
                        return Err(WireError::Malformed);
                    }
                    opts = &opts[l..];
                }
            }
        }
        Ok((data_offset, mss))
    }

    /// Sequence-number footprint of this segment (payload + SYN/FIN).
    pub fn seq_len(&self) -> u32 {
        let mut len = self.payload.len() as u32;
        if self.flags.contains(TcpFlags::SYN) {
            len += 1;
        }
        if self.flags.contains(TcpFlags::FIN) {
            len += 1;
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const B: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    fn syn() -> TcpSegment {
        TcpSegment {
            src_port: 50000,
            dst_port: 80,
            seq: 0xDEADBEEF,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 29200,
            mss: Some(1460),
            payload: Bytes::new(),
        }
    }

    #[test]
    fn roundtrip_with_mss() {
        let bytes = syn().emit(A, B);
        assert_eq!(bytes.len(), 24);
        let seg = TcpSegment::parse(&bytes, A, B).unwrap();
        assert_eq!(seg.mss, Some(1460));
        assert_eq!(seg.seq, 0xDEADBEEF);
        assert!(seg.flags.contains(TcpFlags::SYN));
        assert_eq!(seg.seq_len(), 1);
    }

    #[test]
    fn roundtrip_with_payload() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 100,
            ack: 200,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 1000,
            mss: None,
            payload: Bytes::from_static(b"abcdef"),
        };
        let bytes = seg.emit(A, B);
        let out = TcpSegment::parse(&bytes, A, B).unwrap();
        assert_eq!(&out.payload[..], b"abcdef");
        assert_eq!(out.seq_len(), 6);
    }

    #[test]
    fn checksum_ties_to_addresses() {
        // Parsing with the wrong pseudo-header addresses must fail: this is
        // what catches misdelivered packets.
        let bytes = syn().emit(A, B);
        let wrong = Ipv4Addr::new(10, 0, 0, 99);
        assert_eq!(
            TcpSegment::parse(&bytes, A, wrong).unwrap_err(),
            WireError::BadChecksum
        );
    }

    #[test]
    fn fin_consumes_sequence_space() {
        let seg = TcpSegment {
            flags: TcpFlags::FIN | TcpFlags::ACK,
            ..syn()
        };
        // A bare FIN consumes one sequence number.
        assert_eq!(seg.seq_len(), 1);
        let synfin = TcpSegment {
            flags: TcpFlags::SYN | TcpFlags::FIN,
            ..syn()
        };
        // SYN and FIN each consume one (not a legal segment, but seq_len is
        // pure arithmetic).
        assert_eq!(synfin.seq_len(), 2);
    }

    #[test]
    fn flags_display() {
        assert_eq!(format!("{}", TcpFlags::SYN | TcpFlags::ACK), "SYN|ACK");
        assert_eq!(format!("{}", TcpFlags::EMPTY), ".");
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            TcpSegment::parse(&[0u8; 10], A, B).unwrap_err(),
            WireError::Truncated
        );
    }
}
