//! Frames and station addressing.

use std::fmt;
use std::rc::Rc;

/// A station address on the local network.
///
/// The experimental 3 Mb Ethernet used 8-bit physical addresses — the paper
/// exploits this by embedding the address in the top 8 bits of the logical
/// host identifier. The simulator keeps that exploit intact for stations
/// `1..=0xFE` (their addresses fit a byte, exactly as on the 3 Mb wire) but
/// widens the address space to 16 bits so boot-storm clusters can exceed
/// 255 stations; the 10 Mb "learned table" mode in the kernel treats the
/// address as an opaque station id either way, which is all the protocol
/// requires. Addresses `0xFF00..=0xFFFE` are reserved for internetwork
/// gateways and `0xFFFF` is broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub u16);

impl MacAddr {
    /// The broadcast address: every station except the sender receives the
    /// frame.
    pub const BROADCAST: MacAddr = MacAddr(0xFFFF);

    /// True if this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "*")
        } else {
            write!(f, "{:02x}", self.0)
        }
    }
}

/// Data-link protocol discriminator.
///
/// The V kernel uses the "raw" data-link level with its own ethertype; the
/// baseline protocols (WFS-style page access, streaming) register their own
/// so they can coexist on the same simulated wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EtherType(pub u16);

impl EtherType {
    /// Interkernel packets (the V kernel protocol).
    pub const INTERKERNEL: EtherType = EtherType(0x5601);
    /// WFS-style specialized page-level file access baseline.
    pub const WFS: EtherType = EtherType(0x5602);
    /// Streaming file-access baseline.
    pub const STREAMING: EtherType = EtherType(0x5603);
    /// Raw datagrams used by the network-penalty measurement harness.
    pub const RAW_BENCH: EtherType = EtherType(0x5604);
}

/// A network frame.
///
/// `payload` carries the encoded protocol packet. Link-level framing
/// overhead (preamble, CRC, ...) is folded into the medium's fixed
/// per-frame latency, so `payload.len()` is the byte count that pays
/// per-byte copy and wire costs — matching how the paper quotes packet
/// sizes (a 32-byte message rides in a "64-byte" datagram: 32 bytes of
/// message + 32 bytes of interkernel header).
///
/// The payload is a shared, immutable buffer: cloning a frame — once per
/// receiver of a broadcast, once per gateway hop — copies a pointer, and
/// only a delivery the medium corrupts is given bytes of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination station (possibly broadcast).
    pub dst: MacAddr,
    /// Source station.
    pub src: MacAddr,
    /// Protocol discriminator.
    pub ethertype: EtherType,
    /// Encoded protocol packet, shared by every copy of the frame.
    pub payload: Rc<[u8]>,
}

impl Frame {
    /// Creates a frame. An already shared buffer (`Rc<[u8]>`) is taken
    /// as is; a `Vec<u8>` or slice is copied into a new one.
    pub fn new(
        dst: MacAddr,
        src: MacAddr,
        ethertype: EtherType,
        payload: impl Into<Rc<[u8]>>,
    ) -> Self {
        Frame {
            dst,
            src,
            ethertype,
            payload: payload.into(),
        }
    }

    /// Number of payload bytes that pay copy and wire costs.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len()
    }

    /// The payload after `skip` leading encapsulation bytes, or `None`
    /// if the frame is too short to even hold the encapsulation header —
    /// the boundary check receivers perform before handing bytes to a
    /// packet decoder.
    pub fn payload_after(&self, skip: usize) -> Option<&[u8]> {
        self.payload.get(skip..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_detection() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr(3).is_broadcast());
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", MacAddr(0x0a)), "0a");
        assert_eq!(format!("{}", MacAddr::BROADCAST), "*");
    }

    #[test]
    fn payload_after_bounds() {
        let f = Frame::new(
            MacAddr(1),
            MacAddr(2),
            EtherType::INTERKERNEL,
            vec![1, 2, 3],
        );
        assert_eq!(f.payload_after(0), Some(&[1u8, 2, 3][..]));
        assert_eq!(f.payload_after(2), Some(&[3u8][..]));
        assert_eq!(f.payload_after(3), Some(&[][..]));
        assert_eq!(f.payload_after(4), None);
    }

    #[test]
    fn wire_bytes_is_payload_len() {
        let f = Frame::new(
            MacAddr(1),
            MacAddr(2),
            EtherType::INTERKERNEL,
            vec![0u8; 64],
        );
        assert_eq!(f.wire_bytes(), 64);
    }

    #[test]
    fn ethertypes_are_distinct() {
        let tys = [
            EtherType::INTERKERNEL,
            EtherType::WFS,
            EtherType::STREAMING,
            EtherType::RAW_BENCH,
        ];
        for (i, a) in tys.iter().enumerate() {
            for (j, b) in tys.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }
}
