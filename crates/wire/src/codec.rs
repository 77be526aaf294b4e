//! Binary encoding of interkernel packets.
//!
//! Layout (all little-endian):
//!
//! ```text
//! offset  size  field
//!      0     1  kind
//!      1     1  flags        (bit 0: LAST chunk; bit 1: status bits ...)
//!      2     2  payload_len
//!      4     4  seq
//!      8     4  src_pid
//!     12     4  dst_pid
//!     16     4  word_a       kind-specific
//!     20     4  word_b       kind-specific
//!     24     4  word_c       kind-specific
//!     28     4  checksum     (lane sum over header-with-zeroed-checksum ++ payload)
//!     32     …  payload
//! ```
//!
//! The checksum is a four-lane, word-wide multiplicative sum (the
//! `checksum` function below; [`seal`] writes it). The packet is read as
//! 32-byte stripes of four little-endian 64-bit words — the header is
//! exactly stripe 0, a short last stripe is zero-padded — and word *i* of
//! every stripe feeds lane *i* through one bijective step; the packet
//! length and the four lanes are then folded through that same step into
//! one 64-bit state, of which 32 avalanched bits are kept. Every decode
//! verifies it. What that buys:
//!
//! * a corruption confined to one 64-bit word — a flipped bit, a
//!   scrambled byte, a burst inside a word — always changes the 64-bit
//!   state (each step is a bijection of the lane for a given word and of
//!   the word for a given lane), so it can only slip through the final
//!   64 → 32-bit cut, at odds of about 2⁻³² per corrupted packet;
//!   `tests/detection.rs` shows that none of the 163,200 single-byte
//!   corruptions of a 64-byte and a 576-byte packet does;
//! * the step does not commute, the lanes start from different seeds and
//!   are folded in order, so words or stripes that change places change
//!   the sum, which a plain sum misses;
//! * the length is folded in, so zero bytes appended or cut change the
//!   sum even though zero padding leaves the last stripe as it was.
//!
//! It is an error-detecting code for a noisy medium, not a MAC: nothing
//! here resists an adversary who can compute it.
//!
//! The three kind-specific words carry addresses, offsets, totals, logical
//! ids and the like; see the `encode`/`decode` match arms for the exact
//! mapping per kind. Decoding is the single point where raw bytes become a
//! typed [`PacketBody`]: everything past this function works with body
//! structs, never with loose header words.

use std::rc::Rc;

use crate::packet::{
    ForwardBody, GetPidReply, GetPidReq, MoveFromData, MoveFromReq, MoveToData, MsgBytes, Packet,
    PacketBody, PacketKind, ReplyBody, SendBody, TransferAck, TransferStatus, HEADER_LEN, MSG_LEN,
};

/// Flag bit: final chunk of a bulk transfer.
const FLAG_LAST: u8 = 0x01;

/// Errors produced when decoding a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a header.
    TooShort,
    /// Checksum mismatch — the frame was corrupted in flight.
    BadChecksum,
    /// Unknown kind discriminator.
    UnknownKind(u8),
    /// Header's payload length disagrees with the actual byte count.
    LengthMismatch {
        /// Length claimed in the header.
        claimed: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// Payload too small for the kind (e.g. a Send without a full message).
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort => write!(f, "packet shorter than header"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::UnknownKind(k) => write!(f, "unknown packet kind {k}"),
            WireError::LengthMismatch { claimed, actual } => {
                write!(
                    f,
                    "payload length mismatch: claimed {claimed}, got {actual}"
                )
            }
            WireError::Malformed => write!(f, "malformed packet body"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bytes per checksum stripe: one 64-bit word for each lane. The header
/// is exactly one stripe.
const STRIPE: usize = 32;
const _: () = assert!(HEADER_LEN == STRIPE);

/// Offset of the checksum field in the header.
const SUM_AT: usize = 28;

/// Starting value of each lane (the xxHash64 primes 2-5): distinct, so
/// two lanes fed the same words still differ.
const LANE_SEEDS: [u64; 4] = [
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
    0x27D4_EB2F_1656_67C5,
];

/// Odd multiplier of the lane step (xxHash64 prime 1).
const STEP_MUL: u64 = 0x9E37_79B1_85EB_CA87;

/// One lane step. For a fixed `word` it is a bijection of `lane`, and for
/// a fixed `lane` a bijection of `word`: a changed word always changes
/// the lane, and no later step can undo that.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(STEP_MUL).rotate_left(29)
}

/// The four little-endian words of a stripe.
#[inline(always)]
fn stripe_words(stripe: &[u8]) -> [u64; 4] {
    let stripe: &[u8; STRIPE] = stripe.try_into().expect("a stripe is STRIPE bytes");
    core::array::from_fn(|i| {
        u64::from_le_bytes(stripe[i * 8..i * 8 + 8].try_into().expect("eight bytes"))
    })
}

/// The checksum of a whole packet (header ++ payload), reading the
/// checksum field as zero whatever it holds — so the same pass serves
/// `encode` before the field is written and `decode` after.
///
/// Four independent multiply chains keep a 64-bit multiplier busy every
/// cycle where a byte-serial hash waits out one multiply per byte.
fn checksum(packet: &[u8]) -> u32 {
    let (header, payload) = packet.split_at(HEADER_LEN);
    let mut lanes = LANE_SEEDS;
    let mut mix = |words: [u64; 4]| {
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = step(*lane, word);
        }
    };

    // Stripe 0 is the header; its last word holds word_c (low half) and
    // the checksum field (high half), which is masked off in-register.
    let mut words = stripe_words(header);
    words[3] &= u64::from(u32::MAX);
    mix(words);

    let mut stripes = payload.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        mix(stripe_words(stripe));
    }
    let tail = stripes.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..tail.len()].copy_from_slice(tail);
        mix(stripe_words(&last));
    }

    // Length first (zero padding must not hide it), then the lanes in
    // order, through the same step; then a full-width avalanche so the 32
    // bits kept depend on all 64.
    let mut h = lanes
        .into_iter()
        .fold(step(STEP_MUL, packet.len() as u64), step);
    h ^= h >> 32;
    h = h.wrapping_mul(LANE_SEEDS[0]);
    h ^= h >> 29;
    h = h.wrapping_mul(LANE_SEEDS[1]);
    h ^= h >> 32;
    h as u32
}

/// Writes the checksum field of a whole packet (header ++ payload) in
/// place, so that [`decode`] accepts its integrity and goes on to parse
/// it. `encode` ends with this; tests use it to forge packets `encode`
/// refuses to build.
///
/// # Panics
///
/// If `packet` is shorter than a header.
pub fn seal(packet: &mut [u8]) {
    let sum = checksum(packet);
    put_u32(packet, SUM_AT, sum);
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// An encoded packet: one immutable, reference-counted buffer.
///
/// The V kernel keeps a single copy of a message and retransmits from
/// it (§3). Here the retransmission caches, the frame on the wire and
/// every receiver of a broadcast hold this same buffer; cloning the
/// handle copies a pointer, never the bytes.
pub type WireBytes = Rc<[u8]>;

/// Encodes a packet to its on-wire byte representation, writing header,
/// payload and checksum straight into the shared buffer.
///
/// # Panics
///
/// If the payload is longer than the 16-bit length field can say
/// (`ClusterConfig::validate` keeps the kernel's packets below that).
pub fn encode(p: &Packet) -> WireBytes {
    let mut flags: u8 = 0;
    // The kind-specific words and the (at most two) payload parts.
    let (word_a, word_b, word_c, payload): (u32, u32, u32, [&[u8]; 2]) = match &p.body {
        PacketBody::Send(b) => (
            b.appended_from,
            b.appended.len() as u32,
            0,
            [&b.msg, &b.appended],
        ),
        PacketBody::Reply(b) => (b.seg_dest, b.seg.len() as u32, 0, [&b.msg, &b.seg]),
        PacketBody::ReplyPending | PacketBody::Nack => (0, 0, 0, [&[], &[]]),
        PacketBody::MoveToData(b) => {
            if b.last {
                flags |= FLAG_LAST;
            }
            (b.dest, b.offset, b.total, [&b.data, &[]])
        }
        PacketBody::MoveFromReq(b) => (b.src, b.offset, b.total, [&[], &[]]),
        PacketBody::MoveFromData(b) => {
            if b.last {
                flags |= FLAG_LAST;
            }
            (0, b.offset, b.total, [&b.data, &[]])
        }
        PacketBody::TransferAck(b) => (b.received, b.status as u32, 0, [&[], &[]]),
        PacketBody::GetPidReq(b) => (b.logical_id, 0, 0, [&[], &[]]),
        PacketBody::GetPidReply(b) => (b.logical_id, b.pid, 0, [&[], &[]]),
        PacketBody::Forward(b) => (
            b.client,
            b.new_server,
            b.appended_from,
            [&b.msg, &b.appended],
        ),
    };
    let payload_len = payload[0].len() + payload[1].len();

    let mut out: WireBytes = std::iter::repeat(0u8)
        .take(HEADER_LEN + payload_len)
        .collect();
    let buf = Rc::get_mut(&mut out).expect("a fresh buffer has one owner");
    buf[0] = p.kind() as u8;
    buf[1] = flags;
    let claimed = u16::try_from(payload_len)
        .expect("payload exceeds the 16-bit length field; ClusterConfig::validate bounds it");
    put_u16(buf, 2, claimed);
    put_u32(buf, 4, p.seq);
    put_u32(buf, 8, p.src_pid);
    put_u32(buf, 12, p.dst_pid);
    put_u32(buf, 16, word_a);
    put_u32(buf, 20, word_b);
    put_u32(buf, 24, word_c);
    let (first, second) = buf[HEADER_LEN..].split_at_mut(payload[0].len());
    first.copy_from_slice(payload[0]);
    second.copy_from_slice(payload[1]);
    seal(buf);
    out
}

/// Decodes a packet from its on-wire byte representation, verifying the
/// checksum. This is the only place raw header words are interpreted;
/// the result carries fully typed bodies.
pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::TooShort);
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);

    let claimed = get_u16(header, 2) as usize;
    if claimed != payload.len() {
        return Err(WireError::LengthMismatch {
            claimed,
            actual: payload.len(),
        });
    }

    if checksum(bytes) != get_u32(header, SUM_AT) {
        return Err(WireError::BadChecksum);
    }

    let kind = PacketKind::from_u8(header[0]).ok_or(WireError::UnknownKind(header[0]))?;
    let flags = header[1];
    let seq = get_u32(header, 4);
    let src_pid = get_u32(header, 8);
    let dst_pid = get_u32(header, 12);
    let word_a = get_u32(header, 16);
    let word_b = get_u32(header, 20);
    let word_c = get_u32(header, 24);
    let last = flags & FLAG_LAST != 0;

    let take_msg = |payload: &[u8]| -> Result<(MsgBytes, Vec<u8>), WireError> {
        if payload.len() < MSG_LEN {
            return Err(WireError::Malformed);
        }
        let mut msg = [0u8; MSG_LEN];
        msg.copy_from_slice(&payload[..MSG_LEN]);
        Ok((msg, payload[MSG_LEN..].to_vec()))
    };

    // Kinds without a data payload must not smuggle one: a decoded packet
    // always re-encodes to the exact bytes it came from.
    let no_payload = || -> Result<(), WireError> {
        if payload.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed)
        }
    };

    let body = match kind {
        PacketKind::Send => {
            let (msg, appended) = take_msg(payload)?;
            if appended.len() != word_b as usize {
                return Err(WireError::Malformed);
            }
            PacketBody::Send(SendBody {
                msg,
                appended,
                appended_from: word_a,
            })
        }
        PacketKind::Reply => {
            let (msg, seg) = take_msg(payload)?;
            if seg.len() != word_b as usize {
                return Err(WireError::Malformed);
            }
            PacketBody::Reply(ReplyBody {
                msg,
                seg_dest: word_a,
                seg,
            })
        }
        PacketKind::ReplyPending => {
            no_payload()?;
            PacketBody::ReplyPending
        }
        PacketKind::Nack => {
            no_payload()?;
            PacketBody::Nack
        }
        PacketKind::MoveToData => PacketBody::MoveToData(MoveToData {
            dest: word_a,
            offset: word_b,
            total: word_c,
            last,
            data: payload.to_vec(),
        }),
        PacketKind::MoveFromReq => {
            no_payload()?;
            PacketBody::MoveFromReq(MoveFromReq {
                src: word_a,
                offset: word_b,
                total: word_c,
            })
        }
        PacketKind::MoveFromData => PacketBody::MoveFromData(MoveFromData {
            offset: word_b,
            total: word_c,
            last,
            data: payload.to_vec(),
        }),
        PacketKind::TransferAck => {
            no_payload()?;
            PacketBody::TransferAck(TransferAck {
                received: word_a,
                status: TransferStatus::from_u8(word_b as u8).ok_or(WireError::Malformed)?,
            })
        }
        PacketKind::GetPidReq => {
            no_payload()?;
            PacketBody::GetPidReq(GetPidReq { logical_id: word_a })
        }
        PacketKind::GetPidReply => {
            no_payload()?;
            PacketBody::GetPidReply(GetPidReply {
                logical_id: word_a,
                pid: word_b,
            })
        }
        PacketKind::Forward => {
            let (msg, appended) = take_msg(payload)?;
            PacketBody::Forward(ForwardBody {
                client: word_a,
                new_server: word_b,
                msg,
                appended,
                appended_from: word_c,
            })
        }
    };

    Ok(Packet {
        seq,
        src_pid,
        dst_pid,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<Packet> {
        let msg: MsgBytes = core::array::from_fn(|i| i as u8);
        vec![
            Packet {
                seq: 7,
                src_pid: 0x0001_0002,
                dst_pid: 0x0003_0004,
                body: PacketBody::Send(SendBody {
                    msg,
                    appended: vec![9; 512],
                    appended_from: 0x1000,
                }),
            },
            Packet {
                seq: 7,
                src_pid: 0x0003_0004,
                dst_pid: 0x0001_0002,
                body: PacketBody::Reply(ReplyBody {
                    msg,
                    seg_dest: 0x2000,
                    seg: vec![1, 2, 3],
                }),
            },
            Packet {
                seq: 8,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::ReplyPending,
            },
            Packet {
                seq: 9,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::Nack,
            },
            Packet {
                seq: 10,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::MoveToData(MoveToData {
                    dest: 0x500,
                    offset: 1024,
                    total: 4096,
                    last: false,
                    data: vec![0xCC; 1024],
                }),
            },
            Packet {
                seq: 10,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::MoveToData(MoveToData {
                    dest: 0x500,
                    offset: 3072,
                    total: 4096,
                    last: true,
                    data: vec![0xDD; 1024],
                }),
            },
            Packet {
                seq: 11,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::MoveFromReq(MoveFromReq {
                    src: 0x4000,
                    offset: 512,
                    total: 2048,
                }),
            },
            Packet {
                seq: 11,
                src_pid: 2,
                dst_pid: 1,
                body: PacketBody::MoveFromData(MoveFromData {
                    offset: 512,
                    total: 2048,
                    last: true,
                    data: vec![5; 100],
                }),
            },
            Packet {
                seq: 10,
                src_pid: 2,
                dst_pid: 1,
                body: PacketBody::TransferAck(TransferAck {
                    received: 4096,
                    status: TransferStatus::Complete,
                }),
            },
            Packet {
                seq: 0,
                src_pid: 1,
                dst_pid: 0,
                body: PacketBody::GetPidReq(GetPidReq { logical_id: 3 }),
            },
            Packet {
                seq: 0,
                src_pid: 5,
                dst_pid: 1,
                body: PacketBody::GetPidReply(GetPidReply {
                    logical_id: 3,
                    pid: 0x0002_0001,
                }),
            },
            Packet {
                seq: 12,
                src_pid: 0x0002_0001, // the forwarder
                dst_pid: 0x0001_0002, // the client being rebound
                body: PacketBody::Forward(ForwardBody {
                    client: 0x0001_0002,
                    new_server: 0x0002_0009,
                    msg,
                    appended: vec![3; 48],
                    appended_from: 0x3000,
                }),
            },
            Packet {
                seq: 12,
                src_pid: 0x0002_0001,
                dst_pid: 0x0003_0005, // hand-off to a third-host worker
                body: PacketBody::Forward(ForwardBody {
                    client: 0x0001_0002,
                    new_server: 0x0003_0005,
                    msg,
                    appended: vec![],
                    appended_from: 0,
                }),
            },
        ]
    }

    #[test]
    fn round_trip_all_kinds() {
        for p in sample_packets() {
            let bytes = encode(&p);
            assert_eq!(bytes.len(), p.wire_len());
            let q = decode(&bytes).unwrap_or_else(|e| panic!("{e} for {p:?}"));
            assert_eq!(p, q);
        }
    }

    #[test]
    fn corruption_is_detected() {
        for p in sample_packets() {
            let bytes = encode(&p);
            for victim in [0usize, 5, bytes.len() - 1] {
                let mut bad = bytes.to_vec();
                bad[victim] ^= 0x40;
                match decode(&bad) {
                    // Flipping the kind byte may surface as UnknownKind or
                    // a checksum failure first; all are detections.
                    Err(_) => {}
                    Ok(q) => panic!("corruption not detected: {p:?} decoded as {q:?}"),
                }
            }
        }
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(decode(&[0u8; 10]), Err(WireError::TooShort));
    }

    #[test]
    fn truncated_payload_rejected() {
        let p = &sample_packets()[0];
        let bytes = encode(p);
        let cut = &bytes[..bytes.len() - 8];
        assert!(matches!(decode(cut), Err(WireError::LengthMismatch { .. })));
    }

    #[test]
    fn send_shorter_than_message_rejected() {
        // Hand-build a Send claiming a 4-byte payload: checksum valid but
        // body malformed.
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[0] = PacketKind::Send as u8;
        put_u16(&mut bytes, 2, 4);
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        seal(&mut bytes);
        assert_eq!(decode(&bytes), Err(WireError::Malformed));
    }

    #[test]
    fn display_of_errors() {
        assert!(format!("{}", WireError::BadChecksum).contains("checksum"));
        assert!(format!("{}", WireError::UnknownKind(9)).contains('9'));
    }
}
