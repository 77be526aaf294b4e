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
//! ids and the like; `header_fields` is the exact mapping per kind, read
//! by both directions. Decoding is the single point where raw bytes become
//! a typed [`PacketBody`]: everything past [`decode_ref`] works with body
//! structs, never with loose header words.
//!
//! There is one encoder and one decoder. [`encode_with`] writes a packet's
//! data through a closure, straight from wherever it lies, and
//! [`decode_ref`] lends the data out as a slice of the packet; the owned
//! [`encode`] and [`decode`] are those two with the data copied from and
//! into the body's own `Vec`.

use std::convert::Infallible;
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
    /// The packet is not in the one form `encode_with` writes: a payload
    /// too small for the kind (e.g. a Send without a full message) or
    /// carrying bytes the kind has none of, a length word that disagrees
    /// with the data, an undefined transfer status, or a nonzero unused
    /// word or flag bit.
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

/// The checksum of a packet whose header is the four words `header` and
/// whose payload follows it, reading the checksum field (the high half
/// of the last word) as zero whatever it holds — so the same pass serves
/// [`encode_with`] before the field is written and [`decode_ref`] after.
/// The header comes as the words it is: `encode_with` hands over the
/// ones it has just stored, `decode_ref` the ones it parses, and neither
/// reads the stripe back.
///
/// Four independent multiply chains keep a 64-bit multiplier busy every
/// cycle where a byte-serial hash waits out one multiply per byte.
fn checksum(header: [u64; 4], payload: &[u8]) -> u32 {
    let mut lanes = LANE_SEEDS;
    let mut mix = |words: [u64; 4]| {
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = step(*lane, word);
        }
    };

    // Stripe 0 is the header; its last word holds word_c (low half) and
    // the checksum field (high half), which is masked off in-register.
    let mut words = header;
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
    let len = (HEADER_LEN + payload.len()) as u64;
    let mut h = lanes.into_iter().fold(step(STEP_MUL, len), step);
    h ^= h >> 32;
    h = h.wrapping_mul(LANE_SEEDS[0]);
    h ^= h >> 29;
    h = h.wrapping_mul(LANE_SEEDS[1]);
    h ^= h >> 32;
    h as u32
}

/// Writes the checksum field of a whole packet (header ++ payload) in
/// place, so that [`decode`] accepts its integrity and goes on to parse
/// it. Tests use it to forge packets `encode` refuses to build.
///
/// # Panics
///
/// If `packet` is shorter than a header.
pub fn seal(packet: &mut [u8]) {
    let (header, payload) = packet.split_at_mut(HEADER_LEN);
    let sum = checksum(stripe_words(header), payload);
    header[SUM_AT..].copy_from_slice(&sum.to_le_bytes());
}

/// An encoded packet: one immutable, reference-counted buffer.
///
/// The V kernel keeps a single copy of a message and retransmits from
/// it (§3). Here the retransmission caches, the frame on the wire and
/// every receiver of a broadcast hold this same buffer; cloning the
/// handle copies a pointer, never the bytes.
pub type WireBytes = Rc<[u8]>;

/// How a kind's payload is laid out: whether it starts with a 32-byte
/// message, and whether data may follow. Data, where a kind has it, ends
/// the packet.
fn layout(kind: PacketKind) -> (bool, bool) {
    match kind {
        PacketKind::Send | PacketKind::Reply | PacketKind::Forward => (true, true),
        PacketKind::MoveToData | PacketKind::MoveFromData => (false, true),
        _ => (false, false),
    }
}

/// What the header says of `body` beyond its sequence number and pids,
/// when `data_len` bytes of data follow: the flags, the three
/// kind-specific words (a length word, where a kind has one, is
/// `data_len`), and the message the payload starts with, if it has one.
/// The one map between bodies and header words, both ways: `encode_with`
/// writes what it says and `decode_ref` accepts only what it says.
fn header_fields(body: &PacketBody, data_len: usize) -> (u8, [u32; 3], Option<&MsgBytes>) {
    let n = data_len as u32;
    let last = |last: bool| if last { FLAG_LAST } else { 0 };
    match body {
        PacketBody::Send(b) => (0, [b.appended_from, n, 0], Some(&b.msg)),
        PacketBody::Reply(b) => (0, [b.seg_dest, n, 0], Some(&b.msg)),
        PacketBody::ReplyPending | PacketBody::Nack => (0, [0; 3], None),
        PacketBody::MoveToData(b) => (last(b.last), [b.dest, b.offset, b.total], None),
        PacketBody::MoveFromReq(b) => (0, [b.src, b.offset, b.total], None),
        PacketBody::MoveFromData(b) => (last(b.last), [0, b.offset, b.total], None),
        PacketBody::TransferAck(b) => (0, [b.received, b.status as u32, 0], None),
        PacketBody::GetPidReq(b) => (0, [b.logical_id, 0, 0], None),
        PacketBody::GetPidReply(b) => (0, [b.logical_id, b.pid, 0], None),
        PacketBody::Forward(b) => (0, [b.client, b.new_server, b.appended_from], Some(&b.msg)),
    }
}

/// The data an owned body carries.
fn data_of(body: &PacketBody) -> &[u8] {
    match body {
        PacketBody::Send(b) => &b.appended,
        PacketBody::Reply(b) => &b.seg,
        PacketBody::MoveToData(b) => &b.data,
        PacketBody::MoveFromData(b) => &b.data,
        PacketBody::Forward(b) => &b.appended,
        _ => &[],
    }
}

/// Where an owned body keeps its data, if its kind has any.
fn data_slot(body: &mut PacketBody) -> Option<&mut Vec<u8>> {
    match body {
        PacketBody::Send(b) => Some(&mut b.appended),
        PacketBody::Reply(b) => Some(&mut b.seg),
        PacketBody::MoveToData(b) => Some(&mut b.data),
        PacketBody::MoveFromData(b) => Some(&mut b.data),
        PacketBody::Forward(b) => Some(&mut b.appended),
        _ => None,
    }
}

/// Encodes a packet whose data is written where it will travel: allocates
/// the packet's one buffer, writes the header and the message `head`
/// describes, lets `fill` write the `data_len` bytes of data that follow
/// them, and seals the buffer. The one encoder — [`encode`] is this with
/// a `fill` that copies the body's own bytes — so a kernel gathers a
/// segment from the sender's space straight into the packet.
///
/// `head`'s data fields (`SendBody::appended`, `ReplyBody::seg`, the
/// chunks' `data`, `ForwardBody::appended`) are not read: `data_len` and
/// `fill` stand for them. The header is written as the four 64-bit words
/// it is, and the checksum takes its first stripe from those words.
///
/// # Errors
///
/// What `fill` returns, if it fails; nothing is encoded.
///
/// # Panics
///
/// If the payload is longer than the 16-bit length field can say
/// (`ClusterConfig::validate` keeps the kernel's packets below that), or
/// if `data_len` is not zero for a kind that carries no data.
pub fn encode_with<E>(
    head: &Packet,
    data_len: usize,
    fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<WireBytes, E> {
    let kind = head.kind();
    assert!(
        data_len == 0 || layout(kind).1,
        "a {kind:?} carries no data"
    );
    let (flags, [word_a, word_b, word_c], msg) = header_fields(&head.body, data_len);
    let msg_len = msg.map_or(0, |m| m.len());
    let payload_len = msg_len + data_len;
    let claimed = u16::try_from(payload_len)
        .expect("payload exceeds the 16-bit length field; ClusterConfig::validate bounds it");
    let header = [
        u64::from(kind as u8)
            | u64::from(flags) << 8
            | u64::from(claimed) << 16
            | u64::from(head.seq) << 32,
        u64::from(head.src_pid) | u64::from(head.dst_pid) << 32,
        u64::from(word_a) | u64::from(word_b) << 32,
        u64::from(word_c),
    ];

    let mut out: WireBytes = std::iter::repeat(0u8)
        .take(HEADER_LEN + payload_len)
        .collect();
    let buf = Rc::get_mut(&mut out).expect("a fresh buffer has one owner");
    let (header_bytes, payload) = buf.split_at_mut(HEADER_LEN);
    for (at, word) in header_bytes.chunks_exact_mut(8).zip(header) {
        at.copy_from_slice(&word.to_le_bytes());
    }
    let (msg_bytes, data) = payload.split_at_mut(msg_len);
    if let Some(msg) = msg {
        msg_bytes.copy_from_slice(msg);
    }
    fill(data)?;
    let sum = checksum(header, payload);
    header_bytes[SUM_AT..].copy_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// Encodes a packet that owns its data: [`encode_with`], copying the
/// body's bytes into place.
///
/// # Panics
///
/// As [`encode_with`].
pub fn encode(p: &Packet) -> WireBytes {
    let data = data_of(&p.body);
    encode_with(p, data.len(), |buf| {
        buf.copy_from_slice(data);
        Ok::<(), Infallible>(())
    })
    .unwrap_or_else(|never| match never {})
}

/// Decodes a packet from its on-wire bytes and lends out the data it
/// carries: the body's data fields are left empty, and the data follows
/// as the slice of `bytes` it is (empty for a kind that carries none).
/// The one decoder, and the only place raw header words are interpreted
/// — [`decode`] is this with the data copied into the body.
///
/// The checksum is verified over every byte before anything is parsed.
/// A packet is accepted only in the form [`encode_with`] writes — unused
/// words and flag bits zero, a transfer status that is one of the four,
/// a length word that matches the data — so a decoded packet always
/// re-encodes to the exact bytes it came from.
///
/// # Errors
///
/// The first thing wrong with `bytes`, in the order length, checksum,
/// kind, body.
pub fn decode_ref(bytes: &[u8]) -> Result<(Packet, &[u8]), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::TooShort);
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    let words = stripe_words(header);
    let claimed = usize::from((words[0] >> 16) as u16);
    if claimed != payload.len() {
        return Err(WireError::LengthMismatch {
            claimed,
            actual: payload.len(),
        });
    }
    if checksum(words, payload) != (words[3] >> 32) as u32 {
        return Err(WireError::BadChecksum);
    }

    let kind = PacketKind::from_u8(header[0]).ok_or(WireError::UnknownKind(header[0]))?;
    let flags = header[1];
    let last = flags & FLAG_LAST != 0;
    let seq = (words[0] >> 32) as u32;
    let (src_pid, dst_pid) = (words[1] as u32, (words[1] >> 32) as u32);
    let header_words = [words[2] as u32, (words[2] >> 32) as u32, words[3] as u32];
    let [word_a, word_b, word_c] = header_words;

    let (has_msg, has_data) = layout(kind);
    let (msg, data) = if has_msg {
        if payload.len() < MSG_LEN {
            return Err(WireError::Malformed);
        }
        let (msg, data) = payload.split_at(MSG_LEN);
        (msg.try_into().expect("MSG_LEN bytes"), data)
    } else {
        ([0; MSG_LEN], payload)
    };
    if !has_data && !data.is_empty() {
        return Err(WireError::Malformed);
    }

    let body = match kind {
        PacketKind::Send => PacketBody::Send(SendBody {
            msg,
            appended: Vec::new(),
            appended_from: word_a,
        }),
        PacketKind::Reply => PacketBody::Reply(ReplyBody {
            msg,
            seg_dest: word_a,
            seg: Vec::new(),
        }),
        PacketKind::ReplyPending => PacketBody::ReplyPending,
        PacketKind::Nack => PacketBody::Nack,
        PacketKind::MoveToData => PacketBody::MoveToData(MoveToData {
            dest: word_a,
            offset: word_b,
            total: word_c,
            last,
            data: Vec::new(),
        }),
        PacketKind::MoveFromReq => PacketBody::MoveFromReq(MoveFromReq {
            src: word_a,
            offset: word_b,
            total: word_c,
        }),
        PacketKind::MoveFromData => PacketBody::MoveFromData(MoveFromData {
            offset: word_b,
            total: word_c,
            last,
            data: Vec::new(),
        }),
        PacketKind::TransferAck => {
            let status = u8::try_from(word_b).ok().and_then(TransferStatus::from_u8);
            PacketBody::TransferAck(TransferAck {
                received: word_a,
                status: status.ok_or(WireError::Malformed)?,
            })
        }
        PacketKind::GetPidReq => PacketBody::GetPidReq(GetPidReq { logical_id: word_a }),
        PacketKind::GetPidReply => PacketBody::GetPidReply(GetPidReply {
            logical_id: word_a,
            pid: word_b,
        }),
        PacketKind::Forward => PacketBody::Forward(ForwardBody {
            client: word_a,
            new_server: word_b,
            msg,
            appended: Vec::new(),
            appended_from: word_c,
        }),
    };

    // Canonical form: the header says exactly what `encode_with` writes
    // for this body and this much data.
    let (canonical_flags, canonical_words, _) = header_fields(&body, data.len());
    if (flags, header_words) != (canonical_flags, canonical_words) {
        return Err(WireError::Malformed);
    }

    let packet = Packet {
        seq,
        src_pid,
        dst_pid,
        body,
    };
    Ok((packet, data))
}

/// Decodes a packet into one that owns its data: [`decode_ref`], with
/// the lent data copied into the body.
///
/// # Errors
///
/// As [`decode_ref`].
pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
    let (mut p, data) = decode_ref(bytes)?;
    // The body's `Vec` is empty already: an empty `to_vec` would only cost.
    if !data.is_empty() {
        if let Some(slot) = data_slot(&mut p.body) {
            *slot = data.to_vec();
        }
    }
    Ok(p)
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
        bytes[2..4].copy_from_slice(&4u16.to_le_bytes());
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
