//! The codec as a model check: `encode_with` / `decode_ref` — the one
//! encoder and the one decoder — and the owned `encode` / `decode` over
//! them, against the encoder that wrote every packet before there was a
//! core to share. That encoder is kept below verbatim (renamed
//! `reference_encode`): header by 1-, 2- and 4-byte stores, payload copied
//! from the body's `Vec`s, then `seal`. Packets of all eleven kinds must
//! come out byte-identical whichever way their data reaches the buffer;
//! what `decode_ref` lends must be what `decode` owns; and every
//! single-byte corruption of the three packet shapes the kernel sends
//! most is rejected by both decoders with the same error.
//!
//! CI runs this with `PROPTEST_CASES=5000`; the vendored proptest does
//! not shrink, so a failing case prints its inputs as drawn.

use std::rc::Rc;

use proptest::prelude::*;
use v_wire::{
    decode, decode_ref, encode, encode_with, seal, ForwardBody, GetPidReply, GetPidReq,
    MoveFromData, MoveFromReq, MoveToData, MsgBytes, Packet, PacketBody, ReplyBody, SendBody,
    TransferAck, TransferStatus, WireBytes, HEADER_LEN,
};

/// Flag bit: final chunk of a bulk transfer.
const FLAG_LAST: u8 = 0x01;

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Encodes a packet to its on-wire byte representation, writing header,
/// payload and checksum straight into the shared buffer.
///
/// # Panics
///
/// If the payload is longer than the 16-bit length field can say
/// (`ClusterConfig::validate` keeps the kernel's packets below that).
pub fn reference_encode(p: &Packet) -> WireBytes {
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

/// `p` without its data, and the data: the head `encode_with` takes and
/// the bytes its `fill` writes, or what `decode_ref` returns.
fn split(p: &Packet) -> (Packet, Vec<u8>) {
    let mut head = p.clone();
    let data = match &mut head.body {
        PacketBody::Send(b) => std::mem::take(&mut b.appended),
        PacketBody::Reply(b) => std::mem::take(&mut b.seg),
        PacketBody::MoveToData(b) => std::mem::take(&mut b.data),
        PacketBody::MoveFromData(b) => std::mem::take(&mut b.data),
        PacketBody::Forward(b) => std::mem::take(&mut b.appended),
        _ => Vec::new(),
    };
    (head, data)
}

/// `encode_with` with `data` copied in by the fill.
fn encode_filled(head: &Packet, data: &[u8]) -> WireBytes {
    let filled = encode_with(head, data.len(), |buf| {
        buf.copy_from_slice(data);
        Ok::<(), String>(())
    });
    filled.expect("the fill succeeds")
}

fn arb_msg() -> impl Strategy<Value = MsgBytes> {
    prop::array::uniform32(any::<u8>())
}

fn arb_status() -> impl Strategy<Value = TransferStatus> {
    prop_oneof![
        Just(TransferStatus::Complete),
        Just(TransferStatus::Partial),
        Just(TransferStatus::AccessViolation),
        Just(TransferStatus::Unknown),
    ]
}

/// Data as the kernel carries it: none, a short prefix, a page or a
/// chunk of any length up to twice the kernel's.
fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(any::<u8>(), 1..40),
        prop::collection::vec(any::<u8>(), 0..1100),
    ]
}

/// A body of any of the eleven kinds.
fn arb_body() -> impl Strategy<Value = PacketBody> {
    prop_oneof![
        (arb_msg(), arb_data(), any::<u32>()).prop_map(|(msg, appended, appended_from)| {
            PacketBody::Send(SendBody {
                msg,
                appended,
                appended_from,
            })
        }),
        (arb_msg(), any::<u32>(), arb_data()).prop_map(|(msg, seg_dest, seg)| {
            PacketBody::Reply(ReplyBody { msg, seg_dest, seg })
        }),
        Just(PacketBody::ReplyPending),
        Just(PacketBody::Nack),
        (
            (any::<u32>(), any::<u32>(), any::<u32>()),
            any::<bool>(),
            arb_data()
        )
            .prop_map(|((dest, offset, total), last, data)| {
                PacketBody::MoveToData(MoveToData {
                    dest,
                    offset,
                    total,
                    last,
                    data,
                })
            }),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(src, offset, total)| {
            PacketBody::MoveFromReq(MoveFromReq { src, offset, total })
        }),
        (any::<u32>(), any::<u32>(), any::<bool>(), arb_data()).prop_map(
            |(offset, total, last, data)| {
                PacketBody::MoveFromData(MoveFromData {
                    offset,
                    total,
                    last,
                    data,
                })
            }
        ),
        (any::<u32>(), arb_status()).prop_map(|(received, status)| PacketBody::TransferAck(
            TransferAck { received, status }
        )),
        any::<u32>().prop_map(|logical_id| PacketBody::GetPidReq(GetPidReq { logical_id })),
        (any::<u32>(), any::<u32>())
            .prop_map(|(logical_id, pid)| PacketBody::GetPidReply(GetPidReply { logical_id, pid })),
        (
            (any::<u32>(), any::<u32>()),
            arb_msg(),
            arb_data(),
            any::<u32>()
        )
            .prop_map(|((client, new_server), msg, appended, appended_from)| {
                PacketBody::Forward(ForwardBody {
                    client,
                    new_server,
                    msg,
                    appended,
                    appended_from,
                })
            }),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (any::<u32>(), any::<u32>(), any::<u32>(), arb_body()).prop_map(
        |(seq, src_pid, dst_pid, body)| Packet {
            seq,
            src_pid,
            dst_pid,
            body,
        },
    )
}

proptest! {
    /// The owned wrapper, and the core with the data through its fill —
    /// given a head without the data or one still holding it, whose data
    /// fields it does not read — write the reference's very bytes.
    #[test]
    fn encode_with_and_encode_write_the_reference_bytes(p in arb_packet()) {
        let reference = reference_encode(&p);
        prop_assert_eq!(&encode(&p)[..], &reference[..]);
        let (head, data) = split(&p);
        prop_assert_eq!(&encode_filled(&head, &data)[..], &reference[..]);
        prop_assert_eq!(&encode_filled(&p, &data)[..], &reference[..]);
    }

    /// A fill that fails — having written some of the data or none —
    /// ends the encode with its own error.
    #[test]
    fn a_failing_fill_returns_its_error(
        p in arb_packet(),
        written in any::<usize>(),
        code in any::<u32>(),
    ) {
        let (head, data) = split(&p);
        let failed = encode_with(&head, data.len(), |buf| {
            let n = written % (buf.len() + 1);
            buf[..n].copy_from_slice(&data[..n]);
            Err(code)
        });
        prop_assert_eq!(failed, Err(code));
    }

    /// What `decode_ref` returns is `decode`'s packet taken apart: the
    /// header fields and body without the data, and the data as a slice
    /// of the packet itself — its last bytes, not a copy of them.
    #[test]
    fn decode_ref_lends_what_decode_owns(p in arb_packet()) {
        let bytes = encode(&p);
        let owned = decode(&bytes).expect("an encoded packet decodes");
        prop_assert_eq!(&owned, &p);
        let (head, data) = decode_ref(&bytes).expect("an encoded packet decodes");
        let (owned_head, owned_data) = split(&owned);
        prop_assert_eq!(head, owned_head);
        prop_assert_eq!(data, &owned_data[..]);
        let tail = &bytes[bytes.len() - data.len()..];
        prop_assert!(std::ptr::eq(data, tail), "the data is lent from the packet");
    }
}

fn packet(body: PacketBody) -> Packet {
    Packet {
        seq: 0x0102_0304,
        src_pid: 0x0001_0002,
        dst_pid: 0x0002_0003,
        body,
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + 3) as u8).collect()
}

#[test]
fn every_single_byte_corruption_is_rejected_by_both_decoders_alike() {
    let msg: MsgBytes = core::array::from_fn(|i| 0xA0 ^ i as u8);
    let shapes = [
        // A 32-byte message exchange's 64-byte datagram.
        packet(PacketBody::Send(SendBody {
            msg,
            appended: Vec::new(),
            appended_from: 0,
        })),
        // A page read's 576-byte reply.
        packet(PacketBody::Reply(ReplyBody {
            msg,
            seg_dest: 0x2000,
            seg: pattern(512),
        })),
        // A 1 KB chunk of a bulk transfer.
        packet(PacketBody::MoveToData(MoveToData {
            dest: 0x4000,
            offset: 1024,
            total: 16 * 1024,
            last: false,
            data: pattern(1024),
        })),
    ];
    let mut corruptions = 0;
    for p in &shapes {
        let bytes = encode(p);
        let mut bad = bytes.to_vec();
        for at in 0..bytes.len() {
            for flip in 1..=255u8 {
                bad[at] ^= flip;
                let owned = decode(&bad).expect_err("a corruption is rejected");
                let lent = decode_ref(&bad).expect_err("a corruption is rejected");
                assert_eq!(owned, lent, "byte {at} ^ {flip:#04x} of {:?}", p.kind());
                bad[at] ^= flip;
                corruptions += 1;
            }
        }
    }
    assert_eq!(corruptions, (64 + 576 + HEADER_LEN + 1024) * 255);
}
