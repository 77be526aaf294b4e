//! Property tests: every encodable packet decodes back to itself, and no
//! single-byte corruption ever decodes successfully to a *different*
//! packet (checksum soundness).

use proptest::prelude::*;
use v_wire::{decode, encode, Packet, TransferStatus, MSG_LEN};

fn arb_msg() -> impl Strategy<Value = [u8; MSG_LEN]> {
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

fn arb_body() -> impl Strategy<Value = v_wire::PacketBody> {
    use v_wire::{
        GetPidReply, GetPidReq, MoveFromData, MoveFromReq, MoveToData, PacketBody, ReplyBody,
        SendBody, TransferAck,
    };
    prop_oneof![
        (
            arb_msg(),
            prop::collection::vec(any::<u8>(), 0..600),
            any::<u32>()
        )
            .prop_map(|(msg, appended, appended_from)| PacketBody::Send(SendBody {
                msg,
                appended,
                appended_from,
            })),
        (
            arb_msg(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..600)
        )
            .prop_map(|(msg, seg_dest, seg)| PacketBody::Reply(ReplyBody {
                msg,
                seg_dest,
                seg
            })),
        Just(PacketBody::ReplyPending),
        Just(PacketBody::Nack),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..1100)
        )
            .prop_map(|(dest, offset, total, last, data)| PacketBody::MoveToData(
                MoveToData {
                    dest,
                    offset,
                    total,
                    last,
                    data,
                }
            )),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(src, offset, total)| {
            PacketBody::MoveFromReq(MoveFromReq { src, offset, total })
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..1100)
        )
            .prop_map(|(offset, total, last, data)| PacketBody::MoveFromData(
                MoveFromData {
                    offset,
                    total,
                    last,
                    data,
                }
            )),
        (any::<u32>(), arb_status()).prop_map(|(received, status)| PacketBody::TransferAck(
            TransferAck { received, status }
        )),
        any::<u32>().prop_map(|logical_id| PacketBody::GetPidReq(GetPidReq { logical_id })),
        (any::<u32>(), any::<u32>())
            .prop_map(|(logical_id, pid)| PacketBody::GetPidReply(GetPidReply { logical_id, pid })),
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
    #[test]
    fn encode_decode_round_trip(p in arb_packet()) {
        let bytes = encode(&p);
        prop_assert_eq!(bytes.len(), p.wire_len());
        let q = decode(&bytes).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn single_byte_corruption_never_yields_a_different_packet(
        p in arb_packet(),
        victim_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let bytes = encode(&p);
        let victim = (victim_seed % bytes.len() as u64) as usize;
        let mut bad = bytes.to_vec();
        bad[victim] ^= flip;
        match decode(&bad) {
            Err(_) => {}
            // The lane sum keeps 32 of its 64 state bits: a single-byte
            // flip always changes the 64 (see `codec`), so it passes with
            // odds of 2^-32, and `tests/detection.rs` shows none does on
            // the kernel's own packet sizes. If one ever does here, the
            // decoded packet must at least be identical (i.e. the flip
            // struck a redundant encoding) — anything else is a soundness
            // bug.
            Ok(q) => prop_assert_eq!(p, q),
        }
    }

    #[test]
    fn truncation_never_panics(p in arb_packet(), cut_seed in any::<u64>()) {
        let bytes = encode(&p);
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let _ = decode(&bytes[..cut]);
    }
}
