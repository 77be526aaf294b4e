//! What the packet checksum detects. The lane sum of `v_wire::codec` is
//! word-wide, so unlike a byte-serial hash it does not catch every
//! single-byte error by construction of its 32-bit state; these tests
//! show it on the packets the kernel actually sends, and probe the error
//! shapes a word-wide or lane-blind sum is known to miss.

use v_wire::{
    decode, encode, seal, ForwardBody, GetPidReply, GetPidReq, MoveFromData, MoveFromReq,
    MoveToData, Packet, PacketBody, ReplyBody, SendBody, TransferAck, TransferStatus, WireError,
    HEADER_LEN, MSG_LEN,
};

/// The generator `v_net::fault::scramble` draws from, restated so this
/// crate keeps no dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Bytes with no two aligned 8-byte words equal, so every swap below
/// exchanges unequal data.
fn varied(len: usize) -> Vec<u8> {
    let mut rng = SplitMix64(len as u64);
    (0..len).map(|_| rng.next() as u8).collect()
}

fn packet(body: PacketBody) -> Packet {
    Packet {
        seq: 0x0102_0304,
        src_pid: 0x0001_0002,
        dst_pid: 0x0002_0003,
        body,
    }
}

fn msg() -> [u8; MSG_LEN] {
    core::array::from_fn(|i| 0xA0 ^ i as u8)
}

/// The 64-byte datagram of a 32-byte message exchange.
fn send_64() -> Packet {
    packet(PacketBody::Send(SendBody {
        msg: msg(),
        appended: Vec::new(),
        appended_from: 0,
    }))
}

/// The 576-byte datagram of a page read.
fn reply_576() -> Packet {
    packet(PacketBody::Reply(ReplyBody {
        msg: msg(),
        seg_dest: 0x2000,
        seg: varied(512),
    }))
}

fn move_to(data: Vec<u8>) -> Packet {
    packet(PacketBody::MoveToData(MoveToData {
        dest: 0x500,
        offset: 1024,
        total: 4096,
        last: true,
        data,
    }))
}

/// Every kind, and every residue of the payload length modulo the
/// 32-byte stripe that matters: empty, sub-word, word, stripe ± 1.
fn samples() -> Vec<Packet> {
    let mut all = vec![
        send_64(),
        reply_576(),
        packet(PacketBody::ReplyPending),
        packet(PacketBody::Nack),
        packet(PacketBody::MoveFromReq(MoveFromReq {
            src: 0x4000,
            offset: 512,
            total: 2048,
        })),
        packet(PacketBody::TransferAck(TransferAck {
            received: 4096,
            status: TransferStatus::Partial,
        })),
        packet(PacketBody::GetPidReq(GetPidReq { logical_id: 3 })),
        packet(PacketBody::GetPidReply(GetPidReply {
            logical_id: 3,
            pid: 0x0002_0001,
        })),
        packet(PacketBody::Forward(ForwardBody {
            client: 0x0001_0002,
            new_server: 0x0002_0009,
            msg: msg(),
            appended: varied(48),
            appended_from: 0x3000,
        })),
        packet(PacketBody::MoveFromData(MoveFromData {
            offset: 512,
            total: 2048,
            last: false,
            data: varied(100),
        })),
    ];
    for len in [0, 1, 7, 8, 9, 31, 32, 33, 63, 512, 1024] {
        all.push(move_to(varied(len)));
        all.push(packet(PacketBody::Send(SendBody {
            msg: msg(),
            appended: varied(len),
            appended_from: 0x1000,
        })));
    }
    all
}

#[test]
fn every_single_byte_corruption_is_rejected() {
    let mut decodes = 0u32;
    for p in [send_64(), reply_576()] {
        let mut bytes = encode(&p).to_vec();
        for at in 0..bytes.len() {
            for mask in 1..=u8::MAX {
                bytes[at] ^= mask;
                assert!(
                    decode(&bytes).is_err(),
                    "byte {at} ^ {mask:#04x} of a {}-byte packet went undetected",
                    bytes.len()
                );
                bytes[at] ^= mask;
                decodes += 1;
            }
        }
    }
    assert_eq!(decodes, (64 + 576) * 255);
}

#[test]
fn scramble_shaped_corruption_is_rejected_whenever_bytes_changed() {
    let originals: Vec<Vec<u8>> = [send_64(), reply_576(), move_to(varied(1024))]
        .iter()
        .map(|p| encode(p).to_vec())
        .collect();
    let mut rng = SplitMix64(1983);
    let mut unchanged = 0u32;
    for round in 0..200_000 {
        let original = &originals[round % originals.len()];
        let mut bytes = original.clone();
        // `v_net::fault::scramble`: one to four XORs, positions free to
        // coincide (and so to cancel).
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= (1 + rng.below(255)) as u8;
        }
        if bytes == *original {
            unchanged += 1;
            assert!(decode(&bytes).is_ok());
        } else {
            assert!(
                decode(&bytes).is_err(),
                "round {round}: a changed {}-byte packet decoded",
                bytes.len()
            );
        }
    }
    assert!(unchanged < 200, "cancelling hits are rare, saw {unchanged}");
}

/// Swaps every pair of `unit`-byte aligned blocks of `bytes`; the checksum
/// alone must refuse a swap that stays inside the payload.
fn assert_swaps_rejected(bytes: &[u8], unit: usize) {
    let blocks = bytes.len() / unit;
    for i in 0..blocks {
        for j in i + 1..blocks {
            let (a, b) = (i * unit, j * unit);
            if bytes[a..a + unit] == bytes[b..b + unit] {
                continue;
            }
            let mut bad = bytes.to_vec();
            let (head, tail) = bad.split_at_mut(b);
            head[a..a + unit].swap_with_slice(&mut tail[..unit]);
            let got = decode(&bad);
            if a >= HEADER_LEN {
                assert_eq!(
                    got,
                    Err(WireError::BadChecksum),
                    "{unit}-byte blocks {i} and {j} swapped"
                );
            } else {
                assert!(got.is_err(), "{unit}-byte blocks {i} and {j} swapped");
            }
        }
    }
}

#[test]
fn swapped_words_and_swapped_stripes_are_rejected() {
    // What a plain sum misses (any reordering) and what a lane-blind one
    // misses (words exchanged between lanes, whole stripes exchanged).
    let bytes = encode(&reply_576());
    assert_swaps_rejected(&bytes, 8);
    assert_swaps_rejected(&bytes, 32);
}

#[test]
fn trailing_zeros_appended_or_cut_are_rejected_even_with_the_length_repaired() {
    // Zero padding leaves the last stripe as it was; only the length can
    // tell these packets apart. MoveToData takes any payload length, so
    // nothing but the checksum stands between them and acceptance.
    for data_len in [0usize, 5, 24, 32, 40] {
        let mut data = varied(data_len);
        data.extend([0u8; 40]);
        let bytes = encode(&move_to(data)).to_vec();
        let payload_len = bytes.len() - HEADER_LEN;
        for delta in (-40i64..=40).filter(|d| *d != 0) {
            let new_len = (payload_len as i64 + delta) as usize;
            let mut bad = bytes.clone();
            bad.resize(HEADER_LEN + new_len, 0);
            bad[2..4].copy_from_slice(&(new_len as u16).to_le_bytes());
            assert_eq!(
                decode(&bad),
                Err(WireError::BadChecksum),
                "{data_len}+40 zero bytes, {delta:+} trailing zeros"
            );
        }
    }
}

#[test]
fn the_sum_is_of_the_bytes_not_of_how_they_were_sliced() {
    for p in samples() {
        let bytes = encode(&p);
        // `encode` sums a buffer whose field is still zero; `decode` one
        // whose field is set; a forger whatever was there. All agree.
        for junk in [0u32, 0xFFFF_FFFF, 0x1234_5678] {
            let mut resealed = bytes.to_vec();
            resealed[28..32].copy_from_slice(&junk.to_le_bytes());
            seal(&mut resealed);
            assert_eq!(resealed[..], bytes[..], "{p:?}");
        }
        let q = decode(&bytes).unwrap_or_else(|e| panic!("{e} for {p:?}"));
        assert_eq!(q, p);
        assert_eq!(encode(&q)[..], bytes[..], "re-encoding {p:?}");
    }
}

#[test]
#[should_panic(expected = "16-bit length field")]
fn a_payload_the_length_field_cannot_hold_is_refused_not_wrapped() {
    // 65,504 + 32 = 65,536 wraps to a claimed length of 0.
    let _ = encode(&packet(PacketBody::Send(SendBody {
        msg: msg(),
        appended: vec![0; usize::from(u16::MAX) - MSG_LEN + 1],
        appended_from: 0,
    })));
}
