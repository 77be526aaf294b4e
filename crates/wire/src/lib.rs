//! The interkernel wire protocol.
//!
//! V kernels exchange *interkernel packets* at the raw data-link level —
//! no transport layer underneath (§3 of the paper: "Interkernel packets
//! use the 'raw' Ethernet data link level"; reliability comes from the
//! Send/Reply exchange itself). This crate defines the packet vocabulary
//! and a hand-rolled binary codec:
//!
//! * a fixed [`HEADER_LEN`]-byte header (kind, flags, sequence number,
//!   source/destination pids, three kind-specific words, checksum), so a
//!   32-byte message rides in a 64-byte datagram exactly as the paper's
//!   packet accounting assumes;
//! * typed per-kind bodies ([`PacketBody`], one struct per kind): message
//!   exchange (`Send`, `Reply`, `ReplyPending`, `Nack`, `Forward`), bulk
//!   transfer (`MoveToData`, `MoveFromReq`, `MoveFromData`, `TransferAck`)
//!   and naming (`GetPidReq`, `GetPidReply`) — decoded exactly once, so
//!   kernel handlers consume structs rather than loose header words;
//! * one shared, immutable buffer per encoded packet ([`WireBytes`]):
//!   retransmission caches and every receiver hold the same bytes;
//! * one encoder, which has the caller write a packet's data in place
//!   ([`encode_with`]), and one decoder, which lends the data out as a
//!   slice of the packet ([`decode_ref`]); the owned [`encode`] and
//!   [`decode`] wrap them;
//! * a 32-bit checksum over the whole packet — a four-lane, word-wide
//!   multiplicative sum (see [`codec`]) that every decode verifies —
//!   which is how receivers detect the corruption injected by the
//!   simulated medium (including the §5.4 collision-bug corruptions): a
//!   corruption inside one 64-bit word always changes the sum's 64-bit
//!   state, reordered words and stripes and a changed length are caught,
//!   and what is left is the 2⁻³² of keeping 32 bits. [`seal`] writes it
//!   into a hand-built packet.

pub mod codec;
pub mod packet;

pub use codec::{decode, decode_ref, encode, encode_with, seal, WireBytes, WireError};
pub use packet::{
    ForwardBody, GetPidReply, GetPidReq, MoveFromData, MoveFromReq, MoveToData, MsgBytes, Packet,
    PacketBody, PacketKind, ReplyBody, SendBody, TransferAck, TransferStatus, HEADER_LEN, MSG_LEN,
};
