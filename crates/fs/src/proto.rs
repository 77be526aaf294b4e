//! The Verex-style I/O protocol, packed into 32-byte V messages.
//!
//! "V file access is implemented using an I/O protocol developed for
//! Verex. To read a page or block of a file, a client sends a message to
//! the file server process specifying the file, block number, byte count
//! and the address of the buffer into which the data is to be returned."
//!
//! File *names* (for open/create) travel as read-granted segments on the
//! request — the paper notes the segment mechanism "has proven useful
//! under more general circumstances, e.g. in passing character string
//! names to name servers".
//!
//! Message layout (byte 0 is reserved for the kernel's segment flag
//! bits; bytes 24–31 for the segment spec):
//!
//! ```text
//! byte  1     op / status
//! bytes 2-3   file id
//! bytes 4-7   block number (requests) / value (replies)
//! bytes 8-11  byte count
//! bytes 12-15 client buffer address (requests) / replier's service pid (replies)
//! bytes 16-19 aux (create size; read-large transfer hint)
//! bytes 20-21 tag (echoed in replies)
//! ```

use v_kernel::{Access, Message};

use crate::store::FileId;

/// File operation opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum IoOp {
    /// Look up a file by name (name in the request's segment).
    Open = 1,
    /// Create a file (name in the segment, size in aux).
    Create = 2,
    /// Read one block (page): answered with `ReplyWithSegment`.
    Read = 3,
    /// Write one block: data arrives appended to the request.
    Write = 4,
    /// Query file length.
    Query = 5,
    /// Large read: the server pushes the range with `MoveTo`s.
    ReadLarge = 6,
    /// Read one block through the client cache: served like [`Read`]
    /// but registers the client's cache agent (request `aux` = agent
    /// pid) as a holder of the file. The reply's `aux` carries the
    /// cacheability grant (see [`IoReply::aux`]).
    ///
    /// [`Read`]: IoOp::Read
    ReadCached = 7,
    /// Server → cache-agent invalidation callback: drop every cached
    /// block of `file`. Answered with a plain `Ok` reply.
    Invalidate = 8,
    /// Rebalancer → owning server: freeze writes to `file` (drain) so
    /// its blocks can be copied out. The reply carries the file length
    /// in `value`, the name length in `aux`, and deposits the name into
    /// the requester's write-granted buffer — everything the
    /// destination needs to adopt the file.
    MigrateBegin = 9,
    /// Rebalancer → destination migration agent: pull `file` (length in
    /// `count`) from the old owner (`aux` = its raw service pid, name
    /// appended as a read-granted segment) block by block with ordinary
    /// reads. Answered once the copy is complete.
    MigratePull = 10,
    /// Rebalancer → old owner: the copy is complete — drop the file and
    /// forward every later request for it to the new owner (`aux` = the
    /// new service's raw pid).
    MigrateCommit = 11,
    /// Rebalancer → old owner: the copy failed — unfreeze writes, keep
    /// serving the file.
    MigrateAbort = 12,
}

impl IoOp {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<IoOp> {
        Some(match b {
            1 => IoOp::Open,
            2 => IoOp::Create,
            3 => IoOp::Read,
            4 => IoOp::Write,
            5 => IoOp::Query,
            6 => IoOp::ReadLarge,
            7 => IoOp::ReadCached,
            8 => IoOp::Invalidate,
            9 => IoOp::MigrateBegin,
            10 => IoOp::MigratePull,
            11 => IoOp::MigrateCommit,
            12 => IoOp::MigrateAbort,
            _ => return None,
        })
    }
}

/// Reply status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum IoStatus {
    /// Success.
    Ok = 0,
    /// No such file.
    NotFound = 1,
    /// Name already exists.
    Exists = 2,
    /// Block out of range.
    BadBlock = 3,
    /// Transfer or protocol failure.
    Error = 4,
    /// The server is a read-only replica; mutating ops are refused.
    ReadOnly = 5,
    /// The file is draining for migration: the write is refused without
    /// side effects and the client should back off briefly and retry —
    /// the team keeps serving everything else meanwhile.
    RetryAfter = 6,
}

impl IoStatus {
    /// Decodes a status byte.
    pub fn from_u8(b: u8) -> IoStatus {
        match b {
            0 => IoStatus::Ok,
            1 => IoStatus::NotFound,
            2 => IoStatus::Exists,
            3 => IoStatus::BadBlock,
            5 => IoStatus::ReadOnly,
            6 => IoStatus::RetryAfter,
            _ => IoStatus::Error,
        }
    }
}

/// A decoded I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Operation.
    pub op: IoOp,
    /// Target file (ignored by open/create).
    pub file: FileId,
    /// Block number.
    pub block: u32,
    /// Byte count.
    pub count: u32,
    /// Client buffer address (for reads).
    pub buffer: u32,
    /// Auxiliary word (create size).
    pub aux: u32,
    /// Client-chosen tag echoed in the reply.
    pub tag: u16,
}

impl IoRequest {
    /// A request with every operand zeroed — the base the stub routines
    /// fill in with struct-update syntax.
    pub fn new(op: IoOp, file: FileId, tag: u16) -> IoRequest {
        IoRequest {
            op,
            file,
            block: 0,
            count: 0,
            buffer: 0,
            aux: 0,
            tag,
        }
    }

    /// Encodes with a segment grant: reads grant write access on the
    /// buffer, writes/opens grant read access on the data/name.
    pub fn encode_granting(&self, addr: u32, len: u32, access: Access) -> Message {
        let mut m = self.encode();
        m.set_segment(addr, len, access);
        m
    }

    /// Encodes into a message (segment bits are the caller's business —
    /// reads grant write access on the buffer, writes/opens grant read
    /// access on the data/name).
    pub fn encode(&self) -> Message {
        let mut m = Message::empty();
        m.set_byte(1, self.op as u8);
        m.set_u16(2, self.file.0);
        m.set_u32(4, self.block);
        m.set_u32(8, self.count);
        m.set_u32(12, self.buffer);
        m.set_u32(16, self.aux);
        m.set_u16(20, self.tag);
        m
    }

    /// Decodes from a message; `None` for unknown opcodes.
    pub fn decode(m: &Message) -> Option<IoRequest> {
        Some(IoRequest {
            op: IoOp::from_u8(m.byte(1))?,
            file: FileId(m.get_u16(2)),
            block: m.get_u32(4),
            count: m.get_u32(8),
            buffer: m.get_u32(12),
            aux: m.get_u32(16),
            tag: IoRequest::tag_of(m),
        })
    }

    /// The tag of a request message, read even when the rest does not
    /// decode: what a receiver echoes in the error reply to a request it
    /// cannot serve.
    pub fn tag_of(m: &Message) -> u16 {
        m.get_u16(20)
    }
}

/// Reply `aux` grant on a [`IoOp::ReadCached`]: the client must not
/// cache the block (a write is pending on the file, or the server runs
/// with caching off).
pub const CACHE_DENY: u32 = 0;
/// Reply `aux` grant on a [`IoOp::ReadCached`]: cache the block until
/// an [`IoOp::Invalidate`] callback arrives (write-invalidate mode).
/// Any other nonzero value is a lease duration in microseconds.
pub const CACHE_UNTIL_INVALIDATED: u32 = u32::MAX;

/// A decoded I/O reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoReply {
    /// Outcome.
    pub status: IoStatus,
    /// File id (open/create).
    pub file: FileId,
    /// Operation-dependent value (bytes read/written, file length).
    pub value: u32,
    /// Cacheability grant on `ReadCached` replies: [`CACHE_DENY`],
    /// [`CACHE_UNTIL_INVALIDATED`], or a lease in microseconds. On
    /// `MigrateBegin` replies, the deposited name's length. Zero on
    /// every other reply (bytes 8–11 are free in the reply layout).
    pub aux: u32,
    /// Raw pid of the *service* that actually produced this reply (the
    /// receptionist for a team, the server itself when sequential) — 0
    /// when unknown. A client whose request was forwarded because the
    /// file migrated sees an owner different from the pid it targeted
    /// and corrects its owner cache on the spot.
    pub owner: u32,
    /// Echo of the request tag.
    pub tag: u16,
}

impl IoReply {
    /// The reply to a request its receiver cannot serve (an opcode it
    /// does not decode, or one it does not take): [`IoStatus::Error`],
    /// echoing the request's tag so the sender can match it.
    pub(crate) fn refusal(req: &Message) -> IoReply {
        IoReply {
            status: IoStatus::Error,
            file: FileId(0),
            value: 0,
            aux: 0,
            owner: 0,
            tag: IoRequest::tag_of(req),
        }
    }

    /// Encodes into a message.
    pub fn encode(&self) -> Message {
        let mut m = Message::empty();
        m.set_byte(1, self.status as u8);
        m.set_u16(2, self.file.0);
        m.set_u32(4, self.value);
        m.set_u32(8, self.aux);
        m.set_u32(12, self.owner);
        m.set_u16(20, self.tag);
        m
    }

    /// Decodes from a message.
    pub fn decode(m: &Message) -> IoReply {
        IoReply {
            status: IoStatus::from_u8(m.byte(1)),
            file: FileId(m.get_u16(2)),
            value: m.get_u32(4),
            aux: m.get_u32(8),
            owner: m.get_u32(12),
            tag: m.get_u16(20),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let r = IoRequest {
            op: IoOp::Read,
            file: FileId(7),
            block: 42,
            count: 512,
            buffer: 0x2000,
            aux: 9,
            tag: 0xABCD,
        };
        assert_eq!(IoRequest::decode(&r.encode()), Some(r));
    }

    #[test]
    fn reply_round_trip() {
        let r = IoReply {
            status: IoStatus::BadBlock,
            file: FileId(3),
            value: 65536,
            aux: 1_000_000,
            owner: 0x0003_0007,
            tag: 17,
        };
        assert_eq!(IoReply::decode(&r.encode()), r);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut m = Message::empty();
        m.set_byte(1, 99);
        assert_eq!(IoRequest::decode(&m), None);
    }

    #[test]
    fn segment_bits_do_not_clobber_fields() {
        use v_kernel::Access;
        let r = IoRequest {
            op: IoOp::Write,
            file: FileId(1),
            block: 2,
            count: 512,
            buffer: 0x3000,
            aux: 0,
            tag: 5,
        };
        let mut m = r.encode();
        m.set_segment(0x3000, 512, Access::Read);
        assert_eq!(IoRequest::decode(&m), Some(r));
        assert!(m.segment().is_some());
    }

    #[test]
    fn all_opcodes_round_trip() {
        for op in [
            IoOp::Open,
            IoOp::Create,
            IoOp::Read,
            IoOp::Write,
            IoOp::Query,
            IoOp::ReadLarge,
            IoOp::ReadCached,
            IoOp::Invalidate,
            IoOp::MigrateBegin,
            IoOp::MigratePull,
            IoOp::MigrateCommit,
            IoOp::MigrateAbort,
        ] {
            assert_eq!(IoOp::from_u8(op as u8), Some(op));
        }
        assert_eq!(IoOp::from_u8(0), None);
        assert_eq!(
            IoStatus::from_u8(IoStatus::RetryAfter as u8),
            IoStatus::RetryAfter
        );
    }
}
