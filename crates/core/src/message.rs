//! The 32-byte V message and its conventions.
//!
//! "Communication between processes is provided in the form of short
//! fixed-length messages ... all messages are a fixed 32 bytes in length"
//! (§2). The kernel message format conventions (§2.1) reserve:
//!
//! * flag bits at the *beginning* of the message (byte 0 here) indicating
//!   whether a segment is specified and its access permissions;
//! * the *last two words* (bytes 24–31) for the segment start address and
//!   length.
//!
//! Bytes 1–23 are free for the application protocol; accessor helpers
//! read/write little-endian words there. System protocols such as the
//! Verex I/O protocol in `v-fs` build on these helpers.

use crate::segment::{Access, SegmentGrant};

/// Length of every V message in bytes.
pub const MSG_LEN: usize = 32;

/// Flag bit: a segment is specified with read access.
const FLAG_SEG_READ: u8 = 0x01;
/// Flag bit: a segment is specified with write access.
const FLAG_SEG_WRITE: u8 = 0x02;

/// Offset of the segment start address word.
const SEG_START_OFF: usize = 24;
/// Offset of the segment length word.
const SEG_LEN_OFF: usize = 28;

/// A fixed 32-byte message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message([u8; MSG_LEN]);

impl Message {
    /// The all-zero message.
    pub fn empty() -> Message {
        Message([0; MSG_LEN])
    }

    /// Builds a message from raw bytes.
    pub fn from_bytes(bytes: [u8; MSG_LEN]) -> Message {
        Message(bytes)
    }

    /// Raw bytes of the message.
    pub fn as_bytes(&self) -> &[u8; MSG_LEN] {
        &self.0
    }

    /// Reads byte `i`.
    pub fn byte(&self, i: usize) -> u8 {
        self.0[i]
    }

    /// Writes byte `i`.
    pub fn set_byte(&mut self, i: usize, v: u8) {
        self.0[i] = v;
    }

    /// Reads the little-endian u32 at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + 4 > 32`.
    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes([
            self.0[off],
            self.0[off + 1],
            self.0[off + 2],
            self.0[off + 3],
        ])
    }

    /// Writes a little-endian u32 at byte offset `off`.
    pub fn set_u32(&mut self, off: usize, v: u32) {
        self.0[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads the little-endian u16 at byte offset `off`.
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.0[off], self.0[off + 1]])
    }

    /// Writes a little-endian u16 at byte offset `off`.
    pub fn set_u16(&mut self, off: usize, v: u16) {
        self.0[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Specifies a segment per the message conventions: flag bits at the
    /// beginning, start address and length in the last two words.
    pub fn set_segment(&mut self, start: u32, len: u32, access: Access) {
        let mut flags = self.0[0] & !(FLAG_SEG_READ | FLAG_SEG_WRITE);
        if access.allows_read() {
            flags |= FLAG_SEG_READ;
        }
        if access.allows_write() {
            flags |= FLAG_SEG_WRITE;
        }
        self.0[0] = flags;
        self.set_u32(SEG_START_OFF, start);
        self.set_u32(SEG_LEN_OFF, len);
    }

    /// Decodes the segment specification, if any.
    ///
    /// This is how *both* kernels learn what access a sender granted: the
    /// message itself travels in the Send packet, so the receiving kernel
    /// can validate `MoveTo`/`MoveFrom` requests against the very same
    /// words the sending kernel saw. (This is why the paper made segment
    /// specification explicit rather than a Thoth library convention.)
    pub fn segment(&self) -> Option<SegmentGrant> {
        let flags = self.0[0];
        let access = match (flags & FLAG_SEG_READ != 0, flags & FLAG_SEG_WRITE != 0) {
            (false, false) => return None,
            (true, false) => Access::Read,
            (false, true) => Access::Write,
            (true, true) => Access::ReadWrite,
        };
        Some(SegmentGrant {
            start: self.get_u32(SEG_START_OFF),
            len: self.get_u32(SEG_LEN_OFF),
            access,
        })
    }
}

impl Default for Message {
    fn default() -> Self {
        Message::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_message_has_no_segment() {
        assert_eq!(Message::empty().segment(), None);
    }

    #[test]
    fn segment_round_trip() {
        let mut m = Message::empty();
        m.set_segment(0x1000, 512, Access::Read);
        let g = m.segment().unwrap();
        assert_eq!(g.start, 0x1000);
        assert_eq!(g.len, 512);
        assert_eq!(g.access, Access::Read);

        m.set_segment(0x2000, 64, Access::Write);
        assert_eq!(m.segment().unwrap().access, Access::Write);

        m.set_segment(0, 1, Access::ReadWrite);
        assert_eq!(m.segment().unwrap().access, Access::ReadWrite);
    }

    #[test]
    fn segment_words_live_in_last_two_words() {
        let mut m = Message::empty();
        m.set_segment(0xAABBCCDD, 0x11223344, Access::Read);
        assert_eq!(m.get_u32(24), 0xAABBCCDD);
        assert_eq!(m.get_u32(28), 0x11223344);
    }

    #[test]
    fn user_words_survive_segment_ops() {
        let mut m = Message::empty();
        m.set_u32(4, 0xDEAD_BEEF);
        m.set_u16(8, 0x1234);
        m.set_byte(10, 0xAB);
        m.set_segment(1, 2, Access::Read);
        assert_eq!(m.get_u32(4), 0xDEAD_BEEF);
        assert_eq!(m.get_u16(8), 0x1234);
        assert_eq!(m.byte(10), 0xAB);
    }

    #[test]
    fn word_accessors_round_trip() {
        let mut m = Message::empty();
        for (i, off) in (4..24).step_by(4).enumerate() {
            m.set_u32(off, i as u32 * 0x0101_0101);
        }
        for (i, off) in (4..24).step_by(4).enumerate() {
            assert_eq!(m.get_u32(off), i as u32 * 0x0101_0101);
        }
    }

    #[test]
    fn from_bytes_round_trip() {
        let bytes: [u8; MSG_LEN] = core::array::from_fn(|i| i as u8);
        let m = Message::from_bytes(bytes);
        assert_eq!(*m.as_bytes(), bytes);
    }
}
