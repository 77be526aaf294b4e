//! Logical host → network address mapping.
//!
//! §3.1 of the paper describes two schemes:
//!
//! * **3 Mb Ethernet**: the top 8 bits of the logical host identifier
//!   *are* the physical network address — the mapping is computed, never
//!   stored ([`AddressingMode::Direct`]).
//! * **10 Mb Ethernet**: a table maps logical hosts to network addresses;
//!   when there is no entry the packet is **broadcast**, and new
//!   correspondences are **learned from received packets**
//!   ([`AddressingMode::Learned`]).

use v_net::MacAddr;

use crate::pid::LogicalHost;

/// Which pid → network address scheme the cluster uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressingMode {
    /// 3 Mb convention: station address embedded in the logical host id.
    Direct,
    /// 10 Mb convention: learned table, broadcast on miss.
    Learned,
}

/// One kernel's view of the logical-host → station mapping.
///
/// The learned table is a flat vector indexed by the logical host id,
/// storing `station + 1` so zero means "no entry" — resolution on the
/// per-packet fast path is one bounds-checked load, no hashing.
#[derive(Debug)]
pub struct HostMap {
    mode: AddressingMode,
    table: Vec<u32>,
}

impl HostMap {
    /// Creates a map for the given mode.
    pub fn new(mode: AddressingMode) -> HostMap {
        HostMap {
            mode,
            table: Vec::new(),
        }
    }

    /// The addressing mode.
    pub fn mode(&self) -> AddressingMode {
        self.mode
    }

    /// Resolves a logical host to a station address; `None` means the
    /// caller must fall back to broadcast.
    pub fn resolve(&self, host: LogicalHost) -> Option<MacAddr> {
        match self.mode {
            AddressingMode::Direct => Some(MacAddr(host.station())),
            AddressingMode::Learned => match self.table.get(host.0 as usize) {
                Some(&slot) if slot != 0 => Some(MacAddr((slot - 1) as u16)),
                _ => None,
            },
        }
    }

    /// Learns a correspondence from a received packet's source fields.
    /// No-op in `Direct` mode (nothing to learn).
    pub fn learn(&mut self, host: LogicalHost, mac: MacAddr) {
        if self.mode == AddressingMode::Learned {
            let i = host.0 as usize;
            if self.table.len() <= i {
                self.table.resize(i + 1, 0);
            }
            self.table[i] = u32::from(mac.0) + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mode_computes_mapping() {
        let m = HostMap::new(AddressingMode::Direct);
        let h = LogicalHost::from_station(0x2A);
        assert_eq!(m.resolve(h), Some(MacAddr(0x2A)));
    }

    #[test]
    fn learned_mode_misses_then_learns() {
        let mut m = HostMap::new(AddressingMode::Learned);
        let h = LogicalHost(0x8001);
        assert_eq!(m.resolve(h), None);
        m.learn(h, MacAddr(5));
        assert_eq!(m.resolve(h), Some(MacAddr(5)));
        // Re-learning the same mapping keeps it.
        m.learn(h, MacAddr(5));
        assert_eq!(m.resolve(h), Some(MacAddr(5)));
        // An updated mapping replaces it; other hosts stay unknown.
        m.learn(h, MacAddr(6));
        assert_eq!(m.resolve(h), Some(MacAddr(6)));
        assert_eq!(m.resolve(LogicalHost(0x8000)), None);
    }

    #[test]
    fn direct_mode_ignores_learning() {
        let mut m = HostMap::new(AddressingMode::Direct);
        m.learn(LogicalHost(0x0100), MacAddr(9));
        // Resolution still follows the convention, not the table.
        assert_eq!(m.resolve(LogicalHost(0x0100)), Some(MacAddr(1)));
    }
}
