//! Per-station network interface state.

use v_sim::SimTime;

use crate::frame::MacAddr;

/// A station's network interface.
///
/// The paper's interfaces are programmed-I/O: the processor copies each
/// outgoing frame into the interface and each incoming frame out of it.
/// The transmit side is **single-buffered** — the next copy-in cannot
/// begin until the previous frame has finished transmitting. (The receive
/// side has "considerable on-board buffering", so we do not model receive
/// overruns.)
///
/// Copy costs are CPU-speed dependent and are charged by the kernel's cost
/// model; the NIC only tracks *when the transmit buffer frees up*.
#[derive(Debug, Clone)]
pub struct Nic {
    mac: MacAddr,
    /// Instant the transmit buffer becomes free (end of last transmission).
    tx_free: SimTime,
}

impl Nic {
    /// Creates an interface for station `mac`.
    pub fn new(mac: MacAddr) -> Self {
        Nic {
            mac,
            tx_free: SimTime::ZERO,
        }
    }

    /// This station's address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Earliest instant a new copy-in may begin.
    pub fn tx_ready_after(&self, now: SimTime) -> SimTime {
        now.max(self.tx_free)
    }

    /// Records a transmission occupying the buffer until `tx_end`.
    pub fn note_tx(&mut self, tx_end: SimTime) {
        debug_assert!(tx_end >= self.tx_free);
        self.tx_free = tx_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v_sim::SimDuration;

    #[test]
    fn tx_buffer_serializes() {
        let mut nic = Nic::new(MacAddr(1));
        let now = SimTime::from_millis(1);
        assert_eq!(nic.tx_ready_after(now), now);
        nic.note_tx(SimTime::from_millis(3));
        // A copy requested at t=2 must wait for the buffer.
        assert_eq!(
            nic.tx_ready_after(SimTime::from_millis(2)),
            SimTime::from_millis(3)
        );
        // A copy requested later starts immediately.
        let later = SimTime::from_millis(3) + SimDuration::from_micros(1);
        assert_eq!(nic.tx_ready_after(later), later);
    }
}
