//! The per-host processor model.
//!
//! Each workstation has one processor. Kernel work (syscall execution,
//! packet building/parsing, data copies) *charges* time on it: a charge
//! requested at time `t` begins at `max(t, busy_until)` and occupies the
//! processor for its duration. Charges therefore serialize FIFO, which is
//! how a file server saturates under multi-client load (§5.4, §7).
//!
//! Busy-time accounting doubles as the paper's measurement methodology:
//! the authors ran a low-priority "busywork" process and derived processor
//! time per operation as elapsed time minus busywork progress. Here the
//! counterpart is exact: [`Cpu::busy_total`] is the processor time all
//! other work consumed, and [`Cpu::busywork_count`] converts idle time
//! into the counter value the paper's busywork process would have shown.

use v_sim::{SimDuration, SimTime};

/// Processor speed grades measured in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuSpeed {
    /// 8 MHz Motorola 68000 (Tables 4-1, 5-1, 6-3).
    Mc68000At8MHz,
    /// 10 MHz Motorola 68000 (Tables 4-1, 5-2, 6-1, 6-2).
    Mc68000At10MHz,
}

impl CpuSpeed {
    /// Number of speed grades: `grade as usize` indexes a table of this
    /// length.
    pub const GRADES: usize = 2;
}

/// A host processor.
#[derive(Debug, Clone)]
pub struct Cpu {
    speed: CpuSpeed,
    busy_until: SimTime,
    busy_total: SimDuration,
}

/// A reserved span of processor time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSpan {
    /// When the work begins executing.
    pub start: SimTime,
    /// When the work completes; effects become visible here.
    pub end: SimTime,
}

impl Cpu {
    /// Creates an idle processor.
    pub fn new(speed: CpuSpeed) -> Cpu {
        Cpu {
            speed,
            busy_until: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
        }
    }

    /// This processor's speed grade.
    pub fn speed(&self) -> CpuSpeed {
        self.speed
    }

    /// Reserves `cost` of processor time requested at `now`.
    ///
    /// Zero-cost charges return an empty span at the earliest available
    /// instant without touching the accounting.
    pub fn charge(&mut self, now: SimTime, cost: SimDuration) -> CpuSpan {
        let start = now.max(self.busy_until);
        let end = start + cost;
        self.busy_until = end;
        self.busy_total += cost;
        CpuSpan { start, end }
    }

    /// Earliest instant new work requested at `now` could begin.
    pub fn ready_at(&self, now: SimTime) -> SimTime {
        now.max(self.busy_until)
    }

    /// Instant the processor goes idle (given no further charges).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total processor time charged so far.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Idle time over `[0, now]`, i.e. what a low-priority busywork
    /// process would have received.
    pub fn idle_total(&self, now: SimTime) -> SimDuration {
        (now - SimTime::ZERO).saturating_sub(self.busy_total)
    }

    /// The counter value the paper's busywork process would show at
    /// `now`, given it performs one increment per `tick` of processor
    /// time.
    pub fn busywork_count(&self, now: SimTime, tick: SimDuration) -> u64 {
        if tick.is_zero() {
            return 0;
        }
        self.idle_total(now).as_nanos() / tick.as_nanos()
    }

    /// Processor utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.busy_total.as_secs_f64() / elapsed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_serialize_fifo() {
        let mut cpu = Cpu::new(CpuSpeed::Mc68000At8MHz);
        let a = cpu.charge(SimTime::from_millis(1), SimDuration::from_millis(2));
        assert_eq!(a.start, SimTime::from_millis(1));
        assert_eq!(a.end, SimTime::from_millis(3));
        // Requested during the first charge: starts after it.
        let b = cpu.charge(SimTime::from_millis(2), SimDuration::from_millis(1));
        assert_eq!(b.start, SimTime::from_millis(3));
        assert_eq!(b.end, SimTime::from_millis(4));
        // Requested after idle: starts immediately.
        let c = cpu.charge(SimTime::from_millis(10), SimDuration::from_millis(1));
        assert_eq!(c.start, SimTime::from_millis(10));
        assert_eq!(cpu.busy_total(), SimDuration::from_millis(4));
    }

    #[test]
    fn idle_and_utilization_accounting() {
        let mut cpu = Cpu::new(CpuSpeed::Mc68000At10MHz);
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(3));
        let now = SimTime::from_millis(10);
        assert_eq!(cpu.idle_total(now), SimDuration::from_millis(7));
        assert!((cpu.utilization(now) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn busywork_counts_idle_ticks() {
        let mut cpu = Cpu::new(CpuSpeed::Mc68000At8MHz);
        cpu.charge(SimTime::ZERO, SimDuration::from_millis(4));
        let count = cpu.busywork_count(SimTime::from_millis(10), SimDuration::from_micros(10));
        assert_eq!(count, 600);
        assert_eq!(
            cpu.busywork_count(SimTime::from_millis(10), SimDuration::ZERO),
            0
        );
    }

    #[test]
    fn zero_utilization_at_time_zero() {
        let cpu = Cpu::new(CpuSpeed::Mc68000At8MHz);
        assert_eq!(cpu.utilization(SimTime::ZERO), 0.0);
    }
}
