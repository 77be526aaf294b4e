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
//!
//! A [`ChargeLog`] holds charges made to many processors at once — the
//! receive processing a name query costs every workstation of a segment
//! it means nothing to — until each processor is next looked at.

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

    /// Every grade, in index order.
    pub const ALL: [CpuSpeed; CpuSpeed::GRADES] =
        [CpuSpeed::Mc68000At8MHz, CpuSpeed::Mc68000At10MHz];
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

/// Entries a [`ChargeLog`] holds before it is folded into the processors
/// that owe them: a bound on its memory, not a tuning knob (a fold costs
/// a catch-up per owing processor, amortised over this many entries).
const LOG_CAPACITY: usize = 512;

/// Charges owed by many processors at once, kept until each is next
/// looked at: one entry per name query a segment heard, `(instant, cost
/// per processor grade)`, owed by every processor the query meant nothing
/// to. A processor that owes entries holds a *cursor*: the first entry it
/// has not been charged.
///
/// [`Cpu::charge`] of `cᵢ` at `tᵢ` maps `busy_until` by
/// `b ↦ max(b, tᵢ) + cᵢ`, and such maps compose in closed form. With
/// `P(i)` the cost of the entries before `i` (per grade), charging entries
/// `c..n` in order leaves
///
/// ```text
/// busy_until = P(n) + max(b − P(c), max_{i ≥ c} (tᵢ − P(i)))
/// busy_total = busy_total + P(n) − P(c)
/// ```
///
/// — exactly what `n − c` calls of `charge` leave. The suffix maximum is
/// the key of the first *peak* at or after `c`: the peaks are the entries
/// whose key `tᵢ − P(i)` no later entry reaches, kept as a stack as
/// entries are pushed, so their keys fall along it and a binary search
/// finds the answer. Catching up on any number of entries is O(log n).
#[derive(Debug, Default)]
pub struct ChargeLog {
    /// Each entry's instant, in nanoseconds.
    at: Vec<u64>,
    /// Per grade, the cost of entries `0..=i` in nanoseconds.
    sums: [Vec<u64>; CpuSpeed::GRADES],
    /// Per grade, the peaks, in entry order.
    peaks: [Vec<u32>; CpuSpeed::GRADES],
}

impl ChargeLog {
    /// An empty log.
    pub fn new() -> ChargeLog {
        ChargeLog::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// True if the log holds no entry.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// True when the log must be [folded](ChargeLog::fold) before the
    /// next [`push`](ChargeLog::push).
    pub fn is_full(&self) -> bool {
        self.len() >= LOG_CAPACITY
    }

    /// Logs `cost[grade]` charged at `t` to every processor that owes the
    /// log, except `sender`'s: the query's own sender, if it owes the log
    /// too, is caught up to here and then skips the new entry.
    ///
    /// # Panics
    ///
    /// Panics if the log is full, or `t` is before the last entry.
    pub fn push(
        &mut self,
        t: SimTime,
        cost: [SimDuration; CpuSpeed::GRADES],
        sender: Option<(&mut Cpu, &mut u32)>,
    ) {
        assert!(!self.is_full(), "a full charge log is folded first");
        let sender = sender.map(|(cpu, cursor)| {
            self.catch_up(cpu, cursor);
            cursor
        });
        let t = t.as_nanos();
        let n = self.at.len();
        assert!(
            self.at.last().map_or(true, |&last| last <= t),
            "out of order"
        );
        self.at.push(t);
        for ((sums, peaks), cost) in self.sums.iter_mut().zip(&mut self.peaks).zip(cost) {
            sums.push(sums.last().copied().unwrap_or(0) + cost.as_nanos());
            let key = key_of(&self.at, sums, n);
            while peaks
                .last()
                .is_some_and(|&p| key_of(&self.at, sums, p as usize) <= key)
            {
                peaks.pop();
            }
            peaks.push(n as u32);
        }
        if let Some(cursor) = sender {
            *cursor = self.len() as u32;
        }
    }

    /// Charges `cpu` every entry from `*cursor` on, and moves the cursor
    /// past the last.
    pub fn catch_up(&self, cpu: &mut Cpu, cursor: &mut u32) {
        let (from, n) = (*cursor as usize, self.len());
        *cursor = n as u32;
        if from >= n {
            return;
        }
        let sums = &self.sums[cpu.speed as usize];
        let peaks = &self.peaks[cpu.speed as usize];
        let (p_from, p_n) = (before(sums, from), sums[n - 1]);
        let first = peaks[peaks.partition_point(|&p| (p as usize) < from)];
        let highest = key_of(&self.at, sums, first as usize);
        let idle = cpu.busy_until.as_nanos() as i64 - p_from as i64;
        cpu.busy_until = SimTime::from_nanos((p_n as i64 + idle.max(highest)) as u64);
        cpu.busy_total += SimDuration::from_nanos(p_n - p_from);
    }

    /// `cpu` as it will be once caught up from `cursor`: what a reader
    /// that may not charge it sees.
    pub fn caught_up(&self, cpu: &Cpu, mut cursor: u32) -> Cpu {
        let mut cpu = cpu.clone();
        self.catch_up(&mut cpu, &mut cursor);
        cpu
    }

    /// Catches up every processor that owes the log — `owing`, each with
    /// its cursor — and empties it: the cursors all point at its start.
    pub fn fold<'a>(&mut self, owing: impl IntoIterator<Item = (&'a mut Cpu, &'a mut u32)>) {
        for (cpu, cursor) in owing {
            self.catch_up(cpu, cursor);
            *cursor = 0;
        }
        self.at.clear();
        for g in 0..CpuSpeed::GRADES {
            self.sums[g].clear();
            self.peaks[g].clear();
        }
    }
}

/// `P(i)` from one grade's sums: the cost of the entries before `i`.
fn before(sums: &[u64], i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        sums[i - 1]
    }
}

/// Entry `i`'s key `tᵢ − P(i)`, from the instants and one grade's sums.
fn key_of(at: &[u64], sums: &[u64], i: usize) -> i64 {
    at[i] as i64 - before(sums, i) as i64
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
