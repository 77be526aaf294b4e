//! Page-level file access against one server: random page reads and
//! writes (Table 6-1), sequential reads from a read-ahead server (Table
//! 6-2), program loads in `MoveTo` transfer units (Table 6-3, §8) and
//! the §7 capacity mix of both.
//!
//! Every one is the same request/response: the client `Send`s a request
//! naming its op, a byte count and its buffer, granting the server the
//! range `[buf, buf + count)`; the server moves the bytes and replies
//! with how many it moved. Only two parts vary:
//!
//! * **how the data moves.** In [`PageMode::Segment`] a read is
//!   `Send — ReceiveWithSegment — ReplyWithSegment` and a write's page
//!   rides appended to the `Send`; in [`PageMode::Thoth`] (the basic
//!   Thoth primitives: plain `Receive`, then `MoveTo` / `MoveFrom`) the
//!   server fetches or pushes it. Running Thoth mode in a cluster with
//!   `appended_segments = false` reproduces the *unmodified* kernel the
//!   paper compares against ("the segment mechanism saves 3.5 ms"). A
//!   load is a `MoveTo` per transfer unit in either mode, as Thoth-mode
//!   reads and writes are (one unit, the whole region, unless set): "our
//!   current VAX file server breaks large read and write operations into
//!   MoveTo and MoveFrom operations of at most 4 kilobytes at a time".
//! * **what happens between requests.** The server may charge file-system
//!   processing before serving ([`PageServer::with_fs_cpu`], §7's 3.5
//!   ms) and read ahead after replying ([`PageServer::with_read_ahead`]:
//!   Table 6-2 interposes the disk latency *between the reply to one
//!   request and the receipt of the next*, so by the time the client asks
//!   for page k+1 the server has been fetching it for a while); the
//!   client may think between requests ([`PageClient::with_think`]).
//!   A zero value makes no kernel call.

use v_kernel::{Access, Api, Message, Outcome, Pid, Program};
use v_sim::{SimDuration, SimTime, SplitMix64};

use crate::measure::{Probe, RunReport};

/// Page read opcode (message byte 1; byte 0 holds the kernel's segment
/// flag bits).
const OP_READ: u8 = 1;
/// Page write opcode.
const OP_WRITE: u8 = 2;
/// Program-load opcode.
const OP_LOAD: u8 = 3;

/// Where the server's region starts.
const SERVER_BUF: u32 = 0x4000;
/// Where the client's buffer starts.
const CLIENT_BUF: u32 = 0x2000;

/// The page of Tables 6-1 and 6-2 and of the §7 mix.
const PAGE: u32 = 512;
/// A program image: the 64 KB read of Table 6-3 and of the §7 mix.
pub const IMAGE: u32 = 65536;
/// The byte a §7 server's region holds: the mix checks its first reply
/// against it.
pub const MIX_PATTERN: u8 = 0x42;

/// How the server moves page data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMode {
    /// `ReceiveWithSegment` / `ReplyWithSegment` (the paper's extension).
    Segment,
    /// Plain `Receive` + `MoveTo`/`MoveFrom` (basic Thoth primitives).
    Thoth,
}

/// What a request asks of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOp {
    /// Page reads.
    Read,
    /// Page writes.
    Write,
    /// Program loads: a read pushed in `MoveTo` transfer units.
    Load,
}

impl PageOp {
    fn code(self) -> u8 {
        match self {
            PageOp::Read => OP_READ,
            PageOp::Write => OP_WRITE,
            PageOp::Load => OP_LOAD,
        }
    }
}

/// What a client does between a reply and its next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Think {
    /// Application work: `Compute` (the slow reader of §6.2).
    Compute(SimDuration),
    /// Idle time: `Delay` (the §7 workstation's user).
    Delay(SimDuration),
}

/// A request in hand at the server.
#[derive(Debug, Clone, Copy)]
struct Request {
    from: Pid,
    op: u8,
    /// Bytes asked for, at most the server's region.
    count: u32,
    /// The client's buffer.
    buf: u32,
    /// Bytes that arrived appended to the request.
    appended: u32,
    /// Bytes moved so far by `MoveTo` / `MoveFrom`.
    moved: u32,
}

/// Serves reads, writes and loads from an in-memory region (Table 6-1
/// measures exactly this: no disk in the loop). Every request gets a
/// reply carrying the bytes moved, 0 when it failed; a failure is
/// counted in the report and the server keeps serving.
pub struct PageServer {
    mode: PageMode,
    size: u32,
    pattern: u8,
    transfer_unit: u32,
    fs_cpu: SimDuration,
    read_ahead: SimDuration,
    report: Probe<RunReport>,
    current: Option<Request>,
}

impl PageServer {
    /// A server of a `size`-byte region filled with `pattern`.
    pub fn new(mode: PageMode, size: u32, pattern: u8, report: Probe<RunReport>) -> PageServer {
        PageServer {
            mode,
            size,
            pattern,
            transfer_unit: size,
            fs_cpu: SimDuration::ZERO,
            read_ahead: SimDuration::ZERO,
            report,
            current: None,
        }
    }

    /// Bytes per `MoveTo` / `MoveFrom` (the whole region by default):
    /// Table 6-3 sweeps it from 1 KB to 64 KB.
    pub fn with_transfer_unit(mut self, unit: u32) -> PageServer {
        self.transfer_unit = unit;
        self
    }

    /// Processor time charged per request before serving it: §7's
    /// file-system processing.
    pub fn with_fs_cpu(mut self, fs_cpu: SimDuration) -> PageServer {
        self.fs_cpu = fs_cpu;
        self
    }

    /// Time spent after each reply before receiving again: Table 6-2's
    /// disk latency, overlapped with the client's turnaround.
    pub fn with_read_ahead(mut self, read_ahead: SimDuration) -> PageServer {
        self.read_ahead = read_ahead;
        self
    }

    fn rearm(&self, api: &mut Api<'_>) {
        match self.mode {
            PageMode::Segment => api.receive_with_segment(SERVER_BUF, self.size),
            PageMode::Thoth => api.receive(),
        }
    }

    fn accept(&mut self, api: &mut Api<'_>, from: Pid, msg: Message, appended: u32) {
        self.current = Some(Request {
            from,
            op: msg.byte(1),
            count: msg.get_u32(8).min(self.size),
            buf: msg.get_u32(12),
            appended,
            moved: 0,
        });
        if self.fs_cpu.is_zero() {
            self.serve(api);
        } else {
            api.compute(self.fs_cpu);
        }
    }

    fn serve(&mut self, api: &mut Api<'_>) {
        let req = self.current.expect("a request in hand");
        match (req.op, self.mode) {
            (OP_READ, PageMode::Segment) => {
                let mut reply = Message::empty();
                reply.set_u32(8, req.count);
                match api.reply_with_segment(reply, req.from, req.buf, SERVER_BUF, req.count) {
                    Ok(()) => self.next(api),
                    Err(_) => self.fail(api),
                }
            }
            (OP_WRITE, PageMode::Segment) => {
                if req.appended != req.count {
                    self.report.borrow_mut().integrity_errors += 1;
                }
                self.reply(api, req.appended);
            }
            (OP_READ | OP_WRITE | OP_LOAD, _) => self.move_next(api),
            _ => self.fail(api),
        }
    }

    /// Moves the next transfer unit of the request in hand, or replies
    /// once all of it has moved.
    fn move_next(&mut self, api: &mut Api<'_>) {
        let req = self.current.expect("a request in hand");
        let n = self.transfer_unit.min(req.count - req.moved);
        let (theirs, ours) = (req.buf + req.moved, SERVER_BUF + req.moved);
        if n == 0 {
            self.reply(api, req.moved);
        } else if req.op == OP_WRITE {
            api.move_from(req.from, ours, theirs, n);
        } else {
            api.move_to(req.from, theirs, ours, n);
        }
    }

    fn fail(&mut self, api: &mut Api<'_>) {
        self.report.borrow_mut().failures += 1;
        self.reply(api, 0);
    }

    fn reply(&mut self, api: &mut Api<'_>, moved: u32) {
        let req = self.current.expect("a request in hand");
        let mut reply = Message::empty();
        reply.set_u32(8, moved);
        // A failed reply means the client vanished; keep serving.
        let _ = api.reply(reply, req.from);
        self.next(api);
    }

    /// The request in hand is answered: read ahead, or receive the next.
    fn next(&mut self, api: &mut Api<'_>) {
        self.current = None;
        if self.read_ahead.is_zero() {
            self.rearm(api);
        } else {
            api.delay(self.read_ahead);
        }
    }
}

impl Program for PageServer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(SERVER_BUF, self.size as usize, self.pattern)
                    .expect("the region fits");
                self.rearm(api);
            }
            Outcome::Receive { from, msg } => self.accept(api, from, msg, 0),
            Outcome::ReceiveSeg { from, msg, seg_len } => self.accept(api, from, msg, seg_len),
            Outcome::Compute => self.serve(api),
            Outcome::Move(Ok(n)) => {
                self.current.as_mut().expect("a request in hand").moved += n;
                self.move_next(api);
            }
            Outcome::Move(Err(_)) => self.fail(api),
            Outcome::Delay => self.rearm(api),
            _ => api.exit(),
        }
    }
}

/// Performs `n` closed-loop requests against a [`PageServer`], checking
/// that each reply's count matches the request and that the first read
/// landed intact.
pub struct PageClient {
    server: Pid,
    op: PageOp,
    size: u32,
    n: u64,
    pattern: u8,
    think: Think,
    /// The §7 draw: a load with probability 0.10, else a page read.
    mix: Option<SplitMix64>,
    report: Probe<RunReport>,
    done: u64,
    /// The request in flight: its op, its byte count and when it went.
    current: (PageOp, u32, SimTime),
}

impl PageClient {
    /// `n` requests of `op`, each of `size` bytes; reads are checked
    /// against the server's `pattern`.
    pub fn new(
        server: Pid,
        op: PageOp,
        size: u32,
        n: u64,
        pattern: u8,
        report: Probe<RunReport>,
    ) -> PageClient {
        PageClient {
            server,
            op,
            size,
            n,
            pattern,
            think: Think::Compute(SimDuration::ZERO),
            mix: None,
            report,
            done: 0,
            current: (op, size, SimTime::ZERO),
        }
    }

    /// A §7 diskless workstation: `n` requests, each a 64 KB program load
    /// with probability 0.10 (drawn from `seed` before its `Send`) and a
    /// 512-byte page read otherwise, idle `think` between them. The
    /// server's region must hold [`IMAGE`] bytes of [`MIX_PATTERN`].
    pub fn mix(
        server: Pid,
        n: u64,
        think: SimDuration,
        seed: u64,
        report: Probe<RunReport>,
    ) -> PageClient {
        PageClient {
            think: Think::Delay(think),
            mix: Some(SplitMix64::new(seed)),
            ..PageClient::new(server, PageOp::Read, PAGE, n, MIX_PATTERN, report)
        }
    }

    /// Thinks between a reply and the next request.
    pub fn with_think(mut self, think: Think) -> PageClient {
        self.think = think;
        self
    }

    fn issue(&mut self, api: &mut Api<'_>) {
        let (op, count) = match self.mix.as_mut().map(|rng| rng.chance(0.10)) {
            Some(true) => (PageOp::Load, IMAGE),
            Some(false) => (PageOp::Read, PAGE),
            None => (self.op, self.size),
        };
        let mut m = Message::empty();
        m.set_byte(1, op.code());
        m.set_u32(8, count);
        m.set_u32(12, CLIENT_BUF);
        // A write grants read access, and the kernel appends the first
        // part of the segment to the Send packet; a read or a load grants
        // write access so the server (kernel) can deposit the data.
        let access = if op == PageOp::Write {
            Access::Read
        } else {
            Access::Write
        };
        m.set_segment(CLIENT_BUF, count, access);
        self.current = (op, count, api.now());
        api.send(m, self.server);
    }

    fn think(&mut self, api: &mut Api<'_>) {
        match self.think {
            Think::Compute(d) if !d.is_zero() => api.compute(d),
            Think::Delay(d) if !d.is_zero() => api.delay(d),
            _ => self.issue(api),
        }
    }
}

impl Program for PageClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(CLIENT_BUF, self.size as usize, 0xC3)
                    .expect("the buffer fits");
                self.report.borrow_mut().started = Some(api.now());
                self.issue(api);
            }
            Outcome::Send(Ok(reply)) => {
                let (op, count, issued) = self.current;
                let intact = self.done > 0
                    || op == PageOp::Write
                    || api
                        .mem_is_filled(CLIENT_BUF, count as usize, self.pattern)
                        .expect("the buffer fits");
                let mut r = self.report.borrow_mut();
                r.integrity_errors += u64::from(reply.get_u32(8) != count) + u64::from(!intact);
                r.iterations += 1;
                let ms = api.now().since(issued).as_millis_f64();
                if op == PageOp::Load {
                    r.loads += 1;
                    r.load_ms_total += ms;
                } else {
                    r.pages += 1;
                    r.page_ms_total += ms;
                }
                self.done += 1;
                if self.done < self.n {
                    drop(r);
                    self.think(api);
                } else {
                    r.finished = Some(api.now());
                    drop(r);
                    api.exit();
                }
            }
            Outcome::Compute | Outcome::Delay => self.issue(api),
            Outcome::Send(Err(_)) => {
                let mut r = self.report.borrow_mut();
                r.failures += 1;
                r.finished = Some(api.now());
                drop(r);
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::probe;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};

    fn run_page(op: PageOp, mode: PageMode, remote: bool) -> (f64, RunReport) {
        let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        if mode == PageMode::Thoth {
            // Reproduce the unmodified kernel: no appended segments.
            cfg.protocol.appended_segments = false;
        }
        let mut cl = Cluster::new(cfg);
        let rep = probe(RunReport::default());
        let server = cl.spawn(
            HostId(if remote { 1 } else { 0 }),
            "pageserver",
            Box::new(PageServer::new(mode, 512, 0x7E, rep.clone())),
        );
        cl.spawn(
            HostId(0),
            "pageclient",
            Box::new(PageClient::new(server, op, 512, 50, 0x7E, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        (r.per_op_ms(), r)
    }

    #[test]
    fn remote_page_read_segment_mode() {
        let (ms, r) = run_page(PageOp::Read, PageMode::Segment, true);
        assert!(r.clean(), "{r:?}");
        // Paper Table 6-1: 5.56 ms at 10 MHz.
        assert!((4.5..6.5).contains(&ms), "page read = {ms:.3}");
    }

    #[test]
    fn remote_page_write_segment_mode() {
        let (ms, r) = run_page(PageOp::Write, PageMode::Segment, true);
        assert!(r.clean(), "{r:?}");
        assert!((4.5..6.5).contains(&ms), "page write = {ms:.3}");
    }

    #[test]
    fn local_page_read() {
        let (ms, r) = run_page(PageOp::Read, PageMode::Segment, false);
        assert!(r.clean(), "{r:?}");
        // Paper: 1.31 ms at 10 MHz.
        assert!((1.0..1.7).contains(&ms), "local page read = {ms:.3}");
    }

    #[test]
    fn thoth_mode_write_is_slower() {
        let (seg, r1) = run_page(PageOp::Write, PageMode::Segment, true);
        let (thoth, r2) = run_page(PageOp::Write, PageMode::Thoth, true);
        assert!(r1.clean() && r2.clean());
        // Paper: 8.1 ms vs 5.6 ms — the segment mechanism saves ~3.5 ms.
        assert!(
            thoth - seg > 1.5,
            "expected Thoth write >> segment write, got {thoth:.2} vs {seg:.2}"
        );
    }

    #[test]
    fn thoth_mode_read_is_slower() {
        let (seg, _) = run_page(PageOp::Read, PageMode::Segment, true);
        let (thoth, _) = run_page(PageOp::Read, PageMode::Thoth, true);
        assert!(
            thoth - seg > 1.5,
            "expected Thoth read >> segment read, got {thoth:.2} vs {seg:.2}"
        );
    }

    // --- sequential reads from a read-ahead server (Table 6-2) -------------

    fn run_seq(disk_ms: u64, think: SimDuration) -> f64 {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let rep = probe(RunReport::default());
        let server = cl.spawn(
            HostId(1),
            "seqserver",
            Box::new(
                PageServer::new(PageMode::Segment, 512, 0x11, rep.clone())
                    .with_read_ahead(SimDuration::from_millis(disk_ms)),
            ),
        );
        cl.spawn(
            HostId(0),
            "seqclient",
            Box::new(
                PageClient::new(server, PageOp::Read, 512, 100, 0x11, rep.clone())
                    .with_think(Think::Compute(think)),
            ),
        );
        cl.run();
        let r = rep.borrow();
        assert!(r.clean(), "{:?}", *r);
        r.per_op_ms()
    }

    #[test]
    fn elapsed_tracks_disk_latency() {
        // Paper Table 6-2: 10 → 12.02, 15 → 17.13, 20 → 22.22 ms/page.
        for (disk, paper) in [(10u64, 12.02), (15, 17.13), (20, 22.22)] {
            let ms = run_seq(disk, SimDuration::ZERO);
            let err = (ms - paper).abs() / paper;
            assert!(err < 0.12, "disk {disk} ms: got {ms:.2}, paper {paper}");
        }
    }

    #[test]
    fn read_ahead_overlaps_disk_with_request_turnaround() {
        // Per-page time must be far below disk latency + full round trip.
        let ms = run_seq(15, SimDuration::ZERO);
        assert!(ms < 15.0 + 5.56, "no overlap: {ms:.2}");
    }

    #[test]
    fn slow_reader_sees_page_ready() {
        // A client thinking 20 ms per page on a 10 ms disk: total per page
        // ≈ think + remote read time, since read-ahead hides the disk.
        let ms = run_seq(10, SimDuration::from_millis(20));
        assert!((24.0..28.0).contains(&ms), "slow reader: {ms:.2}");
    }

    // --- program loads in transfer units (Table 6-3) -----------------------

    fn run_load(remote: bool, unit: u32) -> (f64, RunReport) {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
        let mut cl = Cluster::new(cfg);
        let rep = probe(RunReport::default());
        let server = cl.spawn(
            HostId(if remote { 1 } else { 0 }),
            "loadserver",
            Box::new(
                PageServer::new(PageMode::Segment, 65536, 0x42, rep.clone())
                    .with_transfer_unit(unit),
            ),
        );
        cl.spawn(
            HostId(0),
            "loadclient",
            Box::new(PageClient::new(
                server,
                PageOp::Load,
                65536,
                3,
                0x42,
                rep.clone(),
            )),
        );
        cl.run();
        let r = rep.borrow().clone();
        (r.per_op_ms(), r)
    }

    #[test]
    fn local_load_64k_units() {
        let (ms, r) = run_load(false, 65536);
        assert!(r.clean(), "{r:?}");
        // Paper: 59.7 ms.
        assert!((50.0..70.0).contains(&ms), "local 64K load = {ms:.1}");
    }

    #[test]
    fn remote_load_64k_units_delivers_image() {
        let (ms, r) = run_load(true, 65536);
        assert!(r.clean(), "{r:?}");
        // Paper: 335.4 ms.
        assert!((280.0..400.0).contains(&ms), "remote 64K load = {ms:.1}");
    }

    #[test]
    fn smaller_transfer_units_cost_more() {
        let (u1, _) = run_load(true, 1024);
        let (u16, _) = run_load(true, 16384);
        let (u64k, _) = run_load(true, 65536);
        assert!(u1 > u16 && u16 > u64k, "{u1:.0} > {u16:.0} > {u64k:.0}");
    }

    // --- the §7 capacity mix -----------------------------------------------

    /// A §7 file server: 64 KB of [`MIX_PATTERN`], 16 KB transfer units,
    /// 3.5 ms of file-system processing per request.
    fn capacity_server(report: Probe<RunReport>) -> Box<PageServer> {
        Box::new(
            PageServer::new(PageMode::Segment, IMAGE, MIX_PATTERN, report)
                .with_transfer_unit(16384)
                .with_fs_cpu(SimDuration::from_millis_f64(3.5)),
        )
    }

    #[test]
    fn mix_completes_and_splits_90_10() {
        let cfg = ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let rep = probe(RunReport::default());
        let server = cl.spawn(HostId(0), "capacity-server", capacity_server(rep.clone()));
        let st1 = probe(RunReport::default());
        let st2 = probe(RunReport::default());
        cl.spawn(
            HostId(1),
            "ws1",
            Box::new(PageClient::mix(
                server,
                200,
                SimDuration::from_millis(20),
                1,
                st1.clone(),
            )),
        );
        cl.spawn(
            HostId(2),
            "ws2",
            Box::new(PageClient::mix(
                server,
                200,
                SimDuration::from_millis(20),
                2,
                st2.clone(),
            )),
        );
        cl.run();
        assert_eq!(rep.borrow().failures, 0);
        let total = st1.borrow().requests() + st2.borrow().requests();
        assert_eq!(total, 400);
        let loads = st1.borrow().loads + st2.borrow().loads;
        // 10% of 400 = 40; allow generous spread.
        assert!((20..60).contains(&(loads as i64)), "loads = {loads}");
        // Loads are far slower than page reads.
        assert!(st1.borrow().load_ms() > 5.0 * st1.borrow().page_ms());
    }

    #[test]
    fn a_workstation_whose_server_dies_counts_the_failed_request() {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let server = cl.spawn(
            HostId(1),
            "server",
            capacity_server(probe(Default::default())),
        );
        let ws = probe(RunReport::default());
        let think = SimDuration::from_millis(20);
        cl.spawn(
            HostId(0),
            "ws",
            Box::new(PageClient::mix(server, 200, think, 1, ws.clone())),
        );
        cl.run_for(SimDuration::from_millis(500));
        let served = ws.borrow().requests();
        assert!(served > 0 && ws.borrow().finished.is_none());
        cl.crash_host(HostId(1));
        cl.run_for(SimDuration::from_millis(60_000));
        let r = ws.borrow();
        assert_eq!(r.failures, 1, "{r:?}");
        assert!(r.finished.is_some() && !r.clean(), "{r:?}");
        assert_eq!(r.requests(), served, "{r:?}");
    }

    /// Sends one request of `op` for `count` bytes granting `grant` bytes,
    /// and records the count the reply carries.
    struct OneRequest {
        server: Pid,
        op: u8,
        count: u32,
        grant: u32,
        replied: Probe<Option<u32>>,
    }

    impl Program for OneRequest {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            match outcome {
                Outcome::Started => {
                    let mut m = Message::empty();
                    m.set_byte(1, self.op);
                    m.set_u32(8, self.count);
                    m.set_u32(12, CLIENT_BUF);
                    m.set_segment(CLIENT_BUF, self.grant, Access::Write);
                    api.send(m, self.server);
                }
                Outcome::Send(Ok(reply)) => {
                    *self.replied.borrow_mut() = Some(reply.get_u32(8));
                    api.exit();
                }
                _ => api.exit(),
            }
        }
    }

    #[test]
    fn every_request_gets_a_reply_and_the_server_keeps_serving() {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
        let mut cl = Cluster::new(cfg);
        let srv = probe(RunReport::default());
        let server = cl.spawn(
            HostId(1),
            "loadserver",
            Box::new(
                PageServer::new(PageMode::Segment, IMAGE, 0x42, srv.clone())
                    .with_transfer_unit(16384),
            ),
        );
        let mut one = |op: u8, count: u32, grant: u32| {
            let replied = probe(None);
            let program = OneRequest {
                server,
                op,
                count,
                grant,
                replied: replied.clone(),
            };
            cl.spawn(HostId(0), "one", Box::new(program));
            cl.run_for(SimDuration::from_millis(5_000));
            let got = *replied.borrow();
            got
        };
        // A 64 KB load into a 4 KB grant: the first 16 KB MoveTo fails.
        assert_eq!(one(OP_LOAD, IMAGE, 4096), Some(0));
        // An op the server does not know.
        assert_eq!(one(9, 512, 512), Some(0));
        assert_eq!(srv.borrow().failures, 2);

        let rep = probe(RunReport::default());
        let client = PageClient::new(server, PageOp::Load, IMAGE, 2, 0x42, rep.clone());
        cl.spawn(HostId(0), "loadclient", Box::new(client));
        cl.run_for(SimDuration::from_millis(5_000));
        let r = rep.borrow();
        assert!(r.clean(), "{r:?}");
        assert_eq!((r.loads, r.iterations), (2, 2));
    }
}
