//! Random page-level file access between two processes (Table 6-1).
//!
//! A page **read** is `Send — Receive — ReplyWithSegment`; a page
//! **write** is `Send(+appended segment) — ReceiveWithSegment — Reply`.
//! The basic Thoth forms (`...MoveTo...` / `...MoveFrom...`) are also
//! implemented; running them in a cluster configured with
//! `appended_segments = false` reproduces the *unmodified* kernel the
//! paper compares against ("the segment mechanism saves 3.5 ms").

use v_kernel::{Access, Api, Message, Outcome, Pid, Program};

use crate::measure::{Probe, RunReport};

/// Page operation opcode (message byte 1; byte 0 holds the kernel's
/// segment flag bits).
const OP_READ: u8 = 1;
/// Write opcode.
const OP_WRITE: u8 = 2;

/// Server-side page buffer address.
pub const SERVER_BUF: u32 = 0x4000;
/// Client-side page buffer address.
pub const CLIENT_BUF: u32 = 0x2000;

/// How the server moves page data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMode {
    /// `ReceiveWithSegment` / `ReplyWithSegment` (the paper's extension).
    Segment,
    /// Plain `Receive` + `MoveTo`/`MoveFrom` (basic Thoth primitives).
    Thoth,
}

/// Which operation the client benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOp {
    /// Page reads.
    Read,
    /// Page writes.
    Write,
}

/// Serves page reads and writes from an in-memory page (the paper's
/// Table 6-1 measures exactly this: no disk in the loop).
pub struct PageServer {
    /// Transfer mechanism.
    pub mode: PageMode,
    /// Page size in bytes.
    pub page: u32,
    /// Fill pattern served on reads.
    pub pattern: u8,
    /// Failures/integrity records.
    pub report: Probe<RunReport>,
    /// Pending Thoth-write state: (client, client buffer address, count).
    pending_write: Option<(Pid, u32, u32)>,
    /// Pending Thoth-read state.
    pending_read: Option<(Pid, u32, u32)>,
}

impl PageServer {
    /// Creates a page server.
    pub fn new(mode: PageMode, page: u32, pattern: u8, report: Probe<RunReport>) -> PageServer {
        PageServer {
            mode,
            page,
            pattern,
            report,
            pending_write: None,
            pending_read: None,
        }
    }

    fn rearm(&self, api: &mut Api<'_>) {
        match self.mode {
            PageMode::Segment => api.receive_with_segment(SERVER_BUF, self.page),
            PageMode::Thoth => api.receive(),
        }
    }

    fn handle_request(&mut self, api: &mut Api<'_>, from: Pid, msg: Message, seg_len: u32) {
        let op = msg.byte(1);
        let count = msg.get_u32(8);
        let client_buf = msg.get_u32(12);
        match (op, self.mode) {
            (OP_READ, PageMode::Segment) => {
                let mut reply = Message::empty();
                reply.set_u32(8, count);
                if api
                    .reply_with_segment(reply, from, client_buf, SERVER_BUF, count)
                    .is_err()
                {
                    self.report.borrow_mut().failures += 1;
                }
                self.rearm(api);
            }
            (OP_READ, PageMode::Thoth) => {
                // Push the page with MoveTo, then reply.
                self.pending_read = Some((from, client_buf, count));
                api.move_to(from, client_buf, SERVER_BUF, count);
            }
            (OP_WRITE, PageMode::Segment) => {
                // Data arrived appended to the request.
                if seg_len != count {
                    self.report.borrow_mut().integrity_errors += 1;
                }
                let mut reply = Message::empty();
                reply.set_u32(8, seg_len);
                let _ = api.reply(reply, from);
                self.rearm(api);
            }
            (OP_WRITE, PageMode::Thoth) => {
                self.pending_write = Some((from, msg.get_u32(16), count));
                // Fetch the data from the client's granted segment.
                api.move_from(from, SERVER_BUF, msg.get_u32(16), count);
            }
            _ => {
                self.report.borrow_mut().failures += 1;
                self.rearm(api);
            }
        }
    }
}

impl Program for PageServer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(SERVER_BUF, self.page as usize, self.pattern)
                    .expect("page fits");
                self.rearm(api);
            }
            Outcome::Receive { from, msg } => self.handle_request(api, from, msg, 0),
            Outcome::ReceiveSeg { from, msg, seg_len } => {
                self.handle_request(api, from, msg, seg_len)
            }
            Outcome::Move(Ok(n)) => {
                let (from, count) = if let Some((from, _, count)) = self.pending_read.take() {
                    (from, count)
                } else if let Some((from, _, count)) = self.pending_write.take() {
                    (from, count)
                } else {
                    api.exit();
                    return;
                };
                if n != count {
                    self.report.borrow_mut().integrity_errors += 1;
                }
                let mut reply = Message::empty();
                reply.set_u32(8, n);
                let _ = api.reply(reply, from);
                self.rearm(api);
            }
            Outcome::Move(Err(_)) => {
                self.report.borrow_mut().failures += 1;
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Performs `n` page reads or writes against a [`PageServer`].
pub struct PageClient {
    /// The server.
    pub server: Pid,
    /// Operation under test.
    pub op: PageOp,
    /// Page size in bytes.
    pub page: u32,
    /// Iterations.
    pub n: u64,
    /// Expected server pattern (read verification).
    pub pattern: u8,
    /// Where results accumulate.
    pub report: Probe<RunReport>,
    done: u64,
}

impl PageClient {
    /// Creates a page client.
    pub fn new(
        server: Pid,
        op: PageOp,
        page: u32,
        n: u64,
        pattern: u8,
        report: Probe<RunReport>,
    ) -> PageClient {
        PageClient {
            server,
            op,
            page,
            n,
            pattern,
            report,
            done: 0,
        }
    }

    fn next_op(&self, api: &mut Api<'_>) {
        let mut m = Message::empty();
        m.set_u32(8, self.page);
        m.set_u32(12, CLIENT_BUF);
        m.set_u32(16, CLIENT_BUF);
        match self.op {
            PageOp::Read => {
                m.set_byte(1, OP_READ);
                // Grant write access so the server (kernel) can deposit
                // the page into our buffer.
                m.set_segment(CLIENT_BUF, self.page, Access::Write);
            }
            PageOp::Write => {
                m.set_byte(1, OP_WRITE);
                // Grant read access; the kernel appends the first part of
                // the segment to the Send packet.
                m.set_segment(CLIENT_BUF, self.page, Access::Read);
            }
        }
        api.send(m, self.server);
    }
}

impl Program for PageClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(CLIENT_BUF, self.page as usize, 0xC3)
                    .expect("page fits");
                self.report.borrow_mut().started = Some(api.now());
                self.next_op(api);
            }
            Outcome::Send(Ok(reply)) => {
                if reply.get_u32(8) != self.page {
                    self.report.borrow_mut().integrity_errors += 1;
                }
                if self.op == PageOp::Read && self.done == 0 {
                    // Verify the first page landed intact.
                    let intact = api.mem_is_filled(CLIENT_BUF, self.page as usize, self.pattern);
                    if !intact.expect("fits") {
                        self.report.borrow_mut().integrity_errors += 1;
                    }
                }
                self.done += 1;
                self.report.borrow_mut().iterations += 1;
                if self.done < self.n {
                    self.next_op(api);
                } else {
                    self.report.borrow_mut().finished = Some(api.now());
                    api.exit();
                }
            }
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
}
