//! WFS-style specialized page-level file access.
//!
//! "To read a page ... this requires 4 packet transmissions ... double
//! the number of packets required by a specialized page-level file access
//! protocol as used, for instance, in LOCUS or WFS." (§3.4.) The V
//! kernel's segment extensions get back down to two packets; this module
//! implements the specialized two-packet protocol itself, integrated
//! directly at the data-link level, as the lower-bound comparator.
//!
//! Wire format (little-endian):
//!
//! * request: `[op u8, pad u8, page u16, count u32, tag u32]`
//! * reply:   `[op|0x80 u8, status u8, page u16, count u32, tag u32, data…]`

use v_kernel::raw::{RawCtx, RawHandler};
use v_net::{Frame, MacAddr};
use v_sim::SimDuration;
use v_workloads::measure::{probe, Probe, RunReport};

/// Read-page opcode.
const OP_READ: u8 = 1;
/// Write-page opcode.
const OP_WRITE: u8 = 2;
/// Reply flag bit.
const REPLY: u8 = 0x80;

fn put_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_le_bytes());
}
fn put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_le_bytes());
}
fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}
fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

/// Fixed request/reply header length.
const HDR: usize = 12;

/// Serves pages from an in-memory store (the comparator measures protocol
/// cost, not disks — same as Table 6-1).
pub struct WfsServer {
    /// Page size in bytes.
    pub page_size: usize,
    /// Pattern served.
    pub pattern: u8,
    /// Per-request processing cost (the "well-tuned" server's software
    /// path; deliberately lean).
    pub service_cost: SimDuration,
}

impl WfsServer {
    /// A lean server with the given page size.
    pub fn new(page_size: usize, pattern: u8) -> WfsServer {
        WfsServer {
            page_size,
            pattern,
            service_cost: SimDuration::from_micros(300),
        }
    }
}

impl RawHandler for WfsServer {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        if frame.payload.len() < HDR {
            return;
        }
        let op = frame.payload[0];
        let page = get_u16(&frame.payload, 2);
        let count = get_u32(&frame.payload, 4) as usize;
        let tag = get_u32(&frame.payload, 8);
        ctx.charge(self.service_cost);
        match op {
            OP_READ => {
                let n = count.min(self.page_size);
                let mut reply = vec![0u8; HDR + n];
                reply[0] = OP_READ | REPLY;
                reply[1] = 0;
                put_u16(&mut reply, 2, page);
                put_u32(&mut reply, 4, n as u32);
                put_u32(&mut reply, 8, tag);
                reply[HDR..].fill(self.pattern);
                ctx.send_frame(frame.src, reply);
            }
            OP_WRITE => {
                let n = frame.payload.len() - HDR;
                let mut reply = vec![0u8; HDR];
                reply[0] = OP_WRITE | REPLY;
                reply[1] = 0;
                put_u16(&mut reply, 2, page);
                put_u32(&mut reply, 4, n as u32);
                put_u32(&mut reply, 8, tag);
                ctx.send_frame(frame.src, reply);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut dyn RawCtx, _token: u64) {}
}

/// Issues back-to-back page reads or writes against a [`WfsServer`].
pub struct WfsClient {
    /// Server station.
    pub server: MacAddr,
    /// True for reads, false for writes.
    pub reads: bool,
    /// Page size in bytes.
    pub page_size: usize,
    /// Operations requested.
    pub target: u64,
    /// Completed operations (`iterations`), the loop's start and end,
    /// and short or corrupt replies.
    pub report: Probe<RunReport>,
}

impl WfsClient {
    fn request(&self, ctx: &mut dyn RawCtx, tag: u64) {
        let (op, extra) = if self.reads {
            (OP_READ, 0)
        } else {
            (OP_WRITE, self.page_size)
        };
        let mut req = vec![0u8; HDR + extra];
        req[0] = op;
        put_u16(&mut req, 2, (tag & 0xFFFF) as u16);
        put_u32(&mut req, 4, self.page_size as u32);
        put_u32(&mut req, 8, tag as u32);
        if extra > 0 {
            req[HDR..].fill(0xBB);
        }
        ctx.send_frame(self.server, req);
    }
}

impl RawHandler for WfsClient {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        let mut r = self.report.borrow_mut();
        if frame.payload.len() < HDR
            || frame.payload[0] & REPLY == 0
            || (self.reads && frame.payload.len() != HDR + self.page_size)
        {
            r.integrity_errors += 1;
        }
        r.iterations += 1;
        r.finished = Some(ctx.now());
        let done = r.iterations;
        drop(r);
        if done < self.target {
            self.request(ctx, done);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, _token: u64) {
        self.report.borrow_mut().started = Some(ctx.now());
        self.request(ctx, 0);
    }
}

/// Runs `rounds` specialized-protocol page operations between hosts 0
/// (client) and 1 (server); returns ms/op.
pub fn measure_wfs(
    cluster: &mut v_kernel::Cluster,
    reads: bool,
    page_size: usize,
    rounds: u64,
) -> (f64, Probe<RunReport>) {
    use v_kernel::HostId;
    use v_net::EtherType;
    let report = probe(RunReport::default());
    let server_mac = cluster.mac(HostId(1));
    cluster.register_raw_handler(
        HostId(1),
        EtherType::WFS,
        Box::new(WfsServer::new(page_size, 0x7E)),
    );
    cluster.register_raw_handler(
        HostId(0),
        EtherType::WFS,
        Box::new(WfsClient {
            server: server_mac,
            reads,
            page_size,
            target: rounds,
            report: report.clone(),
        }),
    );
    cluster.poke_raw_handler(HostId(0), EtherType::WFS, 0, SimDuration::ZERO);
    cluster.run();
    let ms = report.borrow().per_op_ms();
    (ms, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed};

    #[test]
    fn wfs_read_completes_and_beats_v_ipc_slightly() {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let (ms, st) = measure_wfs(&mut cl, true, 512, 200);
        assert_eq!(st.borrow().integrity_errors, 0);
        assert_eq!(st.borrow().iterations, 200);
        // Two-packet protocol with minimal processing: must sit between
        // the raw network penalty (~4.0 ms for 64+576 byte datagrams at
        // 10 MHz) and the V IPC page read (~5.6 ms).
        assert!((3.8..5.6).contains(&ms), "wfs read = {ms:.2} ms");
    }

    #[test]
    fn wfs_write_completes() {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let (ms, st) = measure_wfs(&mut cl, false, 512, 200);
        assert_eq!(st.borrow().integrity_errors, 0);
        assert!((3.8..5.6).contains(&ms), "wfs write = {ms:.2} ms");
    }
}
