//! WFS-style specialized page-level file access.
//!
//! "To read a page ... this requires 4 packet transmissions ... double
//! the number of packets required by a specialized page-level file access
//! protocol as used, for instance, in LOCUS or WFS." (§3.4.) The V
//! kernel's segment extensions get back down to two packets; this module
//! implements the specialized two-packet protocol itself, integrated
//! directly at the data-link level, as the lower-bound comparator.
//!
//! The client is `v_workloads`' one raw closed loop — the Table 4-1
//! initiator — sending a fixed page-read request: raw frames carry no
//! checksum and the row runs without faults, so only the request's length
//! reaches the measurement, and a reply of header plus page cannot be
//! mistaken for the header-only request.
//!
//! Wire format (little-endian):
//!
//! * request: `[op u8, pad u8, page u16, count u32, tag u32]`
//! * reply:   `[op|0x80 u8, status u8, page u16, count u32, tag u32, data…]`

use v_kernel::raw::{RawCtx, RawHandler};
use v_net::{EtherType, Frame};
use v_sim::SimDuration;
use v_workloads::measure::{run_raw_pair, Probe, RunReport};
use v_workloads::penalty::RawLoop;

use crate::{get_u16, get_u32, put_u16, put_u32};

/// Read-page opcode.
const OP_READ: u8 = 1;
/// Reply flag bit.
const REPLY: u8 = 0x80;

/// Fixed request/reply header length.
const HDR: usize = 12;

/// Page size in bytes (Table 6-1's page).
const PAGE: usize = 512;

/// Serves pages from an in-memory store (the comparator measures protocol
/// cost, not disks — same as Table 6-1).
pub struct WfsServer {
    /// Pattern served.
    pub pattern: u8,
    /// Per-request processing cost (the "well-tuned" server's software
    /// path; deliberately lean).
    pub service_cost: SimDuration,
}

impl WfsServer {
    /// A lean server of 512-byte pages.
    pub fn new(pattern: u8) -> WfsServer {
        WfsServer {
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
        let page = get_u16(&frame.payload, 2);
        let count = get_u32(&frame.payload, 4) as usize;
        let tag = get_u32(&frame.payload, 8);
        ctx.charge(self.service_cost);
        if frame.payload[0] != OP_READ {
            return;
        }
        let n = count.min(PAGE);
        let mut reply = vec![0u8; HDR + n];
        reply[0] = OP_READ | REPLY;
        put_u16(&mut reply, 2, page);
        put_u32(&mut reply, 4, n as u32);
        put_u32(&mut reply, 8, tag);
        reply[HDR..].fill(self.pattern);
        ctx.send_frame(frame.src, reply);
    }

    fn on_timer(&mut self, _ctx: &mut dyn RawCtx, _token: u64) {}
}

/// Runs `pages` back-to-back specialized-protocol page reads between
/// hosts 0 (client) and 1 (server); returns ms/op.
pub fn measure_wfs(cluster: &mut v_kernel::Cluster, pages: u64) -> (f64, Probe<RunReport>) {
    let mut request = vec![0u8; HDR];
    request[0] = OP_READ;
    put_u32(&mut request, 4, PAGE as u32);
    run_raw_pair(
        cluster,
        EtherType::WFS,
        Box::new(WfsServer::new(0x7E)),
        |peer, report| {
            Box::new(RawLoop {
                peer,
                request,
                reply_len: HDR + PAGE,
                target: pages,
                report,
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed};

    #[test]
    fn wfs_read_completes_and_beats_v_ipc_slightly() {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let (ms, st) = measure_wfs(&mut cl, 200);
        assert_eq!(st.borrow().integrity_errors, 0);
        assert_eq!(st.borrow().iterations, 200);
        // Two-packet protocol with minimal processing: must sit between
        // the raw network penalty (~4.0 ms for 64+576 byte datagrams at
        // 10 MHz) and the V IPC page read (~5.6 ms).
        assert!((3.8..5.6).contains(&ms), "wfs read = {ms:.2} ms");
    }
}
