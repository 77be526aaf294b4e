//! A windowed streaming file-read protocol (the §6.2 comparator).
//!
//! Conventional systems hide network latency in sequential file access by
//! streaming: the server pushes pages ahead of the reader into a
//! client-side buffer pool. The paper argues (§6.2) this buys at most
//! 10–20 % over V's synchronous request-response because (a) local-net
//! latency is small, (b) the disk dominates, and (c) streaming adds
//! buffering copies and protocol overhead. This module implements such a
//! protocol so the claim is measured, not asserted.
//!
//! Shape: the client opens a stream (a file of `n` pages of [`PAGE`]
//! bytes, a window of [`WINDOW`] pages); the server streams data pages,
//! each gated on a per-page disk latency and on window credit; the client
//! acknowledges cumulatively as the application *consumes* pages. Each
//! consumed page pays one extra buffer-to-user copy — the cost the paper
//! attributes to streaming that the V path does not pay (its data lands
//! in the user buffer directly).
//!
//! Wire format: `[kind u8, pad u8, seq u16, count u32]` + data for pages;
//! an open carries the file's page count in `seq` and the window in
//! `count`.

use v_kernel::raw::{RawCtx, RawHandler};
use v_net::{EtherType, Frame, MacAddr};
use v_sim::SimDuration;
use v_workloads::measure::{run_raw_pair, Probe, RunReport};

use crate::{get_u16, get_u32, put_u16, put_u32};

const K_OPEN: u8 = 1;
const K_PAGE: u8 = 2;
const K_ACK: u8 = 3;

const HDR: usize = 8;

/// Page size in bytes.
pub const PAGE: usize = 512;
/// Window: the client's buffer pool, in pages.
pub const WINDOW: u16 = 8;

/// Timer token: a page became ready off the simulated disk.
const TOK_DISK: u64 = 1;
/// Timer token: the client application consumed a page.
const TOK_CONSUME: u64 = 2;

/// Streaming file server: pushes pages as the disk yields them and the
/// window allows.
pub struct StreamServer {
    /// Per-page disk latency.
    pub disk_latency: SimDuration,
    /// Fill pattern.
    pub pattern: u8,
    client: Option<MacAddr>,
    total: u16,
    window: u16,
    next_ready: u16, // pages the disk has produced
    next_sent: u16,  // pages pushed to the client
    acked: u16,      // cumulative ack from the client
    disk_busy: bool,
}

impl StreamServer {
    /// Creates a streaming server.
    pub fn new(disk_latency: SimDuration, pattern: u8) -> StreamServer {
        StreamServer {
            disk_latency,
            pattern,
            client: None,
            total: 0,
            window: 0,
            next_ready: 0,
            next_sent: 0,
            acked: 0,
            disk_busy: false,
        }
    }

    fn pump(&mut self, ctx: &mut dyn RawCtx) {
        // Push every page that is both disk-ready and within the window.
        while self.next_sent < self.next_ready && self.next_sent < self.acked + self.window {
            let mut pkt = vec![0u8; HDR + PAGE];
            pkt[0] = K_PAGE;
            put_u16(&mut pkt, 2, self.next_sent);
            put_u32(&mut pkt, 4, PAGE as u32);
            pkt[HDR..].fill(self.pattern);
            ctx.send_frame(self.client.expect("stream open"), pkt);
            self.next_sent += 1;
        }
        // Keep the disk busy fetching the next page.
        if !self.disk_busy && self.next_ready < self.total {
            self.disk_busy = true;
            ctx.set_timer(self.disk_latency, TOK_DISK);
        }
    }
}

impl RawHandler for StreamServer {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        if frame.payload.len() < HDR {
            return;
        }
        match frame.payload[0] {
            K_OPEN => {
                self.client = Some(frame.src);
                self.total = get_u16(&frame.payload, 2);
                self.window = get_u32(&frame.payload, 4) as u16;
                self.next_ready = 0;
                self.next_sent = 0;
                self.acked = 0;
                self.disk_busy = false;
                self.pump(ctx);
            }
            K_ACK => {
                self.acked = get_u16(&frame.payload, 2);
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, token: u64) {
        if token == TOK_DISK {
            self.disk_busy = false;
            self.next_ready += 1;
            self.pump(ctx);
        }
    }
}

/// Streaming client: buffers arriving pages, consumes them in order at
/// application speed, acknowledges cumulatively.
pub struct StreamClient {
    /// Server station.
    pub server: MacAddr,
    /// Pages to read.
    pub total: u16,
    /// Application think time per page (zero = consume immediately).
    pub think: SimDuration,
    /// Extra per-page buffer-to-user copy cost (per byte).
    pub copy_per_byte: SimDuration,
    /// Pages consumed by the application (`iterations`), from the
    /// stream's open to the last consumption, and bad pages.
    pub report: Probe<RunReport>,
    buffered: u16, // highest in-order page received
    next_consume: u16,
    consuming: bool,
}

impl StreamClient {
    /// Creates a streaming client.
    pub fn new(
        server: MacAddr,
        total: u16,
        think: SimDuration,
        copy_per_byte: SimDuration,
        report: Probe<RunReport>,
    ) -> StreamClient {
        StreamClient {
            server,
            total,
            think,
            copy_per_byte,
            report,
            buffered: 0,
            next_consume: 0,
            consuming: false,
        }
    }

    fn try_consume(&mut self, ctx: &mut dyn RawCtx) {
        if self.consuming || self.next_consume >= self.buffered {
            return;
        }
        self.consuming = true;
        // The application "reads" the page: one buffer-to-user copy now,
        // then its think time.
        let copy = SimDuration::from_nanos(self.copy_per_byte.as_nanos() * PAGE as u64);
        ctx.charge(copy);
        if self.think.is_zero() {
            self.finish_page(ctx);
        } else {
            ctx.set_timer(self.think, TOK_CONSUME);
        }
    }

    fn finish_page(&mut self, ctx: &mut dyn RawCtx) {
        self.consuming = false;
        self.next_consume += 1;
        {
            let mut r = self.report.borrow_mut();
            r.iterations += 1;
            r.finished = Some(ctx.now());
        }
        // Cumulative ack opens the window.
        let mut ack = vec![0u8; HDR];
        ack[0] = K_ACK;
        put_u16(&mut ack, 2, self.next_consume);
        ctx.send_frame(self.server, ack);
        self.try_consume(ctx);
    }
}

impl RawHandler for StreamClient {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        if frame.payload.len() < HDR || frame.payload[0] != K_PAGE {
            return;
        }
        let seq = get_u16(&frame.payload, 2);
        if frame.payload.len() != HDR + PAGE {
            self.report.borrow_mut().integrity_errors += 1;
        }
        if seq == self.buffered {
            self.buffered += 1;
        }
        self.try_consume(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, token: u64) {
        match token {
            TOK_CONSUME => self.finish_page(ctx),
            _ => {
                // Kick-off: open the stream.
                self.report.borrow_mut().started = Some(ctx.now());
                let mut open = vec![0u8; HDR];
                open[0] = K_OPEN;
                put_u16(&mut open, 2, self.total);
                put_u32(&mut open, 4, WINDOW as u32);
                ctx.send_frame(self.server, open);
            }
        }
    }
}

/// Runs a streaming read of `pages` pages between hosts 0 (client) and 1
/// (server); returns ms per page consumed.
pub fn measure_streaming(
    cluster: &mut v_kernel::Cluster,
    pages: u16,
    disk_latency: SimDuration,
    think: SimDuration,
) -> (f64, Probe<RunReport>) {
    // The extra copy uses the client CPU's memory-copy rate.
    let client = cluster.config().hosts[0].cpu;
    let copy_per_byte = v_kernel::CostModel::for_speed(client).copy_mem_per_byte;
    run_raw_pair(
        cluster,
        EtherType::STREAMING,
        Box::new(StreamServer::new(disk_latency, 0x7E)),
        |server, report| {
            Box::new(StreamClient::new(
                server,
                pages,
                think,
                copy_per_byte,
                report,
            ))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use v_kernel::{Cluster, ClusterConfig, CostModel, CpuSpeed, HostId};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz))
    }

    #[test]
    fn the_copy_is_charged_at_the_clients_grade() {
        // The same 8 MHz stream twice, once with a client that copies for
        // free: the client host's processor time differs by the copies.
        let speed = CpuSpeed::Mc68000At8MHz;
        let pair = || Cluster::new(ClusterConfig::three_mb().with_hosts(2, speed));
        let (pages, disk) = (10, SimDuration::from_millis(15));
        let mut charged = pair();
        measure_streaming(&mut charged, pages, disk, SimDuration::ZERO);
        let mut free = pair();
        run_raw_pair(
            &mut free,
            EtherType::STREAMING,
            Box::new(StreamServer::new(disk, 0x7E)),
            |server, report| {
                Box::new(StreamClient::new(
                    server,
                    pages,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    report,
                ))
            },
        );
        let copies = charged.cpu_busy(HostId(0)).as_nanos() - free.cpu_busy(HostId(0)).as_nanos();
        let per_byte = CostModel::for_speed(speed).copy_mem_per_byte.as_nanos();
        assert_eq!(copies / u64::from(pages), PAGE as u64 * per_byte);
    }

    #[test]
    fn streaming_approaches_the_disk_floor() {
        let mut cl = cluster();
        let (ms, st) = measure_streaming(
            &mut cl,
            200,
            SimDuration::from_millis(15),
            SimDuration::ZERO,
        );
        assert_eq!(st.borrow().integrity_errors, 0);
        assert_eq!(st.borrow().iterations, 200);
        // Streaming hides everything but the disk (+ copy): close to 15.
        assert!((15.0..16.5).contains(&ms), "streaming = {ms:.2}");
    }

    #[test]
    fn streaming_gain_over_v_is_bounded() {
        // V request-response sequential access measured ~17.1 ms/page at
        // 15 ms disk latency (Table 6-2); streaming must not beat it by
        // more than ~15 %.
        let mut cl = cluster();
        let (ms, _) = measure_streaming(
            &mut cl,
            200,
            SimDuration::from_millis(15),
            SimDuration::ZERO,
        );
        let v_ms = 17.13;
        let gain = (v_ms - ms) / v_ms;
        assert!(gain < 0.15, "streaming gain {gain:.2} exceeds paper bound");
        assert!(gain > 0.0, "streaming should still win slightly");
    }
}
