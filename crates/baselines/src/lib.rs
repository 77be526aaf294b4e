//! Baseline comparators from the paper's related-work discussion.
//!
//! The paper's central performance claim is *comparative*: general-purpose
//! V IPC file access costs about the same as specialized alternatives.
//! This crate implements those alternatives so the claim can be measured
//! rather than asserted:
//!
//! * [`wfs`] — a WFS/LOCUS-style **specialized page-level file access
//!   protocol**: two raw datagrams per page, minimal processing. This is
//!   the "problem-oriented" lower bound V IPC is compared against. Its
//!   client is `v_workloads`' one raw closed loop, the Table 4-1
//!   initiator, sending a page-read request.
//! * [`streaming`] — a **windowed streaming** file-read protocol with
//!   client-side buffering, the conventional way to hide network latency
//!   in sequential access (§6.2 argues it buys ≤ 15 %).
//! * [`relay`] — the **process-level network server** architecture the
//!   paper rejected in §3 ("a factor of four increase in the remote
//!   message exchange time"): remote sends hop through user-level relay
//!   processes, each aimed at its next hop, instead of being handled in
//!   the kernel. The exchange loop is `v_workloads`' own `Pinger`.
//!
//! Both raw protocols run through the one raw-pair procedure of
//! `v_workloads::measure` that Table 4-1 runs, and share one field codec.
//!
//! The fourth comparison of §3 — IP encapsulation of interkernel packets
//! (~20 % slower) — needs no code here: it is a kernel configuration
//! (`Encapsulation::Ip` in `v-kernel`).

pub mod relay;
pub mod streaming;
pub mod wfs;

/// Writes `v` little-endian at `off`.
fn put_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Writes `v` little-endian at `off`.
fn put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u16` at `off`.
fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}

/// Reads a little-endian `u32` at `off`.
fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}
