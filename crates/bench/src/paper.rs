//! The paper's published numbers, transcribed for side-by-side output.
//!
//! All times in milliseconds. Source: Cheriton & Zwaenepoel, SOSP 1983,
//! Tables 4-1, 5-1, 5-2, 6-1, 6-2, 6-3 and §§5.4, 7, 8.

/// Table 4-1 — 3 Mb network penalty: (bytes, 8 MHz ms, 10 MHz ms).
pub const TABLE_4_1: [(usize, f64, f64); 5] = [
    (64, 0.80, 0.65),
    (128, 1.20, 0.96),
    (256, 2.00, 1.62),
    (512, 3.65, 3.00),
    (1024, 6.95, 5.83),
];

/// One row of Tables 5-1 / 5-2.
#[derive(Debug, Clone, Copy)]
pub struct KernelPerfRow {
    /// Operation name.
    pub op: &'static str,
    /// Elapsed ms, local execution.
    pub local: f64,
    /// Elapsed ms, remote execution (0 = not measured).
    pub remote: f64,
    /// Network penalty ms attributed by the paper.
    pub penalty: f64,
    /// Client processor ms.
    pub client: f64,
    /// Server processor ms.
    pub server: f64,
}

/// Table 5-1 — kernel performance, 8 MHz, 3 Mb Ethernet.
pub const TABLE_5_1: [KernelPerfRow; 4] = [
    KernelPerfRow {
        op: "GetTime",
        local: 0.07,
        remote: 0.0,
        penalty: 0.0,
        client: 0.0,
        server: 0.0,
    },
    KernelPerfRow {
        op: "Send-Receive-Reply",
        local: 1.00,
        remote: 3.18,
        penalty: 1.60,
        client: 1.79,
        server: 2.30,
    },
    KernelPerfRow {
        op: "MoveFrom 1024B",
        local: 1.26,
        remote: 9.03,
        penalty: 8.15,
        client: 3.76,
        server: 5.69,
    },
    KernelPerfRow {
        op: "MoveTo 1024B",
        local: 1.26,
        remote: 9.05,
        penalty: 8.15,
        client: 3.59,
        server: 5.87,
    },
];

/// Table 5-2 — kernel performance, 10 MHz, 3 Mb Ethernet.
pub const TABLE_5_2: [KernelPerfRow; 4] = [
    KernelPerfRow {
        op: "GetTime",
        local: 0.06,
        remote: 0.0,
        penalty: 0.0,
        client: 0.0,
        server: 0.0,
    },
    KernelPerfRow {
        op: "Send-Receive-Reply",
        local: 0.77,
        remote: 2.54,
        penalty: 1.30,
        client: 1.44,
        server: 1.79,
    },
    KernelPerfRow {
        op: "MoveFrom 1024B",
        local: 0.95,
        remote: 8.00,
        penalty: 6.77,
        client: 3.32,
        server: 4.78,
    },
    KernelPerfRow {
        op: "MoveTo 1024B",
        local: 0.95,
        remote: 8.00,
        penalty: 6.77,
        client: 3.17,
        server: 4.95,
    },
];

/// Table 6-1 — 512-byte page access, 10 MHz: page read then page write.
pub const TABLE_6_1: [KernelPerfRow; 2] = [
    KernelPerfRow {
        op: "page read",
        local: 1.31,
        remote: 5.56,
        penalty: 3.89,
        client: 2.50,
        server: 3.28,
    },
    KernelPerfRow {
        op: "page write",
        local: 1.31,
        remote: 5.60,
        penalty: 3.89,
        client: 2.58,
        server: 3.32,
    },
];

/// §6.1: a 512-byte Thoth-style write (Send-Receive-MoveFrom-Reply).
pub const THOTH_WRITE_512: f64 = 8.1;
/// §6.1: the savings the segment mechanism buys per page operation.
pub const SEGMENT_SAVINGS: f64 = 3.5;

/// Table 6-2 — sequential access: (disk latency ms, elapsed ms/page).
pub const TABLE_6_2: [(u64, f64); 3] = [(10, 12.02), (15, 17.13), (20, 22.22)];

/// Table 6-3 — 64 KB read: (transfer unit bytes, local ms, remote ms,
/// client CPU ms, server CPU ms).
pub const TABLE_6_3: [(u32, f64, f64, f64, f64); 4] = [
    (1024, 71.7, 518.3, 207.1, 297.9),
    (4096, 62.5, 368.4, 176.1, 225.2),
    (16384, 60.2, 344.6, 170.0, 216.9),
    (65536, 59.7, 335.4, 168.1, 212.7),
];

/// §5.4 — two concurrent pairs with the buggy interface: exchange time.
pub const MULTIPAIR_BUGGY_MS: f64 = 3.4;
/// §5.4 — offered load of one maximum-speed pair (bits/second).
pub const PAIR_OFFERED_LOAD_BPS: f64 = 400_000.0;
/// §5.4 — server-processor-limited exchange ceiling (exchanges/second).
pub const SERVER_EXCHANGE_CEILING: f64 = 558.0;

/// §7 — estimated processor cost of a page request (ms: 3.5 file system
/// + 3.3 kernel).
pub const FS_PAGE_REQUEST_CPU_MS: f64 = 7.0;
/// §7 — estimated cost of an average 64 KB program load (ms).
pub const FS_PROGRAM_LOAD_CPU_MS: f64 = 300.0;
/// §7 — average request cost under the 90/10 mix (ms).
pub const FS_MIX_AVG_CPU_MS: f64 = 36.0;
/// §7 — requests/second one file server sustains.
pub const FS_REQUESTS_PER_SEC: f64 = 28.0;

/// §8 — 10 Mb Ethernet, 8 MHz processors: remote exchange ms.
pub const TEN_MB_SRR_MS: f64 = 2.71;
/// §8 — page read ms.
pub const TEN_MB_PAGE_READ_MS: f64 = 5.72;
/// §8 — 64 KB load with 16 KB transfer units, ms.
pub const TEN_MB_LOAD_64K_MS: f64 = 255.0;

/// §3 — IP encapsulation increased the basic exchange time by ~20 %.
pub const IP_ENCAP_OVERHEAD_FRACTION: f64 = 0.20;
/// §3 — a process-level network server multiplied exchange time by ~4.
pub const NETSERVER_SLOWDOWN_FACTOR: f64 = 4.0;

/// §6.2 — streaming could improve sequential access by at most ~15 %.
pub const STREAMING_MAX_IMPROVEMENT: f64 = 0.15;
