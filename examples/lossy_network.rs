//! Reliability demo: V message exchanges ride an *unreliable* datagram
//! service with no transport layer underneath — the reply is the
//! acknowledgement, retransmission is the recovery, and the alien table
//! filters duplicates. Inject heavy loss, duplication and corruption and
//! every exchange still completes exactly once, with data intact.
//!
//! Run with: `cargo run --example lossy_network`

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::server::FileServerConfig;
use v_fs::{spawn_file_server, BlockStore, DiskModel};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_net::FaultPlan;
use v_sim::SimDuration;
use v_workloads::echo::{EchoServer, Pinger};
use v_workloads::measure::probe;

fn main() {
    // 5% loss, 2% duplication, 2% corruption — far worse than any real
    // local network of the era.
    let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
    cfg.faults = FaultPlan {
        loss: 0.05,
        duplicate: 0.02,
        corrupt: 0.02,
    };
    // Tighten the retransmission timer so the demo converges quickly.
    cfg.protocol.retransmit_timeout = SimDuration::from_millis(20);
    cfg.protocol.transfer_timeout = SimDuration::from_millis(20);
    let mut cluster = Cluster::new(cfg);

    // 500 message exchanges through the storm.
    let echo = cluster.spawn(HostId(1), "echo", Box::new(EchoServer));
    let rep = probe(Default::default());
    cluster.spawn(
        HostId(0),
        "pinger",
        Box::new(Pinger::new(echo, 500, rep.clone())),
    );
    cluster.run();
    let r = rep.borrow();
    assert_eq!(r.iterations, 500, "every exchange must complete");
    assert_eq!(r.failures, 0);
    assert_eq!(r.integrity_errors, 0);
    println!(
        "500/500 exchanges completed; mean {:.2} ms (clean network: 3.18 ms)",
        r.per_op_ms()
    );

    // File operations with real data through the same storm.
    let mut store = BlockStore::new();
    store.create_with("data", &vec![0x7Au8; 8192]).unwrap();
    let server = spawn_file_server(
        &mut cluster,
        HostId(1),
        FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(2)),
            ..FileServerConfig::default()
        },
        store,
    )
    .server;
    let frep = std::rc::Rc::new(std::cell::RefCell::new(FsClientReport::default()));
    let mut script = vec![FsCall::Open("data".into())];
    for i in 0..16 {
        script.push(FsCall::WriteFill {
            block: i % 4,
            count: 512,
            fill: 0x80 + i as u8,
        });
        script.push(FsCall::ReadExpect {
            block: i % 4,
            count: 512,
            expect: 0x80 + i as u8,
        });
    }
    cluster.spawn(
        HostId(0),
        "fsclient",
        Box::new(FsClient::new(server, script, frep.clone())),
    );
    cluster.run();
    let f = frep.borrow();
    assert!(f.done && f.errors == 0 && f.integrity_errors == 0, "{f:?}");
    println!("33/33 file operations verified byte-for-byte");

    let k0 = cluster.kernel_stats(HostId(0));
    let k1 = cluster.kernel_stats(HostId(1));
    let m = cluster.medium_stats();
    println!();
    println!("what it took under the hood:");
    println!(
        "  medium: {} frames ({} dropped, {} corrupted, {} duplicated)",
        m.frames_sent, m.dropped, m.corrupted, m.duplicated
    );
    println!(
        "  client kernel: {} retransmissions, {} checksum drops",
        k0.retransmissions, k0.checksum_drops
    );
    println!(
        "  server kernel: {} duplicates filtered, {} cached replies retransmitted,",
        k1.duplicates_filtered, k1.replies_retransmitted
    );
    println!(
        "                 {} reply-pending packets, {} transfer resumes",
        k1.reply_pending_sent,
        k0.transfer_resumes + k1.transfer_resumes
    );
}
