//! Integration tests: exactly-once message-exchange semantics over an
//! unreliable network, the alien-pool bound, and transfer recovery.

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::server::{FileServer, FileServerConfig};
use v_fs::{BlockStore, DiskModel};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_net::FaultPlan;
use v_sim::SimDuration;
use v_workloads::echo::{EchoServer, Pinger};
use v_workloads::measure::probe;
use v_workloads::mover::{Grantor, MoveDir, Mover};

fn storm_config(faults: FaultPlan) -> ClusterConfig {
    let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
    cfg.faults = faults;
    cfg.protocol.retransmit_timeout = SimDuration::from_millis(15);
    cfg.protocol.transfer_timeout = SimDuration::from_millis(15);
    cfg
}

#[test]
fn exchanges_complete_exactly_once_under_loss_dup_and_corruption() {
    let mut cl = Cluster::new(storm_config(FaultPlan {
        loss: 0.08,
        duplicate: 0.05,
        corrupt: 0.04,
    }));
    let server = cl.spawn(HostId(1), "echo", Box::new(EchoServer));
    let rep = probe(Default::default());
    cl.spawn(
        HostId(0),
        "pinger",
        Box::new(Pinger::new(server, 400, rep.clone())),
    );
    cl.run();
    let r = rep.borrow();
    assert_eq!(r.iterations, 400);
    assert_eq!(r.failures, 0);
    // The payload word is checked per-exchange: duplicates delivered to
    // the application would show up as integrity errors.
    assert_eq!(r.integrity_errors, 0);
    let c = cl.kernel_stats(HostId(0));
    let s = cl.kernel_stats(HostId(1));
    assert!(c.retransmissions > 0, "storm must force retransmissions");
    assert!(
        s.duplicates_filtered > 0 || s.replies_retransmitted > 0,
        "server must have seen duplicates: {s:?}"
    );
    assert!(
        c.checksum_drops + s.checksum_drops > 0,
        "corruption must be caught"
    );
}

#[test]
fn bulk_transfers_recover_and_deliver_intact_data_under_loss() {
    for dir in [MoveDir::To, MoveDir::From] {
        let mut cl = Cluster::new(storm_config(FaultPlan {
            loss: 0.05,
            duplicate: 0.02,
            corrupt: 0.02,
        }));
        let rep = probe(Default::default());
        let mover = cl.spawn(
            HostId(0),
            "mover",
            Box::new(Mover::new(30, 8192, dir, 0x3C, rep.clone())),
        );
        cl.spawn(
            HostId(1),
            "grantor",
            Box::new(Grantor {
                mover,
                size: 8192,
                pattern: 0x3C,
                dir,
                report: rep.clone(),
            }),
        );
        cl.run();
        let r = rep.borrow();
        assert_eq!(r.iterations, 30, "{dir:?}: {r:?}");
        assert_eq!(r.failures, 0, "{dir:?}");
        // Content verified by the programs themselves.
        assert_eq!(r.integrity_errors, 0, "{dir:?}");
        let resumes = cl.kernel_stats(HostId(0)).transfer_resumes
            + cl.kernel_stats(HostId(1)).transfer_resumes;
        assert!(resumes > 0, "{dir:?}: loss must force transfer recovery");
    }
}

#[test]
fn file_content_survives_the_storm() {
    let mut cfg = storm_config(FaultPlan {
        loss: 0.05,
        duplicate: 0.03,
        corrupt: 0.03,
    });
    cfg.hosts[1].cpu = CpuSpeed::Mc68000At10MHz;
    let mut cl = Cluster::new(cfg);
    let mut store = BlockStore::new();
    store.create_with("f", &vec![0x11u8; 4096]).unwrap();
    let server = cl.spawn(
        HostId(1),
        "fileserver",
        Box::new(FileServer::new(
            FileServerConfig {
                disk: DiskModel::fixed(SimDuration::from_millis(1)),
                ..FileServerConfig::default()
            },
            store,
        )),
    );
    let rep = std::rc::Rc::new(std::cell::RefCell::new(FsClientReport::default()));
    let mut script = vec![FsCall::Open("f".into())];
    for round in 0u8..8 {
        script.push(FsCall::WriteFill {
            block: (round % 8) as u32,
            count: 512,
            fill: round * 7 + 1,
        });
        script.push(FsCall::ReadExpect {
            block: (round % 8) as u32,
            count: 512,
            expect: round * 7 + 1,
        });
    }
    script.push(FsCall::ReadLargeExpect {
        block: 7,
        count: 512,
        expect: 7 * 7 + 1,
    });
    cl.spawn(
        HostId(0),
        "fsclient",
        Box::new(FsClient::new(server, script, rep.clone())),
    );
    cl.run();
    let r = rep.borrow();
    assert!(r.done, "{:?}", *r);
    assert_eq!(r.errors, 0);
    assert_eq!(r.integrity_errors, 0);
    // The medium's corruption draws do not depend on the checksum
    // algorithm, so which frames a kernel refuses is a property of the
    // seed alone: each corrupted frame is exactly one drop, at the host
    // it was addressed to.
    let drops = [HostId(0), HostId(1)].map(|h| cl.kernel_stats(h).checksum_drops);
    assert_eq!(drops, [1, 1]);
    assert_eq!(cl.medium_stats().corrupted, 2);
}

#[test]
fn alien_pool_exhaustion_degrades_to_reply_pending_not_loss() {
    // 8 remote clients hammer a server whose kernel has only 2 alien
    // descriptors: messages get refused with reply-pending, senders
    // retry, and every exchange still completes.
    let mut cfg = ClusterConfig::three_mb().with_hosts(9, CpuSpeed::Mc68000At10MHz);
    cfg.protocol.alien_pool = 2;
    cfg.protocol.alien_keep = SimDuration::from_millis(5);
    cfg.protocol.retransmit_timeout = SimDuration::from_millis(10);
    let mut cl = Cluster::new(cfg);
    let server = cl.spawn(HostId(0), "echo", Box::new(EchoServer));
    let reps: Vec<_> = (1..=8)
        .map(|i| {
            let rep = probe(Default::default());
            cl.spawn(
                HostId(i),
                "pinger",
                Box::new(Pinger::new(server, 50, rep.clone())),
            );
            rep
        })
        .collect();
    cl.run();
    for rep in &reps {
        let r = rep.borrow();
        assert_eq!(r.iterations, 50);
        assert_eq!(r.failures, 0);
    }
    let s = cl.kernel_stats(HostId(0));
    assert!(
        s.aliens_exhausted > 0 && s.reply_pending_sent > 0,
        "pool pressure must be visible: {s:?}"
    );
}

#[test]
fn ten_mb_learned_addressing_discovers_hosts() {
    let mut cl = Cluster::new(ClusterConfig::ten_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz));
    let server = cl.spawn(HostId(1), "echo", Box::new(EchoServer));
    let rep = probe(Default::default());
    cl.spawn(
        HostId(0),
        "pinger",
        Box::new(Pinger::new(server, 50, rep.clone())),
    );
    cl.run();
    assert!(rep.borrow().clean());
    // The first packet went out by broadcast; afterwards the mapping is
    // learned and traffic is unicast.
    let m = cl.medium_stats();
    assert!(m.frames_sent >= 100);
    // Deliveries ≈ frames (unicast) plus one extra per broadcast victim.
    let overhead = m.deliveries - m.frames_sent;
    assert!(
        overhead <= 4,
        "learned addressing should quickly stop broadcasting: {m:?}"
    );
}
