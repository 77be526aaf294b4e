//! A boot storm over a replicated read-only root — with the primary
//! replica crashing in the middle of it.
//!
//! Three read-only root replicas (cloned stores, identical file ids)
//! serve four diskless workstations reading the boot image. A chaos
//! schedule crashes the primary's host mid-storm; each client absorbs
//! one slow read (the kernel's retransmission budget is the failure
//! detector — ~2.6 s before `HostDown` at the defaults), fails over,
//! and finishes against the survivors. The per-client tables show the
//! spike confined to a single operation.
//!
//! Run with: `cargo run --release --example failover_demo`

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport, OpSeries};
use v_fs::replica::spawn_replica_group;
use v_fs::{BlockStore, DiskModel, FileServerConfig, BLOCK_SIZE};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::{SimDuration, SimTime};
use v_workloads::chaos::{run_with_faults, FaultSchedule};

const REPLICAS: usize = 3;
const WORKSTATIONS: usize = 4;
const BOOT_BLOCKS: u32 = 48;

fn main() {
    // Hosts 0..2: replicas; hosts 3..6: workstations.
    let cfg =
        ClusterConfig::three_mb().with_hosts(REPLICAS + WORKSTATIONS, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);

    let mut store = BlockStore::new();
    store
        .create_with("vmunix", &vec![0x7E; BOOT_BLOCKS as usize * BLOCK_SIZE])
        .expect("fresh store");
    let fs_cfg = FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(2)),
        ..FileServerConfig::default()
    };
    let hosts: Vec<HostId> = (0..REPLICAS).map(HostId).collect();
    let group = spawn_replica_group(&mut cl, &hosts, &fs_cfg, &store);
    let pids: Vec<_> = group.iter().map(|t| t.server).collect();
    cl.run(); // replicas blocked in Receive

    // Every workstation boots: open the image, read it block by block.
    let mut script = vec![FsCall::Open("vmunix".into())];
    for b in 0..BOOT_BLOCKS {
        script.push(FsCall::ReadExpect {
            block: b,
            count: BLOCK_SIZE as u32,
            expect: 0x7E,
        });
    }
    // Each workstation's report, and its per-read (completed_at, latency).
    type Slots = (Rc<RefCell<FsClientReport>>, OpSeries);
    let reports: Vec<Slots> = (0..WORKSTATIONS)
        .map(|i| {
            let (rep, op_ms) = Slots::default();
            cl.spawn(
                HostId(REPLICAS + i),
                "workstation",
                Box::new(
                    FsClient::replicated(pids.clone(), script.clone(), rep.clone())
                        .with_op_series(op_ms.clone()),
                ),
            );
            (rep, op_ms)
        })
        .collect();

    // The chaos schedule: the primary dies 100 ms into the boot storm.
    let crash_at = SimTime::from_millis(100);
    let schedule = FaultSchedule::new().crash_at(crash_at, HostId(0));
    run_with_faults(&mut cl, schedule);

    println!("boot storm over a replicated read-only root, primary crashed at 100 ms\n");
    println!("workstation | reads | failovers | worst read ms | median read ms");
    println!("------------+-------+-----------+---------------+---------------");
    for (i, (rep, op_ms)) in reports.iter().enumerate() {
        let r = rep.borrow();
        assert!(r.done && !r.gave_up, "workstation {i} failed: {r:?}");
        assert_eq!(r.integrity_errors, 0, "workstation {i}: {r:?}");
        let mut lats: Vec<f64> = op_ms.borrow().iter().skip(1).map(|&(_, l)| l).collect();
        lats.sort_by(f64::total_cmp);
        let worst = lats.last().copied().unwrap_or(0.0);
        let median = lats.get(lats.len() / 2).copied().unwrap_or(0.0);
        println!(
            "{i:>11} | {:>5} | {:>9} | {worst:>13.1} | {median:>14.2}",
            r.completed - 1, // minus the open
            r.failovers,
        );
    }
    println!();
    println!("every workstation finished its boot: one read per client absorbed the");
    println!("failure-detection wait (the retransmission budget), the rest ran at");
    println!("steady latency against the surviving replicas.");
}
