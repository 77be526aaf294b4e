//! A diskless workstation's life: boot, resolve the file server by
//! logical id, load a program over the network, then read and write its
//! data files — everything over V IPC, nothing on a local disk.
//!
//! Run with: `cargo run --example diskless_workstation`

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::loader::{install_image, LoadReport, ProgramLoader};
use v_fs::server::FileServerConfig;
use v_fs::{spawn_file_server, BlockStore, DiskModel};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::SimDuration;

fn main() {
    // One file server, two diskless workstations.
    let cfg = ClusterConfig::three_mb()
        .with_host(CpuSpeed::Mc68000At10MHz) // the file server machine
        .with_hosts(2, CpuSpeed::Mc68000At10MHz);
    let mut cluster = Cluster::new(cfg);

    // The server's disk holds a 64 KB "shell" image and a data file.
    let mut store = BlockStore::new();
    install_image(&mut store, "shell", 65536, 0x5C);
    store
        .create_with("motd", &vec![0x42u8; 2048])
        .expect("fresh store");
    let server = spawn_file_server(
        &mut cluster,
        HostId(0),
        FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(15)),
            transfer_unit: 4096,
            ..FileServerConfig::default()
        },
        store,
    )
    .server;

    // Workstation 1 boots by loading the shell (two reads: header, then
    // the image via MoveTo — §6.3).
    let load = std::rc::Rc::new(std::cell::RefCell::new(LoadReport::default()));
    cluster.spawn(
        HostId(1),
        "ws1-boot",
        Box::new(ProgramLoader::new(server, "shell", load.clone())),
    );

    // Workstation 2 edits a file: read, modify, write back, re-read.
    let edit = std::rc::Rc::new(std::cell::RefCell::new(FsClientReport::default()));
    cluster.spawn(
        HostId(2),
        "ws2-editor",
        Box::new(FsClient::new(
            server,
            vec![
                FsCall::Open("motd".into()),
                FsCall::QueryExpect(2048),
                FsCall::ReadExpect {
                    block: 0,
                    count: 512,
                    expect: 0x42,
                },
                FsCall::WriteFill {
                    block: 0,
                    count: 512,
                    fill: 0x43,
                },
                FsCall::ReadExpect {
                    block: 0,
                    count: 512,
                    expect: 0x43,
                },
            ],
            edit.clone(),
        )),
    );

    cluster.run();

    let l = load.borrow();
    assert!(l.loaded && l.integrity_errors == 0, "boot failed: {l:?}");
    println!(
        "ws1 loaded 64 KB shell in {:.0} ms ({:.0} KB/s) — paper: ~340 ms remote",
        l.elapsed_ms,
        64.0 / (l.elapsed_ms / 1000.0)
    );

    let e = edit.borrow();
    assert!(e.done && e.errors == 0 && e.integrity_errors == 0, "{e:?}");
    println!(
        "ws2 completed {} file operations, all verified",
        e.completed
    );

    println!(
        "file server CPU utilization: {:.1}%",
        cluster.cpu_utilization(HostId(0)) * 100.0
    );
}
