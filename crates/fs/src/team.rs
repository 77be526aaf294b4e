//! File-server **teams**: a receptionist plus N workers, pipelined with
//! the kernel's `Forward` primitive.
//!
//! The paper's §7 sizes one file server's capacity under concurrent
//! client load; a single sequential server process serializes every
//! request — a 15 ms disk wait blocks the receive and file-system
//! processing of the next request behind it. The V answer is a server
//! *team*:
//!
//! ```text
//!                    ┌────────────┐   Forward    ┌──────────┐
//!   clients ──Send──▶│receptionist│─────────────▶│ worker 1 │──Reply──▶ client
//!                    │ (receives, │              ├──────────┤
//!                    │  never     │─────────────▶│ worker 2 │──Reply──▶ client
//!                    │  serves)   │      ▲       ├──────────┤
//!                    └────────────┘      │       │    ⋮     │
//!                          ▲        idle notify  └──────────┘
//!                          └─────────────┴── shared store + disk + stats
//! ```
//!
//! * the **receptionist** only `ReceiveWithSegment`s: it registers the
//!   service's logical id, forwards each client request to an idle
//!   worker (the kernel rebinds the client, so the worker's
//!   `Reply`/`MoveTo`/`MoveFrom` reach the client directly), and parks
//!   requests when every worker is busy;
//! * each **worker** is an ordinary [`FileServer`] state machine in
//!   worker mode: serve, reply to the client, then `Send` a one-message
//!   idle notification to the receptionist (the classic V idiom for
//!   "give me more work");
//! * the [`BlockStore`], the [`DiskModel`] and the [`FileServerStats`]
//!   are shared across the team, so one request's disk wait overlaps
//!   the next request's receive and file-system CPU. With a single arm
//!   concurrent disk requests still queue behind each other; a striped
//!   multi-arm unit ([`FileServerConfig::disk_arms`]` >= 2`) lets the
//!   workers overlap the seeks themselves.
//!
//! [`FileServerConfig::workers`]` == 1` bypasses the team entirely and
//! spawns the sequential server, bit-identical to the pre-team code.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use v_kernel::{Api, Cluster, HostId, Message, Outcome, Pid, Program, Scope};

use crate::disk::DiskModel;
use crate::migrate::MigrationAgent;
use crate::server::{
    FileServer, FileServerConfig, FileServerStats, FileTable, SharedServerState, SRV_IN,
};
use crate::store::BlockStore;
use crate::BLOCK_SIZE;

/// Handles to a spawned file service (team or sequential) — the one
/// handle every deployment gets, whether the service stands alone, is a
/// shard ([`crate::shard`]) or a replica ([`crate::replica`]).
pub struct FileServerTeam {
    /// The process clients (and `MigrateBegin`/`Commit`/`Abort`)
    /// address: the receptionist, or the sequential server itself when
    /// `workers == 1`.
    pub server: Pid,
    /// Worker pids (just the server for the sequential case).
    pub workers: Vec<Pid>,
    /// The team's shared counters.
    pub stats: Rc<RefCell<FileServerStats>>,
    /// The team's file table: per-file heat, cache holders, drains and
    /// writes in flight, and where migrated files went.
    pub files: Rc<RefCell<FileTable>>,
    /// The team's shared disk unit: its queue-depth / busy-time
    /// counters, aggregate ([`DiskModel::stats`]) and per arm
    /// ([`DiskModel::per_arm_stats`]).
    pub disk: Rc<RefCell<DiskModel>>,
    /// The destination-side migration agent (`MigratePull` goes here),
    /// once [`FileServerTeam::attach_migration_agent`] has spawned one.
    pub agent: Option<Pid>,
    host: HostId,
    shared: SharedServerState,
}

impl FileServerTeam {
    /// Co-locates a [`MigrationAgent`] sharing the team's store, disk
    /// and stats, so the service can *receive* live migrations (the
    /// agent adopts files into the same store the workers serve from).
    /// The agent never speaks unless pulled, so a service that no
    /// rebalancer ever touches behaves exactly like an agent-less one.
    pub fn attach_migration_agent(&mut self, cl: &mut Cluster) -> Pid {
        let agent = MigrationAgent::new(self.shared.clone());
        let pid = cl.spawn(self.host, "fs-migrate", Box::new(agent));
        self.agent = Some(pid);
        pid
    }
}

/// The receptionist: receives every request, forwards each to an idle
/// worker, and parks the backlog while all workers are busy.
struct Receptionist {
    register: Option<u32>,
    /// Worker pids, filled in by the spawner after the workers exist.
    workers: Rc<RefCell<Vec<Pid>>>,
    /// Workers waiting for a request.
    idle: VecDeque<Pid>,
    /// Requests received while every worker was busy.
    parked: VecDeque<(Pid, Message)>,
    stats: Rc<RefCell<FileServerStats>>,
}

impl Receptionist {
    /// Hands `(from, msg)` to `worker`, skipping dead clients.
    fn assign(&mut self, api: &mut Api<'_>, worker: Pid, from: Pid, msg: Message) -> bool {
        match api.forward(msg, from, worker) {
            Ok(()) => {
                self.stats.borrow_mut().forwarded += 1;
                true
            }
            Err(_) => {
                // The client vanished (or was never ours to forward);
                // the worker stays available.
                self.stats.borrow_mut().errors += 1;
                false
            }
        }
    }

    /// A worker reported idle: give it parked work or queue it.
    fn worker_idle(&mut self, api: &mut Api<'_>, worker: Pid) {
        while let Some((from, msg)) = self.parked.pop_front() {
            if self.assign(api, worker, from, msg) {
                return;
            }
        }
        self.idle.push_back(worker);
    }

    /// A client request arrived: forward to an idle worker or park it.
    fn client_request(&mut self, api: &mut Api<'_>, from: Pid, msg: Message) {
        if let Some(worker) = self.idle.pop_front() {
            if !self.assign(api, worker, from, msg) {
                // Forward refused: the *client* is gone; the worker is
                // still idle. Put it back and drop the request.
                self.idle.push_front(worker);
            }
            return;
        }
        self.parked.push_back((from, msg));
        let depth = self.parked.len() as u64;
        let mut st = self.stats.borrow_mut();
        st.parked_peak = st.parked_peak.max(depth);
    }
}

impl Program for Receptionist {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                if let Some(id) = self.register {
                    api.set_pid(id, api.self_pid(), Scope::Both);
                }
                api.receive_with_segment(SRV_IN, BLOCK_SIZE as u32);
            }
            Outcome::ReceiveSeg { from, msg, .. } => {
                if self.workers.borrow().contains(&from) {
                    // Idle notification from one of our workers.
                    let _ = api.reply(Message::empty(), from);
                    self.worker_idle(api, from);
                } else {
                    self.client_request(api, from, msg);
                }
                api.receive_with_segment(SRV_IN, BLOCK_SIZE as u32);
            }
            _ => api.exit(),
        }
    }
}

/// Spawns a file service on `host`: the sequential server for
/// `cfg.workers <= 1` (bit-identical to the pre-team implementation),
/// or a receptionist plus `cfg.workers` worker processes sharing
/// `store`, one disk unit and one stats block. The disk unit honours
/// [`FileServerConfig::disk_arms`]: with `>= 2` arms the team's
/// concurrent requests stripe across arms instead of queueing behind
/// one. `cfg.register` is the logical id the service answers `GetPid`
/// for — a shard's [`crate::shard::ShardMap::logical_id`], a replica
/// group's shared id, or the well-known file-server id.
pub fn spawn_file_server(
    cl: &mut Cluster,
    host: HostId,
    cfg: FileServerConfig,
    store: BlockStore,
) -> FileServerTeam {
    let shared = SharedServerState::new(cfg.build_disk(), store);
    let (server, workers) = if cfg.workers <= 1 {
        let server = FileServer::with_shared(cfg, shared.clone(), None);
        let pid = cl.spawn(host, "fileserver", Box::new(server));
        (pid, vec![pid])
    } else {
        let worker_cell: Rc<RefCell<Vec<Pid>>> = Default::default();
        let receptionist = cl.spawn(
            host,
            "fs-receptionist",
            Box::new(Receptionist {
                register: cfg.register,
                workers: worker_cell.clone(),
                idle: VecDeque::new(),
                parked: VecDeque::new(),
                stats: shared.stats.clone(),
            }),
        );
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let wcfg = FileServerConfig {
                register: None,
                ..cfg.clone()
            };
            let worker = FileServer::with_shared(wcfg, shared.clone(), Some(receptionist));
            workers.push(cl.spawn(host, &format!("fs-worker{i}"), Box::new(worker)));
        }
        // Events have not run yet: the receptionist sees the full roster
        // before its first resume.
        *worker_cell.borrow_mut() = workers.clone();
        (receptionist, workers)
    };
    FileServerTeam {
        server,
        workers,
        stats: shared.stats.clone(),
        files: shared.files.clone(),
        disk: shared.disk.clone(),
        agent: None,
        host,
        shared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{FsCall, FsClient, FsClientReport};
    use crate::disk::DiskModel;
    use crate::BLOCK_SIZE;
    use v_kernel::{ClusterConfig, CpuSpeed};
    use v_sim::SimDuration;

    fn team_cluster(clients: usize) -> Cluster {
        Cluster::new(ClusterConfig::three_mb().with_hosts(clients + 1, CpuSpeed::Mc68000At10MHz))
    }

    fn store_with(files: &[(&str, usize)]) -> BlockStore {
        let mut store = BlockStore::new();
        for (name, blocks) in files {
            store
                .create_with(name, &vec![0x7E; blocks * BLOCK_SIZE])
                .unwrap();
        }
        store
    }

    fn read_script(name: &str, reads: u32) -> Vec<FsCall> {
        let mut script = vec![FsCall::Open(name.into())];
        for j in 0..reads {
            script.push(FsCall::ReadExpect {
                block: j % 4,
                count: BLOCK_SIZE as u32,
                expect: 0x7E,
            });
        }
        script
    }

    /// Runs `clients` remote clients against a team of `workers`;
    /// returns (per-client reports, team handle total stats).
    fn run_team(
        workers: usize,
        clients: usize,
        reads: u32,
    ) -> (Vec<FsClientReport>, FileServerTeam) {
        let mut cl = team_cluster(clients);
        let files: Vec<String> = (0..clients).map(|i| format!("vol{i}")).collect();
        let store = store_with(&files.iter().map(|n| (n.as_str(), 4)).collect::<Vec<_>>());
        let cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(5)),
            read_ahead: false,
            register: None,
            workers,
            ..FileServerConfig::default()
        };
        let team = spawn_file_server(&mut cl, HostId(0), cfg, store);
        cl.run(); // team settled: workers idle, receptionist receiving
        let reports: Vec<_> = (0..clients)
            .map(|i| {
                let rep = Rc::new(RefCell::new(FsClientReport::default()));
                cl.spawn(
                    HostId(1 + i),
                    "client",
                    Box::new(FsClient::new(
                        team.server,
                        read_script(&files[i], reads),
                        rep.clone(),
                    )),
                );
                rep
            })
            .collect();
        cl.run();
        let reports = reports.iter().map(|r| r.borrow().clone()).collect();
        (reports, team)
    }

    #[test]
    fn a_team_serves_concurrent_clients_correctly() {
        let (reports, team) = run_team(3, 3, 8);
        for (i, r) in reports.iter().enumerate() {
            assert!(r.done, "client {i}: {r:?}");
            assert_eq!(r.errors, 0, "client {i}: {r:?}");
            assert_eq!(r.integrity_errors, 0, "client {i}: {r:?}");
            assert_eq!(r.completed, 9, "client {i}: {r:?}");
        }
        let st = team.stats.borrow().clone();
        assert_eq!(st.reads, 24);
        assert_eq!(st.meta, 3);
        assert_eq!(st.forwarded, 27, "every request went through Forward");
        let disk = team.disk.borrow().stats();
        assert_eq!(disk.requests, 24);
        assert!(disk.queued > 0, "concurrent load queued the disk: {disk:?}");
    }

    #[test]
    fn a_team_with_fewer_workers_than_clients_parks_the_backlog() {
        let (reports, team) = run_team(2, 4, 6);
        for r in &reports {
            assert!(r.done && r.errors == 0 && r.integrity_errors == 0, "{r:?}");
        }
        let st = team.stats.borrow().clone();
        assert_eq!(st.forwarded, 4 * 7);
        assert!(
            st.parked_peak > 0,
            "4 clients over 2 workers must park: {st:?}"
        );
    }

    #[test]
    fn workers_1_takes_the_sequential_path() {
        let (reports, team) = run_team(1, 2, 5);
        for r in &reports {
            assert!(r.done && r.errors == 0 && r.integrity_errors == 0, "{r:?}");
        }
        let st = team.stats.borrow().clone();
        assert_eq!(st.forwarded, 0, "no receptionist in the sequential path");
        assert_eq!(st.parked_peak, 0);
        assert_eq!(team.workers, vec![team.server]);
        assert_eq!(st.reads, 10);
    }

    /// Writes land via the appended segment re-delivered to the worker,
    /// and large reads exercise the worker-side `MoveTo` stream into
    /// the client's space — both through Forward, cross-host.
    #[test]
    fn writes_and_large_reads_work_through_the_team() {
        let mut cl = team_cluster(2);
        let store = store_with(&[("a", 8), ("b", 8)]);
        let cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(2)),
            read_ahead: false,
            register: None,
            workers: 2,
            ..FileServerConfig::default()
        };
        let team = spawn_file_server(&mut cl, HostId(0), cfg, store);
        cl.run();
        let scripts: Vec<Vec<FsCall>> = vec![
            vec![
                FsCall::Open("a".into()),
                FsCall::WriteFill {
                    block: 1,
                    count: BLOCK_SIZE as u32,
                    fill: 0x55,
                },
                FsCall::ReadExpect {
                    block: 1,
                    count: BLOCK_SIZE as u32,
                    expect: 0x55,
                },
            ],
            vec![
                FsCall::Open("b".into()),
                FsCall::ReadLargeExpect {
                    block: 0,
                    count: 4 * BLOCK_SIZE as u32,
                    expect: 0x7E,
                },
            ],
        ];
        let reports: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(i, script)| {
                let rep = Rc::new(RefCell::new(FsClientReport::default()));
                cl.spawn(
                    HostId(1 + i),
                    "client",
                    Box::new(FsClient::new(team.server, script, rep.clone())),
                );
                rep
            })
            .collect();
        cl.run();
        for rep in &reports {
            let r = rep.borrow().clone();
            assert!(r.done && r.errors == 0 && r.integrity_errors == 0, "{r:?}");
        }
        let st = team.stats.borrow().clone();
        assert_eq!(st.writes, 1);
        assert_eq!(st.large_reads, 1);
        assert_eq!(st.reads, 1);
    }

    /// A large read whose client dies mid-push: the server's `MoveTo`
    /// times out, the request is refused, and that is one error.
    #[test]
    fn a_failed_push_counts_one_error() {
        let mut cl = team_cluster(1);
        let cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(2)),
            register: None,
            ..FileServerConfig::default()
        };
        let team = spawn_file_server(&mut cl, HostId(0), cfg, store_with(&[("big", 32)]));
        cl.run();
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        let script = vec![
            FsCall::Open("big".into()),
            FsCall::ReadLargeExpect {
                block: 0,
                count: 32 * BLOCK_SIZE as u32,
                expect: 0x7E,
            },
        ];
        cl.spawn(
            HostId(1),
            "client",
            Box::new(FsClient::new(team.server, script, rep.clone())),
        );
        let mut t = cl.now();
        while cl.kernel_stats(HostId(0)).chunks_sent == 0 {
            t += SimDuration::from_millis(1);
            cl.run_until(t);
        }
        cl.crash_host(HostId(1));
        cl.run();
        let st = team.stats.borrow().clone();
        assert_eq!(st.large_reads, 0, "{st:?}");
        assert_eq!(st.errors, 1, "{st:?}");
    }
}
