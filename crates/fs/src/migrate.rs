//! Live file migration between file-service shards — the *mechanism*
//! half of dynamic rebalancing (the policy lives in
//! [`crate::rebalance`]).
//!
//! A move is four ordinary V exchanges, driven by the rebalancer:
//!
//! ```text
//!  rebalancer ──MigrateBegin──▶ old owner     freeze writes (drain);
//!                 ◀─reply──     name + length come back
//!  rebalancer ──MigratePull──▶ dest agent     adopt the id, then pull
//!                                  │          every block from the old
//!                                  └─Read*──▶ old owner (ordinary reads)
//!                 ◀─reply──                   copy complete
//!  rebalancer ──MigrateCommit─▶ old owner     drop the file; Forward
//!                 ◀─reply──                   all later requests
//! ```
//!
//! The protocol needs nothing the paper's I/O protocol doesn't already
//! have: the copy stream is plain block reads, the name rides a
//! segment, and the ownership flip is one message. Reads keep flowing
//! at the old owner throughout the copy (the drain freezes *writes*
//! only, refusing them with a retry-after so the team never blocks);
//! after the commit, stale requests are `Forward`ed to the new owner
//! and clients self-correct off the reply's `owner` stamp. A failure
//! at any point before the commit aborts cleanly: the destination
//! drops its partial copy and the old owner lifts the drain.
//!
//! A service becomes a possible destination when its handle grows an
//! agent: [`crate::team::FileServerTeam::attach_migration_agent`].

use v_kernel::{Access, Api, Message, Outcome, Pid, Program};

use crate::proto::{IoOp, IoReply, IoRequest, IoStatus};
use crate::server::SharedServerState;
use crate::store::{FileId, StoreError};
use crate::BLOCK_SIZE;

/// Where the agent's incoming request segments (file names) land.
pub const AGENT_IN: u32 = 0x0400;
/// Staging buffer the agent pulls blocks into (the space is 256 KiB,
/// so this sits in the top quarter, clear of [`AGENT_IN`]).
pub const AGENT_BUF: u32 = 0x30000;

/// Request builders for the migration exchanges (the rebalancer's stub
/// routines, mirroring [`crate::client::stub`]).
pub mod stub {
    use super::*;

    /// `MigrateBegin` to the old owner: freeze writes to `file` and
    /// deposit its name into the caller's buffer at
    /// `name_buf`/`name_cap` (write access granted for the reply
    /// segment). The reply carries the file length in `value` and the
    /// name length in `aux`.
    pub fn begin(file: FileId, name_buf: u32, name_cap: u32, tag: u16) -> Message {
        let req = IoRequest {
            buffer: name_buf,
            ..IoRequest::new(IoOp::MigrateBegin, file, tag)
        };
        req.encode_granting(name_buf, name_cap, Access::Write)
    }

    /// `MigratePull` to the destination's migration agent: adopt
    /// `file` (`len` bytes, named by the granted segment) and copy its
    /// blocks from the service at raw pid `src`.
    pub fn pull(
        file: FileId,
        len: u32,
        src: u32,
        name_addr: u32,
        name_len: u32,
        tag: u16,
    ) -> Message {
        let req = IoRequest {
            count: len,
            aux: src,
            ..IoRequest::new(IoOp::MigratePull, file, tag)
        };
        req.encode_granting(name_addr, name_len, Access::Read)
    }

    /// `MigrateCommit` to the old owner: the destination holds a full
    /// copy — drop the file and forward later requests to the service
    /// at raw pid `new_owner`.
    pub fn commit(file: FileId, new_owner: u32, tag: u16) -> Message {
        IoRequest {
            aux: new_owner,
            ..IoRequest::new(IoOp::MigrateCommit, file, tag)
        }
        .encode()
    }

    /// `MigrateAbort` to the old owner: the copy failed — lift the
    /// drain and keep serving the file.
    pub fn abort(file: FileId, tag: u16) -> Message {
        IoRequest::new(IoOp::MigrateAbort, file, tag).encode()
    }
}

enum AgentPhase {
    Idle,
    /// Block `next` of `total` is on the wire to the source service.
    Pulling {
        next: u32,
        total: u32,
    },
    /// Block `next` is landing on the local disk.
    DiskWrite {
        next: u32,
        total: u32,
    },
}

/// The destination side of a live migration, spawned beside a service
/// by [`crate::team::FileServerTeam::attach_migration_agent`]: adopts
/// the file id into the co-located service's store, pulls every block
/// from the old owner with ordinary reads, charges the local disk for
/// each landed block, and answers the rebalancer's `MigratePull` once
/// the copy is complete. One migration at a time; a failure mid-copy (the source
/// host dies, a read errors) drops the partial adoptee and reports the
/// failure, leaving the file intact at the old owner.
pub struct MigrationAgent {
    shared: SharedServerState,
    phase: AgentPhase,
    /// The in-progress pull: requester, request, and source service.
    current: Option<(Pid, IoRequest, Pid)>,
}

impl MigrationAgent {
    pub(crate) fn new(shared: SharedServerState) -> MigrationAgent {
        MigrationAgent {
            shared,
            phase: AgentPhase::Idle,
            current: None,
        }
    }

    fn rearm(&mut self, api: &mut Api<'_>) {
        self.phase = AgentPhase::Idle;
        self.current = None;
        api.receive_with_segment(AGENT_IN, 256);
    }

    fn reply_status(&mut self, api: &mut Api<'_>, status: IoStatus, value: u32) {
        let (from, req, _) = self.current.as_ref().expect("pull in progress");
        let reply = IoReply {
            status,
            file: req.file,
            value,
            aux: 0,
            owner: 0,
            tag: req.tag,
        }
        .encode();
        let _ = api.reply(reply, *from);
        self.rearm(api);
    }

    /// Drops the partial adoptee and reports the failed copy — the
    /// file stays where it was.
    fn abort_pull(&mut self, api: &mut Api<'_>) {
        let file = self.current.as_ref().expect("pull in progress").1.file;
        let _ = self.shared.store.borrow_mut().remove(file);
        self.reply_status(api, IoStatus::Error, 0);
    }

    fn pull_next(&mut self, api: &mut Api<'_>, next: u32, total: u32) {
        let (_, req, src) = self.current.as_ref().expect("pull in progress");
        let (file, tag, src) = (req.file, req.tag, *src);
        self.phase = AgentPhase::Pulling { next, total };
        api.send(
            crate::client::stub::read(file, next, BLOCK_SIZE as u32, AGENT_BUF, tag),
            src,
        );
    }

    fn finish_pull(&mut self, api: &mut Api<'_>, blocks: u32) {
        {
            let mut st = self.shared.stats.borrow_mut();
            st.migrated_in += 1;
        }
        self.reply_status(api, IoStatus::Ok, blocks);
    }
}

impl Program for MigrationAgent {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => self.rearm(api),
            Outcome::ReceiveSeg { from, msg, seg_len } => {
                let Some(req) = IoRequest::decode(&msg) else {
                    let _ = api.reply(IoReply::refusal(&msg).encode(), from);
                    self.rearm(api);
                    return;
                };
                let src = Pid::from_raw(req.aux);
                if req.op != IoOp::MigratePull || src.is_none() || seg_len == 0 {
                    self.current = Some((from, req, from));
                    self.reply_status(api, IoStatus::Error, 0);
                    return;
                }
                let name_bytes = api.mem_read(AGENT_IN, seg_len as usize).expect("in buffer");
                let name = String::from_utf8_lossy(&name_bytes).into_owned();
                self.current = Some((from, req, src.expect("checked")));
                let size = req.count as usize;
                let adopted = self.shared.store.borrow_mut().adopt(req.file, &name, size);
                match adopted {
                    Err(StoreError::Exists) => self.reply_status(api, IoStatus::Exists, 0),
                    Err(_) => self.reply_status(api, IoStatus::Error, 0),
                    Ok(()) => {
                        let total = req.count.div_ceil(BLOCK_SIZE as u32);
                        if total == 0 {
                            self.finish_pull(api, 0);
                        } else {
                            self.pull_next(api, 0, total);
                        }
                    }
                }
            }
            Outcome::Send(Ok(reply)) => {
                let AgentPhase::Pulling { next, total } = self.phase else {
                    api.exit();
                    return;
                };
                let reply = IoReply::decode(&reply);
                if reply.status != IoStatus::Ok {
                    self.abort_pull(api);
                    return;
                }
                let file = self.current.as_ref().expect("pull in progress").1.file;
                let data = api
                    .mem_read(AGENT_BUF, reply.value as usize)
                    .expect("staging fits");
                let n = data.len();
                self.shared
                    .store
                    .borrow_mut()
                    .write_block(file, next, &data)
                    .expect("adopted file accepts its own blocks");
                // The landed block costs a local disk write, contending
                // with the destination's live traffic like any other.
                let done = self.shared.disk.borrow_mut().request_striped(
                    api.now(),
                    file.0 as u32,
                    next,
                    n,
                );
                self.phase = AgentPhase::DiskWrite { next, total };
                api.delay(done.since(api.now()));
            }
            // The source service's host died mid-copy: clean abort —
            // the partial copy is dropped, the file stays at the old
            // owner (whose drain the rebalancer will lift).
            Outcome::Send(Err(_)) if matches!(self.phase, AgentPhase::Pulling { .. }) => {
                self.abort_pull(api);
            }
            Outcome::Delay => {
                let AgentPhase::DiskWrite { next, total } = self.phase else {
                    api.exit();
                    return;
                };
                let next = next + 1;
                if next < total {
                    self.pull_next(api, next, total);
                } else {
                    self.finish_pull(api, total);
                }
            }
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::client::{FsCall, FsClient, FsClientReport};
    use crate::server::FileServerConfig;
    use crate::store::BlockStore;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
    use v_sim::SimDuration;

    /// Freezes writes to a file for a while, as a rebalancer that then
    /// changes its mind: `MigrateBegin`, a pause, `MigrateAbort`.
    struct DrainThenAbort {
        server: Pid,
        file: FileId,
        hold: SimDuration,
    }

    impl Program for DrainThenAbort {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            match outcome {
                Outcome::Started => api.send(stub::begin(self.file, 0x0100, 128, 0), self.server),
                Outcome::Send(Ok(reply)) if IoReply::decode(&reply).tag == 0 => {
                    assert_eq!(IoReply::decode(&reply).status, IoStatus::Ok);
                    api.delay(self.hold);
                }
                Outcome::Delay => api.send(stub::abort(self.file, 1), self.server),
                _ => api.exit(),
            }
        }
    }

    /// Retry-after is back-pressure on every route: a single-route
    /// client whose write meets a draining file backs off and re-issues,
    /// and once the drain is lifted the write lands exactly once.
    #[test]
    fn single_route_write_rides_out_a_drain() {
        let cfg = ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let mut store = BlockStore::new();
        let file = store.create_with("boot", &[0x7E; 4 * BLOCK_SIZE]).unwrap();
        let team = crate::team::spawn_file_server(
            &mut cl,
            HostId(0),
            FileServerConfig {
                disk: crate::disk::DiskModel::fixed(SimDuration::from_millis(1)),
                workers: 2,
                ..FileServerConfig::default()
            },
            store,
        );
        cl.run();
        // The drain is set before the client's open has even returned
        // and held for 40 ms: the write is refused a few times first.
        let drain = DrainThenAbort {
            server: team.server,
            file,
            hold: SimDuration::from_millis(40),
        };
        cl.spawn(HostId(2), "rebalancer", Box::new(drain));
        let script = vec![
            FsCall::Open("boot".into()),
            FsCall::WriteFill {
                block: 1,
                count: BLOCK_SIZE as u32,
                fill: 0x99,
            },
            FsCall::ReadExpect {
                block: 1,
                count: BLOCK_SIZE as u32,
                expect: 0x99,
            },
        ];
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(1),
            "fsclient",
            Box::new(FsClient::new(team.server, script, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        assert!(r.done && !r.gave_up, "{r:?}");
        assert!(r.write_retries >= 1, "the write never met the drain: {r:?}");
        assert_eq!(
            (r.errors, r.integrity_errors, r.completed),
            (0, 0, 3),
            "{r:?}"
        );
        let st = team.stats.borrow();
        assert_eq!(
            st.writes, 1,
            "the refused write landed exactly once: {st:?}"
        );
        assert_eq!(st.drain_write_refusals, r.write_retries, "{st:?}");
    }
}
