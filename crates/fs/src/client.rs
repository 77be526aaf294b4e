//! Client-side helpers for the I/O protocol.
//!
//! Application processes access system services "through stub routines
//! that provide a procedural interface to the message primitives" (§3.4).
//! [`stub`] builds correctly-flagged request messages; [`FsClient`] is a
//! ready-made process that runs a script of file operations and verifies
//! the results — used by integration tests and examples.

use v_kernel::{Access, Api, Message, Outcome, Pid, Program};

use crate::proto::{IoOp, IoReply, IoRequest, IoStatus};
use crate::store::FileId;
use crate::BLOCK_SIZE;

/// Stub routines: build request messages with the right segment grants.
pub mod stub {
    use super::*;

    /// Open-by-name: the name lives at `name_addr`/`name_len` in the
    /// client's space; read access is granted so it rides the request.
    pub fn open(name_addr: u32, name_len: u32, tag: u16) -> Message {
        let mut m = IoRequest {
            op: IoOp::Open,
            file: FileId(0),
            block: 0,
            count: 0,
            buffer: 0,
            aux: 0,
            tag,
        }
        .encode();
        m.set_segment(name_addr, name_len, Access::Read);
        m
    }

    /// Create a file of `size` bytes.
    pub fn create(name_addr: u32, name_len: u32, size: u32, tag: u16) -> Message {
        let mut m = IoRequest {
            op: IoOp::Create,
            file: FileId(0),
            block: 0,
            count: 0,
            buffer: 0,
            aux: size,
            tag,
        }
        .encode();
        m.set_segment(name_addr, name_len, Access::Read);
        m
    }

    /// Read one block into the buffer at `buffer` (write access granted
    /// so the server's `ReplyWithSegment`/`MoveTo` may deposit there).
    pub fn read(file: FileId, block: u32, count: u32, buffer: u32, tag: u16) -> Message {
        let mut m = IoRequest {
            op: IoOp::Read,
            file,
            block,
            count,
            buffer,
            aux: 0,
            tag,
        }
        .encode();
        m.set_segment(buffer, count, Access::Write);
        m
    }

    /// Cached read: like [`read`] but announces the client's cache
    /// agent (`agent` = its pid) so the server registers the holder
    /// and answers with a cacheability grant.
    pub fn read_cached(
        file: FileId,
        block: u32,
        count: u32,
        buffer: u32,
        agent: u32,
        tag: u16,
    ) -> Message {
        let mut m = IoRequest {
            op: IoOp::ReadCached,
            file,
            block,
            count,
            buffer,
            aux: agent,
            tag,
        }
        .encode();
        m.set_segment(buffer, count, Access::Write);
        m
    }

    /// Write one block from the buffer at `buffer` (read access granted;
    /// the kernel appends the first part to the request packet).
    /// `agent` names the writer's own cache agent (0 for uncached
    /// writers) so the server skips it during invalidation.
    pub fn write(
        file: FileId,
        block: u32,
        count: u32,
        buffer: u32,
        agent: u32,
        tag: u16,
    ) -> Message {
        let mut m = IoRequest {
            op: IoOp::Write,
            file,
            block,
            count,
            buffer,
            aux: agent,
            tag,
        }
        .encode();
        m.set_segment(buffer, count, Access::Read);
        m
    }

    /// Query a file's length.
    pub fn query(file: FileId, tag: u16) -> Message {
        IoRequest {
            op: IoOp::Query,
            file,
            block: 0,
            count: 0,
            buffer: 0,
            aux: 0,
            tag,
        }
        .encode()
    }

    /// Large read of `count` bytes starting at block `block` into
    /// `buffer` (the server pushes with `MoveTo`s).
    pub fn read_large(file: FileId, block: u32, count: u32, buffer: u32, tag: u16) -> Message {
        let mut m = IoRequest {
            op: IoOp::ReadLarge,
            file,
            block,
            count,
            buffer,
            aux: 0,
            tag,
        }
        .encode();
        m.set_segment(buffer, count, Access::Write);
        m
    }
}

/// One step of an [`FsClient`] script.
#[derive(Debug, Clone)]
pub enum FsCall {
    /// Open by name; remembers the returned file id.
    Open(String),
    /// Create a file of the given size; remembers the id.
    Create(String, u32),
    /// Read `count` bytes of `block` into the client buffer and check
    /// every byte equals the expectation.
    ReadExpect {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
        /// Expected fill byte.
        expect: u8,
    },
    /// Fill the client buffer with a byte and write it to `block`.
    WriteFill {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
        /// Fill byte.
        fill: u8,
    },
    /// Read `count` bytes of `block` without checking the contents —
    /// used by consistency tests that race readers against writers,
    /// where either the old or the new fill is a legal answer.
    ReadAny {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
    },
    /// Query the file length and check it.
    QueryExpect(u32),
    /// Large read into the buffer plus a fill check.
    ReadLargeExpect {
        /// Starting block.
        block: u32,
        /// Byte count.
        count: u32,
        /// Expected fill byte.
        expect: u8,
    },
}

/// Outcome summary of an [`FsClient`] / sharded-client run.
#[derive(Debug, Clone, Default)]
pub struct FsClientReport {
    /// Steps completed successfully.
    pub completed: u64,
    /// Protocol errors (bad status).
    pub errors: u64,
    /// Data mismatches.
    pub integrity_errors: u64,
    /// True once the whole script finished.
    pub done: bool,
    /// Simulated milliseconds from the first issued operation to script
    /// completion (0 until `done`).
    pub elapsed_ms: f64,
    /// Replies stamped by a different service than the one targeted:
    /// the request chased a migrated file through a server-side
    /// `Forward`, and the owner cache was corrected on the spot
    /// (sharded client only; reconciles against the servers'
    /// [`crate::FileServerStats::moved_forwards`]).
    pub stale_owner_forwards: u64,
    /// Writes refused with retry-after (file draining for migration)
    /// and re-issued after a backoff — each such write still completes
    /// exactly once (sharded client only).
    pub write_retries: u64,
    /// Steps re-routed after the cached owner's host died (sharded
    /// client with a placement overlay).
    pub owner_failovers: u64,
}

/// Client buffer locations (shared with [`crate::shard::ShardedFsClient`]).
pub(crate) const NAME_BUF: u32 = 0x0100;
pub(crate) const DATA_BUF: u32 = 0x20000;

/// Builds and sends the request for one script call to `server`,
/// staging the name/data buffers in the calling process's space.
/// `file` is the client's current file id (ignored by open/create).
/// Shared by [`FsClient`] and [`crate::shard::ShardedFsClient`], which
/// differ only in how they pick `server`. `cache_agent` is the
/// client's cache-agent pid when it caches: reads then go out as
/// `ReadCached` and writes carry the agent so the server skips it
/// during invalidation. `None` builds byte-for-byte the messages the
/// pre-cache client sent.
pub(crate) fn issue_call(
    api: &mut Api<'_>,
    call: &FsCall,
    file: FileId,
    tag: u16,
    server: Pid,
    cache_agent: Option<u32>,
) {
    match call {
        FsCall::Open(name) => {
            api.mem_write(NAME_BUF, name.as_bytes()).expect("name fits");
            api.send(stub::open(NAME_BUF, name.len() as u32, tag), server);
        }
        FsCall::Create(name, size) => {
            api.mem_write(NAME_BUF, name.as_bytes()).expect("name fits");
            api.send(
                stub::create(NAME_BUF, name.len() as u32, *size, tag),
                server,
            );
        }
        FsCall::ReadExpect { block, count, .. } | FsCall::ReadAny { block, count } => {
            api.mem_fill(DATA_BUF, *count as usize, 0x00).expect("fits");
            let m = match cache_agent {
                Some(agent) => stub::read_cached(file, *block, *count, DATA_BUF, agent, tag),
                None => stub::read(file, *block, *count, DATA_BUF, tag),
            };
            api.send(m, server);
        }
        FsCall::WriteFill { block, count, fill } => {
            api.mem_fill(DATA_BUF, *count as usize, *fill)
                .expect("fits");
            api.send(
                stub::write(
                    file,
                    *block,
                    *count,
                    DATA_BUF,
                    cache_agent.unwrap_or(0),
                    tag,
                ),
                server,
            );
        }
        FsCall::QueryExpect(_) => api.send(stub::query(file, tag), server),
        FsCall::ReadLargeExpect { block, count, .. } => {
            api.mem_fill(DATA_BUF, *count as usize, 0x00).expect("fits");
            api.send(
                stub::read_large(file, *block, *count, DATA_BUF, tag),
                server,
            );
        }
    }
}

/// Verifies a reply against the call that produced it, updating the
/// report. Returns the file id when the call was an open/create that
/// succeeded (so callers can adopt it as the current file).
pub(crate) fn check_reply(
    api: &Api<'_>,
    call: &FsCall,
    reply: &IoReply,
    rep: &mut FsClientReport,
) -> Option<FileId> {
    if reply.status != IoStatus::Ok {
        rep.errors += 1;
        return None;
    }
    let mut opened = None;
    match call {
        FsCall::Open(_) | FsCall::Create(_, _) => opened = Some(reply.file),
        FsCall::QueryExpect(expect) => {
            if reply.value != *expect {
                rep.integrity_errors += 1;
            }
        }
        FsCall::ReadExpect { count, expect, .. }
        | FsCall::ReadLargeExpect { count, expect, .. } => {
            let intact = api.mem_is_filled(DATA_BUF, *count as usize, *expect);
            if !intact.expect("fits") {
                rep.integrity_errors += 1;
            }
        }
        FsCall::WriteFill { count, .. } => {
            if reply.value != (*count).min(BLOCK_SIZE as u32) {
                rep.integrity_errors += 1;
            }
        }
        FsCall::ReadAny { .. } => {}
    }
    rep.completed += 1;
    opened
}

/// A scripted file-service client, optionally carrying a block cache
/// (see [`crate::cache`]).
pub struct FsClient {
    /// The file server.
    pub server: Pid,
    /// Script to run.
    pub script: Vec<FsCall>,
    /// Shared results.
    pub report: std::rc::Rc<std::cell::RefCell<FsClientReport>>,
    step: usize,
    file: FileId,
    started: Option<v_sim::SimTime>,
    cache: Option<crate::cache::CacheLayer>,
    pending_hit: Option<Vec<u8>>,
}

impl FsClient {
    /// Creates a scripted client.
    pub fn new(
        server: Pid,
        script: Vec<FsCall>,
        report: std::rc::Rc<std::cell::RefCell<FsClientReport>>,
    ) -> FsClient {
        FsClient {
            server,
            script,
            report,
            step: 0,
            file: FileId(0),
            started: None,
            cache: None,
            pending_hit: None,
        }
    }

    /// Attaches a block cache to the read path.
    pub fn with_cache(mut self, layer: crate::cache::CacheLayer) -> FsClient {
        self.cache = Some(layer);
        self
    }

    fn issue(&mut self, api: &mut Api<'_>) {
        let started = *self.started.get_or_insert(api.now());
        let Some(call) = self.script.get(self.step).cloned() else {
            let mut rep = self.report.borrow_mut();
            rep.done = true;
            rep.elapsed_ms = api.now().since(started).as_millis_f64();
            drop(rep);
            api.exit();
            return;
        };
        let mut cache_agent = None;
        if let Some(layer) = self.cache.as_mut() {
            if let Some(data) = layer.try_hit(&call, self.file, api.now()) {
                self.pending_hit = Some(data);
                api.compute(layer.hit_cpu());
                return;
            }
            layer.on_issue(&call, self.file);
            cache_agent = Some(layer.agent_aux());
        }
        issue_call(
            api,
            &call,
            self.file,
            self.step as u16,
            self.server,
            cache_agent,
        );
    }

    fn check(&mut self, api: &mut Api<'_>, reply: IoReply) {
        let call = self.script[self.step].clone();
        let mut rep = self.report.borrow_mut();
        if let Some(opened) = check_reply(api, &call, &reply, &mut rep) {
            self.file = opened;
        }
        drop(rep);
        if let Some(layer) = self.cache.as_mut() {
            layer.install_reply(api, &call, self.file, &reply, api.now());
        }
    }

    /// Completes a cache hit: deposits the cached bytes where the
    /// remote path would have and synthesizes an `Ok` reply (with a
    /// [`crate::proto::CACHE_DENY`] grant so it is not re-installed),
    /// so the shared check path treats hits and misses alike.
    fn finish_hit(&mut self, api: &mut Api<'_>, data: Vec<u8>) {
        api.mem_write(DATA_BUF, &data).expect("fits");
        let reply = IoReply {
            status: IoStatus::Ok,
            file: self.file,
            value: data.len() as u32,
            aux: crate::proto::CACHE_DENY,
            owner: 0,
            tag: self.step as u16,
        };
        self.check(api, reply);
        self.step += 1;
        self.issue(api);
    }
}

impl Program for FsClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => self.issue(api),
            Outcome::Send(Ok(reply)) => {
                let reply = IoReply::decode(&reply);
                self.check(api, reply);
                self.step += 1;
                self.issue(api);
            }
            Outcome::Send(Err(_)) => {
                self.report.borrow_mut().errors += 1;
                api.exit();
            }
            Outcome::Compute if self.pending_hit.is_some() => {
                let data = self.pending_hit.take().expect("hit in flight");
                self.finish_hit(api, data);
            }
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FileServer, FileServerConfig};
    use crate::store::BlockStore;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
    use v_sim::SimDuration;

    fn run_script(script: Vec<FsCall>) -> FsClientReport {
        run_script_on(&[0x7E; 4 * BLOCK_SIZE], script)
    }

    /// Runs `script` against a server whose file "boot" holds `data`.
    fn run_script_on(data: &[u8], script: Vec<FsCall>) -> FsClientReport {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let mut store = BlockStore::new();
        store.create_with("boot", data).unwrap();
        let server = cl.spawn(
            HostId(1),
            "fileserver",
            Box::new(FileServer::new(
                FileServerConfig {
                    disk: crate::disk::DiskModel::fixed(SimDuration::from_millis(1)),
                    ..FileServerConfig::default()
                },
                store,
            )),
        );
        let rep = std::rc::Rc::new(std::cell::RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(0),
            "fsclient",
            Box::new(FsClient::new(server, script, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        r
    }

    #[test]
    fn open_read_write_query_round_trip() {
        let rep = run_script(vec![
            FsCall::Open("boot".into()),
            FsCall::QueryExpect(4 * BLOCK_SIZE as u32),
            FsCall::ReadExpect {
                block: 2,
                count: BLOCK_SIZE as u32,
                expect: 0x7E,
            },
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
        ]);
        assert!(rep.done, "{rep:?}");
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.integrity_errors, 0);
        assert_eq!(rep.completed, 5);
    }

    #[test]
    fn create_then_large_read() {
        let rep = run_script(vec![
            FsCall::Open("boot".into()),
            FsCall::ReadLargeExpect {
                block: 0,
                count: 4 * BLOCK_SIZE as u32,
                expect: 0x7E,
            },
            FsCall::Create("new".into(), 1024),
            FsCall::QueryExpect(1024),
            FsCall::WriteFill {
                block: 0,
                count: 512,
                fill: 0x11,
            },
            FsCall::ReadExpect {
                block: 0,
                count: 512,
                expect: 0x11,
            },
        ]);
        assert!(rep.done, "{rep:?}");
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.integrity_errors, 0);
    }

    #[test]
    fn one_wrong_byte_anywhere_in_a_read_is_one_integrity_error() {
        // The fill check compares 32 bytes at a time: the first and last
        // byte of a block, one inside a chunk, and one in the tail of a
        // read that does not end on a chunk.
        let short = 3 * 32 + 7;
        let cases = [
            (0, BLOCK_SIZE),
            (16 * 32 + 5, BLOCK_SIZE),
            (BLOCK_SIZE - 1, BLOCK_SIZE),
            (short - 3, short),
            (short - 1, short),
        ];
        for (wrong, count) in cases {
            let mut data = [0x7E; 2 * BLOCK_SIZE];
            data[wrong] = 0x7F;
            let read = |block| FsCall::ReadExpect {
                block,
                count: count as u32,
                expect: 0x7E,
            };
            let rep = run_script_on(&data, vec![FsCall::Open("boot".into()), read(0), read(1)]);
            assert!(rep.done && rep.errors == 0, "{rep:?}");
            assert_eq!(rep.completed, 3);
            assert_eq!(rep.integrity_errors, 1, "byte {wrong} of {count}: {rep:?}");
        }
        // A wrong byte just past a short read is not the read's business.
        let mut data = [0x7E; BLOCK_SIZE];
        data[short] = 0x7F;
        let read = FsCall::ReadExpect {
            block: 0,
            count: short as u32,
            expect: 0x7E,
        };
        let rep = run_script_on(&data, vec![FsCall::Open("boot".into()), read]);
        assert_eq!(rep.integrity_errors, 0, "{rep:?}");
    }

    #[test]
    fn open_missing_file_reports_error() {
        let rep = run_script(vec![FsCall::Open("missing".into())]);
        assert!(rep.done);
        assert_eq!(rep.errors, 1);
        assert_eq!(rep.completed, 0);
    }
}
