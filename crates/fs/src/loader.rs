//! Program loading and the exec server.
//!
//! §6.3: "a simple command interpreter we have written ... loads programs
//! in two read operations: the first read accesses the program header
//! information; the second read copies the program code and data into the
//! newly created program space" — the second using `MoveTo` with large
//! transfer units. §7 adds that a file server "should have a general
//! program execution facility": for some programs it is cheaper to run
//! them next to the disk than to page them over the network, and with V
//! IPC this is transparent to the client.
//!
//! Image format: block 0 is the header; bytes 0..4 hold the image size
//! (little-endian), bytes 4..8 a fill byte pattern for verification; the
//! image proper starts at block 1.

use v_kernel::{Api, Outcome, Pid, Program};

use crate::client::stub;
use crate::proto::{IoReply, IoStatus};
use crate::store::{BlockStore, FileId};
use crate::BLOCK_SIZE;

/// Builds a loadable image file in a store: header block + `size` bytes
/// of `fill`.
pub fn install_image(store: &mut BlockStore, name: &str, size: u32, fill: u8) -> FileId {
    let mut data = vec![0u8; BLOCK_SIZE + size as usize];
    data[0..4].copy_from_slice(&size.to_le_bytes());
    data[4] = fill;
    data[BLOCK_SIZE..].fill(fill);
    store.create_with(name, &data).expect("fresh name")
}

/// Result of a program load.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// True when the image is in memory and verified.
    pub loaded: bool,
    /// Millisecond cost of the whole load (open + header + image).
    pub elapsed_ms: f64,
    /// Verification failures.
    pub integrity_errors: u64,
    /// Protocol errors.
    pub errors: u64,
}

const NAME_BUF: u32 = 0x0100;
const HDR_BUF: u32 = 0x0800;
/// Where the image lands — "the newly created program space".
pub const IMAGE_BASE: u32 = 0x10000;

enum Phase {
    Opening,
    Header,
    Image { size: u32, fill: u8 },
}

/// Loads a named program image from the file server, §6.3-style.
pub struct ProgramLoader {
    /// The file server.
    pub server: Pid,
    /// Image file name.
    pub name: String,
    /// Shared result.
    pub report: std::rc::Rc<std::cell::RefCell<LoadReport>>,
    phase: Phase,
    file: FileId,
    started: Option<v_sim::SimTime>,
}

impl ProgramLoader {
    /// Creates a loader.
    pub fn new(
        server: Pid,
        name: impl Into<String>,
        report: std::rc::Rc<std::cell::RefCell<LoadReport>>,
    ) -> ProgramLoader {
        ProgramLoader {
            server,
            name: name.into(),
            report,
            phase: Phase::Opening,
            file: FileId(0),
            started: None,
        }
    }

    fn fail(&self, api: &mut Api<'_>) {
        self.report.borrow_mut().errors += 1;
        api.exit();
    }
}

impl Program for ProgramLoader {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                self.started = Some(api.now());
                api.mem_write(NAME_BUF, self.name.clone().as_bytes())
                    .expect("name fits");
                api.send(stub::open(NAME_BUF, self.name.len() as u32, 1), self.server);
            }
            Outcome::Send(Ok(reply)) => {
                let reply = IoReply::decode(&reply);
                if reply.status != IoStatus::Ok {
                    self.fail(api);
                    return;
                }
                match self.phase {
                    Phase::Opening => {
                        self.file = reply.file;
                        self.phase = Phase::Header;
                        // First read: the program header.
                        api.send(
                            stub::read(self.file, 0, BLOCK_SIZE as u32, HDR_BUF, 2),
                            self.server,
                        );
                    }
                    Phase::Header => {
                        let hdr = api.mem_read(HDR_BUF, 8).expect("header in memory");
                        let size = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
                        let fill = hdr[4];
                        self.phase = Phase::Image { size, fill };
                        // Second read: the whole image via MoveTo.
                        api.send(
                            stub::read_large(self.file, 1, size, IMAGE_BASE, 3),
                            self.server,
                        );
                    }
                    Phase::Image { size, fill } => {
                        let intact = api.mem_is_filled(IMAGE_BASE, size as usize, fill);
                        let mut rep = self.report.borrow_mut();
                        if !intact.expect("fits") {
                            rep.integrity_errors += 1;
                        }
                        rep.loaded = true;
                        rep.elapsed_ms = api
                            .now()
                            .since(self.started.expect("started"))
                            .as_millis_f64();
                        drop(rep);
                        api.exit();
                    }
                }
            }
            _ => self.fail(api),
        }
    }
}

/// §7's exec facility: receives a program name and runs the named image
/// *on this host* (the file server's machine), replying with the spawned
/// pid. Communication stays pure V IPC, so execution location is
/// transparent to the client.
pub struct ExecServer {
    /// The co-located file server to load from.
    pub file_server: Pid,
    /// Spawn count (observable by tests).
    pub spawned: std::rc::Rc<std::cell::RefCell<u64>>,
}

/// Exec request: name carried in the request segment, like file opens.
const EXEC_NAME_BUF: u32 = 0x0200;

impl Program for ExecServer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.set_pid(
                    v_kernel::naming::logical::EXEC_SERVER,
                    api.self_pid(),
                    v_kernel::Scope::Both,
                );
                api.receive_with_segment(EXEC_NAME_BUF, 64);
            }
            Outcome::ReceiveSeg { from, seg_len, .. } => {
                let name = api.mem_read(EXEC_NAME_BUF, seg_len as usize).expect("fits");
                let name = String::from_utf8_lossy(&name).into_owned();
                // Run the image next to the disk: a loader on *this* host.
                let report = std::rc::Rc::new(std::cell::RefCell::new(LoadReport::default()));
                let pid = api.spawn(
                    &format!("exec:{name}"),
                    Box::new(ProgramLoader::new(self.file_server, name, report)),
                );
                *self.spawned.borrow_mut() += 1;
                let mut reply = v_kernel::Message::empty();
                reply.set_u32(4, pid.raw());
                let _ = api.reply(reply, from);
                api.receive_with_segment(EXEC_NAME_BUF, 64);
            }
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FileServerConfig;
    use crate::team::spawn_file_server;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
    use v_sim::SimDuration;

    fn cluster_with_image() -> (Cluster, Pid) {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
        let mut cl = Cluster::new(cfg);
        let mut store = BlockStore::new();
        install_image(&mut store, "shell", 65536, 0xC7);
        let server = spawn_file_server(
            &mut cl,
            HostId(1),
            FileServerConfig {
                disk: crate::disk::DiskModel::fixed(SimDuration::from_millis(2)),
                transfer_unit: 4096,
                ..FileServerConfig::default()
            },
            store,
        )
        .server;
        (cl, server)
    }

    #[test]
    fn two_read_load_delivers_verified_image() {
        let (mut cl, server) = cluster_with_image();
        let rep = std::rc::Rc::new(std::cell::RefCell::new(LoadReport::default()));
        cl.spawn(
            HostId(0),
            "loader",
            Box::new(ProgramLoader::new(server, "shell", rep.clone())),
        );
        cl.run();
        let r = rep.borrow();
        assert!(r.loaded, "{:?}", *r);
        assert_eq!(r.integrity_errors, 0);
        assert_eq!(r.errors, 0);
        // 64 KB at ~190 KB/s plus opens/header/disk: sanity band.
        assert!(
            (300.0..600.0).contains(&r.elapsed_ms),
            "load took {:.1} ms",
            r.elapsed_ms
        );
    }

    #[test]
    fn exec_server_runs_program_on_the_server_host() {
        let (mut cl, server) = cluster_with_image();
        let spawned = std::rc::Rc::new(std::cell::RefCell::new(0u64));
        let exec = cl.spawn(
            HostId(1),
            "exec",
            Box::new(ExecServer {
                file_server: server,
                spawned: spawned.clone(),
            }),
        );
        // Client asks the exec server to run "shell".
        struct ExecClient {
            exec: Pid,
            got_pid: std::rc::Rc<std::cell::RefCell<Option<u32>>>,
        }
        impl Program for ExecClient {
            fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
                match outcome {
                    Outcome::Started => {
                        api.mem_write(0x100, b"shell").unwrap();
                        let mut m = v_kernel::Message::empty();
                        m.set_segment(0x100, 5, v_kernel::Access::Read);
                        api.send(m, self.exec);
                    }
                    Outcome::Send(Ok(reply)) => {
                        *self.got_pid.borrow_mut() = Some(reply.get_u32(4));
                        api.exit();
                    }
                    _ => api.exit(),
                }
            }
        }
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        cl.spawn(
            HostId(0),
            "execclient",
            Box::new(ExecClient {
                exec,
                got_pid: got.clone(),
            }),
        );
        cl.run();
        assert_eq!(*spawned.borrow(), 1);
        let pid_raw = got.borrow().expect("got a pid");
        // The spawned loader lives on the server's logical host.
        let pid = v_kernel::Pid::from_raw(pid_raw).expect("valid pid");
        assert_eq!(pid.host(), cl.logical_host(HostId(1)));
    }
}
