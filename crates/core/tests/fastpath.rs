//! Zero-copy local fast path: boundary and equivalence tests.
//!
//! With [`v_kernel::ProtocolConfig::local_fastpath`] on, same-host data
//! hand-offs (received segments, reply segments, local
//! `MoveTo`/`MoveFrom`) charge one fixed page-remap hop instead of the
//! fixed bookkeeping plus a per-byte memory copy. These tests pin the
//! three properties the ablation design depends on: co-located
//! exchanges get strictly faster (and the saved copies are counted),
//! remote exchanges are bit-identical under the toggle (the fast path
//! never reaches the wire), and a restarted host still refuses stale
//! pids exactly like the wire path — liveness checks run before any
//! data movement, fast or slow.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{
    Access, Api, Cluster, ClusterConfig, CpuSpeed, HostId, KernelError, Message, Outcome, Pid,
    Program,
};
use v_sim::SimTime;

type Log = Rc<RefCell<Vec<String>>>;

const PAGE: u32 = 4096;
/// Short segments ride inside packets remotely, so the shared workload
/// keeps them under `ProtocolConfig::MAX_DATA_PER_PACKET` to stay wire-expressible.
const SEG: u32 = 512;

/// Serves one request: accepts the client's short inbound segment on
/// `Receive`, pulls 2 pages with `MoveFrom`, then answers with a short
/// `ReplyWithSegment` — the three local data paths in one exchange.
#[derive(Default)]
struct PageServer {
    from: Option<Pid>,
}
impl Program for PageServer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.receive_with_segment(0x4000, SEG),
            Outcome::ReceiveSeg { from, seg_len, .. } => {
                assert_eq!(seg_len, SEG, "inbound segment must be delivered");
                self.from = Some(from);
                api.move_from(from, 0x8000, 0x2000, 2 * PAGE);
            }
            Outcome::Move(Ok(_)) => {
                api.mem_fill(0x1_0000, SEG as usize, 0x5A).unwrap();
                api.reply_with_segment(Message::empty(), self.from.unwrap(), 0x2000, 0x1_0000, SEG)
                    .unwrap();
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Sends a request carrying a read/write grant over its 8 KB buffer
/// (1 KB of which the server accepts inbound) and logs the round trip.
struct PageClient {
    to: Pid,
    log: Log,
}
impl Program for PageClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(0x2000, 2 * PAGE as usize, 0xAB).unwrap();
                let mut m = Message::empty();
                m.set_segment(0x2000, 2 * PAGE, Access::ReadWrite);
                api.send(m, self.to);
            }
            Outcome::Send(Ok(_)) => {
                let page = api.mem_read(0x2000, SEG as usize).unwrap();
                let intact = page.iter().all(|&b| b == 0x5A);
                self.log.borrow_mut().push(format!("done:{intact}"));
                api.exit();
            }
            Outcome::Send(Err(e)) => {
                self.log.borrow_mut().push(format!("err:{e:?}"));
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Runs the client/server exchange co-located on one host (or split
/// across two when `remote`), returning the quiescence instant, the log
/// and the fastpath counters summed over the cluster.
fn run_exchange(fastpath: bool, remote: bool) -> (SimTime, Vec<String>, u64, u64) {
    let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    cfg.protocol.local_fastpath = fastpath;
    let mut cl = Cluster::new(cfg);
    let server_host = if remote { HostId(1) } else { HostId(0) };
    let server = cl.spawn(server_host, "server", Box::new(PageServer::default()));
    let log: Log = Default::default();
    cl.spawn(
        HostId(0),
        "client",
        Box::new(PageClient {
            to: server,
            log: log.clone(),
        }),
    );
    cl.run();
    let (mut sends, mut saved) = (0, 0);
    for h in [HostId(0), HostId(1)] {
        let s = cl.kernel_stats(h);
        sends += s.local_fastpath_sends;
        saved += s.local_fastpath_bytes_saved;
    }
    let entries = log.borrow().clone();
    (cl.now(), entries, sends, saved)
}

/// Co-located: the fast path strictly beats the copy path, the data
/// still lands intact, and every skipped copy is counted — the inbound
/// 1 KB segment, the 8 KB MoveFrom and the 4 KB reply segment.
#[test]
fn colocated_exchange_is_strictly_faster_and_counts_saved_copies() {
    let (t_copy, log_copy, sends_copy, saved_copy) = run_exchange(false, false);
    let (t_fast, log_fast, sends_fast, saved_fast) = run_exchange(true, false);
    assert_eq!(log_copy, vec!["done:true"]);
    assert_eq!(log_fast, vec!["done:true"], "remap must deliver the data");
    assert!(
        t_fast < t_copy,
        "fast path must strictly win: {t_fast:?} vs {t_copy:?}"
    );
    assert_eq!(
        (sends_copy, saved_copy),
        (0, 0),
        "toggle off counts nothing"
    );
    assert_eq!(sends_fast, 3, "segment in + MoveFrom + reply segment");
    assert_eq!(saved_fast, SEG as u64 + 2 * PAGE as u64 + SEG as u64);
}

/// Remote: the toggle must be invisible — same quiescence instant to
/// the nanosecond, zero fastpath activity. The fast path lives strictly
/// inside the same-host branch.
#[test]
fn remote_exchange_is_bit_identical_under_the_toggle() {
    let (t_copy, log_copy, ..) = run_exchange(false, true);
    let (t_fast, log_fast, sends_fast, saved_fast) = run_exchange(true, true);
    assert_eq!(log_copy, vec!["done:true"]);
    assert_eq!(log_fast, log_copy);
    assert_eq!(t_fast, t_copy, "wire path must be untouched by the toggle");
    assert_eq!((sends_fast, saved_fast), (0, 0));
}

/// Sends one data-bearing request to `to` and logs how it resolved.
struct StaleCaller {
    to: Pid,
    log: Log,
}
impl Program for StaleCaller {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(0x2000, PAGE as usize, 0xEE).unwrap();
                let mut m = Message::empty();
                m.set_segment(0x2000, PAGE, Access::ReadWrite);
                api.send(m, self.to);
            }
            Outcome::Send(r) => {
                self.log.borrow_mut().push(match r {
                    Ok(_) => "ok".into(),
                    Err(e) => format!("err:{e:?}"),
                });
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Crash/restart boundary: with the fast path on, a process on the
/// reborn host sending to a stale co-located pid gets the same clean
/// `NonexistentProcess` the wire path Nacks with — and the fast path
/// never fires, because existence is checked before any data moves.
#[test]
fn restarted_host_refuses_stale_local_pid_without_fastpathing() {
    let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    cfg.protocol.local_fastpath = true;
    let mut cl = Cluster::new(cfg);
    let server = cl.spawn(HostId(0), "server", Box::new(PageServer::default()));
    cl.run();
    cl.crash_host(HostId(0));
    cl.restart_host(HostId(0));

    let log: Log = Default::default();
    cl.spawn(
        HostId(0),
        "stale",
        Box::new(StaleCaller {
            to: server,
            log: log.clone(),
        }),
    );
    cl.run();
    assert_eq!(log.borrow().clone(), vec!["err:NonexistentProcess"]);
    let s = cl.kernel_stats(HostId(0));
    assert_eq!(
        (s.local_fastpath_sends, s.local_fastpath_bytes_saved),
        (0, 0),
        "no data may move toward a dead pid, remapped or copied"
    );
    let _ = KernelError::NonexistentProcess; // the variant this test pins
}
