//! Integration tests: V IPC semantics across the whole stack.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{
    Access, Api, Cluster, ClusterConfig, CpuSpeed, HostId, Message, Outcome, Pid, Program,
};

fn cluster(hosts: usize) -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(hosts, CpuSpeed::Mc68000At10MHz))
}

type Log = Rc<RefCell<Vec<String>>>;

/// Sends one message and logs the reply word.
struct OneShot {
    to: Pid,
    tag: u32,
    log: Log,
}
impl Program for OneShot {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                let mut m = Message::empty();
                m.set_u32(4, self.tag);
                api.send(m, self.to);
            }
            Outcome::Send(Ok(reply)) => {
                self.log
                    .borrow_mut()
                    .push(format!("ok:{}:{}", self.tag, reply.get_u32(4)));
                api.exit();
            }
            Outcome::Send(Err(e)) => {
                self.log
                    .borrow_mut()
                    .push(format!("err:{}:{e:?}", self.tag));
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Receives `n` messages, logging sender order, replying with tag+100.
struct OrderedServer {
    n: usize,
    log: Log,
}
impl Program for OrderedServer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.receive(),
            Outcome::Receive { from, msg } => {
                let tag = msg.get_u32(4);
                self.log.borrow_mut().push(format!("recv:{tag}"));
                let mut reply = Message::empty();
                reply.set_u32(4, tag + 100);
                api.reply(reply, from).expect("sender is waiting");
                self.n -= 1;
                if self.n > 0 {
                    api.receive();
                } else {
                    api.exit();
                }
            }
            _ => api.exit(),
        }
    }
}

#[test]
fn messages_queue_fcfs_and_replies_route_back() {
    let mut cl = cluster(4);
    let log: Log = Default::default();
    let server = cl.spawn(
        HostId(0),
        "server",
        Box::new(OrderedServer {
            n: 3,
            log: log.clone(),
        }),
    );
    // Three remote clients send in a staggered order; the server is not
    // receiving yet, so messages queue FCFS at its kernel.
    for (i, host) in [(1u32, HostId(1)), (2, HostId(2)), (3, HostId(3))] {
        cl.spawn(
            host,
            "client",
            Box::new(OneShot {
                to: server,
                tag: i,
                log: log.clone(),
            }),
        );
    }
    cl.run();
    let log = log.borrow();
    // All three exchanges completed with the right reply pairing.
    for i in 1..=3u32 {
        assert!(
            log.contains(&format!("ok:{i}:{}", i + 100)),
            "missing exchange {i}: {log:?}"
        );
    }
    // Receive order matches arrival order (staggered spawn = staggered
    // arrival in the deterministic simulator).
    let recvs: Vec<_> = log.iter().filter(|s| s.starts_with("recv:")).collect();
    assert_eq!(recvs, ["recv:1", "recv:2", "recv:3"]);
}

#[test]
fn send_to_nonexistent_local_and_remote_process_fails() {
    let mut cl = cluster(2);
    let log: Log = Default::default();
    let h0 = cl.logical_host(HostId(0));
    let h1 = cl.logical_host(HostId(1));
    let dead_local = Pid::new(h0, 0x4242);
    let dead_remote = Pid::new(h1, 0x4242);
    cl.spawn(
        HostId(0),
        "to-local",
        Box::new(OneShot {
            to: dead_local,
            tag: 1,
            log: log.clone(),
        }),
    );
    cl.spawn(
        HostId(0),
        "to-remote",
        Box::new(OneShot {
            to: dead_remote,
            tag: 2,
            log: log.clone(),
        }),
    );
    cl.run();
    let log = log.borrow();
    assert!(
        log.contains(&"err:1:NonexistentProcess".to_string()),
        "{log:?}"
    );
    // Remote failure arrives as a Nack from the peer kernel.
    assert!(
        log.contains(&"err:2:NonexistentProcess".to_string()),
        "{log:?}"
    );
    assert!(cl.kernel_stats(HostId(1)).nacks_sent >= 1);
}

#[test]
fn send_to_unreachable_host_fails_host_down_after_n_retries() {
    // Host exists in pid space but no such station answers: use learned
    // addressing so the packet is broadcast into the void.
    let mut cfg = ClusterConfig::ten_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    cfg.protocol.retransmit_timeout = v_sim::SimDuration::from_millis(10);
    let mut cl = Cluster::new(cfg);
    let ghost = Pid::new(v_kernel::LogicalHost(0x7777), 1);
    let log: Log = Default::default();
    cl.spawn(
        HostId(0),
        "to-ghost",
        Box::new(OneShot {
            to: ghost,
            tag: 9,
            log: log.clone(),
        }),
    );
    cl.run();
    assert!(
        log.borrow().contains(&"err:9:HostDown".to_string()),
        "{log:?}"
    );
    let st = cl.kernel_stats(HostId(0));
    assert_eq!(st.send_timeouts, 1);
    assert_eq!(st.retransmissions as u32, cl.config().protocol.max_retries);
}

#[test]
fn reply_requires_awaiting_sender() {
    struct BadReplier {
        victim: Pid,
        log: Log,
    }
    impl Program for BadReplier {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            if let Outcome::Started = outcome {
                let err = api.reply(Message::empty(), self.victim).unwrap_err();
                self.log.borrow_mut().push(format!("{err:?}"));
            }
            api.exit();
        }
    }
    let mut cl = cluster(1);
    let log: Log = Default::default();
    // The victim just waits in Receive — it is not awaiting reply.
    struct Waits;
    impl Program for Waits {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            if let Outcome::Started = outcome {
                api.receive();
            } else {
                api.exit();
            }
        }
    }
    let victim = cl.spawn(HostId(0), "victim", Box::new(Waits));
    cl.spawn(
        HostId(0),
        "bad",
        Box::new(BadReplier {
            victim,
            log: log.clone(),
        }),
    );
    cl.run();
    assert_eq!(log.borrow().as_slice(), ["NotAwaitingReply"]);
}

#[test]
fn exit_unblocks_local_senders_and_nacks_remote_ones() {
    struct ExitsAfterDelay;
    impl Program for ExitsAfterDelay {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            match outcome {
                Outcome::Started => api.delay(v_sim::SimDuration::from_millis(50)),
                _ => api.exit(),
            }
        }
    }
    let mut cl = cluster(2);
    let log: Log = Default::default();
    let doomed = cl.spawn(HostId(0), "doomed", Box::new(ExitsAfterDelay));
    cl.spawn(
        HostId(0),
        "local-sender",
        Box::new(OneShot {
            to: doomed,
            tag: 1,
            log: log.clone(),
        }),
    );
    cl.spawn(
        HostId(1),
        "remote-sender",
        Box::new(OneShot {
            to: doomed,
            tag: 2,
            log: log.clone(),
        }),
    );
    cl.run();
    let log = log.borrow();
    assert!(
        log.contains(&"err:1:NonexistentProcess".to_string()),
        "{log:?}"
    );
    assert!(
        log.contains(&"err:2:NonexistentProcess".to_string()),
        "{log:?}"
    );
}

#[test]
fn receive_with_segment_delivers_appended_data_and_plain_receive_drops_it() {
    struct SegServer {
        use_seg: bool,
        log: Log,
    }
    impl Program for SegServer {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            match outcome {
                Outcome::Started => {
                    if self.use_seg {
                        api.receive_with_segment(0x1000, 512);
                    } else {
                        api.receive();
                    }
                }
                Outcome::ReceiveSeg { from, seg_len, .. } => {
                    let data = api.mem_read(0x1000, seg_len as usize).unwrap();
                    let ok = data.iter().all(|&b| b == 0xEE);
                    self.log.borrow_mut().push(format!("seg:{seg_len}:{ok}"));
                    api.reply(Message::empty(), from).unwrap();
                    api.exit();
                }
                Outcome::Receive { from, .. } => {
                    self.log.borrow_mut().push("plain".to_string());
                    api.reply(Message::empty(), from).unwrap();
                    api.exit();
                }
                _ => api.exit(),
            }
        }
    }
    struct SegSender {
        to: Pid,
    }
    impl Program for SegSender {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            match outcome {
                Outcome::Started => {
                    api.mem_fill(0x2000, 512, 0xEE).unwrap();
                    let mut m = Message::empty();
                    m.set_segment(0x2000, 512, Access::Read);
                    api.send(m, self.to);
                }
                _ => api.exit(),
            }
        }
    }

    for use_seg in [true, false] {
        let mut cl = cluster(2);
        let log: Log = Default::default();
        let server = cl.spawn(
            HostId(1),
            "server",
            Box::new(SegServer {
                use_seg,
                log: log.clone(),
            }),
        );
        cl.spawn(HostId(0), "sender", Box::new(SegSender { to: server }));
        cl.run();
        let log = log.borrow();
        if use_seg {
            assert_eq!(log.as_slice(), ["seg:512:true"]);
        } else {
            assert_eq!(log.as_slice(), ["plain"]);
        }
    }
}

#[test]
fn gettime_has_paper_granularity() {
    struct Timer {
        log: Log,
    }
    impl Program for Timer {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            match outcome {
                Outcome::Started => api.delay(v_sim::SimDuration::from_micros(12_345)),
                Outcome::Delay => {
                    let t = api.get_time();
                    // Truncated to 10 ms ticks.
                    self.log.borrow_mut().push(format!("{}", t.as_nanos()));
                    api.exit();
                }
                _ => api.exit(),
            }
        }
    }
    let mut cl = cluster(1);
    let log: Log = Default::default();
    cl.spawn(HostId(0), "timer", Box::new(Timer { log: log.clone() }));
    cl.run();
    let ns: u64 = log.borrow()[0].parse().unwrap();
    assert_eq!(ns % 10_000_000, 0, "GetTime must tick in 10 ms units");
    assert_eq!(ns, 10_000_000, "12.3 ms truncates to 10 ms");
}

/// A sender that is queued behind a server's `Receive` is not blocked on
/// that server yet — and the kernel says so with the same error whether
/// the sender queues from this host or from across the wire. Only once
/// the server has received its message do `Reply`, `ReplyWithSegment`,
/// `MoveTo`, `MoveFrom` and `Forward` reach it.
#[test]
fn a_queued_sender_is_not_blocked_on_the_server_local_or_remote() {
    use std::cell::Cell;
    use v_sim::SimDuration;

    /// Grants a segment to `to` after `wait`, and logs how the `Send`
    /// ended.
    struct LateSender {
        to: Pid,
        wait: SimDuration,
        me: Rc<Cell<Option<Pid>>>,
        log: Log,
    }
    impl Program for LateSender {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            match outcome {
                Outcome::Started => {
                    self.me.set(Some(api.self_pid()));
                    api.delay(self.wait);
                }
                Outcome::Delay => {
                    let mut m = Message::empty();
                    m.set_segment(0x2000, 512, Access::ReadWrite);
                    api.send(m, self.to);
                }
                Outcome::Send(r) => {
                    self.log
                        .borrow_mut()
                        .push(format!("queued-send:{}", r.is_ok()));
                    api.exit();
                }
                _ => api.exit(),
            }
        }
    }

    /// Receives a first request and, while still holding it, tries every
    /// primitive on `queued` — who has sent by then, and whom it has not
    /// received. Then it receives `queued` and replies to both.
    struct EagerServer {
        queued: Rc<Cell<Option<Pid>>>,
        first: Option<Pid>,
        step: u32,
        log: Log,
    }
    impl EagerServer {
        fn note<T>(&self, what: &str, r: Result<T, v_kernel::KernelError>) {
            let how = r.map_or_else(|e| format!("{e:?}"), |_| "ok".to_string());
            self.log.borrow_mut().push(format!("{what}:{how}"));
        }
    }
    impl Program for EagerServer {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            let queued = self.queued.get();
            match (outcome, self.step) {
                (Outcome::Started, _) => api.receive(),
                (Outcome::Receive { from, .. }, 0) => {
                    self.first = Some(from);
                    self.step = 1;
                    api.delay(SimDuration::from_millis(30));
                }
                (Outcome::Delay, 1) => {
                    let queued = queued.expect("the late sender started");
                    let me = api.self_pid();
                    self.note("reply", api.reply(Message::empty(), queued));
                    let seg = api.reply_with_segment(Message::empty(), queued, 0x2000, 0x3000, 64);
                    self.note("reply-with-segment", seg);
                    self.note("forward", api.forward(Message::empty(), queued, me));
                    self.step = 2;
                    api.move_to(queued, 0x2000, 0x3000, 64);
                }
                (Outcome::Move(r), 2) => {
                    self.note("move-to", r);
                    self.step = 3;
                    api.move_from(queued.expect("set"), 0x3000, 0x2000, 64);
                }
                (Outcome::Move(r), 3) => {
                    self.note("move-from", r);
                    self.step = 4;
                    api.receive();
                }
                (Outcome::Receive { from, .. }, 4) => {
                    assert_eq!(Some(from), queued, "it was queued all along");
                    self.note("reply-once-received", api.reply(Message::empty(), from));
                    api.reply(Message::empty(), self.first.expect("held"))
                        .expect("the first sender is still blocked");
                    api.exit();
                }
                (other, step) => panic!("server at step {step} resumed with {other:?}"),
            }
        }
    }

    let run = |sender_host: usize| -> Vec<String> {
        let mut cl = cluster(2);
        let log: Log = Default::default();
        let queued = Rc::new(Cell::new(None));
        let server = cl.spawn(
            HostId(0),
            "server",
            Box::new(EagerServer {
                queued: queued.clone(),
                first: None,
                step: 0,
                log: log.clone(),
            }),
        );
        let first = OneShot {
            to: server,
            tag: 1,
            log: log.clone(),
        };
        cl.spawn(HostId(1), "first", Box::new(first));
        let late = LateSender {
            to: server,
            wait: SimDuration::from_millis(10),
            me: queued,
            log: log.clone(),
        };
        cl.spawn(HostId(sender_host), "late", Box::new(late));
        // Bounded: a server that wrongly replied to the queued sender
        // never receives it, and the first sender retransmits for ever.
        cl.run_for(SimDuration::from_millis(500));
        let log = log.borrow().clone();
        log
    };

    let expected = [
        "reply:NotAwaitingReply",
        "reply-with-segment:NotAwaitingReply",
        "forward:NotAwaitingReply",
        "move-to:NotBlocked",
        "move-from:NotBlocked",
        "reply-once-received:ok",
    ];
    for (side, sender_host) in [("local", 0), ("remote", 1)] {
        let log = run(sender_host);
        let server: Vec<&str> = log
            .iter()
            .map(String::as_str)
            .filter(|l| !l.starts_with("ok:") && !l.starts_with("queued-send:"))
            .collect();
        assert_eq!(server, expected, "{side} sender");
        assert!(
            log.contains(&"queued-send:true".to_string()),
            "{side}: {log:?}"
        );
        assert!(log.contains(&"ok:1:0".to_string()), "{side}: {log:?}");
    }
}
