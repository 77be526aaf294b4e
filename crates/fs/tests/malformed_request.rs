//! A request whose opcode no I/O-protocol receiver knows is answered,
//! not dropped: the file server, the migration agent and the client
//! cache's callback agent each reply `IoStatus::Error` and echo the
//! request's tag, so the sender is neither left blocked nor handed a
//! reply it cannot match to its request.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::cache::CacheAgent;
use v_fs::proto::{IoReply, IoRequest, IoStatus};
use v_fs::{spawn_file_server, BlockCache, BlockStore, FileServerConfig};
use v_kernel::{Api, Cluster, ClusterConfig, CpuSpeed, HostId, Message, Outcome, Pid, Program};

/// An opcode `IoOp::from_u8` does not decode.
const UNKNOWN_OP: u8 = 0xEE;
const TAG: u16 = 0x5A3C;

/// Sends one undecodable request to `to` and keeps the reply.
struct Prober {
    to: Pid,
    reply: Rc<RefCell<Option<IoReply>>>,
}

impl Program for Prober {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                let mut m = Message::empty();
                m.set_byte(1, UNKNOWN_OP);
                m.set_u16(20, TAG);
                assert_eq!(IoRequest::decode(&m), None, "the op must not decode");
                assert_eq!(IoRequest::tag_of(&m), TAG);
                api.send(m, self.to);
            }
            Outcome::Send(Ok(reply)) => {
                *self.reply.borrow_mut() = Some(IoReply::decode(&reply));
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

/// Probes `to` from host 0 and returns the reply it got.
fn probe(cl: &mut Cluster, to: Pid) -> IoReply {
    cl.run();
    let reply = Rc::new(RefCell::new(None));
    cl.spawn(
        HostId(0),
        "prober",
        Box::new(Prober {
            to,
            reply: reply.clone(),
        }),
    );
    cl.run();
    let got = reply.borrow_mut().take();
    got.expect("the receiver replied")
}

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz))
}

fn assert_error_echoing_tag(who: &str, reply: IoReply) {
    assert_eq!(reply.status, IoStatus::Error, "{who}: {reply:?}");
    assert_eq!(reply.tag, TAG, "{who} must echo the request's tag");
}

#[test]
fn file_server_answers_an_unknown_op_with_its_tag() {
    let mut cl = cluster();
    let team = spawn_file_server(
        &mut cl,
        HostId(1),
        FileServerConfig::default(),
        BlockStore::new(),
    );
    let reply = probe(&mut cl, team.server);
    assert_error_echoing_tag("file server", reply);
}

#[test]
fn migration_agent_answers_an_unknown_op_with_its_tag() {
    let mut cl = cluster();
    let mut team = spawn_file_server(
        &mut cl,
        HostId(1),
        FileServerConfig::default(),
        BlockStore::new(),
    );
    let agent = team.attach_migration_agent(&mut cl);
    let reply = probe(&mut cl, agent);
    assert_error_echoing_tag("migration agent", reply);
}

#[test]
fn cache_agent_answers_an_unknown_op_with_its_tag() {
    let mut cl = cluster();
    let cache = Rc::new(RefCell::new(BlockCache::new(8)));
    let agent = cl.spawn(HostId(1), "cache-agent", Box::new(CacheAgent::new(cache)));
    let reply = probe(&mut cl, agent);
    assert_error_echoing_tag("cache agent", reply);
}
