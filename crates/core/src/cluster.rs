//! The cluster: hosts + network + event loop.
//!
//! A [`Cluster`] owns every simulated workstation, the shared Ethernet and
//! the event queue, and drives the whole system to quiescence. It is the
//! top-level object experiments construct; see the crate examples and the
//! `v-bench` experiments for usage. How a frame reaches its hosts is
//! `fanout.rs`; what a program calls during a resume is [`Api`].

use v_net::{EtherType, MacAddr, Nic, Transport};
use v_sim::{EventQueue, SimDuration, SimTime};

use crate::addrspace::AddressSpace;
use crate::aliens::AlienTable;
use crate::api::Api;
use crate::config::ClusterConfig;
use crate::costs::CostModel;
use crate::cpu::{Cpu, CpuSpeed};
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::{Event, FanOut, HostId, TimerKind};
use crate::fanout::Segment;
use crate::host::{Host, Lane};
use crate::hostmap::HostMap;
use crate::naming::NameTable;
use crate::pcb::{Pcb, ProcState};
use crate::pid::{LogicalHost, Pid};
use crate::program::{Outcome, Program};
use crate::raw::RawHandler;
use crate::stats::KernelStats;

/// The simulated distributed system.
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) net: Box<dyn Transport>,
    pub(crate) hosts: Vec<Host>,
    /// Host `i`'s processor, crashed flag, `quiet` bit and place in its
    /// segment's charge log, and what else of a host outlives its
    /// kernel's tables.
    pub(crate) lanes: Vec<Lane>,
    /// Per network segment: its charge log and exceptions.
    pub(crate) segments: Vec<Segment>,
    /// The cost model of each processor grade, `grade as usize` indexed.
    pub(crate) grade_costs: [CostModel; CpuSpeed::GRADES],
    /// Entries logged on any segment so far, counted round: a lane that
    /// has seen this many owes nothing new, which is what anything that
    /// reads or charges a processor asks first.
    pub(crate) logged: u32,
    /// Logical events dispatched: one per resume/frame/timer/chunk. An
    /// arrival event counts once per receiver it reaches, so the number
    /// is comparable across delivery-batching changes.
    pub(crate) events_dispatched: u64,
}

impl Cluster {
    /// Builds a cluster from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration places a host on a segment the
    /// topology does not have (see [`ClusterConfig::validate`]).
    pub fn new(cfg: ClusterConfig) -> Cluster {
        if let Err(e) = cfg.validate() {
            panic!("invalid cluster configuration: {e}");
        }
        let mut net = cfg.topology.build(cfg.seed);
        net.set_faults(cfg.faults);
        net.set_collision_bug(cfg.collision_bug);

        let mut hosts = Vec::with_capacity(cfg.hosts.len());
        let mut lanes = Vec::with_capacity(cfg.hosts.len());
        let mut segments: Vec<Segment> = Vec::new();
        segments.resize_with(cfg.num_segments(), Segment::default);
        for (i, hc) in cfg.hosts.iter().enumerate() {
            let host = new_host(&cfg, HostId(i));
            net.attach(host.nic.mac(), hc.segment);
            let lane = Lane {
                cpu: Cpu::new(hc.cpu),
                cursor: 0,
                seen: 0,
                seg: hc.segment as u32,
                up: true,
                quiet: host.quiet(),
                housekeeping_armed: false,
            };
            if !lane.deferred() {
                segments[hc.segment].exceptions.push(i as u32);
            }
            hosts.push(host);
            lanes.push(lane);
        }
        Cluster {
            cfg,
            queue: EventQueue::new(),
            net,
            hosts,
            lanes,
            segments,
            grade_costs: CpuSpeed::ALL.map(CostModel::for_speed),
            logged: 0,
            events_dispatched: 0,
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// A host's logical host identifier.
    pub fn logical_host(&self, host: HostId) -> LogicalHost {
        self.hosts[host.0].logical
    }

    /// A host's accumulated kernel statistics.
    pub fn kernel_stats(&self, host: HostId) -> KernelStats {
        self.hosts[host.0].stats
    }

    /// A host's total charged processor time.
    pub fn cpu_busy(&self, host: HostId) -> SimDuration {
        self.cpu(host).busy_total()
    }

    /// A host's processor utilization over the elapsed simulation time.
    pub fn cpu_utilization(&self, host: HostId) -> f64 {
        self.cpu(host).utilization(self.now())
    }

    /// A host's processor as it stands once caught up with its segment's
    /// log.
    fn cpu(&self, host: HostId) -> Cpu {
        let lane = &self.lanes[host.0];
        if lane.deferred() {
            let log = &self.segments[lane.seg as usize].log;
            log.caught_up(&lane.cpu, lane.cursor)
        } else {
            lane.cpu.clone()
        }
    }

    /// Medium statistics (summed across segments on multi-segment
    /// topologies).
    pub fn medium_stats(&self) -> v_net::MediumStats {
        self.net.stats()
    }

    /// Per-gateway statistics, one entry per gateway in placement order
    /// ([`v_net::Topology::Mesh`]). Empty when the topology has no store-and-forward element.
    pub fn gateway_stats(&self) -> Vec<v_net::GatewayStats> {
        self.net.per_gateway_stats()
    }

    /// Gateway statistics summed across all gateways, when the topology
    /// has any.
    pub fn gateway_stats_total(&self) -> Option<v_net::GatewayStats> {
        self.net.gateway_stats()
    }

    /// Looks at a process's address space (testing / verification aid).
    pub fn read_process_memory(
        &self,
        host: HostId,
        pid: Pid,
        addr: u32,
        len: usize,
    ) -> Result<Vec<u8>, KernelError> {
        let pcb = self.hosts[host.0]
            .proc(pid)
            .ok_or(KernelError::NonexistentProcess)?;
        pcb.space.read(addr, len)
    }

    /// True if the process still exists.
    pub fn process_exists(&self, host: HostId, pid: Pid) -> bool {
        self.hosts[host.0].proc(pid).is_some()
    }

    /// Injects a frame as if it had just finished arriving at `host`'s
    /// interface — addressed to that host, as every arriving frame is
    /// (testing aid: exercises the receive/dispatch path with hand-built
    /// bytes that the in-simulation senders would never emit).
    pub fn inject_frame(&mut self, host: HostId, mut frame: v_net::Frame) {
        let at = self.now();
        frame.dst = host.station_mac();
        let unicast = Event::Arrival {
            frame,
            fan_out: None,
        };
        self.queue.schedule(at, unicast);
    }

    /// Registers a raw protocol handler on a host (see [`RawHandler`]).
    pub fn register_raw_handler(
        &mut self,
        host: HostId,
        ethertype: EtherType,
        handler: Box<dyn RawHandler>,
    ) {
        self.hosts[host.0].raw.insert(ethertype.0, handler);
    }

    /// A host's station address.
    pub fn mac(&self, host: HostId) -> MacAddr {
        self.hosts[host.0].nic.mac()
    }

    /// Schedules a timer callback into a registered raw handler after
    /// `delay` — the way a measurement harness kicks a raw protocol into
    /// motion (raw handlers otherwise only run on frame arrival).
    pub fn poke_raw_handler(
        &mut self,
        host: HostId,
        ethertype: EtherType,
        token: u64,
        delay: SimDuration,
    ) {
        let at = self.now() + delay;
        self.queue.schedule(
            at,
            Event::Timer {
                host,
                kind: TimerKind::Raw {
                    ethertype: ethertype.0,
                    token,
                },
            },
        );
    }

    /// True while `host` is up (not crashed).
    pub fn host_is_up(&self, host: HostId) -> bool {
        self.lanes[host.0].up
    }

    /// Crashes a host: every process, alien descriptor, in-flight
    /// transfer, name registration, suspicion, raw handler and learned
    /// address on it is lost — the host is rebuilt as it booted, keeping
    /// only its `stats`, its uid counter and its interface — and the
    /// interface stops hearing frames. Peer kernels notice only
    /// through the protocol: their retransmission budgets run out and
    /// their `Send`s fail with [`KernelError::HostDown`]. A no-op if the
    /// host is already down.
    pub fn crash_host(&mut self, host: HostId) {
        let lane = &mut self.lanes[host.0];
        if !lane.up {
            return;
        }
        let old = std::mem::replace(&mut self.hosts[host.0], new_host(&self.cfg, host));
        let h = &mut self.hosts[host.0];
        (h.stats, h.next_uid, h.nic) = (old.stats, old.next_uid, old.nic);
        h.stats.crashes += 1;
        h.stats.processes_exited += old.procs.len() as u64;
        let seg = &mut self.segments[lane.seg as usize];
        seg.redefer(lane, host, h.quiet(), false);
        // Timers and events still queued against this host become no-ops
        // at dispatch; `stats` survive as the simulation's accounting.
    }

    /// Restarts a crashed host with an empty kernel: no processes, no
    /// registrations — scenarios respawn services explicitly. The local
    /// uid counter is *not* rewound, so stale pids from before the crash
    /// never collide with new processes (senders holding them get a
    /// clean Nack → [`KernelError::NonexistentProcess`]).
    ///
    /// # Panics
    ///
    /// Panics if the host is up.
    pub fn restart_host(&mut self, host: HostId) {
        let lane = &mut self.lanes[host.0];
        assert!(!lane.up, "restart_host({host:?}): host is not crashed");
        let seg = &mut self.segments[lane.seg as usize];
        seg.redefer(lane, host, lane.quiet, true);
        self.hosts[host.0].stats.restarts += 1;
    }

    /// Replaces the transport's fault plan at the current instant —
    /// the runtime counterpart of [`ClusterConfig::faults`], used by
    /// chaos schedules to open and heal lossy periods or partitions.
    pub fn set_faults(&mut self, plan: v_net::FaultPlan) {
        self.net.set_faults(plan);
    }

    /// Takes gateway `idx` of a mesh topology out of service: its queue
    /// is lost and routes are recomputed without it (possibly leaving
    /// segments unreachable — a partition). Returns false if the
    /// topology has no such gateway or it is already down.
    pub fn fail_gateway(&mut self, idx: usize) -> bool {
        self.net.fail_gateway(idx)
    }

    /// Brings gateway `idx` back into service and recomputes routes.
    /// Returns false if the topology has no such gateway or it is up.
    pub fn restore_gateway(&mut self, idx: usize) -> bool {
        self.net.restore_gateway(idx)
    }

    /// Spawns a process on `host` with the default address-space size.
    pub fn spawn(&mut self, host: HostId, name: &str, program: Box<dyn Program>) -> Pid {
        assert!(
            self.lanes[host.0].up,
            "cannot spawn {name:?} on crashed host {host:?}"
        );
        self.create_process(host, self.now(), name, program).0
    }

    /// Creates a process on `host`, charges its creation from `at` and
    /// schedules its first resume where the charge ends: the new pid,
    /// and that instant.
    pub(crate) fn create_process(
        &mut self,
        host: HostId,
        at: SimTime,
        name: &str,
        program: Box<dyn Program>,
    ) -> (Pid, SimTime) {
        self.catch_up_lane(host);
        let h = &mut self.hosts[host.0];
        let uid = h.alloc_uid();
        let pid = Pid::new(h.logical, uid);
        let pcb = Pcb::new(pid, program, AddressSpace::DEFAULT_SIZE, name.to_string());
        h.procs.insert(uid, pcb);
        h.stats.processes_spawned += 1;
        let end = self.lanes[host.0].cpu.charge(at, h.costs.spawn).end;
        let outcome = Outcome::Started;
        self.queue
            .schedule(end, Event::Resume { host, pid, outcome });
        (pid, end)
    }

    /// Runs until the event queue is exhausted (the system is quiescent:
    /// every process blocked with nothing in flight).
    pub fn run(&mut self) {
        while let Some((t, ev)) = self.queue.pop() {
            self.dispatch(t, ev);
        }
    }

    /// Runs until simulated time `deadline` (events at exactly `deadline`
    /// included) or quiescence, whichever is first.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((t, ev)) = self.queue.pop_due(deadline) {
            self.dispatch(t, ev);
        }
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Engine counters of the underlying event queue (scheduled, popped,
    /// pending) — the observable events-processed surface.
    pub fn sim_stats(&self) -> v_sim::SimStats {
        self.queue.stats()
    }

    /// Logical events dispatched so far (an arrival event counts once
    /// per receiver it reaches).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    fn dispatch(&mut self, t: SimTime, ev: Event) {
        match ev {
            Event::Arrival { frame, fan_out } => match fan_out {
                None => self.dispatch_one(t, &frame),
                Some(fan_out) => {
                    let FanOut { reach, rest } = *fan_out;
                    self.dispatch_fan_out(t, frame, reach);
                    for (frame, reach) in rest {
                        self.dispatch_fan_out(t, frame, reach);
                    }
                }
            },
            ev => {
                self.events_dispatched += 1;
                match ev {
                    // Housekeeping runs on a crashed host too: it finds
                    // empty tables and disarms itself, so the armed flag
                    // cannot wedge across a crash/restart cycle.
                    Event::Timer {
                        host,
                        kind: TimerKind::Housekeeping,
                    } => self.ctx(host).housekeeping(t),
                    // A crashed host is deaf and inert: any other timer or
                    // resume is stale, its state torn down with the kernel.
                    Event::Resume { host, .. }
                    | Event::ChunkReady { host, .. }
                    | Event::Timer { host, .. }
                        if !self.lanes[host.0].up => {}
                    Event::Resume { host, pid, outcome } => {
                        self.handle_resume(t, host, pid, outcome)
                    }
                    Event::ChunkReady { host, key } => self.ctx(host).handle_chunk_ready(t, key),
                    Event::Timer { host, kind } => self.handle_timer(t, host, kind),
                    Event::Arrival { .. } => unreachable!("handled above"),
                }
            }
        }
    }

    /// Builds the split-borrow context for one host, its lane caught up.
    #[inline]
    pub(crate) fn ctx(&mut self, host: HostId) -> Ctx<'_> {
        self.catch_up_lane(host);
        Ctx {
            host: &mut self.hosts[host.0],
            lane: &mut self.lanes[host.0],
            segments: &mut self.segments,
            net: self.net.as_mut(),
            queue: &mut self.queue,
            proto: &self.cfg.protocol,
            host_id: host,
        }
    }

    fn handle_timer(&mut self, t: SimTime, host: HostId, kind: TimerKind) {
        let k = &mut self.ctx(host);
        match kind {
            TimerKind::Retransmit { pid, seq } => k.retransmit_timer(t, pid, seq),
            TimerKind::TransferStall { pid, seq, marker } => {
                k.transfer_stall_timer(t, pid, seq, marker)
            }
            TimerKind::GetPid { pid, logical_id } => k.getpid_timer(t, pid, logical_id),
            TimerKind::Housekeeping => unreachable!("dispatched directly"),
            TimerKind::Raw { ethertype, token } => {
                k.run_raw(t, ethertype, |h, raw| h.on_timer(raw, token))
            }
        }
    }

    fn handle_resume(&mut self, t: SimTime, host: HostId, pid: Pid, outcome: Outcome) {
        let Some(pcb) = self.hosts[host.0].proc_mut(pid) else {
            return; // process exited while the resume was in flight
        };
        let Some(mut program) = pcb.program.take() else {
            return; // re-entrant resume; cannot happen with correct state
        };
        pcb.state = ProcState::Ready;
        // The program may charge its processor through the `Api`.
        self.catch_up_lane(host);

        let mut api = Api {
            cl: self,
            host,
            pid,
            now: t,
            pending: None,
            exited: false,
        };
        program.resume(&mut api, outcome);
        let (after, pending, exited) = (api.now, api.pending, api.exited);

        if exited {
            drop(program);
            self.exit_process(after, host, pid);
            return;
        }
        match self.hosts[host.0].proc_mut(pid) {
            Some(pcb) => pcb.program = Some(program),
            None => return, // exited as a side effect (cannot currently happen)
        }
        match pending {
            None => self.exit_process(after, host, pid),
            Some(p) => self.ctx(host).execute_blocking(after, pid, &p),
        }
    }

    /// Terminates a process and cleans up everything referring to it.
    pub(crate) fn exit_process(&mut self, t: SimTime, host: HostId, pid: Pid) {
        let k = &mut self.ctx(host);
        if k.host.procs.remove(&pid.local()).is_none() {
            return;
        }
        k.host.stats.processes_exited += 1;
        k.host.names.purge_pid(pid);
        k.lane.requiet(k.host, k.segments);
        k.host.drop_streams_of(pid);

        // Fail local senders blocked on the departed process.
        let to_fail: Vec<Pid> = (k.host.procs.values())
            .filter(|p| matches!(p.state, ProcState::AwaitingReplyLocal { to, .. } if to == pid))
            .map(|p| p.pid)
            .collect();
        for sender in to_fail {
            k.host.proc_mut(sender).expect("scanned above").state = ProcState::Ready;
            k.resume_at(
                t,
                sender,
                Outcome::Send(Err(KernelError::NonexistentProcess)),
            );
        }

        // Nack remote senders whose exchanges can no longer complete.
        // Replied aliens stay: their cached replies must keep answering
        // retransmissions of exchanges that *did* complete.
        for src in k.host.aliens.addressed_to_unreplied(pid) {
            let alien = k.host.aliens.remove(src).expect("listed");
            k.send_nack(t, alien.src, alien.seq, pid);
        }
    }
}

/// Host `id` of `cfg` as it boots, and as a crash leaves it: every
/// kernel table empty.
fn new_host(cfg: &ClusterConfig, id: HostId) -> Host {
    let mac = id.station_mac();
    Host {
        id,
        logical: LogicalHost::from_station(mac.0),
        costs: CostModel::for_speed(cfg.hosts[id.0].cpu),
        nic: Nic::new(mac),
        procs: Default::default(),
        next_uid: 1,
        aliens: AlienTable::new(cfg.protocol.alien_pool),
        names: NameTable::new(),
        hostmap: HostMap::new(cfg.addressing),
        outbound: Default::default(),
        inbound: Default::default(),
        raw: Default::default(),
        stats: KernelStats::default(),
        suspects: Default::default(),
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.hosts.len())
            .field("now", &self.now())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StreamKey;
    use crate::host::{InRole, InStream, OutRole, OutStream};
    use crate::message::Message;
    use crate::naming::Scope;
    use crate::raw::RawCtx;

    /// Registers a name, then answers whatever it receives.
    struct Named;

    impl Program for Named {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            match outcome {
                Outcome::Receive { from, msg } => {
                    api.reply(msg, from).expect("the sender awaits it");
                }
                _ => {
                    let me = api.self_pid();
                    api.set_pid(7, me, Scope::Both);
                }
            }
            api.receive();
        }
    }

    /// Resolves the name `left` times.
    struct Asker {
        left: u32,
    }

    impl Program for Asker {
        fn resume(&mut self, api: &mut Api<'_>, _outcome: Outcome) {
            if self.left == 0 {
                return api.exit();
            }
            self.left -= 1;
            api.get_pid(7, Scope::Both);
        }
    }

    /// Every host's processor time after a few rounds of name queries on
    /// one segment, with the count of logged entries starting at `logged`.
    fn busy_after_queries(logged: u32) -> Vec<SimDuration> {
        let mut cl =
            Cluster::new(ClusterConfig::three_mb().with_hosts(8, CpuSpeed::Mc68000At10MHz));
        cl.logged = logged;
        cl.spawn(HostId(0), "named", Box::new(Named));
        for h in 1..5 {
            cl.spawn(HostId(h), "asker", Box::new(Asker { left: 3 }));
            cl.run_for(SimDuration::from_millis(3));
        }
        cl.run();
        assert!(cl.logged < 20, "counted round");
        (0..8).map(|h| cl.cpu_busy(HostId(h))).collect()
    }

    #[test]
    fn the_count_of_logged_entries_comes_round_without_a_trace() {
        assert_eq!(busy_after_queries(u32::MAX - 3), busy_after_queries(0));
    }

    /// Sends one message, then exits.
    struct Caller {
        to: Pid,
    }

    impl Program for Caller {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            if let Outcome::Started = outcome {
                api.send(Message::empty(), self.to);
            }
        }
    }

    /// A raw protocol that does nothing.
    struct Mute;

    impl RawHandler for Mute {
        fn on_frame(&mut self, _: &mut dyn RawCtx, _: &v_net::Frame) {}
        fn on_timer(&mut self, _: &mut dyn RawCtx, _: u64) {}
    }

    #[test]
    fn a_crash_leaves_the_host_as_it_booted_but_for_its_stats_and_uid_counter() {
        let cfg = ClusterConfig::ten_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let (a, b) = (HostId(0), HostId(1));
        let named = cl.spawn(a, "named", Box::new(Named));
        let caller = cl.spawn(b, "caller", Box::new(Caller { to: named }));
        // Long enough for the exchange, short of the cached reply's expiry.
        cl.run_for(SimDuration::from_millis(100));
        cl.register_raw_handler(a, EtherType(0x0bad), Box::new(Mute));
        let peer = cl.logical_host(b);
        let h = &mut cl.hosts[a.0];
        h.suspects.insert(peer);
        let key = StreamKey::new(caller, 1);
        let out = OutStream::new(OutRole::Push, named, caller, 0, 1024);
        h.outbound.insert(key, out);
        let fetch = InStream::new(InRole::Fetch, named, caller, 1024, SimTime::ZERO);
        h.inbound.insert(key, fetch);
        assert_eq!(h.procs.len(), 1, "the name's holder runs");
        assert_eq!(h.aliens.len(), 1, "the caller's reply is cached");
        assert_eq!(h.names.lookup_local(7), Some(named));
        assert!(
            h.hostmap.resolve(peer).is_some(),
            "the caller's station is learned"
        );
        let (mut stats, next_uid) = (h.stats, h.next_uid);

        cl.crash_host(a);
        cl.restart_host(a);
        let h = &cl.hosts[a.0];
        assert!(h.procs.is_empty());
        assert!(h.aliens.is_empty());
        assert_eq!(h.names.lookup_local(7), None);
        assert!(!h.names.answers_remote_queries());
        assert_eq!(h.hostmap.resolve(peer), None);
        assert!(h.suspects.is_empty());
        assert!(h.outbound.is_empty());
        assert!(h.inbound.is_empty());
        assert!(h.raw.is_empty());
        (stats.crashes, stats.restarts) = (stats.crashes + 1, stats.restarts + 1);
        stats.processes_exited += 1;
        assert_eq!(format!("{:?}", h.stats), format!("{stats:?}"));
        assert_eq!(h.next_uid, next_uid);
        assert_eq!(cl.spawn(a, "again", Box::new(Named)).local(), next_uid);
    }
}
