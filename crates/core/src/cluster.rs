//! The cluster: hosts + network + event loop.
//!
//! A [`Cluster`] owns every simulated workstation, the shared Ethernet and
//! the event queue, and drives the whole system to quiescence. It is the
//! top-level object experiments construct; see the crate examples and the
//! `v-bench` experiments for usage.

use v_net::sink::receivers;
use v_net::{EtherType, Frame, MacAddr, Nic, Transport};
use v_sim::{EventQueue, SimDuration, SimTime};
use v_wire::{Packet, PacketBody};

use crate::aliens::AlienTable;
use crate::config::ClusterConfig;
use crate::costs::CostModel;
use crate::cpu::{ChargeLog, Cpu, CpuSpeed};
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::{Event, FanOut, HostId, Reach, TimerKind};
use crate::host::{Host, Lane};
use crate::hostmap::HostMap;
use crate::ipc::dispatch::{decode_frame, rx_cost, Decoded};
use crate::message::Message;
use crate::naming::{NameTable, Scope};
use crate::pcb::{Pcb, ProcState};
use crate::pid::{LogicalHost, Pid};
use crate::program::{Outcome, Program};
use crate::raw::RawHandler;
use crate::stats::KernelStats;

/// A blocking kernel call collected from a program resume.
#[derive(Debug)]
pub(crate) enum Pending {
    Send {
        msg: Message,
        to: Pid,
    },
    Receive,
    ReceiveSeg {
        buf: u32,
        size: u32,
    },
    MoveTo {
        dst: Pid,
        dest: u32,
        src: u32,
        count: u32,
    },
    MoveFrom {
        src_pid: Pid,
        dest: u32,
        src: u32,
        count: u32,
    },
    GetPid {
        logical_id: u32,
        scope: Scope,
    },
    Delay(SimDuration),
    Compute(SimDuration),
}

/// What the cluster keeps of one network segment for the name queries
/// it hears. A query reaches every host of the segment but its sender;
/// it is charged to the deferred lanes as one entry of `log`, and handed
/// only to the `exceptions`.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    /// Receive charges its deferred lanes owe.
    log: ChargeLog,
    /// Its hosts whose lanes are not deferred, in station order — and
    /// any that have become deferred since the last query logged here,
    /// which that query drops.
    exceptions: Vec<u32>,
}

impl Segment {
    /// Charges a deferred lane what it owes the log.
    #[inline]
    fn catch_up(&self, lane: &mut Lane) {
        if lane.deferred() && (lane.cursor as usize) < self.log.len() {
            self.log.catch_up(&mut lane.cpu, &mut lane.cursor);
        }
    }

    /// Sets `host`'s lane's `quiet` and `up` flags, moving it into or out
    /// of the deferred state: a lane that leaves is caught up and joins
    /// the exceptions, a lane that enters owes nothing logged before.
    pub(crate) fn redefer(&mut self, lane: &mut Lane, host: HostId, quiet: bool, up: bool) {
        let was = lane.deferred();
        (lane.quiet, lane.up) = (quiet, up);
        if was && !lane.deferred() {
            self.log.catch_up(&mut lane.cpu, &mut lane.cursor);
            let h = host.0 as u32;
            if let Err(at) = self.exceptions.binary_search(&h) {
                self.exceptions.insert(at, h);
            }
        } else if !was && lane.deferred() {
            lane.cursor = self.log.len() as u32;
        }
    }
}

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
    grade_costs: [CostModel; CpuSpeed::GRADES],
    /// Entries logged on any segment so far, counted round: a lane that
    /// has seen this many owes nothing new, which is what anything that
    /// reads or charges a processor asks first.
    logged: u32,
    /// Logical events dispatched: one per resume/frame/timer/chunk. An
    /// arrival event counts once per receiver it reaches, so the number
    /// is comparable across delivery-batching changes.
    events_dispatched: u64,
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
        let mut segments: Vec<Segment> = (0..cfg.num_segments())
            .map(|_| Segment::default())
            .collect();
        for (i, hc) in cfg.hosts.iter().enumerate() {
            let mac = HostId(i).station_mac();
            net.attach(mac, hc.segment);
            hosts.push(Host {
                id: HostId(i),
                logical: LogicalHost::from_station(mac.0),
                costs: CostModel::for_speed(hc.cpu),
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
            });
            let lane = Lane {
                cpu: Cpu::new(hc.cpu),
                cursor: 0,
                seen: 0,
                seg: hc.segment as u32,
                up: true,
                quiet: hosts[i].quiet(),
                housekeeping_armed: false,
            };
            if !lane.deferred() {
                segments[hc.segment].exceptions.push(i as u32);
            }
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
        self.hosts[host.0].register_raw(ethertype, handler);
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
                kind: crate::event::TimerKind::Raw {
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
    /// transfer, name registration and learned address on it is lost,
    /// and the interface stops hearing frames. Peer kernels notice only
    /// through the protocol: their retransmission budgets run out and
    /// their `Send`s fail with [`KernelError::HostDown`]. A no-op if the
    /// host is already down.
    pub fn crash_host(&mut self, host: HostId) {
        let addressing = self.cfg.addressing;
        let pool = self.cfg.protocol.alien_pool;
        let h = &mut self.hosts[host.0];
        let lane = &mut self.lanes[host.0];
        if !lane.up {
            return;
        }
        h.stats.crashes += 1;
        h.stats.processes_exited += h.procs.len() as u64;
        h.procs.clear();
        h.aliens = AlienTable::new(pool);
        h.names = NameTable::new();
        h.hostmap = HostMap::new(addressing);
        h.suspects.clear();
        h.outbound.clear();
        h.inbound.clear();
        h.raw.clear();
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
        self.spawn_with_space(
            host,
            name,
            program,
            crate::addrspace::AddressSpace::DEFAULT_SIZE,
        )
    }

    /// Spawns a process with an explicit address-space size.
    pub fn spawn_with_space(
        &mut self,
        host: HostId,
        name: &str,
        program: Box<dyn Program>,
        space: usize,
    ) -> Pid {
        let now = self.now();
        let h = &mut self.hosts[host.0];
        let lane = &mut self.lanes[host.0];
        assert!(lane.up, "cannot spawn {name:?} on crashed host {host:?}");
        self.segments[lane.seg as usize].catch_up(lane);
        let uid = h.alloc_uid();
        let pid = Pid::new(h.logical, uid);
        let pcb = Pcb::new(pid, program, space, name.to_string());
        h.procs.insert(uid, pcb);
        h.stats.processes_spawned += 1;
        let span = lane.cpu.charge(now, h.costs.spawn);
        self.queue.schedule(
            span.end,
            Event::Resume {
                host,
                pid,
                outcome: Outcome::Started,
            },
        );
        pid
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
                // A crashed host is deaf and inert: stale timers/resumes
                // are no-ops (their state was torn down with the
                // kernel). Housekeeping is the one timer still allowed
                // through — it finds empty tables and disarms itself, so
                // the armed flag cannot wedge across a crash/restart
                // cycle.
                let target = match &ev {
                    Event::Resume { host, .. } | Event::ChunkReady { host, .. } => Some(*host),
                    Event::Timer { host, kind } if !matches!(kind, TimerKind::Housekeeping) => {
                        Some(*host)
                    }
                    _ => None,
                };
                if let Some(h) = target {
                    if !self.lanes[h.0].up {
                        return;
                    }
                }
                match ev {
                    Event::Resume { host, pid, outcome } => {
                        self.handle_resume(t, host, pid, outcome)
                    }
                    Event::Timer { host, kind } => self.handle_timer(t, host, kind),
                    Event::ChunkReady { host, key } => self.ctx(host).handle_chunk_ready(t, key),
                    Event::Arrival { .. } => unreachable!("handled above"),
                }
            }
        }
    }

    /// Dispatches one frame to every station it reaches.
    ///
    /// A frame of one station's own (a unicast, or a copy a fault plan
    /// gave a fate of its own) is that host's to decode and keep. A run
    /// is decoded once for all its receivers. A name query's run is
    /// logged ([`Cluster::log_query`]). Every receiver of anything else
    /// goes through `handle_frame`, in station order. (Kept out of
    /// `dispatch`: inlined, it costs the unicast path.)
    #[inline(never)]
    fn dispatch_fan_out(&mut self, t: SimTime, mut frame: Frame, reach: Reach) {
        let Reach::Run { stations, len } = reach else {
            return self.dispatch_one(t, &frame);
        };
        let stations = &stations[..len];
        // The packet borrows its data from a copy of the frame (a handle
        // on the same buffer), so that the frame itself can be addressed
        // to each receiver in turn.
        let shared = frame.clone();
        let decoded = (frame.ethertype == EtherType::INTERKERNEL)
            .then(|| decode_frame(&self.cfg.protocol, &shared));
        let name_query = matches!(
            &decoded,
            Some(Ok((
                Packet {
                    body: PacketBody::GetPidReq(_),
                    ..
                },
                _
            )))
        );
        if name_query {
            return self.log_query(t, frame, &decoded, stations);
        }
        for station in receivers(stations, frame.src) {
            let Some(host) = self.host_at(station) else {
                continue;
            };
            if self.hears(host) {
                frame.dst = station;
                self.ctx(host).handle_frame(t, &frame, decoded.as_ref());
            }
        }
    }

    /// A name query's run, which reaches every host of a segment but the
    /// sender: counted once per receiver, charged to the segment's
    /// deferred lanes as one entry of its log — the sender's, if it is
    /// one of them, skips it; a full log is folded first — and handed to
    /// the segment's exceptions, in station order: by [`Host::quiet`]
    /// nothing but the charge comes of it anywhere else. Debug builds
    /// check both halves of that, lane by lane: the run covers every
    /// host of the segment in order (the sender's station too, which its
    /// readers skip), and every lane's `quiet` bit is current.
    fn log_query(
        &mut self,
        t: SimTime,
        mut frame: Frame,
        decoded: &Option<Decoded<'_>>,
        stations: &[MacAddr],
    ) {
        let first = self.host_at(stations[0]).expect("a run reaches hosts");
        let seg = self.lanes[first.0].seg as usize;
        let sender = self
            .host_at(frame.src)
            .filter(|h| self.lanes[h.0].seg as usize == seg);
        self.events_dispatched += (stations.len() - sender.is_some() as usize) as u64;
        if cfg!(debug_assertions) {
            let mut run = stations.iter();
            for (h, lane) in self.lanes.iter().enumerate() {
                if lane.seg as usize != seg {
                    continue;
                }
                assert!(
                    lane.quiet == self.hosts[h].quiet(),
                    "host{h}: a change to what Host::quiet reads must call Lane::requiet"
                );
                assert_eq!(
                    run.next(),
                    Some(&HostId(h).station_mac()),
                    "a name query's run covers every host of its segment, in order"
                );
            }
            assert_eq!(run.next(), None, "a run covers the hosts of one segment");
        }
        if self.logged == u32::MAX {
            // Counted round, a lane's `seen` could come back into step
            // with entries it owes: every lane catches up, and the count
            // starts over.
            for lane in &mut self.lanes {
                self.segments[lane.seg as usize].catch_up(lane);
                lane.seen = 0;
            }
            self.logged = 0;
        }
        let log = &mut self.segments[seg].log;
        if log.is_full() {
            let owing = (self.lanes.iter_mut()).filter(|l| l.seg as usize == seg && l.deferred());
            log.fold(owing.map(|l| (&mut l.cpu, &mut l.cursor)));
        }
        let len = frame.payload.len();
        let cost =
            CpuSpeed::ALL.map(|g| rx_cost(&self.grade_costs[g as usize], &self.cfg.protocol, len));
        let sender_lane = sender
            .map(|h| &mut self.lanes[h.0])
            .filter(|l| l.deferred())
            .map(|l| (&mut l.cpu, &mut l.cursor));
        log.push(t, cost, sender_lane);
        self.logged += 1;
        let mut exceptions = std::mem::take(&mut self.segments[seg].exceptions);
        exceptions.retain(|&h| {
            let host = HostId(h as usize);
            if self.lanes[host.0].deferred() {
                return false;
            }
            if Some(host) != sender && self.live(host) {
                frame.dst = host.station_mac();
                self.ctx(host).handle_frame(t, &frame, decoded.as_ref());
            }
            true
        });
        debug_assert!(self.segments[seg].exceptions.is_empty());
        self.segments[seg].exceptions = exceptions;
    }

    /// Dispatches a frame of one station's own to the host `frame.dst`
    /// addresses. Nobody hears a frame no interface matches.
    #[inline]
    fn dispatch_one(&mut self, t: SimTime, frame: &Frame) {
        if let Some(host) = self.host_at(frame.dst) {
            if self.hears(host) {
                self.ctx(host).handle_frame(t, frame, None);
            }
        }
    }

    /// The host whose interface answers to station address `mac`, if the
    /// cluster has one.
    fn host_at(&self, mac: MacAddr) -> Option<HostId> {
        HostId::from_station_mac(mac).filter(|h| h.0 < self.hosts.len())
    }

    /// Counts one frame arrival at `host` as a logical event and applies
    /// the crashed-host check.
    fn hears(&mut self, host: HostId) -> bool {
        self.events_dispatched += 1;
        self.live(host)
    }

    /// The crashed-host check of a frame arrival: false, and counted, if
    /// the bits died at a dead interface.
    fn live(&mut self, host: HostId) -> bool {
        let up = self.lanes[host.0].up;
        if !up {
            self.hosts[host.0].stats.frames_dropped_down += 1;
        }
        up
    }

    /// Builds the split-borrow context for one host, its lane caught up.
    #[inline]
    pub(crate) fn ctx(&mut self, host: HostId) -> Ctx<'_> {
        let lane = &mut self.lanes[host.0];
        if lane.seen != self.logged {
            lane.seen = self.logged;
            self.segments[lane.seg as usize].catch_up(lane);
        }
        Ctx {
            host: &mut self.hosts[host.0],
            lane,
            segments: &mut self.segments,
            net: self.net.as_mut(),
            queue: &mut self.queue,
            proto: &self.cfg.protocol,
            host_id: host,
        }
    }

    fn handle_timer(&mut self, t: SimTime, host: HostId, kind: TimerKind) {
        match kind {
            TimerKind::Retransmit { pid, seq } => self.ctx(host).retransmit_timer(t, pid, seq),
            TimerKind::TransferStall { pid, seq, marker } => {
                self.ctx(host).transfer_stall_timer(t, pid, seq, marker)
            }
            TimerKind::GetPid { pid, logical_id } => {
                self.ctx(host).getpid_timer(t, pid, logical_id)
            }
            TimerKind::Housekeeping => self.ctx(host).housekeeping(t),
            TimerKind::Raw { ethertype, token } => self.raw_timer(t, host, ethertype, token),
        }
    }

    fn raw_timer(&mut self, t: SimTime, host: HostId, ethertype: u16, token: u64) {
        let Some(mut handler) = self.hosts[host.0].raw.remove(&ethertype) else {
            return;
        };
        {
            let mut ctx = self.ctx(host);
            let mut raw = crate::ipc::dispatch::RawCtxImpl::new(&mut ctx, t, EtherType(ethertype));
            handler.on_timer(&mut raw, token);
        }
        self.hosts[host.0].raw.insert(ethertype, handler);
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
        let lane = &mut self.lanes[host.0];
        if lane.seen != self.logged {
            lane.seen = self.logged;
            self.segments[lane.seg as usize].catch_up(lane);
        }

        let mut api = Api {
            cl: self,
            host,
            pid,
            now: t,
            pending: None,
            exited: false,
        };
        program.resume(&mut api, outcome);
        let Api {
            pending,
            exited,
            now: after,
            ..
        } = api;

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
        let h = &mut self.hosts[host.0];
        if h.procs.remove(&pid.local()).is_none() {
            return;
        }
        h.stats.processes_exited += 1;
        h.names.purge_pid(pid);
        let lane = &mut self.lanes[host.0];
        lane.requiet(h, &mut self.segments);
        h.drop_streams_of(pid);

        // Fail local senders blocked on the departed process.
        let mut to_fail = Vec::new();
        for pcb in h.procs.values() {
            if let ProcState::AwaitingReplyLocal { to, .. } = &pcb.state {
                if *to == pid {
                    to_fail.push(pcb.pid);
                }
            }
        }
        for sender in to_fail {
            let pcb = self.hosts[host.0].proc_mut(sender).expect("scanned above");
            pcb.state = ProcState::Ready;
            self.queue.schedule(
                t,
                Event::Resume {
                    host,
                    pid: sender,
                    outcome: Outcome::Send(Err(KernelError::NonexistentProcess)),
                },
            );
        }

        // Nack remote senders whose exchanges can no longer complete.
        // Replied aliens stay: their cached replies must keep answering
        // retransmissions of exchanges that *did* complete.
        let aliens = self.hosts[host.0].aliens.addressed_to_unreplied(pid);
        for src in aliens {
            let alien = self.hosts[host.0].aliens.remove(src).expect("listed");
            let mut ctx = self.ctx(host);
            ctx.send_nack(t, alien.src, alien.seq, pid);
        }
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

/// The kernel interface handed to a [`Program`] during a resume.
///
/// Non-blocking operations (`reply`, `set_pid`, memory access, `spawn`,
/// `get_time`) execute immediately, charging processor time. Blocking
/// operations (`send`, `receive`, `move_to`, ...) may be issued **at most
/// once per resume**; the kernel runs them after the resume returns and
/// delivers the result via the next [`Outcome`].
pub struct Api<'a> {
    cl: &'a mut Cluster,
    host: HostId,
    pid: Pid,
    /// Time cursor: end of the charges incurred so far in this resume.
    now: SimTime,
    pending: Option<Pending>,
    exited: bool,
}

impl<'a> Api<'a> {
    fn set_pending(&mut self, p: Pending) {
        assert!(
            self.pending.is_none(),
            "process {} issued a second blocking kernel call in one resume",
            self.pid
        );
        self.pending = Some(p);
    }

    /// The calling process's pid.
    pub fn self_pid(&self) -> Pid {
        self.pid
    }

    /// The logical host this process runs on.
    pub fn local_host(&self) -> LogicalHost {
        self.cl.hosts[self.host.0].logical
    }

    /// Exact simulation time — a measurement-harness convenience with no
    /// 1983 counterpart and no processor charge. Programs that should
    /// measure the way the paper did use [`Api::get_time`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// `GetTime`: the kernel's software-maintained time, accurate to the
    /// paper's ±10 ms clock granularity. Charges the minimal kernel-call
    /// overhead.
    pub fn get_time(&mut self) -> SimTime {
        let cost = self.cl.hosts[self.host.0].costs.syscall_min;
        self.now = self.cl.lanes[self.host.0].cpu.charge(self.now, cost).end;
        SimTime::from_millis(self.now.as_nanos() / 10_000_000 * 10)
    }

    /// `Send(message, pid)`: blocks until the receiver replies.
    pub fn send(&mut self, msg: Message, to: Pid) {
        self.set_pending(Pending::Send { msg, to });
    }

    /// `Receive(message)`: blocks until a message arrives.
    pub fn receive(&mut self) {
        self.set_pending(Pending::Receive);
    }

    /// `ReceiveWithSegment`: like `receive`, but also accepts up to
    /// `size` bytes of the sender's read-granted segment into the buffer
    /// at `buf` in this process's space.
    pub fn receive_with_segment(&mut self, buf: u32, size: u32) {
        self.set_pending(Pending::ReceiveSeg { buf, size });
    }

    /// `MoveTo`: copies `count` bytes from `src` in this process's space
    /// to `dest` in `dst`'s space. `dst` must be awaiting reply from this
    /// process and must have granted write access covering the range.
    pub fn move_to(&mut self, dst: Pid, dest: u32, src: u32, count: u32) {
        self.set_pending(Pending::MoveTo {
            dst,
            dest,
            src,
            count,
        });
    }

    /// `MoveFrom`: copies `count` bytes from `src` in `src_pid`'s space to
    /// `dest` in this process's space. `src_pid` must be awaiting reply
    /// from this process and must have granted read access.
    pub fn move_from(&mut self, src_pid: Pid, dest: u32, src: u32, count: u32) {
        self.set_pending(Pending::MoveFrom {
            src_pid,
            dest,
            src,
            count,
        });
    }

    /// `GetPid(logicalid, scope)`: resolves a logical id, broadcasting to
    /// other kernels when the scope requires it.
    pub fn get_pid(&mut self, logical_id: u32, scope: Scope) {
        self.set_pending(Pending::GetPid { logical_id, scope });
    }

    /// Sleeps without consuming processor time (I/O waits, disk latency).
    pub fn delay(&mut self, d: SimDuration) {
        self.set_pending(Pending::Delay(d));
    }

    /// Consumes `d` of processor time (application computation).
    pub fn compute(&mut self, d: SimDuration) {
        self.set_pending(Pending::Compute(d));
    }

    /// Terminates this process.
    pub fn exit(&mut self) {
        self.exited = true;
    }

    /// `Reply(message, pid)`: sends the reply to a process awaiting reply
    /// from this one. Non-blocking.
    pub fn reply(&mut self, msg: Message, to: Pid) -> Result<(), KernelError> {
        let me = self.pid;
        let t = self.now;
        let mut ctx = self.cl.ctx(self.host);
        let end = ctx.do_reply(t, me, msg, to, None)?;
        self.now = end;
        Ok(())
    }

    /// `ReplyWithSegment`: reply plus a short segment written to
    /// `dest_ptr` in the replied-to process's space (which must have
    /// granted write access there). `src_addr`/`len` name the data in
    /// *this* process's space. Non-blocking.
    pub fn reply_with_segment(
        &mut self,
        msg: Message,
        to: Pid,
        dest_ptr: u32,
        src_addr: u32,
        len: u32,
    ) -> Result<(), KernelError> {
        let me = self.pid;
        let t = self.now;
        let mut ctx = self.cl.ctx(self.host);
        let end = ctx.do_reply(t, me, msg, to, Some((dest_ptr, src_addr, len)))?;
        self.now = end;
        Ok(())
    }

    /// `Forward(message, from, to)`: hands a message received from
    /// `from` to another server process `to`, as though `from` had sent
    /// it there directly — `to` becomes the process the client awaits a
    /// reply from, and its `Reply`/`MoveTo`/`MoveFrom` reach the client
    /// unchanged, locally and across hosts. The forwarder must have
    /// received (and not yet replied to) the exchange. Non-blocking:
    /// the receptionist of a server team forwards and immediately
    /// receives the next request.
    pub fn forward(&mut self, msg: Message, from: Pid, to: Pid) -> Result<(), KernelError> {
        let me = self.pid;
        let t = self.now;
        let mut ctx = self.cl.ctx(self.host);
        let end = ctx.do_forward(t, me, msg, from, to)?;
        self.now = end;
        Ok(())
    }

    /// `SetPid(logicalid, pid, scope)`: registers a logical id.
    pub fn set_pid(&mut self, logical_id: u32, pid: Pid, scope: Scope) {
        let h = &mut self.cl.hosts[self.host.0];
        let lane = &mut self.cl.lanes[self.host.0];
        self.now = lane.cpu.charge(self.now, h.costs.name_op).end;
        h.names.set(logical_id, pid, scope);
        lane.requiet(h, &mut self.cl.segments);
    }

    /// Reads this process's own memory (no kernel charge: programs touch
    /// their own space directly).
    pub fn mem_read(&self, addr: u32, len: usize) -> Result<Vec<u8>, KernelError> {
        let pcb = self.cl.hosts[self.host.0]
            .proc(self.pid)
            .expect("own process exists");
        pcb.space.read(addr, len)
    }

    /// Reads this process's own memory into `out`, whole: for bytes whose
    /// next home already exists (a store's block), so that no `Vec` has
    /// to carry them there.
    pub fn mem_read_into(&self, addr: u32, out: &mut [u8]) -> Result<(), KernelError> {
        let pcb = self.cl.hosts[self.host.0]
            .proc(self.pid)
            .expect("own process exists");
        pcb.space.read_into(addr, out)
    }

    /// Writes this process's own memory.
    pub fn mem_write(&mut self, addr: u32, data: &[u8]) -> Result<(), KernelError> {
        let pcb = self.cl.hosts[self.host.0]
            .proc_mut(self.pid)
            .expect("own process exists");
        pcb.space.write(addr, data)
    }

    /// Fills a range of this process's memory.
    pub fn mem_fill(&mut self, addr: u32, len: usize, value: u8) -> Result<(), KernelError> {
        let pcb = self.cl.hosts[self.host.0]
            .proc_mut(self.pid)
            .expect("own process exists");
        pcb.space.fill(addr, len, value)
    }

    /// True if every byte of a range of this process's memory equals
    /// `value`: the check behind a test pattern, made in place.
    pub fn mem_is_filled(&self, addr: u32, len: usize, value: u8) -> Result<bool, KernelError> {
        let pcb = self.cl.hosts[self.host.0]
            .proc(self.pid)
            .expect("own process exists");
        pcb.space.is_filled(addr, len, value)
    }

    /// Creates a process on this host (the kernel's process-creation
    /// service; used by the exec server of §7).
    pub fn spawn(&mut self, name: &str, program: Box<dyn Program>) -> Pid {
        // Charge creation cost at the cursor, then spawn through the
        // cluster so accounting stays in one place.
        let cost = self.cl.hosts[self.host.0].costs.spawn;
        self.now = self.cl.lanes[self.host.0].cpu.charge(self.now, cost).end;
        let host = self.host;
        let uid = self.cl.hosts[host.0].alloc_uid();
        let logical = self.cl.hosts[host.0].logical;
        let pid = Pid::new(logical, uid);
        let pcb = Pcb::new(
            pid,
            program,
            crate::addrspace::AddressSpace::DEFAULT_SIZE,
            name.to_string(),
        );
        self.cl.hosts[host.0].procs.insert(uid, pcb);
        self.cl.hosts[host.0].stats.processes_spawned += 1;
        self.cl.queue.schedule(
            self.now,
            Event::Resume {
                host,
                pid,
                outcome: Outcome::Started,
            },
        );
        pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
