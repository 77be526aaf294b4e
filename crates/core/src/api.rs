//! The kernel interface a [`Program`] is handed during a resume.

use v_sim::{SimDuration, SimTime};

use crate::addrspace::AddressSpace;
use crate::cluster::Cluster;
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::HostId;
use crate::message::Message;
use crate::naming::Scope;
use crate::pid::{LogicalHost, Pid};
use crate::program::Program;

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

/// The kernel interface handed to a [`Program`] during a resume.
///
/// Non-blocking operations (`reply`, `set_pid`, memory access, `spawn`,
/// `get_time`) execute immediately, charging processor time. Blocking
/// operations (`send`, `receive`, `move_to`, ...) may be issued **at most
/// once per resume**; the kernel runs them after the resume returns and
/// delivers the result via the next [`Outcome`](crate::Outcome).
pub struct Api<'a> {
    pub(crate) cl: &'a mut Cluster,
    pub(crate) host: HostId,
    pub(crate) pid: Pid,
    /// Time cursor: end of the charges incurred so far in this resume.
    pub(crate) now: SimTime,
    pub(crate) pending: Option<Pending>,
    pub(crate) exited: bool,
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

    /// Charges `cost` to this host's processor at the cursor, and moves
    /// the cursor to the charge's end.
    #[inline]
    fn charge(&mut self, cost: SimDuration) {
        self.now = self.cl.lanes[self.host.0].cpu.charge(self.now, cost).end;
    }

    /// Runs a non-blocking call in this host's kernel at the cursor, and
    /// moves the cursor to where the call's charges end.
    #[inline]
    fn in_kernel(
        &mut self,
        call: impl FnOnce(&mut Ctx<'_>, SimTime, Pid) -> Result<SimTime, KernelError>,
    ) -> Result<(), KernelError> {
        let (t, me) = (self.now, self.pid);
        self.now = call(&mut self.cl.ctx(self.host), t, me)?;
        Ok(())
    }

    /// This process's address space.
    fn space(&self) -> &AddressSpace {
        let pcb = self.cl.hosts[self.host.0].proc(self.pid);
        &pcb.expect("own process exists").space
    }

    /// This process's address space, to write.
    fn space_mut(&mut self) -> &mut AddressSpace {
        let pcb = self.cl.hosts[self.host.0].proc_mut(self.pid);
        &mut pcb.expect("own process exists").space
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
        self.charge(self.cl.hosts[self.host.0].costs.syscall_min);
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
        self.in_kernel(|k, t, me| k.do_reply(t, me, msg, to, None))
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
        let seg = Some((dest_ptr, src_addr, len));
        self.in_kernel(|k, t, me| k.do_reply(t, me, msg, to, seg))
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
        self.in_kernel(|k, t, me| k.do_forward(t, me, msg, from, to))
    }

    /// `SetPid(logicalid, pid, scope)`: registers a logical id.
    pub fn set_pid(&mut self, logical_id: u32, pid: Pid, scope: Scope) {
        self.charge(self.cl.hosts[self.host.0].costs.name_op);
        let h = &mut self.cl.hosts[self.host.0];
        h.names.set(logical_id, pid, scope);
        self.cl.lanes[self.host.0].requiet(h, &mut self.cl.segments);
    }

    /// Reads this process's own memory (no kernel charge: programs touch
    /// their own space directly).
    pub fn mem_read(&self, addr: u32, len: usize) -> Result<Vec<u8>, KernelError> {
        self.space().read(addr, len)
    }

    /// Reads this process's own memory into `out`, whole: for bytes whose
    /// next home already exists (a store's block), so that no `Vec` has
    /// to carry them there.
    pub fn mem_read_into(&self, addr: u32, out: &mut [u8]) -> Result<(), KernelError> {
        self.space().read_into(addr, out)
    }

    /// Writes this process's own memory.
    pub fn mem_write(&mut self, addr: u32, data: &[u8]) -> Result<(), KernelError> {
        self.space_mut().write(addr, data)
    }

    /// Fills a range of this process's memory.
    pub fn mem_fill(&mut self, addr: u32, len: usize, value: u8) -> Result<(), KernelError> {
        self.space_mut().fill(addr, len, value)
    }

    /// True if every byte of a range of this process's memory equals
    /// `value`: the check behind a test pattern, made in place.
    pub fn mem_is_filled(&self, addr: u32, len: usize, value: u8) -> Result<bool, KernelError> {
        self.space().is_filled(addr, len, value)
    }

    /// Creates a process on this host (the kernel's process-creation
    /// service; used by the exec server of §7), charged at the cursor.
    pub fn spawn(&mut self, name: &str, program: Box<dyn Program>) -> Pid {
        let (pid, end) = self.cl.create_process(self.host, self.now, name, program);
        self.now = end;
        pid
    }
}
