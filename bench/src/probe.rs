//! `Probe`: a transparent wrapper that times a client program from outside.
//!
//! A V process is a state machine the kernel resumes once per completed
//! blocking call. `Probe<P>` delegates every resume to `P` unchanged and
//! first records `Api::now()` — a read of the simulation clock that charges
//! no simulated processor time — together with which kind of call just
//! completed. Two consecutive stamps bound one blocking kernel call, which
//! for the scripted clients is one client-visible operation: a remote
//! operation completes through `Outcome::Send`, a cache hit through
//! `Outcome::Compute`. `Delay` is think time and is not an operation.
//!
//! The wrapper schedules nothing and charges nothing, so a wrapped run
//! dispatches the same events and ends at the same simulated instant as a
//! bare one (`tests/transparency.rs` holds it to that).

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{Api, Outcome, Program};
use v_sim::SimTime;

/// Which blocking call a resume reports the completion of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// First resume: nothing completed yet.
    Started,
    /// `Send` (a remote or local message exchange).
    Send,
    /// `Receive` / `ReceiveWithSegment`.
    Receive,
    /// `MoveTo` / `MoveFrom`.
    Move,
    /// `GetPid`.
    GetPid,
    /// `Delay` (think time).
    Delay,
    /// `Compute` (local processor time, e.g. a cache hit).
    Compute,
}

/// One resume of a wrapped program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Simulated instant of the resume.
    pub at: SimTime,
    /// The call whose completion caused it.
    pub call: Call,
    /// False when the kernel reported the call failed.
    pub ok: bool,
}

impl Stamp {
    fn of(at: SimTime, outcome: &Outcome) -> Stamp {
        let (call, ok) = match outcome {
            Outcome::Started => (Call::Started, true),
            Outcome::Send(r) => (Call::Send, r.is_ok()),
            Outcome::Receive { .. } | Outcome::ReceiveSeg { .. } => (Call::Receive, true),
            Outcome::Move(r) => (Call::Move, r.is_ok()),
            Outcome::GetPid(p) => (Call::GetPid, p.is_some()),
            Outcome::Delay => (Call::Delay, true),
            Outcome::Compute => (Call::Compute, true),
        };
        Stamp { at, call, ok }
    }
}

/// The stamps of one wrapped program, shared with the harness (the program
/// itself moves into the cluster).
pub type StampLog = Rc<RefCell<Vec<Stamp>>>;

/// See the module documentation.
pub struct Probe<P: Program> {
    inner: P,
    log: StampLog,
}

impl<P: Program> Probe<P> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: P, log: StampLog) -> Probe<P> {
        Probe { inner, log }
    }
}

impl<P: Program> Program for Probe<P> {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        self.log.borrow_mut().push(Stamp::of(api.now(), &outcome));
        self.inner.resume(api, outcome);
    }
}

/// Hands client programs to the cluster either bare (untraced reps) or
/// wrapped in a [`Probe`] (the traced rep). Clients are numbered in the
/// order they are boxed.
pub struct Wrap {
    logs: Option<Vec<StampLog>>,
}

impl Wrap {
    /// Boxes programs as they are.
    pub fn bare() -> Wrap {
        Wrap { logs: None }
    }

    /// Wraps every program in a [`Probe`].
    pub fn traced() -> Wrap {
        Wrap {
            logs: Some(Vec::new()),
        }
    }

    /// Boxes one client program for `Cluster::spawn`.
    pub fn client<P: Program + 'static>(&mut self, program: P) -> Box<dyn Program> {
        match &mut self.logs {
            None => Box::new(program),
            Some(logs) => {
                let log = StampLog::default();
                logs.push(log.clone());
                Box::new(Probe::new(program, log))
            }
        }
    }

    /// The recorded stamps, one vector per client (`None` when bare).
    pub fn into_stamps(self) -> Option<Vec<Vec<Stamp>>> {
        self.logs
            .map(|logs| logs.iter().map(|l| l.take()).collect())
    }
}
