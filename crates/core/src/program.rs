//! The process programming model.
//!
//! A V process is a [`Program`]: a state machine the kernel resumes with
//! an [`Outcome`] each time a blocking kernel operation completes. During
//! a resume the program may issue any number of **non-blocking** calls
//! (`Reply`, `SetPid`, memory access, spawning) and at most one
//! **blocking** call (`Send`, `Receive`, `MoveTo`, ...); the kernel then
//! runs the blocking operation and schedules the next resume. This is
//! continuation-passing style standing in for Thoth's blocking processes
//! — the synchronous *semantics* (a `Send` does not "return" until the
//! reply arrives) are exactly preserved.
//!
//! Programs never see simulation internals: everything flows through the
//! [`Api`] handle, which charges the calibrated
//! processor costs for each operation.

use crate::error::KernelError;
use crate::message::Message;
use crate::pid::Pid;

pub use crate::api::Api;

/// Completion of a blocking kernel operation, handed to
/// [`Program::resume`].
#[derive(Debug, Clone)]
pub enum Outcome {
    /// First resume after process creation.
    Started,
    /// `Send` completed: the reply message (which, per the message
    /// semantics, has overwritten the original message area), or why the
    /// exchange failed.
    Send(Result<Message, KernelError>),
    /// `Receive` completed.
    Receive {
        /// The sending process.
        from: Pid,
        /// The 32-byte message.
        msg: Message,
    },
    /// `ReceiveWithSegment` completed.
    ReceiveSeg {
        /// The sending process.
        from: Pid,
        /// The 32-byte message.
        msg: Message,
        /// Bytes of the sender's read-granted segment delivered into the
        /// receiver's buffer (0 if none were available).
        seg_len: u32,
    },
    /// `MoveTo` / `MoveFrom` completed with the byte count, or failed.
    Move(Result<u32, KernelError>),
    /// `GetPid` completed (`None`: no such logical id answered).
    GetPid(Option<Pid>),
    /// `Delay` elapsed.
    Delay,
    /// `Compute` finished.
    Compute,
}

/// A process body.
///
/// `resume` is called once with [`Outcome::Started`] when the process is
/// created, then once per completed blocking operation. If a resume
/// issues no blocking operation and does not call
/// [`Api::exit`], the process is considered
/// finished and exits.
pub trait Program {
    /// Continues execution with the outcome of the last blocking call.
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome);
}

impl std::fmt::Debug for dyn Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<program>")
    }
}
