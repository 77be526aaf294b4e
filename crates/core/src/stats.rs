//! Per-kernel protocol statistics.

/// Counters one kernel accumulates; integration tests and experiments
/// read these to verify protocol behaviour (retransmissions under loss,
/// reply-pending under alien exhaustion, ...).
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Local message exchanges begun (Send to a local process).
    pub sends_local: u64,
    /// Remote message exchanges begun (NonLocalSend).
    pub sends_remote: u64,
    /// Send packets retransmitted after timeout.
    pub retransmissions: u64,
    /// Sends that failed after exhausting retries.
    pub send_timeouts: u64,
    /// Nacks received (addressed process did not exist).
    pub nacks_received: u64,
    /// Nacks sent.
    pub nacks_sent: u64,
    /// Reply-pending packets sent.
    pub reply_pending_sent: u64,
    /// Reply-pending packets received.
    pub reply_pending_received: u64,
    /// Duplicate Send packets filtered by the alien table.
    pub duplicates_filtered: u64,
    /// Cached replies retransmitted for duplicate Sends.
    pub replies_retransmitted: u64,
    /// Aliens allocated.
    pub aliens_allocated: u64,
    /// `Forward` primitives executed on this host (a received exchange
    /// handed to another server process).
    pub forwards: u64,
    /// Blocked local senders rebound to a forwardee on receipt of a
    /// Forward rebind notification.
    pub forward_rebinds: u64,
    /// Forward rebind notifications re-emitted in answer to a duplicate
    /// Send (the client evidently missed the first notification).
    pub forward_notes_resent: u64,
    /// Messages refused for want of an alien descriptor.
    pub aliens_exhausted: u64,
    /// Received frames discarded for checksum failure.
    pub checksum_drops: u64,
    /// Received frames that passed the checksum but carried a packet kind
    /// this kernel does not understand (dropped at the dispatch boundary).
    pub unknown_kind_drops: u64,
    /// Bulk-transfer data chunks sent.
    pub chunks_sent: u64,
    /// Bulk-transfer data chunks received in order.
    pub chunks_received: u64,
    /// Out-of-order chunks dropped.
    pub chunks_dropped: u64,
    /// Transfers resumed from a partial acknowledgement or stall.
    pub transfer_resumes: u64,
    /// Transfers failed.
    pub transfer_failures: u64,
    /// GetPid broadcasts issued.
    pub getpid_broadcasts: u64,
    /// GetPid replies answered for other kernels.
    pub getpid_answers: u64,
    /// Processes spawned on this host.
    pub processes_spawned: u64,
    /// Processes exited on this host.
    pub processes_exited: u64,
    /// Times this host crashed ([`crate::Cluster::crash_host`]).
    pub crashes: u64,
    /// Times this host restarted ([`crate::Cluster::restart_host`]).
    pub restarts: u64,
    /// Sends that failed with [`crate::KernelError::HostDown`] after the
    /// retransmission budget ran out.
    pub host_down_failures: u64,
    /// Peers newly condemned as down (first budget exhaustion against
    /// that logical host).
    pub peer_suspicions: u64,
    /// Condemned peers cleared by evidence of life (any frame from them).
    pub peer_reprieves: u64,
    /// Sends issued against an already-suspect peer, probing with the
    /// reduced [`crate::ProtocolConfig::SUSPECT_RETRIES`] budget.
    pub sends_to_suspect: u64,
    /// Frames addressed to this host while it was down (counted by the
    /// simulation, not the dead kernel: the bits died at the interface).
    pub frames_dropped_down: u64,
    /// Same-host data deliveries that took the zero-copy fast path
    /// ([`crate::ProtocolConfig::local_fastpath`]): segment hand-offs in
    /// `Receive`/`Reply` plus local `MoveTo`/`MoveFrom` transfers.
    pub local_fastpath_sends: u64,
    /// Bytes those deliveries would have copied memory-to-memory on the
    /// classic local path — the copy tax the page remap avoided.
    pub local_fastpath_bytes_saved: u64,
}
