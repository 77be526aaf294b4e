//! A replicated read-only root file service with client failover.
//!
//! The paper's diskless workstations hang off **one** file server; when
//! it dies, every workstation's root is gone. The deployments that
//! followed replicated the read-only portion of the root (boot images,
//! system binaries — the bulk of a diskless workstation's traffic, per
//! §6.3's program-loading analysis) across several machines, because
//! read-only state is trivially replicable: no coherence protocol, and
//! here one copy of the bytes that every replica shares.
//!
//! This module provides that arrangement over the ordinary V IPC:
//!
//! * [`spawn_replica_group`] — `N` file servers on distinct hosts under
//!   one logical service id, each serving a clone of one [`BlockStore`]
//!   with [`FileServerConfig::read_only`] set. The clones share the files'
//!   bytes, which a read-only replica never copies, and hold identical
//!   file ids — an id obtained from one replica is valid at every
//!   other, so failover never invalidates an open file.
//! * the replica route of [`FsClient`] ([`FsClient::replicated`]) — the
//!   client directs every operation at its current replica and **fails
//!   over** when the kernel reports the replica's host down
//!   (`KernelError::HostDown`, surfaced as `Outcome::Send(Err(_))`):
//!   it advances to the next replica round-robin and re-issues the
//!   *same* script step. After `2 × replicas` consecutive failed
//!   attempts (every replica tried twice with no answer) it gives up
//!   rather than cycle forever.
//!
//! The failover cost is visible in the client's op series
//! ([`FsClient::with_op_series`]): one read absorbs the kernel's
//! retransmission budget (the failure detector) before `HostDown`
//! arrives, and every read after that is served at normal latency by
//! the next replica. The `v-bench failover` experiment measures exactly
//! that spike.
//!
//! [`FsClient`]: crate::client::FsClient
//! [`FsClient::replicated`]: crate::client::FsClient::replicated
//! [`FsClient::with_op_series`]: crate::client::FsClient::with_op_series

use v_kernel::{Cluster, HostId};

use crate::server::FileServerConfig;
use crate::store::BlockStore;
use crate::team::{spawn_file_server, FileServerTeam};

/// Spawns one read-only replica of `store` per host in `hosts`, each
/// registered under `cfg.register` (the same logical service id for the
/// whole group — resolve it with `GetPid` and any live replica may
/// answer). Returns the replicas' handles in `hosts` order. A group of
/// one host is how a replica is re-created on a restarted host (the
/// kernel forgets everything on a crash; re-registration is the
/// service's job).
///
/// Every replica serves `store.clone()`: identical directories and file
/// ids over one shared copy of the bytes (a clone copies a file only to
/// write it). Everything in `cfg` passes through ([`crate::team`]:
/// `workers`, `disk_arms`) except [`FileServerConfig::read_only`],
/// forced on: a replica that accepted writes would diverge from its peers.
pub fn spawn_replica_group(
    cl: &mut Cluster,
    hosts: &[HostId],
    cfg: &FileServerConfig,
    store: &BlockStore,
) -> Vec<FileServerTeam> {
    let cfg = FileServerConfig {
        read_only: true,
        ..cfg.clone()
    };
    hosts
        .iter()
        .map(|&host| spawn_file_server(cl, host, cfg.clone(), store.clone()))
        .collect()
}
