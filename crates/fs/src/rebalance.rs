//! Heat-driven shard rebalancing — the *policy* half of live file
//! migration (the mechanism lives in [`crate::migrate`]).
//!
//! A [`Rebalancer`] is a separate V process, not kernel machinery: it
//! periodically samples the decayed [`crate::Heat`] in every shard's
//! [`FileTable`] (the scores age each round, so only *recent* traffic
//! counts), computes an imbalance score — hottest shard over the mean —
//! and, while the spread exceeds a fixed band, issues explicit
//! move-plans for the hottest files from the hottest shard to the
//! coldest one. Each move is the four-exchange drain → copy → commit
//! protocol of [`crate::migrate`]; a failed copy is aborted cleanly
//! and the file stays put. The rebalancer runs a bounded number of
//! rounds and exits as soon as the shards converge, so a simulation
//! driven to quiescence always terminates.
//!
//! Everything the policy decided is written to a shared
//! [`MigrationLedger`], and every committed move is recorded in the
//! [`ShardOverlay`] the sharded clients route by.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{Api, Cluster, HostId, Outcome, Pid, Program};
use v_sim::SimDuration;

use crate::migrate::stub;
use crate::proto::{IoReply, IoStatus};
use crate::server::FileTable;
use crate::shard::ShardOverlay;
use crate::store::FileId;
use crate::team::FileServerTeam;

/// Where `MigrateBegin` replies deposit the migrating file's name in
/// the rebalancer's space.
const REB_NAME_BUF: u32 = 0x0100;
/// Longest file name a move-plan can carry.
const REB_NAME_CAP: u32 = 128;

/// Rebalancing policy knobs.
#[derive(Debug, Clone)]
pub struct RebalancerConfig {
    /// Time between heat samples.
    pub interval: SimDuration,
    /// Sampling rounds before the rebalancer retires (bounds the run;
    /// convergence exits earlier).
    pub rounds: u32,
    /// Most files moved per sampling round (migration bandwidth cap).
    pub max_moves_per_round: usize,
    /// Files with a decayed score below this are never moved — too
    /// cold for the copy to pay for itself.
    pub min_score: f64,
}

impl RebalancerConfig {
    /// Heat-score decay factor applied to every shard after each round:
    /// `0.5` halves a file's score each interval it goes untouched.
    pub const DECAY: f64 = 0.5;
    /// Convergence band: the shards are balanced when the hottest
    /// shard's score is within `BAND × mean` — no moves are planned and
    /// the rebalancer exits.
    pub const BAND: f64 = 1.25;
}

impl Default for RebalancerConfig {
    fn default() -> RebalancerConfig {
        RebalancerConfig {
            interval: SimDuration::from_millis(50),
            rounds: 8,
            max_moves_per_round: 2,
            min_score: 4.0,
        }
    }
}

/// The rebalancer's view of one shard service.
struct Shard {
    /// The service clients address (`Begin`/`Commit`/`Abort` go here).
    server: Pid,
    /// The shard's destination-side migration agent (`Pull` goes here).
    agent: Pid,
    /// The shard's file table — sampled for heat, aged each round, and
    /// edited when a committed move carries a file's heat to its new
    /// shard.
    files: Rc<RefCell<FileTable>>,
}

/// One committed move.
#[derive(Debug, Clone)]
pub struct MoveRecord {
    /// The file that moved.
    pub file: FileId,
    /// Its name.
    pub name: String,
    /// Shard index it left.
    pub from_shard: usize,
    /// Shard index it now lives on.
    pub to_shard: usize,
    /// Decayed heat score that triggered the move.
    pub score: f64,
}

/// Everything the rebalancer did, shared for experiments to read.
#[derive(Debug, Clone, Default)]
pub struct MigrationLedger {
    /// Moves the policy planned.
    pub planned: u64,
    /// Moves that committed (blocks copied, ownership flipped).
    pub completed: u64,
    /// Moves aborted after a failure (file stayed at the old owner).
    pub aborted: u64,
    /// Moves skipped because the owner refused the drain (writes in
    /// flight) — retried on a later round if the file stays hot.
    pub skipped_busy: u64,
    /// Sampling rounds run.
    pub rounds: u64,
    /// Round after which the shards were inside the band, if reached.
    pub converged_after: Option<u64>,
    /// Every committed move, in order.
    pub moves: Vec<MoveRecord>,
}

struct PlannedMove {
    file: FileId,
    src: usize,
    dst: usize,
    score: f64,
    /// Filled from the `Begin` reply.
    name: String,
    len: u32,
}

enum Phase {
    Sleeping,
    Begin,
    Pull,
    Commit,
    Abort,
}

/// The policy process. See the module docs for the loop it runs.
pub struct Rebalancer {
    cfg: RebalancerConfig,
    shards: Vec<Shard>,
    overlay: Rc<RefCell<ShardOverlay>>,
    /// Shared run record.
    pub ledger: Rc<RefCell<MigrationLedger>>,
    round: u32,
    plan: Vec<PlannedMove>,
    plan_idx: usize,
    phase: Phase,
}

/// Spawns a [`Rebalancer`] on `host` over `shards` (index = shard; each
/// must already carry a migration agent, see
/// [`FileServerTeam::attach_migration_agent`]); committed moves are
/// recorded in `overlay` (share it with the clients). Returns the
/// shared ledger.
pub fn spawn_rebalancer(
    cl: &mut Cluster,
    host: HostId,
    cfg: RebalancerConfig,
    shards: &[FileServerTeam],
    overlay: Rc<RefCell<ShardOverlay>>,
) -> Rc<RefCell<MigrationLedger>> {
    let shards = shards
        .iter()
        .map(|t| Shard {
            server: t.server,
            agent: t.agent.expect("a shard the rebalancer may move files to"),
            files: t.files.clone(),
        })
        .collect();
    let ledger: Rc<RefCell<MigrationLedger>> = Default::default();
    let reb = Rebalancer {
        cfg,
        shards,
        overlay,
        ledger: ledger.clone(),
        round: 0,
        plan: Vec::new(),
        plan_idx: 0,
        phase: Phase::Sleeping,
    };
    cl.spawn(host, "rebalancer", Box::new(reb));
    ledger
}

impl Rebalancer {
    /// Per-shard decayed load scores.
    fn scores(&self) -> Vec<f64> {
        self.shards
            .iter()
            .map(|s| s.files.borrow().total_score())
            .collect()
    }

    /// Ends a sampling round: age every shard's heat, then sleep into
    /// the next round or retire.
    fn next_round(&mut self, api: &mut Api<'_>) {
        for s in &self.shards {
            s.files.borrow_mut().decay(RebalancerConfig::DECAY);
        }
        self.round += 1;
        if self.round >= self.cfg.rounds {
            api.exit();
            return;
        }
        self.phase = Phase::Sleeping;
        api.delay(self.cfg.interval);
    }

    /// Samples heat, checks the band, and either exits (converged),
    /// sleeps (nothing worth moving), or starts executing a move-plan.
    fn sample(&mut self, api: &mut Api<'_>) {
        self.ledger.borrow_mut().rounds += 1;
        let scores = self.scores();
        let total: f64 = scores.iter().sum();
        let mean = total / scores.len() as f64;
        let (src, &max) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one shard");
        if total > 0.0 && max <= RebalancerConfig::BAND * mean {
            // Inside the band: the shards have converged. Retire — a
            // later imbalance would need a fresh rebalancer, and a
            // bounded process keeps run-to-quiescence terminating.
            let round = self.round as u64;
            let mut led = self.ledger.borrow_mut();
            led.converged_after.get_or_insert(round);
            drop(led);
            api.exit();
            return;
        }
        let (dst, &min) = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one shard");
        self.plan.clear();
        self.plan_idx = 0;
        if total > 0.0 && src != dst {
            // Hottest files first; move one while it narrows the gap.
            let mut candidates: Vec<(FileId, f64)> = (self.shards[src].files.borrow())
                .heat_rows()
                .map(|(file, heat)| (file, heat.score))
                .collect();
            candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
            let (mut src_score, mut dst_score) = (max, min);
            for (file, score) in candidates {
                if self.plan.len() >= self.cfg.max_moves_per_round {
                    break;
                }
                if score < self.cfg.min_score {
                    break;
                }
                // Moving the file must narrow the spread, not flip it.
                if score >= src_score - dst_score {
                    continue;
                }
                src_score -= score;
                dst_score += score;
                self.plan.push(PlannedMove {
                    file,
                    src,
                    dst,
                    score,
                    name: String::new(),
                    len: 0,
                });
            }
        }
        if self.plan.is_empty() {
            self.next_round(api);
            return;
        }
        self.ledger.borrow_mut().planned += self.plan.len() as u64;
        self.issue_begin(api);
    }

    fn issue_begin(&mut self, api: &mut Api<'_>) {
        let mv = &self.plan[self.plan_idx];
        self.phase = Phase::Begin;
        api.send(
            stub::begin(mv.file, REB_NAME_BUF, REB_NAME_CAP, self.plan_idx as u16),
            self.shards[mv.src].server,
        );
    }

    /// Advances to the plan's next move, or ends the round.
    fn next_move(&mut self, api: &mut Api<'_>) {
        self.plan_idx += 1;
        if self.plan_idx < self.plan.len() {
            self.issue_begin(api);
        } else {
            self.next_round(api);
        }
    }

    /// A committed move: flip the overlay, carry the file's heat to
    /// its new shard, write the record.
    fn complete_move(&mut self) {
        let mv = &self.plan[self.plan_idx];
        let dst_pid = self.shards[mv.dst].server;
        self.overlay
            .borrow_mut()
            .record_move(mv.file, &mv.name, dst_pid);
        let heat = self.shards[mv.src].files.borrow_mut().take_heat(mv.file);
        (self.shards[mv.dst].files.borrow_mut()).graft_heat(mv.file, heat);
        let mut led = self.ledger.borrow_mut();
        led.completed += 1;
        led.moves.push(MoveRecord {
            file: mv.file,
            name: mv.name.clone(),
            from_shard: mv.src,
            to_shard: mv.dst,
            score: mv.score,
        });
    }

    fn issue_abort(&mut self, api: &mut Api<'_>) {
        let mv = &self.plan[self.plan_idx];
        self.phase = Phase::Abort;
        api.send(
            stub::abort(mv.file, self.plan_idx as u16),
            self.shards[mv.src].server,
        );
    }
}

impl Program for Rebalancer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                self.phase = Phase::Sleeping;
                api.delay(self.cfg.interval);
            }
            Outcome::Delay if matches!(self.phase, Phase::Sleeping) => self.sample(api),
            Outcome::Send(res) => match self.phase {
                Phase::Begin => match res.map(|m| IoReply::decode(&m)) {
                    Ok(reply) if reply.status == IoStatus::Ok => {
                        // Drain set; name + length are in. Ask the
                        // destination's agent to pull the blocks.
                        let name_len = reply.aux.min(REB_NAME_CAP);
                        let name_bytes = api
                            .mem_read(REB_NAME_BUF, name_len as usize)
                            .expect("name buffer");
                        let mv = &mut self.plan[self.plan_idx];
                        mv.name = String::from_utf8_lossy(&name_bytes).into_owned();
                        mv.len = reply.value;
                        let (file, len, src, dst) = (mv.file, mv.len, mv.src, mv.dst);
                        let src_pid = self.shards[src].server.raw();
                        self.phase = Phase::Pull;
                        api.send(
                            stub::pull(
                                file,
                                len,
                                src_pid,
                                REB_NAME_BUF,
                                name_len,
                                self.plan_idx as u16,
                            ),
                            self.shards[dst].agent,
                        );
                    }
                    Ok(reply) if reply.status == IoStatus::RetryAfter => {
                        // Writes in flight at the owner: no drain was
                        // set. Skip; a later round retries if the file
                        // stays hot.
                        self.ledger.borrow_mut().skipped_busy += 1;
                        self.next_move(api);
                    }
                    Ok(_) | Err(_) => {
                        // Owner refused or is dead; nothing was set up.
                        self.ledger.borrow_mut().aborted += 1;
                        self.next_move(api);
                    }
                },
                Phase::Pull => match res.map(|m| IoReply::decode(&m)) {
                    Ok(reply) if reply.status == IoStatus::Ok => {
                        // Copy complete at the destination: flip.
                        let mv = &self.plan[self.plan_idx];
                        let (file, src, dst) = (mv.file, mv.src, mv.dst);
                        let dst_pid = self.shards[dst].server.raw();
                        self.phase = Phase::Commit;
                        api.send(
                            stub::commit(file, dst_pid, self.plan_idx as u16),
                            self.shards[src].server,
                        );
                    }
                    // Copy failed (agent reported, or its host died):
                    // lift the drain, the file stays at the old owner.
                    Ok(_) | Err(_) => self.issue_abort(api),
                },
                Phase::Commit => {
                    match res.map(|m| IoReply::decode(&m)) {
                        Ok(reply) if reply.status == IoStatus::Ok => self.complete_move(),
                        // The old owner died with the commit on the
                        // wire. The destination holds a complete copy,
                        // so the move stands: record it and let the
                        // overlay carry clients to the new owner.
                        Err(_) => self.complete_move(),
                        Ok(_) => {
                            self.ledger.borrow_mut().aborted += 1;
                        }
                    }
                    self.next_move(api);
                }
                Phase::Abort => {
                    // Whether the owner acknowledged or is dead, the
                    // move is over and the file did not travel.
                    self.ledger.borrow_mut().aborted += 1;
                    self.next_move(api);
                }
                Phase::Sleeping => api.exit(),
            },
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FsClient;
    use crate::client::{FsCall, FsClientReport};
    use crate::disk::DiskModel;
    use crate::server::FileServerConfig;
    use crate::shard::ShardMap;
    use crate::store::BlockStore;
    use crate::team::spawn_file_server;
    use crate::BLOCK_SIZE;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};

    /// Two hot files pinned to shard 0, nothing on shard 1, one client
    /// streaming each file: one sampling round migrates one of them
    /// live, mid-stream. Neither client fails, duplicates, or corrupts
    /// an operation; the old owner forwards the mover's stale requests
    /// and the forward/self-correction counters reconcile exactly.
    #[test]
    fn live_migration_rebalances_without_losing_a_single_op() {
        let map = ShardMap::new(2);
        let cfg = ClusterConfig::three_mb().with_hosts(4, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);

        let hot_a = map.name_for_shard(0, "hotA");
        let hot_b = map.name_for_shard(0, "hotB");
        let mut services = Vec::new();
        for shard in 0..2 {
            let mut store = BlockStore::with_id_base(map.id_base(shard));
            if shard == 0 {
                store
                    .create_with(&hot_a, &vec![0xA1; 4 * BLOCK_SIZE])
                    .unwrap();
                store
                    .create_with(&hot_b, &vec![0xB2; 4 * BLOCK_SIZE])
                    .unwrap();
            }
            let fs_cfg = FileServerConfig {
                disk: DiskModel::fixed(v_sim::SimDuration::from_millis(1)),
                register: Some(map.logical_id(shard)),
                ..FileServerConfig::default()
            };
            let mut team = spawn_file_server(&mut cl, HostId(shard), fs_cfg, store);
            team.attach_migration_agent(&mut cl);
            services.push(team);
        }
        cl.run(); // services reach their Receive

        // Each client opens its file once, then streams reads long past
        // the sampling interval — so whichever file migrates, its
        // client's cached owner goes stale mid-stream and the next read
        // must be forwarded. The closing write+read proves the moved
        // file still takes writes and kept its bytes through the copy.
        let script_for = |expect: u8, fill: u8, name: &str| {
            let mut script = vec![FsCall::Open(name.to_string())];
            for _ in 0..60 {
                script.push(FsCall::ReadExpect {
                    block: 1,
                    count: BLOCK_SIZE as u32,
                    expect,
                });
            }
            script.push(FsCall::WriteFill {
                block: 2,
                count: BLOCK_SIZE as u32,
                fill,
            });
            script.push(FsCall::ReadExpect {
                block: 2,
                count: BLOCK_SIZE as u32,
                expect: fill,
            });
            script
        };
        let overlay: Rc<RefCell<ShardOverlay>> = Default::default();
        let servers: Vec<_> = services.iter().map(|s| s.server).collect();
        let mut reports = Vec::new();
        let mut script_len = 0;
        for (i, (expect, fill, name)) in [(0xA1, 0x55, &hot_a), (0xB2, 0x66, &hot_b)]
            .into_iter()
            .enumerate()
        {
            let script = script_for(expect, fill, name);
            script_len = script.len() as u64;
            let rep = Rc::new(RefCell::new(FsClientReport::default()));
            cl.spawn(
                HostId(2 + i),
                "client",
                Box::new(
                    FsClient::sharded(servers.clone(), script, rep.clone())
                        .with_overlay(overlay.clone()),
                ),
            );
            reports.push(rep);
        }
        let ledger = spawn_rebalancer(
            &mut cl,
            HostId(2),
            RebalancerConfig {
                interval: SimDuration::from_millis(30),
                rounds: 1,
                min_score: 1.0,
                ..RebalancerConfig::default()
            },
            &services,
            overlay.clone(),
        );
        cl.run();

        let mut stale_total = 0;
        for rep in &reports {
            let r = rep.borrow().clone();
            assert!(r.done, "{r:?}");
            assert_eq!(r.errors, 0, "no op may fail across the move: {r:?}");
            assert_eq!(r.integrity_errors, 0, "no op may corrupt data: {r:?}");
            assert_eq!(r.completed, script_len, "every op exactly once: {r:?}");
            stale_total += r.stale_owner_forwards;
        }

        let led = ledger.borrow();
        assert_eq!(led.rounds, 1);
        assert_eq!(led.planned, 1, "{led:?}");
        assert_eq!(led.completed, 1, "{led:?}");
        assert_eq!(led.aborted, 0, "{led:?}");
        assert_eq!(led.moves[0].from_shard, 0);
        assert_eq!(led.moves[0].to_shard, 1);
        assert_eq!(overlay.borrow().moves(), 1);

        let (s0, s1) = (services[0].stats.borrow(), services[1].stats.borrow());
        assert_eq!(s0.migrated_out, 1, "{s0:?}");
        assert_eq!(s1.migrated_in, 1, "{s1:?}");
        // Reconciliation: every request the old owner forwarded came
        // back to a client stamped with the new owner, and was counted
        // as exactly one self-correction. No chains with a single
        // move, so the ledgers match exactly.
        assert!(stale_total >= 1, "a live forward happened: {s0:?}");
        assert_eq!(
            s0.moved_forwards + s1.moved_forwards,
            stale_total,
            "forward/correction ledgers reconcile: {s0:?} {s1:?}"
        );
        // The moved file's heat travelled with it.
        let moved = led.moves[0].file;
        assert_eq!(services[0].files.borrow().heat(moved).score, 0.0);
        assert!(services[1].files.borrow().heat(moved).reads > 0);
    }

    /// With traffic already uniform, the rebalancer observes the
    /// shards inside its band, plans nothing, moves nothing, and
    /// retires on its first round.
    #[test]
    fn balanced_shards_converge_with_zero_moves() {
        let map = ShardMap::new(2);
        let cfg = ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let mut services = Vec::new();
        let names: Vec<String> = (0..2).map(|s| map.name_for_shard(s, "f")).collect();
        for (shard, name) in names.iter().enumerate() {
            let mut store = BlockStore::with_id_base(map.id_base(shard));
            store
                .create_with(name, &vec![0x33; 2 * BLOCK_SIZE])
                .unwrap();
            let fs_cfg = FileServerConfig {
                disk: DiskModel::fixed(v_sim::SimDuration::from_millis(1)),
                register: Some(map.logical_id(shard)),
                ..FileServerConfig::default()
            };
            let mut team = spawn_file_server(&mut cl, HostId(shard), fs_cfg, store);
            team.attach_migration_agent(&mut cl);
            services.push(team);
        }
        cl.run();

        let mut script = Vec::new();
        for _ in 0..10 {
            for name in &names {
                script.push(FsCall::Open(name.clone()));
                script.push(FsCall::ReadExpect {
                    block: 0,
                    count: BLOCK_SIZE as u32,
                    expect: 0x33,
                });
            }
        }
        let overlay: Rc<RefCell<ShardOverlay>> = Default::default();
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(2),
            "client",
            Box::new(
                FsClient::sharded(
                    services.iter().map(|s| s.server).collect(),
                    script,
                    rep.clone(),
                )
                .with_overlay(overlay.clone()),
            ),
        );
        let ledger = spawn_rebalancer(
            &mut cl,
            HostId(2),
            RebalancerConfig {
                interval: SimDuration::from_millis(30),
                rounds: 4,
                ..RebalancerConfig::default()
            },
            &services,
            overlay.clone(),
        );
        cl.run();

        let r = rep.borrow().clone();
        assert!(r.done && r.errors == 0 && r.integrity_errors == 0, "{r:?}");
        let led = ledger.borrow();
        assert_eq!(led.completed, 0, "{led:?}");
        assert_eq!(led.planned, 0, "{led:?}");
        assert!(led.converged_after.is_some(), "{led:?}");
        assert_eq!(overlay.borrow().moves(), 0);
        assert_eq!(r.stale_owner_forwards, 0, "{r:?}");
    }
}
