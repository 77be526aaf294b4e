//! The run procedure: repetitions, phases, the two clocks, and the metrics.
//!
//! One repetition builds a fresh cluster, deploys the servers, runs the
//! clients to quiescence and drops everything, timing each phase on the
//! host clock. The first repetition of a process is cold (its time, page
//! faults and resident high-water mark are reported as such), the next two
//! warm the allocator and are discarded, the following untraced ones give
//! the host-clock medians, and one traced repetition — every client wrapped
//! in [`crate::probe::Probe`] — gives every simulated-clock number.

use std::io::Write;
use std::time::Instant;

use v_kernel::Cluster;
use v_sim::SimTime;

use crate::deploy::{self, ClientResult, Op, Totals, Workload};
use crate::micro::Micro;
use crate::probe::{Call, Stamp, Wrap};
use crate::report::{Better, Row};
use crate::stats::{median, percentile};

/// Discarded warm-up repetitions after the cold one.
pub const WARMUP_REPS: usize = 2;
/// Untraced measured repetitions when no time budget is given.
pub const MEASURED_REPS: usize = 9;
/// Set-ups sampled around each timed repetition (its own included). Set-up
/// takes 30 microseconds on the two-host workloads, so one sample per
/// repetition is too few for a steady median; sampling beside every
/// repetition rather than in one loop spreads the samples over the whole
/// measurement, where a short burst of machine noise cannot reach them all.
pub const SETUPS_PER_REP: usize = 5;

/// Host-clock milliseconds of the four phases of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `Cluster::new`.
    pub build: f64,
    /// Store install, server spawn, `run()` until the servers park.
    pub deploy: f64,
    /// First client spawn to quiescence.
    pub run: f64,
    /// Reading the stats out and dropping the cluster.
    pub drop: f64,
}

impl Phases {
    /// Wall-clock before the first client operation can be issued.
    pub fn setup(&self) -> f64 {
        self.build + self.deploy
    }

    fn total(&self) -> f64 {
        self.build + self.deploy + self.run + self.drop
    }
}

/// One repetition.
pub struct Rep {
    /// Host-clock phase times.
    pub phases: Phases,
    /// The crates' stats at quiescence.
    pub totals: Totals,
    /// What each client reported.
    pub clients: Vec<ClientResult>,
    /// Per-client stamps (traced repetitions only).
    pub stamps: Option<Vec<Vec<Stamp>>>,
}

impl Rep {
    /// Operations the inputs asked for.
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    /// Operations that failed or were never reached.
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one repetition of `w`.
pub fn rep(w: &dyn Workload, traced: bool) -> Rep {
    let t = Instant::now();
    let mut cl = Cluster::new(w.config());
    let build = ms_since(t);

    let t = Instant::now();
    let servers = w.deploy(&mut cl);
    let deploy = ms_since(t);

    let cpu_before = deploy::cpu_busy(&cl);
    let mut wrap = if traced { Wrap::traced() } else { Wrap::bare() };
    let t = Instant::now();
    let outcome = w.run(&mut cl, &servers, &mut wrap);
    let run = ms_since(t);

    let t = Instant::now();
    let totals = deploy::totals(&cl, &servers, &cpu_before, outcome.cache);
    drop(servers);
    drop(cl);
    let drop_ms = ms_since(t);

    Rep {
        phases: Phases {
            build,
            deploy,
            run,
            drop: drop_ms,
        },
        totals,
        clients: outcome.clients,
        stamps: wrap.into_stamps(),
    }
}

/// Set-up alone: build and deploy, timed, then dropped without a run.
/// Returns host-clock milliseconds.
fn setup_only(w: &dyn Workload) -> f64 {
    let t = Instant::now();
    let mut cl = Cluster::new(w.config());
    let servers = w.deploy(&mut cl);
    let ms = ms_since(t);
    drop(servers);
    drop(cl);
    ms
}

/// What the cold repetition cost the process.
#[derive(Debug, Clone, Copy)]
pub struct Cold {
    /// Wall-clock of the whole cold repetition, ms.
    pub rep_ms: f64,
    /// Minor page faults it took.
    pub minor_faults: u64,
    /// Resident high-water mark straight after it, MB.
    pub peak_rss_mb: f64,
}

/// Minor page faults of this process so far (`/proc/self/stat`, field 10).
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may contain spaces; count fields
            // from its closing parenthesis.
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Resident high-water mark of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How many untraced repetitions to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many.
    Reps(usize),
    /// As many as start within this many seconds, and at least three.
    Seconds(f64),
}

/// The host-clock side of a measurement.
pub struct HostSide {
    /// The cold repetition's cost.
    pub cold: Cold,
    /// The untraced timed repetitions.
    pub timed: Vec<Rep>,
    /// Host-clock milliseconds of every set-up sampled beside them.
    pub setups: Vec<f64>,
}

/// Everything one process measured for one workload.
pub struct Measured {
    /// Repetitions that are checked and never timed: the cold one and the
    /// warm-ups.
    pub discarded: Vec<Rep>,
    /// The host-clock measurements, unless only simulated rows were wanted.
    pub host: Option<HostSide>,
    /// The traced repetition, when asked for.
    pub traced: Option<Rep>,
    /// Layer microbenchmarks, when asked for.
    pub micro: Option<Micro>,
}

impl Measured {
    /// Every repetition made, in order.
    pub fn reps(&self) -> impl Iterator<Item = &Rep> {
        let timed = self.host.iter().flat_map(|h| &h.timed);
        self.discarded.iter().chain(timed).chain(&self.traced)
    }
}

/// The run procedure for one workload, in this process.
pub fn measure(w: &dyn Workload, budget: Budget, traced: bool, micro: bool) -> Measured {
    let faults = minor_faults();
    let first = rep(w, false);
    let cold = Cold {
        rep_ms: first.phases.total(),
        minor_faults: minor_faults() - faults,
        peak_rss_mb: peak_rss_mb(),
    };
    let mut discarded = vec![first];
    discarded.extend((0..WARMUP_REPS).map(|_| rep(w, false)));

    let mut timed = Vec::new();
    let mut setups = Vec::new();
    let started = Instant::now();
    loop {
        setups.extend((1..SETUPS_PER_REP).map(|_| setup_only(w)));
        let r = rep(w, false);
        setups.push(r.phases.setup());
        timed.push(r);
        let enough = match budget {
            Budget::Reps(n) => timed.len() >= n,
            Budget::Seconds(s) => timed.len() >= 3 && started.elapsed().as_secs_f64() >= s,
        };
        if enough {
            break;
        }
    }
    Measured {
        discarded,
        host: Some(HostSide {
            cold,
            timed,
            setups,
        }),
        traced: traced.then(|| rep(w, true)),
        micro: micro.then(Micro::run),
    }
}

/// One bare repetition and the traced one held to it: every
/// simulated-clock number, no host-clock medians. What `check-baseline`
/// runs.
pub fn measure_sim_only(w: &dyn Workload) -> Measured {
    Measured {
        discarded: vec![rep(w, false)],
        host: None,
        traced: Some(rep(w, true)),
        micro: None,
    }
}

// --- output checks ----------------------------------------------------------

/// Everything wrong with what was measured: failed operations, a
/// repetition that diverged from the others, a mechanism that never fired,
/// a trace that lost operations. Empty when the outputs are correct.
pub fn violations(w: &dyn Workload, m: &Measured) -> Vec<String> {
    let mut bad = Vec::new();
    let reps: Vec<&Rep> = m.reps().collect();
    let first = &reps[0].totals;
    for (i, r) in reps.iter().enumerate() {
        if r.failed() > 0 {
            bad.push(format!(
                "repetition {i}: {} of {} operations failed",
                r.failed(),
                r.attempted()
            ));
        }
        let t = &r.totals;
        if (t.events_dispatched, t.now) != (first.events_dispatched, first.now) {
            bad.push(format!(
                "repetition {i} diverged: {} events ending at {}, repetition 0 had {} ending at {}",
                t.events_dispatched, t.now, first.events_dispatched, first.now
            ));
        }
    }
    bad.extend(w.mechanism(first));
    if let Some(traced) = &m.traced {
        match Spans::of(w, traced) {
            Ok(spans) => {
                let ok = spans.ops.iter().filter(|s| s.ok).count() as u64;
                let expected = traced.attempted() - traced.failed();
                if ok != expected {
                    bad.push(format!(
                        "the trace holds {ok} completed operations, the clients report {expected}"
                    ));
                }
            }
            Err(e) => bad.push(e),
        }
    }
    bad
}

// --- spans ------------------------------------------------------------------

/// One interval on the simulated clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The client it belongs to (spawn order).
    pub client: u32,
    /// Its position among that client's spans.
    pub seq: u32,
    /// What it was.
    pub op: Op,
    /// Completed locally through `Outcome::Compute` (a cache hit).
    pub local: bool,
    /// The kernel reported success.
    pub ok: bool,
    /// Issue.
    pub start: SimTime,
    /// Completion at the client program.
    pub end: SimTime,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end.since(self.start).as_nanos()
    }
}

/// The spans of a traced repetition.
pub struct Spans {
    /// Client-visible operations: one per blocking call, or one per client
    /// where an operation is a client's whole life.
    pub ops: Vec<Span>,
    /// The blocking calls inside those whole-life operations (empty
    /// otherwise).
    pub calls: Vec<Span>,
    /// Simulated time during which at least one client was active.
    pub busy_ns: u64,
}

impl Spans {
    /// Cuts a traced repetition's stamps into spans and labels them from
    /// the workload's plan.
    pub fn of(w: &dyn Workload, traced: &Rep) -> Result<Spans, String> {
        let stamps = traced.stamps.as_ref().ok_or("repetition was not traced")?;
        let plan = w.plan();
        if stamps.len() != plan.len() {
            return Err(format!(
                "{} clients were wrapped, the plan has {}",
                stamps.len(),
                plan.len()
            ));
        }
        let mut calls = Vec::new();
        let mut active = Vec::new();
        let mut whole = Vec::new();
        for (c, log) in stamps.iter().enumerate() {
            let (Some(first), Some(last)) = (log.first(), log.last()) else {
                continue;
            };
            active.push((first.at, last.at));
            let mut seq = 0;
            let mut script_index = 0;
            for pair in log.windows(2) {
                let done = pair[1];
                let op = match done.call {
                    // Think time is not an operation.
                    Call::Delay => continue,
                    Call::GetPid => Op::Resolve,
                    _ if script_index < plan[c].calls => {
                        script_index += 1;
                        w.op(c, script_index - 1)
                    }
                    _ => {
                        return Err(format!(
                            "client {c} made more than its {} planned calls",
                            plan[c].calls
                        ))
                    }
                };
                calls.push(Span {
                    client: c as u32,
                    seq,
                    op,
                    local: done.call == Call::Compute,
                    ok: done.ok,
                    start: pair[0].at,
                    end: done.at,
                });
                seq += 1;
            }
            whole.push(Span {
                client: c as u32,
                seq: 0,
                op: Op::Boot,
                local: false,
                ok: log.iter().all(|s| s.ok)
                    && script_index == plan[c].calls
                    && traced.clients[c].failed == 0,
                start: first.at,
                end: last.at,
            });
        }
        // Clients may overlap (most workloads) or follow one another
        // (`page_rw`): the busy period is the union of their lifetimes.
        active.sort();
        let mut busy_ns = 0;
        let mut covered = SimTime::ZERO;
        for (start, end) in active {
            let from = start.max(covered);
            if end > from {
                busy_ns += end.since(from).as_nanos();
                covered = end;
            }
        }
        Ok(if w.op_is_client() {
            Spans {
                ops: whole,
                calls,
                busy_ns,
            }
        } else {
            Spans {
                ops: calls,
                calls: Vec::new(),
                busy_ns,
            }
        })
    }
}

/// Writes the traced repetition's spans as JSON lines: the host-clock
/// phase spans (nanoseconds since the repetition began) and under `run`
/// every simulated-clock span (nanoseconds of simulated time).
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    phases: &Phases,
    spans: &Spans,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut at = 0.0;
    for (kind, ms) in [
        ("build", phases.build),
        ("deploy", phases.deploy),
        ("run", phases.run),
        ("drop", phases.drop),
    ] {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"client\":null,\"seq\":0,\"kind\":\"{kind}\",\
             \"clock\":\"host\",\"start\":{},\"end\":{},\"parent\":null}}",
            (at * 1e6) as u64,
            ((at + ms) * 1e6) as u64
        )?;
        at += ms;
    }
    let whole_life = !spans.calls.is_empty();
    let levels = [
        (&spans.ops, "run"),
        (&spans.calls, if whole_life { "boot" } else { "run" }),
    ];
    for (level, parent) in levels {
        for s in level {
            let kind = if s.local { "read_hit" } else { s.op.name() };
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"client\":{},\"seq\":{},\"kind\":\"{kind}\",\
                 \"clock\":\"sim\",\"start\":{},\"end\":{},\"parent\":\"{parent}\"}}",
                s.client,
                s.seq,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
    }
    out.flush()
}

// --- metrics ----------------------------------------------------------------

/// The end-to-end metrics: name, unit, direction, and the share of the
/// median by which each may worsen before it is a regression (0 = exact).
/// Simulated-clock rows repeat bit for bit for a seed, so theirs is the
/// smallest change that matters. Host-clock rows get the widest bound the
/// acceptance driver allows: this sandbox has bursts, tens of seconds long,
/// in which the run phase is 10 % slower and the cache-cold set-up 30 %,
/// and the file-backed part of a 2.3 MB resident set varies by 7 % between
/// processes (README, *Run-to-run spread*).
pub const END_TO_END: [(&str, &str, Better, f64); 11] = [
    ("op_ms_p50", "ms", Better::Lower, 0.01),
    ("op_ms_p99", "ms", Better::Lower, 0.01),
    ("write_ms_p50", "ms", Better::Lower, 0.01),
    ("write_ms_p99", "ms", Better::Lower, 0.01),
    ("served_ops_per_s", "ops/s", Better::Higher, 0.01),
    ("paper_dev_pct", "%", Better::Lower, 0.005),
    ("ops_failed_share", "fraction", Better::Lower, 0.0),
    ("host_events_per_s", "ev/s", Better::Higher, 0.25),
    ("host_run_ms", "ms", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
];

fn e2e(workload: &str, name: &str, sim: bool, value: f64, detail: String) -> Row {
    let (_, unit, better, bound) = END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
    Row {
        workload: workload.to_string(),
        name: name.to_string(),
        sim,
        unit: unit.to_string(),
        better: *better,
        bound: Some(*bound),
        value,
        detail,
    }
}

fn layer(workload: &str, name: &str, sim: bool, unit: &str, better: Better, value: f64) -> Row {
    Row {
        workload: workload.to_string(),
        name: name.to_string(),
        sim,
        unit: unit.to_string(),
        better,
        bound: None,
        value,
        detail: String::new(),
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn host_column(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

fn spread(values: &[f64]) -> String {
    let [q1, _, q3] = crate::stats::quartiles(values);
    format!("q1 {q1} q3 {q3} n={}", values.len())
}

/// Turns what was measured into metric rows: the host-clock rows when
/// untraced repetitions were measured, the simulated-clock rows when a
/// traced one was, the microbenchmark rows when those ran.
pub fn rows(w: &dyn Workload, m: &Measured) -> Result<Vec<Row>, String> {
    let name = w.name();
    let mut rows = Vec::new();
    let host = |n: &str, unit: &str, better, v| layer(name, n, false, unit, better, v);

    if let Some(HostSide {
        cold,
        timed: reps,
        setups,
    }) = &m.host
    {
        let events = reps[0].totals.events_dispatched as f64;
        let run_ms = host_column(reps, |r| r.phases.run);
        let ev_per_s = host_column(reps, |r| events / (r.phases.run / 1e3));
        let setup_s: Vec<f64> = setups.iter().map(|ms| ms / 1e3).collect();
        for (n, v) in [
            ("host_events_per_s", &ev_per_s),
            ("host_run_ms", &run_ms),
            ("setup_s", &setup_s),
        ] {
            rows.push(e2e(name, n, false, median(v), spread(v)));
        }
        rows.push(e2e(
            name,
            "peak_rss_mb",
            false,
            cold.peak_rss_mb,
            "after the cold repetition".to_string(),
        ));

        let build = median(&host_column(reps, |r| r.phases.build));
        let deploy = median(&host_column(reps, |r| r.phases.deploy));
        let drop = median(&host_column(reps, |r| r.phases.drop));
        let run = median(&run_ms);
        rows.push(host("kernel.cluster_new_ms", "ms", Better::Lower, build));
        rows.push(host("fs.deploy_ms", "ms", Better::Lower, deploy));
        rows.push(host("kernel.run_ms", "ms", Better::Lower, run));
        rows.push(host("kernel.drop_ms", "ms", Better::Lower, drop));
        rows.push(host("kernel.cold_rep_ms", "ms", Better::Lower, cold.rep_ms));
        rows.push(host(
            "kernel.minor_faults_cold",
            "count",
            Better::Lower,
            cold.minor_faults as f64,
        ));
        rows.push(host(
            "kernel.host_ns_per_event",
            "ns",
            Better::Lower,
            run * 1e6 / events,
        ));
        if let Some(traced) = &m.traced {
            rows.push(host(
                "bench.trace_overhead_pct",
                "%",
                Better::Lower,
                100.0 * (traced.phases.run - run) / run,
            ));
        }
    }

    if let Some(traced) = &m.traced {
        rows.extend(sim_rows(w, traced)?);
    }
    if let Some(micro) = &m.micro {
        rows.extend(
            micro
                .rows()
                .map(|(n, unit, v)| host(n, unit, Better::Lower, v)),
        );
    }
    Ok(rows)
}

fn sorted_ns(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(Span::ns)
        .collect();
    v.sort_unstable();
    v
}

/// Every simulated-clock row of a traced repetition. They repeat bit for
/// bit for a seed.
fn sim_rows(w: &dyn Workload, traced: &Rep) -> Result<Vec<Row>, String> {
    let name = w.name();
    let t = &traced.totals;
    let spans = Spans::of(w, traced)?;
    let mut rows = Vec::new();

    // End to end, from the client programs' point of view.
    let all = sorted_ns(&spans.ops, |_| true);
    let ops = all.len() as f64;
    if all.is_empty() {
        return Err("no operation completed".to_string());
    }
    let mut latency = |metric: &str, p: f64, sample: &[u64]| -> Result<(), String> {
        let ns = percentile(sample, p).map_err(|e| format!("{metric}: {e}"))?;
        let detail = format!("n={}", sample.len());
        rows.push(e2e(name, metric, true, ns_to_ms(ns), detail));
        Ok(())
    };
    latency("op_ms_p50", 50.0, &all)?;
    latency("op_ms_p99", 99.0, &all)?;
    let writes = sorted_ns(&spans.ops, |s| s.op == Op::Write);
    if !writes.is_empty() {
        latency("write_ms_p50", 50.0, &writes)?;
        latency("write_ms_p99", 99.0, &writes)?;
    }
    let busy_s = spans.busy_ns as f64 / 1e9;
    rows.push(e2e(
        name,
        "served_ops_per_s",
        true,
        ops / busy_s,
        format!("busy {busy_s:.3} s"),
    ));
    let mut worst: Option<(f64, String)> = None;
    for (op, paper_ms, place) in w.paper_rows() {
        let sample = sorted_ns(&spans.ops, |s| s.op == *op);
        let ours = ns_to_ms(sample.iter().sum::<u64>()) / sample.len() as f64;
        let dev = 100.0 * (ours - paper_ms).abs() / paper_ms;
        if worst.as_ref().map_or(true, |(worst, _)| dev > *worst) {
            worst = Some((dev, format!("{place}: {paper_ms} ms, ours {ours:.3} ms")));
        }
    }
    if let Some((dev, detail)) = worst {
        rows.push(e2e(name, "paper_dev_pct", true, dev, detail));
    }
    let (attempted, failed) = (traced.attempted(), traced.failed());
    rows.push(e2e(
        name,
        "ops_failed_share",
        true,
        failed as f64 / attempted as f64,
        format!("ops_attempted={attempted} ops_failed={failed}"),
    ));

    // Layer by layer, from the crates' stats structs.
    let mut count =
        |n: &str, v: u64| rows.push(layer(name, n, true, "count", Better::Lower, v as f64));
    count("sim.events_scheduled", t.sim.scheduled);
    count("sim.events_popped", t.sim.popped);
    count("net.deferrals", t.medium.deferrals);
    count("net.dropped", t.medium.dropped);
    count("net.duplicated", t.medium.duplicated);
    count("net.corrupted", t.medium.corrupted);
    count("net.gw_forwarded", t.gateways.forwarded);
    count("net.gw_max_queue", t.gateways.max_queue as u64);
    count("net.gw_queue_drops", t.gateways.queue_drops);
    count("kernel.events_dispatched", t.events_dispatched);
    count("kernel.sends_remote", t.kernel.sends_remote);
    count("kernel.retransmissions", t.kernel.retransmissions);
    count("kernel.duplicates_filtered", t.kernel.duplicates_filtered);
    count(
        "kernel.replies_retransmitted",
        t.kernel.replies_retransmitted,
    );
    count("kernel.reply_pending_sent", t.kernel.reply_pending_sent);
    count("kernel.checksum_drops", t.kernel.checksum_drops);
    count("kernel.send_timeouts", t.kernel.send_timeouts);
    count("kernel.chunks_sent", t.kernel.chunks_sent);
    count("kernel.transfer_resumes", t.kernel.transfer_resumes);
    count("kernel.forwards", t.kernel.forwards);
    count("kernel.getpid_broadcasts", t.kernel.getpid_broadcasts);
    count("kernel.getpid_answers", t.kernel.getpid_answers);
    count("kernel.aliens_exhausted", t.kernel.aliens_exhausted);
    count("fs.server_reads", t.fs.reads);
    count("fs.server_writes", t.fs.writes);
    count("fs.server_large_reads", t.fs.large_reads);
    count("fs.server_errors", t.fs.errors);
    count("fs.forwarded", t.fs.forwarded);
    count("fs.parked_peak", t.fs.parked_peak);
    count("fs.readahead_hits", t.fs.readahead_hits);
    count("fs.invalidations", t.fs.invalidations);
    count("fs.invalidation_failures", t.fs.invalidation_failures);
    count("fs.disk_requests", t.disk.requests);
    count("fs.disk_max_queue_depth", t.disk.max_queue_depth as u64);
    count("fs.cache_evictions", t.cache.evictions);
    count("fs.cache_callbacks", t.cache.callbacks);
    count(
        "fs.client_write_retries",
        traced.clients.iter().map(|c| c.write_retries).sum(),
    );
    count(
        "fs.stale_owner_forwards",
        traced.clients.iter().map(|c| c.stale_owner_forwards).sum(),
    );
    count("bench.ops_sampled", all.len() as u64);

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_op = |d: v_sim::SimDuration| d.as_millis_f64() / ops;
    let busy_ms = spans.busy_ns as f64 / 1e6;
    let share = |d: v_sim::SimDuration, units: usize| {
        100.0 * ratio(d.as_millis_f64(), busy_ms * units as f64)
    };
    let client_cpu = per_op(t.client_cpu);
    let server_cpu = per_op(t.server_cpu);
    let wire = per_op(t.medium.busy);
    let disk_busy = per_op(t.disk.busy);
    let disk_wait = per_op(t.disk.waited);
    let mean_ms = ns_to_ms(all.iter().sum::<u64>()) / ops;
    let lower = Better::Lower;
    let higher = Better::Higher;
    for (n, unit, better, v) in [
        (
            "wire.bytes_per_op",
            "B",
            lower,
            t.medium.bytes_sent as f64 / ops,
        ),
        (
            "net.frames_per_op",
            "frames",
            lower,
            t.medium.frames_sent as f64 / ops,
        ),
        (
            "net.deliveries_per_frame",
            "deliveries",
            lower,
            ratio(t.medium.deliveries as f64, t.medium.frames_sent as f64),
        ),
        ("net.wire_busy_ms_per_op", "ms", lower, wire),
        (
            "net.wire_util_pct",
            "%",
            lower,
            share(t.medium.busy, t.segments),
        ),
        (
            "kernel.events_per_op",
            "events",
            lower,
            t.events_dispatched as f64 / ops,
        ),
        ("kernel.client_cpu_ms_per_op", "ms", lower, client_cpu),
        ("kernel.server_cpu_ms_per_op", "ms", lower, server_cpu),
        (
            "kernel.server_cpu_util_pct",
            "%",
            lower,
            share(t.server_cpu, t.server_hosts),
        ),
        ("fs.disk_busy_ms_per_op", "ms", lower, disk_busy),
        ("fs.disk_wait_ms_per_op", "ms", lower, disk_wait),
        (
            "fs.disk_util_pct",
            "%",
            lower,
            share(t.disk.busy, t.disk_arms),
        ),
        (
            "fs.disk_queued_share_pct",
            "%",
            lower,
            100.0 * ratio(t.disk.queued as f64, t.disk.requests as f64),
        ),
        ("fs.cache_hit_pct", "%", higher, t.cache.hit_rate()),
        (
            "bench.unattributed_ms_per_op",
            "ms",
            lower,
            mean_ms - (client_cpu + server_cpu + wire + disk_busy + disk_wait),
        ),
    ] {
        rows.push(layer(name, n, true, unit, better, v));
    }
    Ok(rows)
}
