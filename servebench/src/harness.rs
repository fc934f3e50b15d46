//! What every workload shares: the server configuration, the recorder of
//! costs, latencies, failures and answers, and the task calls over the
//! lock-step and pipelined clients.
//!
//! Every workload drives its connections from one load thread, one
//! request (or one pipelined batch) at a time, in a process pinned to one
//! CPU, so the process CPU time a call spends — load thread and server
//! threads together — is that call's cost.  The end-to-end metrics are
//! these CPU costs: unlike wall time they leave out time the host takes
//! away (hypervisor steal, other tenants' threads), which on a shared
//! host moved wall-clock medians by 35–90 % between runs of the same
//! code.  Wall-clock latencies are kept beside them as per-layer figures.
//!
//! No call here retries: a `busy`, `expired`, error reply or protocol
//! fault is one failed attempt, recorded with its reason.

use crate::oracle::{Answer, Got};
use crate::stats::{median, tail};
use spanner::SpanTuple;
use spanner_server::proto::WireServiceStats;
use spanner_server::{
    Client, ClientError, FullStats, PipelinedClient, PipelinedReply, Response, ServerConfig,
    WireTask,
};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The directory of a run's scratch stores, inside the benchmark package.
/// Each store is removed after use, and the directory once it is empty.
pub fn scratch_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run")
}

/// Task kinds in wire order.
pub const KINDS: [&str; 5] = [
    "non_emptiness",
    "model_check",
    "count",
    "compute",
    "enumerate",
];

/// CPU time used so far by the whole process: every thread, the server's
/// included.  The kernel leaves out time the vCPU was stolen and time a
/// thread waited for a CPU.
#[cfg(target_os = "linux")]
pub fn cpu_now() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere the benchmark falls back to wall time since first use.
#[cfg(not(target_os = "linux"))]
pub fn cpu_now() -> Duration {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

/// CPU time (ms) of a fixed job that does not use the program: sorting
/// and scanning 2 MiB of seeded integers on the calling thread.  Workloads
/// run it before each set-up and every half second of the timed phase.
pub fn reference_ms() -> f64 {
    let cpu = cpu_now();
    let mut v: Vec<u64> = (0..1u64 << 18)
        .map(spanner_slp_core::trace::splitmix64)
        .collect();
    v.sort_unstable();
    std::hint::black_box(v.iter().step_by(7).fold(0, |a, &x| a ^ x));
    ms_of(cpu_now() - cpu)
}

/// The reference job's CPU time the costs are reported at (ms).
///
/// Pinned to one CPU, a request's CPU time still follows how fast the
/// host runs the vCPU (shared caches, memory bandwidth, clock speed):
/// between sets of runs minutes apart every cost moved together by up to
/// 30 %, and the reference job moved with them.  Each CPU cost is scaled
/// by `REFERENCE_MS` over the run's median reference time — the cost at a
/// fixed host speed.  The job does not touch the program, so a program
/// change moves the costs and not the scale.
pub const REFERENCE_MS: f64 = 8.0;

/// How many times slower than the reference speed the host ran the run.
pub fn host_slowdown(rec: &Recorder) -> f64 {
    median(&rec.reference_ms).map_or(1.0, |r| r / REFERENCE_MS)
}

/// Wall and process-CPU time of one call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    pub wall: Duration,
    pub cpu: Duration,
}

/// Runs `f`, returning its result with the wall and CPU time it took.
pub fn spend<T>(f: impl FnOnce() -> T) -> (T, Spent) {
    let (wall, cpu) = (Instant::now(), cpu_now());
    let out = f();
    let cpu = cpu_now().saturating_sub(cpu);
    (
        out,
        Spent {
            wall: wall.elapsed(),
            cpu,
        },
    )
}

fn us_of(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms_of(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn kind_index(task: &WireTask) -> usize {
    match task {
        WireTask::NonEmptiness => 0,
        WireTask::ModelCheck(_) => 1,
        WireTask::Count => 2,
        WireTask::Compute { .. } => 3,
        WireTask::Enumerate { .. } => 4,
    }
}

/// The server configuration of every workload.  Untraced runs keep every
/// tracing path off; traced runs sample every task server-side.
pub fn server_config(traced: bool) -> ServerConfig {
    ServerConfig {
        trace_sample_rate: if traced { 1.0 } else { 0.0 },
        slow_log_ms: 0,
        // The power document of warm_serve is uploaded as one 512 KiB
        // frame; leave room for its encoding.
        max_frame_len: 4 << 20,
        ..ServerConfig::default()
    }
}

/// One operation: a task on a (query, text) pair of the workload, by the
/// workload's own indices (the oracle's keys) and the wire ids.
#[derive(Debug, Clone)]
pub struct Op {
    pub query: usize,
    pub text: usize,
    pub qid: u64,
    pub doc: u64,
    pub task: WireTask,
}

/// Everything a load thread observed.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Process CPU time (µs) of successful tasks, by kind.
    pub cpu_us: [Vec<f64>; 5],
    /// Client-observed latency (µs) of successful tasks, by kind.
    pub lat_us: [Vec<f64>; 5],
    /// Server-reported task time (µs), by kind.
    pub task_us: [Vec<f64>; 5],
    /// Client latency minus server build and task time (µs), by kind.
    pub residual_us: [Vec<f64>; 5],
    /// Server-reported matrix build time (µs) of cache misses.
    pub build_us: Vec<f64>,
    /// Document registration round trips (ms), wall and process CPU.
    pub ingest_ms: Vec<f64>,
    pub ingest_cpu_ms: Vec<f64>,
    /// First non-emptiness answers on pairs not yet resident (ms), wall
    /// and process CPU.
    pub cold_ms: Vec<f64>,
    pub cold_cpu_ms: Vec<f64>,
    /// TCP connect plus the first `ping` reply (µs).
    pub session_us: Vec<f64>,
    /// CPU time of the reference job (ms), taken through the run.
    pub reference_ms: Vec<f64>,
    /// Completed operations inside the timed phase.
    pub completed: u64,
    /// Process CPU time of every call of the timed phase — tasks,
    /// sessions, registrations, removals — succeeded or not.
    pub busy_cpu: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Failure reasons and their counts.
    pub reasons: BTreeMap<String, u64>,
    pub answers: Vec<Answer>,
    /// The first [`SENT_SAMPLE`] task requests sent, for the codec probe.
    pub sent: Vec<Op>,
}

pub const SENT_SAMPLE: usize = 256;

impl Recorder {
    pub fn merge(&mut self, other: Recorder) {
        for k in 0..5 {
            self.cpu_us[k].extend(&other.cpu_us[k]);
            self.lat_us[k].extend(&other.lat_us[k]);
            self.task_us[k].extend(&other.task_us[k]);
            self.residual_us[k].extend(&other.residual_us[k]);
        }
        self.build_us.extend(other.build_us);
        self.ingest_ms.extend(other.ingest_ms);
        self.ingest_cpu_ms.extend(other.ingest_cpu_ms);
        self.cold_ms.extend(other.cold_ms);
        self.cold_cpu_ms.extend(other.cold_cpu_ms);
        self.session_us.extend(other.session_us);
        self.reference_ms.extend(other.reference_ms);
        self.completed += other.completed;
        self.busy_cpu += other.busy_cpu;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.reasons {
            *self.reasons.entry(k).or_default() += v;
        }
        self.answers.extend(other.answers);
        let room = SENT_SAMPLE.saturating_sub(self.sent.len());
        self.sent.extend(other.sent.into_iter().take(room));
    }

    /// Keeps what a set-up phase must still account for — attempts,
    /// failures and answers to check — and drops its latency samples,
    /// which belong to no timed phase.
    pub fn accounting_only(self) -> Recorder {
        Recorder {
            attempted: self.attempted,
            failed: self.failed,
            reference_ms: self.reference_ms,
            reasons: self.reasons,
            answers: self.answers,
            ..Recorder::default()
        }
    }

    fn sending(&mut self, op: &Op) {
        self.attempted += 1;
        if self.sent.len() < SENT_SAMPLE {
            self.sent.push(op.clone());
        }
    }

    pub fn fail(&mut self, what: &str, err: &ClientError) {
        self.failed += 1;
        let reason = match err {
            ClientError::Server { code, .. } => format!("{what}: {code}"),
            ClientError::Io(e) => format!("{what}: io {}", e.kind()),
            ClientError::Protocol(_) => format!("{what}: protocol"),
        };
        *self.reasons.entry(reason).or_default() += 1;
    }

    /// Records one successful task reply of the timed phase; `cpu` is
    /// its share of the process CPU time.
    fn task_done(&mut self, op: &Op, latency: Duration, cpu: Duration, reply: Reply) {
        let k = kind_index(&op.task);
        let us = us_of(latency);
        let stats = reply.stats;
        self.cpu_us[k].push(us_of(cpu));
        self.lat_us[k].push(us);
        self.task_us[k].push(stats.task_us as f64);
        self.residual_us[k].push(us - stats.build_us as f64 - stats.task_us as f64);
        // Model checking runs on the marked document, never on cached
        // matrices, so it builds nothing.
        if k != 1 && !stats.cache_hit {
            self.build_us.push(stats.build_us as f64);
        }
        self.completed += 1;
        self.answers.push(Answer {
            query: op.query,
            text: op.text,
            got: reply.got,
        });
    }
}

/// A task reply reduced to what the benchmark checks and attributes.
pub struct Reply {
    pub got: Got,
    pub stats: spanner_server::proto::WireStats,
}

/// Interprets a task's terminal frame (with the pages of a stream).
fn reply_of(task: &WireTask, response: Response, pages: Vec<SpanTuple>) -> Result<Reply, String> {
    let got = |got, stats| Ok(Reply { got, stats });
    match (task, response) {
        (WireTask::NonEmptiness, Response::NonEmpty { value, stats, .. }) => {
            got(Got::NonEmpty(value), stats)
        }
        (WireTask::ModelCheck(t), Response::Checked { value, stats, .. }) => {
            got(Got::Checked(t.clone(), value), stats)
        }
        (WireTask::Count, Response::Counted { value, stats, .. }) => got(Got::Count(value), stats),
        (WireTask::Compute { limit }, Response::Tuples { tuples, stats, .. }) => got(
            Got::Window {
                skip: 0,
                limit: limit.unwrap_or(u64::MAX),
                tuples,
            },
            stats,
        ),
        (WireTask::Enumerate { skip, limit }, Response::StreamEnd { stats, .. }) => got(
            Got::Window {
                skip: *skip,
                limit: limit.unwrap_or(u64::MAX),
                tuples: pages,
            },
            stats,
        ),
        (_, other) => Err(format!("unexpected reply {other:?}")),
    }
}

/// Sends one task over a lock-step client and waits for its reply.
fn call(client: &mut Client, op: &Op) -> (Result<Reply, ClientError>, Spent) {
    spend(|| match &op.task {
        WireTask::Enumerate { skip, limit } => client
            .enumerate(op.qid, op.doc, *skip, *limit, |_| {})
            .map(|(tuples, stats)| Reply {
                got: Got::Window {
                    skip: *skip,
                    limit: limit.unwrap_or(u64::MAX),
                    tuples,
                },
                stats,
            }),
        task => client
            .task(op.qid, op.doc, task.clone())
            .and_then(|r| reply_of(task, r, Vec::new()).map_err(ClientError::Protocol)),
    })
}

/// Runs one timed task over a lock-step client, recording it.  Returns
/// the answer on success.
pub fn run(client: &mut Client, rec: &mut Recorder, op: &Op) -> Option<Got> {
    rec.sending(op);
    let (outcome, spent) = call(client, op);
    rec.busy_cpu += spent.cpu;
    match outcome {
        Ok(reply) => {
            let got = reply.got.clone();
            rec.task_done(op, spent.wall, spent.cpu, reply);
            Some(got)
        }
        Err(e) => {
            rec.fail(KINDS[kind_index(&op.task)], &e);
            None
        }
    }
}

/// A pipelined connection.
pub struct Pipeline {
    client: PipelinedClient,
}

impl Pipeline {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Pipeline> {
        Ok(Pipeline {
            client: PipelinedClient::connect(addr)?,
        })
    }

    /// Submits `ops` together, so all are in flight at once, and waits
    /// for every reply.  Each success is charged an equal share of the
    /// batch's CPU time, so a batch holds tasks of one kind.  `false`
    /// when the connection failed (every unanswered task then counts
    /// failed).
    pub fn run_batch(&mut self, rec: &mut Recorder, ops: Vec<Op>) -> bool {
        let n = ops.len() as u32;
        for op in &ops {
            rec.sending(op);
        }
        let ((done, lost), spent) = spend(|| {
            let mut inflight: HashMap<u64, (Op, Instant)> = HashMap::new();
            let mut done = Vec::new();
            for op in ops {
                let start = Instant::now();
                match self.client.submit(op.qid, op.doc, op.task.clone()) {
                    Ok(id) => {
                        inflight.insert(id, (op, start));
                    }
                    Err(e) => done.push((op, Duration::ZERO, Err(e))),
                }
            }
            let mut lost = None;
            while !inflight.is_empty() {
                let reply: PipelinedReply = match self.client.poll() {
                    Ok(r) => r,
                    Err(e) => {
                        lost = Some(e);
                        break;
                    }
                };
                let Some((op, start)) = inflight.remove(&reply.id) else {
                    rec.fail(
                        "pipeline",
                        &ClientError::Protocol(format!("reply for unknown id {}", reply.id)),
                    );
                    continue;
                };
                let outcome = match reply.response {
                    Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
                    response => {
                        reply_of(&op.task, response, reply.pages).map_err(ClientError::Protocol)
                    }
                };
                done.push((op, start.elapsed(), outcome));
            }
            (done, lost.map(|e| (e, inflight)))
        });
        rec.busy_cpu += spent.cpu;
        for (op, latency, outcome) in done {
            match outcome {
                Ok(r) => rec.task_done(&op, latency, spent.cpu / n, r),
                Err(e) => rec.fail(KINDS[kind_index(&op.task)], &e),
            }
        }
        match lost {
            None => true,
            Some((e, inflight)) => {
                for (op, _) in inflight.into_values() {
                    rec.fail(KINDS[kind_index(&op.task)], &e);
                }
                false
            }
        }
    }
}

/// Opens a session the way short-lived tooling does: connect, then one
/// `ping`; records the time to the reply.
pub fn open_session(addr: SocketAddr, rec: &mut Recorder, tracing: bool) -> Option<Client> {
    rec.attempted += 1;
    let (opened, spent) = spend(|| {
        Client::connect(addr)
            .map_err(ClientError::Io)
            .and_then(|mut c| c.ping().map(|_| c))
    });
    rec.busy_cpu += spent.cpu;
    match opened {
        Ok(mut client) => {
            rec.session_us.push(us_of(spent.wall));
            client.set_tracing(tracing);
            Some(client)
        }
        Err(e) => {
            rec.fail("session", &e);
            None
        }
    }
}

/// Registers a document, recording the round trip as an ingest sample.
pub fn ingest(client: &mut Client, rec: &mut Recorder, text: &[u8], timed: bool) -> Option<u64> {
    rec.attempted += 1;
    let (added, spent) = spend(|| client.add_doc(text));
    rec.busy_cpu += spent.cpu;
    match added {
        Ok(receipt) => {
            rec.ingest_ms.push(ms_of(spent.wall));
            rec.ingest_cpu_ms.push(ms_of(spent.cpu));
            if timed {
                rec.completed += 1;
            }
            Some(receipt.id)
        }
        Err(e) => {
            rec.fail("add_doc", &e);
            None
        }
    }
}

/// The first non-emptiness answer of a pair whose matrices are not
/// resident.  It is recorded as a cold answer (and its build), never as a
/// task sample: the per-kind costs cover the read path only.
pub fn cold_answer(client: &mut Client, rec: &mut Recorder, op: &Op, timed: bool) -> Option<bool> {
    rec.attempted += 1;
    let (outcome, spent) = call(client, op);
    rec.busy_cpu += spent.cpu;
    match outcome {
        Ok(reply) => {
            rec.cold_ms.push(ms_of(spent.wall));
            rec.cold_cpu_ms.push(ms_of(spent.cpu));
            if !reply.stats.cache_hit {
                rec.build_us.push(reply.stats.build_us as f64);
            }
            if timed {
                rec.completed += 1;
            }
            let value = match reply.got {
                Got::NonEmpty(v) => Some(v),
                _ => None,
            };
            rec.answers.push(Answer {
                query: op.query,
                text: op.text,
                got: reply.got,
            });
            value
        }
        Err(e) => {
            rec.fail("cold_answer", &e);
            None
        }
    }
}

pub fn remove(client: &mut Client, rec: &mut Recorder, doc: u64, timed: bool) -> bool {
    rec.attempted += 1;
    let (removed, spent) = spend(|| client.remove_doc(doc));
    rec.busy_cpu += spent.cpu;
    match removed {
        Ok(()) => {
            if timed {
                rec.completed += 1;
            }
            true
        }
        Err(e) => {
            rec.fail("remove_doc", &e);
            false
        }
    }
}

pub fn stats(client: &mut Client) -> FullStats {
    client
        .stats_full()
        .expect("stats over the admin connection")
}

/// Service counter deltas between two snapshots.
pub fn service_delta(before: &WireServiceStats, after: &WireServiceStats) -> WireServiceStats {
    WireServiceStats {
        requests: after.requests - before.requests,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        evictions: after.evictions - before.evictions,
        resident_bytes: after.resident_bytes,
        resident_entries: after.resident_entries,
        ..WireServiceStats::default()
    }
}

/// End-to-end metrics of one timed phase: `(name, value, unit)`.  Costs
/// are process CPU time at the reference speed ([`REFERENCE_MS`]); the
/// session open, which is mostly the server's accept-loop sleep, is wall
/// time.
pub fn end_to_end(rec: &Recorder, setups: &[Spent]) -> Vec<(String, f64, &'static str)> {
    let slowdown = host_slowdown(rec);
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: Option<f64>, unit| {
        if let Some(v) = v {
            out.push((name.to_string(), v, unit));
        }
    };
    let setup_cpu: Vec<f64> = setups.iter().map(|s| s.cpu.as_secs_f64()).collect();
    put("setup_s", median(&setup_cpu).map(|v| v / slowdown), "s");
    // A rate: a slower host completes fewer operations per CPU second.
    put(
        "ops_per_cpu_s",
        (rec.completed > 0).then(|| rec.completed as f64 / rec.busy_cpu.as_secs_f64() * slowdown),
        "1/s",
    );
    put("session_open_us", median(&rec.session_us), "us");
    let cost = |v: Option<f64>| v.map(|v| v / slowdown);
    for (k, kind) in KINDS.iter().enumerate() {
        put(
            &format!("{kind}_cpu_p50_us"),
            cost(median(&rec.cpu_us[k])),
            "us",
        );
    }
    let point: Vec<f64> = rec.cpu_us[..3].concat();
    let scan: Vec<f64> = rec.cpu_us[3..].concat();
    let p99 = |samples: &[f64]| cost(tail(samples, 99.0).map(|t| t.value));
    put("point_cpu_p99_us", p99(&point), "us");
    put("scan_cpu_p99_us", p99(&scan), "us");
    put("ingest_cpu_p50_ms", cost(median(&rec.ingest_cpu_ms)), "ms");
    put(
        "cold_answer_cpu_p50_ms",
        cost(median(&rec.cold_cpu_ms)),
        "ms",
    );
    put("cold_answer_cpu_p99_ms", p99(&rec.cold_cpu_ms), "ms");
    out
}

/// The same phase in wall-clock time, as a client sees it: per-layer
/// figures, since on a shared host they move with the host's load.
pub fn wall_clock(
    rec: &Recorder,
    elapsed: Duration,
    setups: &[Spent],
) -> Vec<(String, f64, &'static str)> {
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: Option<f64>, unit| {
        if let Some(v) = v {
            out.push((format!("wall.{name}"), v, unit));
        }
    };
    let setup_wall: Vec<f64> = setups.iter().map(|s| s.wall.as_secs_f64()).collect();
    put("setup_s", median(&setup_wall), "s");
    put(
        "throughput_ops_s",
        Some(rec.completed as f64 / elapsed.as_secs_f64()),
        "1/s",
    );
    for (k, kind) in KINDS.iter().enumerate() {
        put(&format!("{kind}_p50_us"), median(&rec.lat_us[k]), "us");
    }
    let point: Vec<f64> = rec.lat_us[..3].concat();
    let scan: Vec<f64> = rec.lat_us[3..].concat();
    put("point_p99_us", tail(&point, 99.0).map(|t| t.value), "us");
    put("scan_p99_us", tail(&scan, 99.0).map(|t| t.value), "us");
    put("ingest_p50_ms", median(&rec.ingest_ms), "ms");
    put("cold_answer_p50_ms", median(&rec.cold_ms), "ms");
    put(
        "cold_answer_p99_ms",
        tail(&rec.cold_ms, 99.0).map(|t| t.value),
        "ms",
    );
    out
}

/// What a workload hands back: its recorder, timings, the verdict on its
/// answers, and the inputs the per-layer probes re-use.
pub struct Outcome {
    pub rec: Recorder,
    pub elapsed: Duration,
    /// Wall and CPU time of each set-up.
    pub setups: Vec<Spent>,
    pub wrong: u64,
    pub checked: u64,
    /// The workload's own premise (e.g. a fully warm cache) held.
    pub self_check: Result<(), String>,
    /// Workload settings recorded with the result.
    pub context: Vec<(String, crate::stats::J)>,
    /// Per-layer metrics read from the live server's counters.
    pub live: Vec<(String, f64, &'static str)>,
    pub probe: Probe,
}

/// The workload's own inputs, for timing single layers from outside.
pub struct Probe {
    pub queries: Vec<crate::inputs::QuerySpec>,
    pub texts: Vec<Vec<u8>>,
    pub slps: Vec<slp::NormalFormSlp<u8>>,
    /// `(query, text)` pairs the workload evaluates.
    pub pairs: Vec<(usize, usize)>,
}

/// The cache and serving-path counters of the live traffic between two
/// `stats` snapshots of the front-end.
pub fn server_layer(before: &FullStats, after: &FullStats) -> Vec<(String, f64, &'static str)> {
    let d = service_delta(&before.service, &after.service);
    let lookups = (d.cache_hits + d.cache_misses).max(1) as f64;
    let shed = |s: &FullStats| s.server.shed_expired + s.server.shed_overflow;
    vec![
        (
            "cache.hit_ratio".to_string(),
            d.cache_hits as f64 / lookups,
            "ratio",
        ),
        ("cache.evictions".to_string(), d.evictions as f64, "count"),
        (
            "cache.resident_bytes".to_string(),
            d.resident_bytes as f64,
            "bytes",
        ),
        (
            "server.busy_rejections".to_string(),
            (after.server.busy_rejections - before.server.busy_rejections) as f64,
            "count",
        ),
        (
            "server.shed_total".to_string(),
            (shed(after) - shed(before)) as f64,
            "count",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost clock counts this process's work.  (Other tests run in
    /// the same process meanwhile, so only lower bounds hold here.)
    #[test]
    fn spend_counts_cpu_work() {
        let ((), busy) = spend(|| {
            let start = Instant::now();
            let mut x = 0u64;
            while start.elapsed() < Duration::from_millis(30) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        });
        assert!(busy.cpu >= Duration::from_millis(10), "{busy:?}");
        assert!(busy.wall >= Duration::from_millis(30), "{busy:?}");
        let (a, b) = (cpu_now(), cpu_now());
        assert!(b >= a);
    }
}
