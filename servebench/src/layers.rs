//! Per-layer metrics of a traced run.
//!
//! Each layer is timed from outside, by calling its public functions on
//! the workload's own seeded inputs; the rest comes from the counters the
//! server exports (`stats`) and the per-response `WireStats` the traced
//! run recorded.  Nothing here instruments the program.
//!
//! Every per-layer metric is reported by every workload: a layer the
//! workload's traffic does not cross (say, the remote pool under
//! `warm_serve`) is probed on that workload's documents all the same, and
//! counters the traffic does produce override the probe.

use crate::harness::{Outcome, KINDS};
use crate::inputs::{self, DocClass, QuerySpec, AB_BLOCKS, DICTIONARY, KEY_VALUE, LOG_ERROR};
use crate::stats::{median, slope};
use slp::NormalFormSlp;
use spanner::{Span, SpanTuple, Variable};
use spanner_server::proto::WireStats;
use spanner_server::{Request, Response, Server, ServerConfig};
use spanner_slp_core::bitmat::RMatrix;
use spanner_slp_core::enumerate::Enumeration;
use spanner_slp_core::matrices::Preprocessed;
use spanner_slp_core::{
    compute, count, model_check, LocalExecutor, PreparedDocument, PreparedQuery, Service,
    ShardExecutor, Task, TaskRequest,
};
use spanner_store::{LogVerb, Store};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Metric = (String, f64, &'static str);

/// Per-layer metrics, reported with `--trace 1` by every workload.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("slp.compress_ms", "ms"),
    ("slp.rules_per_kib", "rules/KiB"),
    ("slp.depth", "levels"),
    ("slp.shard_split_ms", "ms"),
    ("matrices.build_ms", "ms"),
    ("matrices.bytes", "bytes"),
    ("matrices.build_ns_per_rule.log_error_value", "ns/rule"),
    ("matrices.build_ns_per_rule.key_value", "ns/rule"),
    ("matrices.build_ns_per_rule.dictionary", "ns/rule"),
    ("bitmat.product_ns", "ns"),
    ("bitmat.nonbot_density", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_bytes", "bytes"),
    ("nonemptiness.exec_us", "us"),
    ("model_check.exec_us", "us"),
    ("count.exec_us", "us"),
    ("compute.exec_us_per_tuple", "us"),
    ("enumerate.first_us", "us"),
    ("enumerate.delay_mean_us", "us"),
    ("enumerate.delay_max_us", "us"),
    ("enumerate.delay_max_ns_per_depth", "ns/level"),
    ("service.build_us", "us"),
    ("service.task_us.non_emptiness", "us"),
    ("service.task_us.model_check", "us"),
    ("service.task_us.count", "us"),
    ("service.task_us.compute", "us"),
    ("service.task_us.enumerate", "us"),
    ("server.residual_us.non_emptiness", "us"),
    ("server.residual_us.model_check", "us"),
    ("server.residual_us.count", "us"),
    ("server.residual_us.compute", "us"),
    ("server.residual_us.enumerate", "us"),
    ("server.busy_rejections", "count"),
    ("server.shed_total", "count"),
    ("proto.request_decode_us", "us"),
    ("proto.response_encode_us", "us"),
    ("proto.frame_bytes", "bytes"),
    ("proto.add_doc_decode_us_per_kib", "us/KiB"),
    ("store.append_us", "us"),
    ("store.log_bytes_per_doc_byte", "ratio"),
    ("executor.local_critical_path_ms", "ms"),
    ("remote.critical_path_ms", "ms"),
    ("remote.pass_p99_us", "us"),
    ("remote.scatter_bytes_per_build", "bytes"),
    ("remote.gather_bytes_per_build", "bytes"),
    ("remote.hash_only_ratio", "ratio"),
    ("remote.hedges", "count"),
    ("remote.fallbacks", "count"),
    ("blockcache.hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("wall.setup_s", "s"),
    ("wall.throughput_ops_s", "1/s"),
    ("wall.non_emptiness_p50_us", "us"),
    ("wall.model_check_p50_us", "us"),
    ("wall.count_p50_us", "us"),
    ("wall.compute_p50_us", "us"),
    ("wall.enumerate_p50_us", "us"),
    ("wall.point_p99_us", "us"),
    ("wall.scan_p99_us", "us"),
    ("wall.ingest_p50_ms", "ms"),
    ("wall.cold_answer_p50_ms", "ms"),
    ("wall.cold_answer_p99_ms", "ms"),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Mean time of `f` over enough repetitions to fill about a millisecond.
fn per_call(mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    let mut n = 0u32;
    while n < 3 || (start.elapsed() < Duration::from_millis(1) && n < 10_000) {
        f();
        n += 1;
    }
    start.elapsed() / n
}

fn put(out: &mut Vec<Metric>, name: &str, value: Option<f64>, unit: &'static str) {
    if let Some(v) = value {
        out.push((name.to_string(), v, unit));
    }
}

/// A built pair of the workload: query, document, matrices.
struct Built<'a> {
    spec: &'a QuerySpec,
    slp: &'a NormalFormSlp<u8>,
    pre: Arc<Preprocessed>,
}

/// `slp.*` and `matrices.*` on the workload's documents; returns the built
/// pairs for the later probes.
fn grammar_and_matrices<'a>(o: &'a Outcome, out: &mut Vec<Metric>) -> Vec<Built<'a>> {
    let p = &o.probe;
    let mut compress = Vec::new();
    let mut split = Vec::new();
    for t in &p.texts {
        compress.push(ms(per_call(|| {
            black_box(NormalFormSlp::from_document(black_box(t)).expect("non-empty text"));
        })));
    }
    for slp in &p.slps {
        split.push(ms(per_call(|| {
            black_box(slp::shard::split(black_box(slp), 4));
        })));
    }
    let rules_per_kib: Vec<f64> = p
        .slps
        .iter()
        .zip(&p.texts)
        .map(|(s, t)| s.size() as f64 / (t.len() as f64 / 1024.0))
        .collect();
    let depths: Vec<f64> = p.slps.iter().map(|s| s.depth() as f64).collect();
    put(out, "slp.compress_ms", median(&compress), "ms");
    put(
        out,
        "slp.rules_per_kib",
        median(&rules_per_kib),
        "rules/KiB",
    );
    put(out, "slp.depth", median(&depths), "levels");
    put(out, "slp.shard_split_ms", median(&split), "ms");

    let mut build = Vec::new();
    let mut bytes = Vec::new();
    let mut built = Vec::new();
    for &(q, t) in &p.pairs {
        let spec = &p.queries[q];
        let query = PreparedQuery::determinized(&spec.automaton());
        let doc = PreparedDocument::new(&p.slps[t]);
        let start = Instant::now();
        let pre = doc.matrices(&query);
        build.push(ms(start.elapsed()));
        bytes.push(pre.approx_bytes() as f64);
        built.push(Built {
            spec,
            slp: &p.slps[t],
            pre,
        });
    }
    put(out, "matrices.build_ms", median(&build), "ms");
    put(out, "matrices.bytes", median(&bytes), "bytes");
    built
}

/// Lemma 6.5 as a slope: matrix build time against size(S), per query,
/// over documents of the cold_ingest classes and two smaller ones.
fn build_slopes(seed: u64, out: &mut Vec<Metric>) {
    let classes = [
        DocClass::Log(150, 4),
        DocClass::Log(300, 4),
        DocClass::Log(600, 8),
        DocClass::Block(3072),
        DocClass::Block(6144),
    ];
    let slps: Vec<NormalFormSlp<u8>> = classes
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            NormalFormSlp::from_document(&inputs::text(c, seed.wrapping_add(i as u64)))
                .expect("non-empty text")
        })
        .collect();
    for spec in [LOG_ERROR, KEY_VALUE, DICTIONARY] {
        let query = PreparedQuery::determinized(&spec.automaton());
        let points: Vec<(f64, f64)> = slps
            .iter()
            .map(|slp| {
                let runs: Vec<f64> = (0..2)
                    .map(|_| {
                        let doc = PreparedDocument::new(slp);
                        let start = Instant::now();
                        black_box(doc.matrices(&query));
                        start.elapsed().as_nanos() as f64
                    })
                    .collect();
                (slp.size() as f64, median(&runs).expect("two runs"))
            })
            .collect();
        put(
            out,
            &format!("matrices.build_ns_per_rule.{}", spec.name),
            slope(&points),
            "ns/rule",
        );
    }
}

/// `bitmat.*`: the three-valued product on operands rebuilt from the
/// workload's own R matrices, at the largest q among its queries.
fn bitmat(built: &[Built], seed: u64, out: &mut Vec<Metric>) {
    let mut nonbot = 0u64;
    let mut entries = 0u64;
    for b in built {
        let q = b.pre.q;
        for r in b.pre.r.iter().filter(|r| !r.is_placeholder()).take(2000) {
            for i in 0..q {
                for j in 0..q {
                    nonbot += u64::from(r.is_nonbot(i, j));
                }
            }
            entries += (q * q) as u64;
        }
    }
    put(
        out,
        "bitmat.nonbot_density",
        Some(nonbot as f64 / entries.max(1) as f64),
        "ratio",
    );
    let Some(widest) = built.iter().max_by_key(|b| b.pre.q) else {
        return;
    };
    let q = widest.pre.q;
    let rows: Vec<&RMatrix> = widest
        .pre
        .r
        .iter()
        .filter(|r| !r.is_placeholder())
        .collect();
    let mut rng = inputs::rng(seed, 41);
    let operands: Vec<(RMatrix, RMatrix)> = (0..64)
        .map(|_| {
            use rand::Rng;
            let b = rows[rng.gen_range(0..rows.len())];
            let c = rows[rng.gen_range(0..rows.len())];
            (
                RMatrix::from_entries(q, &b.to_entries()),
                RMatrix::from_entries(q, &c.to_entries()),
            )
        })
        .collect();
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let per = per_call(|| {
                for (b, c) in &operands {
                    black_box(RMatrix::product(black_box(b), black_box(c)));
                }
            });
            per.as_nanos() as f64 / operands.len() as f64
        })
        .collect();
    put(out, "bitmat.product_ns", median(&batches), "ns");
}

/// A tuple of the relation to model-check, or a one-symbol span per
/// variable when the relation is empty.
fn some_tuple(b: &Built) -> SpanTuple {
    Enumeration::from_matrices(&b.pre)
        .next()
        .unwrap_or_else(|| {
            let vars = b.pre.num_vars;
            let mut t = SpanTuple::empty(vars);
            for v in 0..vars {
                t.set(Variable(v as u8), Span::new(1, 2).expect("valid span"));
            }
            t
        })
}

/// Task execution on resident matrices (Thms 5.1, 7.1, 8.10).
fn tasks(built: &[Built], out: &mut Vec<Metric>) {
    let (mut ne, mut mc, mut cnt, mut per_tuple) = (vec![], vec![], vec![], vec![]);
    let (mut first, mut mean, mut max) = (vec![], vec![], vec![]);
    for b in built {
        ne.push(us(per_call(|| {
            black_box(!b.pre.reachable_accepting().is_empty());
        })));
        let automaton = b.spec.automaton();
        let tuple = some_tuple(b);
        mc.push(us(per_call(|| {
            black_box(model_check::check(&automaton, b.slp, &tuple).expect("tuple fits"));
        })));
        let start = Instant::now();
        let n = count::count_from_matrices(&b.pre);
        cnt.push(us(start.elapsed()));
        // Materialising a relation of millions of tuples says nothing a
        // smaller one does not; skip those pairs.
        if (1..=50_000).contains(&n) {
            let start = Instant::now();
            let tuples = compute::compute_from_matrices(&b.pre);
            per_tuple.push(us(start.elapsed()) / tuples.len().max(1) as f64);
        }
        if n > 0 {
            let d = spanner_bench::measure_delays(Enumeration::from_matrices(&b.pre), 1000);
            first.push(us(d.first));
            mean.push(us(d.mean_delay));
            max.push(us(d.max_delay));
        }
    }
    put(out, "nonemptiness.exec_us", median(&ne), "us");
    put(out, "model_check.exec_us", median(&mc), "us");
    put(out, "count.exec_us", median(&cnt), "us");
    put(out, "compute.exec_us_per_tuple", median(&per_tuple), "us");
    put(out, "enumerate.first_us", median(&first), "us");
    put(out, "enumerate.delay_mean_us", median(&mean), "us");
    put(out, "enumerate.delay_max_us", median(&max), "us");
}

/// Thm 8.10 as a slope: maximal enumeration delay against depth(S), over
/// balanced power SLPs (depth ~ log n) and chain-shaped ones (depth ~ n).
fn delay_slope(out: &mut Vec<Metric>) {
    let query = PreparedQuery::determinized(&AB_BLOCKS.automaton());
    let mut slps: Vec<NormalFormSlp<u8>> = [8u32, 12, 16]
        .iter()
        .map(|&e| slp::families::power_word(b"ab", 1u64 << e))
        .collect();
    // Chains past depth ~130 take seconds per enumeration: the measured
    // delay grows faster than linearly in their depth.
    slps.extend([32u32, 64, 128].iter().map(|&n| inputs::chain_slp(n)));
    let points: Vec<(f64, f64)> = slps
        .iter()
        .map(|slp| {
            let doc = PreparedDocument::new(slp);
            let pre = doc.matrices(&query);
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let d = spanner_bench::measure_delays(Enumeration::from_matrices(&pre), 2000);
                    d.max_delay.as_nanos() as f64
                })
                .collect();
            (slp.depth() as f64, median(&runs).expect("three runs"))
        })
        .collect();
    put(
        out,
        "enumerate.delay_max_ns_per_depth",
        slope(&points),
        "ns/level",
    );
}

/// `service.*` and `server.residual_us.*` from the traced run's replies.
fn replies(o: &Outcome, out: &mut Vec<Metric>) {
    let rec = &o.rec;
    put(out, "service.build_us", median(&rec.build_us), "us");
    // The server reports whole microseconds, and a resident-matrix
    // non-emptiness takes well under one: a mean resolves it, a median
    // would read 0.
    for (k, kind) in KINDS.iter().enumerate() {
        let mean = (!rec.task_us[k].is_empty())
            .then(|| rec.task_us[k].iter().sum::<f64>() / rec.task_us[k].len() as f64);
        put(out, &format!("service.task_us.{kind}"), mean, "us");
    }
    for (k, kind) in KINDS.iter().enumerate() {
        put(
            out,
            &format!("server.residual_us.{kind}"),
            median(&rec.residual_us[k]),
            "us",
        );
    }
}

/// The wire codec on the workload's own frames: the task frames it sent
/// (what the serving path decodes per request) and, apart from them, the
/// `AddDoc` frames of its documents (what ingest decodes).
fn proto(o: &Outcome, out: &mut Vec<Metric>) {
    let frames: Vec<Vec<u8>> = o
        .rec
        .sent
        .iter()
        .map(|op| {
            Request::Task {
                tenant: 0,
                trace: 0,
                query: op.qid,
                doc: op.doc,
                task: op.task.clone(),
            }
            .encode()
        })
        .collect();
    let decode = per_call(|| {
        for f in &frames {
            black_box(Request::decode(black_box(f)).expect("own frame decodes"));
        }
    });
    let uploads: Vec<Vec<u8>> = o
        .probe
        .texts
        .iter()
        .map(|t| {
            Request::AddDoc {
                tenant: 0,
                text: t.clone(),
            }
            .encode()
        })
        .collect();
    let decode_uploads = per_call(|| {
        for f in &uploads {
            black_box(Request::decode(black_box(f)).expect("own frame decodes"));
        }
    });
    let text_kib = o.probe.texts.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    // The latest answers: those of the timed phase's task replies.
    let responses: Vec<Response> = o
        .rec
        .answers
        .iter()
        .rev()
        .take(crate::harness::SENT_SAMPLE)
        .map(|a| {
            let stats = WireStats::default();
            match &a.got {
                crate::oracle::Got::NonEmpty(v) => Response::NonEmpty {
                    value: *v,
                    stats,
                    trace: None,
                },
                crate::oracle::Got::Checked(_, v) => Response::Checked {
                    value: *v,
                    stats,
                    trace: None,
                },
                crate::oracle::Got::Count(n) => Response::Counted {
                    value: *n,
                    stats,
                    trace: None,
                },
                crate::oracle::Got::Window { tuples, .. } => Response::Page {
                    tuples: tuples.clone(),
                },
            }
        })
        .collect();
    let encode = per_call(|| {
        for r in &responses {
            black_box(black_box(r).encode());
        }
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    put(
        out,
        "proto.request_decode_us",
        Some(us(decode) / frames.len().max(1) as f64),
        "us",
    );
    put(
        out,
        "proto.response_encode_us",
        Some(us(encode) / responses.len().max(1) as f64),
        "us",
    );
    put(
        out,
        "proto.frame_bytes",
        Some(bytes as f64 / frames.len().max(1) as f64),
        "bytes",
    );
    put(
        out,
        "proto.add_doc_decode_us_per_kib",
        Some(us(decode_uploads) / text_kib.max(1e-9)),
        "us/KiB",
    );
}

/// The durable log on the workload's texts, in a scratch directory.
fn store(o: &Outcome, out: &mut Vec<Metric>) {
    let dir = crate::harness::scratch_root().join(format!("probe-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open(&dir).expect("open a scratch store");
    let mut appends = Vec::new();
    let mut text_bytes = 0usize;
    for round in 0..4u64 {
        for (i, t) in o.probe.texts.iter().enumerate() {
            let verb = LogVerb::AddDoc {
                tenant: 0,
                wire_id: round * 1000 + i as u64,
                text: t.clone(),
                shards: 1,
            };
            let start = Instant::now();
            store.append(&verb).expect("append to the scratch store");
            appends.push(us(start.elapsed()));
            text_bytes += t.len();
        }
    }
    let log_bytes = store.metrics().log_bytes;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    put(out, "store.append_us", median(&appends), "us");
    put(
        out,
        "store.log_bytes_per_doc_byte",
        Some(log_bytes as f64 / text_bytes.max(1) as f64),
        "ratio",
    );
}

/// Local against remote shard execution on the workload's documents, cut
/// into the same shards: a service on a `LocalExecutor` and one on a
/// `RemoteExecutor` over two in-process worker-role servers.
fn executors(o: &Outcome, out: &mut Vec<Metric>) {
    let workers: Vec<Server> = (0..2)
        .map(|_| {
            Server::bind(
                "127.0.0.1:0",
                Service::new(),
                ServerConfig {
                    worker: true,
                    max_frame_len: 4 << 20,
                    ..ServerConfig::default()
                },
            )
            .expect("bind a probe worker")
        })
        .collect();
    let remote = Arc::new(
        spanner_server::RemoteExecutor::new(workers.iter().map(|w| w.local_addr().to_string()))
            .with_max_frame(4 << 20),
    );
    let p = &o.probe;
    let (mut local_ms, mut remote_ms) = (Vec::new(), Vec::new());
    let mut builds = 0u64;
    // Twice over the same shards: the second round may ship hashes only.
    for _round in 0..2 {
        for &(q, t) in p.pairs.iter().take(4) {
            let slp = &p.slps[t];
            let sharded = slp::shard::split(slp, 4);
            for (is_remote, executor) in [
                (false, Arc::new(LocalExecutor) as Arc<dyn ShardExecutor>),
                (true, remote.clone() as Arc<dyn ShardExecutor>),
            ] {
                let service = Service::builder().shard_executor(executor).build();
                let query = service.add_query(&p.queries[q].automaton());
                let doc =
                    service.add_prepared_document(PreparedDocument::sharded_precut(slp, &sharded));
                let response = service
                    .run(&TaskRequest {
                        query,
                        doc,
                        task: Task::NonEmptiness,
                    })
                    .expect("probe build");
                let critical = response
                    .shard_stats
                    .expect("sharded builds report shard stats")
                    .critical_path();
                if is_remote {
                    remote_ms.push(ms(critical));
                    builds += 1;
                } else {
                    local_ms.push(ms(critical));
                }
            }
        }
    }
    put(
        out,
        "executor.local_critical_path_ms",
        median(&local_ms),
        "ms",
    );
    put(out, "remote.critical_path_ms", median(&remote_ms), "ms");
    let per_build = |b: u64| Some(b as f64 / builds.max(1) as f64);
    let passes = remote.remote_pass_count().max(1) as f64;
    put(
        out,
        "remote.pass_p99_us",
        Some(remote.pass_latency_histogram().percentile(0.99) as f64),
        "us",
    );
    put(
        out,
        "remote.scatter_bytes_per_build",
        per_build(remote.scatter_bytes()),
        "bytes",
    );
    put(
        out,
        "remote.gather_bytes_per_build",
        per_build(remote.gather_bytes()),
        "bytes",
    );
    put(
        out,
        "remote.hash_only_ratio",
        Some(remote.hash_only_pass_count() as f64 / passes),
        "ratio",
    );
    put(
        out,
        "remote.hedges",
        Some(remote.hedge_count() as f64),
        "count",
    );
    put(
        out,
        "remote.fallbacks",
        Some(remote.fallback_count() as f64),
        "count",
    );
    let (hits, lookups) = workers.iter().fold((0, 0), |(h, n), w| {
        let mut c = spanner_server::Client::connect(w.local_addr()).expect("worker stats");
        let s = crate::harness::stats(&mut c).server;
        (
            h + s.block_cache_hits,
            n + s.block_cache_hits + s.block_cache_misses,
        )
    });
    put(
        out,
        "blockcache.hit_ratio",
        Some(hits as f64 / lookups.max(1) as f64),
        "ratio",
    );
    drop(remote);
    for w in workers {
        w.shutdown_and_join();
    }
}

fn find(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.0 == name).map(|m| m.1)
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order.
/// `untraced` and `traced` are the end-to-end metrics of the two halves,
/// `wall` the untraced half's wall-clock figures.
pub fn measure(
    o: &Outcome,
    seed: u64,
    untraced: &[Metric],
    traced: &[Metric],
    wall: &[Metric],
) -> Vec<Metric> {
    let mut probed = Vec::new();
    let stage = |name: &str, since: Instant| {
        eprintln!(
            "servebench: probe {name} took {:.1} ms",
            ms(since.elapsed())
        );
        Instant::now()
    };
    let t = Instant::now();
    let built = grammar_and_matrices(o, &mut probed);
    let t = stage("slp+matrices", t);
    build_slopes(seed, &mut probed);
    let t = stage("build slopes", t);
    bitmat(&built, seed, &mut probed);
    let t = stage("bitmat", t);
    tasks(&built, &mut probed);
    let t = stage("tasks", t);
    delay_slope(&mut probed);
    let t = stage("delay slope", t);
    replies(o, &mut probed);
    proto(o, &mut probed);
    let t = stage("proto", t);
    store(o, &mut probed);
    let t = stage("store", t);
    executors(o, &mut probed);
    stage("executors", t);
    // The cheapest request shows best what tracing adds to one.
    let overhead = match (
        find(untraced, "non_emptiness_cpu_p50_us"),
        find(traced, "non_emptiness_cpu_p50_us"),
    ) {
        (Some(u), Some(t)) if u > 0.0 => Some(100.0 * (t - u) / u),
        _ => None,
    };
    put(&mut probed, "trace.overhead_pct", overhead, "%");
    // Counters of the live traffic override the probes of the same layer.
    PER_LAYER
        .iter()
        .filter_map(|&(name, unit)| {
            o.live
                .iter()
                .chain(wall)
                .chain(&probed)
                .find(|m| m.0 == name)
                .map(|m| (name.to_string(), m.1, unit))
        })
        .collect()
}

/// The traced run's per-layer numbers beside the untraced end-to-end
/// numbers, with the tracing overhead per metric, as `#` comment lines.
pub fn print_side_by_side(untraced: &[Metric], traced: &[Metric], per_layer: &[Metric]) {
    println!(
        "# {:<24} {:>16} {:>16} {:>10}",
        "end-to-end", "untraced", "traced", "overhead"
    );
    for (name, value, unit) in untraced {
        let t = find(traced, name);
        let overhead = t.map_or(String::from("-"), |t| {
            format!("{:+.1}%", 100.0 * (t - value) / value)
        });
        let t = t.map_or(String::from("-"), |t| format!("{t:.3}"));
        println!("# {name:<24} {value:>13.3} {unit:<2} {t:>16} {overhead:>10}");
    }
    println!("# {:<40} {:>16}", "per-layer (traced run)", "value");
    for (name, value, unit) in per_layer {
        println!("# {name:<40} {value:>16.4} {unit}");
    }
}
