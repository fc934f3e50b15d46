//! `warm_serve`: read-only serving from a cache holding the whole corpus.
//!
//! Four repetitive logs and one `(ab)^k` power document, with the two log
//! queries and `ab_blocks`; every pair is warmed before timing, so no
//! matrix is built while the clock runs.  One load thread drives two
//! connections in turn over all five task kinds: a long-lived pipelined
//! client that sends its requests in batches of two in flight, and a
//! lock-step client that opens a fresh session (connect + `ping`) every
//! few requests.  With one request or batch in flight at a time, the
//! process CPU time of each is its own.

use crate::harness::{self, open_session, spend, Op, Outcome, Pipeline, Probe, Recorder};
use crate::inputs::{self, DocClass, QuerySpec, AB_BLOCKS, KEY_VALUE, LOG_ERROR};
use crate::oracle::{self, Expected};
use crate::stats::J;
use rand::rngs::StdRng;
use rand::Rng;
use slp::NormalFormSlp;
use spanner::{Span, SpanTuple, Variable};
use spanner_server::{Client, Server, WireTask};
use spanner_slp_core::Service;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Four logs and the power document: with an odd number of documents
/// (and of pairs) the set-up medians fall inside one document's cluster
/// of samples, not between two.
const LOG_LINES: [usize; 4] = [200, 275, 350, 425];
/// `(ab)^k`: 512 KiB of text, an SLP of depth 19.
const POWER_K: usize = 1 << 18;
/// Set-ups before the timed phase (the last is served) and after it.
/// A set-up's nine cold answers run cheap or dear together (one set-up's
/// all 1.7–2.5 ms, the next one's 2.2–3.1 ms), so the set-up medians
/// need many set-ups: with eleven, `cold_answer_cpu_p50_ms` spread 0.20
/// over ten runs.  Twenty-five keep the sample counts odd (225 cold
/// answers, 125 registrations) and cost about two seconds.  Spreading
/// them over the run keeps a stall at start-up from deciding them.
const SETUPS_BEFORE: usize = 12;
const SETUPS_AFTER: usize = 13;
/// Pipelined requests in flight together (of one kind, so their CPU
/// time is that kind's).
const WINDOW: usize = 2;
/// Requests per lock-step session before it reconnects.
const SESSION_REQUESTS: usize = 8;
/// Task-kind weights in `KINDS` order.
const MIX: [u32; 5] = [30, 20, 15, 10, 25];
const MAX_SKIP: u64 = 256;
const WINDOW_LIMIT: u64 = 32;

struct Corpus {
    queries: Vec<QuerySpec>,
    texts: Vec<Vec<u8>>,
    /// `(query, text)` pairs that are served.
    pairs: Vec<(usize, usize)>,
}

fn corpus(seed: u64) -> Corpus {
    let mut texts: Vec<Vec<u8>> = LOG_LINES
        .iter()
        .enumerate()
        .map(|(i, &lines)| inputs::text(DocClass::Log(lines, 8), seed.wrapping_add(i as u64)))
        .collect();
    texts.push(inputs::power_text(POWER_K));
    let power = texts.len() - 1;
    let mut pairs: Vec<(usize, usize)> = (0..power).flat_map(|t| [(0, t), (1, t)]).collect();
    pairs.push((2, power));
    Corpus {
        queries: vec![LOG_ERROR, KEY_VALUE, AB_BLOCKS],
        texts,
        pairs,
    }
}

fn expected(corpus: &Corpus, q: usize, t: usize) -> Expected {
    let automaton = corpus.queries[q].automaton();
    if corpus.queries[q].name == AB_BLOCKS.name {
        Expected::Set(power_relation(POWER_K))
    } else {
        Expected::for_text(&automaton, &corpus.texts[t])
    }
}

/// `⟦.*x{ab}.*⟧((ab)^k)` in closed form: one span `[2i+1, 2i+3⟩` per
/// factor (the oracle for the power document, whose 2^18 results an
/// enumeration would take seconds to list).
fn power_relation(k: usize) -> HashSet<SpanTuple> {
    (0..k as u64)
        .map(|i| {
            let mut t = SpanTuple::empty(1);
            t.set(
                Variable(0),
                Span::new(2 * i + 1, 2 * i + 3).expect("valid span"),
            );
            t
        })
        .collect()
}

/// A served pair with its wire ids and model-check witnesses.
#[derive(Clone)]
struct Pair {
    query: usize,
    text: usize,
    qid: u64,
    doc: u64,
    witnesses: Vec<SpanTuple>,
    doc_len: u64,
    computable: bool,
}

/// Registers the corpus on a fresh server and warms every pair; the
/// registrations and first answers are recorded as ingest and cold-answer
/// samples, never as task samples.
fn set_up(
    corpus: &Corpus,
    witnesses: &HashMap<(usize, usize), Vec<SpanTuple>>,
    traced: bool,
    rec: &mut Recorder,
) -> (Server, Vec<Pair>) {
    let server = Server::bind(
        "127.0.0.1:0",
        Service::new(),
        harness::server_config(traced),
    )
    .expect("bind the front-end");
    let mut admin = Client::connect(server.local_addr()).expect("admin connection");
    let qids: Vec<u64> = corpus
        .queries
        .iter()
        .map(|q| {
            admin
                .add_query(q.pattern, q.alphabet)
                .expect("register query")
        })
        .collect();
    let docs: Vec<u64> = corpus
        .texts
        .iter()
        .map(|t| harness::ingest(&mut admin, rec, t, false).expect("register text"))
        .collect();
    let pairs: Vec<Pair> = corpus
        .pairs
        .iter()
        .map(|&(q, t)| Pair {
            query: q,
            text: t,
            qid: qids[q],
            doc: docs[t],
            witnesses: witnesses[&(q, t)].clone(),
            doc_len: corpus.texts[t].len() as u64,
            computable: corpus.queries[q].name != AB_BLOCKS.name,
        })
        .collect();
    for p in &pairs {
        let op = Op {
            query: p.query,
            text: p.text,
            qid: p.qid,
            doc: p.doc,
            task: WireTask::NonEmptiness,
        };
        harness::cold_answer(&mut admin, rec, &op, false);
    }
    (server, pairs)
}

/// A model-check tuple: a known witness, or one shifted by a position
/// (which the oracle decides).
fn check_tuple(pair: &Pair, rng: &mut StdRng) -> SpanTuple {
    let mut t = pair.witnesses[rng.gen_range(0..pair.witnesses.len())].clone();
    if rng.gen_bool(0.5) {
        for v in 0..t.num_vars() {
            if let Some(s) = t.get(Variable(v as u8)) {
                if s.end <= pair.doc_len {
                    t.set(
                        Variable(v as u8),
                        Span::new(s.start + 1, s.end + 1).unwrap(),
                    );
                }
            }
        }
    }
    t
}

fn next_op(pairs: &[Pair], rng: &mut StdRng) -> Op {
    let kind = inputs::weighted(&MIX, rng);
    op_of_kind(pairs, kind, rng)
}

fn op_of_kind(pairs: &[Pair], kind: usize, rng: &mut StdRng) -> Op {
    let eligible: Vec<&Pair> = pairs.iter().filter(|p| kind != 3 || p.computable).collect();
    let p = eligible[rng.gen_range(0..eligible.len())];
    let task = match kind {
        0 => WireTask::NonEmptiness,
        1 => WireTask::ModelCheck(check_tuple(p, rng)),
        2 => WireTask::Count,
        3 => WireTask::Compute {
            limit: Some(WINDOW_LIMIT),
        },
        _ => WireTask::Enumerate {
            skip: rng.gen_range(0..MAX_SKIP),
            limit: Some(WINDOW_LIMIT),
        },
    };
    Op {
        query: p.query,
        text: p.text,
        qid: p.qid,
        doc: p.doc,
        task,
    }
}

/// The timed load: a pipelined batch of one kind, then one lock-step
/// request, in turn until the deadline.
fn load(addr: SocketAddr, pairs: &[Pair], seed: u64, deadline: Instant, traced: bool) -> Recorder {
    let mut rec = Recorder::default();
    let mut rng = inputs::rng(seed, 11);
    let mut pipe = Pipeline::connect(addr).expect("pipelined connection");
    let mut session: Option<Client> = None;
    let mut used = 0;
    let mut next_ref = Instant::now();
    while Instant::now() < deadline {
        if Instant::now() >= next_ref {
            rec.reference_ms.push(harness::reference_ms());
            next_ref += Duration::from_millis(500);
        }
        let kind = inputs::weighted(&MIX, &mut rng);
        let batch = (0..WINDOW)
            .map(|_| op_of_kind(pairs, kind, &mut rng))
            .collect();
        if !pipe.run_batch(&mut rec, batch) {
            pipe = Pipeline::connect(addr).expect("pipelined reconnection");
        }
        if used == SESSION_REQUESTS {
            session = None;
        }
        if session.is_none() {
            session = open_session(addr, &mut rec, traced);
            used = 0;
        }
        let Some(client) = session.as_mut() else {
            continue;
        };
        used += 1;
        let op = next_op(pairs, &mut rng);
        harness::run(client, &mut rec, &op);
    }
    rec
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let corpus = corpus(seed);
    // The oracle and the witnesses come first: they are the benchmark's
    // bookkeeping, not the server's set-up.
    let mut expect: HashMap<(usize, usize), Expected> = corpus
        .pairs
        .iter()
        .map(|&(q, t)| ((q, t), expected(&corpus, q, t)))
        .collect();
    let witnesses: HashMap<(usize, usize), Vec<SpanTuple>> =
        expect.iter().map(|(&k, e)| (k, e.sample(16))).collect();

    let mut rec = Recorder::default();
    let mut setups = Vec::new();
    let mut set_up_once = |rec: &mut Recorder| {
        rec.reference_ms.push(harness::reference_ms());
        let ((server, pairs), spent) = spend(|| set_up(&corpus, &witnesses, traced, rec));
        setups.push(spent);
        (server, pairs)
    };
    for _ in 1..SETUPS_BEFORE {
        set_up_once(&mut rec).0.shutdown_and_join();
    }
    let (server, pairs) = set_up_once(&mut rec);
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).expect("admin connection");
    let before = harness::stats(&mut admin);

    let start = Instant::now();
    let timed = load(
        addr,
        &pairs,
        seed,
        start + Duration::from_secs_f64(seconds),
        traced,
    );
    let elapsed = start.elapsed();
    let after = harness::stats(&mut admin);
    let delta = harness::service_delta(&before.service, &after.service);
    drop(admin);
    server.shutdown_and_join();
    for _ in 0..SETUPS_AFTER {
        set_up_once(&mut rec).0.shutdown_and_join();
    }

    // Warm-up must leave the whole corpus resident: the timed phase may
    // not build a single matrix.
    let self_check = if delta.cache_misses == 0 {
        Ok(())
    } else {
        Err(format!(
            "warm_serve built {} matrices after warm-up (hit ratio below 1.0)",
            delta.cache_misses
        ))
    };

    // The set-ups' registrations and cold answers are this workload's
    // only ingest and build samples.  They record no task sample, so the
    // per-kind costs are the timed phase's alone.
    let mut all = rec;
    all.merge(timed);
    let (checked, wrong) = oracle::check_all(
        &all.answers,
        |_| true,
        &mut expect,
        |q, t| expected(&corpus, q, t),
    );

    let live = harness::server_layer(&before, &after);
    let probe = Probe {
        queries: corpus.queries.clone(),
        slps: corpus
            .texts
            .iter()
            .map(|t| NormalFormSlp::from_document(t).expect("non-empty text"))
            .collect(),
        texts: corpus.texts,
        pairs: corpus.pairs,
    };
    Outcome {
        rec: all,
        elapsed,
        setups,
        wrong,
        checked,
        self_check,
        context: vec![
            ("cache_budget".into(), J::str("unbounded")),
            ("flush_policy".into(), J::str("in-memory server, no store")),
        ],
        live,
        probe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_server::Request;

    fn frames(pairs: &[Pair], seed: u64) -> Vec<Vec<u8>> {
        let mut rng = inputs::rng(seed, 11);
        (0..200)
            .map(|_| {
                let op = next_op(pairs, &mut rng);
                Request::Task {
                    tenant: 0,
                    trace: 0,
                    query: op.qid,
                    doc: op.doc,
                    task: op.task,
                }
                .encode()
            })
            .collect()
    }

    #[test]
    fn one_seed_gives_the_same_request_frames() {
        let corpus = corpus(5);
        assert_eq!(corpus.texts, super::corpus(5).texts);
        let pairs: Vec<Pair> = corpus
            .pairs
            .iter()
            .map(|&(q, t)| Pair {
                query: q,
                text: t,
                qid: q as u64,
                doc: t as u64,
                witnesses: expected(&corpus, q, t).sample(4),
                doc_len: corpus.texts[t].len() as u64,
                computable: corpus.queries[q].name != AB_BLOCKS.name,
            })
            .collect();
        assert_eq!(frames(&pairs, 9), frames(&pairs, 9));
        assert_ne!(frames(&pairs, 9), frames(&pairs, 10));
    }

    #[test]
    fn warm_up_leaves_every_pair_resident() {
        let corpus = corpus(3);
        let witnesses: HashMap<(usize, usize), Vec<SpanTuple>> =
            corpus.pairs.iter().map(|&k| (k, Vec::new())).collect();
        let mut rec = Recorder::default();
        let (server, pairs) = set_up(&corpus, &witnesses, false, &mut rec);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let before = harness::stats(&mut client).service;
        for p in &pairs {
            let (_, stats) = client.non_empty(p.qid, p.doc).unwrap();
            assert!(
                stats.cache_hit,
                "pair {:?} was not resident",
                (p.query, p.text)
            );
        }
        let after = harness::stats(&mut client).service;
        assert_eq!(after.cache_misses, before.cache_misses);
        assert_eq!(after.cache_hits - before.cache_hits, pairs.len() as u64);
        assert_eq!(rec.failed, 0);
        // A set-up leaves ingest and cold-answer samples only: nothing it
        // does may count as a timed task.
        assert_eq!(rec.ingest_ms.len(), corpus.texts.len());
        assert_eq!(rec.cold_ms.len(), pairs.len());
        assert!(rec.lat_us.iter().all(Vec::is_empty));
        assert!(rec.task_us.iter().all(Vec::is_empty));
        assert!(rec.residual_us.iter().all(Vec::is_empty));
        assert!(rec.sent.is_empty());
        assert_eq!(rec.completed, 0);
        drop(client);
        server.shutdown_and_join();
    }

    #[test]
    fn power_relation_matches_the_baseline() {
        let text = inputs::power_text(37);
        let baseline: HashSet<SpanTuple> =
            spanner_baseline::compute_uncompressed(&AB_BLOCKS.automaton(), &text)
                .into_iter()
                .collect();
        assert_eq!(power_relation(37), baseline);
    }
}
