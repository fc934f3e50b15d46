//! `cold_ingest`: writes beside reads, with a working set larger than the
//! matrix cache.
//!
//! A durable server (its store in a scratch directory under the benchmark
//! package) with a service cache budget of about a third of the live
//! window's matrix bytes.  One load thread drives two connections in
//! turn.  The ingest connection registers fresh documents (repetitive
//! logs of two sizes and template counts, and low-repetitiveness block
//! documents), each followed by its first non-emptiness answer for every
//! query, the oldest document removed past the live window.  Between two
//! arrivals the read connection sends a fixed number of reads, spread
//! evenly over the (query, document class) cells, each on a Zipf-skewed
//! document of its class in the live window, newest first, so most hit
//! the cache and some rebuild.
//!
//! Arrivals are spaced by reads, not by the clock: the server sees the
//! same sequence of requests, and its cache the same hits, evictions and
//! rebuilds, however fast the host runs; a faster host only gets further
//! along the sequence.  With one request in flight at a time, the
//! process CPU time of each is its own.

use crate::harness::{self, open_session, spend, Op, Outcome, Probe, Recorder, Spent};
use crate::inputs::{
    self, DocClass, Interleave, QuerySpec, Zipf, DICTIONARY, KEY_VALUE, LOG_ERROR,
};
use crate::oracle::{self, Expected, Got};
use crate::stats::J;
use rand::rngs::StdRng;
use rand::Rng;
use slp::NormalFormSlp;
use spanner::{Span, SpanTuple, Variable};
use spanner_server::{Client, PersistenceOptions, Server, ServerOptions, WireTask};
use spanner_slp_core::Service;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Document classes, in turn.
const CLASSES: [DocClass; 3] = [
    DocClass::Log(300, 4),
    DocClass::Log(600, 8),
    DocClass::Block(6144),
];
/// Documents kept registered (five of each class); older ones are
/// removed.
const LIVE: usize = 15;
/// Reads between two arrivals.
const READS_PER_ARRIVAL: usize = 15;
/// The service's matrix-cache budget: about a third of the live window's
/// matrix bytes (these classes take 16.8, 24.4 and 10.3 MB under the
/// three queries, 258 MB for fifteen documents).  The newest document of
/// each class (51 MB) fits with room to spare, so most reads hit; older
/// ones are evicted and rebuilt.  With a window of twelve and 66 MiB, the
/// newest documents' dictionary matrices were themselves evicted between
/// reads, and a third of the non-emptiness reads rebuilt.
pub const CACHE_BUDGET: usize = 82 << 20;
/// Set-ups before the timed phase (the last is served) and after it,
/// spread over the run so a stall at start-up does not decide `setup_s`.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 5;
/// Reads per session before the read connection reconnects.
const SESSION_REQUESTS: usize = 8;
/// Read-task weights in `KINDS` order.
const MIX: [u32; 5] = [30, 15, 20, 15, 20];
/// Within its class, a read favours the newest documents strongly enough
/// that most reads hit: the read medians then sit inside the hit regime
/// instead of flipping between hits and rebuilds from run to run, and the
/// rebuilds show in the tails and in `cache.hit_ratio`.
const ZIPF_S: f64 = 3.0;
/// The query reads count and materialise with: not the dictionary, whose
/// O(size(S)·q³) count pass takes hundreds of milliseconds at q = 77 and
/// would swamp the read loop (warm_serve measures Count on its own).
const COUNTED_QUERY: usize = 1;
/// Answers on one text in this many are checked against the oracle.
const CHECK_EVERY: u64 = 4;
const WINDOW_LIMIT: u64 = 16;
const MAX_SKIP: u64 = 32;

fn queries() -> Vec<QuerySpec> {
    vec![LOG_ERROR, KEY_VALUE, DICTIONARY]
}

/// The `i`-th text: the live window's first, then the arrivals'.  The
/// classes take turns in a fixed order: which class follows which decides
/// how much the newest documents evict, and a seeded order made that —
/// not the server — dominate the run-to-run spread.
fn text(seed: u64, i: usize) -> Vec<u8> {
    inputs::text(
        CLASSES[class_of(i)],
        seed.wrapping_mul(1000).wrapping_add(i as u64),
    )
}

/// The class of the text at this index.  The live window is a run of
/// `LIVE` consecutive texts, so it always holds `LIVE / 3` of each class.
fn class_of(text: usize) -> usize {
    text % CLASSES.len()
}

/// The store directory of one set-up, inside the benchmark package.
fn store_dir(setup: usize) -> PathBuf {
    harness::scratch_root().join(format!("store-{}-{setup}", std::process::id()))
}

/// A registered document of the live window and its text's index.
#[derive(Clone, Copy)]
struct LiveDoc {
    doc: u64,
    text: usize,
}

fn bind(setup: usize, traced: bool) -> (Server, PathBuf) {
    let dir = store_dir(setup);
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::builder().cache_budget(CACHE_BUDGET).build();
    let server = Server::bind_with(
        "127.0.0.1:0",
        service,
        ServerOptions {
            config: harness::server_config(traced),
            persistence: Some(PersistenceOptions {
                dir: dir.clone(),
                snapshot_every: 0,
                snapshot_bytes: 0,
            }),
            ..ServerOptions::default()
        },
    )
    .expect("bind the durable front-end");
    (server, dir)
}

/// Registers a document and answers its first non-emptiness for every
/// query.  Those answers are cold answers only; the per-kind costs
/// come from the read connection.
fn ingest_one(
    client: &mut Client,
    rec: &mut Recorder,
    qids: &[u64],
    text_index: usize,
    text: &[u8],
    timed: bool,
) -> Option<u64> {
    let doc = harness::ingest(client, rec, text, timed)?;
    for (q, &qid) in qids.iter().enumerate() {
        let op = Op {
            query: q,
            text: text_index,
            qid,
            doc,
            task: WireTask::NonEmptiness,
        };
        harness::cold_answer(client, rec, &op, timed);
    }
    Some(doc)
}

/// A set-up: a fresh durable server with the queries and the initial
/// live window registered and answered.
struct Setup {
    server: Server,
    dir: PathBuf,
    qids: Vec<u64>,
    live: VecDeque<LiveDoc>,
}

impl Setup {
    fn tear_down(self) {
        self.server.shutdown_and_join();
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

fn set_up(setup: usize, texts: &[Vec<u8>], traced: bool, rec: &mut Recorder) -> (Setup, Spent) {
    spend(|| {
        let (server, dir) = bind(setup, traced);
        let mut admin = Client::connect(server.local_addr()).expect("admin connection");
        let qids: Vec<u64> = queries()
            .iter()
            .map(|q| {
                admin
                    .add_query(q.pattern, q.alphabet)
                    .expect("register query")
            })
            .collect();
        let live = texts
            .iter()
            .enumerate()
            .map(|(i, text)| LiveDoc {
                doc: ingest_one(&mut admin, rec, &qids, i, text, false)
                    .expect("register the initial window"),
                text: i,
            })
            .collect();
        Setup {
            server,
            dir,
            qids,
            live,
        }
    })
}

/// A model-check tuple: one the server returned for this pair earlier
/// (shifted by a position half the time), else a one-symbol span per
/// variable.  The oracle decides either way.
fn check_tuple(
    seen: &HashMap<(usize, usize), Vec<SpanTuple>>,
    key: (usize, usize),
    num_vars: usize,
    doc_len: u64,
    rng: &mut StdRng,
) -> SpanTuple {
    match seen.get(&key).filter(|s| !s.is_empty()) {
        Some(tuples) => {
            let mut t = tuples[rng.gen_range(0..tuples.len())].clone();
            if rng.gen_bool(0.5) {
                for v in 0..t.num_vars() {
                    if let Some(s) = t.get(Variable(v as u8)).filter(|s| s.end <= doc_len) {
                        t.set(
                            Variable(v as u8),
                            Span::new(s.start + 1, s.end + 1).unwrap(),
                        );
                    }
                }
            }
            t
        }
        None => {
            let mut t = SpanTuple::empty(num_vars);
            for v in 0..num_vars {
                t.set(Variable(v as u8), Span::new(1, 2).unwrap());
            }
            t
        }
    }
}

/// The read connection's state: a session that reconnects every few
/// reads, and the sequences that pick each read's kind, cell and rank.
struct Reader {
    rng: StdRng,
    kinds: Interleave,
    zipf: Zipf,
    turns: [usize; 5],
    /// Tuples returned per (query, text), for model-check witnesses.
    seen: HashMap<(usize, usize), Vec<SpanTuple>>,
    session: Option<Client>,
    used: usize,
}

impl Reader {
    fn new(seed: u64) -> Reader {
        Reader {
            rng: inputs::rng(seed, 22),
            kinds: Interleave::new(&MIX),
            zipf: Zipf::new(LIVE / CLASSES.len(), ZIPF_S),
            turns: [0; 5],
            seen: HashMap::new(),
            session: None,
            used: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn read(
        &mut self,
        addr: SocketAddr,
        rec: &mut Recorder,
        qids: &[u64],
        live: &VecDeque<LiveDoc>,
        texts: &[Vec<u8>],
        num_vars: &[usize],
        traced: bool,
    ) {
        if self.used == SESSION_REQUESTS {
            self.session = None;
        }
        if self.session.is_none() {
            self.session = open_session(addr, rec, traced);
            self.used = 0;
        }
        let Some(client) = self.session.as_mut() else {
            return;
        };
        self.used += 1;
        // Kinds come in a fixed interleaving, and the j-th read of a kind
        // takes the j-th (query, class) cell in turn: document classes and
        // queries differ in cost by orders of magnitude, and a seeded mix
        // of cells moved each kind's median between their clusters from
        // run to run.  Within its cell, the read's rank follows the Zipf
        // sequence.  So which reads go to older documents — whose
        // rebuilds set the tails — and what the cache holds then is the
        // same in every run; a seed changes what the documents say.
        let kind = self.kinds.next_index();
        let turn = self.turns[kind];
        self.turns[kind] += 1;
        let class = turn % CLASSES.len();
        let (query, visit) = match kind {
            2 | 3 => (COUNTED_QUERY, turn / CLASSES.len()),
            _ => {
                let cells = CLASSES.len() * qids.len();
                (turn / CLASSES.len() % qids.len(), turn / cells)
            }
        };
        let of_class: Vec<&LiveDoc> = live
            .iter()
            .rev()
            .filter(|d| class_of(d.text) == class)
            .collect();
        let d = of_class[self.zipf.rank(visit).min(of_class.len() - 1)];
        let task = match kind {
            0 => WireTask::NonEmptiness,
            1 => WireTask::ModelCheck(check_tuple(
                &self.seen,
                (query, d.text),
                num_vars[query],
                texts[d.text].len() as u64,
                &mut self.rng,
            )),
            2 => WireTask::Count,
            3 => WireTask::Compute {
                limit: Some(WINDOW_LIMIT),
            },
            _ => WireTask::Enumerate {
                skip: self.rng.gen_range(0..MAX_SKIP),
                limit: Some(WINDOW_LIMIT),
            },
        };
        let op = Op {
            query,
            text: d.text,
            qid: qids[query],
            doc: d.doc,
            task,
        };
        if let Some(Got::Window { tuples, .. }) = harness::run(client, rec, &op) {
            self.seen.entry((query, d.text)).or_default().extend(tuples);
        }
    }
}

/// The timed load: an arrival (registration, first answers, removal of
/// the oldest document past the window), then its reads, in turn until
/// the deadline.  Arrivals' texts are made as they come and appended to
/// `texts`.
fn load(
    setup: &mut Setup,
    texts: &mut Vec<Vec<u8>>,
    num_vars: &[usize],
    seed: u64,
    deadline: Instant,
    traced: bool,
) -> Recorder {
    let addr = setup.server.local_addr();
    let mut rec = Recorder::default();
    let mut client = Client::connect(addr).expect("ingest connection");
    let mut reader = Reader::new(seed);
    let mut next_ref = Instant::now();
    while Instant::now() < deadline {
        if Instant::now() >= next_ref {
            rec.reference_ms.push(harness::reference_ms());
            next_ref += Duration::from_millis(500);
        }
        let t = texts.len();
        texts.push(text(seed, t));
        if let Some(doc) = ingest_one(&mut client, &mut rec, &setup.qids, t, &texts[t], true) {
            setup.live.push_back(LiveDoc { doc, text: t });
            while setup.live.len() > LIVE {
                let old = setup.live.pop_front().expect("window is full");
                harness::remove(&mut client, &mut rec, old.doc, true);
            }
        }
        for _ in 0..READS_PER_ARRIVAL {
            if Instant::now() >= deadline {
                break;
            }
            reader.read(
                addr,
                &mut rec,
                &setup.qids,
                &setup.live,
                texts,
                num_vars,
                traced,
            );
        }
    }
    rec
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let initial: Vec<Vec<u8>> = (0..LIVE).map(|i| text(seed, i)).collect();
    let mut texts = initial.clone();
    let queries = queries();
    let num_vars: Vec<usize> = queries
        .iter()
        .map(|q| q.automaton().variables().len())
        .collect();

    let mut setup_rec = Recorder::default();
    let mut setups = Vec::new();
    let mut set_up_once = |i: usize, rec: &mut Recorder| {
        rec.reference_ms.push(harness::reference_ms());
        let (setup, spent) = set_up(i, &initial, traced, rec);
        setups.push(spent);
        setup
    };
    for i in 1..SETUPS_BEFORE {
        set_up_once(i, &mut setup_rec).tear_down();
    }
    let mut setup = set_up_once(0, &mut setup_rec);
    let mut admin = Client::connect(setup.server.local_addr()).expect("admin connection");
    let before = harness::stats(&mut admin);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let timed = load(&mut setup, &mut texts, &num_vars, seed, deadline, traced);
    let elapsed = start.elapsed();
    let after = harness::stats(&mut admin);
    let store = after.store.unwrap_or_default();
    drop(admin);
    setup.tear_down();
    for i in 0..SETUPS_AFTER {
        set_up_once(SETUPS_BEFORE + i, &mut setup_rec).tear_down();
    }

    // Ingest and cold-answer samples come from the timed phase only.
    let mut all = setup_rec.accounting_only();
    all.merge(timed);
    let (checked, wrong) = oracle::check_all(
        &all.answers,
        |a| oracle::sampled(seed, a.text, CHECK_EVERY),
        &mut HashMap::new(),
        |q, t| Expected::for_text(&queries[q].automaton(), &texts[t]),
    );

    let used_texts: Vec<usize> = {
        let mut t: Vec<usize> = all.answers.iter().map(|a| a.text).collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    let live = harness::server_layer(&before, &after);
    // The probes re-use one document of each class.
    let probe_texts: Vec<Vec<u8>> = used_texts
        .iter()
        .take(6)
        .map(|&t| texts[t].clone())
        .collect();
    let probe = Probe {
        queries: queries.clone(),
        slps: probe_texts
            .iter()
            .map(|t| NormalFormSlp::from_document(t).expect("non-empty text"))
            .collect(),
        pairs: (0..probe_texts.len())
            .flat_map(|t| (0..queries.len()).map(move |q| (q, t)))
            .collect(),
        texts: probe_texts,
    };
    Outcome {
        rec: all,
        elapsed,
        setups,
        wrong,
        checked,
        self_check: Ok(()),
        context: vec![
            ("cache_budget".into(), J::Int(CACHE_BUDGET as u64)),
            (
                "flush_policy".into(),
                J::str(
                    "durable store: every log append is flushed, not fsynced; \
                     snapshots are fsynced; no snapshot is cut during the run",
                ),
            ),
            ("store_log_bytes".into(), J::Int(store.log_bytes)),
            ("reads_per_arrival".into(), J::Int(READS_PER_ARRIVAL as u64)),
            ("arrivals".into(), J::Int((texts.len() - LIVE) as u64)),
            ("live_window".into(), J::Int(LIVE as u64)),
        ],
        live,
        probe,
    }
}
