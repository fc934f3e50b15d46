//! Seeded inputs: the queries, document texts, arrival schedules and read
//! sequences of every workload.  Everything here is a pure function of the
//! seed; the server only ever sees the generated texts and patterns.
//!
//! Sizes are fixed per document class and only the contents, orders and
//! timings vary with the seed, so two seeds load the server with the same
//! mix of costs and their medians are comparable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slp::{NfRule, NonTerminal, NormalFormSlp};
use spanner::{regex, SpannerAutomaton};
use spanner_workloads::documents::{self, LogOptions};
use spanner_workloads::queries::LOG_ALPHABET;

/// A query as it is registered over the wire.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub name: &'static str,
    pub pattern: &'static str,
    pub alphabet: &'static [u8],
}

impl QuerySpec {
    /// The deterministic automaton the oracle evaluates (the server
    /// compiles the same pattern and determinises it itself).
    pub fn automaton(&self) -> SpannerAutomaton<u8> {
        regex::compile_deterministic(self.pattern, self.alphabet)
            .unwrap_or_else(|e| panic!("query {} does not compile: {e}", self.name))
    }
}

/// Last number on an ERROR line.
pub const LOG_ERROR: QuerySpec = QuerySpec {
    name: "log_error_value",
    pattern: ".*ERROR[^\n]*[^0-9\n]x{[0-9]+}[^0-9\n]*\n.*",
    alphabet: LOG_ALPHABET,
};

/// `key=number` pairs.
pub const KEY_VALUE: QuerySpec = QuerySpec {
    name: "key_value",
    pattern: ".*[^a-z]k{[a-z]+}=v{[0-9]+}[^0-9].*",
    alphabet: LOG_ALPHABET,
};

/// A seven-phrase dictionary: its automaton has q = 77 states, past the
/// 64-state boundary where the packed matrix kernel needs several words
/// per row.
pub const DICTIONARY: QuerySpec = QuerySpec {
    name: "dictionary",
    pattern: ".*x{(gateway\\ timeout|pool\\ exhausted|replica\\ lag|cache\\ miss|disk\\ usage|logged\\ in|job\\ finished)}.*",
    alphabet: LOG_ALPHABET,
};

/// Every `ab` factor of a power document.
pub const AB_BLOCKS: QuerySpec = QuerySpec {
    name: "ab_blocks",
    pattern: ".*x{ab}.*",
    alphabet: b"ab",
};

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Document classes.  Each has a fixed size so that a seed changes what
/// a document says, never what it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocClass {
    /// A repetitive server log (`lines`, `templates`).
    Log(usize, usize),
    /// A low-repetitiveness block document of this many bytes (blocks of
    /// 32 bytes, 80 % fresh).
    Block(usize),
}

pub fn text(class: DocClass, seed: u64) -> Vec<u8> {
    match class {
        DocClass::Log(lines, templates) => documents::repetitive_log(&LogOptions {
            lines,
            templates,
            seed,
        }),
        DocClass::Block(len) => documents::tunable_repetitiveness(len, 32, 0.8, seed),
    }
}

/// `(ab)^k` as text.
pub fn power_text(k: usize) -> Vec<u8> {
    b"ab".repeat(k)
}

/// A chain-shaped SLP for `(ab)^n`: `A₁ → ab`, `Aᵢ₊₁ → Aᵢ·ab`, so its depth
/// grows linearly with `n` where the balanced power SLP's grows with
/// `log n` — the two ends of the depth axis for the delay slope.
pub fn chain_slp(n: u32) -> NormalFormSlp<u8> {
    let mut rules = vec![
        NfRule::Leaf(b'a'),
        NfRule::Leaf(b'b'),
        NfRule::Pair(NonTerminal(0), NonTerminal(1)),
    ];
    for i in 1..n {
        let prev = if i == 1 { 2 } else { rules.len() as u32 - 1 };
        rules.push(NfRule::Pair(NonTerminal(prev), NonTerminal(2)));
    }
    let start = NonTerminal(rules.len() as u32 - 1);
    NormalFormSlp::new(rules, start).expect("chain rules are well-formed")
}

/// Ranks `0..n` in Zipf(s) shares (rank 0 most popular), visited along a
/// golden-ratio sequence instead of drawn: over any run of visits each
/// rank's count stays within a visit or two of its share, where
/// independent draws let the count of a rare rank vary by its square root
/// from run to run.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank of the `visit`-th visit of the sequence.
    pub fn rank(&self, visit: usize) -> usize {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let u = (visit as f64 * GOLDEN).fract();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Indices in integer-weight shares, evenly interleaved and the same in
/// every run (smooth weighted round robin): over any stretch of picks,
/// each index's count stays within one of its share.
pub struct Interleave {
    weights: Vec<i64>,
    current: Vec<i64>,
}

impl Interleave {
    pub fn new(weights: &[u32]) -> Interleave {
        Interleave {
            weights: weights.iter().map(|&w| i64::from(w)).collect(),
            current: vec![0; weights.len()],
        }
    }

    pub fn next_index(&mut self) -> usize {
        let total: i64 = self.weights.iter().sum();
        for (c, w) in self.current.iter_mut().zip(&self.weights) {
            *c += w;
        }
        let pick = (0..self.current.len())
            .max_by_key(|&i| (self.current[i], std::cmp::Reverse(i)))
            .expect("at least one weight");
        self.current[pick] -= total;
        pick
    }
}

/// Picks an index by integer weights.
pub fn weighted(weights: &[u32], rng: &mut StdRng) -> usize {
    let total: u32 = weights.iter().sum();
    let mut r = rng.gen_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        if r < w {
            return i;
        }
        r -= w;
    }
    unreachable!("r < total")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_the_same_texts() {
        for class in [DocClass::Log(50, 4), DocClass::Block(2048)] {
            assert_eq!(text(class, 7), text(class, 7));
            assert_ne!(text(class, 7), text(class, 8));
        }
    }

    #[test]
    fn interleave_keeps_every_share_within_one() {
        let weights = [30, 15, 20, 15, 20];
        let mut picks = Interleave::new(&weights);
        let mut counts = [0u32; 5];
        for n in 1..=1000u32 {
            counts[picks.next_index()] += 1;
            for (c, w) in counts.iter().zip(weights) {
                let share = f64::from(n * w) / 100.0;
                assert!((f64::from(*c) - share).abs() <= 1.0, "{counts:?} after {n}");
            }
        }
    }

    #[test]
    fn zipf_ranks_keep_their_shares() {
        let z = Zipf::new(5, 3.0);
        let total: f64 = (1..=5).map(|r| 1.0 / (r as f64).powi(3)).sum();
        let mut counts = [0usize; 5];
        for visit in 0..300 {
            counts[z.rank(visit)] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            let share = 300.0 / ((r + 1) as f64).powi(3) / total;
            assert!(
                (c as f64 - share).abs() <= 2.0,
                "rank {r}: {c} vs {share:.1}"
            );
        }
    }

    #[test]
    fn chain_slp_is_deep_and_derives_the_power_word() {
        let chain = chain_slp(40);
        assert_eq!(chain.derive(), power_text(40));
        assert!(chain.depth() >= 40);
    }

    #[test]
    fn queries_compile() {
        for q in [LOG_ERROR, KEY_VALUE, DICTIONARY, AB_BLOCKS] {
            assert!(q.automaton().is_deterministic(), "{}", q.name);
        }
    }
}
