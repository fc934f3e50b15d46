//! Independent answers to check the server against: the decompress-and-
//! solve baseline on the raw text, or (for documents too long to
//! decompress cheaply) an in-process `SlpSpanner` that bypasses the
//! service, its caches, sharding and the wire.

use slp::compress::{Compressor, RePair};
use slp::NormalFormSlp;
use spanner::{SpanTuple, SpannerAutomaton};
use spanner_slp_core::SlpSpanner;
use std::collections::{HashMap, HashSet};

/// What the server answered, kept until the timed phase is over.
#[derive(Debug, Clone)]
pub enum Got {
    NonEmpty(bool),
    Checked(SpanTuple, bool),
    Count(u128),
    /// A window of the relation: `Compute { limit }` (skip 0) or
    /// `Enumerate { skip, limit }`, compared as a set.
    Window {
        skip: u64,
        limit: u64,
        tuples: Vec<SpanTuple>,
    },
}

/// One answer of one (query, text) pair, by the workload's indices.
#[derive(Debug, Clone)]
pub struct Answer {
    pub query: usize,
    pub text: usize,
    pub got: Got,
}

/// Texts up to this many bytes are checked against the baseline; longer
/// ones (whose product DAG takes the baseline seconds) against an
/// in-process spanner over an independently compressed SLP.
pub const BASELINE_MAX_BYTES: usize = 16 << 10;

/// Largest relation the in-process oracle materialises.
pub const SET_MAX: u128 = 1 << 20;

/// The expected relation of one pair.
pub enum Expected {
    Set(HashSet<SpanTuple>),
    /// The spanner and its result count.
    Slp(Box<SlpSpanner>, u128),
}

impl Expected {
    pub fn for_text(automaton: &SpannerAutomaton<u8>, text: &[u8]) -> Expected {
        if text.len() <= BASELINE_MAX_BYTES {
            Expected::baseline(automaton, text)
        } else {
            // RePair, not the server's balanced compressor: the oracle's
            // grammar shares nothing with the one under test.
            Expected::in_process(automaton, &RePair::default().compress(text))
        }
    }

    pub fn baseline(automaton: &SpannerAutomaton<u8>, text: &[u8]) -> Expected {
        Expected::Set(
            spanner_baseline::compute_uncompressed(automaton, text)
                .into_iter()
                .collect(),
        )
    }

    /// An in-process spanner; relations of up to [`SET_MAX`] tuples are
    /// materialised once, so checking a window is a lookup, not a model
    /// check per tuple.
    pub fn in_process(automaton: &SpannerAutomaton<u8>, slp: &NormalFormSlp<u8>) -> Expected {
        let spanner = SlpSpanner::new(automaton, slp).expect("oracle spanner builds");
        let count = spanner.count();
        if count <= SET_MAX {
            Expected::Set(spanner.enumerate().collect())
        } else {
            Expected::Slp(Box::new(spanner), count)
        }
    }

    pub fn count(&self) -> u128 {
        match self {
            Expected::Set(s) => s.len() as u128,
            Expected::Slp(_, count) => *count,
        }
    }

    pub fn contains(&self, tuple: &SpanTuple) -> bool {
        match self {
            Expected::Set(s) => s.contains(tuple),
            Expected::Slp(s, _) => s.check(tuple).unwrap_or(false),
        }
    }

    /// A few members of the relation (model-check witnesses).
    pub fn sample(&self, n: usize) -> Vec<SpanTuple> {
        match self {
            Expected::Set(s) => {
                let mut all: Vec<_> = s.iter().cloned().collect();
                all.sort();
                all.truncate(n);
                all
            }
            Expected::Slp(s, _) => s.enumerate().take(n).collect(),
        }
    }

    pub fn verify(&self, got: &Got) -> bool {
        match got {
            Got::NonEmpty(v) => *v == (self.count() > 0),
            Got::Checked(tuple, v) => *v == self.contains(tuple),
            Got::Count(n) => *n == self.count(),
            Got::Window {
                skip,
                limit,
                tuples,
            } => {
                let want = (self.count().saturating_sub(*skip as u128)).min(*limit as u128);
                let distinct: HashSet<&SpanTuple> = tuples.iter().collect();
                tuples.len() as u128 == want
                    && distinct.len() == tuples.len()
                    && tuples.iter().all(|t| self.contains(t))
            }
        }
    }
}

/// Whether the answers on text `text` are in the seeded sample that is
/// checked, at a rate of one text in `every`.
pub fn sampled(seed: u64, text: usize, every: u64) -> bool {
    let h = spanner_slp_core::trace::splitmix64(
        seed ^ (text as u64).wrapping_mul(0xA24B_AED4_963E_E407),
    );
    h.is_multiple_of(every)
}

/// Checks the `answers` accepted by `keep` against `cache`, building a
/// missing pair's expectation once with `expect`.  Returns the numbers of
/// answers checked and wrong, printing the first few wrong ones.
pub fn check_all(
    answers: &[Answer],
    keep: impl Fn(&Answer) -> bool,
    cache: &mut HashMap<(usize, usize), Expected>,
    mut expect: impl FnMut(usize, usize) -> Expected,
) -> (u64, u64) {
    let mut wrong = 0u64;
    let mut checked = 0u64;
    for a in answers.iter().filter(|a| keep(a)) {
        checked += 1;
        let expected = cache
            .entry((a.query, a.text))
            .or_insert_with(|| expect(a.query, a.text));
        if !expected.verify(&a.got) {
            wrong += 1;
            if wrong <= 5 {
                eprintln!(
                    "servebench: WRONG answer for query {} text {}: {:?} (expected count {})",
                    a.query,
                    a.text,
                    a.got,
                    expected.count()
                );
            }
        }
    }
    (checked, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{power_text, AB_BLOCKS};

    #[test]
    fn both_oracles_agree_and_reject_wrong_answers() {
        let automaton = AB_BLOCKS.automaton();
        let text = power_text(40);
        let slp = NormalFormSlp::from_document(&text).unwrap();
        let set = Expected::baseline(&automaton, &text);
        let spanner = Expected::in_process(&automaton, &slp);
        assert_eq!(set.count(), 40);
        assert_eq!(spanner.count(), 40);
        let members = set.sample(5);
        for oracle in [&set, &spanner] {
            assert!(oracle.verify(&Got::Count(40)));
            assert!(!oracle.verify(&Got::Count(41)));
            assert!(oracle.verify(&Got::NonEmpty(true)));
            assert!(oracle.verify(&Got::Checked(members[0].clone(), true)));
            let window = |tuples: Vec<SpanTuple>| Got::Window {
                skip: 35,
                limit: 10,
                tuples,
            };
            assert!(oracle.verify(&window(members.clone())));
            // Short, duplicated or foreign windows are wrong.
            assert!(!oracle.verify(&window(members[..4].to_vec())));
            let mut dup = members.clone();
            dup[4] = dup[3].clone();
            assert!(!oracle.verify(&window(dup)));
        }
    }
}
