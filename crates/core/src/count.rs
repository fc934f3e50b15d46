//! Counting `|⟦M⟧(D)|` **without enumerating**, in time `O(size(S)·q³)`.
//!
//! This is a natural extension of the paper's toolbox (it is not spelled
//! out in the paper, but follows directly from its Section 6 machinery):
//! by Lemma 6.9 the composition `M_B[i,k] ⊗ M_C[k,j]` is duplicate-free, so
//! `|K^k_A[i,j]| = |M_B[i,k]| · |M_C[k,j]|`, and for a *deterministic*
//! automaton the sets `K^k_A[i,j]` for different `k` and the sets
//! `M_{S₀}[q₀, j]` for different accepting `j` are pairwise disjoint
//! (Lemma 8.7).  Hence the cardinalities satisfy the recurrence
//!
//! ```text
//! cnt_A[i,j] = Σ_{k ∈ I_A[i,j]}  cnt_B[i,k] · cnt_C[k,j]
//! |⟦M⟧(D)|   = Σ_{j ∈ F'}        cnt_{S₀}[q₀, j]
//! ```
//!
//! which is a single bottom-up pass over the SLP — the result count of a
//! document with 2⁴⁰ symbols is obtained in microseconds.  Counts are
//! returned as `u128` (they can be astronomically large: up to
//! `(d²/2 + 2)^|X|`).
//!
//! The root reads only the entries satisfying the paper's condition (†),
//! so the pass runs over exactly those (`NeededIndex`), with each count
//! in one dense vector slot: `cnt_A[i,j] = 1` for an `R_A[i,j] = ℮` entry,
//! whose subtree is never visited, and the splits `k ∈ I_A[i,j]` of a `1`
//! entry come from `B`'s needed row `i`.  That is `O(N†·q)` work for `N†`
//! needed entries after the index pass — instead of `O(size(S)·q³)` over
//! every entry.  On a RePair-compressed 425-line log (seed 31) under
//! `log_error_value` (q = 11) the grammar has 29 123 non-`⊥` entries,
//! 6 203 of them (†), and 1 677 once `℮` entries end the recursion.

use crate::error::EvalError;
use crate::matrices::Preprocessed;
use crate::needed::NeededIndex;
use crate::prepared::PreparedEvaluation;
use slp::NormalFormSlp;
use spanner::SpannerAutomaton;

/// Counts `|⟦M⟧(D)|` in `O(|M| + size(S)·q³)` without enumerating (the
/// matrix build dominates; the count itself is `O(N†·q)`, see the module
/// docs).
///
/// Requires a deterministic automaton (otherwise different accepting runs of
/// the same result would be counted multiple times); non-deterministic
/// automata are rejected with [`EvalError::NondeterministicAutomaton`] —
/// determinise first, exactly as for enumeration.
pub fn count_results(
    automaton: &SpannerAutomaton<u8>,
    document: &NormalFormSlp<u8>,
) -> Result<u128, EvalError> {
    let prepared = PreparedEvaluation::new(automaton, document)?;
    if !prepared.deterministic() {
        return Err(EvalError::NondeterministicAutomaton);
    }
    Ok(count_from_prepared(&prepared))
}

/// Counts `|⟦M⟧(D)|` from an existing (deterministic) prepared evaluation.
pub fn count_from_prepared(prepared: &PreparedEvaluation) -> u128 {
    count_from_matrices(&prepared.pre)
}

/// Counts `|⟦M⟧(D)|` directly from the preprocessed matrices of a
/// (query, document) pair — the engine-facing entry point.  The matrices
/// must have been built from a deterministic automaton for the count to be
/// duplicate-free.
///
/// The recurrence runs over the (†) entries only (`NeededIndex`), in
/// bottom-up rule order; an empty relation returns 0 as soon as the index
/// is built.
pub fn count_from_matrices(pre: &Preprocessed) -> u128 {
    let needed = NeededIndex::build(pre);
    if needed.is_empty() {
        return 0;
    }
    // cnt[slot(A, i, j)] = |M_A[i, j]|.
    let mut cnt = vec![0u128; needed.len()];
    for &a in &pre.bottom_up {
        if !needed.has_rule(a) {
            continue;
        }
        match pre.children[a as usize] {
            None => {
                let start = needed.rule_start(a);
                for (t, (i, j)) in needed.entries(a).enumerate() {
                    cnt[start + t] = pre.leaf_set(a, i, j).len() as u128;
                }
            }
            Some(_) => needed.for_each_split(pre, a, |slot, splits| {
                cnt[slot] = match splits {
                    // `R_A[i,j] = ℮`: `M_A[i,j] = {∅}`.
                    None => 1,
                    Some(splits) => splits.iter().map(|&(sb, sc)| cnt[sb] * cnt[sc]).sum(),
                };
            }),
        }
    }
    pre.reachable_accepting()
        .into_iter()
        .filter_map(|j| needed.slot(pre.start_nt, pre.nfa_start, j))
        .map(|slot| cnt[slot])
        .sum()
}

#[cfg(test)]
mod reference {
    //! The full pass the (†) index replaced — every non-`⊥` entry of every
    //! rule, with a `q`-wide `k` loop — kept as the oracle for
    //! [`super::count_from_matrices`].

    use crate::matrices::{Preprocessed, REntry};

    /// Counts `|⟦M⟧(D)|` over every entry of every rule.
    pub(super) fn count_from_matrices(pre: &Preprocessed) -> u128 {
        let q = pre.q;
        let n = pre.children.len();
        // cnt[a][i*q + j] = |M_A[i, j]|, computed bottom-up for every entry
        // (an O(size(S)·q³) pass, mirroring the R_A computation of Lemma 6.5).
        let mut cnt: Vec<Vec<u128>> = vec![Vec::new(); n];
        for &a in &pre.bottom_up {
            let mut table = vec![0u128; q * q];
            match pre.children[a as usize] {
                None => {
                    for i in 0..q {
                        for j in 0..q {
                            table[i * q + j] = pre.leaf_set(a, i, j).len() as u128;
                        }
                    }
                }
                Some((b, c)) => {
                    let cb = &cnt[b as usize];
                    let cc = &cnt[c as usize];
                    for i in 0..q {
                        for j in 0..q {
                            if pre.r_entry(a, i, j) == REntry::Bot {
                                continue;
                            }
                            let mut total = 0u128;
                            for k in 0..q {
                                let left = cb[i * q + k];
                                if left == 0 {
                                    continue;
                                }
                                let right = cc[k * q + j];
                                total += left * right;
                            }
                            table[i * q + j] = total;
                        }
                    }
                }
            }
            cnt[a as usize] = table;
        }
        let root = &cnt[pre.start_nt as usize];
        pre.reachable_accepting()
            .into_iter()
            .map(|j| root[pre.nfa_start * q + j])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::compress::{Bisection, Compressor};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::{reference, regex};

    #[test]
    fn matches_reference_counts_on_small_documents() {
        let m = figure_2_spanner();
        for doc in [&b"aabccaabaa"[..], b"ca", b"cccc", b"ababab", b"cabc"] {
            let slp = Bisection.compress(doc);
            let expected = reference::evaluate(&m, doc).len() as u128;
            assert_eq!(count_results(&m, &slp).unwrap(), expected, "doc {:?}", doc);
        }
    }

    #[test]
    fn matches_enumeration_on_regex_spanners() {
        let m = regex::compile_deterministic(".*x{a+}y{b+}.*", b"ab").unwrap();
        let doc = b"aabbaabbab";
        let slp = Bisection.compress(doc);
        let enumerated = crate::enumerate::Enumerator::new(&m, &slp)
            .unwrap()
            .iter()
            .count() as u128;
        assert_eq!(count_results(&m, &slp).unwrap(), enumerated);
    }

    #[test]
    fn counts_astronomically_large_relations() {
        // (ab)^(2^30): exactly 2^30 results for the ab-block query, counted
        // from a ~100-rule SLP without enumerating a single one.
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let slp = families::power_word(b"ab", 1 << 30);
        assert_eq!(count_results(&m, &slp).unwrap(), 1 << 30);
        // And the unary spanner x{a} over a^(2^40) has 2^40 results.
        let m = regex::compile_deterministic(".*x{a}.*", b"a").unwrap();
        let slp = families::power_of_two_unary(b'a', 40);
        assert_eq!(count_results(&m, &slp).unwrap(), 1u128 << 40);
    }

    #[test]
    fn count_equals_the_full_pass_on_the_reference_grid() {
        let mut large = false;
        for (label, pre) in crate::needed::tests::reference_grid(false) {
            let want = super::reference::count_from_matrices(&pre);
            assert_eq!(count_from_matrices(&pre), want, "{label}");
            large |= want > 100;
        }
        assert!(large, "no relation with more than 100 results");
    }

    #[test]
    fn empty_relations_count_zero() {
        let m = figure_2_spanner();
        let slp = Bisection.compress(b"cccc");
        assert_eq!(count_results(&m, &slp).unwrap(), 0);
    }

    #[test]
    fn nondeterministic_automata_are_rejected() {
        let m = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        assert!(!m.is_deterministic());
        let slp = Bisection.compress(b"abab");
        assert!(matches!(
            count_results(&m, &slp),
            Err(EvalError::NondeterministicAutomaton)
        ));
    }
}
