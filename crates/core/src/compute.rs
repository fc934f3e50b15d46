//! Computing the full relation `⟦M⟧(D)`, Theorem 7.1: time
//! `O(sort(|M|)·q² + size(S)·q⁴·size(⟦M⟧(D)))` in combined complexity,
//! `O(size(S)·|⟦M⟧(D)|)` in data complexity — or any `⪯`-prefix of it.
//!
//! The algorithm materialises the sets `M_A[i,j]` (Definition 6.2) only for
//! the triples `(A, i, j)` that can actually contribute to an accepting run
//! (the paper's condition (†), found by `NeededIndex`), recursively via
//! `M_A[i,j] = ⋃_{k ∈ I_A[i,j]} M_B[i,k] ⊗_{|D(B)|} M_C[k,j]`
//! (Lemma 6.8); an entry with `R_A[i,j] = ℮` is `{∅}` and is never split.
//! Sets are kept as `⪯`-sorted duplicate-free lists in one arena, located
//! by the entries' dense slots.  Each union over `k` is a
//! single k-way merge over the `⊗`-products *without materialising them*:
//! left halves only use positions `≤ |D(B)|` and right halves only later
//! ones, so `Λ ⊗ Λ' ⪯ Λ̃ ⊗ Λ̃'` compares `Λ` with `Λ̃` first and `Λ'` with
//! `Λ̃'` only on a tie (appendix D), and each product's nested-loop order is
//! already sorted.  Only the merge's outputs are composed.
//!
//! **Top-k.** [`compute_first`] keeps only the first `limit` elements of
//! every list.  That is exact: an element of `L ⊗ R` at left index `≥ k`
//! (or right index `≥ k`) has `k` smaller elements before it, so
//! `prefix_k(L ⊗ R) = prefix_k(prefix_k(L) ⊗ prefix_k(R))`, and likewise
//! `prefix_k(A ∪ B) = prefix_k(prefix_k(A) ∪ prefix_k(B))`.  For `N†`
//! needed entries the whole pass then materialises at most `N† · limit`
//! partial marker sets and makes `O(N† · q · limit)` comparisons —
//! independent of `|⟦M⟧(D)|`.
//!
//! With the `parallel` feature (default on) the materialisation runs
//! level-parallel over the grammar's depth strata — the same wave schedule
//! as the Lemma 6.5 matrix pass — producing values identical to the serial
//! bottom-up order.

use crate::error::EvalError;
use crate::matrices::Preprocessed;
use crate::needed::NeededIndex;
use crate::prepared::PreparedEvaluation;
use slp::NormalFormSlp;
use spanner::{PartialMarkerSet, SpanTuple, SpannerAutomaton};
use std::cmp::Ordering;

/// Computes `⟦M⟧(D)` for the document derived by the SLP (Theorem 7.1).
///
/// Non-deterministic automata are fine here (duplicates are eliminated by
/// the sorted-merge unions); ε-transitions are removed automatically.
pub fn compute_all(
    automaton: &SpannerAutomaton<u8>,
    document: &NormalFormSlp<u8>,
) -> Result<Vec<SpanTuple>, EvalError> {
    let prepared = PreparedEvaluation::new(automaton, document)?;
    Ok(compute_from_prepared(&prepared))
}

/// Computes `⟦M⟧(D)` from an existing [`PreparedEvaluation`].
pub fn compute_from_prepared(prepared: &PreparedEvaluation) -> Vec<SpanTuple> {
    compute_from_matrices(&prepared.pre)
}

/// Computes `⟦M⟧(D)` directly from the preprocessed matrices of a
/// (query, document) pair — the engine-facing entry point.  The tuples come
/// in the paper's `⪯`-order of their marker sets.
pub fn compute_from_matrices(pre: &Preprocessed) -> Vec<SpanTuple> {
    compute_first(pre, usize::MAX)
}

/// The first `limit` tuples of [`compute_from_matrices`]'s output, at cost
/// `O(N† · q · limit)` for `N†` needed entries instead of
/// `O(N† · |⟦M⟧(D)|)` (see the module docs for why truncating every
/// intermediate list is exact).
pub fn compute_first(pre: &Preprocessed, limit: usize) -> Vec<SpanTuple> {
    let needed = NeededIndex::build(pre);
    if needed.is_empty() || limit == 0 {
        return Vec::new();
    }
    let values = materialise(pre, &needed, limit);
    // ⟦M⟧(D) = ⋃_{j ∈ F'} M_{S₀}[q₀, j] (Lemma 6.3): the same merge, each
    // root list as a product with the unit `{∅}`.
    let unit = [PartialMarkerSet::empty()];
    let mut roots: Vec<Product> = pre
        .reachable_accepting()
        .into_iter()
        .filter_map(|j| needed.slot(pre.start_nt, pre.nfa_start, j))
        .map(|slot| Product {
            left: values.list(slot),
            right: &unit,
            l: 0,
            r: 0,
        })
        .collect();
    let mut sets = Vec::new();
    merge_products(&mut roots, 0, limit, &mut sets);
    sets.into_iter()
        .map(|markers| {
            SpanTuple::from_marker_set(&markers, pre.num_vars)
                .expect("accepted subword-marked words encode valid span-tuples")
        })
        .collect()
}

/// Materialises every needed `M_A[i,j]` (truncated to `limit`), bottom-up
/// in depth-strata waves: a depth-`d` rule reads only entries of strictly
/// shallower rules, so the rules of one stratum are independent.  With the
/// `parallel` feature a large enough stratum is mapped across cores; every
/// rule is still computed by [`materialise_rule`] from the same inputs, so
/// the values equal the serial order's.
fn materialise(pre: &Preprocessed, needed: &NeededIndex, limit: usize) -> Values {
    let max_depth = pre.depths.iter().copied().max().unwrap_or(0) as usize;
    let mut strata: Vec<Vec<u32>> = vec![Vec::new(); max_depth + 1];
    for &a in &pre.bottom_up {
        if needed.has_rule(a) {
            strata[pre.depths[a as usize] as usize].push(a);
        }
    }
    let mut values = Values {
        sets: Vec::new(),
        spans: vec![(0, 0); needed.len()],
    };
    for rules in strata.iter().filter(|s| !s.is_empty()) {
        let rule_values = |&a: &u32| materialise_rule(pre, needed, &values, a, limit);
        #[cfg(feature = "parallel")]
        let computed: Vec<RuleValues> = if rules.len() >= PHASE2_PAR_THRESHOLD {
            rayon::par_map(rules, rule_values)
        } else {
            // Small strata stay serial: spawning threads for a handful of
            // rules costs more than the rules themselves.
            rules.iter().map(rule_values).collect()
        };
        #[cfg(not(feature = "parallel"))]
        let computed: Vec<RuleValues> = rules.iter().map(rule_values).collect();
        for (&a, rule) in rules.iter().zip(computed) {
            #[cfg(test)]
            MATERIALISED.with(|m| m.set(m.get() + rule.sets.len()));
            let (base, mut from) = (values.sets.len(), 0);
            let slots = &mut values.spans[needed.rule_start(a)..];
            for (span, &end) in slots.iter_mut().zip(&rule.ends) {
                *span = (base + from, base + end);
                from = end;
            }
            values.sets.extend(rule.sets);
        }
    }
    values
}

/// Minimum number of rules in a stratum before the materialisation fans it
/// across cores: a rule's lists take about a microsecond, so below this the
/// thread handoff dominates the merge work.
#[cfg(feature = "parallel")]
const PHASE2_PAR_THRESHOLD: usize = 32;

#[cfg(test)]
thread_local! {
    /// Partial marker sets materialised into entry values on this thread —
    /// the time-free cost measure the top-k tests bound by `N† · limit`.
    static MATERIALISED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Every materialised list, concatenated: entry `slot`'s list is
/// `sets[spans[slot].0..spans[slot].1]` — one arena instead of a heap
/// list per entry.
struct Values {
    sets: Vec<PartialMarkerSet>,
    spans: Vec<(usize, usize)>,
}

impl Values {
    fn list(&self, slot: usize) -> &[PartialMarkerSet] {
        let (from, to) = self.spans[slot];
        &self.sets[from..to]
    }
}

/// One rule's lists in slot order: list `t` is `sets[ends[t-1]..ends[t]]`.
struct RuleValues {
    sets: Vec<PartialMarkerSet>,
    ends: Vec<usize>,
}

/// The needed `M_A[i,j]` of one rule, in slot order (Lemma 6.8), each
/// truncated to `limit`: leaves copy their precomputed table cell, inner
/// entries k-way merge the `⊗`-products over `I_A[i,j]`, reading only
/// values of strictly shallower rules.
fn materialise_rule(
    pre: &Preprocessed,
    needed: &NeededIndex,
    values: &Values,
    a: u32,
    limit: usize,
) -> RuleValues {
    let mut rule = RuleValues {
        sets: Vec::new(),
        ends: Vec::new(),
    };
    match pre.children[a as usize] {
        None => {
            for (i, j) in needed.entries(a) {
                let cell = pre.leaf_set(a, i, j);
                rule.sets.extend_from_slice(&cell[..cell.len().min(limit)]);
                rule.ends.push(rule.sets.len());
            }
        }
        Some((b, _)) => {
            let shift = pre.lengths[b as usize];
            let mut cursors: Vec<Product> = Vec::new();
            needed.for_each_split(pre, a, |_, splits| {
                let Some(splits) = splits else {
                    // `R_A[i,j] = ℮`: `M_A[i,j] = {∅}` (`limit ≥ 1` here).
                    rule.sets.push(PartialMarkerSet::empty());
                    rule.ends.push(rule.sets.len());
                    return;
                };
                cursors.clear();
                cursors.extend(splits.iter().map(|&(sb, sc)| Product {
                    left: values.list(sb),
                    right: values.list(sc),
                    l: 0,
                    r: 0,
                }));
                merge_products(&mut cursors, shift, limit, &mut rule.sets);
                rule.ends.push(rule.sets.len());
            });
        }
    }
    rule
}

/// A cursor over the nested-loop enumeration of `left ⊗ right`, which is
/// `⪯`-sorted and duplicate-free (appendix D, Lemma 6.9).
struct Product<'v> {
    left: &'v [PartialMarkerSet],
    right: &'v [PartialMarkerSet],
    l: usize,
    r: usize,
}

impl<'v> Product<'v> {
    /// The current element as its two halves.
    fn head(&self) -> (&'v PartialMarkerSet, &'v PartialMarkerSet) {
        (&self.left[self.l], &self.right[self.r])
    }

    /// Steps to the next element; `false` once exhausted.
    fn advance(&mut self) -> bool {
        self.r += 1;
        if self.r == self.right.len() {
            self.r = 0;
            self.l += 1;
        }
        self.l < self.left.len()
    }
}

/// `⪯` on two products' heads without composing them: the left halves
/// decide unless equal (Lemma 6.9 with the `⊗`-compatibility of `⪯`).
fn cmp_heads(
    (l1, r1): (&PartialMarkerSet, &PartialMarkerSet),
    (l2, r2): (&PartialMarkerSet, &PartialMarkerSet),
) -> Ordering {
    l1.cmp(l2).then_with(|| r1.cmp(r2))
}

/// Appends the first `limit` elements of `⋃ₖ (leftₖ ⊗_shift rightₖ)` to
/// `out`, sorted and duplicate-free: a k-way merge over the product
/// cursors that composes only the elements it outputs.
fn merge_products(
    cursors: &mut Vec<Product<'_>>,
    shift: u64,
    limit: usize,
    out: &mut Vec<PartialMarkerSet>,
) {
    cursors.retain(|p| !p.left.is_empty() && !p.right.is_empty());
    let end = out.len().saturating_add(limit);
    if let [only] = cursors.as_slice() {
        // One split: the product itself, in nested-loop order.
        'outer: for l in only.left {
            for r in only.right {
                if out.len() == end {
                    break 'outer;
                }
                out.push(l.compose(shift, r));
            }
        }
        return;
    }
    while out.len() < end && !cursors.is_empty() {
        let mut min = 0;
        for t in 1..cursors.len() {
            if cmp_heads(cursors[t].head(), cursors[min].head()) == Ordering::Less {
                min = t;
            }
        }
        let (l, r) = cursors[min].head();
        out.push(l.compose(shift, r));
        // Advance every cursor at this element, the minimum included (equal
        // heads are duplicates from different accepting runs of a
        // non-deterministic automaton).
        let mut t = 0;
        while t < cursors.len() {
            if cmp_heads(cursors[t].head(), (l, r)) == Ordering::Equal && !cursors[t].advance() {
                cursors.swap_remove(t);
            } else {
                t += 1;
            }
        }
    }
}

#[cfg(test)]
mod reference {
    //! The hashed full pass the (†) index replaced — per-rule `HashSet`s of
    //! needed entries, a `HashMap` of materialised values, eager `⊗`
    //! products and pairwise merges — kept as the oracle for the output
    //! *sequence* of [`super::compute_from_matrices`] and
    //! [`super::compute_first`].

    use crate::matrices::{Preprocessed, REntry};
    use spanner::{PartialMarkerSet, SpanTuple};
    use std::collections::{HashMap, HashSet};

    /// Computes `⟦M⟧(D)` from the matrices in the `⪯`-order.
    pub(super) fn compute_from_matrices(pre: &Preprocessed) -> Vec<SpanTuple> {
        let start_nt = pre.start_nt;
        let q0 = pre.nfa_start;
        let final_states = pre.reachable_accepting();
        if final_states.is_empty() {
            return Vec::new();
        }

        // Phase 1 (top-down): which entries (A, i, j) are needed?  Exactly the
        // triples satisfying the paper's condition (†), which is what bounds
        // |M_A[i,j]| by |⟦M⟧(D)| (Claim 2 in the proof of Theorem 7.1).
        let n = pre.children.len();
        let mut needed: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); n];
        for &j in &final_states {
            needed[start_nt as usize].insert((q0, j));
        }
        // Parents before children: reverse bottom-up order.
        for &a in pre.bottom_up.iter().rev() {
            if needed[a as usize].is_empty() {
                continue;
            }
            if let Some((b, c)) = pre.children[a as usize] {
                let entries: Vec<(usize, usize)> = needed[a as usize].iter().copied().collect();
                for (i, j) in entries {
                    for k in pre.i_set(a, i, j) {
                        needed[b as usize].insert((i, k));
                        needed[c as usize].insert((k, j));
                    }
                }
            }
        }

        // Phase 2 (bottom-up): materialise the needed sets as sorted lists;
        // `M_A[i,j]` reads only entries of the (earlier) children.
        let mut values: HashMap<(u32, usize, usize), Vec<PartialMarkerSet>> = HashMap::new();
        for &a in &pre.bottom_up {
            for &(i, j) in &needed[a as usize] {
                let value = materialise_entry(pre, &values, a, i, j);
                values.insert((a, i, j), value);
            }
        }

        // Phase 3: ⟦M⟧(D) = ⋃_{j ∈ F'} M_{S₀}[q₀, j]  (Lemma 6.3).
        let roots: Vec<Vec<PartialMarkerSet>> = final_states
            .iter()
            .map(|&j| values.remove(&(start_nt, q0, j)).unwrap_or_default())
            .collect();
        merge_sorted(roots)
            .into_iter()
            .map(|markers| {
                SpanTuple::from_marker_set(&markers, pre.num_vars)
                    .expect("accepted subword-marked words encode valid span-tuples")
            })
            .collect()
    }

    /// One `M_A[i,j]` materialisation (Lemma 6.8): leaves copy their
    /// precomputed table cell, `⊥` entries are empty, and inner entries merge
    /// the `⊗`-products over `I_A[i,j]`.
    fn materialise_entry(
        pre: &Preprocessed,
        values: &HashMap<(u32, usize, usize), Vec<PartialMarkerSet>>,
        a: u32,
        i: usize,
        j: usize,
    ) -> Vec<PartialMarkerSet> {
        match pre.children[a as usize] {
            None => pre.leaf_set(a, i, j).to_vec(),
            Some((b, c)) => {
                if pre.r_entry(a, i, j) == REntry::Bot {
                    return Vec::new();
                }
                let shift = pre.lengths[b as usize];
                let mut parts: Vec<Vec<PartialMarkerSet>> = Vec::new();
                for k in pre.i_set(a, i, j) {
                    let left = &values[&(b, i, k)];
                    let right = &values[&(c, k, j)];
                    parts.push(product(left, shift, right));
                }
                merge_sorted(parts)
            }
        }
    }

    /// `K^k_A[i,j] = M_B[i,k] ⊗_s M_C[k,j]` (Definition 6.7).  Both inputs are
    /// `⪯`-sorted; by the order's compatibility with `⊗` (appendix D) the output
    /// produced by the nested loops is sorted as well, and by Lemma 6.9 it has
    /// no duplicates.
    fn product(
        left: &[PartialMarkerSet],
        shift: u64,
        right: &[PartialMarkerSet],
    ) -> Vec<PartialMarkerSet> {
        let mut out = Vec::with_capacity(left.len() * right.len());
        for l in left {
            for r in right {
                out.push(l.compose(shift, r));
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
        out
    }

    /// Merges sorted duplicate-free lists into one sorted duplicate-free list
    /// (the paper's sorted-list unions).
    fn merge_sorted(mut parts: Vec<Vec<PartialMarkerSet>>) -> Vec<PartialMarkerSet> {
        match parts.len() {
            0 => Vec::new(),
            1 => parts.pop().expect("checked length"),
            _ => {
                // Simple repeated two-way merge; the number of parts is at most
                // q (or |F'|), so this stays within the stated bounds.
                let mut acc = parts.pop().expect("checked length");
                while let Some(next) = parts.pop() {
                    acc = merge_two(acc, next);
                }
                acc
            }
        }
    }

    fn merge_two(a: Vec<PartialMarkerSet>, b: Vec<PartialMarkerSet>) -> Vec<PartialMarkerSet> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let mut ia = a.into_iter().peekable();
        let mut ib = b.into_iter().peekable();
        loop {
            match (ia.peek(), ib.peek()) {
                (Some(x), Some(y)) => {
                    if x < y {
                        out.push(ia.next().expect("peeked"));
                    } else if y < x {
                        out.push(ib.next().expect("peeked"));
                    } else {
                        out.push(ia.next().expect("peeked"));
                        ib.next();
                    }
                }
                (Some(_), None) => out.push(ia.next().expect("peeked")),
                (None, Some(_)) => out.push(ib.next().expect("peeked")),
                (None, None) => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Service, Task, TaskRequest};
    use slp::compress::{Bisection, Chain, Compressor, Lz78, RePair};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::{reference, regex, Span, Variable};
    use std::collections::BTreeSet;

    fn compute_set(
        automaton: &SpannerAutomaton<u8>,
        doc: &[u8],
        compressor: &dyn Compressor,
    ) -> BTreeSet<SpanTuple> {
        let slp = compressor.compress(doc);
        compute_all(automaton, &slp).unwrap().into_iter().collect()
    }

    #[test]
    fn matches_reference_on_the_paper_example() {
        let m = figure_2_spanner();
        let doc = b"aabccaabaa";
        let expected = reference::evaluate(&m, doc);
        for compressor in [
            &Bisection as &dyn Compressor,
            &RePair::default(),
            &Lz78,
            &Chain,
        ] {
            assert_eq!(
                compute_set(&m, doc, compressor),
                expected,
                "compressor {}",
                compressor.name()
            );
        }
        // Sanity: the Example 8.2 tuple is among the results.
        let mut t = SpanTuple::empty(2);
        t.set(Variable(1), Span::new(4, 6).unwrap());
        assert!(expected.contains(&t));
    }

    #[test]
    fn matches_reference_on_assorted_documents_and_spanners() {
        let figure2 = figure_2_spanner();
        let blocks = regex::compile(".*x{a+}y{b+}.*", b"abc").unwrap();
        let optional = regex::compile("(x{a})?(b|c)*y{c}", b"abc").unwrap();
        let docs: Vec<&[u8]> = vec![b"a", b"c", b"ab", b"abc", b"aabbcc", b"cabcab", b"bca"];
        for (name, m) in [
            ("figure2", &figure2),
            ("blocks", &blocks),
            ("optional", &optional),
        ] {
            for doc in &docs {
                let expected = reference::evaluate(m, doc);
                let got = compute_set(m, doc, &Bisection);
                assert_eq!(got, expected, "spanner {name}, doc {:?}", doc);
            }
        }
    }

    #[test]
    fn computes_on_exponentially_compressed_documents() {
        // x spans each "ab" occurrence in (ab)^k: exactly k results, computed
        // from an SLP of size O(log k).
        let m = regex::compile(".*x{ab}.*", b"ab").unwrap();
        let k = 1u64 << 10;
        let slp = families::power_word(b"ab", k);
        let results = compute_all(&m, &slp).unwrap();
        assert_eq!(results.len(), k as usize);
        // Every result is an [2i+1, 2i+3⟩ span.
        let x = Variable(0);
        for t in &results {
            let s = t.get(x).unwrap();
            assert_eq!(s.len(), 2);
            assert_eq!(s.start % 2, 1);
        }
    }

    #[test]
    fn nondeterministic_automata_produce_no_duplicates() {
        // An intentionally ambiguous NFA: .*x{a.*}.* compiled without
        // determinisation has many accepting runs per tuple.
        let m = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        assert!(!m.is_deterministic());
        let doc = b"abab";
        let expected = reference::evaluate(&m, doc);
        let got = compute_all(&m, &Bisection.compress(doc)).unwrap();
        assert_eq!(got.len(), expected.len(), "duplicates or missing results");
        assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), expected);
    }

    #[test]
    fn compute_is_sequence_identical_to_the_hashed_reference() {
        let (mut merged, mut empty, mut boolean, mut wide_stratum) = (false, false, false, false);
        for (label, pre) in crate::needed::tests::reference_grid(true) {
            let want = super::reference::compute_from_matrices(&pre);
            assert_eq!(compute_from_matrices(&pre), want, "{label}");
            let n = want.len();
            for k in [0, 1, 2, 5, n.saturating_sub(1), n, n + 1] {
                assert_eq!(
                    compute_first(&pre, k),
                    want[..k.min(n)],
                    "{label}: first {k}"
                );
            }
            let needed = crate::needed::NeededIndex::build(&pre);
            let mut per_depth =
                vec![0usize; pre.depths.iter().max().map_or(1, |&d| d as usize + 1)];
            for (a, children) in pre.children.iter().enumerate() {
                if needed.has_rule(a as u32) {
                    per_depth[pre.depths[a] as usize] += 1;
                }
                if children.is_some() && needed.has_rule(a as u32) {
                    needed.for_each_split(&pre, a as u32, |_, splits| {
                        merged |= splits.is_some_and(|s| s.len() > 1);
                    });
                }
            }
            empty |= n == 0;
            boolean |= pre.num_vars == 0 && n == 1;
            wide_stratum |= per_depth.iter().any(|&rules| rules >= 32);
        }
        // A stratum of at least `PHASE2_PAR_THRESHOLD` rules runs as a
        // parallel wave under the `parallel` feature.
        assert!(wide_stratum, "no stratum wide enough for a parallel wave");
        assert!(merged, "no entry with several splits to merge");
        assert!(empty, "no empty relation");
        assert!(boolean, "no Boolean spanner");
    }

    #[test]
    fn top_k_answers_astronomically_large_relations() {
        // `.*x{a}.*y{b}.*` over (ab)^(2^30) has ~2^59 results; the first
        // five all lie within the first 16 symbols.
        let m = regex::compile(".*x{a}.*y{b}.*", b"ab").unwrap();
        let small = PreparedEvaluation::new(&m, &families::power_word(b"ab", 8)).unwrap();
        let want = super::reference::compute_from_matrices(&small.pre)[..5].to_vec();

        let service = Service::new();
        let query = service.add_query(&m);
        let huge_doc = families::power_word(b"ab", 1 << 30);
        let doc = service.add_document(&huge_doc);
        let got = service
            .run(&TaskRequest {
                query,
                doc,
                task: Task::Compute { limit: Some(5) },
            })
            .unwrap()
            .outcome
            .into_tuples()
            .unwrap();
        assert_eq!(got, want);

        // Top-k materialises at most `limit` partial marker sets per needed
        // entry, however large the relation.
        let huge = PreparedEvaluation::new(&m, &huge_doc).unwrap();
        let entries = crate::needed::NeededIndex::build(&huge.pre).len();
        for limit in [1, 5, 32] {
            let before = MATERIALISED.with(|m| m.get());
            assert_eq!(compute_first(&huge.pre, limit).len(), limit);
            let made = MATERIALISED.with(|m| m.get()) - before;
            assert!(
                made <= entries * limit,
                "limit {limit}: {made} sets materialised for {entries} needed entries"
            );
        }
    }

    #[test]
    fn empty_relation_yields_empty_vector() {
        let m = figure_2_spanner();
        let slp = Bisection.compress(b"cccc");
        assert!(compute_all(&m, &slp).unwrap().is_empty());
    }

    #[test]
    fn boolean_spanner_yields_the_empty_tuple() {
        let m = regex::compile("(a|b)*abb", b"ab").unwrap();
        let yes = Bisection.compress(b"aabb");
        let no = Bisection.compress(b"aab");
        assert_eq!(compute_all(&m, &yes).unwrap(), vec![SpanTuple::empty(0)]);
        assert!(compute_all(&m, &no).unwrap().is_empty());
    }
}
