//! The (†)-pruned entry set of Theorem 7.1 as a dense index — the shared
//! substrate of counting ([`crate::count`]) and computation
//! ([`crate::compute`]).
//!
//! An entry `(A, i, j)` satisfies the paper's condition (†) if it can
//! contribute to an accepting run: `(S₀, q₀, j)` for every reachable
//! accepting `j`, and, for a needed `(A, i, j)` of an inner rule `A → BC`,
//! `(B, i, k)` and `(C, k, j)` for every `k ∈ I_A[i,j]`.  Only these
//! entries are ever read by the Lemma 6.8 recursion or by the counting
//! recurrence, and each of them is non-`⊥`.
//!
//! The index prunes one step further, as the enumeration's `Ī_A` does
//! (Theorem 8.10): an entry with `R_A[i,j] = ℮` has `M_A[i,j] = {∅}` by
//! Definition 6.4, so it is needed but never split — the recursion stops
//! there, and the marker-free stretches of a document (most of a log
//! under an extraction query) cost one entry each instead of a subtree.
//!
//! [`NeededIndex::build`] finds these entries in one top-down pass over the
//! `R_A` bitplanes, word-parallel: for a needed row `i` of `A` with column
//! mask `N` restricted to `R_A[i,·] = 1`, every `k` of `R_B`'s `≠⊥` row `i`
//! whose `R_C` `≠⊥` row `k` meets `N` marks `(B, i, k)`, and ORs
//! `R_C[k,·] ∧ N` into `C`'s row `k`.  Each rule
//! with a needed entry gets `q` word-packed rows (`⌈q/64⌉` words each), and
//! a per-row rank (prefix popcount) maps every needed entry to a slot of a
//! dense value vector: a rule's entries occupy one contiguous slot range,
//! row-major.  The index is transient per request — at most one
//! `R`-bitplane of mask words plus one rank per row — and is never cached
//! beside the matrices.

use crate::matrices::Preprocessed;

/// Block sentinel for rules without a needed entry.
const NONE: u32 = u32::MAX;

/// The needed entries `(A, i, j)` of one preprocessed (query, document)
/// pair, with a dense slot per entry (see the module docs).
#[derive(Debug)]
pub(crate) struct NeededIndex {
    q: usize,
    /// Words per row, `⌈q/64⌉` (at least 1).
    words: usize,
    /// Per rule: its block of `q` rows, or [`NONE`]; row `i` of block `b`
    /// is row `b·q + i` of `mask` and `rank`.
    block: Vec<u32>,
    /// Bit `j` of rule `a`'s row `i`: `(a, i, j)` is needed.
    mask: Vec<u64>,
    /// Per block, `words` words: bit `i` set iff row `i` is non-empty.
    /// Rules hold a few entries out of `q²`, so every walk visits only
    /// occupied rows.
    occupied: Vec<u64>,
    /// Per row (plus one end sentinel): the slot of its first needed entry.
    rank: Vec<usize>,
}

impl NeededIndex {
    /// Marks the (†) entries top-down from `(S₀, q₀, F')` and ranks them.
    pub(crate) fn build(pre: &Preprocessed) -> Self {
        let q = pre.q;
        let words = q.div_ceil(64).max(1);
        let mut index = NeededIndex {
            q,
            words,
            block: vec![NONE; pre.children.len()],
            mask: Vec::new(),
            occupied: Vec::new(),
            rank: Vec::new(),
        };
        let roots = pre.reachable_accepting();
        if !roots.is_empty() {
            let root = index.row_mut(pre.start_nt, pre.nfa_start);
            for j in roots {
                root[j / 64] |= 1 << (j % 64);
            }
        }
        // Parents before children: reverse bottom-up order, so a rule's
        // needed rows are final before its own children are marked.
        let mut needed_row = vec![0u64; words];
        let mut rows = vec![0u64; words];
        let mut hit_b = vec![0u64; words];
        for &a in pre.bottom_up.iter().rev() {
            let Some((b, c)) = pre.children[a as usize] else {
                continue;
            };
            if index.block[a as usize] == NONE {
                continue;
            }
            let (rb, rc) = (
                pre.r[b as usize].nonbot_plane(),
                pre.r[c as usize].nonbot_plane(),
            );
            let nonempty = pre.r[a as usize].nonempty_plane();
            rows.copy_from_slice(index.occupied(a));
            for i in ones(&rows) {
                // Split only `1` entries: a `℮` entry's value is `{∅}`.
                for ((n, &m), &e) in needed_row
                    .iter_mut()
                    .zip(index.row(a, i))
                    .zip(nonempty.row_words(i))
                {
                    *n = m & e;
                }
                hit_b.fill(0);
                for k in ones(rb.row_words(i)) {
                    let rc_row = rc.row_words(k);
                    if rc_row.iter().zip(&needed_row).all(|(&r, &n)| r & n == 0) {
                        continue;
                    }
                    hit_b[k / 64] |= 1 << (k % 64);
                    let row_c = index.row_mut(c, k);
                    for ((w, &r), &n) in row_c.iter_mut().zip(rc_row).zip(&needed_row) {
                        *w |= r & n;
                    }
                }
                if hit_b.iter().any(|&w| w != 0) {
                    for (w, &h) in index.row_mut(b, i).iter_mut().zip(&hit_b) {
                        *w |= h;
                    }
                }
            }
        }
        index.rank.reserve_exact(index.mask.len() / words + 1);
        let mut slots = 0usize;
        for row in index.mask.chunks_exact(words) {
            index.rank.push(slots);
            slots += row.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
        index.rank.push(slots);
        index
    }

    /// Row `i` of rule `a`, allocating the rule's block on first use and
    /// marking the row occupied (callers set at least one bit in it).
    fn row_mut(&mut self, a: u32, i: usize) -> &mut [u64] {
        let (q, words) = (self.q, self.words);
        if self.block[a as usize] == NONE {
            self.block[a as usize] = (self.occupied.len() / words) as u32;
            self.mask.resize(self.mask.len() + q * words, 0);
            self.occupied.resize(self.occupied.len() + words, 0);
        }
        let block = self.block[a as usize] as usize;
        self.occupied[block * words + i / 64] |= 1 << (i % 64);
        let row = block * q + i;
        &mut self.mask[row * words..(row + 1) * words]
    }

    /// The occupied-row mask of rule `a` (empty if it has no needed entry).
    fn occupied(&self, a: u32) -> &[u64] {
        match self.block[a as usize] {
            NONE => &[],
            block => {
                let from = block as usize * self.words;
                &self.occupied[from..from + self.words]
            }
        }
    }

    /// Row index of rule `a`'s row `i`, if `a` has a block.
    #[inline]
    fn row_index(&self, a: u32, i: usize) -> Option<usize> {
        match self.block[a as usize] {
            NONE => None,
            block => Some(block as usize * self.q + i),
        }
    }

    /// The number of needed entries `N†` (the length of a value vector).
    pub(crate) fn len(&self) -> usize {
        self.rank.last().copied().unwrap_or(0)
    }

    /// `true` if no entry is needed: the relation is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if rule `a` has at least one needed entry.
    pub(crate) fn has_rule(&self, a: u32) -> bool {
        self.block[a as usize] != NONE
    }

    /// The first slot of rule `a`'s contiguous slot range (`a` must have
    /// needed entries).
    pub(crate) fn rule_start(&self, a: u32) -> usize {
        self.rank[self.block[a as usize] as usize * self.q]
    }

    /// Rule `a`'s needed-column mask of row `i` (empty if `a` has none).
    fn row(&self, a: u32, i: usize) -> &[u64] {
        match self.row_index(a, i) {
            None => &[],
            Some(row) => &self.mask[row * self.words..(row + 1) * self.words],
        }
    }

    /// The slot of `(a, i, j)`, or `None` if that entry is not needed.
    #[inline]
    pub(crate) fn slot(&self, a: u32, i: usize, j: usize) -> Option<usize> {
        let row = self.row_index(a, i)?;
        let words = &self.mask[row * self.words..(row + 1) * self.words];
        let (w, bit) = (j / 64, j % 64);
        if (words[w] >> bit) & 1 == 0 {
            return None;
        }
        let before: usize = words[..w].iter().map(|x| x.count_ones() as usize).sum();
        Some(self.rank[row] + before + (words[w] & ((1u64 << bit) - 1)).count_ones() as usize)
    }

    /// The needed entries `(i, j)` of rule `a`, in slot order (row-major);
    /// the first has slot [`NeededIndex::rule_start`].
    pub(crate) fn entries(&self, a: u32) -> impl Iterator<Item = (usize, usize)> + '_ {
        ones(self.occupied(a)).flat_map(move |i| ones(self.row(a, i)).map(move |j| (i, j)))
    }

    /// Walks the needed entries of the inner rule `a → bc` in slot order,
    /// handing `f` each entry's slot and its splits: `None` for an entry
    /// with `R_A[i,j] = ℮` (its value is `{∅}`), otherwise the slot pairs
    /// `(slot(b,i,k), slot(c,k,j))` for `k ∈ I_A[i,j]`, ascending in `k`.
    ///
    /// For a needed `1` entry `(a, i, j)`, `k ∈ I_A[i,j]` holds exactly
    /// when `(b, i, k)` and `(c, k, j)` are both needed (needed entries are
    /// non-`⊥`, and the build marks both halves of every split), so the
    /// splits come from `b`'s needed row `i`, whose slots run consecutively.
    pub(crate) fn for_each_split(
        &self,
        pre: &Preprocessed,
        a: u32,
        mut f: impl FnMut(usize, Option<&[(usize, usize)]>),
    ) {
        let (b, c) = pre.children[a as usize].expect("splits need an inner rule");
        let nonempty = pre.r[a as usize].nonempty_plane();
        let mut slot = self.rule_start(a);
        let mut left: Vec<(usize, usize)> = Vec::with_capacity(self.q);
        let mut splits: Vec<(usize, usize)> = Vec::with_capacity(self.q);
        for i in ones(self.occupied(a)) {
            left.clear();
            if let Some(row_b) = self.row_index(b, i) {
                let first = self.rank[row_b];
                left.extend(
                    ones(self.row(b, i))
                        .enumerate()
                        .map(|(t, k)| (k, first + t)),
                );
            }
            for j in ones(self.row(a, i)) {
                if nonempty.get(i, j) {
                    splits.clear();
                    splits.extend(
                        left.iter()
                            .filter_map(|&(k, sb)| self.slot(c, k, j).map(|sc| (sb, sc))),
                    );
                    f(slot, Some(&splits));
                } else {
                    f(slot, None);
                }
                slot += 1;
            }
        }
    }
}

/// The set bits of a word-packed row, ascending.
fn ones(words: &[u64]) -> Ones<'_> {
    Ones {
        words,
        w: 0,
        bits: words.first().copied().unwrap_or(0),
    }
}

/// Iterator of [`ones`].
struct Ones<'w> {
    words: &'w [u64],
    w: usize,
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.w += 1;
            self.bits = *self.words.get(self.w)?;
        }
        let t = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.w * 64 + t)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::PreparedQuery;
    use crate::matrices::REntry;
    use crate::prepared::{EByte, PreparedEvaluation};
    use slp::compress::{Bisection, Chain, Compressor, Lz78, RePair};
    use slp::{families, shard};
    use spanner::examples::figure_2_spanner;
    use spanner::{regex, SpannerAutomaton};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// The (label, matrices) grid that counting and computation are checked
    /// on against their full-pass references: figure 2 and regex spanners
    /// over every compressor, a non-deterministic automaton (only with
    /// `with_nfa`), scatter-gather matrices, Boolean and empty relations,
    /// and an automaton with `q > 64`, whose rows span several words.
    pub(crate) fn reference_grid(with_nfa: bool) -> Vec<(String, Arc<Preprocessed>)> {
        let compressors: [&dyn Compressor; 4] = [&Bisection, &RePair::default(), &Lz78, &Chain];
        let mut grid = Vec::new();
        let mut add = |label: String, m: &SpannerAutomaton<u8>, doc: &[u8]| {
            for compressor in compressors {
                let prepared = PreparedEvaluation::new(m, &compressor.compress(doc)).unwrap();
                grid.push((format!("{label} / {}", compressor.name()), prepared.pre));
            }
        };
        for doc in [&b"a"[..], b"aabccaabaa", b"abcabc", b"ccaab", b"cccc"] {
            add(format!("figure 2 on {doc:?}"), &figure_2_spanner(), doc);
        }
        let patterns: [(&str, &[u8]); 7] = [
            (".*x{a+}y{b+}.*", b"abc"),
            ("(x{a})?(b|c)*y{c}", b"abc"),
            (".*x{ab}.*", b"ab"),
            ("(a|b)*x{abb}(a|b)*", b"ab"),
            (".*x{(a|b)*}y{b*}.*", b"ab"),
            ("(a|b)*abb", b"ab"),
            ("(x{}|y{})(a|b)*(u{}|v{})b.*", b"ab"),
        ];
        for (pattern, alphabet) in patterns {
            let m = regex::compile_deterministic(pattern, alphabet).unwrap();
            for doc in [
                &b"aabbc"[..],
                b"cabab",
                b"abbabb",
                b"ccc",
                b"abbaabbbabaabab",
            ] {
                add(format!("{pattern} on {doc:?}"), &m, doc);
            }
        }
        if with_nfa {
            let nfa = regex::compile(".*x{a}(.*|b*)", b"ab").unwrap();
            assert!(!nfa.is_deterministic());
            for doc in [&b"abab"[..], b"aab", b"bbab"] {
                add(format!("nfa on {doc:?}"), &nfa, doc);
            }
        }
        // q > 64: a 70-symbol literal under a free second span.
        let literal = "ab".repeat(35);
        let wide =
            regex::compile_deterministic(&format!(".*x{{{literal}}}y{{.*}}"), b"ab").unwrap();
        add("q > 64".into(), &wide, "ab".repeat(38).as_bytes());
        // Wide strata: a pseudo-random text gives RePair many rules per
        // depth, enough for parallel waves.
        let mut x = 0x2545_f491_u64;
        let text: Vec<u8> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b"abc"[(x % 3) as usize]
            })
            .collect();
        let blocks = regex::compile_deterministic(".*x{a+}y{b+}.*", b"abc").unwrap();
        let prepared =
            PreparedEvaluation::new(&blocks, &RePair::default().compress(&text)).unwrap();
        grid.push(("wide strata / RePair".into(), prepared.pre));
        let query = PreparedQuery::determinized(&regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap());
        for k in [2usize, 4] {
            let (combined, layout) = shard::split(&families::power_word(b"ab", 24), k).compose();
            let ended = combined
                .map_terminals(EByte::Byte)
                .append_terminal(EByte::End);
            let (pre, _) =
                Preprocessed::build_sharded(query.nfa(), &ended, query.num_vars(), &layout);
            grid.push((format!("sharded k={k}"), Arc::new(pre)));
        }
        grid
    }

    /// Condition (†) by its definition, entry by entry — the phase 1 of the
    /// hashed computation pass the index replaced — except that `℮`
    /// entries are not split.
    fn needed_by_definition(pre: &Preprocessed) -> BTreeSet<(u32, usize, usize)> {
        let mut needed: BTreeSet<(u32, usize, usize)> = pre
            .reachable_accepting()
            .into_iter()
            .map(|j| (pre.start_nt, pre.nfa_start, j))
            .collect();
        for &a in pre.bottom_up.iter().rev() {
            let Some((b, c)) = pre.children[a as usize] else {
                continue;
            };
            let entries: Vec<(usize, usize)> = needed
                .range((a, 0, 0)..=(a, usize::MAX, usize::MAX))
                .map(|&(_, i, j)| (i, j))
                .collect();
            for (i, j) in entries {
                if pre.r_entry(a, i, j) == REntry::Empty {
                    continue;
                }
                for k in pre.i_set(a, i, j) {
                    needed.insert((b, i, k));
                    needed.insert((c, k, j));
                }
            }
        }
        needed
    }

    #[test]
    fn index_holds_exactly_the_dagger_entries_with_dense_slots() {
        let mut wide = false;
        for (label, pre) in reference_grid(true) {
            let index = NeededIndex::build(&pre);
            let want = needed_by_definition(&pre);
            let mut slots = vec![false; index.len()];
            let mut got = BTreeSet::new();
            for a in 0..pre.children.len() as u32 {
                if !index.has_rule(a) {
                    continue;
                }
                for (t, (i, j)) in index.entries(a).enumerate() {
                    let slot = index.slot(a, i, j).expect("listed entries are needed");
                    assert_eq!(slot, index.rule_start(a) + t, "{label}: slot order");
                    assert!(
                        !std::mem::replace(&mut slots[slot], true),
                        "{label}: slot reused"
                    );
                    assert_ne!(pre.r_entry(a, i, j), REntry::Bot, "{label}: ⊥ entry needed");
                    got.insert((a, i, j));
                }
            }
            assert_eq!(got, want, "{label}");
            assert!(slots.iter().all(|&s| s), "{label}: slots not dense");
            wide |= pre.q > 64 && got.iter().any(|&(_, _, j)| j >= 64);
        }
        assert!(wide, "no needed entry beyond the first row word");
    }
}
