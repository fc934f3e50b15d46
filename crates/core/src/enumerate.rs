//! Enumerating `⟦M⟧(D)` with logarithmic delay, Theorem 8.10:
//! preprocessing `O(|M| + size(S)·q³)`, delay `O(depth(S)·|X|)` — i.e.
//! `O(|X|·log d)` once the SLP is balanced (Theorem 4.3).
//!
//! The algorithm enumerates `(M,S)`-trees (Section 8): small ordered binary
//! trees (at most `4·|X|·depth(S)` nodes, Lemma 8.4) that describe *which*
//! intermediate automaton states an accepting run passes through at the
//! boundaries of the SLP's non-terminals.  The partial marker sets in a
//! tree's *yield* (Definition 8.1) are read off by combining the
//! precomputed leaf tables `M_{T_x}` with the position shifts stored on the
//! tree's right-child arcs (Lemma 8.5).  For deterministic automata the
//! yields of distinct trees are disjoint (Lemma 8.8), so the enumeration is
//! duplicate-free.
//!
//! # The tree odometer
//!
//! Algorithm 1 (`EnumAll`) is a recursion of nested loops.  For a node
//! `A⟨i▷k▷j⟩` with `A → BC` it loops over `k_B ∈ Ī_B[i,k]`, inside that
//! over `k_C ∈ Ī_C[k,j]`, inside that over the trees of the left child
//! `B⟨i▷k_B▷k⟩`, and innermost over the trees of the right child
//! `C⟨k▷k_C▷j⟩`.  Flattened, a tree is a string of digits — the
//! `(k_B, k_C)` pair of every inner node, in pre-order — and the loops
//! count through those strings like an odometer whose last digit turns
//! fastest; the range of each digit depends only on the digits before it.
//!
//! [`Enumeration`] runs that odometer directly, without recursion:
//!
//! * the current tree is a pre-order `Vec` of frames, one per node
//!   `A⟨i▷k▷j⟩`, holding the chosen `(k_B, k_C)`, the parent frame, the
//!   side it hangs on and its document offset;
//! * `Ī` entries are found on the fly by scanning `k` for
//!   `R_B[i,k] ≠ ⊥ ∧ R_C[k,j] ≠ ⊥`, one bit probe each, without allocating;
//! * the next tree comes from scanning the frames backwards for the last
//!   one whose pair can advance (`k_C` first, then `k_B` with `k_C`
//!   reset), dropping the frames after it, and rebuilding the dropped part
//!   — its two subtrees, then the right siblings of its left-side
//!   ancestors — in pre-order with first choices.
//!
//! An advance therefore scans one tree and rebuilds at most one tree:
//! `O(|X|·depth(S))` frames (Lemma 8.4), each settled by an `O(q)` scan,
//! with no heap allocation once the buffers have grown to the largest tree.
//!
//! The output order is exactly the loop order of Algorithm 1: for each
//! `j ∈ F'` (in [`Preprocessed::reachable_accepting`] order) and each
//! `k ∈ Ī_{S₀}[q₀,j]` in increasing order, the trees of
//! `S₀⟨q₀▷k▷j⟩` in odometer order, and within a tree its yield with the
//! last leaf's list turning fastest.  The order is part of the contract:
//! paged `skip` windows over the wire rely on it being stable.
//!
//! # Skipping
//!
//! The yield of a tree is a second odometer over the leaf lists
//! `M_{T_x}[i,j]`.  [`Iterator::nth`] (and with it `skip`) moves it
//! arithmetically: whole trees are passed by the product of their list
//! lengths and a position inside a yield is set in mixed radix, so skipped
//! results build no [`SpanTuple`].

use crate::error::EvalError;
use crate::matrices::{Preprocessed, REntry};
use crate::prepared::PreparedEvaluation;
use slp::NormalFormSlp;
use spanner::{PartialMarkerSet, SpanTuple, SpannerAutomaton};

/// An enumerator for `⟦M⟧(D)` over an SLP-compressed document.
///
/// Construction runs the preprocessing once; [`Enumerator::iter`] then
/// starts an enumeration with `O(depth(S)·|X|)` delay per result.
#[derive(Debug)]
pub struct Enumerator {
    prepared: PreparedEvaluation,
}

impl Enumerator {
    /// Prepares the enumeration of `⟦M⟧(D)` (Theorem 8.10).
    ///
    /// Fails with [`EvalError::NondeterministicAutomaton`] if the automaton
    /// is not deterministic: determinism is what guarantees a duplicate-free
    /// enumeration (Lemma 8.8).  Either call
    /// [`SpannerAutomaton::determinized`] first or opt into duplicates with
    /// [`Enumerator::new_allow_duplicates`].
    pub fn new(
        automaton: &SpannerAutomaton<u8>,
        document: &NormalFormSlp<u8>,
    ) -> Result<Self, EvalError> {
        let prepared = PreparedEvaluation::new(automaton, document)?;
        if !prepared.deterministic() {
            return Err(EvalError::NondeterministicAutomaton);
        }
        Ok(Enumerator { prepared })
    }

    /// Prepares an enumeration for a possibly non-deterministic automaton.
    /// The same set `⟦M⟧(D)` is enumerated with the same delay bounds, but
    /// individual results may appear more than once (final remark of
    /// Section 8 in the paper).
    pub fn new_allow_duplicates(
        automaton: &SpannerAutomaton<u8>,
        document: &NormalFormSlp<u8>,
    ) -> Result<Self, EvalError> {
        let prepared = PreparedEvaluation::new(automaton, document)?;
        Ok(Enumerator { prepared })
    }

    /// Wraps an existing prepared evaluation.
    pub fn from_prepared(prepared: PreparedEvaluation) -> Self {
        Enumerator { prepared }
    }

    /// The prepared evaluation backing this enumerator.
    pub fn prepared(&self) -> &PreparedEvaluation {
        &self.prepared
    }

    /// Starts an enumeration of `⟦M⟧(D)`.
    pub fn iter(&self) -> Enumeration<'_> {
        Enumeration::from_prepared(&self.prepared)
    }
}

/// The `base` element of `Ī`: the node is a leaf of its tree.
const BASE: usize = usize::MAX;

/// One node `A⟨i▷k▷j⟩` of the current `(M,S₀)`-tree (`k = BASE` for a
/// leaf).  Pending nodes — pushed but not yet expanded — carry no choices.
#[derive(Debug, Clone, Copy)]
struct Frame {
    a: u32,
    i: usize,
    k: usize,
    j: usize,
    /// For an inner node `A → BC`: the chosen `k_B ∈ Ī_B[i,k]` and
    /// `k_C ∈ Ī_C[k,j]`, i.e. the `k` of its left and right child.
    kb: usize,
    kc: usize,
    /// The parent frame (`None` at the root) and whether this node is its
    /// right child.
    parent: Option<usize>,
    right: bool,
    /// Offset of `D(A)` in the document: the sum of the arc labels `|D(B)|`
    /// on the right-child arcs from the root (Lemma 8.5).
    shift: u64,
}

/// A terminal leaf `T_x⟨i▷j, 1⟩` of the current tree: its list
/// `M_{T_x}[i,j]` and the shift of its marker positions.
#[derive(Debug)]
struct Leaf<'a> {
    frame: usize,
    shift: u64,
    list: &'a [PartialMarkerSet],
}

/// Where the enumeration stands relative to the result under the odometers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// The result under the odometers has not been returned yet.
    Ready,
    /// It has; the next call advances first.
    Returned,
    /// No result is left.
    Exhausted,
}

/// The lazily evaluated enumeration of `⟦M⟧(D)`, as a tree odometer (see
/// the [module docs](self)): `O(|X|·depth(S)·q)` work per result, no
/// recursion, and no heap allocation beyond the returned tuple once the
/// buffers are warm.  The order is Algorithm 1's loop order.
pub struct Enumeration<'a> {
    pre: &'a Preprocessed,
    /// `F'`, and the index of the current tree's accepting state in it.
    finals: Vec<usize>,
    final_idx: usize,
    /// The current `(M,S₀)`-tree in pre-order.
    frames: Vec<Frame>,
    /// Nodes still to expand, as a pre-order work stack.
    pending: Vec<Frame>,
    /// The current tree's terminal leaves, left to right, and the yield
    /// odometer over their lists (the last leaf turns fastest).
    leaves: Vec<Leaf<'a>>,
    digits: Vec<usize>,
    state: State,
    /// Frames scanned or (re)built so far: the work behind the delay.
    #[cfg(test)]
    frames_touched: usize,
}

impl<'a> Enumeration<'a> {
    /// Starts an enumeration from a prepared evaluation.
    pub fn from_prepared(prepared: &'a PreparedEvaluation) -> Self {
        Self::from_matrices(&prepared.pre)
    }

    /// Starts an enumeration directly from the preprocessed matrices of a
    /// (query, document) pair — the engine-facing entry point.
    pub fn from_matrices(pre: &'a Preprocessed) -> Self {
        let finals = pre.reachable_accepting();
        let mut e = Enumeration {
            pre,
            finals,
            final_idx: 0,
            frames: Vec::new(),
            pending: Vec::new(),
            leaves: Vec::new(),
            digits: Vec::new(),
            state: State::Exhausted,
            #[cfg(test)]
            frames_touched: 0,
        };
        if let Some(&j) = e.finals.first() {
            e.plant(first_choice(pre, pre.start_nt, pre.nfa_start, j));
            e.state = State::Ready;
        }
        e
    }

    /// Replaces the tree by the first tree with root `S₀⟨q₀▷k▷j⟩`, `j` the
    /// current accepting state.
    fn plant(&mut self, k: usize) {
        self.frames.clear();
        self.leaves.clear();
        self.pending.push(Frame {
            a: self.pre.start_nt,
            i: self.pre.nfa_start,
            k,
            j: self.finals[self.final_idx],
            kb: BASE,
            kc: BASE,
            parent: None,
            right: false,
            shift: 0,
        });
        self.expand();
    }

    /// The (unexpanded) right or left child of inner frame `f`.
    fn child(&self, f: usize, right: bool) -> Frame {
        let p = self.frames[f];
        let (b, c) = self.pre.children[p.a as usize].expect("inner frames have children");
        let (a, i, k, j, shift) = if right {
            (c, p.k, p.kc, p.j, p.shift + self.pre.lengths[b as usize])
        } else {
            (b, p.i, p.kb, p.k, p.shift)
        };
        Frame {
            a,
            i,
            k,
            j,
            kb: BASE,
            kc: BASE,
            parent: Some(f),
            right,
            shift,
        }
    }

    /// Pushes the children of frame `f` so that they expand in pre-order.
    fn push_children(&mut self, f: usize) {
        let (right, left) = (self.child(f, true), self.child(f, false));
        self.pending.extend([right, left]);
    }

    /// Expands the pending nodes in pre-order, giving every inner node its
    /// first choices.
    fn expand(&mut self) {
        let pre = self.pre;
        while let Some(mut node) = self.pending.pop() {
            #[cfg(test)]
            {
                self.frames_touched += 1;
            }
            let f = self.frames.len();
            if node.k == BASE {
                // Base cases: R_A[i,j] = ℮ (yield {∅}), or a leaf
                // non-terminal with R = 1 (yield M_{T_x}[i,j]).
                if pre.r_entry(node.a, node.i, node.j) != REntry::Empty {
                    self.leaves.push(Leaf {
                        frame: f,
                        shift: node.shift,
                        list: pre.leaf_set(node.a, node.i, node.j),
                    });
                }
                self.frames.push(node);
            } else {
                let (b, c) = pre.children[node.a as usize].expect("k ≠ base implies an inner node");
                node.kb = first_choice(pre, b, node.i, node.k);
                node.kc = first_choice(pre, c, node.k, node.j);
                self.frames.push(node);
                self.push_children(f);
            }
        }
        self.digits.clear();
        self.digits.resize(self.leaves.len(), 0);
    }

    /// Turns frame `f`'s `(k_B, k_C)` pair one step, `k_C` fastest;
    /// `false` if it already holds its last value.
    fn turn(&mut self, f: usize) -> bool {
        let pre = self.pre;
        let Frame {
            a, i, k, j, kb, kc, ..
        } = self.frames[f];
        let Some((b, c)) = pre.children[a as usize].filter(|_| k != BASE) else {
            return false;
        };
        if let Some(next) = next_choice(pre, c, k, j, kc) {
            self.frames[f].kc = next;
        } else if let Some(next) = next_choice(pre, b, i, k, kb) {
            self.frames[f].kb = next;
            self.frames[f].kc = first_choice(pre, c, k, j);
        } else {
            return false;
        }
        true
    }

    /// Moves to the next tree; `false` after the last one.
    fn next_tree(&mut self) -> bool {
        let Some(f) = (0..self.frames.len()).rev().find(|&f| {
            #[cfg(test)]
            {
                self.frames_touched += 1;
            }
            self.turn(f)
        }) else {
            return self.next_root();
        };
        self.frames.truncate(f + 1);
        while self.leaves.last().is_some_and(|leaf| leaf.frame > f) {
            self.leaves.pop();
        }
        // In pre-order, the subtrees of `f` come first, then the right
        // siblings of its left-side ancestors, innermost first.
        let mut node = f;
        while let Some(parent) = self.frames[node].parent {
            if !self.frames[node].right {
                let sibling = self.child(parent, true);
                self.pending.push(sibling);
            }
            node = parent;
        }
        self.pending.reverse();
        self.push_children(f);
        self.expand();
        true
    }

    /// Moves the root digits: the next `k ∈ Ī_{S₀}[q₀,j]`, else the next
    /// `j ∈ F'`; `false` after the last tree of the last root.
    fn next_root(&mut self) -> bool {
        let (pre, root) = (self.pre, self.frames[0]);
        let k = match next_choice(pre, root.a, root.i, root.j, root.k) {
            Some(k) => k,
            None => {
                self.final_idx += 1;
                let Some(&j) = self.finals.get(self.final_idx) else {
                    return false;
                };
                first_choice(pre, root.a, root.i, j)
            }
        };
        self.plant(k);
        true
    }

    /// Turns the yield odometer one step, and on wrap-around moves to the
    /// next tree; `false` after the last result.
    fn step(&mut self) -> bool {
        for (digit, leaf) in self.digits.iter_mut().zip(&self.leaves).rev() {
            *digit += 1;
            if *digit < leaf.list.len() {
                return true;
            }
            *digit = 0;
        }
        self.next_tree()
    }

    /// The results from the current one to the end of the current tree's
    /// yield, inclusive (saturating).
    fn left_in_yield(&self) -> u128 {
        let (mut left, mut weight) = (1u128, 1u128);
        for (&digit, leaf) in self.digits.iter().zip(&self.leaves).rev() {
            let len = leaf.list.len() as u128;
            left = left.saturating_add(weight.saturating_mul(len - 1 - digit as u128));
            weight = weight.saturating_mul(len);
        }
        left
    }

    /// Positions the odometers on the `n`-th unreturned result; `false` if
    /// there is none.
    fn seek(&mut self, mut n: usize) -> bool {
        let fresh = match self.state {
            State::Exhausted => false,
            State::Returned => self.step(),
            State::Ready => true,
        };
        if !fresh {
            return false;
        }
        while n > 0 {
            let left = self.left_in_yield();
            if (n as u128) < left {
                // Add `n` to the yield odometer in mixed radix; it stays
                // inside this tree.
                let mut carry = n as u128;
                for (digit, leaf) in self.digits.iter_mut().zip(&self.leaves).rev() {
                    let len = leaf.list.len() as u128;
                    let sum = *digit as u128 + carry;
                    *digit = (sum % len) as usize;
                    carry = sum / len;
                }
                debug_assert_eq!(carry, 0);
                return true;
            }
            n -= left as usize;
            if !self.next_tree() {
                return false;
            }
        }
        true
    }

    /// The result under the odometers.
    fn current(&self) -> SpanTuple {
        // Leaves are in document order, so the shifted entries arrive
        // position-sorted.
        let markers =
            PartialMarkerSet::from_entries(self.leaves.iter().zip(&self.digits).flat_map(
                |(leaf, &digit)| {
                    leaf.list[digit]
                        .entries()
                        .map(move |(pos, set)| (pos + leaf.shift, set))
                },
            ));
        SpanTuple::from_marker_set(&markers, self.pre.num_vars)
            .expect("accepted subword-marked words encode valid span-tuples")
    }
}

/// The first `k ≥ from` of `I_A[i,j] = {k : R_B[i,k] ≠ ⊥ ∧ R_C[k,j] ≠ ⊥}`
/// for `A → BC`, by one bit probe per candidate.
fn next_in_i(pre: &Preprocessed, a: u32, i: usize, j: usize, from: usize) -> Option<usize> {
    let (b, c) = pre.children[a as usize].expect("I_A needs an inner non-terminal");
    let (rb, rc) = (&pre.r[b as usize], &pre.r[c as usize]);
    (from..pre.q).find(|&k| rb.is_nonbot(i, k) && rc.is_nonbot(k, j))
}

/// The first element of `Ī_A[i,j]` (which is never empty when
/// `R_A[i,j] ≠ ⊥`): `BASE` for leaves and `℮` entries.
fn first_choice(pre: &Preprocessed, a: u32, i: usize, j: usize) -> usize {
    if pre.is_leaf(a) || pre.r_entry(a, i, j) == REntry::Empty {
        BASE
    } else {
        next_in_i(pre, a, i, j, 0).expect("R_A[i,j] = 1 has a witness k")
    }
}

/// The element of `Ī_A[i,j]` after `k`, if any.
fn next_choice(pre: &Preprocessed, a: u32, i: usize, j: usize, k: usize) -> Option<usize> {
    if k == BASE {
        None
    } else {
        next_in_i(pre, a, i, j, k + 1)
    }
}

impl Iterator for Enumeration<'_> {
    type Item = SpanTuple;

    fn next(&mut self) -> Option<SpanTuple> {
        self.nth(0)
    }

    /// Skips `n` results without building them: whole trees by the size of
    /// their yields, and inside a yield by mixed-radix addition.
    fn nth(&mut self, n: usize) -> Option<SpanTuple> {
        if !self.seek(n) {
            self.state = State::Exhausted;
            return None;
        }
        self.state = State::Returned;
        Some(self.current())
    }
}

impl std::fmt::Debug for Enumeration<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enumeration")
            .field("num_vars", &self.pre.num_vars)
            .field("frames", &self.frames.len())
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod recursive {
    //! The recursive generator the odometer replaced — Algorithm 1 as a
    //! nest of boxed iterators over owned trees — kept as the oracle for
    //! the odometer's output *sequence*.

    use crate::matrices::{Preprocessed, REntry};
    use spanner::{PartialMarkerSet, SpanTuple};

    /// An `(M,S)`-tree reduced to what its yield needs: terminal leaves
    /// address `M_{T_x}[i,j]`, inner nodes carry the shift `|D(B)|` of the
    /// arc to their right child.
    #[derive(Debug, Clone)]
    enum Tree {
        EmptyLeaf,
        TerminalLeaf {
            nt: u32,
            i: usize,
            j: usize,
        },
        Inner {
            shift: u64,
            left: Box<Tree>,
            right: Box<Tree>,
        },
    }

    /// Every result of the enumeration in order, and the yield size of each
    /// tree (so callers can find the tree boundaries).
    pub(super) fn enumerate(pre: &Preprocessed) -> (Vec<SpanTuple>, Vec<usize>) {
        let (mut results, mut yield_sizes) = (Vec::new(), Vec::new());
        for j in pre.reachable_accepting() {
            for k in pre.i_bar(pre.start_nt, pre.nfa_start, j) {
                for tree in enum_all(pre, pre.start_nt, pre.nfa_start, k, j) {
                    let before = results.len();
                    results.extend(yield_of(pre, &tree).into_iter().map(|markers| {
                        SpanTuple::from_marker_set(&markers, pre.num_vars).expect("valid tuple")
                    }));
                    yield_sizes.push(results.len() - before);
                }
            }
        }
        (results, yield_sizes)
    }

    /// `EnumAll(A, i, k, j)` (Algorithm 1), with `k = None` for `base`.
    fn enum_all<'a>(
        pre: &'a Preprocessed,
        a: u32,
        i: usize,
        k: Option<usize>,
        j: usize,
    ) -> Box<dyn Iterator<Item = Tree> + 'a> {
        let Some(k) = k else {
            let tree = if pre.r_entry(a, i, j) == REntry::Empty {
                Tree::EmptyLeaf
            } else {
                Tree::TerminalLeaf { nt: a, i, j }
            };
            return Box::new(std::iter::once(tree));
        };
        let (b, c) = pre.children[a as usize].expect("inner non-terminal");
        let shift = pre.lengths[b as usize];
        Box::new(pre.i_bar(b, i, k).into_iter().flat_map(move |kb| {
            pre.i_bar(c, k, j).into_iter().flat_map(move |kc| {
                enum_all(pre, b, i, kb, k).flat_map(move |tb| {
                    enum_all(pre, c, k, kc, j).map(move |tc| Tree::Inner {
                        shift,
                        left: Box::new(tb.clone()),
                        right: Box::new(tc),
                    })
                })
            })
        }))
    }

    /// The yield of one tree (Lemma 8.5): the odometer over its leaf lists,
    /// last leaf fastest, positions shifted by the path's arc labels.
    fn yield_of(pre: &Preprocessed, tree: &Tree) -> Vec<PartialMarkerSet> {
        let mut leaves = Vec::new();
        collect_leaves(pre, tree, 0, &mut leaves);
        let mut out = Vec::new();
        let mut indices = vec![0usize; leaves.len()];
        loop {
            out.push(PartialMarkerSet::from_entries(
                leaves
                    .iter()
                    .zip(&indices)
                    .flat_map(|((shift, list), &idx)| {
                        list[idx]
                            .entries()
                            .map(move |(pos, set)| (pos + shift, set))
                    }),
            ));
            let mut pos = leaves.len();
            loop {
                if pos == 0 {
                    return out;
                }
                pos -= 1;
                indices[pos] += 1;
                if indices[pos] < leaves[pos].1.len() {
                    break;
                }
                indices[pos] = 0;
            }
        }
    }

    fn collect_leaves<'a>(
        pre: &'a Preprocessed,
        tree: &Tree,
        shift: u64,
        out: &mut Vec<(u64, &'a [PartialMarkerSet])>,
    ) {
        match tree {
            Tree::EmptyLeaf => {}
            Tree::TerminalLeaf { nt, i, j } => out.push((shift, pre.leaf_set(*nt, *i, *j))),
            Tree::Inner {
                shift: node_shift,
                left,
                right,
            } => {
                collect_leaves(pre, left, shift, out);
                collect_leaves(pre, right, shift + node_shift, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::compress::{Bisection, Chain, Compressor, RePair};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::{reference, regex, Span, Variable};
    use std::collections::BTreeSet;

    fn enumerate_set(
        automaton: &SpannerAutomaton<u8>,
        doc: &[u8],
        compressor: &dyn Compressor,
    ) -> Vec<SpanTuple> {
        let slp = compressor.compress(doc);
        Enumerator::new(automaton, &slp).unwrap().iter().collect()
    }

    #[test]
    fn matches_reference_on_the_paper_example() {
        let m = figure_2_spanner();
        let doc = b"aabccaabaa";
        let expected = reference::evaluate(&m, doc);
        for compressor in [&Bisection as &dyn Compressor, &RePair::default(), &Chain] {
            let got = enumerate_set(&m, doc, compressor);
            assert_eq!(
                got.len(),
                expected.len(),
                "compressor {}",
                compressor.name()
            );
            assert_eq!(
                got.into_iter().collect::<BTreeSet<_>>(),
                expected,
                "compressor {}",
                compressor.name()
            );
        }
    }

    #[test]
    fn enumeration_has_no_duplicates_for_dfas() {
        let m = figure_2_spanner();
        for doc in [&b"aabccaabaa"[..], b"abcabc", b"ccaab", b"ababab"] {
            let got = enumerate_set(&m, doc, &Bisection);
            let dedup: BTreeSet<_> = got.iter().cloned().collect();
            assert_eq!(got.len(), dedup.len(), "duplicates on {:?}", doc);
        }
    }

    #[test]
    fn matches_reference_for_regex_spanners() {
        let patterns: Vec<(&str, &[u8])> = vec![
            (".*x{a+}y{b+}.*", b"abc"),
            ("(x{a})?(b|c)*y{c}", b"abc"),
            (".*x{ab}.*", b"ab"),
            ("(a|b)*x{abb}(a|b)*", b"ab"),
        ];
        let docs: Vec<&[u8]> = vec![b"a", b"ab", b"abc", b"aabbc", b"cabab", b"abbabb"];
        for (pattern, alphabet) in patterns {
            let m = regex::compile_deterministic(pattern, alphabet).unwrap();
            for doc in &docs {
                let expected = reference::evaluate(&m, doc);
                let slp = Bisection.compress(doc);
                let got: BTreeSet<SpanTuple> = Enumerator::new(&m, &slp).unwrap().iter().collect();
                assert_eq!(got, expected, "pattern {pattern}, doc {:?}", doc);
            }
        }
    }

    #[test]
    fn nondeterministic_automata_are_rejected_by_default() {
        let m = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        assert!(!m.is_deterministic());
        let slp = Bisection.compress(b"abab");
        assert!(matches!(
            Enumerator::new(&m, &slp),
            Err(EvalError::NondeterministicAutomaton)
        ));
        // The duplicate-tolerant mode still enumerates the correct *set*.
        let e = Enumerator::new_allow_duplicates(&m, &slp).unwrap();
        let got: BTreeSet<SpanTuple> = e.iter().collect();
        assert_eq!(got, reference::evaluate(&m, b"abab"));
    }

    #[test]
    fn enumeration_agrees_with_computation_on_compressed_families() {
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let slp = families::power_word(b"ab", 512);
        let computed: BTreeSet<SpanTuple> = crate::compute::compute_all(&m, &slp)
            .unwrap()
            .into_iter()
            .collect();
        let enumerated: Vec<SpanTuple> = Enumerator::new(&m, &slp).unwrap().iter().collect();
        assert_eq!(enumerated.len(), 512);
        assert_eq!(enumerated.into_iter().collect::<BTreeSet<_>>(), computed);
    }

    #[test]
    fn results_stream_lazily() {
        // Taking a prefix of the enumeration must not require materialising
        // all results: (ab)^(2^16) has 65536 results, we take 10.
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let slp = families::power_word(b"ab", 1 << 16);
        let e = Enumerator::new(&m, &slp).unwrap();
        let first_ten: Vec<SpanTuple> = e.iter().take(10).collect();
        assert_eq!(first_ten.len(), 10);
        let x = Variable(0);
        for t in &first_ten {
            assert_eq!(t.get(x).unwrap().len(), 2);
        }
    }

    #[test]
    fn empty_relation_enumerates_nothing() {
        let m = figure_2_spanner();
        let slp = Bisection.compress(b"cccc");
        let e = Enumerator::new(&m, &slp).unwrap();
        assert_eq!(e.iter().count(), 0);
    }

    #[test]
    fn boolean_spanner_enumerates_the_empty_tuple_once() {
        let m = regex::compile_deterministic("(a|b)*abb", b"ab").unwrap();
        let slp = Bisection.compress(b"aabb");
        let e = Enumerator::new(&m, &slp).unwrap();
        let results: Vec<SpanTuple> = e.iter().collect();
        assert_eq!(results, vec![SpanTuple::empty(0)]);
    }

    #[test]
    fn figure_4_tree_yield_appears_in_the_enumeration() {
        // Example 8.2: the (M,S₀)-tree of Figure 4 has yield
        // {{(⊿y,4),(◁y,6)}}, i.e. the tuple (x ↦ ⊥, y ↦ [4,6⟩).
        let m = figure_2_spanner();
        let slp = slp::examples::example_4_2();
        let results: Vec<SpanTuple> = Enumerator::new(&m, &slp).unwrap().iter().collect();
        let mut expected = SpanTuple::empty(2);
        expected.set(Variable(1), Span::new(4, 6).unwrap());
        assert!(results.contains(&expected));
        // And the full result set matches the reference.
        let reference_set = reference::evaluate(&m, b"aabccaabaa");
        assert_eq!(results.into_iter().collect::<BTreeSet<_>>(), reference_set);
    }

    /// The (label, matrices) grid the odometer is checked on against the
    /// reference sequence.
    fn reference_grid() -> Vec<(String, std::sync::Arc<Preprocessed>)> {
        use crate::engine::PreparedQuery;
        use crate::prepared::EByte;
        use slp::compress::Lz78;
        use slp::shard;
        let compressors: [&dyn Compressor; 4] = [&Bisection, &RePair::default(), &Lz78, &Chain];
        let mut grid = Vec::new();
        let mut add = |label: String, m: &SpannerAutomaton<u8>, doc: &[u8]| {
            for compressor in compressors {
                let slp = compressor.compress(doc);
                let prepared = PreparedEvaluation::new(m, &slp).unwrap();
                grid.push((format!("{label} / {}", compressor.name()), prepared.pre));
            }
        };
        let docs: [&[u8]; 6] = [b"a", b"aabccaabaa", b"abcabc", b"ccaab", b"abbabb", b"cccc"];
        for doc in docs {
            add(format!("figure 2 on {doc:?}"), &figure_2_spanner(), doc);
        }
        let patterns: [(&str, &[u8]); 8] = [
            (".*x{a+}y{b+}.*", b"abc"),
            ("(x{a})?(b|c)*y{c}", b"abc"),
            (".*x{ab}.*", b"ab"),
            ("(a|b)*x{abb}(a|b)*", b"ab"),
            (".*x{(a|b)*}y{b*}.*", b"ab"),
            ("(a|b)*abb", b"ab"),
            // Leaf lists with several entries: trees with larger yields.
            ("(x{}|y{})(a|b)*z{b}.*", b"abc"),
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
        // Free marker placement over a 16-symbol document: an advance may
        // rebuild the right siblings of several left-side ancestors.
        let free = regex::compile_deterministic(".*x{.*}.*y{.*}.*", b"ab").unwrap();
        add("two free spans".into(), &free, b"abbabaabbaababba");
        // Non-deterministic: the duplicates must come in the same places.
        let nfa = regex::compile(".*x{a}(.*|b*)", b"ab").unwrap();
        assert!(!nfa.is_deterministic());
        for doc in [&b"abab"[..], b"aab", b"bbab"] {
            add(format!("nfa on {doc:?}"), &nfa, doc);
        }
        // Scatter-gather matrices over a composed grammar.
        let query = PreparedQuery::determinized(&regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap());
        for k in [2usize, 4] {
            let (combined, layout) = shard::split(&families::power_word(b"ab", 24), k).compose();
            let ended = combined
                .map_terminals(EByte::Byte)
                .append_terminal(EByte::End);
            let (pre, _) =
                Preprocessed::build_sharded(query.nfa(), &ended, query.num_vars(), &layout);
            grid.push((format!("sharded k={k}"), std::sync::Arc::new(pre)));
        }
        grid
    }

    #[test]
    fn odometer_yields_the_reference_sequence() {
        let (mut multi_yield, mut duplicates, mut empty, mut boolean) =
            (false, false, false, false);
        for (label, pre) in reference_grid() {
            let (want, yield_sizes) = super::recursive::enumerate(&pre);
            let got: Vec<SpanTuple> = Enumeration::from_matrices(&pre).collect();
            assert_eq!(got, want, "{label}");
            multi_yield |= yield_sizes.iter().any(|&n| n > 1);
            duplicates |= want.iter().collect::<BTreeSet<_>>().len() < want.len();
            empty |= want.is_empty();
            boolean |= pre.num_vars == 0 && !want.is_empty();
        }
        // The grid covers every shape the odometer distinguishes.
        assert!(multi_yield, "no tree with a yield of several results");
        assert!(duplicates, "no duplicates");
        assert!(empty, "no empty relation");
        assert!(boolean, "no Boolean spanner");
    }

    #[test]
    fn nth_and_skip_agree_with_the_reference_around_tree_boundaries() {
        for (label, pre) in reference_grid() {
            let (want, yield_sizes) = super::recursive::enumerate(&pre);
            // Tree boundaries, thinned out to at most 32 on large relations.
            let boundaries: Vec<usize> = yield_sizes
                .iter()
                .scan(0, |end, &size| {
                    *end += size;
                    Some(*end)
                })
                .collect();
            let stride = boundaries.len().div_ceil(32).max(1);
            let mut offsets = vec![0, want.len() + 3, usize::MAX];
            for &b in boundaries.iter().step_by(stride) {
                offsets.extend([b - 1, b, b + 1]);
            }
            for s in offsets {
                assert_eq!(
                    Enumeration::from_matrices(&pre).nth(s),
                    want.get(s).cloned(),
                    "{label}: nth({s})"
                );
                for len in [1, 3] {
                    let got: Vec<SpanTuple> =
                        Enumeration::from_matrices(&pre).skip(s).take(len).collect();
                    let from = s.min(want.len());
                    let expected = &want[from..(from + len).min(want.len())];
                    assert_eq!(got, expected, "{label}: skip({s}).take({len})");
                }
            }
            // Interleaved `next`/`nth` calls keep one cursor.
            let mut e = Enumeration::from_matrices(&pre);
            let mut cursor = 0;
            for step in [0usize, 2, 0, 1, 5, 0, 3, 0, 0, 7] {
                assert_eq!(e.nth(step), want.get(cursor + step).cloned(), "{label}");
                cursor = (cursor + step + 1).min(want.len());
            }
            assert_eq!(e.next(), want.get(cursor).cloned(), "{label}");
        }
    }

    #[test]
    fn delay_work_is_linear_in_depth() {
        // Chain grammars are the worst case for the delay: depth(S) = d.
        // Every advance may scan and rebuild one (M,S₀)-tree, at most
        // 4·|X|·depth(S) frames by Lemma 8.4 — never anything quadratic.
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        for depth in [256usize, 1024, 4096] {
            let doc: Vec<u8> = b"ab".iter().copied().cycle().take(depth).collect();
            let prepared = PreparedEvaluation::new(&m, &Chain.compress(&doc)).unwrap();
            let pre = &prepared.pre;
            let depth_s = pre.depths[pre.start_nt as usize] as usize;
            assert!(depth_s >= depth);
            let bound = 4 * pre.num_vars * depth_s + 8;
            let mut e = Enumeration::from_matrices(pre);
            let (mut results, mut max_work, mut before) = (0, 0, e.frames_touched);
            while e.next().is_some() {
                max_work = max_work.max(e.frames_touched - before);
                before = e.frames_touched;
                results += 1;
            }
            assert_eq!(results, depth / 2);
            assert!(
                max_work <= bound,
                "depth {depth_s}: {max_work} frames in one advance, bound {bound}"
            );
        }
    }
}
