//! CI regression gate for the enumeration-delay bounds (the E5/E8
//! measurements of EXPERIMENTS.md, turned into assertions): the paper's
//! Theorem 8.10 promises `O(depth(S)·|X|)` delay, i.e. `O(|X|·log d)` on
//! balanced grammars — so the maximum delay on the power families must grow
//! roughly like `log d`, *not* like `d`.  The factors are deliberately
//! generous (timing on shared CI hardware is noisy) but tight enough that
//! an accidental `O(d)` per-result walk fails loudly: between the two
//! document sizes below, `log d` grows ~2× while `d` grows 1024×.

use slp_spanner::prelude::*;
use slp_spanner::slp::{balance::rebalance, compress::Chain, families};
use spanner_bench::{measure_delays, DelayStats};
use std::time::Duration;

/// Runs `measure` a few times and keeps the smallest maximum delay — a
/// single scheduler hiccup must not decide the gate.
fn min_max_delay(mut measure: impl FnMut() -> DelayStats) -> Duration {
    (0..3).map(|_| measure().max_delay).min().unwrap()
}

/// E5 gate: max enumeration delay on the `(ab)^k` power family grows
/// ~`log d` — the large document (1024× longer, depth ~2×) may be slower
/// only by a generous constant, never by anything resembling `d`.
#[test]
fn e5_power_family_max_delay_grows_logarithmically() {
    let query = compile_query(".*x{ab}.*", b"ab").unwrap();
    let small = families::power_word(b"ab", 1 << 10);
    let large = families::power_word(b"ab", 1 << 18);
    assert!(large.depth() <= 2 * small.depth() + 4, "family is balanced");

    let draw = |doc: &NormalFormSlp<u8>| {
        let spanner = SlpSpanner::new(&query, doc).unwrap();
        min_max_delay(|| measure_delays(spanner.enumerate(), 400))
    };
    let small_max = draw(&small);
    let large_max = draw(&large);

    // log d grows ~1.8×; allow 32× (plus a 100µs floor against timer
    // noise).  An O(d) delay would be ~256× the small document's and fail.
    let bound = 32 * small_max.max(Duration::from_micros(100));
    assert!(
        large_max <= bound,
        "max delay regressed: {large_max:?} on d=2^19 vs {small_max:?} on d=2^11 \
         (bound {bound:?} — delay must grow ~log d, Theorem 8.10)"
    );
}

/// E8 gate: rebalancing caps the delay.  On a chain grammar the delay is
/// `O(d)`; after the AVL rebuild the depth — and with it the measured max
/// delay — must collapse to the logarithmic regime.
#[test]
fn e8_rebalanced_chain_meets_the_depth_and_delay_bounds() {
    let query = compile_query(".*x{ab}.*", b"ab").unwrap();
    // Deep enough that chain delay is Θ(d) pain.
    let doc: Vec<u8> = std::iter::repeat_n(b"ab".iter().copied(), 1 << 11)
        .flatten()
        .collect();
    let chain = Chain.compress(&doc);
    let balanced = rebalance(&chain);

    // Deterministic anchor: the AVL height bound (no timing involved).
    let d = doc.len() as f64;
    assert!(
        (balanced.depth() as f64) <= 1.45 * d.log2() + 2.0,
        "rebalanced depth {} exceeds the AVL bound for d={}",
        balanced.depth(),
        doc.len()
    );
    assert_eq!(chain.depth() as usize, doc.len());

    let draw = |slp: &NormalFormSlp<u8>| {
        let spanner = SlpSpanner::new(&query, slp).unwrap();
        min_max_delay(|| measure_delays(spanner.enumerate(), 200))
    };
    let chain_max = draw(&chain);
    let balanced_max = draw(&balanced);

    // The chain walks Θ(d)-deep paths per result; the balanced grammar
    // walks Θ(log d).  Demand a 4× gap — the real one is orders of
    // magnitude, so this only fails if balancing stops working.
    assert!(
        4 * balanced_max <= chain_max.max(Duration::from_micros(400)),
        "rebalancing no longer caps the delay: balanced {balanced_max:?} vs chain {chain_max:?}"
    );
}

/// Enumeration keeps no recursion on its path: a chain grammar of depth
/// 2^14 enumerates on a 2 MiB stack, the default test-thread size, even
/// with unoptimised debug-build frames.
#[cfg(debug_assertions)]
#[test]
fn deep_chain_enumerates_on_a_small_stack() {
    let depth = 1usize << 14;
    let doc: Vec<u8> = b"ab".iter().copied().cycle().take(depth).collect();
    let chain = Chain.compress(&doc);
    assert_eq!(chain.depth() as usize, depth);
    let query = compile_query(".*x{ab}.*", b"ab").unwrap();
    let spans: Vec<Span> = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let spanner = SlpSpanner::new(&query, &chain).unwrap();
            let x = Variable(0);
            spanner
                .enumerate()
                .take(8)
                .map(|t| t.get(x).expect("x is bound"))
                .collect()
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(spans.len(), 8);
    for span in spans {
        // Every match of `ab` starts at an odd (1-based) position.
        assert_eq!((span.len(), span.start % 2), (2, 1), "{span:?}");
    }
}
