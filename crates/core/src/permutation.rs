//! Random permutation generation (Section 5.1.1 and the Section 5.2
//! experiment's three algorithms).
//!
//! * [`random_permutation_qrqw`] — the paper's new QRQW algorithm
//!   (Theorem 5.1, adapted from Gil's renaming algorithm): `O(lg lg n)`
//!   dart-throwing rounds into geometrically shrinking fresh subarrays,
//!   followed by one prefix-sums compaction.  `O(lg n)` time and linear
//!   work w.h.p. on the QRQW PRAM.
//!
//! * [`random_permutation_dart_scan`] — the "dart-throwing with scans"
//!   algorithm of the MasPar experiment: every round throws the unplaced
//!   items into an array of size `n` and compacts the winners with the
//!   machine's scan primitive.
//!
//! * [`random_permutation_sorting_erew`] — the popular sorting-based EREW
//!   algorithm: draw a random 31-bit key per item, sort (bitonic, as the
//!   MasPar system sort does), output the ranks; retry on key collisions.
//!
//! All three are Las Vegas: they always output a valid permutation.
//!
//! Every algorithm here is generic over the [`Machine`] backend: the same
//! source runs on the exact-cost simulator ([`qrqw_sim::Pram`]) and on the
//! native pooled-threads/atomics machine (`qrqw_exec::NativeMachine`).  Because both
//! backends draw per-`(seed, step, proc)` random streams from the same
//! generator and exclusive claims resolve deterministically, the dart
//! throwers produce *bit-identical* permutations on both backends for the
//! same seed.

use qrqw_prims::{bitonic_sort, compact_erew, global_or, ClaimMode};
use qrqw_sim::schedule::lg_lg;
use qrqw_sim::{Machine, EMPTY};

/// Outcome of a permutation-generation run.
#[derive(Debug, Clone)]
pub struct PermutationOutcome {
    /// `order[p] = i` means item `i` ended up at position `p`; `order` is a
    /// permutation of `0..n`.
    pub order: Vec<u64>,
    /// Dart-throwing rounds (or sorting attempts) used.
    pub rounds: u64,
    /// Whether a sequential Las-Vegas clean-up was needed (w.h.p. false).
    pub fallback_used: bool,
}

/// Checks that `order` is a permutation of `0..order.len()`.
pub fn is_permutation(order: &[u64]) -> bool {
    let n = order.len();
    let mut seen = vec![false; n];
    for &x in order {
        let Ok(i) = usize::try_from(x) else {
            return false;
        };
        if i >= n || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

/// The QRQW dart-throwing random-permutation algorithm (Theorem 5.1).
pub fn random_permutation_qrqw<M: Machine>(m: &mut M, n: usize) -> PermutationOutcome {
    if n == 0 {
        return PermutationOutcome {
            order: Vec::new(),
            rounds: 0,
            fallback_used: false,
        };
    }
    // Fresh subarrays: round r uses d·n/2^r cells (d = 2), carved as one
    // stack allocation per round — the allocator is a bump stack and
    // nothing else allocates between rounds, so the subarrays are
    // contiguous and the final compaction is a single scan over them,
    // while rounds that never happen cost no memory.  6n cells
    // upper-bounds the geometric series plus slack for the
    // low-probability extra rounds.
    let region_cap = 6 * n + 64;
    let a_base = m.heap_top();
    let mut carve = 0usize;

    let mut active: Vec<usize> = (0..n).collect();
    let mut rounds = 0u64;
    let max_rounds = 2 * lg_lg(n.max(4) as u64) + 6;
    let mut fallback_used = false;

    while !active.is_empty() && rounds < max_rounds {
        let sub_len = ((2 * n) >> rounds.min(32)).max(2 * active.len()).max(4);
        if carve + sub_len > region_cap {
            break;
        }
        let sub_base = m.alloc(sub_len);
        debug_assert_eq!(sub_base, a_base + carve);
        carve += sub_len;
        rounds += 1;

        // Each unplaced item throws one dart into this round's fresh
        // subarray; only uncontested claims survive (exclusive mode keeps
        // the permutation unbiased).  The dart par_map emits the claim
        // attempts directly (same processor indices, so the same draws as a
        // separate target pass), and the losers are filtered in place.
        let attempts: Vec<(u64, usize)> = m.par_map(active.len(), |a, ctx| {
            (active[a] as u64, sub_base + ctx.random_index(sub_len))
        });
        let won = m.claim(&attempts, ClaimMode::Exclusive);
        let mut survived = won.iter();
        active.retain(|_| !*survived.next().unwrap());
    }

    // Sequential Las-Vegas clean-up for the (w.h.p. empty) remainder, run
    // as a sequential step so the placement walk sees its own writes — with
    // snapshot reads the random wrap-around probes could land on a cell
    // claimed earlier in the same step and double-book it.
    if !active.is_empty() {
        fallback_used = true;
        let sub_len = (2 * active.len()).max(4).min(region_cap - carve);
        let sub_base = m.alloc(sub_len);
        debug_assert_eq!(sub_base, a_base + carve);
        carve += sub_len;
        let leftovers = active.clone();
        m.seq_step(|ctx| {
            let mut cursor = 0usize;
            for &item in &leftovers {
                loop {
                    let pos = if cursor < sub_len {
                        cursor
                    } else {
                        // deterministic wrap: reuse earlier free cells
                        ctx.random_index(sub_len)
                    };
                    cursor += 1;
                    if ctx.read(sub_base + pos) == EMPTY {
                        ctx.write(sub_base + pos, item as u64);
                        break;
                    }
                }
            }
        });
    }

    // Compact the concatenated subarrays: the relative order of the items in
    // the region is the output permutation.  Exactly `n` items survive, so
    // the output region is `n` cells (`compact_step` only ensures memory up
    // to the survivor count).
    let out = m.alloc(n);
    let count = compact_erew(m, a_base, carve, out);
    assert_eq!(count as usize, n, "every item must appear exactly once");
    let order = m.dump(out, n);
    m.release_to(a_base);
    PermutationOutcome {
        order,
        rounds,
        fallback_used,
    }
}

/// The dart-throwing-with-scans algorithm from the MasPar experiment
/// (Section 5.2): repeated rounds of dart throwing into an `n`-cell array,
/// compacting the winners after every round with the machine's built-in
/// scan (`enumerate`) and completion test (`globalor`).
pub fn random_permutation_dart_scan<M: Machine>(m: &mut M, n: usize) -> PermutationOutcome {
    if n == 0 {
        return PermutationOutcome {
            order: Vec::new(),
            rounds: 0,
            fallback_used: false,
        };
    }
    let arena = m.alloc(n);
    let flags = m.alloc(n);
    let out = m.alloc(n);
    let mut placed = 0usize;
    let mut active: Vec<usize> = (0..n).collect();
    let mut rounds = 0u64;
    let max_rounds = 40 * (lg_lg(n.max(4) as u64) + 2);
    let mut fallback_used = false;

    while !active.is_empty() && rounds < max_rounds {
        rounds += 1;
        let attempts: Vec<(u64, usize)> = m.par_map(active.len(), |a, ctx| {
            (active[a] as u64, arena + ctx.random_index(n))
        });
        let won = m.claim(&attempts, ClaimMode::Exclusive);

        // Winners publish a flag at their cell; a scan (MasPar `enumerate`)
        // ranks them and they transfer themselves to the output positions
        // placed .. placed + k, then clear their arena cells.
        m.par_for(attempts.len(), |a, ctx| {
            if won[a] {
                ctx.write(flags + (attempts[a].1 - arena), 1);
            }
        });
        let k = m.scan_step(flags, n) as usize;
        m.par_for(attempts.len(), |a, ctx| {
            if won[a] {
                let cell = attempts[a].1 - arena;
                let rank = ctx.read(flags + cell) as usize - 1;
                ctx.write(out + placed + rank, attempts[a].0);
                ctx.write(attempts[a].1, EMPTY);
            }
        });
        // Reset the flag array for the next round (the scan filled every
        // cell with a running total).
        m.par_for(n, |i, ctx| {
            ctx.write(flags + i, EMPTY);
        });
        placed += k;
        active = active
            .iter()
            .zip(&won)
            .filter(|&(_, &w)| !w)
            .map(|(&item, _)| item)
            .collect();
        // MasPar-style completion check (`globalor` over the arena).
        let _ = m.global_or_step(arena, n);
    }

    if !active.is_empty() {
        fallback_used = true;
        let leftovers = active.clone();
        m.par_for(leftovers.len(), |i, ctx| {
            ctx.write(out + placed + i, leftovers[i] as u64);
        });
        placed += leftovers.len();
    }
    assert_eq!(placed, n);
    let order = m.dump(out, n);
    m.release_to(arena);
    PermutationOutcome {
        order,
        rounds,
        fallback_used,
    }
}

/// The sorting-based EREW random-permutation algorithm (Section 5.2): each
/// item draws a random key, the keys are sorted with the bitonic system
/// sort, and the ranks form the permutation; the (unlikely) event of a key
/// collision triggers a retry.
///
/// Keys use every bit the packed `(key, index)` word does not need for the
/// index — the paper assumes Θ(log n)-bit random priorities, and a fixed
/// key width would hit the birthday bound (a fixed 31-bit key collides
/// almost surely for n ≳ 2¹⁷, turning every round into a futile re-sort).
/// With `64 − ⌈log₂ n⌉` key bits the per-round collision probability stays
/// below `n² / 2⁶⁵⁻ˡᵒᵍ ⁿ` — about 3% at n = 2²⁰.
pub fn random_permutation_sorting_erew<M: Machine>(m: &mut M, n: usize) -> PermutationOutcome {
    if n == 0 {
        return PermutationOutcome {
            order: Vec::new(),
            rounds: 0,
            fallback_used: false,
        };
    }
    let idx_bits = n.next_power_of_two().trailing_zeros().max(1) as usize;
    let idx_mask = (1u64 << idx_bits) - 1;
    let key_bound = 1usize << (64 - idx_bits).min(usize::BITS as usize - 1);
    let words = m.alloc(n);
    let dup_flags = m.alloc(n);
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        m.par_for(n, |i, ctx| {
            let key = ctx.random_index(key_bound) as u64;
            ctx.write(words + i, (key << idx_bits) | i as u64);
        });
        bitonic_sort(m, words, n);
        // Collision check: adjacent equal keys?  Done in two EREW-legal
        // substeps: every processor first publishes a shifted copy of its
        // own key, then compares its key against the copy it received.
        let shifted = m.alloc(n + 1);
        m.par_for(n, |i, ctx| {
            let w = ctx.read(words + i);
            ctx.write(shifted + i + 1, w >> idx_bits);
        });
        m.par_for(n, |i, ctx| {
            if i == 0 {
                ctx.write(dup_flags, 0);
                return;
            }
            let prev = ctx.read(shifted + i);
            let own = ctx.read(words + i) >> idx_bits;
            ctx.write(dup_flags + i, (prev == own) as u64);
        });
        m.release_to(shifted);
        if !global_or(m, dup_flags, n) {
            break;
        }
        if rounds > 16 {
            // astronomically unlikely; fall back to accepting ties broken by
            // item index (still a valid permutation, marginally biased).
            break;
        }
    }
    let order: Vec<u64> = m.dump(words, n).into_iter().map(|w| w & idx_mask).collect();
    m.release_to(words);
    PermutationOutcome {
        order,
        rounds,
        fallback_used: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{CostModel, Pram};

    #[test]
    fn qrqw_algorithm_outputs_a_permutation() {
        for seed in 0..3 {
            let mut pram = Pram::with_seed(4, seed);
            let out = random_permutation_qrqw(&mut pram, 500);
            assert!(is_permutation(&out.order));
        }
    }

    #[test]
    fn dart_scan_outputs_a_permutation() {
        let mut pram = Pram::with_seed(4, 7);
        let out = random_permutation_dart_scan(&mut pram, 300);
        assert!(is_permutation(&out.order));
    }

    #[test]
    fn sorting_based_outputs_a_permutation_and_is_erew() {
        let mut pram = Pram::with_seed(4, 5);
        let out = random_permutation_sorting_erew(&mut pram, 256);
        assert!(is_permutation(&out.order));
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }

    #[test]
    fn different_seeds_give_different_permutations() {
        let run = |seed| {
            let mut pram = Pram::with_seed(4, seed);
            random_permutation_qrqw(&mut pram, 128).order
        };
        assert_ne!(run(1), run(2));
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn qrqw_contention_is_low_and_work_linear() {
        let n = 4096usize;
        let mut pram = Pram::with_seed(4, 42);
        let out = random_permutation_qrqw(&mut pram, n);
        assert!(is_permutation(&out.order));
        let lg = qrqw_sim::schedule::ceil_lg(n as u64);
        assert!(
            pram.trace().max_contention() <= 3 * lg,
            "contention {}",
            pram.trace().max_contention()
        );
        assert!(
            pram.trace().work() <= 80 * n as u64,
            "work {}",
            pram.trace().work()
        );
        // The QRQW time must be far below n (the contention bound is what
        // distinguishes the model from a serial queue).
        assert!(pram.trace().time(CostModel::Qrqw) < n as u64 / 4);
    }

    #[test]
    fn qrqw_beats_sorting_baseline_under_qrqw_metric() {
        let n = 2048usize;
        let mut a = Pram::with_seed(4, 1);
        random_permutation_qrqw(&mut a, n);
        let mut b = Pram::with_seed(4, 1);
        random_permutation_sorting_erew(&mut b, n);
        let t_qrqw = a.trace().time(CostModel::SimdQrqw);
        let t_erew = b.trace().time(CostModel::SimdQrqw);
        assert!(
            t_qrqw < t_erew,
            "dart throwing ({t_qrqw}) should beat bitonic sorting ({t_erew}) — the Table II effect"
        );
    }

    #[test]
    fn empty_input() {
        let mut pram = Pram::new(4);
        assert!(random_permutation_qrqw(&mut pram, 0).order.is_empty());
        assert!(random_permutation_dart_scan(&mut pram, 0).order.is_empty());
        assert!(random_permutation_sorting_erew(&mut pram, 0)
            .order
            .is_empty());
    }

    #[test]
    fn permutation_validator_rejects_bad_inputs() {
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3, 1]));
        assert!(is_permutation(&[]));
    }
}
