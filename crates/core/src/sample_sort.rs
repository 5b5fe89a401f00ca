//! General sorting by √n-sample sort (Section 7.2, "Algorithm A").
//!
//! The paper adapts Reischuk's `√n`-sample sort: sample `√n` keys, sort the
//! sample, pick every `n^ε`-th sample element as a splitter, label every key
//! with its splitter bucket, move the keys to per-bucket subarrays with
//! (relaxed) heavy multiple compaction, and finish the now-small buckets
//! with a simple deterministic sort.  Two variants differ only in how a key
//! learns its bucket:
//!
//! * [`sample_sort_qrqw`] searches the **binary-search fat-tree**
//!   ([`crate::fat_tree::FatTree`]), the paper's novel data structure, so
//!   every search step has `O(lg n / lg lg n)` contention w.h.p.
//! * [`sample_sort_crqw`] performs a plain binary search in which every key
//!   reads the same splitter cells — free on a concurrent-read (CRQW)
//!   machine, but a `Θ(n)`-contention hot spot under the QRQW metric.
//!
//! **Substitution note.**  The paper's Algorithm A recurses until buckets
//! shrink below `n^{1/lg lg n}` (CRQW) or `2^{√lg n}` (QRQW).  For the
//! problem sizes this repository simulates (`n ≤ 2^20`) a *single* sampling
//! level already drives every bucket below those thresholds, so the
//! implementation unrolls exactly one level and finishes all buckets with a
//! parallel segmented bitonic pass — the same point at which the paper's
//! recursion would bottom out.  This is recorded in DESIGN.md.

use crate::fat_tree::FatTree;
use crate::multiple_compaction::{build_layout, place_values};
use qrqw_prims::{bitonic_sort, compact_erew};
use qrqw_sim::schedule::ceil_lg;
use qrqw_sim::Machine;

/// Which labelling strategy a sample-sort run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchKind {
    FatTree,
    ConcurrentBinarySearch,
}

/// Sorts `keys` (each `< 2^31`) with the QRQW variant of Algorithm A
/// (fat-tree labelling).  Returns the sorted keys.
pub fn sample_sort_qrqw<M: Machine>(m: &mut M, keys: &[u64]) -> Vec<u64> {
    sample_sort(m, keys, SearchKind::FatTree)
}

/// Sorts `keys` with the CRQW variant of Algorithm A (concurrent-read
/// binary-search labelling).
pub fn sample_sort_crqw<M: Machine>(m: &mut M, keys: &[u64]) -> Vec<u64> {
    sample_sort(m, keys, SearchKind::ConcurrentBinarySearch)
}

fn sample_sort<M: Machine>(m: &mut M, keys: &[u64], kind: SearchKind) -> Vec<u64> {
    let n = keys.len();
    if n <= 1 {
        return keys.to_vec();
    }
    assert!(keys.iter().all(|&k| k < (1 << 31)), "keys must be < 2^31");
    let lg = ceil_lg(n as u64).max(1);

    // Small inputs: the recursion would stop immediately, so sort directly.
    if n <= (4 * lg * lg) as usize {
        let base = m.alloc(n);
        m.load(base, keys);
        bitonic_sort(m, base, n);
        let out = m.dump(base, n);
        m.release_to(base);
        return out;
    }

    // --- Step 1: sample ~√n keys (each sampling processor reads one random
    // input cell).
    let input = m.alloc(n);
    m.load(input, keys);
    let sample_count = ((n as f64).sqrt().ceil() as usize).max(4).min(n);
    let sample = m.alloc(sample_count);
    m.par_for(sample_count, |i, ctx| {
        let pick = ctx.random_index(n);
        let v = ctx.read(input + pick);
        ctx.write(sample + i, v);
    });

    // --- Step 2: sort the sample (bitonic; EREW) and pick every
    // (sample_count / num_splitters)-th element as a splitter.
    bitonic_sort(m, sample, sample_count);
    let num_splitters = ((sample_count as f64).sqrt().ceil() as usize)
        .max(1)
        .min(sample_count);
    let stride = sample_count / (num_splitters + 1);
    let splitter_positions: Vec<usize> = (1..=num_splitters)
        .map(|i| (i * stride.max(1)).min(sample_count - 1))
        .collect();
    let pos_ref = &splitter_positions;
    let mut splitters: Vec<u64> = m.par_map(pos_ref.len(), |i, ctx| ctx.read(sample + pos_ref[i]));
    splitters.dedup();

    // --- Step 3: label every key with its splitter bucket.
    let labels: Vec<usize> = match kind {
        SearchKind::FatTree => {
            let tree = FatTree::build(m, &splitters, n.max(16));
            tree.search_batch(m, keys)
        }
        SearchKind::ConcurrentBinarySearch => {
            // splitters live in one shared array; every key binary-searches
            // it with plain (concurrent) reads.
            let spl = m.alloc(splitters.len());
            m.load(spl, &splitters);
            let s_len = splitters.len();
            m.par_map(n, |i, ctx| {
                let key = keys[i];
                let mut lo = 0usize;
                let mut hi = s_len;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    let v = ctx.read(spl + mid);
                    ctx.compute(1);
                    if key < v {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            })
        }
    };
    let num_buckets = splitters.len() + 1;

    // --- Step 4: move the keys into per-bucket subarrays with relaxed heavy
    // multiple compaction.  Subarray sizes are a power of two so the finish
    // can run one segmented bitonic network over all buckets at once.
    let expected = n / num_buckets + 1;
    let seg = (4 * expected + 8 * lg as usize).next_power_of_two();
    let counts = vec![(seg / 4) as u64; num_buckets];
    let labels_u64: Vec<u64> = labels.iter().map(|&l| l as u64).collect();
    let layout = build_layout(m, &counts);
    let placed = place_values(m, keys, &labels_u64, &layout);
    if !placed {
        // Las-Vegas restart path of the paper, collapsed to the safe
        // fallback: sort the whole input with the system (bitonic) sort.
        bitonic_sort(m, input, n);
        let out = m.dump(input, n);
        m.release_to(input);
        return out;
    }

    // --- Step 5: finish every bucket with one parallel bitonic pass over
    // the equal-size subarrays (EMPTY padding sorts to the end), then
    // compact out the padding.
    m.bitonic_segments(layout.b_base, seg, num_buckets);
    let out_region = m.alloc(layout.b_len);
    let cnt = compact_erew(m, layout.b_base, layout.b_len, out_region);
    assert_eq!(cnt as usize, n);
    let out = m.dump(out_region, n);
    m.release_to(input);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..(1 << 31))).collect()
    }

    #[test]
    fn qrqw_variant_sorts_random_input() {
        let keys = random_keys(3000, 1);
        let mut pram = Pram::with_seed(4, 2);
        let got = sample_sort_qrqw(&mut pram, &keys);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn crqw_variant_sorts_random_input() {
        let keys = random_keys(2500, 3);
        let mut pram = Pram::with_seed(4, 4);
        let got = sample_sort_crqw(&mut pram, &keys);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn handles_duplicates_and_skew() {
        let mut keys = vec![7u64; 800];
        keys.extend(random_keys(800, 5));
        let mut pram = Pram::with_seed(4, 6);
        let got = sample_sort_qrqw(&mut pram, &keys);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn small_inputs_take_the_direct_path() {
        let keys = vec![5u64, 3, 9, 1];
        let mut pram = Pram::with_seed(4, 7);
        assert_eq!(sample_sort_qrqw(&mut pram, &keys), vec![1, 3, 5, 9]);
        assert_eq!(sample_sort_qrqw(&mut pram, &[]), Vec::<u64>::new());
        assert_eq!(sample_sort_qrqw(&mut pram, &[2]), vec![2]);
    }

    #[test]
    fn fat_tree_variant_has_lower_contention_than_concurrent_variant() {
        let keys = random_keys(4096, 9);
        let mut a = Pram::with_seed(4, 10);
        let _ = sample_sort_qrqw(&mut a, &keys);
        let mut b = Pram::with_seed(4, 10);
        let _ = sample_sort_crqw(&mut b, &keys);
        let qrqw_cont = a.trace().max_contention();
        let crqw_cont = b.trace().max_contention();
        assert!(
            qrqw_cont * 4 < crqw_cont,
            "fat-tree labelling contention ({qrqw_cont}) should be far below the hot-spot search ({crqw_cont})"
        );
        // ... and under the CRQW metric (reads free) the concurrent variant
        // is not penalised for it.
        assert!(
            b.trace().time(qrqw_sim::CostModel::Crqw) < b.trace().time(qrqw_sim::CostModel::Qrqw)
        );
    }
}
