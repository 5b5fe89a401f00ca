//! Randomized property tests over the core invariants of the primitives and
//! algorithms.
//!
//! The build container has no crates registry, so instead of `proptest`
//! these use seeded `SmallRng` case generation: every property is exercised
//! over a couple dozen random inputs per run, deterministically per seed.

use qrqw_bench::workload::{KeyDist, KeySampler};
use qrqw_suite::algos::{
    cycle_representation, integer_sort_crqw, is_cyclic, is_permutation, multiple_compaction,
    random_cyclic_permutation_fast, random_permutation_qrqw, sample_sort_crqw, sample_sort_qrqw,
    sort_uniform_keys, QrqwHashTable,
};
use qrqw_suite::prims::{
    bitonic_sort, compact_erew, pack, prefix_sums_inclusive, radix_sort_packed,
    stable_sort_small_range, unpack_key, unpack_payload,
};
use qrqw_suite::sim::{CostModel, Machine, Pram, EMPTY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const CASES: u64 = 24;

fn rng_for(case: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(case.wrapping_mul(0x9E37_79B9) ^ salt)
}

#[test]
fn prefix_sums_match_sequential_scan() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 1);
        let len = rng.gen_range(1..300usize);
        let xs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1000u64)).collect();
        let mut pram = Pram::new(xs.len());
        pram.load(0, &xs);
        let total = prefix_sums_inclusive(&mut pram, 0, xs.len());
        let mut acc = 0u64;
        let expect: Vec<u64> = xs
            .iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect();
        assert_eq!(pram.dump(0, xs.len()), expect);
        assert_eq!(total, xs.iter().sum::<u64>());
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }
}

#[test]
fn bitonic_sorts_any_input() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 2);
        let len = rng.gen_range(0..400usize);
        let xs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let mut pram = Pram::new(xs.len().max(1));
        pram.load(0, &xs);
        bitonic_sort(&mut pram, 0, xs.len());
        let mut expect = xs.clone();
        expect.sort_unstable();
        assert_eq!(pram.dump(0, xs.len()), expect);
    }
}

#[test]
fn radix_sort_is_a_stable_sort() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 3);
        let len = rng.gen_range(1..300usize);
        let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..500u64)).collect();
        let mut pram = Pram::new(len);
        let packed: Vec<u64> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| pack(k, i as u64))
            .collect();
        pram.load(0, &packed);
        radix_sort_packed(&mut pram, 0, packed.len(), 16);
        let out: Vec<(u64, u64)> = pram
            .dump(0, packed.len())
            .into_iter()
            .map(|w| (unpack_key(w), unpack_payload(w)))
            .collect();
        // sorted by key, ties keep original order (stability)
        assert!(out
            .windows(2)
            .all(|w| w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1)));
    }
}

#[test]
fn compaction_preserves_the_multiset() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 4);
        let n = rng.gen_range(1..300usize);
        let mask: Vec<bool> = (0..n).map(|_| rng.gen_range(0..2u32) == 1).collect();
        let mut pram = Pram::new(2 * n);
        let mut expect = Vec::new();
        for (i, &keep) in mask.iter().enumerate() {
            if keep {
                pram.poke(i, i as u64 + 10);
                expect.push(i as u64 + 10);
            }
        }
        let count = compact_erew(&mut pram, 0, n, n);
        assert_eq!(count as usize, expect.len());
        assert_eq!(pram.dump(n, expect.len()), expect);
        // empty cells never leak into the compacted output
        assert!(pram.dump(n, count as usize).iter().all(|&v| v != EMPTY));
    }
}

#[test]
fn random_permutation_is_always_a_permutation() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 5);
        let n = rng.gen_range(1..600usize);
        let seed = rng.gen_range(0..50u64);
        let mut pram = Pram::with_seed(4, seed);
        let out = random_permutation_qrqw(&mut pram, n);
        assert!(is_permutation(&out.order), "n={n} seed={seed}");
    }
}

#[test]
fn cyclic_permutation_is_one_cycle() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 6);
        let n = rng.gen_range(2..400usize);
        let seed = rng.gen_range(0..30u64);
        let mut pram = Pram::with_seed(4, seed);
        let out = random_cyclic_permutation_fast(&mut pram, n);
        assert!(is_permutation(&out.successor));
        assert!(is_cyclic(&out.successor));
        assert_eq!(cycle_representation(&out.successor).len(), 1);
    }
}

#[test]
fn multiple_compaction_places_items_in_their_subarrays() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 7);
        let len = rng.gen_range(1..400usize);
        let labels: Vec<u64> = (0..len).map(|_| rng.gen_range(0..20u64)).collect();
        let mut counts = vec![0u64; 20];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        let mut pram = Pram::with_seed(4, 17);
        let r = multiple_compaction(&mut pram, &labels, &counts);
        assert!(!r.failed);
        let mut seen = HashSet::new();
        for (item, &pos) in r.positions.iter().enumerate() {
            assert!(pos != usize::MAX);
            assert!(seen.insert(pos));
            let label = labels[item] as usize;
            let lo = r.layout.b_base + r.layout.subarray_offset[label];
            assert!(pos >= lo && pos < lo + r.layout.subarray_len[label]);
        }
    }
}

#[test]
fn sorts_agree_with_std() {
    for case in 0..8 {
        let mut rng = rng_for(case, 8);
        let len = rng.gen_range(1..500usize);
        let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..(1u64 << 31))).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut a = Pram::with_seed(4, 3);
        assert_eq!(sort_uniform_keys(&mut a, &keys), expect.clone());
        let mut b = Pram::with_seed(4, 4);
        assert_eq!(sample_sort_qrqw(&mut b, &keys), expect);
    }
}

/// The boundary-heavy size sweep the ported-sort properties run over:
/// degenerate inputs, the 63/64 power-of-two straddle, and a real load.
const SIZE_SWEEP: [usize; 6] = [0, 1, 2, 63, 64, 1000];

fn sweep_keys(n: usize, seed: u64, range: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..range.max(1))).collect()
}

/// Sortedness + multiset preservation: the output is exactly the std-sorted
/// input (which implies both properties at once).
fn assert_sorts_multiset(got: &[u64], input: &[u64], label: &str, n: usize, seed: u64) {
    let mut expect = input.to_vec();
    expect.sort_unstable();
    assert_eq!(got, expect, "{label} wrong (n={n}, seed={seed})");
}

#[test]
fn ported_sorts_preserve_multiset_across_size_sweep() {
    for n in SIZE_SWEEP {
        for seed in [1u64, 2, 3] {
            let keys = sweep_keys(n, seed ^ 0xABCD, 1 << 31);

            let mut m = Pram::with_seed(4, seed);
            let got = sample_sort_qrqw(&mut m, &keys);
            assert_sorts_multiset(&got, &keys, "sample_sort_qrqw", n, seed);

            let mut m = Pram::with_seed(4, seed);
            let got = sample_sort_crqw(&mut m, &keys);
            assert_sorts_multiset(&got, &keys, "sample_sort_crqw", n, seed);

            let mut m = Pram::with_seed(4, seed);
            let got = sort_uniform_keys(&mut m, &keys);
            assert_sorts_multiset(&got, &keys, "sort_uniform_keys", n, seed);

            let max_key = (n as u64).max(16);
            let small: Vec<u64> = keys.iter().map(|&k| k % max_key).collect();
            let mut m = Pram::with_seed(4, seed);
            let got = integer_sort_crqw(&mut m, &small, max_key);
            assert_sorts_multiset(&got, &small, "integer_sort_crqw", n, seed);
        }
    }
}

#[test]
fn stable_small_range_sort_preserves_multiset_and_stability_across_sweep() {
    for n in SIZE_SWEEP {
        for seed in [1u64, 2, 3] {
            let keys = sweep_keys(n, seed ^ 0x51AB, 21);
            let mut m = Pram::with_seed(4, seed);
            let base = Machine::alloc(&mut m, n.max(1));
            let words: Vec<u64> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| pack(k, i as u64))
                .collect();
            Machine::load(&mut m, base, &words);
            stable_sort_small_range(&mut m, base, n, 21);
            let out: Vec<(u64, u64)> = Machine::dump(&m, base, n)
                .into_iter()
                .map(|w| (unpack_key(w), unpack_payload(w)))
                .collect();
            let mut expect: Vec<(u64, u64)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u64))
                .collect();
            expect.sort_by_key(|&(k, _)| k); // std stable sort
            assert_eq!(out, expect, "stable sort diverged (n={n}, seed={seed})");
        }
    }
}

#[test]
fn hash_lookups_find_exactly_the_inserted_keys_across_sweep() {
    for n in SIZE_SWEEP {
        for seed in [1u64, 2, 3] {
            let keys: Vec<u64> = {
                // distinct keys below 2^31 - 1, in a seed-deterministic
                // order (HashSet iteration order is per-process random and
                // the build is sensitive to key order, so sort).
                let mut set = HashSet::new();
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x6A5);
                while set.len() < n {
                    set.insert(rng.gen_range(1..(1u64 << 31) - 1));
                }
                let mut v: Vec<u64> = set.into_iter().collect();
                v.sort_unstable();
                v
            };
            let probes: Vec<u64> = (0..200u64).map(|i| i * 37 + 5).collect();
            let mut m = Pram::with_seed(4, seed);
            let table = QrqwHashTable::build(&mut m, &keys);
            let set: HashSet<u64> = keys.iter().copied().collect();
            assert!(
                table.lookup_batch(&mut m, &keys).iter().all(|&h| h),
                "an inserted key was not found (n={n}, seed={seed})"
            );
            let answers = table.lookup_batch(&mut m, &probes);
            for (q, a) in probes.iter().zip(answers) {
                assert_eq!(a, set.contains(q), "probe {q} wrong (n={n}, seed={seed})");
            }
        }
    }
}

#[test]
fn hash_table_answers_membership_exactly() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 9);
        let n_keys = rng.gen_range(1..200usize);
        let keys: Vec<u64> = {
            let mut set = HashSet::new();
            while set.len() < n_keys {
                set.insert(rng.gen_range(1..1_000_000u64));
            }
            set.into_iter().collect()
        };
        let probes: Vec<u64> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(1..1_000_000u64))
            .collect();
        let mut pram = Pram::with_seed(4, 23);
        let table = QrqwHashTable::build(&mut pram, &keys);
        let set: HashSet<u64> = keys.iter().copied().collect();
        let answers = table.lookup_batch(&mut pram, &probes);
        for (q, a) in probes.iter().zip(answers) {
            assert_eq!(a, set.contains(q));
        }
    }
}

// ---------------------------------------------------------------------------
// Key-sampler properties (qrqw_bench::workload)
// ---------------------------------------------------------------------------

/// Edge keyspaces: singleton, pair, one-below and exactly a power of two.
const EDGE_KEYSPACES: [usize; 4] = [1, 2, 63, 64];

fn skewed_dists() -> [KeyDist; 4] {
    [
        KeyDist::Zipf(0.5),
        KeyDist::Zipf(1.0),
        KeyDist::Zipf(1.5),
        KeyDist::PowerLaw,
    ]
}

#[test]
fn sampler_cdfs_are_monotone_and_reach_one() {
    for n in EDGE_KEYSPACES.into_iter().chain([1000]) {
        for dist in skewed_dists() {
            let s = KeySampler::new(dist, n);
            let cdf = s.cdf();
            assert_eq!(cdf.len(), n, "{dist:?} n={n}: one CDF entry per rank");
            assert!(cdf[0] > 0.0, "{dist:?} n={n}: head weight must be positive");
            for (i, w) in cdf.windows(2).enumerate() {
                assert!(
                    w[1] >= w[0],
                    "{dist:?} n={n}: CDF decreases at rank {i}: {} -> {}",
                    w[0],
                    w[1]
                );
            }
            assert!(
                (cdf[n - 1] - 1.0).abs() < 1e-9,
                "{dist:?} n={n}: CDF must end at 1, got {}",
                cdf[n - 1]
            );
        }
    }
}

#[test]
fn empirical_hot_key_mass_matches_the_analytic_weight() {
    // The hottest key's empirical frequency over many draws must sit within
    // a few standard errors of its analytic CDF weight.  200k draws put the
    // standard error under 1e-3 for every tested head weight, so a 0.01
    // absolute tolerance is ~10 sigma.
    const DRAWS: usize = 200_000;
    let n = 256;
    for dist in skewed_dists() {
        let s = KeySampler::new(dist, n);
        let analytic = s.cdf()[0];
        let mut rng = SmallRng::seed_from_u64(77);
        let hits = (0..DRAWS).filter(|_| s.sample(&mut rng) == 0).count();
        let empirical = hits as f64 / DRAWS as f64;
        assert!(
            (empirical - analytic).abs() < 0.01,
            "{dist:?}: hot-key mass {empirical} vs analytic {analytic}"
        );
    }
    // The power-law head weight is documented in closed form.
    let s = KeySampler::new(KeyDist::PowerLaw, n);
    let closed_form = (1.0 / n as f64).powf(0.25);
    assert!(
        (s.cdf()[0] - closed_form).abs() < 1e-12,
        "power-law cdf[0] {} must equal (1/n)^(1/4) = {closed_form}",
        s.cdf()[0]
    );
}

#[test]
fn samplers_are_deterministic_per_seed() {
    let dists = [
        KeyDist::Uniform,
        KeyDist::Zipf(1.2),
        KeyDist::PowerLaw,
        KeyDist::AllSame,
        KeyDist::Adversarial,
    ];
    for dist in dists {
        let s1 = KeySampler::new(dist, 512);
        let s2 = KeySampler::new(dist, 512);
        let mut r1 = SmallRng::seed_from_u64(41);
        let mut r2 = SmallRng::seed_from_u64(41);
        let a: Vec<u64> = (0..512).map(|_| s1.sample(&mut r1)).collect();
        let b: Vec<u64> = (0..512).map(|_| s2.sample(&mut r2)).collect();
        assert_eq!(a, b, "{dist:?}: same seed must replay the same stream");
        if dist != KeyDist::AllSame {
            let mut r3 = SmallRng::seed_from_u64(42);
            let c: Vec<u64> = (0..512).map(|_| s1.sample(&mut r3)).collect();
            assert_ne!(a, c, "{dist:?}: different seeds must diverge");
        }
    }
}

#[test]
fn samplers_respect_edge_keyspaces() {
    for n in EDGE_KEYSPACES {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipf(1.0),
            KeyDist::PowerLaw,
            KeyDist::AllSame,
        ] {
            let s = KeySampler::new(dist, n);
            let mut rng = SmallRng::seed_from_u64(n as u64 ^ 0xD1);
            for _ in 0..256 {
                let k = s.sample(&mut rng);
                assert!(k < n as u64, "{dist:?} n={n}: drew out-of-range key {k}");
                if n == 1 || dist == KeyDist::AllSame {
                    assert_eq!(k, 0, "{dist:?} n={n}: singleton keyspace must draw 0");
                }
            }
        }
        // The adversary draws from its sieved pool, not [0, n): the pool
        // shrinks with the keyspace and every draw stays inside it.
        let s = KeySampler::new(KeyDist::Adversarial, n);
        assert_eq!(s.pool().len(), n.min(16));
        let pool: HashSet<u64> = s.pool().iter().copied().collect();
        let mut rng = SmallRng::seed_from_u64(n as u64 ^ 0xD2);
        for _ in 0..256 {
            assert!(pool.contains(&s.sample(&mut rng)));
        }
    }
}
