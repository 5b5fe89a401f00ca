//! Cross-crate integration tests: whole algorithm pipelines exercised
//! through the public APIs of `qrqw-sim`, `qrqw-prims`, `qrqw-core` and
//! `qrqw-exec`, the way a downstream user would call them.

use qrqw_suite::algos::{
    emulate_fetch_add_step, integer_sort_crqw, is_cyclic, is_permutation, multiple_compaction,
    random_cyclic_permutation_efficient, random_permutation_dart_scan, random_permutation_qrqw,
    random_permutation_sorting_erew, QrqwHashTable,
};
use qrqw_suite::sim::{CostModel, Machine, Pram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn table_one_shape_random_permutation_beats_sorting_baseline() {
    let n = 4096usize;
    let mut qrqw = Pram::with_seed(16, 1);
    let out = random_permutation_qrqw(&mut qrqw, n);
    assert!(is_permutation(&out.order));
    let mut erew = Pram::with_seed(16, 1);
    let _ = random_permutation_sorting_erew(&mut erew, n);

    // Work-optimality: dart throwing is linear work, the sorting baseline is
    // Θ(n lg² n).
    assert!(qrqw.trace().work() * 2 < erew.trace().work());
    assert!(qrqw.trace().work() <= 100 * n as u64);
    // Time: the QRQW algorithm is faster under the contention-charging
    // metrics (the Table II effect).
    assert!(
        qrqw.trace().time(CostModel::SimdQrqw) < erew.trace().time(CostModel::SimdQrqw),
        "qrqw {} vs erew {}",
        qrqw.trace().time(CostModel::SimdQrqw),
        erew.trace().time(CostModel::SimdQrqw)
    );
}

#[test]
fn table_two_ordering_holds_in_the_simulator() {
    let n = 2048usize;
    let times_of = |f: &dyn Fn(&mut Pram, usize) -> qrqw_suite::algos::PermutationOutcome| {
        let mut p = Pram::with_seed(16, 3);
        let _ = f(&mut p, n);
        (
            p.trace().time(CostModel::SimdQrqw),
            p.trace().time(CostModel::ScanSimdQrqw),
            p.cost_report().contended_claims,
        )
    };
    let (sort_simd, sort_scan, _) = times_of(&|p, n| random_permutation_sorting_erew(p, n));
    let (scan_simd, scan_scan, scan_contended) =
        times_of(&|p, n| random_permutation_dart_scan(p, n));
    let (qrqw_simd, _, qrqw_contended) = times_of(&|p, n| random_permutation_qrqw(p, n));
    // The §5 effect behind it: darts thrown into fresh geometric subarrays
    // collide less than darts re-thrown into one arena.
    assert!(
        qrqw_contended < scan_contended,
        "fresh subarrays must collide less ({qrqw_contended} vs {scan_contended})"
    );
    // The qrqw dart thrower wins under the plain SIMD-QRQW metric (the
    // paper's best predictor of the MasPar measurements)...
    assert!(
        qrqw_simd < sort_simd,
        "qrqw dart ({qrqw_simd}) must beat the sorting baseline ({sort_simd})"
    );
    assert!(
        qrqw_simd < scan_simd,
        "qrqw dart ({qrqw_simd}) must beat dart+scan ({scan_simd})"
    );
    // ...and dart-throwing-with-scans beats the sorting baseline once the
    // machine's scans are charged unit time (the scan-SIMD-QRQW metric),
    // which is how it wins its Table II column on the real MP-1.
    assert!(
        scan_scan < sort_scan,
        "dart+scan ({scan_scan}) must beat the sorting baseline ({sort_scan}) under the scan metric"
    );
}

#[test]
fn integer_sort_feeds_fetch_add_emulation() {
    // The paper's pipeline: integer sorting underlies the Fetch&Add PRAM
    // emulation (Theorem 7.6).  Run both against the same PRAM.
    let mut pram = Pram::with_seed(64, 4);
    let mut rng = SmallRng::seed_from_u64(8);
    let keys: Vec<u64> = (0..2000).map(|_| rng.gen_range(0..8000)).collect();
    let sorted = integer_sort_crqw(&mut pram, &keys, 8000);
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));

    let reqs: Vec<(usize, u64)> = (0..512).map(|i| (i % 7, (i % 5 + 1) as u64)).collect();
    let olds = emulate_fetch_add_step(&mut pram, &reqs);
    assert_eq!(olds.len(), reqs.len());
    let mut totals = [0u64; 7];
    for &(a, v) in &reqs {
        totals[a] += v;
    }
    for (a, &total) in totals.iter().enumerate() {
        assert_eq!(pram.peek(a), total);
    }
}

#[test]
fn hashing_over_multiple_compaction_output() {
    // Build a hash table over keys that were first routed through multiple
    // compaction, mirroring how the sorting algorithms compose the pieces.
    let n = 1500usize;
    let mut rng = SmallRng::seed_from_u64(6);
    let keys: Vec<u64> = (0..n as u64).map(|i| i * 2 + 1).collect();
    let labels: Vec<u64> = (0..n).map(|_| rng.gen_range(0..32u64)).collect();
    let mut counts = vec![0u64; 32];
    for &l in &labels {
        counts[l as usize] += 1;
    }
    let mut pram = Pram::with_seed(16, 7);
    let mc = multiple_compaction(&mut pram, &labels, &counts);
    assert!(!mc.failed);
    let table = QrqwHashTable::build(&mut pram, &keys);
    let hits = table.lookup_batch(&mut pram, &keys);
    assert!(hits.iter().all(|&h| h));
    let misses = table.lookup_batch(&mut pram, &[0, 2, 4, 6]);
    assert!(misses.iter().all(|&h| !h));
}

#[test]
fn cyclic_permutation_composed_with_fetch_add_ranks() {
    let n = 700usize;
    let mut pram = Pram::with_seed(16, 11);
    let cyc = random_cyclic_permutation_efficient(&mut pram, n);
    assert!(is_cyclic(&cyc.successor));
    // Use Fetch&Add to rank the cycle: walking the cycle and fetch-adding a
    // shared counter gives every element a distinct rank.
    let reqs: Vec<(usize, u64)> = (0..n).map(|_| (0usize, 1)).collect();
    let ranks = emulate_fetch_add_step(&mut pram, &reqs);
    let mut sorted = ranks.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>());
}
