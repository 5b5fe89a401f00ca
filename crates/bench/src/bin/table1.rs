//! Regenerates Table I: the paper's five problems, QRQW algorithm vs. the
//! best practical EREW algorithm, measured on the PRAM simulator.
//!
//! For each problem the harness prints one row per (algorithm, n) pair with
//! the simulated time under the QRQW / CRQW / EREW / CRCW metrics, the
//! work, and the maximum per-step contention.  The paper's claim is about
//! the *shape*: the QRQW algorithms stay work-optimal (linear work) while
//! their time beats the EREW competitors, which either pay a sorting-based
//! `Θ(lg² n)` or lose work-optimality.

use qrqw_bench::{print_rows, MeasuredRow, TABLE1_SIZES};
use qrqw_core::{
    light_multiple_compaction, load_balance_erew, load_balance_qrqw, multiple_compaction,
    random_permutation_qrqw, random_permutation_sorting_erew, sort_uniform_keys, QrqwHashTable,
};
use qrqw_prims::bitonic_sort;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .nth(1)
        .map(|s| vec![s.parse().expect("n must be an integer")])
        .unwrap_or_else(|| TABLE1_SIZES.to_vec());

    println!("Table I reproduction — QRQW vs EREW algorithms (simulated PRAM metrics)");

    // --- Random permutation -------------------------------------------------
    let mut rows = Vec::new();
    for &n in &sizes {
        rows.push(MeasuredRow::measure("perm/qrqw dart-throwing", n, 1, |p| {
            let out = random_permutation_qrqw(p, n);
            assert!(qrqw_core::is_permutation(&out.order));
        }));
        rows.push(MeasuredRow::measure("perm/erew sorting-based", n, 1, |p| {
            let out = random_permutation_sorting_erew(p, n);
            assert!(qrqw_core::is_permutation(&out.order));
        }));
    }
    print_rows("Random permutation", &rows);

    // --- Multiple compaction -----------------------------------------------
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut rng = SmallRng::seed_from_u64(7);
        // few, large sets so the heavy (dart-throwing) path is exercised
        let num_labels = (n / 2048).max(2);
        let labels: Vec<u64> = (0..n)
            .map(|_| rng.gen_range(0..num_labels as u64))
            .collect();
        let mut counts = vec![0u64; num_labels];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        let (l1, c1) = (labels.clone(), counts.clone());
        rows.push(MeasuredRow::measure(
            "mcompact/qrqw heavy+light",
            n,
            2,
            move |p| {
                let r = multiple_compaction(p, &l1, &c1);
                assert!(!r.failed);
            },
        ));
        rows.push(MeasuredRow::measure(
            "mcompact/erew int-sort reduction",
            n,
            2,
            move |p| {
                let r = light_multiple_compaction(p, &labels, &counts);
                assert!(!r.failed);
            },
        ));
    }
    print_rows("Multiple compaction", &rows);

    // --- Sorting from U(0,1) -------------------------------------------------
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut rng = SmallRng::seed_from_u64(11);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..(1u64 << 31))).collect();
        let k1 = keys.clone();
        rows.push(MeasuredRow::measure(
            "sortU01/qrqw distributive",
            n,
            3,
            move |p| {
                let out = sort_uniform_keys(p, &k1);
                assert!(out.windows(2).all(|w| w[0] <= w[1]));
            },
        ));
        rows.push(MeasuredRow::measure(
            "sortU01/erew bitonic",
            n,
            3,
            move |p| {
                let base = p.alloc(n);
                p.memory_mut().load(base, &keys);
                bitonic_sort(p, base, n);
            },
        ));
    }
    print_rows("Sorting from U(0,1)", &rows);

    // --- Parallel hashing -----------------------------------------------------
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut rng = SmallRng::seed_from_u64(13);
        // Distinct keys in draw order: a set's iteration order changes from
        // process to process, and the rows below depend on the order.
        let mut seen = std::collections::HashSet::new();
        let mut keys = Vec::with_capacity(n);
        while keys.len() < n {
            let key = rng.gen_range(0..(1u64 << 31) - 1);
            if seen.insert(key) {
                keys.push(key);
            }
        }
        let k1 = keys.clone();
        rows.push(MeasuredRow::measure(
            "hashing/qrqw build+lookup",
            n,
            4,
            move |p| {
                let table = QrqwHashTable::build(p, &k1);
                let hits = table.lookup_batch(p, &k1);
                assert!(hits.iter().all(|&h| h));
            },
        ));
        rows.push(MeasuredRow::measure(
            "hashing/sort+search dictionary",
            n,
            4,
            move |p| {
                let base = p.alloc(n);
                p.memory_mut().load(base, &keys);
                bitonic_sort(p, base, n);
                // membership by binary search (concurrent reads; the practical
                // zero-preprocessing comparator)
                let keys_ref = &keys;
                let hits = p.step(|s| {
                    s.par_map(0..n, |i, ctx| {
                        let x = keys_ref[i];
                        let (mut lo, mut hi) = (0usize, n);
                        while lo < hi {
                            let mid = (lo + hi) / 2;
                            let v = ctx.read(base + mid);
                            if v == x {
                                return true;
                            }
                            if v < x {
                                lo = mid + 1;
                            } else {
                                hi = mid;
                            }
                        }
                        false
                    })
                });
                assert!(hits.iter().all(|&h| h));
            },
        ));
    }
    print_rows("Parallel hashing (build + n lookups)", &rows);

    // --- Load balancing -------------------------------------------------------
    let mut rows = Vec::new();
    for &n in &sizes {
        for &l in &[4u64, 64, 1024] {
            let l = l.min(n as u64);
            let mut loads = vec![0u64; n];
            let heavy = (n as u64 / l).max(1) as usize;
            for item in loads.iter_mut().take(heavy) {
                *item = l;
            }
            let l1 = loads.clone();
            rows.push(MeasuredRow::measure(
                &format!("loadbal/qrqw dispersal L={l}"),
                n,
                5,
                move |p| {
                    let r = load_balance_qrqw(p, &l1);
                    assert!(r.covers_exactly(&l1));
                },
            ));
            rows.push(MeasuredRow::measure(
                &format!("loadbal/erew prefix-sums L={l}"),
                n,
                5,
                move |p| {
                    let r = load_balance_erew(p, &loads);
                    assert!(r.covers_exactly(&loads));
                },
            ));
        }
    }
    print_rows("Load balancing (max initial load L)", &rows);

    println!("\nREADME.md § \"Reproducing the paper's tables\" says what each block reproduces.");
}
