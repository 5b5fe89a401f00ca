//! Ablation studies for the design choices the paper calls out:
//!
//! 1. the binary-search **fat-tree** vs. a plain concurrent binary search
//!    (Section 7.2 — the fat-tree's reason to exist),
//! 2. the **output-array slack** of linear compaction / dart throwing
//!    (Sections 4 and 5.1.2 — "using larger arrays reduces collision sets"),
//! 3. the fast vs. work-optimal **cyclic permutation** algorithms
//!    (Theorem 5.2 vs. Theorem 5.3 — time/processor trade-off).

use qrqw_core::{random_cyclic_permutation_efficient, random_cyclic_permutation_fast, FatTree};
use qrqw_prims::linear_compaction;
use qrqw_sim::{CostModel, Machine, Pram};

fn main() {
    println!("Ablation 1 — fat-tree search vs concurrent binary search (n keys, 63 splitters)");
    println!(
        "{:<10} {:>18} {:>18} {:>14} {:>14}",
        "n", "fat-tree max cont", "concurrent max cont", "fat-tree qrqw", "concurrent qrqw"
    );
    for &n in &[1usize << 10, 1 << 12, 1 << 14] {
        let splitters: Vec<u64> = (1..64).map(|i| i * 1000).collect();
        let keys: Vec<u64> = (0..n as u64).map(|i| (i * 977) % 64_000).collect();

        let mut a = Pram::with_seed(4, 1);
        let tree = FatTree::build(&mut a, &splitters, n);
        let _ = a.take_trace();
        let _ = tree.search_batch(&mut a, &keys);
        let (fc, ft) = (a.trace().max_contention(), a.trace().time(CostModel::Qrqw));

        let mut b = Pram::with_seed(4, 1);
        let tree = FatTree::build(&mut b, &splitters, n);
        let _ = b.take_trace();
        let _ = tree.search_batch_concurrent(&mut b, &keys);
        let (cc, ct) = (b.trace().max_contention(), b.trace().time(CostModel::Qrqw));
        println!("{n:<10} {fc:>18} {cc:>18} {ft:>14} {ct:>14}");
    }

    println!(
        "\nAblation 2 — linear-compaction output slack (k = 2048 items out of n = 8192 cells)"
    );
    println!(
        "{:<16} {:>10} {:>14} {:>12}",
        "output size", "rounds", "max contention", "qrqw time"
    );
    let n = 8192usize;
    let k = 2048usize;
    for factor in [4usize, 8, 16] {
        let mut pram = Pram::with_seed(n, 9);
        for i in 0..k {
            pram.poke(i * (n / k), i as u64 + 1);
        }
        let dst = pram.alloc(factor * k);
        let out = linear_compaction(&mut pram, 0, n, dst, factor * k);
        assert_eq!(out.placements.len(), k);
        println!(
            "{:<16} {:>10} {:>14} {:>12}",
            format!("{factor}k"),
            out.rounds,
            pram.trace().max_contention(),
            pram.trace().time(CostModel::Qrqw)
        );
    }

    println!(
        "\nAblation 3 — cyclic permutation: fast (Thm 5.2) vs work-optimal (Thm 5.3), n = 4096"
    );
    println!(
        "{:<18} {:>12} {:>12} {:>14}",
        "algorithm", "qrqw time", "work", "max contention"
    );
    let n = 4096usize;
    let mut a = Pram::with_seed(4, 5);
    let _ = random_cyclic_permutation_fast(&mut a, n);
    println!(
        "{:<18} {:>12} {:>12} {:>14}",
        "fast",
        a.trace().time(CostModel::Qrqw),
        a.trace().work(),
        a.trace().max_contention()
    );
    let mut b = Pram::with_seed(4, 5);
    let _ = random_cyclic_permutation_efficient(&mut b, n);
    println!(
        "{:<18} {:>12} {:>12} {:>14}",
        "work-optimal",
        b.trace().time(CostModel::Qrqw),
        b.trace().work(),
        b.trace().max_contention()
    );
}
