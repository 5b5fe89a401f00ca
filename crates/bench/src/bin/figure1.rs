//! Regenerates Figure 1: a cyclic and a non-cyclic permutation with their
//! cycle representations, plus fresh samples from the two cyclic-permutation
//! generators of Section 5.

use qrqw_core::{
    cycle_representation, is_cyclic, random_cyclic_permutation_efficient,
    random_cyclic_permutation_fast,
};
use qrqw_sim::{Machine, Pram};

fn show(label: &str, perm: &[u64]) {
    let cycles = cycle_representation(perm);
    let cycles_str: Vec<String> = cycles
        .iter()
        .map(|c| {
            let inner: Vec<String> = c.iter().map(|x| (x + 1).to_string()).collect();
            format!("({})", inner.join(" "))
        })
        .collect();
    let mapping: Vec<String> = perm.iter().map(|x| (x + 1).to_string()).collect();
    println!("{label}");
    println!(
        "  i      : {}",
        (1..=perm.len())
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("  pi(i)  : {}", mapping.join(" "));
    println!("  cycles : {}", cycles_str.join(" "));
    println!("  cyclic : {}\n", is_cyclic(perm));
}

fn main() {
    println!("Figure 1 reproduction — cyclic vs non-cyclic permutations\n");

    // The 5-element example of Section 5.1: dart positions 4 5 2 1 3 in a
    // 10-cell array, read with the two compression techniques.
    // Compaction order (non-cyclic permutation phi):
    let phi: Vec<u64> = vec![3, 4, 1, 0, 2];
    // Cycle-linking order (cyclic permutation pi): every item points to the
    // item occupying the next claimed cell, closing a single cycle.
    let pi: Vec<u64> = vec![2, 3, 4, 0, 1];

    show(
        "pi — cyclic permutation (successor linking, left side of Fig. 1)",
        &pi,
    );
    show(
        "phi — non-cyclic permutation (prefix-sums compaction, right side of Fig. 1)",
        &phi,
    );

    println!("Fresh samples from the two QRQW cyclic-permutation algorithms (n = 10):\n");
    let mut pram = Pram::with_seed(4, 42);
    let fast = random_cyclic_permutation_fast(&mut pram, 10);
    show(
        "Theorem 5.2 (fast, O(sqrt(lg n)) time) sample",
        &fast.successor,
    );
    let mut pram = Pram::with_seed(4, 43);
    let eff = random_cyclic_permutation_efficient(&mut pram, 10);
    show("Theorem 5.3 (work-optimal) sample", &eff.successor);
}
