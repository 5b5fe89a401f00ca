//! Sorting keys drawn from U(0,1) (Section 7.1) and general keys with the
//! sample-sort of Section 7.2, compared against the bitonic system sort.
//!
//! Run with `cargo run --release --example distributive_sort`.

use qrqw_suite::algos::{sample_sort_qrqw, sort_uniform_keys};
use qrqw_suite::prims::bitonic_sort;
use qrqw_suite::sim::{CostModel, Machine, Pram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 16_384usize;
    let mut rng = SmallRng::seed_from_u64(7);
    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..(1u64 << 31))).collect();

    // U(0,1) distributive sort (Theorem 7.1).
    let mut a = Pram::with_seed(16, 1);
    let sorted = sort_uniform_keys(&mut a, &keys);
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));

    // General-keys sample sort with the binary-search fat-tree (Theorem 7.3).
    let mut b = Pram::with_seed(16, 2);
    let sorted2 = sample_sort_qrqw(&mut b, &keys);
    assert_eq!(sorted, sorted2);

    // The EREW system sort (bitonic) for comparison.
    let mut c = Pram::with_seed(16, 3);
    let base = c.alloc(n);
    c.load(base, &keys);
    bitonic_sort(&mut c, base, n);

    println!("Sorting {n} uniform keys — simulated cost under the QRQW metric:");
    println!(
        "  {:<36} time {:>7}  work {:>10}  max contention {:>4}",
        "distributive sort (Thm 7.1)",
        a.trace().time(CostModel::Qrqw),
        a.trace().work(),
        a.trace().max_contention()
    );
    println!(
        "  {:<36} time {:>7}  work {:>10}  max contention {:>4}",
        "sample sort + fat tree (Thm 7.3)",
        b.trace().time(CostModel::Qrqw),
        b.trace().work(),
        b.trace().max_contention()
    );
    println!(
        "  {:<36} time {:>7}  work {:>10}  max contention {:>4}",
        "bitonic sort (erew baseline)",
        c.trace().time(CostModel::Qrqw),
        c.trace().work(),
        c.trace().max_contention()
    );
    println!("\nThe distributive sort is the only one of the three with linear work —");
    println!("that is exactly the Table I row for sorting from U(0,1).");
}
