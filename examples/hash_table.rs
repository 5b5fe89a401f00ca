//! Build the paper's two-level hash table (Section 6) for a synthetic key
//! set and answer a mixed batch of membership queries, reporting the
//! contention profile that the duplication technique (Lemma 6.4) produces.
//!
//! Run with `cargo run --release --example hash_table`.

use qrqw_suite::algos::QrqwHashTable;
use qrqw_suite::sim::{CostModel, Machine, Pram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 8192usize;
    let mut rng = SmallRng::seed_from_u64(2024);
    let mut set = std::collections::HashSet::new();
    while set.len() < n {
        set.insert(rng.gen_range(0..(1u64 << 31) - 1));
    }
    let keys: Vec<u64> = set.iter().copied().collect();

    let mut pram = Pram::with_seed(16, 99);
    let table = QrqwHashTable::build(&mut pram, &keys);
    let build = pram.take_trace();
    println!("Built a hash table for {n} keys:");
    println!("  iterations (oblivious rounds) : {}", table.iterations);
    println!(
        "  displacement parameters k     : {}",
        table.displacement_parameters()
    );
    println!("  build work                    : {}", build.work());
    println!(
        "  build time  (qrqw metric)     : {}",
        build.time(CostModel::Qrqw)
    );
    println!(
        "  build max contention          : {}",
        build.max_contention()
    );

    // Half present, half absent queries.
    let mut queries: Vec<u64> = keys.iter().take(n / 2).copied().collect();
    while queries.len() < n {
        let q = rng.gen_range(0..(1u64 << 31) - 1);
        if !set.contains(&q) {
            queries.push(q);
        }
    }
    let answers = table.lookup_batch(&mut pram, &queries);
    let hits = answers.iter().filter(|&&a| a).count();
    let lookup = pram.take_trace();
    println!(
        "\nAnswered {n} membership queries ({hits} hits, {} misses):",
        n - hits
    );
    println!(
        "  lookup time (qrqw metric)     : {}",
        lookup.time(CostModel::Qrqw)
    );
    println!(
        "  lookup time (crcw metric)     : {}",
        lookup.time(CostModel::Crcw)
    );
    println!(
        "  lookup max contention         : {}",
        lookup.max_contention()
    );
    println!("\nThe gap between max contention and n is the whole point: without the");
    println!("duplicated displacement parameters every query hitting the same a_j would");
    println!("queue on one cell and the qrqw lookup time would grow linearly in n.");

    assert_eq!(hits, n / 2);
}
