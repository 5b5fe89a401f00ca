//! Regenerates Table II: the MasPar MP-1 random-permutation experiment.
//!
//! The original table reports the average wall-clock time of 1000 random
//! permutations of `[1..p]` for three algorithms at `p = 16,384` and
//! `p = 1,024`.  Here the same three algorithm *sources* (crate `qrqw-core`,
//! written against the `Machine` backend API) run natively on this machine's
//! cores through `qrqw_exec::NativeMachine`, and on the PRAM simulator so
//! the model-predicted ordering of Section 5.2's "asymptotic analysis of the
//! implemented algorithms" paragraph can be printed next to the measured
//! wall clock.
//!
//! Usage: `cargo run -p qrqw-bench --release --bin table2 [repetitions]`

use qrqw_bench::{Algorithm, Backend};
use qrqw_core::{
    random_permutation_dart_scan, random_permutation_qrqw, random_permutation_sorting_erew,
};
use qrqw_sim::{CostModel, Pram};

const TABLE2_ALGOS: [Algorithm; 3] = [
    Algorithm::PermutationSortingErew,
    Algorithm::PermutationDartScan,
    Algorithm::PermutationQrqw,
];

fn time_native(algo: Algorithm, n: usize, reps: u64) {
    let _ = algo.run(Backend::Native, n, 0, None); // warm-up
    let mut total_ms = 0.0;
    let mut contended = 0u64;
    for r in 0..reps {
        let run = algo.run(Backend::Native, n, r + 1, None);
        assert!(run.valid, "{} produced an invalid output", algo.name());
        total_ms += run.elapsed.as_secs_f64() * 1000.0;
        contended += run.report.contended_claims;
    }
    println!(
        "  {:<28} n={n:<6} avg {:>8.3} ms   (avg contended claims {:>8.1})",
        algo.name(),
        total_ms / reps as f64,
        contended as f64 / reps as f64
    );
}

fn simulated_times(n: usize) -> Vec<(&'static str, u64, u64)> {
    let mut out = Vec::new();
    let mut p = Pram::with_seed(4, 1);
    let _ = random_permutation_sorting_erew(&mut p, n);
    out.push((
        "sorting-based (erew)",
        p.trace().time(CostModel::SimdQrqw),
        p.trace().time(CostModel::ScanSimdQrqw),
    ));
    let mut p = Pram::with_seed(4, 1);
    let _ = random_permutation_dart_scan(&mut p, n);
    out.push((
        "dart-throwing with scans",
        p.trace().time(CostModel::SimdQrqw),
        p.trace().time(CostModel::ScanSimdQrqw),
    ));
    let mut p = Pram::with_seed(4, 1);
    let _ = random_permutation_qrqw(&mut p, n);
    out.push((
        "dart-throwing for qrqw",
        p.trace().time(CostModel::SimdQrqw),
        p.trace().time(CostModel::ScanSimdQrqw),
    ));
    out
}

fn main() {
    let reps: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("repetitions must be an integer"))
        .unwrap_or(100);

    println!(
        "Table II reproduction — random permutation on {} hardware threads",
        rayon::current_num_threads()
    );
    println!("(paper: MasPar MP-1, 1000 repetitions; here: {reps} repetitions per cell)");
    println!("(one algorithm source per row, executed through the Machine backend API)\n");

    for &n in &[16_384usize, 1_024] {
        println!("n = p = {n}  (native wall clock)");
        for algo in TABLE2_ALGOS {
            time_native(algo, n, reps);
        }
        println!();
    }

    println!("Model-predicted ordering (simulated, n = 1,024 and n = 4,096):");
    println!(
        "  {:<28} {:>14} {:>18}",
        "algorithm", "simd-qrqw time", "scan-simd-qrqw time"
    );
    for &n in &[1_024usize, 4_096] {
        for (label, t_simd, t_scan) in simulated_times(n) {
            println!("  {label:<28} {t_simd:>10} (n={n}) {t_scan:>12} (n={n})");
        }
    }
    println!("\nPaper's Table II (ms): sorting-based 11.25 / 10.01, dart+scan 8.02 / 6.05, qrqw dart 7.57 / 2.88.");
    println!("The claim to reproduce is the ordering (qrqw dart < dart+scan < sorting-based), not the absolute numbers.");
}
