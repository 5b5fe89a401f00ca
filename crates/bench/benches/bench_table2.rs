//! Criterion timings behind Table II: the three random-permutation
//! algorithms — one source each, executed through the `Machine` backend API
//! on the native pooled-threads/atomics machine at the paper's two machine sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrqw_bench::{Algorithm, Backend};

fn bench_native_permutations(c: &mut Criterion) {
    for &n in &[16_384usize, 1_024] {
        let mut g = c.benchmark_group(format!("table2/n={n}"));
        g.sample_size(20);
        for (label, algo) in [
            ("sorting_based_erew", Algorithm::PermutationSortingErew),
            ("dart_throwing_with_scans", Algorithm::PermutationDartScan),
            ("dart_throwing_qrqw", Algorithm::PermutationQrqw),
        ] {
            g.bench_function(BenchmarkId::new(label, n), |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    algo.run(Backend::Native, n, seed)
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_native_permutations);
criterion_main!(benches);
