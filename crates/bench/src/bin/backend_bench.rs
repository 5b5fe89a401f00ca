//! One entry point to run and time *any* `Machine`-ported algorithm on
//! *either* backend.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrqw-bench --release --bin backend_bench                 # full sweep
//! cargo run -p qrqw-bench --release --bin backend_bench -- \
//!     [algorithm] [backend] [n] [reps] [seed]
//! ```
//!
//! `algorithm` is one of the names printed by the sweep (e.g.
//! `permutation-qrqw`, `linear-compaction`, `load-balance-qrqw`) or `all`;
//! `backend` is a backend name (`sim`, `native`, `native-steal`, `bsp`), a
//! comma-separated list, or `all` (the default).  `native`
//! and `native-steal` are the native machine under the chunked and the
//! work-stealing chunk schedule.

use qrqw_bench::{Algorithm, Backend, BackendRun};

fn run_cell(algo: Algorithm, backend: Backend, n: usize, reps: u64, seed: u64) {
    let mut last: Option<BackendRun> = None;
    let mut total_ms = 0.0;
    for r in 0..reps {
        let run = algo.run(backend, n, seed + r, None);
        assert!(
            run.valid,
            "{} produced an invalid output on {}",
            algo.name(),
            backend.name()
        );
        total_ms += run.elapsed.as_secs_f64() * 1e3;
        last = Some(run);
    }
    let last = last.expect("at least one repetition");
    println!(
        "{:<26} {:<7} n={:<7} avg {:>9.3} ms over {reps} reps   {}",
        last.algorithm,
        last.backend,
        n,
        total_ms / reps as f64,
        last.report
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let algo_arg = args.first().map(String::as_str).unwrap_or("all");
    let backend_arg = args.get(1).map(String::as_str).unwrap_or("all");
    let n: usize = args.get(2).map(|s| s.parse().expect("n")).unwrap_or(4096);
    let reps: u64 = args.get(3).map(|s| s.parse().expect("reps")).unwrap_or(5);
    let seed: u64 = args.get(4).map(|s| s.parse().expect("seed")).unwrap_or(1);

    let algos: Vec<Algorithm> = if algo_arg == "all" {
        Algorithm::ALL.to_vec()
    } else {
        vec![Algorithm::parse(algo_arg).unwrap_or_else(|| {
            eprintln!("unknown algorithm `{algo_arg}`; known:");
            for a in Algorithm::ALL {
                eprintln!("  {}", a.name());
            }
            std::process::exit(2);
        })]
    };
    let backends: Vec<Backend> = Backend::parse_set(backend_arg).unwrap_or_else(|| {
        eprintln!(
            "unknown backend set `{backend_arg}` \
             (sim | native | native-steal | bsp | name,name | all)"
        );
        std::process::exit(2);
    });

    println!("machine-backend bench: n={n}, {reps} reps, seed {seed}\n");
    for algo in &algos {
        for backend in &backends {
            run_cell(*algo, *backend, n, reps, seed);
        }
    }
}
