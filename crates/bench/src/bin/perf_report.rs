//! `perf_report` — records the cross-backend performance trajectory.
//!
//! Runs registry algorithms, or churn scenarios, on the selected backends
//! at a set of problem sizes, prints one line per run, and writes a
//! machine-readable JSON report, so the repository's perf history is a
//! committed artifact (`BENCH_native.json`, `BENCH_workloads.json`) instead
//! of folklore.  Both kinds are one sweep ([`qrqw_bench::sweep`]): per
//! `(subject, n)` the simulator's run is the reference, every cell is held
//! to it by the step-drift guard, and the simulator's BSP section (its run
//! priced as the Theorem 1.1 emulation) by the Theorem 1.1 check.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrqw-bench --release --bin perf_report            # full sweep
//! cargo run -p qrqw-bench --release --bin perf_report -- \
//!     [--backend sim,native,native-steal|all] [--sizes 65536,1048576] \
//!     [--algos all|name,name | --scenario all|name,name|<dist>/<i>:<d>:<l>/<epochs>] \
//!     [--seed 1] [--out PATH]
//! ```
//!
//! * `--backend` selects the backends (default: all); `native` and
//!   `native-steal` are the native machine under the chunked and the
//!   work-stealing schedule; a cell is keyed by that name, and whenever
//!   both ran a row carries their wall-clock ratio;
//! * `--algos` (default: the whole registry) and `--scenario` choose the
//!   subjects; they exclude each other.  A scenario runs the multi-epoch
//!   churn driver (`qrqw_bench::scenario`: hash table with deletes,
//!   fetch&add, load balancing, live state carried across epochs) and
//!   records contention vs. skew; it accepts registry names, `all`, or
//!   inline `<dist>/<i>:<d>:<l>/<epochs>` specs, and changes the defaults
//!   to `--sizes 4096` and `--out BENCH_workloads.json` (otherwise
//!   `--sizes 65536,1048576`, `--out BENCH_native.json`);
//! * the simulator's run is the row's reference exactly when `sim` is
//!   among `--backend`; without it an algorithm row's cells carry their
//!   validators only (the simulator pays O(work) host time per step, so a
//!   huge-n run is `--backend native,native-steal`), and `--scenario`,
//!   whose row records the reference's outcome, refuses the set;
//! * `QRQW_THREADS` sets the native pool size and the simulator's walk
//!   width (otherwise host parallelism decides);
//! * the exit code is non-zero if **any** cell fails its validator, the
//!   drift guard or the Theorem 1.1 check, so CI can use a small run
//!   as a cross-backend smoke check.
//!
//! Algorithms and scenarios write one document shape, `service_report`'s
//! header ([`qrqw_bench::report::sweep_json`]) over one row per
//! `(subject, n)`; the row is documented in [`qrqw_bench::sweep`].

use qrqw_bench::report::write_json_file;
use qrqw_bench::scenario::Scenario;
use qrqw_bench::sweep::Sweep;
use qrqw_bench::{Algorithm, Backend, Subject};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf_report [--backend sim,native,native-steal|all] [--sizes N,N] \
         [--algos all|name,name | --scenario all|name,name|<dist>/<i>:<d>:<l>/<epochs>] \
         [--seed S] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> (Sweep, String) {
    let mut sweep = Sweep {
        subjects: Algorithm::ALL.map(Subject::Algorithm).to_vec(),
        backends: Backend::ALL.to_vec(),
        sizes: Vec::new(),
        seed: 1,
    };
    let mut sizes = None;
    let mut out = None;
    let mut algos_explicit = false;
    let mut scenarios = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--backend" => {
                let spec = value();
                sweep.backends = Backend::parse_set(&spec)
                    .unwrap_or_else(|| usage(&format!("bad backend set {spec:?}")));
            }
            "--scenario" => {
                let set = Scenario::parse_set(&value()).unwrap_or_else(|e| usage(&e));
                sweep.subjects = set.into_iter().map(Subject::Scenario).collect();
                scenarios = true;
            }
            "--sizes" => {
                sizes = Some(
                    value()
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .unwrap_or_else(|_| usage(&format!("bad size {s:?}")))
                        })
                        .collect(),
                );
            }
            "--algos" => {
                let spec = value();
                algos_explicit = true;
                if spec != "all" {
                    sweep.subjects = spec
                        .split(',')
                        .map(|s| {
                            Algorithm::parse(s.trim())
                                .map(Subject::Algorithm)
                                .unwrap_or_else(|| usage(&format!("unknown algorithm {s:?}")))
                        })
                        .collect();
                }
            }
            "--seed" => sweep.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--out" => out = Some(value()),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if scenarios && algos_explicit {
        usage("--scenario sweeps scenarios, not algorithms; drop --algos");
    }
    let (default_sizes, default_out) = if scenarios {
        (vec![4096], "BENCH_workloads.json")
    } else {
        (vec![1 << 16, 1 << 20], "BENCH_native.json")
    };
    sweep.sizes = sizes.unwrap_or(default_sizes);
    let out = out.unwrap_or_else(|| default_out.to_string());
    if sweep.sizes.is_empty() || sweep.subjects.is_empty() {
        usage("need at least one size and one subject");
    }
    if scenarios && !sweep.backends.contains(&Backend::Sim) {
        usage("--scenario needs the sim reference; add sim to --backend");
    }
    (sweep, out)
}

fn main() {
    let (sweep, out) = parse_args();
    let (doc, all_valid) = sweep.run();
    write_json_file(&out, &doc);
    println!("wrote {out}");
    if !all_valid {
        eprintln!(
            "perf_report: at least one cell failed its validator, drifted from the simulator \
             or broke the Theorem 1.1 bound"
        );
        std::process::exit(1);
    }
}
