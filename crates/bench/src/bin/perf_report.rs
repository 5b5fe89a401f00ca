//! `perf_report` — records the cross-backend performance trajectory.
//!
//! Runs registry algorithms, or churn scenarios, on the selected backends
//! at a set of problem sizes, prints one line per run, and writes a
//! machine-readable JSON report, so the repository's perf history is a
//! committed artifact (`BENCH_native.json`, `BENCH_workloads.json`) instead
//! of folklore.  Both kinds are one sweep ([`qrqw_bench::sweep`]): per
//! `(subject, n)` the simulator's run is the reference, and every cell is
//! held to it by the step-drift guard and, on BSP, the Theorem 1.1
//! cross-check.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrqw-bench --release --bin perf_report            # full sweep
//! cargo run -p qrqw-bench --release --bin perf_report -- \
//!     [--backend sim,native,native-steal,bsp|all] [--sizes 65536,1048576] \
//!     [--algos all|name,name | --scenario all|name,name|<dist>/<i>:<d>:<l>/<epochs>] \
//!     [--seed 1] [--threads N] [--sim-cap N] [--bsp-cap N] [--out PATH]
//! ```
//!
//! * `--backend` selects the reported backends (default: all); `native`
//!   and `native-steal` are the native machine under the chunked and the
//!   work-stealing schedule, and whenever both ran an algorithm row carries
//!   their wall-clock ratio;
//! * `--algos` (default: the whole registry) and `--scenario` choose the
//!   subjects; they exclude each other.  A scenario runs the multi-epoch
//!   churn driver (`qrqw_bench::scenario`: hash table with deletes,
//!   fetch&add, load balancing, live state carried across epochs) and
//!   records contention vs. skew; it accepts registry names, `all`, or
//!   inline `<dist>/<i>:<d>:<l>/<epochs>` specs, and changes the defaults
//!   to `--sizes 4096` and `--out BENCH_workloads.json` (otherwise
//!   `--sizes 65536,1048576`, `--out BENCH_native.json`);
//! * `--threads` forces the native/BSP thread count (otherwise
//!   `QRQW_THREADS` / host parallelism decides);
//! * `--sim-cap` / `--bsp-cap` skip simulator / BSP runs above that size:
//!   both machines pay O(work) host time per step and hold a step log, so
//!   the huge-n native columns of `BENCH_native.json` are affordable only
//!   with them (the BSP cap defaults to 2¹⁷).  A capped column is `null`
//!   in the JSON; above `--sim-cap` an algorithm row has no reference and
//!   is unguarded, and a scenario, whose row is the reference's outcome,
//!   refuses the size;
//! * the simulator reference runs for every `(subject, n)` within
//!   `--sim-cap` whether or not `sim` is reported, so every other cell at
//!   that size is guarded;
//! * the exit code is non-zero if **any** cell fails its validator, the
//!   drift guard or the Theorem 1.1 cross-check, so CI can use a small run
//!   as a cross-backend smoke check.
//!
//! The JSON shapes are documented in [`qrqw_bench::sweep`].

use qrqw_bench::report::write_json_file;
use qrqw_bench::scenario::Scenario;
use qrqw_bench::sweep::Sweep;
use qrqw_bench::{Algorithm, Backend, Subject};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf_report [--backend sim,native,native-steal,bsp|all] [--sizes N,N] \
         [--algos all|name,name | --scenario all|name,name|<dist>/<i>:<d>:<l>/<epochs>] \
         [--seed S] [--threads T] [--sim-cap N] [--bsp-cap N] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> (Sweep, String) {
    let mut sweep = Sweep {
        subjects: Algorithm::ALL.map(Subject::Algorithm).to_vec(),
        backends: Backend::ALL.to_vec(),
        sizes: Vec::new(),
        seed: 1,
        threads: None,
        sim_cap: usize::MAX,
        bsp_cap: 1 << 17,
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
            "--threads" => {
                sweep.threads = Some(value().parse().unwrap_or_else(|_| usage("bad --threads")))
            }
            "--sim-cap" => {
                sweep.sim_cap = value().parse().unwrap_or_else(|_| usage("bad --sim-cap"))
            }
            "--bsp-cap" => {
                sweep.bsp_cap = value().parse().unwrap_or_else(|_| usage("bad --bsp-cap"))
            }
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
    let over_sim_cap = sweep.sizes.iter().find(|&&n| n > sweep.sim_cap);
    if let (true, Some(n)) = (scenarios, over_sim_cap) {
        usage(&format!(
            "--scenario needs the sim reference at every size, but n={n} > --sim-cap {}",
            sweep.sim_cap
        ));
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
