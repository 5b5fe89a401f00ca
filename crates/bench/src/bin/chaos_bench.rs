//! `chaos_bench` — the committed `BENCH_chaos.json` fault-injection sweep.
//!
//! Drives the fault-tolerant serving layer with a single deterministic
//! submitter under seeded [`FaultPlan`]s, sweeping the panic-injection
//! rate over {0, 25, 100, 400} per 10,000 requests (plus a constant trickle
//! of injected errors) for each service workload and each resident-state
//! size (2¹², 2¹⁶, 2²⁰ preloaded hash keys), and records what fault
//! tolerance costs: goodput, shed/failed counts, per-batch snapshot
//! overhead (time and cells copied), and mean rollback-plus-bisection
//! recovery latency — the last three flat across the resident axis is the
//! committed evidence that checkpoints cost O(batch), not O(state).  Every run
//! is validated — no wedged tickets, exact poison isolation, and digest
//! parity against a fault-free oneshot replay of the applied requests —
//! and `"all_valid"` gates CI.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrqw-bench --release --bin chaos_bench               # full sweep
//! cargo run -p qrqw-bench --release --bin chaos_bench -- \
//!     [--requests N] [--window N] [--batch-max N] \
//!     [--panic-rates 0,25,100,400] [--workloads hash,counter,task] \
//!     [--resident-keys 4096,65536,1048576] \
//!     [--threads T] [--seed S] [--smoke] [--out BENCH_chaos.json]
//! ```
//!
//! `--smoke` runs a small fixed matrix and writes no file — it exists for
//! CI, exiting nonzero if any validator fails.  `--panic-rates` sets the
//! swept panic rate and `--seed` the fault stream's seed; every plan
//! carries 25 injected errors (and, outside `--smoke`, 5 submitter stalls)
//! per 10,000 requests.

use std::time::Duration;

use qrqw_bench::chaos::{run_chaos, ChaosSpec, ChaosSummary, FaultPlan};
use qrqw_bench::report::{sweep_json, write_json_file};
use qrqw_bench::service::ServiceWorkload;
use qrqw_serve::{BatchPolicy, ServiceConfig};

struct Cli {
    requests: usize,
    window: usize,
    batch_max: usize,
    panic_rates: Vec<u32>,
    workloads: Vec<ServiceWorkload>,
    resident_keys: Vec<usize>,
    threads: Option<usize>,
    seed: u64,
    smoke: bool,
    out: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: chaos_bench [--requests N] [--window N] [--batch-max N] \
         [--panic-rates N,N] [--workloads hash,counter,task] [--resident-keys N,N] [--threads T] \
         [--seed S] [--smoke] [--out PATH]"
    );
    std::process::exit(2);
}

/// A comma-separated list of numbers; `what` names one element in errors.
fn parse_list<T: std::str::FromStr>(raw: &str, what: &str) -> Vec<T> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad {what} {s:?}")))
        })
        .collect()
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        requests: 3000,
        window: 64,
        batch_max: 64,
        panic_rates: vec![0, 25, 100, 400],
        workloads: ServiceWorkload::ALL.to_vec(),
        resident_keys: vec![1 << 12, 1 << 16, 1 << 20],
        threads: None,
        seed: 1,
        smoke: false,
        out: "BENCH_chaos.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--requests" => {
                cli.requests = value().parse().unwrap_or_else(|_| usage("bad --requests"))
            }
            "--window" => cli.window = value().parse().unwrap_or_else(|_| usage("bad --window")),
            "--batch-max" => {
                cli.batch_max = value().parse().unwrap_or_else(|_| usage("bad --batch-max"))
            }
            "--panic-rates" => cli.panic_rates = parse_list(&value(), "panic rate"),
            "--workloads" => {
                cli.workloads = value()
                    .split(',')
                    .map(|s| {
                        ServiceWorkload::parse(s.trim())
                            .unwrap_or_else(|| usage(&format!("unknown workload {s:?}")))
                    })
                    .collect();
            }
            "--resident-keys" => cli.resident_keys = parse_list(&value(), "resident key count"),
            "--threads" => {
                cli.threads = Some(value().parse().unwrap_or_else(|_| usage("bad --threads")))
            }
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = value(),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if cli.panic_rates.is_empty() || cli.workloads.is_empty() || cli.resident_keys.is_empty() {
        usage("need at least one panic rate, one workload and one resident key count");
    }
    cli
}

fn main() {
    let cli = parse_args();
    // Injected panics are caught and rolled back by the batcher, but the
    // process-global panic hook would still print a message (and possibly
    // a backtrace) for every one — hundreds of lines of expected noise in
    // a chaos sweep.  Silence the hook for the batcher thread only; a
    // genuine batcher bug still surfaces through the validators.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() != Some("qrqw-serve-batcher") {
            default_hook(info);
        }
    }));
    let threads = cli
        .threads
        .unwrap_or_else(|| qrqw_exec::StepPool::from_env().threads());
    let (requests, resident_keys) = if cli.smoke {
        (cli.requests.min(400), vec![1 << 12])
    } else {
        (cli.requests, cli.resident_keys)
    };
    println!(
        "chaos_bench: {} requests, window {}, batch_max {}, panic rates {:?}/10k, \
         workloads {:?}, resident keys {:?}, seed {}, threads {}{}",
        requests,
        cli.window,
        cli.batch_max,
        cli.panic_rates,
        cli.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
        resident_keys,
        cli.seed,
        threads,
        if cli.smoke { " [smoke]" } else { "" },
    );
    let mut runs = Vec::new();
    for &resident_keys in &resident_keys {
        for &panic_per_10k in &cli.panic_rates {
            for &workload in &cli.workloads {
                // A constant trickle of injected errors and stalls rides
                // along (they are cheap faults; panics are the expensive
                // dimension).
                let plan = FaultPlan {
                    panic_per_10k,
                    error_per_10k: 25,
                    delay_per_10k: if cli.smoke { 0 } else { 5 },
                    delay: Duration::from_micros(200),
                    seed: cli.seed ^ 0xFA17,
                };
                let spec = ChaosSpec {
                    workload,
                    requests,
                    window: cli.window,
                    keyspace: 512,
                    resident_keys,
                    seed: cli.seed,
                };
                let policy = BatchPolicy::with_max_batch(cli.batch_max);
                // The table is sized for its resident load (quarter full),
                // so no run straddles a capacity doubling — growth is the
                // one event that legitimately rewrites O(state) cells.
                let config = ServiceConfig {
                    seed: cli.seed,
                    hash_capacity: ServiceConfig::default()
                        .hash_capacity
                        .max(4 * resident_keys),
                    ..ServiceConfig::default()
                };
                let summary = run_chaos(config, policy, threads, plan, &spec);
                summary.print_row();
                for finding in &summary.validation_errors {
                    eprintln!("chaos_bench: validator: {finding}");
                }
                runs.push(summary);
            }
        }
    }
    let all_valid = runs.iter().all(|r| r.valid());
    if !cli.smoke {
        let runs = runs.iter().map(ChaosSummary::to_json).collect();
        let doc = sweep_json("chaos_bench", cli.seed, threads, all_valid, runs);
        write_json_file(&cli.out, &doc);
        println!("wrote {}", cli.out);
    }
    if !all_valid {
        eprintln!("chaos_bench: at least one run failed validation");
        std::process::exit(1);
    }
    let wedged: u64 = runs.iter().map(|r| r.wedged).sum();
    assert_eq!(wedged, 0, "wedged tickets slipped past the validators");
}
