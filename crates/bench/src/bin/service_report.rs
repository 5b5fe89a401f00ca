//! `service_report` — the committed service sweeps, `BENCH_service.json`
//! and `BENCH_chaos.json`.
//!
//! Sweeps resident keys × panic rate × batch cap × workload and records,
//! per cell: sustained requests/second and goodput, p50/p99/p999
//! submit→response latency, mean realized batch size, per-batch
//! contention, and what fault tolerance costs — per-batch snapshot
//! overhead (time and cells copied) and mean rollback-plus-bisection
//! recovery latency.  Every run is validated (see
//! `qrqw_bench::service`: no wedged ticket, every error reply explained by
//! the fault plan, the final state against the acknowledged replies, and
//! with one client a oneshot replay); `"all_valid"` gates CI.
//!
//! A panic rate of 0 is a quiet plan; any rate above 0 also carries a
//! fixed trickle of 25 injected errors and 5 submitter stalls of 200 µs
//! per 10,000 requests.  Clients pipeline `ceil(batch_max / clients)`
//! requests each so the large caps can actually fill (a strict closed loop
//! with 4 clients can never form a batch of more than 4), and each client
//! submits 4000 requests (300 under `--quick`) but at least twice its
//! window, so every configuration closes multiple full batches.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrqw-bench --release --bin service_report   # → BENCH_service.json
//! cargo run -p qrqw-bench --release --bin service_report -- \
//!     --clients 1 --batch-sizes 64 --key-dist zipf:1 --panic-rates 0,25,100,400 \
//!     --resident-keys 4096,65536,1048576 --out BENCH_chaos.json
//! cargo run -p qrqw-bench --release --bin service_report -- \
//!     [--clients N] [--batch-sizes 1,64,1024,8192] \
//!     [--workloads hash,counter,task,mix] [--key-dist uniform|zipf:<s>|power-law|all-same|adversarial] \
//!     [--panic-rates 0] [--resident-keys 0] [--seed S] [--quick] [--out PATH]
//! ```
//!
//! The first command is the batch-cap sweep, the second the fault sweep.
//! `--quick` shrinks the per-run load for CI smoke use and writes a file
//! only when `--out` names one; the committed artifacts are generated
//! without it.  The server's pool is `StepPool::from_env`'s: `QRQW_THREADS`
//! sets its size.

use qrqw_bench::report::{sweep_json, write_json_file};
use qrqw_bench::service::{
    run_service_load, FaultPlan, KeyDist, LoadSpec, RunSummary, ServiceWorkload,
};
use qrqw_serve::{BatchPolicy, ServiceConfig};

/// Requests each client submits (or twice its window, if more).
const REQUESTS: usize = 4000;
/// [`REQUESTS`] under `--quick`.
const QUICK_REQUESTS: usize = 300;

struct Cli {
    clients: usize,
    batch_sizes: Vec<usize>,
    workloads: Vec<ServiceWorkload>,
    key_dist: KeyDist,
    panic_rates: Vec<u32>,
    resident_keys: Vec<usize>,
    seed: u64,
    quick: bool,
    out: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: service_report [--clients N] [--batch-sizes N,N] \
         [--workloads hash,counter,task,mix] [--key-dist uniform|zipf:<s>|power-law|all-same|adversarial] \
         [--panic-rates N,N] [--resident-keys N,N] [--seed S] [--quick] [--out PATH]"
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
        clients: 4,
        batch_sizes: vec![1, 64, 1024, 8192],
        workloads: ServiceWorkload::ALL.to_vec(),
        key_dist: KeyDist::Uniform,
        panic_rates: vec![0],
        resident_keys: vec![0],
        seed: 1,
        quick: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--clients" => cli.clients = value().parse().unwrap_or_else(|_| usage("bad --clients")),
            "--batch-sizes" => cli.batch_sizes = parse_list(&value(), "batch size"),
            "--workloads" => {
                cli.workloads = value()
                    .split(',')
                    .map(|s| {
                        ServiceWorkload::parse(s.trim())
                            .unwrap_or_else(|| usage(&format!("unknown workload {s:?}")))
                    })
                    .collect();
            }
            "--key-dist" => {
                let spec = value();
                cli.key_dist = KeyDist::parse(&spec).unwrap_or_else(|e| usage(&e));
            }
            "--panic-rates" => cli.panic_rates = parse_list(&value(), "panic rate"),
            "--resident-keys" => cli.resident_keys = parse_list(&value(), "resident key count"),
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(value()),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if cli.batch_sizes.is_empty()
        || cli.workloads.is_empty()
        || cli.panic_rates.is_empty()
        || cli.resident_keys.is_empty()
    {
        usage("need at least one batch size, workload, panic rate and resident key count");
    }
    cli
}

fn main() {
    let cli = parse_args();
    // Injected panics are caught and rolled back by the batcher, but the
    // process-global panic hook would still print a message (and possibly
    // a backtrace) for every one — hundreds of lines of expected noise in
    // a fault sweep.  Silence the hook for the batcher thread only; a
    // genuine batcher bug still surfaces through the validators.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() != Some("qrqw-serve-batcher") {
            default_hook(info);
        }
    }));
    let threads = qrqw_exec::StepPool::from_env().threads();
    println!(
        "service_report: {} clients, batch sizes {:?}, workloads {:?}, key-dist {}, \
         panic rates {:?}/10k, resident keys {:?}, seed {}, threads {}{}",
        cli.clients,
        cli.batch_sizes,
        cli.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
        cli.key_dist.name(),
        cli.panic_rates,
        cli.resident_keys,
        cli.seed,
        threads,
        if cli.quick { " [quick]" } else { "" },
    );
    let base = if cli.quick { QUICK_REQUESTS } else { REQUESTS };
    let mut runs = Vec::new();
    for &resident_keys in &cli.resident_keys {
        for &panic_per_10k in &cli.panic_rates {
            for &batch_max in &cli.batch_sizes {
                for &workload in &cli.workloads {
                    let window = batch_max.div_ceil(cli.clients.max(1)).max(1);
                    let spec = LoadSpec {
                        clients: cli.clients,
                        requests_per_client: base.max(2 * window),
                        window,
                        workload,
                        key_dist: cli.key_dist,
                        keyspace: 4096,
                        faults: FaultPlan::sweep(panic_per_10k),
                        resident_keys,
                        seed: cli.seed,
                    };
                    let policy = BatchPolicy::with_max_batch(batch_max);
                    let config = ServiceConfig {
                        seed: cli.seed,
                        ..ServiceConfig::default()
                    };
                    let summary = run_service_load(config, policy, &spec);
                    summary.print_row();
                    for finding in &summary.validation_errors {
                        eprintln!("service_report: validator: {finding}");
                    }
                    runs.push(summary);
                }
            }
        }
    }
    let all_valid = runs.iter().all(RunSummary::valid);
    let out = cli
        .out
        .or_else(|| (!cli.quick).then(|| "BENCH_service.json".to_string()));
    if let Some(out) = out {
        let runs = runs.iter().map(RunSummary::to_json).collect();
        let doc = sweep_json(
            "service_report",
            cli.seed,
            threads,
            Vec::new(),
            all_valid,
            runs,
        );
        write_json_file(&out, &doc);
        println!("wrote {out}");
    }
    if !all_valid {
        eprintln!("service_report: at least one run failed validation");
        std::process::exit(1);
    }
}
