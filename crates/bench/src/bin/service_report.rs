//! `service_report` — the committed `BENCH_service.json` sweep.
//!
//! Sweeps the batching policy's size cap over {1, 64, 1024, 8192} for each
//! of the three service workloads (hash / counter / task) and records, per
//! (workload, batch cap): sustained requests/second, p50/p99/p999
//! submit→response latency, mean realized batch size, and per-batch
//! contention — the service-level throughput/latency trade the batching
//! policy exists to navigate.  Every run is validated against the final
//! machine state; `"all_valid"` gates CI.
//!
//! Clients pipeline `ceil(batch_max / clients)` requests each so the large
//! caps can actually fill (a strict closed loop with 4 clients can never
//! form a batch of more than 4), and each client submits at least twice
//! its window so every configuration closes multiple full batches.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrqw-bench --release --bin service_report            # full sweep
//! cargo run -p qrqw-bench --release --bin service_report -- \
//!     [--clients N] [--requests N] [--batch-sizes 1,64,1024,8192] \
//!     [--workloads hash,counter,task,churn,mix] [--key-dist uniform|zipf:<s>|power-law|all-same|adversarial] \
//!     [--threads T] [--seed S] [--quick] [--out BENCH_service.json]
//! ```
//!
//! `--quick` shrinks the per-run load for CI smoke use; the committed
//! artifact is generated with the defaults.

use qrqw_bench::report::{sweep_json, write_json_file};
use qrqw_bench::service::{run_service_load, KeyDist, LoadSpec, RunSummary, ServiceWorkload};
use qrqw_serve::{BatchPolicy, ServiceConfig};

struct Cli {
    clients: usize,
    requests: usize,
    batch_sizes: Vec<usize>,
    workloads: Vec<ServiceWorkload>,
    key_dist: KeyDist,
    threads: Option<usize>,
    seed: u64,
    quick: bool,
    out: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: service_report [--clients N] [--requests N] [--batch-sizes N,N] \
         [--workloads hash,counter,task,churn,mix] [--key-dist uniform|zipf:<s>|power-law|all-same|adversarial] [--threads T] \
         [--seed S] [--quick] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        clients: 4,
        requests: 4000,
        batch_sizes: vec![1, 64, 1024, 8192],
        workloads: ServiceWorkload::ALL.to_vec(),
        key_dist: KeyDist::Uniform,
        threads: None,
        seed: 1,
        quick: false,
        out: "BENCH_service.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--clients" => cli.clients = value().parse().unwrap_or_else(|_| usage("bad --clients")),
            "--requests" => {
                cli.requests = value().parse().unwrap_or_else(|_| usage("bad --requests"))
            }
            "--batch-sizes" => {
                cli.batch_sizes = value()
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad batch size {s:?}")))
                    })
                    .collect();
            }
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
            "--threads" => {
                cli.threads = Some(value().parse().unwrap_or_else(|_| usage("bad --threads")))
            }
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--quick" => cli.quick = true,
            "--out" => cli.out = value(),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if cli.batch_sizes.is_empty() || cli.workloads.is_empty() {
        usage("need at least one batch size and one workload");
    }
    cli
}

fn main() {
    let cli = parse_args();
    let threads = cli
        .threads
        .unwrap_or_else(|| qrqw_exec::StepPool::from_env().threads());
    println!(
        "service_report: {} clients, batch sizes {:?}, workloads {:?}, key-dist {}, seed {}, \
         threads {}{}",
        cli.clients,
        cli.batch_sizes,
        cli.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
        cli.key_dist.name(),
        cli.seed,
        threads,
        if cli.quick { " [quick]" } else { "" },
    );
    let mut runs = Vec::new();
    for &batch_max in &cli.batch_sizes {
        for &workload in &cli.workloads {
            let window = batch_max.div_ceil(cli.clients.max(1)).max(1);
            let base = if cli.quick {
                cli.requests.min(300)
            } else {
                cli.requests
            };
            let spec = LoadSpec {
                clients: cli.clients,
                requests_per_client: base.max(2 * window),
                window,
                workload,
                key_dist: cli.key_dist,
                keyspace: 4096,
                seed: cli.seed,
            };
            let policy = BatchPolicy::with_max_batch(batch_max);
            let config = ServiceConfig {
                seed: cli.seed,
                ..ServiceConfig::default()
            };
            let summary = run_service_load(config, policy, cli.threads, &spec);
            summary.print_row();
            for finding in &summary.validation_errors {
                eprintln!("service_report: validator: {finding}");
            }
            runs.push(summary);
        }
    }
    let all_valid = runs.iter().all(|r| r.valid() && r.errors == 0);
    let runs = runs.iter().map(RunSummary::to_json).collect();
    let doc = sweep_json("service_report", cli.seed, threads, all_valid, runs);
    write_json_file(&cli.out, &doc);
    println!("wrote {}", cli.out);
    if !all_valid {
        eprintln!("service_report: at least one run failed validation");
        std::process::exit(1);
    }
}
