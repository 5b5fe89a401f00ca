//! `service_bench` — load generator for the `qrqw-serve` request service.
//!
//! Spawns a batched server, drives it with N concurrent client threads
//! (closed-loop, optionally rate-paced, optionally pipelined through a
//! per-client window), prints sustained throughput and latency
//! percentiles, and validates the final service state against the
//! acknowledged replies.  Exit code is non-zero if any client got an
//! unexpected error or the validator found an inconsistency.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrqw-bench --release --bin service_bench -- \
//!     [--clients N] [--requests N]   # per client \
//!     [--window W] [--rate R]        # pipelining / target aggregate req/s \
//!     [--workload hash|counter|task|churn|mix] [--key-dist uniform|zipf:<s>|power-law|all-same|adversarial] \
//!     [--keyspace N] [--batch-max B] \
//!     [--threads T] [--seed S] [--out PATH] [--smoke]
//! ```
//!
//! * `--batch-max` sets `BatchPolicy::max_batch` (default 256); a batch
//!   is whatever the queue holds when the batcher takes it, up to that cap;
//! * `--key-dist zipf` concentrates traffic on a few hot keys — the
//!   high-contention regime the model charges for; compare its
//!   `contention_per_batch` against `uniform`;
//! * `--smoke` runs a small fixed configuration (2 clients) and fails
//!   loudly unless the run completes with nonzero throughput, zero
//!   errors, and a clean validator — the CI entry point.

use qrqw_bench::report::{sweep_json, write_json_file};
use qrqw_bench::service::{run_service_load, KeyDist, LoadSpec, ServiceWorkload};
use qrqw_serve::{BatchPolicy, ServiceConfig};

struct Cli {
    spec: LoadSpec,
    policy: BatchPolicy,
    threads: Option<usize>,
    out: Option<String>,
    smoke: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: service_bench [--clients N] [--requests N] [--window W] [--rate R] \
         [--workload hash|counter|task|churn|mix] [--key-dist uniform|zipf:<s>|power-law|all-same|adversarial] [--keyspace N] \
         [--batch-max B] [--threads T] [--seed S] [--out PATH] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        spec: LoadSpec {
            clients: 4,
            requests_per_client: 5000,
            window: 16,
            rate: 0.0,
            workload: ServiceWorkload::Mix,
            key_dist: KeyDist::Uniform,
            keyspace: 4096,
            seed: 1,
        },
        policy: BatchPolicy::default(),
        threads: None,
        out: None,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--clients" => {
                cli.spec.clients = value().parse().unwrap_or_else(|_| usage("bad --clients"))
            }
            "--requests" => {
                cli.spec.requests_per_client =
                    value().parse().unwrap_or_else(|_| usage("bad --requests"))
            }
            "--window" => {
                cli.spec.window = value().parse().unwrap_or_else(|_| usage("bad --window"))
            }
            "--rate" => cli.spec.rate = value().parse().unwrap_or_else(|_| usage("bad --rate")),
            "--workload" => {
                let spec = value();
                cli.spec.workload = ServiceWorkload::parse(&spec)
                    .unwrap_or_else(|| usage(&format!("unknown workload {spec:?}")));
            }
            "--key-dist" => {
                let spec = value();
                cli.spec.key_dist = KeyDist::parse(&spec).unwrap_or_else(|e| usage(&e));
            }
            "--keyspace" => {
                cli.spec.keyspace = value().parse().unwrap_or_else(|_| usage("bad --keyspace"))
            }
            "--batch-max" => {
                cli.policy.max_batch = value()
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage("bad --batch-max"))
                    .max(1)
            }
            "--threads" => {
                cli.threads = Some(value().parse().unwrap_or_else(|_| usage("bad --threads")))
            }
            "--seed" => cli.spec.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--out" => cli.out = Some(value()),
            "--smoke" => cli.smoke = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if cli.smoke {
        // Fixed small configuration: 2 clients, a mixed workload, a batch
        // cap small enough that several batches definitely close.
        cli.spec.clients = 2;
        cli.spec.requests_per_client = 400;
        cli.spec.window = 8;
        cli.spec.rate = 0.0;
        cli.spec.workload = ServiceWorkload::Mix;
        cli.spec.keyspace = 512;
        cli.policy = BatchPolicy::with_max_batch(64);
    }
    cli
}

fn main() {
    let cli = parse_args();
    let config = ServiceConfig {
        seed: cli.spec.seed,
        ..ServiceConfig::default()
    };
    println!(
        "service_bench: {} clients x {} requests, window {}, workload {}, key-dist {} over {}, \
         batch_max {}{}",
        cli.spec.clients,
        cli.spec.requests_per_client,
        cli.spec.window,
        cli.spec.workload.name(),
        cli.spec.key_dist.name(),
        cli.spec.keyspace,
        cli.policy.max_batch,
        if cli.smoke { " [smoke]" } else { "" },
    );
    let summary = run_service_load(config, cli.policy, cli.threads, &cli.spec);
    summary.print_row();
    for finding in &summary.validation_errors {
        eprintln!("service_bench: validator: {finding}");
    }
    if let Some(path) = &cli.out {
        let threads = cli
            .threads
            .unwrap_or_else(|| qrqw_exec::StepPool::from_env().threads());
        let doc = sweep_json(
            "service_bench",
            cli.spec.seed,
            threads,
            summary.valid() && summary.errors == 0,
            vec![summary.to_json()],
        );
        write_json_file(path, &doc);
        println!("wrote {path}");
    }
    let expected = (cli.spec.clients.max(1) * cli.spec.requests_per_client) as u64;
    let mut failed = false;
    if summary.completed != expected {
        eprintln!(
            "service_bench: completed {} of {expected} requests",
            summary.completed
        );
        failed = true;
    }
    if summary.errors != 0 {
        eprintln!("service_bench: {} requests got errors", summary.errors);
        failed = true;
    }
    if !summary.valid() {
        failed = true;
    }
    if cli.smoke && summary.req_per_s() <= 0.0 {
        eprintln!("service_bench: smoke run measured zero throughput");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
