//! `perfbench`: the repository benchmark.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints the driver's result object as the last line of
//! standard output; see `README.md` for the metric definitions and
//! `run.sh` for the other modes.

mod basket;
mod machines;
mod oracle;
mod probes;
mod proc;
mod report;
mod rng;
mod serve;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use trace::Tracer;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --emit-spec | --list | --run-seconds",
        spec::WORKLOADS.map(|(n, _)| n).join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    spec::WORKLOADS
        .iter()
        .any(|(n, _)| *n == args.workload)
        .then_some(args)
}

/// Every `QRQW_*` variable is an override of something this harness pins
/// (threads, schedule, fusion, batch policy, BSP components); none may
/// leak in.  Runs before any pool or thread exists.
fn strip_environment() {
    let stale: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QRQW_"))
        .collect();
    for key in stale {
        println!("# ignoring environment override {key}");
        std::env::remove_var(key);
    }
}

fn print_trace(t: &Tracer, result: &mut report::RunResult, workload: &str) {
    let rep = t.report();
    result.note(format!(
        "trace: {} spans, traced wall {:.3} s, self-time closure error {:.5}",
        t.spans().len(),
        rep.traced_wall_ns as f64 / 1e9,
        rep.closure_error()
    ));
    result.note(format!(
        "{:<28} {:>9} {:>13} {:>12} {:>12}",
        "span", "spans", "count", "total_ms", "self_ms"
    ));
    for (name, row) in &rep.by_name {
        result.note(format!(
            "{:<28} {:>9} {:>13} {:>12.3} {:>12.3}",
            name,
            row.spans,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    if rep.closure_error() > 0.02 {
        result.fail(
            1,
            "span self times do not sum to the traced wall within 2 %",
        );
    }
    let path = format!("perfbench/out/trace-{workload}.jsonl");
    match t.write_jsonl(std::path::Path::new(&path)) {
        Ok(()) => result.note(format!("spans written to {path}")),
        Err(e) => result.fail(1, format!("cannot write {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag] = argv.as_slice() {
        match flag.as_str() {
            "--emit-spec" => print!("{}", spec::benchmark_json()),
            "--list" => spec::WORKLOADS
                .iter()
                .for_each(|(name, _)| println!("{name}")),
            "--run-seconds" => println!("{}", spec::RUN_SECONDS),
            _ => return usage(),
        }
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse(&argv) else {
        return usage();
    };
    strip_environment();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host: nproc={} pool_threads={} cpu=\"{}\"",
        proc::nproc(),
        machines::threads(),
        proc::cpu_model()
    );

    let mut tracer = Tracer::new(false);
    let mut result = match machines::Kind::parse(&args.workload) {
        Some(kind) if args.trace => {
            machines::run_traced(kind, args.seed, args.seconds, &mut tracer)
        }
        Some(kind) => machines::run_end_to_end(kind, args.seed, args.seconds),
        None => {
            let mix = serve::Mix::parse(&args.workload).expect("workload names were checked");
            if args.trace {
                serve::run_traced(mix, args.seed, args.seconds, &mut tracer)
            } else {
                serve::run_end_to_end(mix, args.seed, args.seconds)
            }
        }
    };
    let specs = if args.trace {
        result.extend(probes::host_probes(args.seed));
        print_trace(&tracer, &mut result, &args.workload);
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    if report::print(&args.workload, &result, &specs) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
