//! `perf_report` — records the cross-backend performance trajectory.
//!
//! Runs every registry algorithm (or a chosen subset) on the selected
//! backends at a set of problem sizes, prints one row per (algorithm, n),
//! and writes a machine-readable JSON report so the repository's perf
//! history is a committed artifact (`BENCH_native.json`) instead of
//! folklore.  For the BSP backend the row and the JSON carry the *measured*
//! Theorem 1.1 emulation cost next to the formula-predicted bound.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qrqw-bench --release --bin perf_report            # full sweep
//! cargo run -p qrqw-bench --release --bin perf_report -- \
//!     [--backend sim,native,native-steal,bsp|all] [--sizes 65536,1048576] \
//!     [--algos all|name,name] [--seed 1] [--threads N] \
//!     [--sim-cap N] [--bsp-cap N] [--out BENCH_native.json] [--append]
//! cargo run -p qrqw-bench --release --bin perf_report -- \
//!     --scenario all [--backend …] [--sizes 4096] [--out BENCH_workloads.json]
//! ```
//!
//! * `--backend` selects which backends run
//!   (default: all); `native` and `native-steal` are the native machine
//!   under the chunked and the work-stealing schedule, and whenever both
//!   ran the JSON carries their wall-clock ratio;
//! * `--scenario` switches the sweep axis from
//!   algorithms to churn **scenarios** (`qrqw_bench::scenario`): each cell
//!   runs the multi-epoch churn driver (hash table with deletes, fetch&add,
//!   load balancing, live state carried across epochs) for one scenario on
//!   one backend, recording contention vs. skew.  Accepts registry names,
//!   `all`, or inline `<dist>/<i>:<d>:<l>/<epochs>` specs.  The simulator
//!   reference runs for every (scenario, n) regardless of `--backend` and
//!   the step-drift guard is armed on **every** native/BSP cell (steps,
//!   contention totals, per-epoch contention, end-state digest).  Defaults
//!   change to `--sizes 4096` and `--out BENCH_workloads.json`;
//!   `--algos` and `--append` are usage errors here;
//! * `--threads` forces the native/BSP thread count (otherwise
//!   `QRQW_THREADS` / host parallelism decides);
//! * `--sim-cap` / `--bsp-cap` skip simulator / BSP runs above that size
//!   (both are O(work)-per-step machines; the BSP cap defaults to 2¹⁷),
//!   recorded as `"sim": null` / `"bsp": null` in the JSON;
//! * `--append` merges this invocation into an existing `--out` file
//!   instead of overwriting it: a new run replaces the old run with the
//!   same (algorithm, n), other old runs are kept, and the header's
//!   `sizes` / `backends` become the union (with `all_valid` the AND of
//!   old and new).  That is what makes a huge-n sweep affordable on a
//!   small box — the expensive sizes are added column by column across
//!   invocations, and the committed artifact stays one file;
//! * whenever the simulator and a native column both ran, the **step-drift
//!   guard** requires the native machine's executed step count and
//!   contention total to equal the simulator's charge exactly — any drift
//!   marks the run invalid (non-zero exit), because it means the native
//!   hot path stopped executing the charged QRQW trajectory;
//! * the exit code is non-zero if **any** run fails its validator — for
//!   BSP runs that includes the Theorem 1.1 conformance check
//!   `measured_cost ≤ the simulator's independently traced QRQW time`,
//!   armed whenever the simulator ran the same configuration (pass
//!   `--backend bsp,sim` to a smoke run to arm it; the machine's own
//!   `predicted_cost` is `measured_cost · ⌈lg p⌉` by construction and is
//!   reported for the table, not used as a gate) — so CI can use a small
//!   run as a cross-backend smoke check.
//!
//! JSON shape (one object per (algorithm, n) in `"runs"`):
//!
//! ```text
//! {"algorithm": "permutation-qrqw", "n": 1048576,
//!  "native": {"wall_ms": …, "steps": …, "claim_attempts": …,
//!             "contended_claims": …, "valid": true},
//!  "native_steal": {… same fields, work-stealing schedule},
//!  "sim":    {… same fields, plus "work", "max_contention", "time_qrqw"},
//!  "bsp":    {… same fields, plus "supersteps", "messages", "max_queue",
//!             "max_h_relation", "measured_cost", "predicted_cost",
//!             "components"},
//!  "sim_over_native": 68.9, "chunked_over_stealing": 1.04}
//! ```
//!
//! `chunked_over_stealing` > 1 means the work-stealing schedule was
//! faster on that run.

use qrqw_bench::report::{write_json_file, Json};
use qrqw_bench::scenario::{scenario_row_json, workloads_report_json, Scenario, ScenarioRun};
use qrqw_bench::{Algorithm, Backend, BackendRun};

struct Config {
    backends: Vec<Backend>,
    sizes: Vec<usize>,
    algos: Vec<Algorithm>,
    scenarios: Vec<Scenario>,
    seed: u64,
    threads: Option<usize>,
    sim_cap: usize,
    bsp_cap: usize,
    out: String,
    append: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf_report [--backend sim,native,native-steal,bsp|all] \
         [--sizes N,N] \
         [--algos all|name,name] [--scenario all|name,name|<dist>/<i>:<d>:<l>/<epochs>] \
         [--seed S] [--threads T] [--sim-cap N] \
         [--bsp-cap N] [--out PATH] [--append]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        backends: Backend::ALL.to_vec(),
        sizes: vec![1 << 16, 1 << 20],
        algos: Algorithm::ALL.to_vec(),
        scenarios: Vec::new(),
        seed: 1,
        threads: None,
        sim_cap: usize::MAX,
        bsp_cap: 1 << 17,
        out: "BENCH_native.json".to_string(),
        append: false,
    };
    let mut sizes_explicit = false;
    let mut out_explicit = false;
    let mut algos_explicit = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--backend" => {
                let spec = value();
                cfg.backends = Backend::parse_set(&spec)
                    .unwrap_or_else(|| usage(&format!("bad backend set {spec:?}")));
            }
            "--scenario" => {
                let spec = value();
                cfg.scenarios = Scenario::parse_set(&spec).unwrap_or_else(|e| usage(&e));
            }
            "--sizes" => {
                sizes_explicit = true;
                cfg.sizes = value()
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad size {s:?}")))
                    })
                    .collect();
            }
            "--algos" => {
                let spec = value();
                algos_explicit = true;
                if spec != "all" {
                    cfg.algos = spec
                        .split(',')
                        .map(|s| {
                            Algorithm::parse(s.trim())
                                .unwrap_or_else(|| usage(&format!("unknown algorithm {s:?}")))
                        })
                        .collect();
                }
            }
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--threads" => {
                cfg.threads = Some(value().parse().unwrap_or_else(|_| usage("bad --threads")))
            }
            "--sim-cap" => cfg.sim_cap = value().parse().unwrap_or_else(|_| usage("bad --sim-cap")),
            "--bsp-cap" => cfg.bsp_cap = value().parse().unwrap_or_else(|_| usage("bad --bsp-cap")),
            "--out" => {
                out_explicit = true;
                cfg.out = value();
            }
            "--append" => cfg.append = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if !cfg.scenarios.is_empty() {
        // Scenario mode sweeps scenario × backend, not algorithm × backend:
        // the algorithm axis and --append merging are per-algorithm
        // machinery, so combining them is a usage error, not
        // something to ignore silently.
        if algos_explicit {
            usage("--scenario sweeps scenarios, not algorithms; drop --algos");
        }
        if cfg.append {
            usage("--scenario does not support --append");
        }
        if !sizes_explicit {
            cfg.sizes = vec![4096];
        }
        if !out_explicit {
            cfg.out = "BENCH_workloads.json".to_string();
        }
    }
    if cfg.sizes.is_empty() || cfg.algos.is_empty() {
        usage("need at least one size and one algorithm");
    }
    cfg
}

/// Serialises one run; `valid` is what the report concluded about it —
/// the run's own output validator, *and* (for BSP runs that had a
/// simulator twin) the Theorem 1.1 cross-check — so a JSON consumer
/// filtering on `"valid"` sees conformance failures on the offending run.
fn json_run(run: &BackendRun, valid: bool) -> Json {
    let mut fields = vec![
        (
            "wall_ms".to_string(),
            Json::float(run.elapsed.as_secs_f64() * 1e3, 3),
        ),
        ("steps".to_string(), Json::Int(run.report.steps)),
        (
            "claim_attempts".to_string(),
            Json::Int(run.report.claim_attempts),
        ),
        (
            "contended_claims".to_string(),
            Json::Int(run.report.contended_claims),
        ),
        ("valid".to_string(), Json::Bool(valid)),
    ];
    if let Some(work) = run.report.work {
        fields.push(("work".to_string(), Json::Int(work)));
    }
    if let Some(mc) = run.report.max_contention {
        fields.push(("max_contention".to_string(), Json::Int(mc)));
    }
    if let Some(t) = run.report.time_qrqw {
        fields.push(("time_qrqw".to_string(), Json::Int(t)));
    }
    if let Some(b) = run.report.bsp {
        fields.push(("supersteps".to_string(), Json::Int(b.supersteps)));
        fields.push(("messages".to_string(), Json::Int(b.messages)));
        fields.push(("max_queue".to_string(), Json::Int(b.max_queue)));
        fields.push(("max_h_relation".to_string(), Json::Int(b.max_h_relation)));
        fields.push(("measured_cost".to_string(), Json::Int(b.measured_cost)));
        fields.push(("predicted_cost".to_string(), Json::Int(b.predicted_cost)));
        fields.push(("components".to_string(), Json::Int(b.components)));
    }
    Json::Obj(fields)
}

/// The (algorithm, n) identity of a run entry, for `--append` replacement.
fn run_key(entry: &Json) -> Option<(String, u64)> {
    let algo = entry.get("algorithm")?.as_str()?.to_string();
    let n = entry.get("n")?.as_u64()?;
    Some((algo, n))
}

/// Merges this invocation into a previously written report: new runs
/// replace old runs with the same (algorithm, n), everything else from the
/// old file is kept, headers become unions, `all_valid` the AND.  Returns
/// (merged runs, merged backend names, merged sizes, old all_valid).
fn merge_previous(
    old: &Json,
    new_entries: Vec<Json>,
    backend_names: &[&str],
    sizes: &[usize],
) -> (Vec<Json>, Vec<String>, Vec<u64>, bool) {
    let new_keys: Vec<Option<(String, u64)>> = new_entries.iter().map(run_key).collect();
    let mut runs: Vec<Json> = old
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|e| {
            let k = run_key(e);
            k.is_none() || !new_keys.contains(&k)
        })
        .cloned()
        .collect();
    runs.extend(new_entries);
    // Stable presentation order, matching a single full invocation: by
    // size, then registry order (unknown algorithm names sort last).
    let algo_rank = |e: &Json| {
        e.get("algorithm")
            .and_then(Json::as_str)
            .and_then(|name| Algorithm::ALL.iter().position(|a| a.name() == name))
            .unwrap_or(usize::MAX)
    };
    runs.sort_by_key(|e| (e.get("n").and_then(Json::as_u64).unwrap_or(0), algo_rank(e)));

    let mut backends: Vec<String> = old
        .get("backends")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| b.as_str().map(str::to_string))
        .collect();
    for name in backend_names {
        if !backends.iter().any(|b| b == name) {
            backends.push(name.to_string());
        }
    }
    let rank = |name: &str| {
        Backend::ALL
            .iter()
            .position(|b| b.name() == name)
            .unwrap_or(usize::MAX)
    };
    backends.sort_by_key(|b| rank(b));

    let mut merged_sizes: Vec<u64> = old
        .get("sizes")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_u64)
        .chain(sizes.iter().map(|&n| n as u64))
        .collect();
    merged_sizes.sort_unstable();
    merged_sizes.dedup();

    let old_valid = old.get("all_valid").and_then(Json::as_bool).unwrap_or(true);
    (runs, backends, merged_sizes, old_valid)
}

/// The `--scenario` sweep: scenario × size × backend, with the sim
/// reference run unconditionally per (scenario, n) — it is both the row's
/// contention-vs-skew record and the arm of the drift guard, which is
/// required on **every** native/BSP cell (a cell without a verdict would
/// read as coverage the artifact doesn't have).  Writes the
/// `BENCH_workloads.json` document and exits.
fn scenario_sweep(cfg: &Config, threads_used: usize) -> ! {
    let backend_names: Vec<&str> = cfg.backends.iter().map(|b| b.name()).collect();
    println!(
        "perf_report --scenario: {} scenarios, backends {:?}, sizes {:?}, seed {}, threads {} (host cores {})",
        cfg.scenarios.len(),
        backend_names,
        cfg.sizes,
        cfg.seed,
        threads_used,
        rayon::current_num_threads(),
    );
    let wants = |b: Backend| cfg.backends.contains(&b);
    let mut rows: Vec<Json> = Vec::new();
    let mut all_valid = true;
    for &n in &cfg.sizes {
        if n > cfg.sim_cap {
            // No reference, no drift guard, no row metadata — refuse
            // rather than emit unguarded cells.
            usage(&format!(
                "--scenario needs the sim reference at every size, but n={n} > --sim-cap {}",
                cfg.sim_cap
            ));
        }
        for scenario in &cfg.scenarios {
            let reference = scenario.run(Backend::Sim, n, cfg.seed, cfg.threads);
            println!("{}", reference.format());
            let mut row_valid = reference.valid;
            let mut cells: Vec<(&'static str, Json)> = Vec::new();
            if wants(Backend::Sim) {
                cells.push((Backend::Sim.name(), reference.cell_json(true)));
            }
            // Drift guard, armed on every non-sim cell: the native/BSP run
            // must replay the exact charged trajectory — same steps, same
            // contention totals (global and per-epoch), same end-state
            // digest.  Any drift fails the cell, the row, and the report.
            let mut guarded = |run: ScenarioRun| {
                let drift_free = run.report.steps == reference.report.steps
                    && run.report.contended_claims == reference.report.contended_claims
                    && run.outcome.epoch_contention == reference.outcome.epoch_contention
                    && run.outcome.digest == reference.outcome.digest;
                if !drift_free {
                    eprintln!(
                        "perf_report: {} n={n}: {} drifted from the simulator's charge \
                         (steps {} vs {}, contention {} vs {})",
                        scenario.name,
                        run.backend,
                        run.report.steps,
                        reference.report.steps,
                        run.report.contended_claims,
                        reference.report.contended_claims,
                    );
                }
                println!(
                    "{}{}",
                    run.format(),
                    if drift_free { "" } else { "  DRIFT" }
                );
                row_valid &= run.valid && drift_free;
                cells.push((run.backend, run.cell_json(drift_free)));
            };
            for backend in Backend::ALL
                .into_iter()
                .filter(|&b| b != Backend::Sim && wants(b))
            {
                if backend == Backend::Bsp && n > cfg.bsp_cap {
                    eprintln!(
                        "perf_report: note: skipping bsp at n={n} (> --bsp-cap {}); \
                         raise --bsp-cap to include it",
                        cfg.bsp_cap
                    );
                } else {
                    guarded(scenario.run(backend, n, cfg.seed, cfg.threads));
                }
            }
            all_valid &= row_valid;
            rows.push(scenario_row_json(scenario, &reference, cells, row_valid));
        }
    }
    let doc = workloads_report_json(
        "perf_report --scenario",
        cfg.seed,
        threads_used,
        &cfg.scenarios,
        &cfg.backends,
        &cfg.sizes,
        all_valid,
        rows,
    );
    write_json_file(&cfg.out, &doc);
    println!("wrote {}", cfg.out);
    if !all_valid {
        eprintln!("perf_report: at least one scenario cell failed validation or drifted");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn ms(run: &Option<BackendRun>) -> String {
    match run {
        Some(r) => format!("{:>9.3}", r.elapsed.as_secs_f64() * 1e3),
        None => format!("{:>9}", "-"),
    }
}

fn main() {
    let cfg = parse_args();
    let threads_used = cfg.threads.unwrap_or_else(|| {
        qrqw_exec::StepPool::from_env().threads() // same resolution the machines use
    });
    if !cfg.scenarios.is_empty() {
        scenario_sweep(&cfg, threads_used);
    }
    let backend_names: Vec<&str> = cfg.backends.iter().map(|b| b.name()).collect();
    println!(
        "perf_report: backends {:?}, sizes {:?}, {} algorithms, seed {}, threads {} (host cores {}), sim cap {}, bsp cap {}",
        backend_names,
        cfg.sizes,
        cfg.algos.len(),
        cfg.seed,
        threads_used,
        rayon::current_num_threads(),
        if cfg.sim_cap == usize::MAX {
            "none".to_string()
        } else {
            cfg.sim_cap.to_string()
        },
        if cfg.bsp_cap == usize::MAX {
            "none".to_string()
        } else {
            cfg.bsp_cap.to_string()
        },
    );

    let wants = |b: Backend| cfg.backends.contains(&b);
    let mut entries: Vec<Json> = Vec::new();
    let mut all_valid = true;
    for &n in &cfg.sizes {
        for &algo in &cfg.algos {
            // Simulator first, so every other machine allocates against a
            // warmed process heap.
            let run = |backend: Backend, cap: usize| {
                (wants(backend) && n <= cap).then(|| algo.run(backend, n, cfg.seed, cfg.threads))
            };
            let sim = run(Backend::Sim, cfg.sim_cap);
            let native = run(Backend::Native, usize::MAX);
            let steal = run(Backend::NativeSteal, usize::MAX);
            let bsp = run(Backend::Bsp, cfg.bsp_cap);
            if wants(Backend::Bsp) && n > cfg.bsp_cap {
                // Never let an explicitly requested backend be skipped
                // silently — a "-" row plus a stderr note, so a green
                // report cannot be mistaken for BSP coverage it lacks.
                eprintln!(
                    "perf_report: note: skipping bsp at n={n} (> --bsp-cap {}); \
                     raise --bsp-cap to include it",
                    cfg.bsp_cap
                );
            }
            // Cross-machine Theorem 1.1 conformance: the BSP machine's own
            // measured/predicted pair coincides by construction (the router
            // realizes each step at its formula charge), so the genuine
            // check is against the simulator's *independently* traced QRQW
            // time for the same seed whenever both backends ran.  The
            // verdict is attached to the BSP run's own validity so the JSON
            // pinpoints the offending (algorithm, n).
            let cross_ok = match (&sim, &bsp) {
                (Some(s), Some(b)) => {
                    let charged = s.report.time_qrqw.unwrap_or(0);
                    let measured = b.report.bsp.map_or(0, |c| c.measured_cost);
                    if measured > charged {
                        eprintln!(
                            "perf_report: {} n={n}: bsp measured cost {measured} exceeds the \
                             simulator's charged QRQW time {charged}",
                            algo.name(),
                        );
                    }
                    measured <= charged
                }
                _ => true,
            };
            // Step-drift guard: a native machine executes the exact charged
            // step sequence of the simulator's trajectory, so whenever both
            // ran, any difference in executed steps or contention totals
            // means the native hot path has drifted off the QRQW charge —
            // fail the run, don't average it into a green report.
            let no_drift = |column: &str, run: &Option<BackendRun>| match (&sim, run) {
                (Some(s), Some(r)) => {
                    let ok = r.report.steps == s.report.steps
                        && r.report.contended_claims == s.report.contended_claims;
                    if !ok {
                        eprintln!(
                            "perf_report: {} n={n}: {column} executed (steps {}, contention {}) \
                             but the simulator charged (steps {}, contention {})",
                            algo.name(),
                            r.report.steps,
                            r.report.contended_claims,
                            s.report.steps,
                            s.report.contended_claims,
                        );
                    }
                    ok
                }
                _ => true,
            };
            let sim_ok = sim.as_ref().is_none_or(|r| r.valid);
            let native_ok = native.as_ref().is_none_or(|r| r.valid) && no_drift("native", &native);
            let steal_ok =
                steal.as_ref().is_none_or(|r| r.valid) && no_drift("native-steal", &steal);
            let bsp_ok = bsp.as_ref().is_none_or(|r| r.valid) && cross_ok;
            let valid = sim_ok && native_ok && steal_ok && bsp_ok;
            all_valid &= valid;
            let ratio = match (&sim, &native) {
                (Some(s), Some(nat)) => {
                    Some(s.elapsed.as_secs_f64() / nat.elapsed.as_secs_f64().max(f64::EPSILON))
                }
                _ => None,
            };
            let ratio_str = ratio.map_or(format!("{:>8}", "-"), |r| format!("{r:>7.1}x"));
            // The scheduler comparison: chunked wall over stealing wall
            // (> 1 ⇒ stealing won).
            let sched_ratio = match (&native, &steal) {
                (Some(c), Some(s)) => {
                    Some(c.elapsed.as_secs_f64() / s.elapsed.as_secs_f64().max(f64::EPSILON))
                }
                _ => None,
            };
            let sched_ratio_str =
                sched_ratio.map_or(format!("{:>8}", "-"), |r| format!("{r:>7.2}x"));
            let bsp_str = match &bsp {
                Some(r) => {
                    let b = r.report.bsp.expect("bsp run carries its cost section");
                    format!(
                        "measured {:>8} predicted {:>9} ({:>4.1}x headroom)",
                        b.measured_cost,
                        b.predicted_cost,
                        b.headroom().unwrap_or(f64::NAN),
                    )
                }
                None => "-".to_string(),
            };
            println!(
                "{:<26} n={:<8} native {} ms  steal {} ms  chunked/steal {}  sim {} ms  sim/native {}  bsp {}  valid={}",
                algo.name(),
                n,
                ms(&native),
                ms(&steal),
                sched_ratio_str,
                ms(&sim),
                ratio_str,
                bsp_str,
                valid,
            );
            let opt_json = |r: &Option<BackendRun>, ok: bool| {
                r.as_ref().map_or(Json::Null, |r| json_run(r, ok))
            };
            let fields = vec![
                ("algorithm", Json::str(algo.name())),
                ("n", Json::Int(n as u64)),
                ("native", opt_json(&native, native_ok)),
                ("native_steal", opt_json(&steal, steal_ok)),
                ("sim", opt_json(&sim, sim_ok)),
                ("bsp", opt_json(&bsp, bsp_ok)),
                (
                    "sim_over_native",
                    ratio.map_or(Json::Null, |r| Json::float(r, 2)),
                ),
                (
                    "chunked_over_stealing",
                    sched_ratio.map_or(Json::Null, |r| Json::float(r, 3)),
                ),
            ];
            entries.push(Json::obj(fields));
        }
    }

    let previous = cfg
        .append
        .then(|| std::fs::read_to_string(&cfg.out).ok())
        .flatten()
        .map(|text| {
            Json::parse(&text).unwrap_or_else(|e| {
                eprintln!("perf_report: cannot --append to {}: {e}", cfg.out);
                std::process::exit(2);
            })
        });
    let (runs, backends, sizes, doc_valid) = match &previous {
        Some(old) => {
            let (runs, backends, sizes, old_valid) =
                merge_previous(old, entries, &backend_names, &cfg.sizes);
            (runs, backends, sizes, old_valid && all_valid)
        }
        None => (
            entries,
            backend_names.iter().map(|n| n.to_string()).collect(),
            cfg.sizes.iter().map(|&n| n as u64).collect(),
            all_valid,
        ),
    };
    let doc = Json::obj(vec![
        ("generated_by", Json::str("perf_report")),
        (
            "backends",
            Json::Arr(backends.iter().map(|n| Json::str(n)).collect()),
        ),
        ("seed", Json::Int(cfg.seed)),
        ("threads", Json::Int(threads_used as u64)),
        ("host_cores", Json::Int(rayon::current_num_threads() as u64)),
        (
            "sizes",
            Json::Arr(sizes.iter().map(|&n| Json::Int(n)).collect()),
        ),
        ("all_valid", Json::Bool(doc_valid)),
        ("runs", Json::Arr(runs)),
    ]);
    write_json_file(&cfg.out, &doc);
    println!(
        "wrote {}{}",
        cfg.out,
        if previous.is_some() {
            " (merged into previous report)"
        } else {
            ""
        }
    );

    if !all_valid {
        eprintln!("perf_report: at least one run failed its validator or the Theorem 1.1 bound");
        std::process::exit(1);
    }
}
