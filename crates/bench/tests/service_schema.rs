//! Schema round-trip of the two `service_report` artifacts,
//! `BENCH_service.json` and `BENCH_chaos.json`: one run-entry schema,
//! produced and checked through the same code path (`RunSummary::to_json`,
//! `sweep_json` and the shared renderer/parser), so a schema drift breaks
//! this test before it breaks a downstream consumer.

use qrqw_bench::report::{sweep_json, Json};
use qrqw_bench::service::{
    run_service_load, FaultPlan, KeyDist, LoadSpec, RunSummary, ServiceWorkload,
};
use qrqw_serve::{BatchPolicy, ServiceConfig};

/// A named type predicate over one JSON field.
type FieldCheck = fn(&Json) -> bool;

/// Every field a run entry of either artifact must carry, with a type
/// predicate.
const RUN_FIELDS: &[(&str, FieldCheck)] = &[
    ("workload", |v| v.as_str().is_some()),
    ("key_dist", |v| v.as_str().is_some()),
    ("batch_max", |v| v.as_u64().is_some()),
    ("clients", |v| v.as_u64().is_some()),
    ("resident_keys", |v| v.as_u64().is_some()),
    ("panic_per_10k", |v| v.as_u64().is_some()),
    ("error_per_10k", |v| v.as_u64().is_some()),
    ("delay_per_10k", |v| v.as_u64().is_some()),
    ("requests", |v| v.as_u64().is_some()),
    ("errors", |v| v.as_u64().is_some()),
    ("served", |v| v.as_u64().is_some()),
    ("shed", |v| v.as_u64().is_some()),
    ("failed", |v| v.as_u64().is_some()),
    ("wedged", |v| v.as_u64().is_some()),
    ("wall_ms", |v| v.as_f64().is_some()),
    ("req_per_s", |v| v.as_f64().is_some()),
    ("goodput_per_s", |v| v.as_f64().is_some()),
    ("p50_us", |v| v.as_f64().is_some()),
    ("p99_us", |v| v.as_f64().is_some()),
    ("p999_us", |v| v.as_f64().is_some()),
    ("mean_us", |v| v.as_f64().is_some()),
    ("batches", |v| v.as_u64().is_some()),
    ("mean_batch", |v| v.as_f64().is_some()),
    ("max_batch", |v| v.as_u64().is_some()),
    ("steps", |v| v.as_u64().is_some()),
    ("claim_attempts", |v| v.as_u64().is_some()),
    ("contended_claims", |v| v.as_u64().is_some()),
    ("contention_per_batch", |v| v.as_f64().is_some()),
    ("panicked_batches", |v| v.as_u64().is_some()),
    ("injected_panics", |v| v.as_u64().is_some()),
    ("isolated_panics", |v| v.as_u64().is_some()),
    ("snapshots", |v| v.as_u64().is_some()),
    ("snapshot_us_per_batch", |v| v.as_f64().is_some()),
    ("snapshot_cells_per_batch", |v| v.as_f64().is_some()),
    ("mean_recovery_us", |v| v.as_f64().is_some()),
    ("valid", |v| v.as_bool().is_some()),
];

/// Checks a parsed artifact: every run passed, carries every schema field
/// with its type, and wedged nothing.  Returns the runs.
fn check_runs(doc: &Json) -> &[Json] {
    for key in [
        "generated_by",
        "seed",
        "threads",
        "host_cores",
        "all_valid",
        "runs",
    ] {
        assert!(doc.get(key).is_some(), "missing top-level field {key:?}");
    }
    assert_eq!(doc.get("all_valid").and_then(Json::as_bool), Some(true));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert!(!runs.is_empty());
    for run in runs {
        for (field, type_ok) in RUN_FIELDS {
            let value = run
                .get(field)
                .unwrap_or_else(|| panic!("run entry missing field {field:?}"));
            assert!(
                type_ok(value),
                "field {field:?} has the wrong type: {value:?}"
            );
        }
        assert_eq!(run.get("valid").and_then(Json::as_bool), Some(true));
        assert_eq!(run.get("wedged").and_then(Json::as_u64), Some(0));
    }
    runs
}

/// Three quiet two-client cells and one hostile single-client cell over
/// resident keys.
fn micro_sweep() -> Json {
    let hostile = FaultPlan {
        panic_per_10k: 1000,
        error_per_10k: 500,
        delay_per_10k: 0,
    };
    let runs: Vec<_> = [
        (1usize, ServiceWorkload::Hash, 2, FaultPlan::default(), 0),
        (8, ServiceWorkload::Counter, 2, FaultPlan::default(), 0),
        (8, ServiceWorkload::Mix, 2, FaultPlan::default(), 0),
        (16, ServiceWorkload::Mix, 1, hostile, 500),
    ]
    .into_iter()
    .map(|(batch_max, workload, clients, faults, resident_keys)| {
        run_service_load(
            ServiceConfig {
                seed: 5,
                num_counters: 16,
                hash_capacity: 64,
            },
            BatchPolicy::with_max_batch(batch_max),
            &LoadSpec {
                clients,
                requests_per_client: 80 / clients,
                window: 4,
                workload,
                key_dist: KeyDist::Zipf(1.0),
                keyspace: 128,
                faults,
                resident_keys,
                seed: 5,
            },
        )
    })
    .collect();
    let all_valid = runs.iter().all(RunSummary::valid);
    assert!(all_valid);
    let runs = runs.iter().map(RunSummary::to_json).collect();
    sweep_json("service_report", 5, 2, all_valid, runs)
}

#[test]
fn bench_service_json_round_trips_and_matches_the_schema() {
    let doc = micro_sweep();
    // Render → parse → compare: the renderer and parser agree exactly.
    let back = Json::parse(&doc.render()).expect("generated report must parse");
    assert_eq!(back, doc);
    let runs = check_runs(&back);
    assert_eq!(runs.len(), 4);
    for run in runs {
        assert_eq!(
            run.get("requests").and_then(Json::as_u64),
            Some(80),
            "2 clients x 40 requests, or 1 x 80"
        );
    }
    let hostile = &runs[3];
    let count = |name: &str| hostile.get(name).and_then(Json::as_u64).unwrap();
    assert!(count("injected_panics") > 0, "the hostile plan must fire");
    assert_eq!(count("isolated_panics"), count("injected_panics"));
    assert_eq!(count("resident_keys"), 500);
}

/// Parses a committed artifact at the repository root.
fn committed(name: &str) -> Json {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name} must be committed at the repository root: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("committed {name} must parse: {e}"))
}

#[test]
fn committed_artifact_parses_with_the_same_schema() {
    // Regenerated by `service_report` with its defaults.
    check_runs(&committed("BENCH_service.json"));
}

#[test]
fn committed_chaos_artifact_parses_with_the_same_schema() {
    // Regenerated by the fault sweep of `service_report` (its module docs
    // give the invocation).
    let doc = committed("BENCH_chaos.json");
    let runs = check_runs(&doc);
    // The resident-state axis: at least three sizes up to 2^20 keys, and
    // the cells a checkpoint copies do not follow it — per (workload,
    // panic rate) the largest state copies at most twice the cells per
    // request the smallest does, plus a few, nowhere near its 2^22-cell
    // table.  Per request, not per batch: the batcher takes whatever the
    // queue holds, so the batch shape of a run is timing-dependent, and a
    // batch of 30 copies more cells than a batch of 8 at any state size.
    let field = |run: &Json, name: &str| run.get(name).and_then(Json::as_f64).unwrap();
    let mut sizes: Vec<u64> = runs
        .iter()
        .map(|r| field(r, "resident_keys") as u64)
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(
        sizes.len() >= 3 && sizes[sizes.len() - 1] >= 1 << 20,
        "{sizes:?}"
    );
    let (smallest, largest) = (sizes[0], sizes[sizes.len() - 1]);
    for big in runs
        .iter()
        .filter(|r| field(r, "resident_keys") as u64 == largest)
    {
        let small = runs
            .iter()
            .find(|r| {
                field(r, "resident_keys") as u64 == smallest
                    && r.get("workload") == big.get("workload")
                    && r.get("panic_per_10k") == big.get("panic_per_10k")
            })
            .expect("every cell of the sweep is present at every size");
        let cells_per_request = |r: &Json| {
            field(r, "snapshot_cells_per_batch") * field(r, "snapshots") / field(r, "requests")
        };
        let (small, big) = (cells_per_request(small), cells_per_request(big));
        assert!(
            big <= 2.0 * small + 8.0,
            "checkpoint cells per request follow the resident state: {small} -> {big}"
        );
    }
}
