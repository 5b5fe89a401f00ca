//! `BENCH_service.json` schema round-trip: the committed artifact's shape
//! is produced and checked through the same code path
//! (`RunSummary::to_json` + `sweep_json` + the shared
//! renderer/parser), so a schema drift breaks this test before it breaks
//! a downstream consumer.

use qrqw_bench::chaos::{run_chaos, ChaosSpec, FaultPlan};
use qrqw_bench::report::{sweep_json, Json};
use qrqw_bench::service::{run_service_load, KeyDist, LoadSpec, RunSummary, ServiceWorkload};
use qrqw_serve::{BatchPolicy, ServiceConfig};

/// A named type predicate over one JSON field.
type FieldCheck = fn(&Json) -> bool;

/// Every field a `BENCH_service.json` run entry must carry, with a type
/// predicate.
const RUN_FIELDS: &[(&str, FieldCheck)] = &[
    ("workload", |v| v.as_str().is_some()),
    ("key_dist", |v| v.as_str().is_some()),
    ("batch_max", |v| v.as_u64().is_some()),
    ("clients", |v| v.as_u64().is_some()),
    ("requests", |v| v.as_u64().is_some()),
    ("errors", |v| v.as_u64().is_some()),
    ("served", |v| v.as_u64().is_some()),
    ("shed", |v| v.as_u64().is_some()),
    ("failed", |v| v.as_u64().is_some()),
    ("wall_ms", |v| v.as_f64().is_some()),
    ("req_per_s", |v| v.as_f64().is_some()),
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
    ("valid", |v| v.as_bool().is_some()),
];

fn micro_sweep() -> Json {
    let runs: Vec<_> = [
        (1usize, ServiceWorkload::Hash),
        (8, ServiceWorkload::Counter),
        (8, ServiceWorkload::Mix),
    ]
    .into_iter()
    .map(|(batch_max, workload)| {
        run_service_load(
            ServiceConfig {
                seed: 5,
                num_counters: 16,
                hash_capacity: 64,
            },
            BatchPolicy::with_max_batch(batch_max),
            Some(2),
            &LoadSpec {
                clients: 2,
                requests_per_client: 40,
                window: 4,
                workload,
                key_dist: KeyDist::Zipf(1.0),
                keyspace: 128,
                seed: 5,
            },
        )
    })
    .collect();
    let all_valid = runs.iter().all(|r| r.valid() && r.errors == 0);
    assert!(all_valid);
    let runs = runs.iter().map(RunSummary::to_json).collect();
    sweep_json("service_report", 5, 2, all_valid, runs)
}

#[test]
fn bench_service_json_round_trips_and_matches_the_schema() {
    let doc = micro_sweep();
    // Render → parse → compare: the renderer and parser agree exactly.
    let text = doc.render();
    let back = Json::parse(&text).expect("generated report must parse");
    assert_eq!(back, doc);

    // Top-level schema.
    for key in [
        "generated_by",
        "seed",
        "threads",
        "host_cores",
        "all_valid",
        "runs",
    ] {
        assert!(back.get(key).is_some(), "missing top-level field {key:?}");
    }
    assert_eq!(back.get("all_valid").and_then(Json::as_bool), Some(true));

    // Per-run schema, through the parsed copy.
    let runs = back.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 3);
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
        assert_eq!(
            run.get("requests").and_then(Json::as_u64),
            Some(80),
            "2 clients x 40 requests"
        );
    }
}

/// Every field a `BENCH_chaos.json` run entry must carry, with a type
/// predicate.
const CHAOS_RUN_FIELDS: &[(&str, FieldCheck)] = &[
    ("workload", |v| v.as_str().is_some()),
    ("panic_per_10k", |v| v.as_u64().is_some()),
    ("error_per_10k", |v| v.as_u64().is_some()),
    ("delay_per_10k", |v| v.as_u64().is_some()),
    ("batch_max", |v| v.as_u64().is_some()),
    ("resident_keys", |v| v.as_u64().is_some()),
    ("requests", |v| v.as_u64().is_some()),
    ("served", |v| v.as_u64().is_some()),
    ("shed", |v| v.as_u64().is_some()),
    ("failed", |v| v.as_u64().is_some()),
    ("wedged", |v| v.as_u64().is_some()),
    ("injected_panics", |v| v.as_u64().is_some()),
    ("isolated_panics", |v| v.as_u64().is_some()),
    ("panicked_batches", |v| v.as_u64().is_some()),
    ("batches", |v| v.as_u64().is_some()),
    ("snapshots", |v| v.as_u64().is_some()),
    ("snapshot_us_per_batch", |v| v.as_f64().is_some()),
    ("snapshot_cells_per_batch", |v| v.as_f64().is_some()),
    ("mean_recovery_us", |v| v.as_f64().is_some()),
    ("goodput_per_s", |v| v.as_f64().is_some()),
    ("p99_us", |v| v.as_f64().is_some()),
    ("wall_ms", |v| v.as_f64().is_some()),
    ("valid", |v| v.as_bool().is_some()),
];

fn check_chaos_runs(doc: &Json) {
    assert_eq!(doc.get("all_valid").and_then(Json::as_bool), Some(true));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert!(!runs.is_empty());
    for run in runs {
        for (field, type_ok) in CHAOS_RUN_FIELDS {
            let value = run
                .get(field)
                .unwrap_or_else(|| panic!("chaos run entry missing field {field:?}"));
            assert!(
                type_ok(value),
                "chaos field {field:?} has the wrong type: {value:?}"
            );
        }
        assert_eq!(run.get("wedged").and_then(Json::as_u64), Some(0));
    }
}

#[test]
fn bench_chaos_json_round_trips_and_matches_the_schema() {
    let summary = run_chaos(
        ServiceConfig {
            seed: 7,
            num_counters: 8,
            hash_capacity: 64,
        },
        BatchPolicy::with_max_batch(16),
        2,
        FaultPlan {
            panic_per_10k: 400,
            error_per_10k: 25,
            ..FaultPlan::default()
        },
        &ChaosSpec {
            workload: ServiceWorkload::Mix,
            requests: 250,
            window: 16,
            keyspace: 64,
            resident_keys: 500,
            seed: 7,
        },
    );
    assert!(summary.valid(), "{:?}", summary.validation_errors);
    let doc = sweep_json(
        "chaos_bench",
        7,
        2,
        summary.valid(),
        vec![summary.to_json()],
    );
    let back = Json::parse(&doc.render()).expect("generated chaos report must parse");
    assert_eq!(back, doc);
    check_chaos_runs(&back);
}

#[test]
fn committed_chaos_artifact_parses_with_the_same_schema() {
    // The repository's committed BENCH_chaos.json must stay loadable and
    // schema-conformant (it is regenerated by `chaos_bench`).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_chaos.json must be committed at the repository root");
    let doc = Json::parse(&text).expect("committed BENCH_chaos.json must parse");
    check_chaos_runs(&doc);
    // The resident-state axis: at least three sizes up to 2^20 keys, and
    // the cells a checkpoint copies do not follow it — per (workload,
    // panic rate) the largest state copies at most a page more than twice
    // what the smallest does, nowhere near its 2^22-cell table.
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
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
        let (small, big) = (
            field(small, "snapshot_cells_per_batch"),
            field(big, "snapshot_cells_per_batch"),
        );
        assert!(
            big <= 2.0 * small + 512.0,
            "checkpoint cells follow the resident state: {small} -> {big}"
        );
    }
}

#[test]
fn committed_artifact_parses_with_the_same_schema() {
    // The repository's committed BENCH_service.json must stay loadable and
    // schema-conformant (it is regenerated by `service_report`).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_service.json must be committed at the repository root");
    let doc = Json::parse(&text).expect("committed BENCH_service.json must parse");
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
    }
}
