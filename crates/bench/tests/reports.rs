//! One schema test for every committed report.  The writer is the schema:
//! each artifact must carry exactly the keys and JSON kinds of a small
//! document the current writer generates of the same kind (the sweep's
//! rows and cells, `RunSummary::to_json`, `sweep_json` and the shared
//! renderer/parser), so a writer that drops, adds or retypes a field fails
//! here before a downstream consumer reads a stale artifact.  No report
//! field is listed here; what is named below are the verdicts and axes
//! each artifact claims.

use std::mem::discriminant;

use qrqw_bench::report::{sweep_json, Json};
use qrqw_bench::scenario::Scenario;
use qrqw_bench::service::{
    run_service_load, FaultPlan, KeyDist, LoadSpec, RunSummary, ServiceWorkload,
};
use qrqw_bench::sweep::Sweep;
use qrqw_bench::{Algorithm, Backend, Subject};
use qrqw_serve::{BatchPolicy, ServiceConfig};

/// Asserts that `actual` has the shape of `template`: the same JSON kind,
/// the same object keys in the same order with each value of the same
/// shape, and every array element of the shape of every template element
/// (arrays compare by kind, not by length).
fn assert_shape(at: &str, actual: &Json, template: &Json) {
    assert_eq!(
        discriminant(actual),
        discriminant(template),
        "{at}: {actual:?} is not of the writer's kind, {template:?}"
    );
    match (actual, template) {
        (Json::Obj(fields), Json::Obj(expected)) => {
            let keys = |f: &[(String, Json)]| f.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(
                keys(fields),
                keys(expected),
                "{at}: keys differ from the writer's"
            );
            for ((key, value), (_, expected)) in fields.iter().zip(expected) {
                assert_shape(&format!("{at}.{key}"), value, expected);
            }
        }
        (Json::Arr(items), Json::Arr(expected)) => {
            assert!(
                items.is_empty() || !expected.is_empty(),
                "{at}: the writer generated no element to compare with"
            );
            for (i, item) in items.iter().enumerate() {
                for expected in expected {
                    assert_shape(&format!("{at}[{i}]"), item, expected);
                }
            }
        }
        _ => {}
    }
}

/// Render → parse → compare: the renderer and parser agree exactly on a
/// generated document, which then holds its own verdicts.
fn round_trip(doc: Json) -> Json {
    let back = Json::parse(&doc.render()).expect("generated report must parse");
    assert_eq!(back, doc);
    runs(&back);
    back
}

/// The runs of a document whose verdicts hold: `all_valid`, every run and
/// cell valid, every cell drift-free, no wedged ticket.
fn runs(doc: &Json) -> &[Json] {
    assert_eq!(doc.get("all_valid"), Some(&Json::Bool(true)));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert!(!runs.is_empty());
    for run in runs {
        assert_eq!(run.get("valid"), Some(&Json::Bool(true)), "{run:?}");
        if let Some(Json::Obj(cells)) = run.get("backends") {
            for (backend, cell) in cells {
                assert_eq!(cell.get("valid"), Some(&Json::Bool(true)), "{backend}");
                assert_eq!(cell.get("drift_free"), Some(&Json::Bool(true)), "{backend}");
            }
        }
        if let Some(wedged) = run.get("wedged") {
            assert_eq!(wedged, &Json::Int(0));
        }
    }
    runs
}

/// The committed `name` at the repository root, checked against
/// `generated`, a document of the same kind.
fn committed(name: &str, generated: &Json) -> Json {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name} must be committed at the repository root: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("committed {name} must parse: {e}"));
    assert_shape(name, &doc, generated);
    runs(&doc);
    doc
}

/// A `perf_report` sweep of `subjects` at one small size on every backend,
/// so every cell is guarded and every ratio present.
fn sweep(subjects: Vec<Subject>) -> Json {
    let sweep = Sweep {
        subjects,
        backends: Backend::ALL.to_vec(),
        sizes: vec![64],
        seed: 3,
    };
    let (doc, all_valid) = sweep.run();
    assert!(all_valid);
    round_trip(doc)
}

fn subject(run: &Json) -> &str {
    run.get("subject").and_then(Json::as_str).expect("subject")
}

#[test]
fn native_report_has_the_writers_shape() {
    let algos = [Algorithm::PermutationQrqw, Algorithm::FetchAdd].map(Subject::Algorithm);
    let doc = committed("BENCH_native.json", &sweep(algos.to_vec()));
    for run in runs(&doc) {
        let name = subject(run);
        assert!(
            Algorithm::parse(name).is_some(),
            "unknown algorithm {name:?}"
        );
    }
}

#[test]
fn workloads_report_has_the_writers_shape_and_covers_its_axis() {
    let scenarios = ["uniform-churn", "adversarial-collide"]
        .map(|name| Subject::Scenario(Scenario::parse(name).unwrap()));
    let doc = committed("BENCH_workloads.json", &sweep(scenarios.to_vec()));
    // The axis the artifact claims: at least 3 scenarios on at least 2
    // backends, both native schedules, one row per scenario per size, and
    // every declared backend in every row.
    let header = |key| doc.get(key).and_then(Json::as_arr).unwrap();
    let backends: Vec<&str> = header("backends").iter().filter_map(Json::as_str).collect();
    assert!(header("subjects").len() >= 3, "at least 3 scenarios");
    assert!(backends.len() >= 2, "at least 2 backends");
    for schedule in [Backend::Native, Backend::NativeSteal] {
        assert!(backends.contains(&schedule.name()), "missing {schedule:?}");
    }
    let runs = runs(&doc);
    assert_eq!(
        runs.len(),
        header("subjects").len() * header("sizes").len(),
        "one row per scenario per size"
    );
    for run in runs {
        assert!(Scenario::parse(subject(run)).is_ok(), "{run:?}");
        let Some(Json::Obj(cells)) = run.get("backends") else {
            panic!("{run:?} has no backend cells");
        };
        for name in &backends {
            assert!(
                cells.iter().any(|(b, _)| b == name),
                "row {:?} misses declared backend {name:?}",
                subject(run),
            );
        }
    }
}

/// Three quiet two-client cells and one hostile single-client cell over
/// resident keys.
fn service_sweep() -> Json {
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
    round_trip(sweep_json(
        "service_report",
        5,
        2,
        Vec::new(),
        all_valid,
        runs,
    ))
}

#[test]
fn service_reports_have_the_writers_shape() {
    let generated = service_sweep();
    let quick = runs(&generated);
    let count = |run: &Json, name| run.get(name).and_then(Json::as_u64).unwrap();
    for run in quick {
        assert_eq!(
            count(run, "requests"),
            80,
            "2 clients x 40 requests, or 1 x 80"
        );
    }
    let hostile = &quick[3];
    assert!(
        count(hostile, "injected_panics") > 0,
        "the hostile plan must fire"
    );
    assert_eq!(
        count(hostile, "isolated_panics"),
        count(hostile, "injected_panics")
    );
    assert_eq!(count(hostile, "resident_keys"), 500);

    committed("BENCH_service.json", &generated);
    let chaos = committed("BENCH_chaos.json", &generated);
    // The fault sweep's resident-state axis: at least three sizes up to
    // 2^20 keys, and the cells a checkpoint copies do not follow it — per
    // (workload, panic rate) the largest state copies at most twice the
    // cells per request the smallest does, plus a few, nowhere near its
    // 2^22-cell table.  Per request, not per batch: the batcher takes
    // whatever the queue holds, so the batch shape of a run is
    // timing-dependent, and a batch of 30 copies more cells than a batch
    // of 8 at any state size.
    let cells = runs(&chaos);
    let field = |run: &Json, name: &str| run.get(name).and_then(Json::as_f64).unwrap();
    let mut sizes: Vec<u64> = cells
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
    for big in cells
        .iter()
        .filter(|r| field(r, "resident_keys") as u64 == largest)
    {
        let small = cells
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
