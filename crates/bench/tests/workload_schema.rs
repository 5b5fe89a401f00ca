//! `perf_report` schema round-trips: a small [`Sweep`] of scenarios and
//! one of algorithms go through the exact code the bin runs (the sweep,
//! its cell and row writers, the shared renderer/parser), and the
//! committed `BENCH_workloads.json` and `BENCH_native.json` are checked
//! against the same schemas, so a schema drift breaks this test before it
//! breaks a downstream consumer — mirroring `service_schema.rs`.

use qrqw_bench::report::Json;
use qrqw_bench::scenario::Scenario;
use qrqw_bench::sweep::Sweep;
use qrqw_bench::{Algorithm, Backend, Subject};

/// A named type predicate over one JSON field.
type FieldCheck = fn(&Json) -> bool;

/// Every field a `BENCH_workloads.json` row must carry, with a type
/// predicate.
const ROW_FIELDS: &[(&str, FieldCheck)] = &[
    ("scenario", |v| v.as_str().is_some()),
    ("dist", |v| v.as_str().is_some()),
    ("churn", |v| v.as_str().is_some()),
    ("epochs", |v| v.as_u64().is_some()),
    ("n", |v| v.as_u64().is_some()),
    ("seed", |v| v.as_u64().is_some()),
    ("ops", |v| v.as_u64().is_some()),
    ("hot_fraction", |v| v.as_f64().is_some()),
    ("epoch_contention", |v| v.as_arr().is_some()),
    ("backends", |v| matches!(v, Json::Obj(_))),
    ("valid", |v| v.as_bool().is_some()),
];

/// Every field a per-backend cell must carry, with a type predicate.
const CELL_FIELDS: &[(&str, FieldCheck)] = &[
    ("wall_ms", |v| v.as_f64().is_some()),
    ("steps", |v| v.as_u64().is_some()),
    ("claim_attempts", |v| v.as_u64().is_some()),
    ("contended_claims", |v| v.as_u64().is_some()),
    ("contention_per_op", |v| v.as_f64().is_some()),
    ("valid", |v| v.as_bool().is_some()),
    ("drift_free", |v| v.as_bool().is_some()),
];

fn check_rows(doc: &Json) {
    assert_eq!(doc.get("all_valid").and_then(Json::as_bool), Some(true));
    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows array");
    assert!(!rows.is_empty());
    for row in rows {
        for (field, type_ok) in ROW_FIELDS {
            let value = row
                .get(field)
                .unwrap_or_else(|| panic!("row missing field {field:?}"));
            assert!(
                type_ok(value),
                "row field {field:?} has the wrong type: {value:?}"
            );
        }
        assert_eq!(row.get("valid").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(cells)) = row.get("backends") else {
            panic!("backends must be an object of cells");
        };
        assert!(!cells.is_empty(), "row carries at least one backend cell");
        for (backend, cell) in cells {
            assert!(
                Backend::parse(backend).is_some(),
                "unknown backend column {backend:?}"
            );
            for (field, type_ok) in CELL_FIELDS {
                let value = cell
                    .get(field)
                    .unwrap_or_else(|| panic!("cell {backend:?} missing field {field:?}"));
                assert!(
                    type_ok(value),
                    "cell {backend:?} field {field:?} has the wrong type: {value:?}"
                );
            }
            assert_eq!(cell.get("drift_free").and_then(Json::as_bool), Some(true));
        }
    }
}

/// A sweep at one small size with every cell guarded.
fn small_sweep(subjects: Vec<Subject>, backends: Vec<Backend>) -> Sweep {
    Sweep {
        subjects,
        backends,
        sizes: vec![64],
        seed: 3,
        threads: Some(2),
        sim_cap: usize::MAX,
        bsp_cap: usize::MAX,
    }
}

#[test]
fn workloads_report_round_trips_and_matches_the_schema() {
    // Sim reference + one drift-guarded native cell per scenario.
    let scenarios = ["uniform-churn", "adversarial-collide"]
        .map(|name| Subject::Scenario(Scenario::parse(name).unwrap()));
    let sweep = small_sweep(scenarios.to_vec(), vec![Backend::Sim, Backend::Native]);
    let (doc, all_valid) = sweep.run();
    assert!(all_valid);

    // Render → parse → compare: the renderer and parser agree exactly.
    let back = Json::parse(&doc.render()).expect("generated report must parse");
    assert_eq!(back, doc);

    for key in [
        "generated_by",
        "seed",
        "threads",
        "host_cores",
        "scenarios",
        "backends",
        "sizes",
        "all_valid",
        "rows",
    ] {
        assert!(back.get(key).is_some(), "missing top-level field {key:?}");
    }
    check_rows(&back);
}

/// The exact key set of a `BENCH_native.json` run entry.
const RUN_KEYS: [&str; 8] = [
    "algorithm",
    "n",
    "native",
    "native_steal",
    "sim",
    "bsp",
    "sim_over_native",
    "chunked_over_stealing",
];

/// The exact top-level key set of a `BENCH_native.json` document.
const NATIVE_DOC_KEYS: [&str; 8] = [
    "generated_by",
    "backends",
    "seed",
    "threads",
    "host_cores",
    "sizes",
    "all_valid",
    "runs",
];

/// Checks an algorithm-row document (`BENCH_native.json`): exact key sets
/// of the document and of every run entry, every algorithm a registry
/// name, every column `null` or a cell with the common fields plus the
/// simulator's or the BSP machine's own, and nothing else.
fn check_native_doc(doc: &Json) {
    let keys = |v: &Json| -> Vec<String> {
        match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    };
    assert_eq!(keys(doc), NATIVE_DOC_KEYS);
    assert_eq!(doc.get("all_valid").and_then(Json::as_bool), Some(true));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert!(!runs.is_empty());
    for run in runs {
        assert_eq!(keys(run), RUN_KEYS);
        let name = run.get("algorithm").and_then(Json::as_str).unwrap();
        assert!(
            Algorithm::parse(name).is_some(),
            "unknown algorithm {name:?}"
        );
        assert!(run.get("n").and_then(Json::as_u64).is_some());
        for ratio in ["sim_over_native", "chunked_over_stealing"] {
            let value = run.get(ratio).unwrap();
            assert!(
                value.as_f64().is_some() || *value == Json::Null,
                "{ratio}: {value:?}"
            );
        }
        let own: [(&str, &[&str]); 4] = [
            ("native", &[]),
            ("native_steal", &[]),
            ("sim", &["work", "max_contention", "time_qrqw"]),
            (
                "bsp",
                &[
                    "supersteps",
                    "messages",
                    "max_queue",
                    "max_h_relation",
                    "measured_cost",
                    "predicted_cost",
                    "components",
                ],
            ),
        ];
        for (column, extra) in own {
            let cell = run.get(column).unwrap();
            if *cell == Json::Null {
                continue;
            }
            let numeric = ["steps", "claim_attempts", "contended_claims"];
            for field in numeric.iter().chain(extra) {
                let value = cell.get(field);
                assert!(
                    value.and_then(Json::as_u64).is_some(),
                    "{name} {column} field {field:?}: {value:?}"
                );
            }
            assert!(cell.get("wall_ms").and_then(Json::as_f64).is_some());
            assert_eq!(cell.get("valid").and_then(Json::as_bool), Some(true));
            for field in keys(cell) {
                let field = field.as_str();
                let known = ["wall_ms", "valid", "drift_free"].contains(&field)
                    || numeric.contains(&field)
                    || extra.contains(&field);
                assert!(known, "{name} {column} has an unknown field {field:?}");
            }
            let drift_free = cell.get("drift_free");
            assert!(drift_free.is_none_or(|d| *d == Json::Bool(true)));
        }
    }
}

#[test]
fn native_report_and_committed_artifact_match_the_algorithm_row_schema() {
    // A generated algorithm sweep and the committed BENCH_native.json pass
    // one schema, so the writer cannot silently change the artifact's
    // shape.  The generated cells are all guarded: they carry drift_free.
    let algos = [Algorithm::PermutationQrqw, Algorithm::FetchAdd].map(Subject::Algorithm);
    let (doc, all_valid) = small_sweep(algos.to_vec(), Backend::ALL.to_vec()).run();
    assert!(all_valid);
    let back = Json::parse(&doc.render()).expect("generated report must parse");
    assert_eq!(back, doc);
    check_native_doc(&back);
    let runs = back.get("runs").and_then(Json::as_arr).unwrap();
    for column in ["native", "native_steal", "sim", "bsp"] {
        let cell = runs[0].get(column).unwrap();
        assert_eq!(cell.get("drift_free"), Some(&Json::Bool(true)), "{column}");
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_native.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_native.json must be committed at the repository root");
    check_native_doc(&Json::parse(&text).expect("committed BENCH_native.json must parse"));
}

#[test]
fn committed_workloads_artifact_parses_with_the_same_schema() {
    // The committed BENCH_workloads.json must stay loadable and
    // schema-conformant (it is regenerated by `perf_report --scenario`),
    // and must actually cover the axis it claims: at least 3 scenarios,
    // at least 2 backends, both native schedules, every cell drift-free.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_workloads.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_workloads.json must be committed at the repository root");
    let doc = Json::parse(&text).expect("committed BENCH_workloads.json must parse");
    check_rows(&doc);

    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .expect("scenarios array");
    assert!(
        scenarios.len() >= 3,
        "committed sweep must cover at least 3 scenarios"
    );
    let backends: Vec<&str> = doc
        .get("backends")
        .and_then(Json::as_arr)
        .expect("backends array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(
        backends.len() >= 2,
        "committed sweep must cover at least 2 backends"
    );
    for schedule_column in ["native", "native-steal"] {
        assert!(
            backends.contains(&schedule_column),
            "committed sweep must cover both native schedules (missing {schedule_column:?})"
        );
    }
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(
        rows.len(),
        scenarios.len(),
        "one row per scenario per size in the committed sweep"
    );
    for row in rows {
        let Some(Json::Obj(cells)) = row.get("backends") else {
            unreachable!("checked by check_rows");
        };
        for name in &backends {
            assert!(
                cells.iter().any(|(b, _)| b == name),
                "row {:?} missing declared backend {name:?}",
                row.get("scenario"),
            );
        }
    }
}
