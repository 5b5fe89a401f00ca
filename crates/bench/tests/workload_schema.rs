//! `BENCH_workloads.json` schema round-trip: the committed artifact's
//! shape is produced and checked through the same code path
//! (`ScenarioRun::cell_json` + `scenario_row_json` +
//! `workloads_report_json` + the shared renderer/parser), so a schema
//! drift breaks this test before it breaks a downstream consumer —
//! mirroring `service_schema.rs` for the scenario sweep.

use qrqw_bench::report::Json;
use qrqw_bench::scenario::{scenario_row_json, workloads_report_json, Scenario};
use qrqw_bench::Backend;

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

#[test]
fn workloads_report_round_trips_and_matches_the_schema() {
    // A tiny in-process sweep through the exact assembly helpers the
    // binary uses: sim reference + one drift-guarded native cell per
    // scenario.
    let scenarios = vec![
        Scenario::parse("uniform-churn").unwrap(),
        Scenario::parse("adversarial-collide").unwrap(),
    ];
    let backends = [Backend::Sim, Backend::Native];
    let mut rows = Vec::new();
    for scenario in &scenarios {
        let reference = scenario.run(Backend::Sim, 64, 3, None);
        assert!(reference.valid, "{} invalid on sim", scenario.name);
        let native = scenario.run(Backend::Native, 64, 3, Some(2));
        let drift_free = native.report.steps == reference.report.steps
            && native.report.contended_claims == reference.report.contended_claims
            && native.outcome.digest == reference.outcome.digest;
        assert!(drift_free, "{} drifted", scenario.name);
        let cells = vec![
            (Backend::Sim.name(), reference.cell_json(true)),
            (Backend::Native.name(), native.cell_json(drift_free)),
        ];
        rows.push(scenario_row_json(
            scenario,
            &reference,
            cells,
            reference.valid && native.valid && drift_free,
        ));
    }
    let doc = workloads_report_json(
        "perf_report --scenario",
        3,
        2,
        &scenarios,
        &backends,
        &[64],
        true,
        rows,
    );

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
