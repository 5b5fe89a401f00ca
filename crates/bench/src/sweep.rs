//! The `perf_report` sweep: every [`Subject`] × size × [`Backend`] cell,
//! each judged against the simulator's run of the same subject and size.
//!
//! A row is one `(subject, n)`.  Its **reference** is the simulator's run,
//! made exactly when `sim` is among the sweep's backends, and every cell of
//! the row is judged against it:
//!
//! * the **drift guard**, [`BackendRun::agrees_with`]: a backend executes
//!   the simulator's exact charged trajectory, so any difference in steps,
//!   contended claims or (for a scenario) per-epoch contention and end-state
//!   digest means its hot path stopped executing the QRQW charge;
//! * the **Theorem 1.1 check** on the simulator's own BSP section (the
//!   simulator is a [`qrqw_sim::Pram::with_bsp`], so its report prices the
//!   run as the BSP emulation too): `measured_cost` must equal the cell's
//!   traced `time_qrqw` and stay within `predicted_cost`, so a BSP section
//!   that drifts from the trace fails the cell.
//!
//! A cell is valid when its own validator, the guard and the check all
//! pass; without `sim` an algorithm row has no reference and its cells
//! carry their validator only.  A scenario row needs the reference: its
//! header (ops, skew, per-epoch contention) is the reference's outcome.
//!
//! Every cell writes one object: `wall_ms`, `steps`, `claim_attempts`,
//! `contended_claims`, `valid`, plus `contention_per_op` for a churn run,
//! `drift_free` when the row had a reference, and on the simulator's cell
//! `work` / `max_contention` / `time_qrqw` and the seven measured BSP
//! fields.  Only the row and document headers differ by subject kind, so
//! that `BENCH_native.json` (algorithms) and `BENCH_workloads.json`
//! (scenarios) keep their shapes:
//!
//! ```text
//! {"algorithm": "permutation-qrqw", "n": 65536,
//!  "native": {cell}, "native_steal": {cell}, "sim": {cell},
//!  "sim_over_native": 26.86, "chunked_over_stealing": 0.939}
//! {"scenario": "zipf-hot", "dist": …, "churn": …, "epochs": …, "n": …,
//!  "seed": …, "ops": …, "hot_fraction": …, "epoch_contention": […],
//!  "backends": {"sim": {cell}, "native": {cell}, …}, "valid": true}
//! ```
//!
//! A backend that was not asked for is `null` in an algorithm row and
//! absent from a scenario row's `backends`.  Every machine runs on
//! `StepPool::from_env`'s pool: `QRQW_THREADS` sets the native pool size
//! and the simulator's walk width alike.

use qrqw_exec::StepPool;

use crate::report::Json;
use crate::scenario::Scenario;
use crate::{Backend, BackendRun, Subject};

/// One `perf_report` invocation's sweep.
#[derive(Debug)]
pub struct Sweep {
    /// What each row runs: all algorithms or all scenarios.
    pub subjects: Vec<Subject>,
    /// The reported backends.
    pub backends: Vec<Backend>,
    /// Problem sizes, one row per subject each.
    pub sizes: Vec<usize>,
    /// Machine (and trace) seed of every run.
    pub seed: u64,
}

/// One backend's run in a row, with the report's verdict on it.
struct Cell {
    run: BackendRun,
    /// The drift guard's verdict, when the row had a reference.
    drift_free: Option<bool>,
    /// Validator, drift guard and Theorem 1.1 check together.
    valid: bool,
}

impl Cell {
    /// Judges `run` against the row's `reference` (see the module docs),
    /// printing the run and, on stderr, whatever failed.
    fn judge(run: BackendRun, reference: Option<&BackendRun>) -> Cell {
        let drift_free = reference.map(|r| run.agrees_with(r));
        if let (Some(false), Some(r)) = (drift_free, reference) {
            eprintln!(
                "perf_report: {} n={}: {} drifted from the simulator's charge \
                 (steps {} vs {}, contention {} vs {})",
                run.subject,
                run.n,
                run.backend,
                run.report.steps,
                r.report.steps,
                run.report.contended_claims,
                r.report.contended_claims,
            );
        }
        let within_bound = match run.report.bsp {
            Some(b)
                if Some(b.measured_cost) != run.report.time_qrqw
                    || b.measured_cost > b.predicted_cost =>
            {
                eprintln!(
                    "perf_report: {} n={}: bsp measured cost {} is not the traced \
                     QRQW time {:?} or exceeds the predicted cost {}",
                    run.subject, run.n, b.measured_cost, run.report.time_qrqw, b.predicted_cost,
                );
                false
            }
            _ => true,
        };
        let valid = run.valid && drift_free != Some(false) && within_bound;
        println!("{}{}", run.format(), if valid { "" } else { "  FAILED" });
        Cell {
            run,
            drift_free,
            valid,
        }
    }

    fn json(&self) -> Json {
        let (run, r) = (&self.run, &self.run.report);
        let mut fields = vec![
            ("wall_ms", Json::float(run.elapsed.as_secs_f64() * 1e3, 3)),
            ("steps", Json::Int(r.steps)),
            ("claim_attempts", Json::Int(r.claim_attempts)),
            ("contended_claims", Json::Int(r.contended_claims)),
        ];
        if let Some(churn) = &run.churn {
            let per_op = r.contended_claims as f64 / (churn.ops as f64).max(1.0);
            fields.push(("contention_per_op", Json::float(per_op, 4)));
        }
        fields.push(("valid", Json::Bool(self.valid)));
        if let Some(drift_free) = self.drift_free {
            fields.push(("drift_free", Json::Bool(drift_free)));
        }
        let model = [
            ("work", r.work),
            ("max_contention", r.max_contention),
            ("time_qrqw", r.time_qrqw),
        ];
        fields.extend(
            model
                .into_iter()
                .filter_map(|(k, v)| Some((k, Json::Int(v?)))),
        );
        if let Some(b) = r.bsp {
            fields.extend([
                ("supersteps", Json::Int(b.supersteps)),
                ("messages", Json::Int(b.messages)),
                ("max_queue", Json::Int(b.max_queue)),
                ("max_h_relation", Json::Int(b.max_h_relation)),
                ("measured_cost", Json::Int(b.measured_cost)),
                ("predicted_cost", Json::Int(b.predicted_cost)),
                ("components", Json::Int(b.components)),
            ]);
        }
        Json::obj(fields)
    }
}

impl Sweep {
    /// Runs every cell, printing one line per run, and returns the report
    /// document and whether every row was valid.
    ///
    /// # Panics
    ///
    /// If the subjects are scenarios and `sim` is not a backend (a scenario
    /// row has no reference then), or the subjects mix algorithms and
    /// scenarios (one document holds one kind).
    pub fn run(&self) -> (Json, bool) {
        let scenarios: Vec<&Scenario> = self
            .subjects
            .iter()
            .filter_map(|s| match s {
                Subject::Scenario(scenario) => Some(scenario),
                Subject::Algorithm(_) => None,
            })
            .collect();
        assert!(
            scenarios.is_empty() || scenarios.len() == self.subjects.len(),
            "a sweep runs algorithms or scenarios, not both"
        );
        let threads = StepPool::from_env().threads();
        println!(
            "perf_report: {} subjects, backends {:?}, sizes {:?}, seed {}, threads {threads} \
             (host cores {})",
            self.subjects.len(),
            self.backends.iter().map(|b| b.name()).collect::<Vec<_>>(),
            self.sizes,
            self.seed,
            rayon::current_num_threads(),
        );

        let mut rows = Vec::new();
        let mut all_valid = true;
        for &n in &self.sizes {
            for subject in &self.subjects {
                let run = |backend| subject.run(backend, n, self.seed);
                // Simulator first, so every other machine allocates against
                // a warmed process heap.
                let reference = self
                    .backends
                    .contains(&Backend::Sim)
                    .then(|| run(Backend::Sim));
                let mut cells = Vec::new();
                for &backend in Backend::ALL.iter().filter(|b| self.backends.contains(b)) {
                    let run = match (backend, &reference) {
                        (Backend::Sim, Some(r)) => r.clone(),
                        _ => run(backend),
                    };
                    cells.push(Cell::judge(run, reference.as_ref()));
                }
                let valid = cells.iter().all(|c| c.valid);
                all_valid &= valid;
                rows.push(match subject {
                    Subject::Algorithm(_) => algorithm_row(subject.name(), n, &cells),
                    Subject::Scenario(scenario) => {
                        let reference = reference
                            .as_ref()
                            .expect("a scenario row needs the sim reference (sim in backends)");
                        scenario_row(scenario, reference, &cells, valid)
                    }
                });
            }
        }

        let header = |generated_by| {
            vec![
                ("generated_by", Json::str(generated_by)),
                (
                    "backends",
                    Json::Arr(self.backends.iter().map(|b| Json::str(b.name())).collect()),
                ),
                ("seed", Json::Int(self.seed)),
                ("threads", Json::Int(threads as u64)),
                ("host_cores", Json::Int(rayon::current_num_threads() as u64)),
                (
                    "sizes",
                    Json::Arr(self.sizes.iter().map(|&n| Json::Int(n as u64)).collect()),
                ),
                ("all_valid", Json::Bool(all_valid)),
            ]
        };
        let doc = if scenarios.is_empty() {
            let mut fields = header("perf_report");
            fields.push(("runs", Json::Arr(rows)));
            Json::obj(fields)
        } else {
            let mut fields = header("perf_report --scenario");
            let names = scenarios.iter().map(|s| Json::str(&s.name)).collect();
            fields.insert(1, ("scenarios", Json::Arr(names)));
            fields.push(("rows", Json::Arr(rows)));
            Json::obj(fields)
        };
        (doc, all_valid)
    }
}

/// A `BENCH_native.json` run entry: one column per backend (`null` when it
/// did not run) and the two wall-clock ratios.  `chunked_over_stealing`
/// above 1 means the work-stealing schedule was faster.
fn algorithm_row(name: &str, n: usize, cells: &[Cell]) -> Json {
    let cell = |b: Backend| cells.iter().find(|c| c.run.backend == b.name());
    let column = |b: Backend| cell(b).map_or(Json::Null, Cell::json);
    let ratio = |num: Backend, den: Backend, digits: usize| {
        let wall = |b| cell(b).map(|c| c.run.elapsed.as_secs_f64());
        match (wall(num), wall(den)) {
            (Some(a), Some(b)) => Json::float(a / b.max(f64::EPSILON), digits),
            _ => Json::Null,
        }
    };
    Json::obj(vec![
        ("algorithm", Json::str(name)),
        ("n", Json::Int(n as u64)),
        ("native", column(Backend::Native)),
        ("native_steal", column(Backend::NativeSteal)),
        ("sim", column(Backend::Sim)),
        ("sim_over_native", ratio(Backend::Sim, Backend::Native, 2)),
        (
            "chunked_over_stealing",
            ratio(Backend::Native, Backend::NativeSteal, 3),
        ),
    ])
}

/// A `BENCH_workloads.json` row: the scenario's parameters, the reference
/// run's outcome (ops, measured skew, per-epoch contention) and one cell
/// per backend that ran.
fn scenario_row(scenario: &Scenario, reference: &BackendRun, cells: &[Cell], valid: bool) -> Json {
    let outcome = reference
        .churn
        .as_ref()
        .expect("a scenario run carries its churn outcome");
    let epochs = outcome.epoch_contention.iter().map(|&c| Json::Int(c));
    let backends = cells.iter().map(|c| (c.run.backend.to_string(), c.json()));
    Json::obj(vec![
        ("scenario", Json::str(&scenario.name)),
        ("dist", Json::Str(scenario.dist.label())),
        ("churn", Json::Str(scenario.churn_label())),
        ("epochs", Json::Int(scenario.epochs as u64)),
        ("n", Json::Int(reference.n as u64)),
        ("seed", Json::Int(reference.seed)),
        ("ops", Json::Int(outcome.ops)),
        ("hot_fraction", Json::float(outcome.hot_fraction, 4)),
        ("epoch_contention", Json::Arr(epochs.collect())),
        ("backends", Json::Obj(backends.collect())),
        ("valid", Json::Bool(valid)),
    ])
}
