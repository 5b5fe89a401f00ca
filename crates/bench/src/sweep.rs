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
//! pass; without `sim` a row has no reference and its cells carry their
//! validator only.  A scenario row needs the reference all the same: its
//! outcome (ops, skew, per-epoch contention) is the reference's.
//!
//! Every cell writes one object: `wall_ms`, `steps`, `claim_attempts`,
//! `contended_claims`, `valid`, plus `contention_per_op` for a churn run,
//! `drift_free` when the row had a reference, and on the simulator's cell
//! `work` / `max_contention` / `time_qrqw` and the seven measured BSP
//! fields.  Algorithms and scenarios write one row shape, which differs
//! only by a scenario's own parameters and outcome, so that
//! `BENCH_native.json` (algorithms) and `BENCH_workloads.json` (scenarios)
//! are one document shape under [`sweep_json`]'s header:
//!
//! ```text
//! {"subject": "permutation-qrqw", "n": 65536, "seed": 1,
//!  "backends": {"sim": {cell}, "native": {cell}, "native-steal": {cell}},
//!  "sim_over_native": 4.68, "chunked_over_stealing": 1.097, "valid": true}
//! {"subject": "zipf-hot", "n": 4096, "seed": 1, "dist": …, "churn": …,
//!  "epochs": …, "ops": …, "hot_fraction": …, "epoch_contention": […],
//!  "backends": {…}, "sim_over_native": …, "chunked_over_stealing": …,
//!  "valid": true}
//! ```
//!
//! A cell is keyed by [`Backend::name`]; a backend that was not asked for
//! is absent, and so is a ratio it would feed.  Every machine runs on
//! `StepPool::from_env`'s pool: `QRQW_THREADS` sets the native pool size
//! and the simulator's walk width alike.

use qrqw_exec::StepPool;

use crate::report::{sweep_json, Json};
use crate::{Backend, BackendRun, Subject};

/// One `perf_report` invocation's sweep.
#[derive(Debug)]
pub struct Sweep {
    /// What each row runs: registry algorithms, churn scenarios or both.
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
    /// If a subject is a scenario and `sim` is not a backend (a scenario
    /// row has no outcome then).
    pub fn run(&self) -> (Json, bool) {
        let threads = StepPool::from_env().threads();
        let backends: Vec<&str> = self.backends.iter().map(|b| b.name()).collect();
        println!(
            "perf_report: {} subjects, backends {backends:?}, sizes {:?}, seed {}, \
             threads {threads} (host cores {})",
            self.subjects.len(),
            self.sizes,
            self.seed,
            rayon::current_num_threads(),
        );

        let mut runs = Vec::new();
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
                runs.push(self.row(subject, n, &cells, valid));
            }
        }

        let header = vec![
            (
                "backends",
                Json::Arr(backends.into_iter().map(Json::str).collect()),
            ),
            (
                "sizes",
                Json::Arr(self.sizes.iter().map(|&n| Json::Int(n as u64)).collect()),
            ),
            (
                "subjects",
                Json::Arr(self.subjects.iter().map(|s| Json::str(s.name())).collect()),
            ),
        ];
        let doc = sweep_json("perf_report", self.seed, threads, header, all_valid, runs);
        (doc, all_valid)
    }

    /// One run entry: the subject, its size and seed, a scenario's own
    /// parameters and the reference's (the sim cell's) outcome, one cell
    /// per backend that ran, each wall-clock ratio whose two backends both
    /// ran, and the row's verdict.  `chunked_over_stealing` above 1 means
    /// the work-stealing schedule was faster.
    fn row(&self, subject: &Subject, n: usize, cells: &[Cell], valid: bool) -> Json {
        let cell = |b: Backend| cells.iter().find(|c| c.run.backend == b.name());
        let mut fields = vec![
            ("subject", Json::str(subject.name())),
            ("n", Json::Int(n as u64)),
            ("seed", Json::Int(self.seed)),
        ];
        if let Subject::Scenario(scenario) = subject {
            let outcome = cell(Backend::Sim)
                .and_then(|c| c.run.churn.as_ref())
                .expect("a scenario row needs the sim reference (sim in backends)");
            let epochs = outcome.epoch_contention.iter().map(|&c| Json::Int(c));
            fields.extend([
                ("dist", Json::Str(scenario.dist.label())),
                ("churn", Json::Str(scenario.churn_label())),
                ("epochs", Json::Int(scenario.epochs as u64)),
                ("ops", Json::Int(outcome.ops)),
                ("hot_fraction", Json::float(outcome.hot_fraction, 4)),
                ("epoch_contention", Json::Arr(epochs.collect())),
            ]);
        }
        let backends = cells.iter().map(|c| (c.run.backend.to_string(), c.json()));
        fields.push(("backends", Json::Obj(backends.collect())));
        let wall = |b| cell(b).map(|c| c.run.elapsed.as_secs_f64());
        let ratios = [
            ("sim_over_native", Backend::Sim, Backend::Native, 2),
            (
                "chunked_over_stealing",
                Backend::Native,
                Backend::NativeSteal,
                3,
            ),
        ];
        for (key, num, den, digits) in ratios {
            if let (Some(a), Some(b)) = (wall(num), wall(den)) {
                fields.push((key, Json::float(a / b.max(f64::EPSILON), digits)));
            }
        }
        fields.push(("valid", Json::Bool(valid)));
        Json::obj(fields)
    }
}
