//! The three machine workloads: the basket on `NativeMachine` (fresh and
//! large, warm and small) and on the two model backends.
//!
//! A *cell* is one algorithm on one backend.  Rounds visit every cell once,
//! so each cell's repetitions are spread over the whole run and an
//! interference episode shorter than the run leaves every cell some quiet
//! samples.  The number of rounds is a function of `--seconds` alone.

use std::sync::OnceLock;
use std::time::Instant;

use qrqw_bsp::BspMachine;
use qrqw_exec::{NativeMachine, Schedule, StepPool};
use qrqw_sim::{CostReport, Machine, Pram};

use crate::basket::{self, Algo, Job};
use crate::report::RunResult;
use crate::rng::stream;
use crate::stats;
use crate::trace::Tracer;

/// Threads of every pool the harness builds: the reference box has two
/// vCPUs, and a wider host must not change what is measured.
pub fn threads() -> usize {
    // `available_parallelism` reads cgroup files: ask once, not per machine.
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| crate::proc::nproc().min(2))
}

/// Every pool is built explicitly: thread count, schedule and fusion never
/// come from the environment (which `main` has stripped anyway).
pub fn pool(schedule: Schedule) -> StepPool {
    StepPool::with_threads(threads())
        .with_schedule(schedule)
        .with_fused(true)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NativeLarge,
    NativeSmall,
    Model,
}

impl Kind {
    pub fn parse(workload: &str) -> Option<Kind> {
        match workload {
            "native-large" => Some(Kind::NativeLarge),
            "native-small" => Some(Kind::NativeSmall),
            "model" => Some(Kind::Model),
            _ => None,
        }
    }

    /// Nominal problem size.
    pub fn n(self) -> usize {
        match self {
            Kind::NativeLarge => 1 << 18,
            Kind::NativeSmall => 1 << 12,
            Kind::Model => 1 << 14,
        }
    }

    /// Timed rounds for a run of `seconds`: frozen on the reference box so
    /// that the measured part fills the run (see README, "Frozen load
    /// points").  Work depends on `--seconds` only, never on speed.
    pub fn rounds(self, seconds: f64) -> usize {
        let per_second = match self {
            Kind::NativeLarge => 20.0 / 15.0,
            Kind::NativeSmall => 1000.0 / 15.0,
            Kind::Model => 12.0 / 15.0,
        };
        ((seconds * per_second).round() as usize).max(2)
    }

    /// Untimed warm-up rounds inside a set-up; sized so that a set-up takes
    /// at least 0.3 s on the reference box whatever `--seconds` is.
    fn warmup_rounds(self) -> usize {
        match self {
            Kind::NativeSmall => 40,
            _ => 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// A fresh `NativeMachine` per call.
    Fresh(Schedule),
    /// One warm `NativeMachine` per cell, released back to its base.
    Warm(Schedule),
    Sim,
    Bsp,
}

/// The exact counts of one call (or, on a warm machine, a sum of calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub claim_attempts: u64,
    pub contended_claims: u64,
}

impl Counts {
    fn of(r: &CostReport) -> Counts {
        Counts {
            steps: r.steps,
            claim_attempts: r.claim_attempts,
            contended_claims: r.contended_claims,
        }
    }

    fn add(&mut self, o: Counts) {
        self.steps += o.steps;
        self.claim_attempts += o.claim_attempts;
        self.contended_claims += o.contended_claims;
    }

    pub fn contended_ratio(&self) -> f64 {
        if self.claim_attempts == 0 {
            0.0
        } else {
            self.contended_claims as f64 / self.claim_attempts as f64
        }
    }
}

/// Model-side readings of a simulator or BSP call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelCost {
    pub work: u64,
    pub time_qrqw: u64,
    pub max_contention: u64,
    pub messages: u64,
    pub measured: u64,
    pub predicted: u64,
}

impl ModelCost {
    /// Whatever model-side fields the backend's report fills; 0 elsewhere.
    fn of(r: &CostReport) -> ModelCost {
        ModelCost {
            work: r.work.unwrap_or(0),
            time_qrqw: r.time_qrqw.unwrap_or(0),
            max_contention: r.max_contention.unwrap_or(0),
            messages: r.bsp.map_or(0, |b| b.messages),
            measured: r.bsp.map_or(0, |b| b.measured_cost),
            predicted: r.bsp.map_or(0, |b| b.predicted_cost),
        }
    }
}

#[derive(Debug)]
pub struct Cell {
    pub algo: Algo,
    pub backend: Backend,
    /// The warm machine and its allocation base (warm cells only).
    warm: Option<(NativeMachine, usize)>,
    /// Wall of every timed call, seconds.
    pub walls: Vec<f64>,
    /// Counts of the first timed call (fresh machines: seed of round 0).
    pub first: Counts,
    /// Counts summed over the timed calls.
    pub total: Counts,
    /// Model readings of the first timed call, and sums over all of them.
    pub model_first: ModelCost,
    pub model_work_total: u64,
    pub model_msgs_total: u64,
    pub worst_measured_over_predicted: f64,
    pub invalid_calls: u64,
}

impl Cell {
    fn new(algo: Algo, backend: Backend) -> Cell {
        Cell {
            algo,
            backend,
            warm: None,
            walls: Vec::new(),
            first: Counts::default(),
            total: Counts::default(),
            model_first: ModelCost::default(),
            model_work_total: 0,
            model_msgs_total: 0,
            worst_measured_over_predicted: 0.0,
            invalid_calls: 0,
        }
    }

    /// The cell's typical call wall, seconds.
    pub fn typical(&self) -> f64 {
        stats::typical(&self.walls)
    }
}

/// What a set-up produces and a measurement consumes.
#[derive(Debug)]
pub struct Product {
    seed: u64,
    pub jobs: Vec<Job>,
    pub cells: Vec<Cell>,
    /// Calls whose output failed validation during warm-up.
    pub warmup_invalid: u64,
    /// Wall of the set-up that made this product, seconds.
    pub setup_s: f64,
}

/// Machine seed of `algo`'s call in `round`: the same on every backend, so
/// the exact counts can be compared across them.
fn machine_seed(seed: u64, algo: Algo, round: usize) -> u64 {
    stream(seed, 0x200 + algo.index() as u64 + ((round as u64) << 8)).next_u64()
}

/// Round indexes of the untimed warm-up: past any timed round, so a fresh
/// machine never repeats a timed seed.
const WARMUP_ROUND_BASE: usize = 1 << 40;

struct CallResult {
    wall: f64,
    valid: bool,
    counts: Counts,
    model: ModelCost,
}

fn fresh_call<M: Machine>(job: &Job, t: &mut Tracer, construct: impl FnOnce() -> M) -> CallResult {
    let id = t.begin("construct");
    let mut m = construct();
    t.end(id, 1);
    let out = basket::run(job, &mut m, t);
    let report = m.cost_report();
    let id = t.begin("teardown");
    drop(m);
    t.end(id, 1);
    CallResult {
        wall: out.wall.as_secs_f64(),
        valid: out.valid,
        counts: Counts::of(&report),
        model: ModelCost::of(&report),
    }
}

fn native_fresh(job: &Job, seed: u64, schedule: Schedule, t: &mut Tracer) -> CallResult {
    fresh_call(job, t, || {
        NativeMachine::with_pool(16, seed, pool(schedule))
    })
}

impl Product {
    fn call(&mut self, cell_idx: usize, round: usize, t: &mut Tracer) -> CallResult {
        let cell = &mut self.cells[cell_idx];
        let job = &self.jobs[cell.algo.index()];
        let seed = machine_seed(self.seed, cell.algo, round);
        match cell.backend {
            Backend::Fresh(schedule) => native_fresh(job, seed, schedule, t),
            Backend::Warm(_) => {
                let (m, base) = cell.warm.as_mut().expect("warm cells own a machine");
                let before = Counts {
                    steps: m.steps_executed(),
                    claim_attempts: m.contention().attempts(),
                    contended_claims: m.contention().failures(),
                };
                let out = basket::run(job, m, t);
                let counts = Counts {
                    steps: m.steps_executed() - before.steps,
                    claim_attempts: m.contention().attempts() - before.claim_attempts,
                    contended_claims: m.contention().failures() - before.contended_claims,
                };
                let id = t.begin("teardown");
                m.release_to(*base);
                t.end(id, 1);
                CallResult {
                    wall: out.wall.as_secs_f64(),
                    valid: out.valid,
                    counts,
                    model: ModelCost::default(),
                }
            }
            Backend::Sim => fresh_call(job, t, || Pram::with_seed(16, seed)),
            Backend::Bsp => fresh_call(job, t, || BspMachine::with_threads(16, seed, threads())),
        }
    }

    /// One complete set-up: inputs, machines, and the untimed warm-up.
    pub fn setup(kind: Kind, seed: u64, schedule: Schedule, t: &mut Tracer) -> Product {
        let id = t.begin("setup");
        let start = Instant::now();
        let jobs: Vec<Job> = Algo::ALL
            .iter()
            .map(|&a| Job::new(a, kind.n(), seed))
            .collect();
        let backends: &[Backend] = match kind {
            Kind::NativeLarge => &[Backend::Fresh(schedule)],
            Kind::NativeSmall => &[Backend::Warm(schedule)],
            Kind::Model => &[Backend::Sim, Backend::Bsp],
        };
        let mut cells = Vec::new();
        for &backend in backends {
            for algo in Algo::ALL {
                let mut cell = Cell::new(algo, backend);
                if let Backend::Warm(schedule) = backend {
                    let seed = machine_seed(seed, algo, 0);
                    let m = NativeMachine::with_pool(16, seed, pool(schedule));
                    let base = m.heap_top();
                    cell.warm = Some((m, base));
                }
                cells.push(cell);
            }
        }
        let mut product = Product {
            seed,
            jobs,
            cells,
            warmup_invalid: 0,
            setup_s: 0.0,
        };
        for w in 0..kind.warmup_rounds() {
            for c in 0..product.cells.len() {
                if !product.call(c, WARMUP_ROUND_BASE + w, t).valid {
                    product.warmup_invalid += 1;
                }
            }
        }
        product.setup_s = start.elapsed().as_secs_f64();
        t.end(id, 1);
        product
    }

    /// Runs `rounds` timed rounds over every cell.
    pub fn measure(&mut self, rounds: usize, t: &mut Tracer) {
        let id = t.begin("measure");
        for round in 0..rounds {
            for c in 0..self.cells.len() {
                let r = self.call(c, round, t);
                let cell = &mut self.cells[c];
                cell.walls.push(r.wall);
                if round == 0 {
                    cell.first = r.counts;
                    cell.model_first = r.model;
                }
                cell.total.add(r.counts);
                cell.model_work_total += r.model.work;
                cell.model_msgs_total += r.model.messages;
                if r.model.predicted > 0 {
                    let ratio = r.model.measured as f64 / r.model.predicted as f64;
                    cell.worst_measured_over_predicted =
                        cell.worst_measured_over_predicted.max(ratio);
                }
                if !r.valid {
                    cell.invalid_calls += 1;
                }
            }
        }
        t.end(id, rounds as u64);
    }

    pub fn teardown(self, t: &mut Tracer) {
        let id = t.begin("teardown");
        drop(self);
        t.end(id, 1);
    }

    /// The model workload's exact-count cross-check: one untimed native
    /// call per algorithm and schedule on round 0's machine seed; steps,
    /// claim attempts and contended claims must equal the simulator's and
    /// the BSP machine's.  Returns the algorithms that drifted (or whose
    /// native output was invalid).
    pub fn cross_check_native(&self, t: &mut Tracer) -> Vec<Algo> {
        let id = t.begin("cross_check");
        let mut drifted = Vec::new();
        for algo in Algo::ALL {
            let job = &self.jobs[algo.index()];
            let seed = machine_seed(self.seed, algo, 0);
            let mut all: Vec<Counts> = self
                .cells
                .iter()
                .filter(|c| c.algo == algo)
                .map(|c| c.first)
                .collect();
            let mut valid = true;
            for schedule in Schedule::ALL {
                let r = native_fresh(job, seed, schedule, t);
                valid &= r.valid;
                all.push(r.counts);
            }
            if !valid || all.windows(2).any(|w| w[0] != w[1]) {
                drifted.push(algo);
            }
        }
        t.end(id, 1);
        drifted
    }
}

/// The end-to-end reading of a measured product.
#[derive(Debug, Clone)]
pub struct Reading {
    /// Σ n over the cells ÷ Σ typical call wall.
    pub ops_per_s: f64,
    /// Geometric mean of the cells' typical call walls, µs.
    pub lat_us: f64,
    /// Per round: Σ n ÷ Σ wall of that round's calls (for the table).
    pub round_rates: Vec<f64>,
    /// The cells' typical call walls, µs (for the table).
    pub cell_typicals_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn reading(p: &Product) -> Reading {
    let typicals: Vec<f64> = p.cells.iter().map(Cell::typical).collect();
    let n_of = |c: &Cell| p.jobs[c.algo.index()].n as f64;
    let ops: f64 = p.cells.iter().map(n_of).sum();
    let rounds = p.cells[0].walls.len();
    let round_rates = (0..rounds)
        .map(|r| ops / p.cells.iter().map(|c| c.walls[r]).sum::<f64>())
        .collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for c in &p.cells {
        let n = p.jobs[c.algo.index()].n as u64;
        attempted += n * c.walls.len() as u64;
        failed += n * c.invalid_calls;
    }
    Reading {
        ops_per_s: ops / typicals.iter().sum::<f64>(),
        lat_us: stats::geomean(&typicals) * 1e6,
        round_rates,
        cell_typicals_us: typicals.iter().map(|t| t * 1e6).collect(),
        attempted,
        failed,
    }
}

/// Set-up-plus-teardown cycles an end-to-end run times after its measured
/// part; `setup_s` is their median.  The cycles are identical and warm; the
/// process's first set-up (cold: first-touch page faults, and no teardown
/// until the measured part is over) makes the measured product and is not
/// among them: the traced run reports it as `bench.setup_cold_s`.
pub const SETUP_CYCLES: usize = 5;

fn count_failures(p: &Product, reading: &Reading, out: &mut RunResult) {
    out.attempted += reading.attempted;
    if reading.failed > 0 {
        out.fail(reading.failed, "a basket call's output failed validation");
    }
    if p.warmup_invalid > 0 {
        out.fail(p.warmup_invalid, "warm-up calls failed validation");
    }
    for cell in &p.cells {
        if cell.worst_measured_over_predicted > 1.0 {
            out.fail(
                p.jobs[cell.algo.index()].n as u64,
                format!(
                    "{}: BSP measured cost above the Theorem 1.1 bound",
                    cell.algo.name()
                ),
            );
        }
    }
}

/// Round 0's exact counts must agree between the backends of a model run
/// and the two native schedules.
fn cross_check(p: &Product, t: &mut Tracer, out: &mut RunResult) {
    for algo in p.cross_check_native(t) {
        out.fail(
            p.jobs[algo.index()].n as u64,
            format!(
                "{}: steps/claims drift across sim, bsp, native and native-steal",
                algo.name()
            ),
        );
    }
}

/// The untraced run: one set-up whose product is measured, then
/// [`SETUP_CYCLES`] timed set-up-plus-teardown cycles.
pub fn run_end_to_end(kind: Kind, seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::default();
    let mut t = Tracer::new(false);
    let mut p = Product::setup(kind, seed, Schedule::Chunked, &mut t);
    out.note(format!("first (cold) set-up: {:.6} s", p.setup_s));
    p.measure(kind.rounds(seconds), &mut t);
    if kind == Kind::Model {
        cross_check(&p, &mut t, &mut out);
    }
    // Memory is read when the measured part ends: before the set-up
    // cycles and before any sample is sorted.
    let peak_rss_mib = crate::proc::peak_rss_mib();
    let reading = reading(&p);
    count_failures(&p, &reading, &mut out);
    p.teardown(&mut t);
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_CYCLES {
        let start = Instant::now();
        let again = Product::setup(kind, seed, Schedule::Chunked, &mut t);
        if again.warmup_invalid > 0 {
            out.fail(again.warmup_invalid, "warm-up calls failed validation");
        }
        again.teardown(&mut t);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    out.push_sampled("setup_s", stats::median(&setup_s), &setup_s);
    out.push_sampled("ops_per_s", reading.ops_per_s, &reading.round_rates);
    out.push_sampled("lat_us", reading.lat_us, &reading.cell_typicals_us);
    out.push("peak_rss_mib", peak_rss_mib);
    out
}

/// One traced-run pass: set-up, a third of the rounds, reading.
fn pass(
    kind: Kind,
    seed: u64,
    schedule: Schedule,
    rounds: usize,
    t: &mut Tracer,
    out: &mut RunResult,
) -> (Product, Reading) {
    let root = t.begin("run");
    let mut p = Product::setup(kind, seed, schedule, t);
    p.measure(rounds, t);
    let r = reading(&p);
    count_failures(&p, &r, out);
    t.end(root, r.attempted);
    (p, r)
}

impl Product {
    /// The first cell of `algo` (the simulator's, on `model`).
    fn cell(&self, algo: Algo) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.algo == algo)
            .expect("every algorithm has a cell")
    }

    /// Typical wall of `algo` summed over its cells (sim + bsp on `model`), s.
    fn wall(&self, algo: Algo) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.algo == algo)
            .map(Cell::typical)
            .sum()
    }

    /// Σ `f` over the cells of one backend.
    fn sum(&self, backend: Backend, f: impl Fn(&Cell) -> f64) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.backend == backend)
            .map(f)
            .sum()
    }
}

/// `core.<a>.*`: typical wall and round 0's exact counts per algorithm,
/// and the stealing schedule's wall relative to the chunked one.
fn core_metrics(plain: &Product, stealing: Option<&Product>, out: &mut RunResult) {
    for algo in Algo::ALL {
        let name = algo.name();
        let cell = plain.cell(algo);
        out.push(format!("core.{name}.wall_ms"), plain.wall(algo) * 1e3);
        out.push(format!("core.{name}.steps"), cell.first.steps as f64);
        out.push(
            format!("core.{name}.contended_ratio"),
            cell.first.contended_ratio(),
        );
        if let Some(steal) = stealing {
            out.push(
                format!("core.{name}.steal_ratio"),
                steal.wall(algo) / plain.wall(algo),
            );
            if steal.cell(algo).total != cell.total {
                out.fail(
                    plain.jobs[algo.index()].n as u64,
                    format!("{name}: steps/claims drift between chunked and stealing"),
                );
            }
        }
    }
}

/// `sim.*` and `bsp.*`: host cost per unit of model work, and the exact
/// model-side counts of round 0.
fn model_metrics(plain: &Product, out: &mut RunResult) {
    let all_walls = |c: &Cell| c.walls.iter().sum::<f64>();
    out.push(
        "sim.host_ns_per_work",
        plain.sum(Backend::Sim, all_walls) * 1e9
            / plain.sum(Backend::Sim, |c| c.model_work_total as f64),
    );
    out.push(
        "bsp.host_ns_per_msg",
        plain.sum(Backend::Bsp, all_walls) * 1e9
            / plain.sum(Backend::Bsp, |c| c.model_msgs_total as f64),
    );
    out.push(
        "bsp.msgs_total",
        plain.sum(Backend::Bsp, |c| c.model_first.messages as f64),
    );
    let worst = plain
        .cells
        .iter()
        .map(|c| c.worst_measured_over_predicted)
        .fold(0.0, f64::max);
    out.push("bsp.measured_over_predicted_max", worst);
    for cell in plain.cells.iter().filter(|c| c.backend == Backend::Sim) {
        let name = cell.algo.name();
        out.push(
            format!("sim.{name}.time_qrqw"),
            cell.model_first.time_qrqw as f64,
        );
        out.push(
            format!("sim.{name}.max_contention"),
            cell.model_first.max_contention as f64,
        );
    }
}

/// The traced run: the workload twice at a third of its length (spans
/// off, then on), the stealing-schedule cells, then the primitive probes.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, t: &mut Tracer) -> RunResult {
    let mut out = RunResult::default();
    let rounds = kind.rounds(seconds / 3.0);

    t.set_enabled(false);
    let cpu0 = crate::proc::cpu_ns();
    let ctx0 = crate::proc::ctx_switches();
    let (plain, plain_reading) = pass(kind, seed, Schedule::Chunked, rounds, t, &mut out);
    let cpu = crate::proc::cpu_ns() - cpu0;
    let ctx = crate::proc::ctx_switches().saturating_sub(ctx0);
    let ops = plain_reading.attempted as f64;
    out.push("bench.setup_cold_s", plain.setup_s);
    out.push("proc.cpu_ns_per_op", cpu as f64 / ops);
    out.push("proc.ctx_switches_per_kop", ctx as f64 * 1e3 / ops);

    t.set_enabled(true);
    t.next_run();
    let (spanned, spanned_reading) = pass(kind, seed, Schedule::Chunked, rounds, t, &mut out);
    t.set_enabled(false);
    spanned.teardown(t);
    out.push(
        "bench.trace_overhead_ratio",
        plain_reading.ops_per_s / spanned_reading.ops_per_s,
    );

    if kind == Kind::Model {
        cross_check(&plain, t, &mut out);
        core_metrics(&plain, None, &mut out);
        model_metrics(&plain, &mut out);
    } else {
        let (stealing, _) = pass(kind, seed, Schedule::Stealing, rounds, t, &mut out);
        core_metrics(&plain, Some(&stealing), &mut out);
        stealing.teardown(t);
        // Warm machines keep their arenas: what a long-lived caller holds.
        let held: usize = plain
            .cells
            .iter()
            .filter_map(|c| c.warm.as_ref())
            .map(|(m, _)| m.arena_stats().cells)
            .sum();
        out.push("exec.arena.heap_cells_end", held as f64);
        out.extend(crate::probes::machine_probes(seed));
        out.extend(crate::probes::arena_probes());
    }

    let pool_probes = crate::probes::pool_probes();
    // What one chunked dispatch per step would cost, as a share of each
    // algorithm's wall: large on small steps, negligible on large ones.
    let (probe, dispatch_ns) = &pool_probes[0];
    let shares: Vec<f64> = Algo::ALL
        .iter()
        .map(|&a| dispatch_ns * plain.cell(a).first.steps as f64 / (plain.wall(a) * 1e9))
        .collect();
    out.note(format!(
        "computed dispatch share ({probe} x steps / wall), median over the basket: {:.4}",
        stats::median(&shares)
    ));
    out.extend(pool_probes);
    plain.teardown(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_seeds_are_shared_across_backends_and_differ_by_round_and_algorithm() {
        let a = machine_seed(3, Algo::Hashing, 0);
        assert_eq!(a, machine_seed(3, Algo::Hashing, 0));
        assert_ne!(a, machine_seed(3, Algo::Hashing, 1));
        assert_ne!(a, machine_seed(3, Algo::ListRank, 0));
        assert_ne!(a, machine_seed(4, Algo::Hashing, 0));
    }

    #[test]
    fn rounds_depend_on_seconds_alone() {
        assert_eq!(Kind::NativeLarge.rounds(15.0), 20);
        assert_eq!(Kind::NativeSmall.rounds(15.0), 1000);
        assert_eq!(Kind::NativeLarge.rounds(0.1), 2);
        assert_eq!(Kind::Model.rounds(15.0), 12);
    }
}
