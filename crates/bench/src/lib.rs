//! # qrqw-bench — harnesses that regenerate the paper's tables and figures
//!
//! Binaries (run with `cargo run -p qrqw-bench --release --bin <name>`):
//!
//! * `table1`  — Table I: QRQW algorithms vs. the best EREW algorithms for
//!   random permutation, multiple compaction, sorting from U(0,1), hashing
//!   and load balancing, measured on the PRAM simulator.
//! * `table2`  — Table II: wall-clock comparison of the three
//!   random-permutation implementations (sorting-based, dart-throwing with
//!   scans, QRQW dart throwing) at n = 16,384 and n = 1,024, plus the
//!   model-predicted ordering from the simulator (the §5.2 asymptotic
//!   analysis paragraph).
//! * `figure1` — Figure 1: cyclic vs. non-cyclic permutations and their
//!   cycle representations.
//! * `ablation` — design-choice sweeps: dart-throwing subarray size,
//!   fat-tree vs. concurrent binary search, linear-compaction output slack.
//! * `perf_report` — any subset of the [`Algorithm`] registry (or the
//!   churn [`scenario`]s) on any set of [`Backend`]s, with validators, the
//!   step-drift guard and the BSP cross-check (committed
//!   `BENCH_native.json` / `BENCH_workloads.json`).
//! * `rss_guard` — peak-RSS probe of staged arena growth.
//! * `service_report` — the `qrqw-serve` load sweep over resident keys ×
//!   fault plans × batch caps × workloads: throughput, latency, goodput,
//!   snapshot overhead and recovery latency, with one validator on every
//!   run (committed `BENCH_service.json` and `BENCH_chaos.json`, see
//!   [`service`]).

#![deny(missing_docs)]

use std::time::{Duration, Instant};

use qrqw_bsp::BspMachine;
use qrqw_core::hashing::HASH_PRIME;
use qrqw_core::{
    emulate_fetch_add_step, integer_sort_crqw, is_cyclic, is_permutation, load_balance_erew,
    load_balance_qrqw, multiple_compaction, random_cyclic_permutation_efficient,
    random_cyclic_permutation_fast, random_permutation_dart_scan, random_permutation_qrqw,
    random_permutation_sorting_erew, sample_sort_crqw, sample_sort_qrqw, sort_uniform_keys,
    QrqwHashTable,
};
use qrqw_exec::{NativeMachine, Schedule, StepPool};
use qrqw_prims::{linear_compaction, list_rank};
use qrqw_sim::{CostModel, CostReport, Machine, Pram, TraceSummary, EMPTY};

pub mod report;
pub mod scenario;
pub mod service;
pub mod workload;

/// Which [`Machine`] backend a harness run executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The exact-cost QRQW PRAM simulator ([`Pram`]).
    Sim,
    /// The native pooled-threads/atomics machine ([`NativeMachine`]) on a
    /// [`Schedule::Chunked`] step pool.
    Native,
    /// The same machine on a [`Schedule::Stealing`] step pool — bit-identical
    /// to [`Backend::Native`] in every observable; only wall-clock under
    /// skew differs.
    NativeSteal,
    /// The batch-message BSP machine ([`BspMachine`]) measuring the
    /// Theorem 1.1 emulation.
    Bsp,
}

impl Backend {
    /// Every backend, simulator first.
    pub const ALL: [Backend; 4] = [
        Backend::Sim,
        Backend::Native,
        Backend::NativeSteal,
        Backend::Bsp,
    ];

    /// Short name (`"sim"` / `"native"` / `"native-steal"` / `"bsp"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
            Backend::NativeSteal => "native-steal",
            Backend::Bsp => "bsp",
        }
    }

    /// Parses a backend name.
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Parses a backend *set* specification: a comma-separated list of
    /// backend names, or `all`.
    pub fn parse_set(spec: &str) -> Option<Vec<Backend>> {
        if spec == "all" {
            return Some(Backend::ALL.to_vec());
        }
        spec.split(',')
            .map(|s| Backend::parse(s.trim()))
            .collect::<Option<Vec<_>>>()
            .filter(|v| !v.is_empty())
    }

    /// Builds the machine this backend names — seeded with `seed`, its step
    /// pool on `threads` threads (`None`: `QRQW_THREADS` / host parallelism)
    /// — runs `job` on it, and returns the job's output next to the
    /// machine's cost report.  Every harness machine is constructed here, so
    /// a run's backend label and its machine cannot disagree.
    pub(crate) fn run_job<J: MachineJob>(
        self,
        seed: u64,
        threads: Option<usize>,
        job: J,
    ) -> (J::Output, CostReport) {
        fn go<M: Machine, J: MachineJob>(mut m: M, job: J) -> (J::Output, CostReport) {
            let out = job.run(&mut m);
            (out, m.cost_report())
        }
        let pool = || threads.map_or_else(StepPool::from_env, StepPool::with_threads);
        match self {
            Backend::Sim => go(Pram::with_seed(16, seed), job),
            Backend::Native | Backend::NativeSteal => {
                let schedule = if self == Backend::Native {
                    Schedule::Chunked
                } else {
                    Schedule::Stealing
                };
                let pool = pool().with_schedule(schedule);
                go(NativeMachine::with_pool(16, seed, pool), job)
            }
            Backend::Bsp => go(BspMachine::with_threads(16, seed, pool().threads()), job),
        }
    }
}

/// Work for whichever machine a [`Backend`] names (see [`Backend::run_job`]).
pub(crate) trait MachineJob {
    /// What the job hands back.
    type Output;

    /// Runs the job on the freshly built machine.
    fn run<M: Machine>(self, m: &mut M) -> Self::Output;
}

/// An algorithm ported to the [`Machine`] backend API, runnable (and timed)
/// on any backend from this one entry point.
///
/// ```
/// use qrqw_bench::{Algorithm, Backend};
///
/// // Parse a registry name, run it on a backend, check its validator.
/// let algo = Algorithm::parse("permutation-qrqw").unwrap();
/// let sim = algo.run(Backend::Sim, 256, 1, None);
/// assert!(sim.valid);
///
/// // The same seed on the native work-stealing backend is the same
/// // trajectory: lockstep step counters, identical contention totals.
/// let steal = algo.run(Backend::NativeSteal, 256, 1, Some(2));
/// assert_eq!(steal.backend, "native-steal");
/// assert!(steal.valid);
/// assert_eq!(sim.report.steps, steal.report.steps);
/// assert_eq!(sim.report.contended_claims, steal.report.contended_claims);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// §5.1.1 QRQW dart-throwing random permutation (Theorem 5.1).
    PermutationQrqw,
    /// §5.2 dart throwing with per-round compaction scans.
    PermutationDartScan,
    /// §5.2 sorting-based EREW baseline (bitonic system sort).
    PermutationSortingErew,
    /// §4 low-contention linear compaction (half-full input array).
    LinearCompaction,
    /// §3 QRQW load balancing on a skewed load vector.
    LoadBalanceQrqw,
    /// §3 EREW prefix-sums load-balancing baseline.
    LoadBalanceErew,
    /// §4 multiple compaction (mixed heavy + light instance, Theorem 4.1).
    MultipleCompaction,
    /// §6 hash-table construction plus `n` positive and `n` negative
    /// membership lookups (Theorem 6.1).
    Hashing,
    /// §5.1.2 fast random cyclic permutation (Theorem 5.2).
    CyclicFast,
    /// §5.1.3 work-optimal random cyclic permutation (Theorem 5.3).
    CyclicEfficient,
    /// §7.2 sample sort with fat-tree labelling (QRQW Algorithm A).
    SampleSortQrqw,
    /// §7.2 sample sort with concurrent-read binary-search labelling.
    SampleSortCrqw,
    /// §7.3 CRQW integer sorting (Theorem 7.4).
    IntegerSort,
    /// §7.1 distributive sorting of U(0,1) keys (Theorem 7.1).
    DistributiveSort,
    /// §7.3 one emulated Fetch&Add step over a hot address set (Lemma 7.5).
    FetchAdd,
    /// §3 pointer-jumping list ranking over one n-node chain.
    ListRank,
}

impl Algorithm {
    /// Every ported algorithm.
    pub const ALL: [Algorithm; 16] = [
        Algorithm::PermutationQrqw,
        Algorithm::PermutationDartScan,
        Algorithm::PermutationSortingErew,
        Algorithm::LinearCompaction,
        Algorithm::LoadBalanceQrqw,
        Algorithm::LoadBalanceErew,
        Algorithm::MultipleCompaction,
        Algorithm::Hashing,
        Algorithm::CyclicFast,
        Algorithm::CyclicEfficient,
        Algorithm::SampleSortQrqw,
        Algorithm::SampleSortCrqw,
        Algorithm::IntegerSort,
        Algorithm::DistributiveSort,
        Algorithm::FetchAdd,
        Algorithm::ListRank,
    ];

    /// Stable kebab-case name (also accepted by [`Algorithm::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::PermutationQrqw => "permutation-qrqw",
            Algorithm::PermutationDartScan => "permutation-dart-scan",
            Algorithm::PermutationSortingErew => "permutation-sorting-erew",
            Algorithm::LinearCompaction => "linear-compaction",
            Algorithm::LoadBalanceQrqw => "load-balance-qrqw",
            Algorithm::LoadBalanceErew => "load-balance-erew",
            Algorithm::MultipleCompaction => "multiple-compaction",
            Algorithm::Hashing => "hashing",
            Algorithm::CyclicFast => "cyclic-fast",
            Algorithm::CyclicEfficient => "cyclic-efficient",
            Algorithm::SampleSortQrqw => "sample-sort-qrqw",
            Algorithm::SampleSortCrqw => "sample-sort-crqw",
            Algorithm::IntegerSort => "integer-sort",
            Algorithm::DistributiveSort => "distributive-sort",
            Algorithm::FetchAdd => "fetch-add",
            Algorithm::ListRank => "list-rank",
        }
    }

    /// Parses an algorithm name as printed by [`Algorithm::name`].
    pub fn parse(s: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == s)
    }

    /// The deterministic skewed load vector the load-balancing runs use
    /// (a few heavy processors, a sparse tail).
    pub fn skewed_loads(n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| if i % 64 == 0 { 64 } else { (i % 2) as u64 })
            .collect()
    }

    /// Deterministic scattered keys below [`HASH_PRIME`]: the multiplicative
    /// map `i ↦ (i+1)·MULT mod (2³¹−1)` is injective (the modulus is prime),
    /// so the keys are distinct — what the hashing and sorting workloads
    /// need without host-side RNG state.
    pub fn scattered_keys(n: usize, offset: usize) -> Vec<u64> {
        const MULT: u64 = 0x5DEE_CE66;
        (0..n)
            .map(|i| ((i + offset) as u64 + 1) * MULT % HASH_PRIME)
            .collect()
    }

    /// Runs this algorithm at problem size `n` on an already-constructed
    /// machine, returning whether the output validated and the wall-clock
    /// time of the algorithm itself (input setup and output validation are
    /// excluded, matching how the MasPar experiment timed its kernels).
    pub fn run_on<M: Machine>(self, m: &mut M, n: usize) -> (bool, Duration) {
        match self {
            Algorithm::PermutationQrqw => {
                let start = Instant::now();
                let out = random_permutation_qrqw(m, n);
                let elapsed = start.elapsed();
                (is_permutation(&out.order), elapsed)
            }
            Algorithm::PermutationDartScan => {
                let start = Instant::now();
                let out = random_permutation_dart_scan(m, n);
                let elapsed = start.elapsed();
                (is_permutation(&out.order), elapsed)
            }
            Algorithm::PermutationSortingErew => {
                let start = Instant::now();
                let out = random_permutation_sorting_erew(m, n);
                let elapsed = start.elapsed();
                (is_permutation(&out.order), elapsed)
            }
            Algorithm::LinearCompaction => {
                let src = m.alloc(n.max(1));
                let k = n / 2;
                for i in 0..k {
                    m.poke(src + 2 * i, i as u64 + 1);
                }
                let dst = m.alloc((4 * k).max(4));
                let start = Instant::now();
                let out = linear_compaction(m, src, n, dst, (4 * k).max(4));
                let elapsed = start.elapsed();
                let mut dests: Vec<usize> = out.placements.iter().map(|&(_, d)| d).collect();
                dests.sort_unstable();
                dests.dedup();
                (out.placements.len() == k && dests.len() == k, elapsed)
            }
            Algorithm::LoadBalanceQrqw => {
                let loads = Algorithm::skewed_loads(n);
                let total: u64 = loads.iter().sum();
                let start = Instant::now();
                let res = load_balance_qrqw(m, &loads);
                let elapsed = start.elapsed();
                let valid = res.covers_exactly(&loads)
                    && (n == 0 || res.max_final_load <= 64 * (1 + total / n as u64));
                (valid, elapsed)
            }
            Algorithm::LoadBalanceErew => {
                let loads = Algorithm::skewed_loads(n);
                let start = Instant::now();
                let res = load_balance_erew(m, &loads);
                let elapsed = start.elapsed();
                (res.covers_exactly(&loads), elapsed)
            }
            Algorithm::MultipleCompaction => {
                // Mixed instance: one heavy label plus a spread of light ones.
                let num_labels = (n / 32).clamp(2, 64);
                let labels: Vec<u64> = (0..n)
                    .map(|i| {
                        if i % 3 == 0 {
                            0
                        } else {
                            (i % num_labels) as u64
                        }
                    })
                    .collect();
                let mut counts = vec![0u64; num_labels];
                for &l in &labels {
                    counts[l as usize] += 1;
                }
                let start = Instant::now();
                let res = multiple_compaction(m, &labels, &counts);
                let elapsed = start.elapsed();
                let mut dests: Vec<usize> = res.positions.clone();
                dests.sort_unstable();
                dests.dedup();
                let in_subarray = res.positions.iter().enumerate().all(|(item, &pos)| {
                    let label = labels[item] as usize;
                    let lo = res.layout.b_base + res.layout.subarray_offset[label];
                    pos >= lo && pos < lo + res.layout.subarray_len[label]
                });
                (!res.failed && dests.len() == n && in_subarray, elapsed)
            }
            Algorithm::Hashing => {
                let keys = Algorithm::scattered_keys(n, 0);
                let probes = Algorithm::scattered_keys(n, n);
                let start = Instant::now();
                let table = QrqwHashTable::build(m, &keys);
                let hits = table.lookup_batch(m, &keys);
                let misses = table.lookup_batch(m, &probes);
                let elapsed = start.elapsed();
                let valid =
                    hits.len() == n && hits.iter().all(|&h| h) && misses.iter().all(|&h| !h);
                (valid, elapsed)
            }
            Algorithm::CyclicFast => {
                let start = Instant::now();
                let out = random_cyclic_permutation_fast(m, n);
                let elapsed = start.elapsed();
                (
                    is_permutation(&out.successor) && is_cyclic(&out.successor),
                    elapsed,
                )
            }
            Algorithm::CyclicEfficient => {
                let start = Instant::now();
                let out = random_cyclic_permutation_efficient(m, n);
                let elapsed = start.elapsed();
                (
                    is_permutation(&out.successor) && is_cyclic(&out.successor),
                    elapsed,
                )
            }
            Algorithm::SampleSortQrqw => {
                let keys = Algorithm::scattered_keys(n, 0);
                let start = Instant::now();
                let got = sample_sort_qrqw(m, &keys);
                let elapsed = start.elapsed();
                let mut expect = keys;
                expect.sort_unstable();
                (got == expect, elapsed)
            }
            Algorithm::SampleSortCrqw => {
                let keys = Algorithm::scattered_keys(n, 0);
                let start = Instant::now();
                let got = sample_sort_crqw(m, &keys);
                let elapsed = start.elapsed();
                let mut expect = keys;
                expect.sort_unstable();
                (got == expect, elapsed)
            }
            Algorithm::IntegerSort => {
                let max_key = (n as u64 * 16).max(16);
                let keys: Vec<u64> = Algorithm::scattered_keys(n, 0)
                    .into_iter()
                    .map(|k| k % max_key)
                    .collect();
                let start = Instant::now();
                let got = integer_sort_crqw(m, &keys, max_key);
                let elapsed = start.elapsed();
                let mut expect = keys;
                expect.sort_unstable();
                (got == expect, elapsed)
            }
            Algorithm::DistributiveSort => {
                let keys = Algorithm::scattered_keys(n, 0);
                let start = Instant::now();
                let got = sort_uniform_keys(m, &keys);
                let elapsed = start.elapsed();
                let mut expect = keys;
                expect.sort_unstable();
                (got == expect, elapsed)
            }
            Algorithm::FetchAdd => {
                // Unit increments over a hot set of n/8 counters: the old
                // values seen at each address must be exactly 0..count.
                let num_addrs = (n / 8).max(1);
                let requests: Vec<(usize, u64)> = (0..n).map(|i| (i % num_addrs, 1)).collect();
                let start = Instant::now();
                let olds = emulate_fetch_add_step(m, &requests);
                let elapsed = start.elapsed();
                let mut per_addr: Vec<Vec<u64>> = vec![Vec::new(); num_addrs];
                for (i, &(a, _)) in requests.iter().enumerate() {
                    per_addr[a].push(olds[i]);
                }
                let valid = per_addr.iter().enumerate().all(|(a, seen)| {
                    let mut seen = seen.clone();
                    seen.sort_unstable();
                    seen == (0..seen.len() as u64).collect::<Vec<u64>>()
                        && m.peek(a) == seen.len() as u64
                });
                (valid, elapsed)
            }
            Algorithm::ListRank => {
                // One chain 0 → 1 → … → n−1; rank of node i must be n−1−i.
                let succ_base = m.alloc(n.max(1));
                let rank_base = m.alloc(n.max(1));
                let succ: Vec<u64> = (0..n)
                    .map(|i| if i + 1 < n { i as u64 + 1 } else { EMPTY })
                    .collect();
                m.load(succ_base, &succ);
                let start = Instant::now();
                list_rank(m, succ_base, n, rank_base);
                let elapsed = start.elapsed();
                let ranks = m.dump(rank_base, n);
                let valid = ranks
                    .iter()
                    .enumerate()
                    .all(|(i, &r)| r == (n - 1 - i) as u64);
                (valid, elapsed)
            }
        }
    }

    /// Creates a fresh machine of the requested backend — step pool on
    /// `threads` threads, or `QRQW_THREADS` / host parallelism when `None` —
    /// runs this algorithm on it, and reports timing, validity and the
    /// machine's cost report.
    pub fn run(self, backend: Backend, n: usize, seed: u64, threads: Option<usize>) -> BackendRun {
        struct Job(Algorithm, usize);
        impl MachineJob for Job {
            type Output = (bool, Duration);
            fn run<M: Machine>(self, m: &mut M) -> Self::Output {
                self.0.run_on(m, self.1)
            }
        }
        let ((valid, elapsed), report) = backend.run_job(seed, threads, Job(self, n));
        BackendRun {
            algorithm: self.name(),
            backend: backend.name(),
            n,
            seed,
            valid,
            elapsed,
            report,
        }
    }
}

/// One algorithm execution on one backend: the unified record the Table II
/// harness (and any future sweep) prints.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// [`Algorithm::name`] of the run.
    pub algorithm: &'static str,
    /// [`Backend::name`] of the run.
    pub backend: &'static str,
    /// Problem size.
    pub n: usize,
    /// Machine seed.
    pub seed: u64,
    /// Whether the output validated (permutation check, coverage check, …).
    pub valid: bool,
    /// Wall-clock time of the algorithm run itself.
    pub elapsed: Duration,
    /// The backend's own cost report.
    pub report: CostReport,
}

impl BackendRun {
    /// Formats the run as one harness row.
    pub fn format(&self) -> String {
        format!(
            "{:<26} {:<7} n={:<7} {:>9.3} ms  valid={} {}",
            self.algorithm,
            self.backend,
            self.n,
            self.elapsed.as_secs_f64() * 1e3,
            self.valid,
            self.report,
        )
    }
}

/// Problem sizes used by the Table I sweep.
pub const TABLE1_SIZES: [usize; 4] = [1 << 10, 1 << 12, 1 << 14, 1 << 16];

/// One measured row of a table: an algorithm name plus the trace summary of
/// a single simulated run.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Algorithm / configuration label.
    pub label: String,
    /// Input size the run used.
    pub n: usize,
    /// Trace summary of the run.
    pub summary: TraceSummary,
}

impl MeasuredRow {
    /// Runs `f` on a fresh PRAM with the given seed and records its trace.
    pub fn measure(label: &str, n: usize, seed: u64, f: impl FnOnce(&mut Pram)) -> MeasuredRow {
        let mut pram = Pram::with_seed(16, seed);
        f(&mut pram);
        MeasuredRow {
            label: label.to_string(),
            n,
            summary: pram.trace().summary(),
        }
    }

    /// Formats the row for the table harnesses.
    pub fn format(&self) -> String {
        format!(
            "{:<34} n={:<7} t_qrqw={:<6} t_crqw={:<6} t_erew={:<6} t_crcw={:<6} work={:<9} max_cont={:<5} erew_viol={}",
            self.label,
            self.n,
            self.summary.time_qrqw,
            self.summary.time_crqw,
            self.summary.time_erew,
            self.summary.time_crcw,
            self.summary.work,
            self.summary.max_contention,
            self.summary.erew_violations
        )
    }

    /// The time of this run under `model`.
    pub fn time(&self, model: CostModel) -> u64 {
        match model {
            CostModel::Erew | CostModel::Crew => self.summary.time_erew,
            CostModel::Qrqw => self.summary.time_qrqw,
            CostModel::Crqw => self.summary.time_crqw,
            CostModel::Crcw => self.summary.time_crcw,
            CostModel::SimdQrqw => self.summary.time_simd_qrqw,
            CostModel::ScanSimdQrqw => self.summary.time_scan_simd_qrqw,
        }
    }
}

/// Prints a titled block of measured rows.
pub fn print_rows(title: &str, rows: &[MeasuredRow]) {
    println!("\n=== {title} ===");
    for r in rows {
        println!("{}", r.format());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_runs_on_every_backend() {
        for algo in Algorithm::ALL {
            for backend in Backend::ALL {
                let run = algo.run(backend, 128, 5, None);
                assert!(run.valid, "{} failed on {}", algo.name(), backend.name());
                assert!(run.format().contains(backend.name()));
            }
        }
    }

    #[test]
    fn every_backend_and_pool_size_runs_the_machine_its_label_names() {
        // The one constructor knows what it built: the run's label, the
        // machine's own report and the registry name agree, and the charged
        // trajectory is the simulator's on every backend at every pool size.
        let counters = |r: &CostReport| (r.steps, r.claim_attempts, r.contended_claims);
        let scenario = scenario::Scenario::parse("zipf-hot").unwrap();
        let algo_sim = Algorithm::PermutationQrqw.run(Backend::Sim, 3000, 9, None);
        let scenario_sim = scenario.run(Backend::Sim, 64, 9, None);
        for backend in Backend::ALL {
            for threads in [None, Some(1), Some(2), Some(5)] {
                let check = |valid: bool, label: &str, report: &CostReport, sim: &CostReport| {
                    let at = format!("{} threads={threads:?}", backend.name());
                    assert!(valid, "{at}");
                    assert_eq!(label, backend.name(), "{at}");
                    assert_eq!(report.backend, backend.name(), "{at}");
                    assert_eq!(counters(report), counters(sim), "{at}");
                };
                let run = Algorithm::PermutationQrqw.run(backend, 3000, 9, threads);
                check(run.valid, run.backend, &run.report, &algo_sim.report);
                let run = scenario.run(backend, 64, 9, threads);
                check(run.valid, run.backend, &run.report, &scenario_sim.report);
            }
        }
    }

    #[test]
    fn name_round_trips_through_parse() {
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::parse(algo.name()), Some(algo));
        }
        for backend in Backend::ALL {
            assert_eq!(Backend::parse(backend.name()), Some(backend));
        }
        assert_eq!(Algorithm::parse("nope"), None);
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn backend_sets_parse_names_and_all() {
        assert_eq!(Backend::parse_set("all"), Some(Backend::ALL.to_vec()));
        assert_eq!(
            Backend::parse_set("bsp,sim"),
            Some(vec![Backend::Bsp, Backend::Sim])
        );
        assert_eq!(Backend::parse_set("nope"), None);
        assert_eq!(Backend::parse_set(""), None);
    }

    #[test]
    fn bsp_runs_carry_measured_and_predicted_costs() {
        let run = Algorithm::PermutationQrqw.run(Backend::Bsp, 256, 3, None);
        assert!(run.valid);
        let bsp = run.report.bsp.expect("bsp run must fill the BSP section");
        assert!(bsp.measured_cost > 0);
        assert!(
            bsp.measured_cost <= bsp.predicted_cost,
            "measured {} exceeded the Theorem 1.1 bound {}",
            bsp.measured_cost,
            bsp.predicted_cost
        );
        // The sim and bsp runs of one seed are the same trajectory, so the
        // claim counters must agree exactly.
        let sim = Algorithm::PermutationQrqw.run(Backend::Sim, 256, 3, None);
        assert_eq!(run.report.claim_attempts, sim.report.claim_attempts);
        assert_eq!(run.report.contended_claims, sim.report.contended_claims);
        assert_eq!(run.report.steps, sim.report.steps);
    }

    #[test]
    fn measure_captures_a_trace() {
        let row = MeasuredRow::measure("noop-ish", 8, 1, |pram| {
            pram.step(|s| s.par_for(0..8, |p, ctx| ctx.write(p, 1)));
        });
        assert_eq!(row.summary.steps, 1);
        assert_eq!(row.summary.work, 8);
        assert!(row.format().contains("n=8"));
        assert_eq!(row.time(CostModel::Qrqw), 1);
    }
}
