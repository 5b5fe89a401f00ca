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
//! * `perf_report` — one [`sweep`] of [`Subject`]s (registry
//!   [`Algorithm`]s or churn [`scenario`]s) over any set of [`Backend`]s,
//!   every cell judged against the simulator's run by
//!   [`BackendRun::agrees_with`], and the simulator's BSP section by the
//!   Theorem 1.1 check (committed `BENCH_native.json` /
//!   `BENCH_workloads.json`).
//! * `rss_guard` — peak-RSS probe of staged arena growth.
//! * `service_report` — the `qrqw-serve` load sweep over resident keys ×
//!   fault plans × batch caps × workloads: throughput, latency, goodput,
//!   snapshot overhead and recovery latency, with one validator on every
//!   run (committed `BENCH_service.json` and `BENCH_chaos.json`, see
//!   [`service`]).

#![deny(missing_docs)]

use std::time::{Duration, Instant};

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
use qrqw_sim::{CostModel, CostReport, Machine, Pram, Trace, EMPTY};
use scenario::{ChurnOutcome, Scenario};

pub mod report;
pub mod scenario;
pub mod service;
pub mod sweep;
pub mod workload;

/// Which [`Machine`] backend a harness run executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The exact-cost QRQW PRAM simulator, built with [`Pram::with_bsp`]
    /// so its report also prices the run as the Theorem 1.1 BSP emulation.
    Sim,
    /// The native pooled-threads/atomics machine ([`NativeMachine`]) on a
    /// [`Schedule::Chunked`] step pool.
    Native,
    /// The same machine on a [`Schedule::Stealing`] step pool — bit-identical
    /// to [`Backend::Native`] in every observable; only wall-clock under
    /// skew differs.
    NativeSteal,
}

impl Backend {
    /// Every backend, simulator first.
    pub const ALL: [Backend; 3] = [Backend::Sim, Backend::Native, Backend::NativeSteal];

    /// Short name (`"sim"` / `"native"` / `"native-steal"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
            Backend::NativeSteal => "native-steal",
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
}

/// An algorithm ported to the [`Machine`] backend API, runnable (and timed)
/// on any backend through [`Subject::run`].
///
/// ```
/// use qrqw_bench::{Algorithm, Backend, Subject};
///
/// // Parse a registry name, run it on a backend, check its validator.
/// let algo = Subject::Algorithm(Algorithm::parse("permutation-qrqw").unwrap());
/// let sim = algo.run(Backend::Sim, 256, 1);
/// assert!(sim.valid);
///
/// // The same seed on the native work-stealing backend is the same
/// // trajectory: lockstep step counters, identical contention totals.
/// let steal = algo.run(Backend::NativeSteal, 256, 1);
/// assert_eq!(steal.backend, "native-steal");
/// assert!(steal.valid);
/// assert!(steal.agrees_with(&sim));
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
}

/// What one harness run executes: a registry [`Algorithm`] or a churn
/// [`Scenario`].  `perf_report` sweeps both kinds alike (see [`sweep`]).
#[derive(Debug, Clone)]
pub enum Subject {
    /// A one-shot registry algorithm.
    Algorithm(Algorithm),
    /// A multi-epoch churn scenario.
    Scenario(Scenario),
}

impl Subject {
    /// [`Algorithm::name`] or [`Scenario::name`].
    pub fn name(&self) -> &str {
        match self {
            Subject::Algorithm(algo) => algo.name(),
            Subject::Scenario(scenario) => &scenario.name,
        }
    }

    /// Builds the machine `backend` names — seeded with `seed`, its step
    /// pool (or the simulator's walk) on [`StepPool::from_env`]'s threads
    /// (`QRQW_THREADS`, else host parallelism) — runs this subject at size
    /// `n` on it, and reports timing, validity, the machine's cost report
    /// and, for a scenario, the churn outcome.  Every harness machine is
    /// constructed here, so a run's backend label and its machine cannot
    /// disagree.
    pub fn run(&self, backend: Backend, n: usize, seed: u64) -> BackendRun {
        let pool = StepPool::from_env();
        match backend {
            Backend::Sim => self.run_on(Pram::with_bsp(16, seed, pool.threads()), n),
            Backend::Native | Backend::NativeSteal => {
                let schedule = if backend == Backend::Native {
                    Schedule::Chunked
                } else {
                    Schedule::Stealing
                };
                let pool = pool.with_schedule(schedule);
                self.run_on(NativeMachine::with_pool(16, seed, pool), n)
            }
        }
    }

    fn run_on<M: Machine>(&self, mut m: M, n: usize) -> BackendRun {
        let seed = m.seed();
        let (valid, elapsed, churn) = match self {
            Subject::Algorithm(algo) => {
                let (valid, elapsed) = algo.run_on(&mut m, n);
                (valid, elapsed, None)
            }
            Subject::Scenario(scenario) => {
                let started = Instant::now();
                let outcome = scenario.run_churn(&mut m, n, seed);
                (outcome.valid, started.elapsed(), Some(outcome))
            }
        };
        BackendRun {
            subject: self.name().to_string(),
            backend: m.backend(),
            n,
            seed,
            valid,
            elapsed,
            report: m.cost_report(),
            churn,
        }
    }
}

/// One [`Subject`] execution on one backend: the record every harness
/// sweep prints and `perf_report` judges.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// [`Subject::name`] of the run.
    pub subject: String,
    /// [`Backend::name`] of the run.
    pub backend: &'static str,
    /// Problem size (for a scenario: ops per epoch and keyspace).
    pub n: usize,
    /// Machine seed (for a scenario also the trace seed).
    pub seed: u64,
    /// Whether the output validated (permutation check, coverage check,
    /// every churn reply against the host model, …).
    pub valid: bool,
    /// Wall-clock time of the run itself.
    pub elapsed: Duration,
    /// The backend's own cost report.
    pub report: CostReport,
    /// The churn driver's outcome, for a scenario run.
    pub churn: Option<ChurnOutcome>,
}

impl BackendRun {
    /// Formats the run as one harness row.
    pub fn format(&self) -> String {
        let hot = self
            .churn
            .as_ref()
            .map_or(String::new(), |c| format!(" hot={:.3}", c.hot_fraction));
        format!(
            "{:<26} {:<12} n={:<7} {:>9.3} ms  valid={} {}{hot}",
            self.subject,
            self.backend,
            self.n,
            self.elapsed.as_secs_f64() * 1e3,
            self.valid,
            self.report,
        )
    }

    /// Whether this run re-executed `reference`'s charged trajectory: the
    /// same step count and contended claims and, when both carry a churn
    /// outcome, the same per-epoch contention and end-state digest.  Every
    /// backend executes the simulator's exact QRQW trajectory for a seed,
    /// so against the simulator's run anything else is drift.
    pub fn agrees_with(&self, reference: &BackendRun) -> bool {
        let churn_agrees = match (&self.churn, &reference.churn) {
            (Some(a), Some(b)) => a.epoch_contention == b.epoch_contention && a.digest == b.digest,
            _ => true,
        };
        self.report.steps == reference.report.steps
            && self.report.contended_claims == reference.report.contended_claims
            && churn_agrees
    }
}

/// Problem sizes used by the Table I sweep.
pub const TABLE1_SIZES: [usize; 4] = [1 << 10, 1 << 12, 1 << 14, 1 << 16];

/// One measured row of a table: an algorithm name plus the trace of a
/// single simulated run.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Algorithm / configuration label.
    pub label: String,
    /// Input size the run used.
    pub n: usize,
    /// Trace of the run.
    pub trace: Trace,
}

impl MeasuredRow {
    /// Runs `f` on a fresh PRAM with the given seed and records its trace.
    pub fn measure(label: &str, n: usize, seed: u64, f: impl FnOnce(&mut Pram)) -> MeasuredRow {
        let mut pram = Pram::with_seed(16, seed);
        f(&mut pram);
        MeasuredRow {
            label: label.to_string(),
            n,
            trace: pram.take_trace(),
        }
    }

    /// Formats the row for the table harnesses.
    pub fn format(&self) -> String {
        format!(
            "{:<34} n={:<7} t_qrqw={:<6} t_crqw={:<6} t_erew={:<6} t_crcw={:<6} work={:<9} max_cont={:<5} erew_viol={}",
            self.label,
            self.n,
            self.trace.time(CostModel::Qrqw),
            self.trace.time(CostModel::Crqw),
            self.trace.time(CostModel::Erew),
            self.trace.time(CostModel::Crcw),
            self.trace.work(),
            self.trace.max_contention(),
            self.trace.violations(CostModel::Erew)
        )
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

    const PERMUTATION: Subject = Subject::Algorithm(Algorithm::PermutationQrqw);

    #[test]
    fn every_backend_and_pool_size_runs_the_machine_its_label_names() {
        // The one constructor knows what it built: the run's label, the
        // machine's own report and the registry name agree, and the charged
        // trajectory is the simulator's on every backend.  The pool size is
        // the environment's; the Lockstep sweeps cover 1, 2 and 5 threads.
        let counters = |r: &CostReport| (r.steps, r.claim_attempts, r.contended_claims);
        let scenario = Subject::Scenario(Scenario::parse("zipf-hot").unwrap());
        let algo_sim = PERMUTATION.run(Backend::Sim, 3000, 9);
        let scenario_sim = scenario.run(Backend::Sim, 64, 9);
        for backend in Backend::ALL {
            let check = |run: &BackendRun, sim: &BackendRun| {
                let at = backend.name();
                assert!(run.valid, "{at}");
                assert_eq!(run.backend, backend.name(), "{at}");
                assert_eq!(run.report.backend, backend.name(), "{at}");
                assert_eq!(counters(&run.report), counters(&sim.report), "{at}");
                assert!(run.agrees_with(sim), "{at}");
            };
            check(&PERMUTATION.run(backend, 3000, 9), &algo_sim);
            check(&scenario.run(backend, 64, 9), &scenario_sim);
        }
    }

    #[test]
    fn agreement_needs_every_compared_field_equal() {
        let scenario = Subject::Scenario(Scenario::parse("zipf-hot").unwrap());
        let reference = scenario.run(Backend::Sim, 64, 4);
        assert!(reference.agrees_with(&reference.clone()));
        fn churn(run: &mut BackendRun) -> &mut ChurnOutcome {
            run.churn.as_mut().expect("a scenario run")
        }
        type Flip = fn(&mut BackendRun);
        let flips: [(&str, Flip); 4] = [
            ("steps", |run| run.report.steps += 1),
            ("contended claims", |run| run.report.contended_claims += 1),
            ("epoch contention", |run| {
                churn(run).epoch_contention[0] += 1
            }),
            ("digest", |run| churn(run).digest.next_seq += 1),
        ];
        for (field, flip) in flips {
            let mut run = reference.clone();
            flip(&mut run);
            assert!(!run.agrees_with(&reference), "{field} differs alone");
            assert!(!reference.agrees_with(&run), "{field} differs alone");
        }
        // A run without a churn outcome is held to the counts alone.
        let mut algo = PERMUTATION.run(Backend::Sim, 64, 4);
        assert!(algo.agrees_with(&algo.clone()));
        algo.report.steps = reference.report.steps;
        algo.report.contended_claims = reference.report.contended_claims;
        assert!(algo.agrees_with(&reference) && reference.agrees_with(&algo));
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
            Backend::parse_set("native,sim"),
            Some(vec![Backend::Native, Backend::Sim])
        );
        assert_eq!(Backend::parse_set("nope"), None);
        assert_eq!(Backend::parse_set(""), None);
    }

    #[test]
    fn bsp_runs_carry_measured_and_predicted_costs() {
        let run = PERMUTATION.run(Backend::Sim, 256, 3);
        assert!(run.valid);
        let bsp = run.report.bsp.expect("a sim run must fill the BSP section");
        assert!(bsp.measured_cost > 0);
        assert_eq!(Some(bsp.measured_cost), run.report.time_qrqw);
        assert!(
            bsp.measured_cost <= bsp.predicted_cost,
            "measured {} exceeded the Theorem 1.1 bound {}",
            bsp.measured_cost,
            bsp.predicted_cost
        );
        // The BSP section is bookkeeping on the walk: a native run of the
        // same seed is the same trajectory, so the counters agree exactly.
        let native = PERMUTATION.run(Backend::Native, 256, 3);
        let counters = |r: &CostReport| (r.steps, r.claim_attempts, r.contended_claims);
        assert_eq!(counters(&run.report), counters(&native.report));
    }

    #[test]
    fn measure_captures_a_trace() {
        let row = MeasuredRow::measure("noop-ish", 8, 1, |pram| {
            pram.par_for(8, |p, ctx| ctx.write(p, 1));
        });
        assert_eq!(row.trace.num_steps(), 1);
        assert_eq!(row.trace.work(), 8);
        assert!(row.format().contains("n=8"));
        assert_eq!(row.trace.time(CostModel::Qrqw), 1);
    }
}
