//! The determinism contract checked step by step: every registry member
//! runs through `Lockstep<Pram, _>` (`tests/common/lockstep.rs`) on the
//! native machine at 1, 2 and 5 threads chunked and 2 and 5 stealing (at
//! one thread a dispatch runs inline and never reads the schedule), and on
//! the BSP-costed simulator walking at 1, 2 and 5 threads ([`SMALL`]), and
//! through one pooled pair per family at a size the step pool splits into
//! chunks ([`LARGE`]).  The sweep is split by member group and pair family so
//! libtest runs it in parallel.  The raw-trait instances and the
//! injected-drift checks of Lockstep itself live here too, as do the
//! tests of the machine-call table (`tests/common/kernels.rs`): every
//! call with a native kernel (`scan_step`, `global_or_step`,
//! `compact_step`, `bitonic_segments`, `scan_tree`, `counting_pass`,
//! `list_rank`, `fill_forward`, `duplicate`, and the claim protocol in
//! each mode), on every shape that reaches one of its paths, against a
//! host oracle of what the call leaves.

mod common;

use common::kernels::{self, Kernel};
use common::lockstep::{each_machine, each_pair, pairs, Drift, DriftKind, Lockstep, Pair, THREADS};
use qrqw_bench::{Algorithm, Backend};
use qrqw_suite::algos::random_permutation_qrqw;
use qrqw_suite::exec::{NativeMachine, Schedule, StepPool};
use qrqw_suite::sim::{ClaimMode, CostModel, CostReport, Machine, Pram, EMPTY};

/// The small problem size every registry member runs at on every pair.
/// The step pool runs a dispatch of at most 2048 items inline as one chunk,
/// so at this size every thread count and schedule takes the one-thread
/// path; only the BSP sink, the walk width and the per-step comparison
/// differ.
const SMALL: usize = 256;

/// The large problem size: its full-width steps split into 512-item
/// chunks, so chunking, stealing and the BSP walk's chunk order are all
/// in play.
const LARGE: usize = 3000;

/// The pooled pair of `backend` that runs [`LARGE`].  At that size a step
/// splits into the same chunks at 2 and 5 threads, so the thread count
/// only decides which thread runs a chunk; one pooled count per schedule
/// covers it.
fn pooled(backend: Backend) -> Vec<Pair> {
    match backend {
        Backend::Sim => vec![Pair::Sim(THREADS[2])],
        Backend::Native => vec![Pair::Native(THREADS[1], Schedule::Chunked)],
        Backend::NativeSteal => vec![Pair::Native(THREADS[2], Schedule::Stealing)],
    }
}

/// Steps whose log on the simulator breaks contract rule 3 (a processor
/// reads or writes a cell another processor writes in the same step), per
/// member at size `n`.  Lockstep tolerates exactly these steps and resyncs
/// a native machine that parted in them.  One known source: the racing
/// in-block writes of `QrqwHashTable::build` (hashing).  The forward fill's
/// same-step reads run inside `Machine::fill_forward`, a call Lockstep
/// forwards to each machine and records no step of.
fn rule3_steps(algo: Algorithm, n: usize) -> u64 {
    match (algo, n) {
        (Algorithm::Hashing, SMALL) => 3,
        (Algorithm::Hashing, _) => 4,
        _ => 0,
    }
}

/// Steps and claim counters: the contention totals.
fn totals(report: CostReport) -> [u64; 3] {
    [report.steps, report.claim_attempts, report.contended_claims]
}

/// What a lone run of `algo` leaves: validity, contention totals, and the
/// live memory prefix.
fn lone_run<M: Machine>(m: &mut M, algo: Algorithm, n: usize) -> (bool, [u64; 3], Vec<u64>) {
    let valid = algo.run_on(m, n).0;
    (valid, totals(m.cost_report()), m.dump(0, m.heap_top()))
}

/// Runs `members` through the pairs of `backend`, at [`SMALL`] on every
/// pair and at [`LARGE`] on the pooled one: outputs validate, the rule-3
/// step count matches its pin, the contention totals match the
/// simulator's, and a simulator pair never needs a resync.  A
/// resync makes the machine under test partly the simulator, so a member
/// with rule-3 steps also runs alone and must leave the simulator's state.
fn sweep(members: impl IntoIterator<Item = Algorithm>, backend: Backend) {
    for algo in members {
        for (n, pairs) in [(SMALL, pairs(backend)), (LARGE, pooled(backend))] {
            each_pair!(pairs.clone(), 1, |m| {
                let label = format!("{} n={n} on {}", algo.name(), m.label());
                assert!(algo.run_on(&mut m, n).0, "{label}: invalid output");
                assert_eq!(
                    m.rule3_steps(),
                    rule3_steps(algo, n),
                    "{label}: rule-3 steps"
                );
                let want = totals(m.a().cost_report());
                assert_eq!(
                    totals(m.b().cost_report()),
                    want,
                    "{label}: contention totals"
                );
                if backend == Backend::Sim {
                    assert_eq!(m.resynced_steps(), 0, "{label}: sim resynced");
                }
            });
            if rule3_steps(algo, n) > 0 {
                let want = lone_run(&mut Pram::with_seed(16, 1), algo, n);
                each_machine!(pairs, 1, |pair, b| {
                    let mut got = lone_run(&mut b, algo, n);
                    if algo == Algorithm::Hashing {
                        // Racing writes inside a block a failed build
                        // iteration abandoned leave a residue that differs.
                        got.2 = want.2.clone();
                    }
                    assert!(got == want, "{} n={n} alone on {pair:?}", algo.name());
                });
            }
        }
    }
}

/// The §7 sorts, the longest members: each pair family sweeps them in a
/// test of their own.
const SORTS: [Algorithm; 4] = [
    Algorithm::SampleSortQrqw,
    Algorithm::SampleSortCrqw,
    Algorithm::IntegerSort,
    Algorithm::DistributiveSort,
];

/// The members outside [`SORTS`] that place items through claims
/// (`true`) or place nothing through them (`false`).
fn claiming(claims: bool) -> impl Iterator<Item = Algorithm> {
    use Algorithm::*;
    let claimless = [PermutationSortingErew, LoadBalanceErew, FetchAdd, ListRank];
    Algorithm::ALL
        .into_iter()
        .filter(move |a| claimless.contains(a) != claims && !SORTS.contains(a))
}

#[test]
fn permutations_are_bit_identical_at_every_thread_count() {
    use Algorithm::*;
    let members = [PermutationQrqw, PermutationDartScan, PermutationSortingErew];
    sweep(members, Backend::Native);
}

#[test]
fn cyclic_permutations_are_bit_identical_at_every_thread_count() {
    use Algorithm::*;
    sweep([CyclicFast, CyclicEfficient], Backend::Native);
}

/// The EREW members: list ranking, Fetch&Add and load balancing.
#[test]
fn deterministic_prims_are_bit_identical_at_every_thread_count() {
    use Algorithm::*;
    sweep([ListRank, FetchAdd, LoadBalanceErew], Backend::Native);
}

#[test]
fn sorts_are_bit_identical_at_every_thread_count() {
    sweep(SORTS, Backend::Native);
}

/// Occupy claims decide the winner of a cell, but each contested cell has
/// exactly one winner, so the claim totals must not depend on chunking.
#[test]
fn contention_totals_are_invariant_across_thread_counts() {
    use Algorithm::*;
    sweep([LinearCompaction, LoadBalanceQrqw], Backend::Native);
}

#[test]
fn occupy_claims_pick_the_lowest_claimant_on_every_schedule_and_thread_count() {
    use Algorithm::*;
    sweep([MultipleCompaction, Hashing], Backend::Native);
}

/// The members that place nothing through claims.
#[test]
fn stealing_outputs_are_bit_identical_at_every_thread_count() {
    sweep(claiming(false), Backend::NativeSteal);
}

/// The claiming members: the stealing pairs' contention totals match the
/// simulator's, as the chunked pairs' do.
#[test]
fn stealing_contention_totals_match_chunked_and_the_simulator() {
    sweep(claiming(true), Backend::NativeSteal);
}

#[test]
fn stealing_sorts_are_bit_identical_at_every_thread_count() {
    sweep(SORTS, Backend::NativeSteal);
}

/// The members that place nothing through claims, on the BSP-costed
/// simulator at every walk width.
#[test]
fn bsp_outputs_are_bit_identical_at_every_thread_count() {
    sweep(claiming(false), Backend::Sim);
}

/// The claiming members, and the realized queues of a claim-heavy run: a
/// measurement of the routed traffic, so neither the per-step profile nor
/// the BSP cost section may depend on how the compute phase was chunked,
/// and the measured cost is the simulator's exact QRQW time.
#[test]
fn bsp_contention_totals_and_measured_profile_are_thread_count_invariant() {
    sweep(claiming(true), Backend::Sim);
    let measured = |threads| {
        let bsp = Pram::with_bsp(16, 11, threads);
        let mut m = Lockstep::new(Pram::with_seed(16, 11), bsp, format!("bsp {threads}"));
        let _ = random_permutation_qrqw(&mut m, 8192);
        let cost = m.b().cost_report().bsp.unwrap();
        assert_eq!(cost.measured_cost, m.a().trace().time(CostModel::Qrqw));
        assert_eq!(
            m.b().trace().queue_profile().len() as u64,
            m.steps_executed()
        );
        (m.b().trace().queue_profile(), cost)
    };
    let want = measured(THREADS[0]);
    assert!(THREADS[1..].iter().all(|&t| measured(t) == want));
}

#[test]
fn bsp_sorts_are_bit_identical_at_every_thread_count() {
    sweep(SORTS, Backend::Sim);
}

#[test]
fn bsp_routing_order_never_affects_results() {
    // A raw step with heavy deliberate collisions: 6000 processors write
    // into 97 cells and read from 13.  Each thread count hands the BSP walk
    // its message buffers in a different chunking; the image must match the
    // simulator's lowest-processor-id arbitration, and the realized queues
    // and message totals are pinned.
    let body = |p: usize, ctx: &mut dyn qrqw_suite::sim::MachineProc| {
        let v = ctx.read(p % 13);
        let v = if v == EMPTY { 0 } else { v };
        ctx.write(100 + p % 97, p as u64 + v);
    };
    for threads in THREADS {
        let bsp = Pram::with_bsp(16, 0, threads);
        let mut m = Lockstep::new(Pram::with_seed(16, 0), bsp, format!("bsp {threads}"));
        m.ensure_memory(256);
        m.par_for(6000, body);
        // 6000 write messages + 6000 reads (request + reply)
        assert_eq!(m.b().cost_report().bsp.unwrap().messages, 6000 + 2 * 6000);
        // ⌈6000/13⌉ readers on cell 0 beats ⌈6000/97⌉ writers
        assert_eq!(m.b().trace().queue_profile(), vec![6000u64.div_ceil(13)]);
    }
}

/// One test per machine call of the table (`tests/common/kernels.rs`), so
/// libtest runs them in parallel.
macro_rules! kernel_tests {
    ($($test:ident: $call:pat,)*) => {$(
        #[test]
        fn $test() {
            kernels::check(|k| matches!(k, $call));
        }
    )*};
}

kernel_tests! {
    scan_step_matches_the_oracle_on_every_machine: Kernel::ScanStep,
    global_or_step_matches_the_oracle_on_every_machine: Kernel::GlobalOr,
    compact_step_matches_the_oracle_on_every_machine: Kernel::Compact(_),
    bitonic_segments_matches_the_oracle_on_every_machine: Kernel::Bitonic(..),
    scan_tree_matches_the_oracle_on_every_machine: Kernel::ScanTree(_),
    counting_pass_matches_the_oracle_on_every_machine: Kernel::CountingPass(_),
    exclusive_claim_matches_the_oracle_on_every_machine: Kernel::Claim(ClaimMode::Exclusive),
    occupy_claim_matches_the_oracle_on_every_machine: Kernel::Claim(ClaimMode::Occupy),
    list_rank_matches_the_oracle_on_every_machine: Kernel::ListRank(_),
    fill_forward_matches_the_oracle_on_every_machine: Kernel::FillForward,
    duplicate_matches_the_oracle_on_every_machine: Kernel::Duplicate(..),
}

#[test]
#[should_panic(expected = "bucket 4 out of range 4")]
fn the_native_counting_pass_rejects_a_bucket_out_of_range() {
    let mut m = NativeMachine::with_pool(16, 0, StepPool::with_threads(2));
    let data: Vec<u64> = (0..5000).collect();
    m.load(0, &data);
    m.counting_pass(0, data.len(), 4, |w| w % 5);
}

#[test]
#[should_panic(expected = "NIL-terminated lists with at most one predecessor per node")]
fn the_native_list_rank_rejects_a_cycle() {
    let mut m = NativeMachine::with_pool(16, 0, StepPool::with_threads(2));
    m.load(0, &[1, 2, 0]);
    m.list_rank(0, 3, 8);
}

/// The native machine of a drift check: a pooled machine that departs from
/// the simulator once, at step `at`.
fn drifting(at: u64, kind: DriftKind) -> Lockstep<Pram, Drift<NativeMachine>> {
    let inner = NativeMachine::with_pool(16, 1, StepPool::with_threads(2));
    Lockstep::new(Pram::with_seed(16, 1), Drift { inner, at, kind }, "drift")
}

#[test]
#[should_panic(expected = "step 11 (claim(Occupy)): result 1: true vs false; cell 5771")]
fn lockstep_names_the_step_where_an_occupy_claim_drifts() {
    // Step 11 is hashing's first block claim at n = 256; the drift hands
    // its first contested block to the highest claimant.
    let _ = Algorithm::Hashing.run_on(&mut drifting(11, DriftKind::HighestClaimant), 256);
}

#[test]
#[should_panic(expected = "step 10 (par_map): cell 5:")]
fn lockstep_names_the_step_and_cell_where_memory_drifts() {
    // At n = 8, step 10 of the claimless sorting permutation is an
    // ordinary step past its six-stage bitonic network.
    let _ = Algorithm::PermutationSortingErew.run_on(&mut drifting(10, DriftKind::Cell(5)), 8);
}

/// Probe used by [`qrqw_threads_env_var_controls_the_default_thread_count`]:
/// when re-executed in a child process with `QRQW_THREADS` set, it checks
/// that machine construction honours a valid value and **panics loudly** on
/// an invalid one — a mistyped override must never silently benchmark the
/// wrong configuration.  Without the variable it trivially passes, so a
/// normal run is unaffected.
#[test]
fn helper_qrqw_threads_env_probe() {
    let Ok(spec) = std::env::var("QRQW_THREADS") else {
        return;
    };
    match spec.trim().parse::<usize>() {
        Ok(want) if want > 0 => {
            assert_eq!(
                NativeMachine::with_seed(16, 0).threads(),
                want,
                "QRQW_THREADS={spec} must set the thread count"
            );
        }
        _ => {
            let result = std::panic::catch_unwind(|| NativeMachine::with_seed(16, 0).threads());
            let payload = result.expect_err(&format!(
                "invalid QRQW_THREADS={spec} must make construction panic"
            ));
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("QRQW_THREADS"),
                "the panic must name the offending variable, got: {msg}"
            );
        }
    }
    // An explicit pool never consults QRQW_THREADS, so it works even when
    // the variable holds garbage.
    assert_eq!(
        NativeMachine::with_pool(16, 0, StepPool::with_threads(7)).threads(),
        7,
        "the builder must override the environment"
    );
}

#[test]
fn qrqw_threads_env_var_controls_the_default_thread_count() {
    // Mutating the environment in-process (`std::env::set_var`) races with
    // `getenv` calls from concurrently running tests, which is documented
    // undefined behavior on POSIX — so the probe runs in a child process
    // whose environment is set before it starts.
    let exe = std::env::current_exe().expect("test binary path");
    for spec in ["3", "not-a-number"] {
        let output = std::process::Command::new(&exe)
            .args(["--exact", "helper_qrqw_threads_env_probe"])
            .env("QRQW_THREADS", spec)
            .output()
            .expect("re-exec test binary");
        assert!(
            output.status.success(),
            "env probe failed for QRQW_THREADS={spec}:\n{}\n{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}
