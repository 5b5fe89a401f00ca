//! The determinism contract checked step by step: every registry member
//! runs through `Lockstep<Pram, _>` (`tests/common/lockstep.rs`) on the
//! native machine at 1, 2 and 5 threads under both chunk schedules and on
//! the BSP machine at the same thread counts ([`SMALL`]), and through one
//! pooled pair per family at a size the step pool splits into chunks
//! ([`LARGE`]).  The sweep is split by member group and pair family so
//! libtest runs it in parallel.  The raw-trait instances and the
//! injected-drift checks of Lockstep itself live here too.

mod common;

use common::lockstep::{
    each_machine, each_pair, pairs, pairs_of, Drift, DriftKind, Lockstep, Pair,
};
use common::lockstep::{NATIVE, THREADS};
use qrqw_bench::{Algorithm, Backend};
use qrqw_suite::algos::random_permutation_qrqw;
use qrqw_suite::bsp::BspMachine;
use qrqw_suite::exec::{NativeMachine, Schedule, SHARD_CELLS};
use qrqw_suite::sim::{ClaimMode, CostModel, CostReport, Machine, Pram, EMPTY};

/// The small problem size every registry member runs at on every pair.
/// The step pool runs a dispatch of at most 2048 items inline as one chunk,
/// so at this size every thread count and schedule takes the one-thread
/// path; only the BSP router and the per-step comparison differ.
const SMALL: usize = 256;

/// The large problem size: its full-width steps split into 512-item
/// chunks, so chunking, stealing and the BSP router's buffer order are all
/// in play.
const LARGE: usize = 3000;

/// The pooled pair of `backend` that runs [`LARGE`].  At that size a step
/// splits into the same chunks at 2 and 5 threads, so the thread count
/// only decides which thread runs a chunk; one pooled count per schedule
/// covers it.
fn pooled(backend: Backend) -> Vec<Pair> {
    match backend {
        Backend::Sim => vec![],
        Backend::Native => vec![Pair::Native(THREADS[1], Schedule::Chunked)],
        Backend::NativeSteal => vec![Pair::Native(THREADS[2], Schedule::Stealing)],
        Backend::Bsp => vec![Pair::Bsp(THREADS[2])],
    }
}

/// Steps whose log on the simulator breaks contract rule 3 (a processor
/// reads or writes a cell another processor writes in the same step), per
/// member at size `n`.  Lockstep tolerates exactly these steps and resyncs
/// a native machine that parted in them.  Two known sources:
/// `propagate_nonempty_forward`'s same-step read of a cell another
/// processor fills (load-balance-erew, multiple-compaction, fetch-add), and
/// the racing in-block writes of `QrqwHashTable::build` (hashing).
fn rule3_steps(algo: Algorithm, n: usize) -> u64 {
    match (algo, n) {
        (Algorithm::LoadBalanceErew, _) => 5,
        (Algorithm::MultipleCompaction, _) => 8,
        (Algorithm::Hashing, SMALL) => 3,
        (Algorithm::Hashing, _) => 4,
        (Algorithm::FetchAdd, _) => 4,
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
/// simulator's, and a model-backed machine (BSP) never needs a resync.  A
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
                if backend == Backend::Bsp {
                    assert_eq!(m.resynced_steps(), 0, "{label}: bsp resynced");
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
    // 6000 claimants over 97 cells: heavy contention, well past the inline
    // cutoff.  Every claimant is live, so a cell's winner is its first.
    let attempts: Vec<(u64, usize)> = (0..6000usize)
        .map(|j| (j as u64 + 7, (j * 31) % 97))
        .collect();
    each_pair!(pairs_of(NATIVE), 3, |m| {
        let won = m.claim(&attempts, ClaimMode::Occupy);
        let mut seen = std::collections::HashSet::new();
        for (j, &(_, addr)) in attempts.iter().enumerate() {
            assert_eq!(won[j], seen.insert(addr), "winner at claimant {j}");
        }
    });
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

/// The members that place nothing through claims.
#[test]
fn bsp_outputs_are_bit_identical_at_every_thread_count() {
    sweep(claiming(false), Backend::Bsp);
}

/// The claiming members, and the realized queues of a claim-heavy run: a
/// measurement of the routed traffic, so neither the per-step profile nor
/// the BSP cost section may depend on how the compute phase was chunked,
/// and the measured cost is the simulator's exact QRQW time.
#[test]
fn bsp_contention_totals_and_measured_profile_are_thread_count_invariant() {
    sweep(claiming(true), Backend::Bsp);
    let measured = |threads| {
        let bsp = BspMachine::with_threads(16, 11, threads);
        let mut m = Lockstep::new(Pram::with_seed(16, 11), bsp, format!("bsp {threads}"));
        let _ = random_permutation_qrqw(&mut m, 8192);
        let cost = m.b().cost_report().bsp.unwrap();
        assert_eq!(cost.measured_cost, m.a().trace().time(CostModel::Qrqw));
        assert_eq!(m.b().queue_profile().len() as u64, m.steps_executed());
        (m.b().queue_profile(), cost)
    };
    let want = measured(THREADS[0]);
    assert!(THREADS[1..].iter().all(|&t| measured(t) == want));
}

#[test]
fn bsp_sorts_are_bit_identical_at_every_thread_count() {
    sweep(SORTS, Backend::Bsp);
}

#[test]
fn bsp_routing_order_never_affects_results() {
    // A raw step with heavy deliberate collisions: 6000 processors write
    // into 97 cells and read from 13.  Each thread count hands the router
    // its message buffers in a different chunking; the image must match the
    // simulator's lowest-processor-id arbitration, and the realized queues
    // and message totals are pinned.
    let body = |p: usize, ctx: &mut dyn qrqw_suite::sim::MachineProc| {
        let v = ctx.read(p % 13);
        let v = if v == EMPTY { 0 } else { v };
        ctx.write(100 + p % 97, p as u64 + v);
    };
    for threads in THREADS {
        let bsp = BspMachine::with_threads(16, 0, threads);
        let mut m = Lockstep::new(Pram::with_seed(16, 0), bsp, format!("bsp {threads}"));
        m.ensure_memory(256);
        m.par_for(6000, body);
        // 6000 write messages + 6000 reads (request + reply)
        assert_eq!(m.b().cost_report().bsp.unwrap().messages, 6000 + 2 * 6000);
        // ⌈6000/13⌉ readers on cell 0 beats ⌈6000/97⌉ writers
        assert_eq!(m.b().queue_profile(), vec![6000u64.div_ceil(13)]);
    }
}

#[test]
fn fused_and_unfused_dispatch_agree_with_the_simulator_on_claim_heavy_work() {
    // The claim protocol's passes run inline one after another at one
    // thread and as one pooled group above it, under either schedule.
    each_pair!(pairs_of(NATIVE), 11, |m| {
        let _ = random_permutation_qrqw(&mut m, 8192);
    });
}

#[test]
fn fused_and_unfused_dispatch_agree_on_scan_and_compact() {
    // scan_step and compact_step run as one 3-pass pool dispatch, except a
    // compact whose destination needs arena growth, which falls back to two
    // dispatches with the growth in between.
    let n = 60_000usize;
    let vals: Vec<u64> = (0..n as u64).map(|i| (i * 31) % 13).collect();
    let sparse: Vec<u64> = (0..n as u64)
        .map(|i| if i % 3 == 0 { i + 1 } else { EMPTY })
        .collect();
    each_pair!(pairs_of(NATIVE), 0, |m| {
        let base = m.alloc(n);
        let dst = m.alloc(n);
        m.load(base, &vals);
        assert_eq!(m.scan_step(base, n), vals.iter().sum::<u64>());
        m.load(base, &sparse);
        let kept = m.compact_step(base, n, dst);
        assert_eq!(kept as usize, n.div_ceil(3));
        let compacted = m.dump(dst, kept as usize);
        assert!(compacted.iter().zip(0..).all(|(&v, i)| v == 3 * i + 1));
        // A raw destination at the very end of memory: the survivors only
        // fit after growth.
        let raw = m.heap_top();
        assert_eq!(m.compact_step(base, n, raw), kept);
        assert_eq!(m.dump(raw, kept as usize), compacted);
    });
}

#[test]
fn scan_and_global_or_are_invariant_across_thread_counts() {
    let n = 50_000usize;
    let vals: Vec<u64> = (0..n as u64).map(|i| i % 11).collect();
    each_pair!(pairs_of(NATIVE), 0, |m| {
        m.ensure_memory(n);
        assert!(!m.global_or_step(0, n));
        m.load(0, &vals);
        assert_eq!(m.scan_step(0, n), vals.iter().sum::<u64>());
        m.clear_region(0, n);
        m.poke(n - 1, 3);
        assert!(m.global_or_step(0, n));
        m.poke(n - 1, 0);
        m.poke(0, 5);
        assert!(m.global_or_step(0, n));
    });
}

/// Loads `data` at `base`, runs the bitonic network over it, and returns
/// the range it left, the allocation top and the step advance.
fn network<M: Machine>(
    m: &mut M,
    base: usize,
    seg: usize,
    segs: usize,
    data: &[u64],
) -> (Vec<u64>, usize, u64) {
    m.load(base, data);
    let before = m.steps_executed();
    m.bitonic_segments(base, seg, segs);
    (
        m.dump(base, data.len()),
        m.heap_top(),
        m.steps_executed() - before,
    )
}

#[test]
fn bitonic_network_matches_the_stage_route_on_every_kernel_path() {
    // The native kernel's paths: segments inside one 2^14-cell block,
    // exactly one block over several chunks, one and several whole-range
    // passes per k above it, a lone segment over two chunks; and the
    // no-op shapes.
    let shapes = [
        (1, 4),
        (2, 3),
        (16, 17),
        (1024, 7),
        (1 << 14, 17),
        (1 << 15, 1),
        (1 << 15, 3),
        (1 << 17, 2),
        (64, 0),
    ];
    let base = 3;
    for (seg, segs) in shapes {
        // Duplicates (values below 97) and EMPTY cells.
        let data: Vec<u64> = (0..(seg * segs) as u64)
            .map(|i| {
                if i % 7 == 3 {
                    EMPTY
                } else {
                    i.wrapping_mul(0x9E37_79B9) % 97
                }
            })
            .collect();
        // A sorting network leaves every segment sorted, whatever the
        // order of its stages.
        let mut sorted = data.clone();
        sorted.chunks_mut(seg).for_each(<[u64]>::sort_unstable);
        let lg = if segs == 0 {
            0
        } else {
            seg.trailing_zeros() as u64
        };
        let top = if lg == 0 {
            16
        } else {
            (base + data.len()).max(16)
        };
        let want = (sorted, top, lg * (lg + 1) / 2);
        // The stage route is one loop with no shape-dependent path, so the
        // model backends run only the small shapes.  The native pairs run
        // them all.
        let mut machines = pairs_of(NATIVE);
        if data.len() <= 1 << 13 {
            machines.extend([Pair::Sim, Pair::Bsp(THREADS[1])]);
        }
        each_machine!(machines, 0, |pair, m| {
            let got = network(&mut m, base, seg, segs, &data);
            assert!(got == want, "{seg} x {segs} on {pair:?}");
        });
    }
}

/// Cells per block of `NativeMachine`'s blocked scan and counting pass
/// (`SCAN_BLOCK` in `crates/exec/src/machine.rs`).
const SCAN_BLOCK: usize = 8192;

/// Loads `data` at `base` as the top allocation, runs `call`, and returns
/// the range it left, its result, the allocation top and the step advance.
fn after_call<M: Machine, T>(
    m: &mut M,
    base: usize,
    data: &[u64],
    call: impl FnOnce(&mut M) -> T,
) -> (Vec<u64>, T, usize, u64) {
    m.ensure_memory(base + data.len());
    m.load(base, data);
    let before = m.steps_executed();
    let out = call(m);
    let advance = m.steps_executed() - before;
    (m.dump(base, data.len()), out, m.heap_top(), advance)
}

#[test]
fn scan_tree_and_counting_pass_match_the_default_route_on_every_kernel_path() {
    // The native kernels' paths: inline (up to 2048 cells), one block,
    // one block and one cell, several chunks; the no-op shapes.  The
    // largest shape crosses the arena's 2^18-cell shard seam.
    let lens = [
        0,
        1,
        2,
        255,
        SCAN_BLOCK - 1,
        SCAN_BLOCK,
        SCAN_BLOCK + 1,
        (1 << 17) + 3,
    ];
    let base = SHARD_CELLS - (1 << 16) - 5;
    let lg = |x: usize| x.next_power_of_two().trailing_zeros() as u64;
    // Every native pair, and the BSP pair as a second run of the default
    // route (the simulator's is what the expectations below spell out).
    let mut machines = pairs_of(NATIVE);
    machines.push(Pair::Bsp(THREADS[1]));
    for len in lens {
        let top = (base + len).max(16);
        // Duplicates, EMPTY cells, and words in every bucket.
        let mixed: Vec<u64> = (0..len as u64)
            .map(|i| {
                if i % 7 == 3 {
                    EMPTY
                } else {
                    i.wrapping_mul(0x9E37_79B9) % 1_000_003
                }
            })
            .collect();
        for inclusive in [false, true] {
            let mut acc = 0u64;
            let sums: Vec<u64> = mixed
                .iter()
                .map(|&v| {
                    let excl = acc;
                    acc += if v == EMPTY { 0 } else { v };
                    if inclusive {
                        acc
                    } else {
                        excl
                    }
                })
                .collect();
            let steps = if len == 0 { 0 } else { 2 * lg(len) + 3 };
            let want = (sums, acc, top, steps);
            each_machine!(machines.clone(), 0, |pair, m| {
                let got = after_call(&mut m, base, &mixed, |m| m.scan_tree(base, len, inclusive));
                assert!(
                    got == want,
                    "scan_tree {len} inclusive={inclusive} on {pair:?}"
                );
            });
        }
        for num_buckets in [1usize, 2, 256, 4096] {
            let mask = num_buckets as u64 - 1;
            let bucket = move |w: u64| (w >> 8) & mask;
            // All words in the last bucket: one rank run per block.
            let one_bucket: Vec<u64> = (0..len as u64).map(|i| (mask << 8) | (i & 0xFF)).collect();
            for data in [&mixed, &one_bucket] {
                let mut sorted = data.clone();
                sorted.sort_by_key(|&w| bucket(w)); // std's sort is stable
                let g = num_buckets.max(lg(len) as usize).max(1);
                let steps = if len <= 1 {
                    0
                } else {
                    2 * lg(num_buckets * len.div_ceil(g)) + 6
                };
                let want = (sorted, (), top, steps);
                each_machine!(machines.clone(), 0, |pair, m| {
                    let got = after_call(&mut m, base, data, |m| {
                        m.counting_pass(base, len, num_buckets, bucket)
                    });
                    assert!(
                        got == want,
                        "counting_pass {len} x {num_buckets} on {pair:?}"
                    );
                });
            }
        }
    }
}

#[test]
#[should_panic(expected = "bucket 4 out of range 4")]
fn the_native_counting_pass_rejects_a_bucket_out_of_range() {
    let mut m = NativeMachine::with_threads(16, 0, 2);
    let data: Vec<u64> = (0..5000).collect();
    m.load(0, &data);
    m.counting_pass(0, data.len(), 4, |w| w % 5);
}

/// The native machine of a drift check: a pooled machine that departs from
/// the simulator once, at step `at`.
fn drifting(at: u64, kind: DriftKind) -> Lockstep<Pram, Drift<NativeMachine>> {
    let inner = NativeMachine::with_threads(16, 1, 2);
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
    let _ = Algorithm::ListRank.run_on(&mut drifting(10, DriftKind::Cell(5)), 256);
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
    // The explicit-thread-count builder never consults QRQW_THREADS, so it
    // works even when the variable holds garbage.
    assert_eq!(
        NativeMachine::with_threads(16, 0, 7).threads(),
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
