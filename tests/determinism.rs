//! Thread-count invariance for the native (both schedules) and BSP
//! backends.
//!
//! All pooled machines dispatch every step as contiguous chunks, and the
//! chunk layout changes with the thread count (builder override or
//! `QRQW_THREADS`) while the chunk→thread assignment changes with the
//! schedule (`StepPool::with_schedule`).  The backend
//! contract says both must be *unobservable*: per-`(seed, step, proc)` RNG
//! streams and deterministic exclusive-claim outcomes do not depend on
//! which thread computed which index — and for the BSP machine, neither
//! may the order in which chunk buffers hand their messages to the router.
//! These tests pin that down by running every deterministic/
//! exclusive-claim registry algorithm at several thread counts — including
//! oversubscribed ones, so chunked pool dispatch is exercised even on a
//! single-core host — and requiring bit-identical outputs (plus, for BSP,
//! identical measured queue profiles), with the simulator as the
//! reference.  The chunked-vs-stealing comparison at *matched* thread
//! counts lives here too; the skew-adversarial instances are in
//! `tests/schedule_skew.rs`.

use qrqw_suite::algos::{
    emulate_fetch_add_step, random_cyclic_permutation_efficient, random_cyclic_permutation_fast,
    random_permutation_dart_scan, random_permutation_qrqw, random_permutation_sorting_erew,
    sample_sort_qrqw, sort_uniform_keys,
};
use qrqw_suite::bsp::BspMachine;
use qrqw_suite::exec::{NativeMachine, Schedule, StepPool};
use qrqw_suite::prims::{list_rank, pack, radix_sort_packed, unpack_key};
use qrqw_suite::sim::{ClaimMode, CostModel, Machine, Pram, EMPTY};

/// The thread counts every invariance test sweeps: sequential, the
/// smallest genuinely chunked count, an odd oversubscribed count, and the
/// process default (`QRQW_THREADS` / host parallelism).
const THREAD_COUNTS: [Option<usize>; 4] = [Some(1), Some(2), Some(5), None];

/// A native machine on one (threads, schedule) point of the sweeps;
/// `threads = None` is the process default.
fn native(seed: u64, threads: Option<usize>, schedule: Schedule) -> NativeMachine {
    let pool = threads.map_or_else(StepPool::from_env, StepPool::with_threads);
    NativeMachine::with_pool(16, seed, pool.with_schedule(schedule))
}

fn native_chunked(seed: u64, threads: Option<usize>) -> NativeMachine {
    native(seed, threads, Schedule::Chunked)
}

fn native_stealing(seed: u64, threads: Option<usize>) -> NativeMachine {
    native(seed, threads, Schedule::Stealing)
}

fn bsp(seed: u64, threads: Option<usize>) -> BspMachine {
    match threads {
        Some(t) => BspMachine::with_threads(16, seed, t),
        None => BspMachine::with_seed(16, seed),
    }
}

/// Runs `f` on a fresh `mk(seed, threads)` machine at every thread count
/// and asserts all runs return the same value; returns that value.  A
/// pooled backend joins the sweeps with one constructor function.
fn sweep_invariant<M, T>(
    mk: impl Fn(u64, Option<usize>) -> M,
    seed: u64,
    label: &str,
    f: impl Fn(&mut M) -> T,
) -> T
where
    T: PartialEq + std::fmt::Debug,
{
    let mut baseline: Option<T> = None;
    for threads in THREAD_COUNTS {
        let mut m = mk(seed, threads);
        let out = f(&mut m);
        match &baseline {
            None => baseline = Some(out),
            Some(b) => assert_eq!(
                &out, b,
                "{label}: output changed at thread count {threads:?} (seed {seed})"
            ),
        }
    }
    baseline.unwrap()
}

#[test]
fn permutations_are_bit_identical_at_every_thread_count() {
    for (n, seed) in [(3000usize, 7u64), (777, 41)] {
        let native = sweep_invariant(native_chunked, seed, "permutation-qrqw", |m| {
            random_permutation_qrqw(m, n).order
        });
        let mut sim = Pram::with_seed(16, seed);
        assert_eq!(
            native,
            random_permutation_qrqw(&mut sim, n).order,
            "native must agree with the simulator reference"
        );

        let native = sweep_invariant(native_chunked, seed, "permutation-dart-scan", |m| {
            random_permutation_dart_scan(m, n).order
        });
        let mut sim = Pram::with_seed(16, seed);
        assert_eq!(native, random_permutation_dart_scan(&mut sim, n).order);

        let native = sweep_invariant(native_chunked, seed, "permutation-sorting-erew", |m| {
            random_permutation_sorting_erew(m, n).order
        });
        let mut sim = Pram::with_seed(16, seed);
        assert_eq!(native, random_permutation_sorting_erew(&mut sim, n).order);
    }
}

#[test]
fn cyclic_permutations_are_bit_identical_at_every_thread_count() {
    let n = 2048usize;
    for seed in [3u64, 19] {
        let fast = sweep_invariant(native_chunked, seed, "cyclic-fast", |m| {
            random_cyclic_permutation_fast(m, n).successor
        });
        let mut sim = Pram::with_seed(16, seed);
        assert_eq!(fast, random_cyclic_permutation_fast(&mut sim, n).successor);

        let eff = sweep_invariant(native_chunked, seed, "cyclic-efficient", |m| {
            random_cyclic_permutation_efficient(m, n).successor
        });
        let mut sim = Pram::with_seed(16, seed);
        assert_eq!(
            eff,
            random_cyclic_permutation_efficient(&mut sim, n).successor
        );
    }
}

#[test]
fn deterministic_prims_are_bit_identical_at_every_thread_count() {
    // List ranking over a pseudo-random chain.
    let n = 4000usize;
    let mut order: Vec<usize> = (0..n).collect();
    for i in 1..n {
        order.swap(i, (i * 48271) % (i + 1));
    }
    let mut succ = vec![EMPTY; n];
    for w in order.windows(2) {
        succ[w[0]] = w[1] as u64;
    }
    let ranks = sweep_invariant(native_chunked, 0, "list-rank", |m| {
        let succ_base = m.alloc(n);
        let rank_base = m.alloc(n);
        m.load(succ_base, &succ);
        list_rank(m, succ_base, n, rank_base);
        m.dump(rank_base, n)
    });
    assert_eq!(ranks.len(), n);

    // Stable packed radix sort: key/value pairs with duplicate keys, so
    // stability is visible in the output order.
    let pairs: Vec<u64> = (0..n)
        .map(|i| pack(((i * 37) % 64) as u64, i as u64))
        .collect();
    let sorted = sweep_invariant(native_chunked, 0, "radix-sort-packed", |m| {
        let base = m.alloc(n);
        m.load(base, &pairs);
        radix_sort_packed(m, base, n, 6);
        m.dump(base, n)
    });
    assert!(sorted
        .windows(2)
        .all(|w| unpack_key(w[0]) <= unpack_key(w[1])));

    // One emulated Fetch&Add step over a hot address set.
    let requests: Vec<(usize, u64)> = (0..n).map(|i| (i % 97, 1 + (i % 3) as u64)).collect();
    sweep_invariant(native_chunked, 5, "fetch-add", |m| {
        emulate_fetch_add_step(m, &requests)
    });
}

#[test]
fn sorts_are_bit_identical_at_every_thread_count() {
    let keys = qrqw_bench::Algorithm::scattered_keys(3000, 0);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let got = sweep_invariant(native_chunked, 2, "sample-sort-qrqw", |m| {
        sample_sort_qrqw(m, &keys)
    });
    assert_eq!(got, expect);
    let got = sweep_invariant(native_chunked, 2, "distributive-sort", |m| {
        sort_uniform_keys(m, &keys)
    });
    assert_eq!(got, expect);
}

#[test]
fn contention_totals_are_invariant_across_thread_counts() {
    // Exclusive-claim contention is fully deterministic; occupy-mode totals
    // are too (each contested cell has exactly one winner), even though the
    // winner's identity is not.  The observed counters must not depend on
    // chunking.
    let n = 8192usize;
    let (attempts, failures, steps) =
        sweep_invariant(native_chunked, 11, "contention-totals", |m| {
            let _ = random_permutation_qrqw(m, n);
            let report = m.cost_report();
            (report.claim_attempts, report.contended_claims, report.steps)
        });
    let mut sim = Pram::with_seed(16, 11);
    let _ = random_permutation_qrqw(&mut sim, n);
    let rs = sim.cost_report();
    assert_eq!(
        (attempts, failures, steps),
        (rs.claim_attempts, rs.contended_claims, rs.steps),
        "native contention totals must match the simulator's collision counts"
    );
}

#[test]
fn scan_and_global_or_are_invariant_across_thread_counts() {
    let n = 50_000usize;
    let vals: Vec<u64> = (0..n as u64).map(|i| i % 11).collect();
    let reference = sweep_invariant(native_chunked, 0, "scan-step", |m| {
        m.ensure_memory(n);
        m.load(0, &vals);
        let total = m.scan_step(0, n);
        (total, m.dump(0, n))
    });
    assert_eq!(reference.0, vals.iter().sum::<u64>());

    sweep_invariant(native_chunked, 0, "global-or", |m| {
        m.ensure_memory(n);
        let empty = m.global_or_step(0, n);
        m.poke(n - 1, 3);
        let hit_last = m.global_or_step(0, n);
        m.poke(n - 1, 0);
        m.poke(0, 5);
        let hit_first = m.global_or_step(0, n);
        assert!(!empty && hit_last && hit_first);
        (empty, hit_last, hit_first)
    });
}

#[test]
fn bsp_outputs_are_bit_identical_at_every_thread_count() {
    for (n, seed) in [(3000usize, 7u64), (777, 41)] {
        let bsp = sweep_invariant(bsp, seed, "bsp permutation-qrqw", |m| {
            random_permutation_qrqw(m, n).order
        });
        let mut sim = Pram::with_seed(16, seed);
        assert_eq!(
            bsp,
            random_permutation_qrqw(&mut sim, n).order,
            "bsp must agree with the simulator reference"
        );
    }
    let keys = qrqw_bench::Algorithm::scattered_keys(3000, 0);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let got = sweep_invariant(bsp, 2, "bsp sample-sort-qrqw", |m| {
        sample_sort_qrqw(m, &keys)
    });
    assert_eq!(got, expect);
}

#[test]
fn bsp_contention_totals_and_measured_profile_are_thread_count_invariant() {
    // The realized queues are a *measurement* of the routed traffic, so
    // they must not depend on how the compute phase was chunked — neither
    // the per-step profile nor any aggregate of the BSP cost section.
    let n = 8192usize;
    let (attempts, failures, steps, profile, bsp_cost) =
        sweep_invariant(bsp, 11, "bsp contention-totals", |m| {
            let _ = random_permutation_qrqw(m, n);
            let report = m.cost_report();
            (
                report.claim_attempts,
                report.contended_claims,
                report.steps,
                m.queue_profile().to_vec(),
                report.bsp.unwrap(),
            )
        });
    let mut sim = Pram::with_seed(16, 11);
    let _ = random_permutation_qrqw(&mut sim, n);
    let rs = sim.cost_report();
    assert_eq!(
        (attempts, failures, steps),
        (rs.claim_attempts, rs.contended_claims, rs.steps),
        "bsp contention totals must match the simulator's collision counts"
    );
    assert_eq!(profile.len() as u64, steps);
    assert_eq!(
        bsp_cost.measured_cost,
        sim.trace().time(CostModel::Qrqw),
        "the measured emulation cost must equal the simulator's exact QRQW time"
    );
}

#[test]
fn bsp_routing_order_never_affects_results() {
    // A raw step with heavy deliberate collisions: 6000 processors write
    // into 97 cells and read from 13.  Different thread counts hand the
    // router its message buffers in different chunkings and orders; the
    // delivered memory image, the realized queue profile, and the message
    // totals must all be identical — and the image must equal the
    // simulator's, whose write arbitration (lowest processor id) the
    // router's processor-order batches realize.
    let procs = 6000usize;
    let body = |p: usize, ctx: &mut dyn qrqw_suite::sim::MachineProc| {
        let v = ctx.read(p % 13);
        let v = if v == EMPTY { 0 } else { v };
        ctx.write(100 + p % 97, p as u64 + v);
    };
    let (image, profile, messages) = sweep_invariant(bsp, 0, "bsp routing-order", |m| {
        m.ensure_memory(256);
        m.par_for(procs, body);
        (
            m.dump(0, 256),
            m.queue_profile().to_vec(),
            m.cost_report().bsp.unwrap().messages,
        )
    });
    let mut sim = Pram::with_seed(256, 0);
    Machine::ensure_memory(&mut sim, 256);
    Machine::par_for(&mut sim, procs, body);
    assert_eq!(image, Machine::dump(&sim, 0, 256));
    // 6000 write messages + 6000 reads (request + reply)
    assert_eq!(messages, 6000 + 2 * 6000);
    // realized queues: ⌈6000/13⌉ readers on cell 0 beats ⌈6000/97⌉ writers
    assert_eq!(profile, vec![6000u64.div_ceil(13)]);
    assert_eq!(
        sim.trace().step_stats()[0].max_read_contention,
        6000u64.div_ceil(13),
        "the realized queue is exactly the contention the simulator charged"
    );
}

#[test]
fn stealing_outputs_are_bit_identical_at_every_thread_count() {
    // The stealing sweep and the chunked sweep of the same seed must agree
    // with each other (and with the simulator) at 1/2/5/default threads —
    // the chunk→thread assignment is the only thing the schedule changes.
    for (n, seed) in [(3000usize, 7u64), (777, 41)] {
        let stealing = sweep_invariant(native_stealing, seed, "steal permutation-qrqw", |m| {
            random_permutation_qrqw(m, n).order
        });
        let chunked = sweep_invariant(native_chunked, seed, "permutation-qrqw", |m| {
            random_permutation_qrqw(m, n).order
        });
        assert_eq!(stealing, chunked, "chunked vs stealing diverged");
        let mut sim = Pram::with_seed(16, seed);
        assert_eq!(
            stealing,
            random_permutation_qrqw(&mut sim, n).order,
            "stealing must agree with the simulator reference"
        );

        let stealing = sweep_invariant(native_stealing, seed, "steal cyclic-fast", |m| {
            random_cyclic_permutation_fast(m, n).successor
        });
        let mut sim = Pram::with_seed(16, seed);
        assert_eq!(
            stealing,
            random_cyclic_permutation_fast(&mut sim, n).successor
        );
    }
    let keys = qrqw_bench::Algorithm::scattered_keys(3000, 0);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let got = sweep_invariant(native_stealing, 2, "steal sample-sort-qrqw", |m| {
        sample_sort_qrqw(m, &keys)
    });
    assert_eq!(got, expect);
    let got = sweep_invariant(native_stealing, 2, "steal distributive-sort", |m| {
        sort_uniform_keys(m, &keys)
    });
    assert_eq!(got, expect);
}

#[test]
fn stealing_contention_totals_match_chunked_and_the_simulator() {
    let n = 8192usize;
    let stealing = sweep_invariant(native_stealing, 11, "steal contention-totals", |m| {
        let _ = random_permutation_qrqw(m, n);
        let report = m.cost_report();
        (report.claim_attempts, report.contended_claims, report.steps)
    });
    let chunked = sweep_invariant(native_chunked, 11, "contention-totals", |m| {
        let _ = random_permutation_qrqw(m, n);
        let report = m.cost_report();
        (report.claim_attempts, report.contended_claims, report.steps)
    });
    assert_eq!(stealing, chunked, "chunked vs stealing counters diverged");
    let mut sim = Pram::with_seed(16, 11);
    let _ = random_permutation_qrqw(&mut sim, n);
    let rs = sim.cost_report();
    assert_eq!(
        stealing,
        (rs.claim_attempts, rs.contended_claims, rs.steps),
        "stealing contention totals must match the simulator's collision counts"
    );
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

#[test]
fn fused_and_unfused_dispatch_agree_with_the_simulator_on_claim_heavy_work() {
    // Running the claim protocol's passes as one pool dispatch changes
    // nothing observable — outputs, CostReport step counts, and contention
    // totals stay bit-identical to the simulator's charge whether the
    // passes run inline one after the other (threads = 1) or as a pooled
    // group, under either schedule.
    let n = 8192usize;
    let seed = 11u64;
    let mut sim = Pram::with_seed(16, seed);
    let sim_order = random_permutation_qrqw(&mut sim, n).order;
    let rs = sim.cost_report();
    for threads in [1usize, 2, 5] {
        for schedule in Schedule::ALL {
            let label = format!("threads={threads} {schedule:?}");
            let mut m = native(seed, Some(threads), schedule);
            let order = random_permutation_qrqw(&mut m, n).order;
            assert_eq!(order, sim_order, "{label}: outputs diverged");
            let report = m.cost_report();
            assert_eq!(report.steps, rs.steps, "{label}: step counts diverged");
            assert_eq!(
                (report.claim_attempts, report.contended_claims),
                (rs.claim_attempts, rs.contended_claims),
                "{label}: contention totals diverged"
            );
        }
    }
}

#[test]
fn occupy_claims_pick_the_lowest_claimant_on_every_schedule_and_thread_count() {
    // Occupy arbitration is pinned, not "whichever thread wins the CAS":
    // the lowest live claimant index takes the cell on every backend.  A
    // race-decided winner changes retry trajectories — and therefore step
    // counts and contention totals — between schedules, which is exactly
    // the stealing-vs-sim drift this test regresses.
    //
    // 6000 claimants over 97 cells: heavy multi-way contention, well past
    // the inline cutoff so the parallel claim path actually runs.
    let attempts: Vec<(u64, usize)> = (0..6000usize)
        .map(|j| (j as u64 + 7, (j * 31) % 97))
        .collect();
    let mut sim = Pram::with_seed(16, 3);
    let sim_won = sim.claim(&attempts, ClaimMode::Occupy);
    let sim_report = sim.cost_report();
    // On a fresh machine every claimant is live, so the winner of each
    // cell is exactly its first claimant in index order.
    let mut seen = std::collections::HashSet::new();
    for (j, &(_, addr)) in attempts.iter().enumerate() {
        assert_eq!(sim_won[j], seen.insert(addr), "sim winner at claimant {j}");
    }
    for threads in [1usize, 2, 5] {
        for schedule in Schedule::ALL {
            let label = format!("threads={threads} {schedule:?}");
            let mut m = native(3, Some(threads), schedule);
            let won = m.claim(&attempts, ClaimMode::Occupy);
            assert_eq!(won, sim_won, "{label}: occupy winners diverged");
            let report = m.cost_report();
            assert_eq!(
                (report.steps, report.claim_attempts, report.contended_claims),
                (
                    sim_report.steps,
                    sim_report.claim_attempts,
                    sim_report.contended_claims
                ),
                "{label}: claim accounting diverged"
            );
            // Each contested cell keeps the winning claimant's tag.
            for (j, &(tag, addr)) in attempts.iter().enumerate() {
                if won[j] {
                    assert_eq!(m.peek(addr), tag, "{label}: cell {addr}");
                }
            }
        }
    }
}

#[test]
fn fused_and_unfused_dispatch_agree_on_scan_and_compact() {
    // scan_step and compact_step run as one 3-pass pool dispatch — except a
    // compact whose destination needs arena growth, which falls back to two
    // dispatches with the growth in between.  Both routes must match the
    // simulator bit for bit and charge the same step counts.
    let n = 60_000usize;
    let vals: Vec<u64> = (0..n as u64).map(|i| (i * 31) % 13).collect();
    let sparse: Vec<u64> = (0..n as u64)
        .map(|i| if i % 3 == 0 { i + 1 } else { EMPTY })
        .collect();
    // (scan total, scanned cells, kept count, compacted cells, the same
    // pair for the raw destination above the arena, heap top, steps).
    type ScanCompactTrace = (u64, Vec<u64>, u64, Vec<u64>, u64, Vec<u64>, usize, u64);
    fn drive<M: Machine>(m: &mut M, n: usize, vals: &[u64], sparse: &[u64]) -> ScanCompactTrace {
        let base = m.alloc(n);
        let dst = m.alloc(n);
        m.load(base, vals);
        let total = m.scan_step(base, n);
        let scanned = m.dump(base, n);
        m.load(base, sparse);
        let kept = m.compact_step(base, n, dst);
        let compacted = m.dump(dst, kept as usize);
        // A raw destination at the very end of memory: the survivors only
        // fit after growth.
        let raw = m.heap_top();
        let kept_raw = m.compact_step(base, n, raw);
        let compacted_raw = m.dump(raw, kept_raw as usize);
        (
            total,
            scanned,
            kept,
            compacted,
            kept_raw,
            compacted_raw,
            m.heap_top(),
            m.steps_executed(),
        )
    }
    let reference = drive(&mut Pram::with_seed(16, 0), n, &vals, &sparse);
    for threads in [1usize, 2, 5] {
        for schedule in Schedule::ALL {
            let mut m = native(0, Some(threads), schedule);
            let out = drive(&mut m, n, &vals, &sparse);
            assert!(
                out == reference,
                "threads={threads} {schedule:?}: scan/compact diverged"
            );
        }
    }
    let (total, _, kept, compacted, kept_raw, compacted_raw, ..) = reference;
    assert_eq!(total, vals.iter().sum::<u64>());
    assert_eq!(kept as usize, n.div_ceil(3));
    assert!(compacted.iter().zip(0..).all(|(&v, i)| v == 3 * i + 1));
    assert_eq!((kept_raw, compacted_raw), (kept, compacted));
}
