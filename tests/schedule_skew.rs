//! Skew-adversarial chunked-vs-stealing regression.
//!
//! Work stealing exists for exactly one workload shape: a pass whose cost
//! is wildly uneven across the index space, so a fixed chunk→thread
//! assignment parks most workers behind one grinding range.  That shape is
//! also where a scheduler bug would show: a stolen chunk run twice, a
//! dropped range, contention bookkeeping folded in the wrong order.  These
//! tests build maximally skewed instances — *all* claim contention landing
//! inside the first chunk (chunks are at least 512 items, so indices
//! 0..512 always share one chunk), and a `par_map` whose first chunk is
//! ~1000× heavier than the rest — and require the work-stealing executor
//! to be bit-identical to chunked dispatch and to the simulator in every
//! observable: outputs, memory images, step counters and contention
//! totals, at 1/2/5/default threads.
//!
//! This is the determinism contract of `ARCHITECTURE.md` pinned at the
//! point of maximum imbalance; the uniform-workload sweeps live in
//! `tests/determinism.rs`.

use qrqw_suite::exec::{NativeMachine, Schedule, StepPool};
use qrqw_suite::sim::{ClaimMode, Machine, MachineProc, Pram};

/// The thread counts every skew test sweeps (mirrors
/// `tests/determinism.rs`): sequential, smallest chunked, odd
/// oversubscribed, process default.
const THREAD_COUNTS: [Option<usize>; 4] = [Some(1), Some(2), Some(5), None];

fn native_with(threads: Option<usize>, schedule: Schedule, seed: u64) -> NativeMachine {
    let pool = match threads {
        Some(t) => StepPool::with_threads(t),
        None => StepPool::from_env(),
    };
    NativeMachine::with_pool(16, seed, pool.with_schedule(schedule))
}

/// Claim attempts whose collisions all land in the first chunk: attempts
/// 0..512 fight over a single cell (512-way contention), every later
/// attempt claims a private cell (zero contention).  Under chunked *and*
/// stealing dispatch the first chunk carries all the claim-protocol work.
fn skewed_attempts(k: usize) -> Vec<(u64, usize)> {
    (0..k)
        .map(|i| (i as u64 + 1, if i < 512 { 0 } else { i }))
        .collect()
}

#[test]
fn skewed_exclusive_claims_are_bit_identical_across_schedules() {
    let k = 40_960usize;
    let attempts = skewed_attempts(k);

    // The simulator reference: outcome, memory image, counters.
    let mut sim = Pram::with_seed(16, 0);
    let reference = Machine::claim(&mut sim, &attempts, ClaimMode::Exclusive);
    let ref_image = Machine::dump(&sim, 0, k);
    let ref_report = sim.cost_report();
    // Sanity: the instance really is maximally skewed — 512 contenders on
    // cell 0 all fail, everyone else succeeds.
    assert!(reference[..512].iter().all(|&ok| !ok));
    assert!(reference[512..].iter().all(|&ok| ok));
    assert_eq!(ref_report.contended_claims, 512);

    for threads in THREAD_COUNTS {
        for schedule in Schedule::ALL {
            let mut m = native_with(threads, schedule, 0);
            let ok = m.claim(&attempts, ClaimMode::Exclusive);
            assert_eq!(
                ok, reference,
                "outcomes diverged ({schedule:?}, threads {threads:?})"
            );
            assert_eq!(
                Machine::dump(&m, 0, k),
                ref_image,
                "memory image diverged ({schedule:?}, threads {threads:?})"
            );
            let r = m.cost_report();
            assert_eq!(
                (r.claim_attempts, r.contended_claims, r.steps),
                (
                    ref_report.claim_attempts,
                    ref_report.contended_claims,
                    ref_report.steps
                ),
                "counters diverged ({schedule:?}, threads {threads:?})"
            );
        }
    }
}

#[test]
fn skewed_occupy_claims_keep_totals_and_one_winner_across_schedules() {
    // Occupy winners are backend-defined, but the *totals* are not: the
    // contested cell has exactly one winner, so failures = 511 whatever
    // thread got there first — even when the hot cell sits in a range that
    // was stolen mid-pass.
    let k = 40_960usize;
    let attempts = skewed_attempts(k);
    for threads in THREAD_COUNTS {
        for schedule in Schedule::ALL {
            let mut m = native_with(threads, schedule, 0);
            let ok = m.claim(&attempts, ClaimMode::Occupy);
            assert_eq!(
                ok[..512].iter().filter(|&&b| b).count(),
                1,
                "exactly one contender may win cell 0 ({schedule:?}, threads {threads:?})"
            );
            assert!(ok[512..].iter().all(|&b| b));
            let r = m.cost_report();
            assert_eq!(
                (r.claim_attempts, r.contended_claims),
                (k as u64, 511),
                "occupy totals diverged ({schedule:?}, threads {threads:?})"
            );
            let winner = ok[..512].iter().position(|&b| b).unwrap();
            assert_eq!(Machine::peek(&m, 0), attempts[winner].0);
        }
    }
}

#[test]
fn skewed_compute_pass_is_bit_identical_across_schedules() {
    // A par_map whose first chunk costs ~1000× the rest: the stealing
    // executor redistributes it across threads, and the outputs (values
    // *and* RNG draws, which would expose any proc-id / chunk-id mixup)
    // must not notice.
    let procs = 40_960usize;
    let body = |p: usize, ctx: &mut dyn MachineProc| {
        let spins = if p < 512 { 1000u64 } else { 1 };
        let mut acc = p as u64;
        for s in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
        }
        ctx.write(p % 64, acc);
        (acc, ctx.random_index(1 << 30))
    };

    let mut sim = Pram::with_seed(64, 9);
    let reference = Machine::par_map(&mut sim, procs, body);

    for threads in THREAD_COUNTS {
        for schedule in Schedule::ALL {
            let mut m = native_with(threads, schedule, 9);
            m.ensure_memory(64);
            let out = m.par_map(procs, body);
            assert_eq!(
                out, reference,
                "par_map outputs diverged ({schedule:?}, threads {threads:?})"
            );
        }
    }
}

#[test]
fn hot_splitter_style_algorithm_is_identical_under_maximum_skew() {
    // End to end through a registry algorithm driven by dart-throwing
    // claims (the sample-sort-crqw "hot splitters" motivation, scaled
    // down): chunked and stealing runs of the same seed must produce the
    // same permutation and counters at every thread count.
    use qrqw_suite::algos::random_permutation_qrqw;
    let n = 6000usize;
    let mut sim = Pram::with_seed(16, 23);
    let reference = random_permutation_qrqw(&mut sim, n).order;
    for threads in THREAD_COUNTS {
        let mut chunked = native_with(threads, Schedule::Chunked, 23);
        let mut stealing = native_with(threads, Schedule::Stealing, 23);
        let a = random_permutation_qrqw(&mut chunked, n).order;
        let b = random_permutation_qrqw(&mut stealing, n).order;
        assert_eq!(a, b, "threads {threads:?}");
        assert_eq!(a, reference, "threads {threads:?}");
        assert_eq!(
            chunked.contention().failures(),
            stealing.contention().failures()
        );
    }
}
