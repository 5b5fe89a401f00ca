//! Skew-adversarial instances through `Lockstep<Pram, NativeMachine>` at
//! 1, 2 and 5 threads under both chunk schedules.  Work stealing exists for
//! a pass whose cost is wildly uneven, and that is where a scheduler bug
//! would show: a stolen chunk run twice, a dropped range, contention folded
//! in the wrong order.  These instances put *all* claim contention inside
//! the first chunk (chunks are at least 512 items), or make the first chunk
//! of a `par_map` ~1000× heavier than the rest.

mod common;

use common::lockstep::{each_pair, pairs_of, NATIVE};
use qrqw_suite::algos::random_permutation_qrqw;
use qrqw_suite::sim::{ClaimMode, Machine, MachineProc};

/// Claim attempts whose collisions all land in the first chunk: attempts
/// 0..512 fight over cell 0 (512-way contention), every later attempt
/// claims a private cell.
fn skewed_attempts(k: usize) -> Vec<(u64, usize)> {
    (0..k)
        .map(|i| (i as u64 + 1, if i < 512 { 0 } else { i }))
        .collect()
}

#[test]
fn skewed_exclusive_claims_are_bit_identical_across_schedules() {
    let attempts = skewed_attempts(40_960);
    each_pair!(pairs_of(NATIVE), 0, |m| {
        let ok = m.claim(&attempts, ClaimMode::Exclusive);
        // The 512 contenders on cell 0 all fail, everyone else succeeds.
        assert!(ok[..512].iter().all(|&won| !won) && ok[512..].iter().all(|&won| won));
        assert_eq!(m.cost_report().contended_claims, 512);
    });
}

#[test]
fn skewed_occupy_claims_keep_totals_and_one_winner_across_schedules() {
    // The hot cell has exactly one winner, the lowest claimant, even when
    // its range was stolen mid-pass.
    let attempts = skewed_attempts(40_960);
    each_pair!(pairs_of(NATIVE), 0, |m| {
        let ok = m.claim(&attempts, ClaimMode::Occupy);
        assert_eq!(ok.iter().position(|&won| !won), Some(1));
        assert_eq!(ok.iter().filter(|&&won| won).count(), 40_960 - 511);
        assert_eq!(m.peek(0), attempts[0].0);
    });
}

#[test]
fn skewed_compute_pass_is_bit_identical_across_schedules() {
    // Lockstep compares every processor's draws, which would expose any
    // proc-id / chunk-id mixup in a redistributed range.
    let body = |p: usize, ctx: &mut dyn MachineProc| {
        let spins = if p < 512 { 1000u64 } else { 1 };
        let mut acc = p as u64;
        for s in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
        }
        ctx.write(p, acc);
        (acc, ctx.random_index(1 << 30))
    };
    each_pair!(pairs_of(NATIVE), 9, |m| {
        m.ensure_memory(40_960);
        let _ = m.par_map(40_960, body);
    });
}

#[test]
fn hot_splitter_style_algorithm_is_identical_under_maximum_skew() {
    // End to end through the dart-throwing permutation (the
    // sample-sort-crqw "hot splitters" motivation, scaled down).
    each_pair!(pairs_of(NATIVE), 23, |m| {
        let _ = random_permutation_qrqw(&mut m, 6000);
    });
}
