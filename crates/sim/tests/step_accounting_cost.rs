//! Guard for the simulator's per-processor cost relative to the floor any
//! snapshot simulator pays.
//!
//! A simulated access has to be remembered until the step ends: the least
//! a step body can do per processor is load its cell, append the address
//! to a read log, append `(address, value)` to a write log, and have the
//! writes applied afterwards.  `Pram` adds the accounting on top — end
//! offsets per processor, one stamp walk over the reads and one over the
//! writes — and stays within a small multiple of that floor only while the
//! logs are per chunk and recycled, nothing is sorted, and everything a
//! step closure calls per processor is `#[inline]` (an integration test is
//! a downstream crate built without LTO, like the bench bins and
//! `perfbench`).  A per-processor allocation or a per-step sort coming
//! back shows here as a ratio above 50 instead of about 3.
//!
//! Timing test, so `#[ignore]`d; CI runs it in release:
//!
//! ```text
//! cargo test --release -p qrqw-sim --test step_accounting_cost -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

use qrqw_sim::{Machine, Pram};

const PROCS: usize = 1 << 18;
const REPS: usize = 15;
/// Measured on the 2-vCPU reference box: 2.5–3.3 with chunk logs and the
/// stamp walk, 52–78 with a log per processor and two sorts per step.
const MAX_RATIO: f64 = 12.0;

/// Best-of-[`REPS`] wall of one pass over [`PROCS`] processors, in ns per
/// processor.
fn best_ns_per_proc(mut pass: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64() * 1e9 / PROCS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing guard: run with --release -- --ignored"]
fn a_simulated_read_write_step_stays_within_twelve_logging_loops() {
    if cfg!(debug_assertions) {
        panic!("the ratio is only meaningful in an optimized build: pass --release");
    }
    let zeros = vec![0u64; PROCS];

    let mut pram = Pram::with_seed(PROCS, 1);
    pram.load(0, &zeros);
    let step = best_ns_per_proc(|| {
        pram.par_for(PROCS, |p, ctx| {
            let v = ctx.read(p);
            ctx.write(p, v.wrapping_add(1));
        })
    });
    assert_eq!(pram.peek(PROCS - 1), REPS as u64);

    let mut cells = zeros;
    let mut reads: Vec<usize> = Vec::new();
    let mut writes: Vec<(usize, u64)> = Vec::new();
    let raw = best_ns_per_proc(|| {
        reads.clear();
        writes.clear();
        for (p, &v) in black_box(&cells[..]).iter().enumerate() {
            reads.push(p);
            writes.push((p, v.wrapping_add(1)));
        }
        black_box(&reads);
        for &(p, v) in black_box(&writes[..]) {
            cells[p] = v;
        }
    });
    assert_eq!(cells[PROCS - 1], REPS as u64);

    let ratio = step / raw;
    println!(
        "step accounting: Pram par_for {step:.2} ns/processor, logging floor {raw:.2} ns/processor, ratio {ratio:.2}"
    );
    assert!(
        ratio <= MAX_RATIO,
        "a simulated read-write-back processor costs {ratio:.1}x the logging floor \
         (limit {MAX_RATIO}): did a per-processor allocation or a per-step sort come back, \
         or did a ProcCtx method lose its #[inline]?"
    );
}
