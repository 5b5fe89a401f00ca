//! Guard for the step kernel's cost relative to the loop it should be.
//!
//! A `par_for` that reads a cell and writes it back is, per virtual
//! processor, a bounds check, a relaxed load and a relaxed store.  It stays
//! that only while everything a step closure calls per processor is
//! `#[inline]` (see the "Execution hot path" list in
//! `qrqw_exec::machine`): an integration test is a downstream crate built
//! without LTO — exactly the situation of the bench bins, the service and
//! `perfbench` — so a dropped attribute shows here as an out-of-line call
//! per access and the ratio below jumps from ~3 to ~9.
//!
//! Timing test, so `#[ignore]`d; CI runs it in release:
//!
//! ```text
//! cargo test --release -p qrqw-exec --test step_kernel_cost -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use qrqw_exec::{NativeMachine, StepPool};
use qrqw_sim::Machine;

const CELLS: usize = 1 << 20;
const REPS: usize = 15;
/// Measured on the 2-vCPU reference box: 2.8–3.5 with the attributes,
/// 8–9.4 without them.
const MAX_RATIO: f64 = 5.0;

/// Best-of-[`REPS`] wall of one pass over [`CELLS`] cells, in ns per cell.
fn best_ns_per_cell(mut pass: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64() * 1e9 / CELLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing guard: run with --release -- --ignored"]
fn a_read_write_step_stays_within_five_raw_loops() {
    if cfg!(debug_assertions) {
        panic!("the ratio is only meaningful in an optimized build: pass --release");
    }
    let zeros = vec![0u64; CELLS];

    let mut machine = NativeMachine::with_pool(CELLS, 1, StepPool::with_threads(1));
    machine.load(0, &zeros);
    let step = best_ns_per_cell(|| {
        machine.par_for(CELLS, |p, ctx| {
            let v = ctx.read(p);
            ctx.write(p, v.wrapping_add(1));
        })
    });
    assert_eq!(machine.peek(CELLS - 1), REPS as u64);

    let cells: Vec<AtomicU64> = zeros.into_iter().map(AtomicU64::new).collect();
    let raw = best_ns_per_cell(|| {
        for cell in black_box(&cells[..]) {
            let v = cell.load(Ordering::Relaxed);
            cell.store(v.wrapping_add(1), Ordering::Relaxed);
        }
    });
    assert_eq!(cells[CELLS - 1].load(Ordering::Relaxed), REPS as u64);

    let ratio = step / raw;
    println!("step kernel: par_for {step:.2} ns/cell, raw loop {raw:.2} ns/cell, ratio {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "a read-write-back par_for costs {ratio:.1}x the raw loop (limit {MAX_RATIO}): \
         is something a step closure calls per processor no longer #[inline]?"
    );
}
