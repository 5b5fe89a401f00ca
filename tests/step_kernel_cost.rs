//! Guards for the step kernel's cost relative to the loop it should be.
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
//! The second guard prices the pool handoff a small step pays: the same
//! kind of step, just over the inline cutoff, dispatched to a 2-thread pool
//! against run inline.
//!
//! The kernel gate prices a machine call's native kernel against the
//! trait's default route issued as ordinary steps on the same 2-thread
//! machine ([`ByStages`]), one row per call:
//!
//! - `bitonic_segments` on the basket's sample-sort finishing shape
//!   (17 segments of 2^14 cells) against one `par_for` per stage.  The
//!   cache-blocked kernel reads 0.16–0.21 of the stage route as is and
//!   0.18–0.23 pinned to one CPU on the 2-vCPU reference box (3 runs
//!   each); a kernel that sweeps the whole range per stage again reads
//!   about 1.
//! - `counting_pass` on one radix digit of the basket's integer sort and
//!   Fetch&Add (2^18 packed words, 256 buckets) against the count step,
//!   the Blelloch tree's `2·lg w + 3` steps over the 256 × 1024 count
//!   matrix, the scatter and the copy back.  The fused block kernel reads
//!   0.17–0.22 of the step route as is and 0.25–0.27 pinned to one CPU on
//!   the 2-vCPU reference box (4 runs each: 1.7–2.2 ms against
//!   9.8–11.9 ms as is, 3.0–3.4 ms against 11.7–12.6 ms pinned); a kernel
//!   that runs the count matrix through the tree step by step again reads
//!   about 1.
//! - `scan_tree` on 2^18 cells against the Blelloch tree's `2·lg w + 3`
//!   steps.  The blocked scan, which takes each block as plain words,
//!   reads 0.07–0.09 of the step route as is and 0.08 pinned to one CPU on
//!   the 2-vCPU reference box (4 and 3 runs: 0.11–0.17 ms against
//!   1.5–1.9 ms as is, 0.21 ms against 2.7 ms pinned; 0.25–0.26 as is
//!   when it read the cells one atomic load at a time); with the kernel
//!   gone, the tree's steps read 1.00–1.07.
//! - `compact_step` on 2^18 cells, about half of them `EMPTY`, to a
//!   destination below the allocation top, against the default route's
//!   flag step, scan step and gather step.  The kernel reads 0.34–0.43
//!   of the step route as is and 0.44–0.45 pinned to one CPU on the 2-vCPU
//!   reference box (4 and 3 runs: 0.29–0.42 ms against 0.72–1.21 ms as
//!   is, 0.58–0.61 ms against 1.30–1.36 ms pinned; the step route's scan
//!   step is itself the blocked scan); with the kernel gone, the default
//!   route in its place reads 0.94–0.96.
//! - `claim` in Exclusive mode, 2^18 attempts tagged `j + 1` aimed by a
//!   seeded hash of the index over 2^18 empty cells, against the six-step
//!   route of `qrqw_sim::claim_by_steps`.  The kernel's three fused passes
//!   read 0.48–0.57 of the step route as is (8 runs: 2.8–3.9 ms against
//!   5.7–7.3 ms) and 0.50–0.64 pinned to one CPU (24 runs: 4.4–6.2 ms
//!   against 7.0–9.8 ms; an earlier 24 read 0.59–0.77 and once 0.91) on
//!   the 2-vCPU reference box; with the kernel gone, the step route in its
//!   place reads 0.98–1.00 as is (3 runs) and 0.98–1.04 pinned in 23 of 24
//!   runs, once 0.76.  At 2^20 attempts the kernel reads 0.46–0.55 pinned
//!   (24 runs: 26–30 ms against 48–60 ms), but the step route in its
//!   place reads 0.94–1.10, 2 of 24 runs below the bound, so the row
//!   stays at 2^18.
//!   Occupy has no row: its step route's winner is whichever writer lands
//!   last on a truly concurrent machine, so the two routes leave
//!   different records.
//! - `list_rank` of one chain through 2^18 nodes in a seeded random order
//!   against pointer jumping's `2·⌈lg n⌉ + 2` = 38 steps.  The ruling-set
//!   kernel reads 0.16–0.20 of the step route as is and 0.14–0.15 pinned
//!   to one CPU on the 2-vCPU reference box (6 and 5 runs: 2.1–2.6 ms
//!   against 12.8–13.8 ms as is, 3.5–3.8 ms against 25.0–25.9 ms
//!   pinned); with the kernel gone, pointer jumping in its place reads
//!   1.05–1.07 (2 runs each), and interleaved pointer jumping, the
//!   kernel sketched before the ruling set, read 0.43–0.53 in a model.
//! - `fill_forward` of Fetch&Add's run-start prefixes at n = 2^18 (every
//!   eighth of 2^18 cells set) against the Hillis–Steele route's 18
//!   doubling rounds.  The blocked scan under "the later value unless it
//!   is `EMPTY`" (last values, a serial carry, a fill) reads 0.03–0.04 of
//!   the step route as is and 0.04 pinned to one CPU on the 2-vCPU
//!   reference box (4 and 3 runs: 0.11–0.13 ms against 3.0–4.1 ms as is,
//!   0.21–0.22 ms against 5.8–6.0 ms pinned).
//! - `duplicate` of hashing's displacement parameters at n = 2^16 (116
//!   values into 2260 copies each) against the seed step and 12 doubling
//!   rounds.  The one-dispatch fill reads 0.12–0.20 of the step route as
//!   is and 0.13–0.14 pinned to one CPU on the 2-vCPU reference box (5
//!   and 4 runs: 0.07–0.10 ms against 0.45–0.57 ms as is, 0.10–0.12 ms
//!   against 0.79–0.83 ms pinned).
//!
//! Timing tests, so `#[ignore]`d; CI runs them in release, as is and pinned
//! to one CPU:
//!
//! ```text
//! cargo test --release --test step_kernel_cost -- --ignored --nocapture
//! taskset -c 0 cargo test --release --test step_kernel_cost -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

mod common;

use common::kernels::{lists, shuffled, ByStages, Case, Kernel};
use qrqw_suite::exec::{NativeMachine, StepPool};
use qrqw_suite::sim::{ClaimMode, Machine, EMPTY};

const CELLS: usize = 1 << 20;
const REPS: usize = 15;
/// Measured on the 2-vCPU reference box: 2.8–3.5 with the attributes,
/// 8–9.4 without them.
const MAX_RATIO: f64 = 5.0;

/// Cells of one dispatch-guard step: just over the 2048-item inline cutoff,
/// so on two threads every step is a pool dispatch.
const STEP_CELLS: usize = 4096;
/// Back-to-back steps per timed repetition of the dispatch guard.
const STEPS: usize = 2000;
/// Bound on a 2-thread step's wall over an inline one's.  Measured on the
/// 2-vCPU reference box: 2.23–2.76 when every dispatch woke a parked worker
/// and the worker signalled the caller back through a condvar, 1.18–1.70
/// with lingering workers (6 runs each); pinned to one CPU, 1.65–1.77 and
/// 0.93–1.10 (4 runs each).
const MAX_DISPATCH_RATIO: f64 = 2.0;

/// The guards time on every CPU the process has, so they must not overlap
/// when the harness runs them on parallel threads.
static TIMING: Mutex<()> = Mutex::new(());

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

/// One read-write-back step over the first `len` cells.
fn bump(machine: &mut NativeMachine, len: usize) {
    machine.par_for(len, |p, ctx| {
        let v = ctx.read(p);
        ctx.write(p, v.wrapping_add(1));
    })
}

#[test]
#[ignore = "timing guard: run with --release -- --ignored"]
fn a_read_write_step_stays_within_five_raw_loops() {
    if cfg!(debug_assertions) {
        panic!("the ratio is only meaningful in an optimized build: pass --release");
    }
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let zeros = vec![0u64; CELLS];

    let mut machine = NativeMachine::with_pool(CELLS, 1, StepPool::with_threads(1));
    machine.load(0, &zeros);
    let step = best_ns_per_cell(|| bump(&mut machine, CELLS));
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

#[test]
#[ignore = "timing guard: run with --release -- --ignored"]
fn a_dispatched_small_step_stays_within_its_bound_of_an_inline_one() {
    if cfg!(debug_assertions) {
        panic!("the ratio is only meaningful in an optimized build: pass --release");
    }
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let machine = |threads: usize| {
        let mut m = NativeMachine::with_pool(STEP_CELLS, 1, StepPool::with_threads(threads));
        m.load(0, &[0; STEP_CELLS]);
        m
    };
    let (mut inline_m, mut pooled_m) = (machine(1), machine(2));
    // The repetitions alternate, so a change of the host's speed while the
    // guard runs meets both sides.
    let (mut inline, mut pooled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        for (m, best) in [(&mut inline_m, &mut inline), (&mut pooled_m, &mut pooled)] {
            let start = Instant::now();
            for _ in 0..STEPS {
                bump(m, STEP_CELLS);
            }
            *best = best.min(start.elapsed().as_secs_f64() * 1e9 / STEPS as f64);
        }
    }
    for m in [&inline_m, &pooled_m] {
        assert_eq!(m.peek(STEP_CELLS - 1), (REPS * STEPS) as u64);
    }

    let ratio = pooled / inline;
    println!(
        "dispatch handoff: {STEP_CELLS}-cell step {pooled:.0} ns on 2 threads, \
         {inline:.0} ns inline, ratio {ratio:.2}"
    );
    assert!(
        ratio <= MAX_DISPATCH_RATIO,
        "a {STEP_CELLS}-cell step on a 2-thread pool costs {ratio:.2}x the inline step \
         (limit {MAX_DISPATCH_RATIO}): does every dispatch go through the kernel again?"
    );
}

#[test]
#[ignore = "timing guard: run with --release -- --ignored"]
fn every_native_kernel_stays_within_its_bound_of_the_step_route() {
    if cfg!(debug_assertions) {
        panic!("the ratio is only meaningful in an optimized build: pass --release");
    }
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    // The basket's sample-sort finishing network: 17 buckets padded to
    // 2^14 cells each.
    let (seg, segs) = (1 << 14, 17);
    let network = Case {
        kernel: Kernel::Bitonic(seg, segs),
        input: (0..(seg * segs) as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
            .collect(),
        base: 0,
        top: seg * segs,
        attempts: Vec::new(),
    };
    // One radix digit: packed words, a 32-bit index above a 31-bit key,
    // bucketed by the key's second byte.
    let words = 1 << 18;
    let digit = Case {
        kernel: Kernel::CountingPass(256),
        input: (0..words as u64)
            .map(|i| i << 32 | i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33)
            .collect(),
        base: 0,
        top: words,
        attempts: Vec::new(),
    };
    // An exclusive scan of 2^18 cells, a tenth of them EMPTY.
    let cells = 1 << 18;
    let tree = Case {
        kernel: Kernel::ScanTree(false),
        input: (0..cells as u64)
            .map(|i| if i % 10 == 3 { EMPTY } else { i % 1000 })
            .collect(),
        base: 0,
        top: cells,
        attempts: Vec::new(),
    };
    // A compaction of 2^18 cells, about half of them EMPTY, to a
    // destination below the allocation top.
    let sparse = Case {
        kernel: Kernel::Compact(cells),
        input: (0..cells as u64)
            .map(|i| {
                if i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0 {
                    EMPTY
                } else {
                    i
                }
            })
            .collect(),
        base: 0,
        top: 2 * cells,
        attempts: Vec::new(),
    };
    // Exclusive claims of 2^18 attempts tagged `j + 1`, aimed by a seeded
    // hash of the index over 2^18 empty cells.
    let darts = Case {
        kernel: Kernel::Claim(ClaimMode::Exclusive),
        input: vec![EMPTY; cells],
        base: 0,
        top: cells,
        attempts: (0..cells)
            .map(|j| {
                let hash = (j as u64 ^ 0x5EED).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 46;
                (j as u64 + 1, hash as usize)
            })
            .collect(),
    };
    // One chain of 2^18 nodes in a seeded random order, ranked into the
    // cells past it.
    let chain = Case {
        kernel: Kernel::ListRank(cells),
        input: lists(&shuffled(cells, 1), |_| false),
        base: 0,
        top: 2 * cells,
        attempts: Vec::new(),
    };
    // Fetch&Add's run-start prefixes at n = 2^18: every eighth of 2^18
    // cells holds a value, filled forward over the runs between.
    let runs = Case {
        kernel: Kernel::FillForward,
        input: (0..cells as u64)
            .map(|i| if i % 8 == 0 { i } else { EMPTY })
            .collect(),
        base: 0,
        top: cells,
        attempts: Vec::new(),
    };
    // Hashing's displacement parameters at n = 2^16: 116 values into 2260
    // copies each, in the cells past them.
    let (k, copies) = (116, 2260);
    let params = Case {
        kernel: Kernel::Duplicate(k, copies),
        input: (0..k as u64).map(|i| i * 7919).collect(),
        base: 0,
        top: k + k * copies,
        attempts: Vec::new(),
    };
    // The rows: a case, and the bound on its kernel's wall over its
    // default route's (see the module docs for the readings).
    let rows = [
        (network, 0.5),
        (digit, 0.5),
        (tree, 0.55),
        (sparse, 0.65),
        (darts, 0.95),
        (chain, 0.3),
        (runs, 0.2),
        (params, 0.5),
    ];
    for (case, bound) in rows {
        let pool = StepPool::with_threads(2);
        let mut m = ByStages(NativeMachine::with_pool(case.top, 1, pool));
        // Interleaved, each run on a fresh load of the input.
        let (mut kernel, mut staged) = (f64::INFINITY, f64::INFINITY);
        let call = format!("{:?} over {} cells", case.kernel, case.input.len());
        for _ in 0..REPS {
            let (native, wall) = case.run(&mut m.0);
            kernel = kernel.min(wall.as_secs_f64() * 1e3);
            let (default, wall) = case.run(&mut m);
            staged = staged.min(wall.as_secs_f64() * 1e3);
            assert!(
                native == default,
                "{call}: the routes left different records"
            );
        }

        let ratio = kernel / staged;
        println!("{call}: kernel {kernel:.2} ms, step route {staged:.2} ms, ratio {ratio:.2}");
        assert!(
            ratio <= bound,
            "{call}: the native kernel costs {ratio:.2}x the step route (limit {bound}): \
             does it run the route's steps one by one again?"
        );
    }
}
