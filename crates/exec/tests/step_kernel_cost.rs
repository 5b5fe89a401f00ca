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
//! The third prices `Machine::bitonic_segments` on the basket's
//! sample-sort finishing shape (17 segments of 2^14 cells, 2 threads)
//! against the same network issued as one `par_for` per stage on the same
//! machine.  The cache-blocked kernel reads 0.16–0.21 of the per-stage
//! route as is and 0.18–0.23 pinned to one CPU on the 2-vCPU reference
//! box (3 runs each); a kernel that sweeps the whole range per stage again
//! reads about 1.
//!
//! The fourth prices `Machine::counting_pass` on one radix digit of the
//! basket's integer sort and Fetch&Add (2^18 packed words, 256 buckets,
//! 2 threads) against the trait's default route issued as ordinary steps
//! on the same machine — the count step, the Blelloch tree's `2·lg w + 3`
//! steps over the 256 × 1024 count matrix, the scatter and the copy back.
//! The fused block kernel reads 0.17–0.22 of the step route as is and
//! 0.25–0.27 pinned to one CPU on the 2-vCPU reference box (4 runs each:
//! 1.7–2.2 ms against 9.8–11.9 ms as is, 3.0–3.4 ms against
//! 11.7–12.6 ms pinned); a kernel that runs the count matrix through the
//! tree step by step again reads about 1.
//!
//! Timing tests, so `#[ignore]`d; CI runs them in release, as is and pinned
//! to one CPU:
//!
//! ```text
//! cargo test --release -p qrqw-exec --test step_kernel_cost -- --ignored --nocapture
//! taskset -c 0 cargo test --release -p qrqw-exec --test step_kernel_cost -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use qrqw_exec::{NativeMachine, StepPool};
use qrqw_sim::{ClaimMode, CostReport, Machine, MachineProc};

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

/// The bitonic guard's shape: the basket's sample-sort finishing network,
/// 17 buckets padded to 2^14 cells each.
const NET_SEG: usize = 1 << 14;
const NET_SEGS: usize = 17;
/// Bound on the cache-blocked network's wall over the same network issued
/// as one `par_for` per stage, both on a 2-thread pool (see the module
/// docs for the readings).
const MAX_NETWORK_RATIO: f64 = 0.5;

/// The stage route of `Machine::bitonic_segments`, issued as ordinary
/// steps: one `par_for` over the whole range per compare–exchange stage.
fn network_by_stages(m: &mut NativeMachine, seg: usize, segs: usize) {
    let in_seg = seg - 1;
    let mut k = 2;
    while k <= seg {
        let mut j = k / 2;
        while j >= 1 {
            m.par_for(seg * segs, |g, ctx| {
                let i = g & in_seg;
                let l = i ^ j;
                if l <= i {
                    return;
                }
                let off = g - i;
                let (a, b) = (ctx.read(off + i), ctx.read(off + l));
                if (i & k == 0 && a > b) || (i & k != 0 && a < b) {
                    ctx.write(off + i, b);
                    ctx.write(off + l, a);
                }
            });
            j /= 2;
        }
        k *= 2;
    }
}

#[test]
#[ignore = "timing guard: run with --release -- --ignored"]
fn the_blocked_bitonic_network_stays_within_half_the_stage_route() {
    if cfg!(debug_assertions) {
        panic!("the ratio is only meaningful in an optimized build: pass --release");
    }
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let total = NET_SEG * NET_SEGS;
    let data: Vec<u64> = (0..total as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
        .collect();
    let mut m = NativeMachine::with_pool(total, 1, StepPool::with_threads(2));
    // Interleaved, each run on a fresh copy of the unsorted input.
    let (mut blocked, mut staged) = (f64::INFINITY, f64::INFINITY);
    let mut outputs = [Vec::new(), Vec::new()];
    for _ in 0..REPS {
        for (route, best) in [&mut blocked, &mut staged].into_iter().enumerate() {
            m.load(0, &data);
            let start = Instant::now();
            if route == 0 {
                m.bitonic_segments(0, NET_SEG, NET_SEGS);
            } else {
                network_by_stages(&mut m, NET_SEG, NET_SEGS);
            }
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
            outputs[route] = m.dump(0, total);
        }
    }
    assert!(
        outputs[0] == outputs[1],
        "the two routes left different memory"
    );

    let ratio = blocked / staged;
    println!(
        "bitonic network: {NET_SEGS} x {NET_SEG} blocked {blocked:.2} ms, \
         per-stage par_for {staged:.2} ms, ratio {ratio:.2}"
    );
    assert!(
        ratio <= MAX_NETWORK_RATIO,
        "the cache-blocked network costs {ratio:.2}x the per-stage route \
         (limit {MAX_NETWORK_RATIO}): does it sweep the whole range per stage again?"
    );
}

/// The counting-pass guard's shape: one radix digit of the basket's
/// integer sort and Fetch&Add, 2^18 packed `(key, index)` words over
/// 256 buckets.
const SORT_WORDS: usize = 1 << 18;
const SORT_BUCKETS: usize = 256;
/// Bound on the native counting pass's wall over the default route issued
/// as ordinary steps, both on a 2-thread pool (see the module docs for the
/// readings).
const MAX_COUNTING_RATIO: f64 = 0.5;

/// A `NativeMachine` that keeps the trait's default `scan_tree` and
/// `counting_pass`: the canonical route as one `par_for` per step on the
/// same pool.
struct ByStages(NativeMachine);

impl Machine for ByStages {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        ByStages(NativeMachine::with_seed(mem_size, seed))
    }
    fn backend(&self) -> &'static str {
        self.0.backend()
    }
    fn seed(&self) -> u64 {
        self.0.seed()
    }
    fn steps_executed(&self) -> u64 {
        self.0.steps_executed()
    }
    fn ensure_memory(&mut self, size: usize) {
        self.0.ensure_memory(size)
    }
    fn alloc(&mut self, len: usize) -> usize {
        self.0.alloc(len)
    }
    fn release_to(&mut self, base: usize) {
        self.0.release_to(base)
    }
    fn heap_top(&self) -> usize {
        self.0.heap_top()
    }
    fn load(&mut self, base: usize, values: &[u64]) {
        self.0.load(base, values)
    }
    fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        self.0.dump(base, len)
    }
    fn peek(&self, addr: usize) -> u64 {
        self.0.peek(addr)
    }
    fn poke(&mut self, addr: usize, value: u64) {
        self.0.poke(addr, value)
    }
    fn clear_region(&mut self, base: usize, len: usize) {
        self.0.clear_region(base, len)
    }
    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        self.0.par_map(procs, f)
    }
    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T,
    {
        self.0.seq_step(f)
    }
    fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        self.0.scan_step(base, len)
    }
    fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        self.0.global_or_step(base, len)
    }
    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        self.0.claim(attempts, mode)
    }
    fn cost_report(&self) -> CostReport {
        self.0.cost_report()
    }
}

#[test]
#[ignore = "timing guard: run with --release -- --ignored"]
fn the_fused_counting_pass_stays_within_its_bound_of_the_step_route() {
    if cfg!(debug_assertions) {
        panic!("the ratio is only meaningful in an optimized build: pass --release");
    }
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    // Packed words: a 31-bit key above a 32-bit index; the digit is the
    // key's second byte.
    let data: Vec<u64> = (0..SORT_WORDS as u64)
        .map(|i| ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) << 32) | i)
        .collect();
    let digit = |w: u64| ((w >> 32) >> 8) & 0xFF;
    let mut m = ByStages(NativeMachine::with_pool(
        SORT_WORDS,
        1,
        StepPool::with_threads(2),
    ));
    // Interleaved, each run on a fresh copy of the unsorted input.
    let (mut fused, mut staged) = (f64::INFINITY, f64::INFINITY);
    let mut after = [None, None];
    for _ in 0..REPS {
        for (route, best) in [&mut fused, &mut staged].into_iter().enumerate() {
            m.load(0, &data);
            let before = m.steps_executed();
            let start = Instant::now();
            if route == 0 {
                m.0.counting_pass(0, SORT_WORDS, SORT_BUCKETS, digit);
            } else {
                m.counting_pass(0, SORT_WORDS, SORT_BUCKETS, digit);
            }
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
            let advance = m.steps_executed() - before;
            after[route] = Some((m.dump(0, m.heap_top()), advance));
        }
    }
    assert!(after[0] == after[1], "the two routes left different memory");

    let ratio = fused / staged;
    println!(
        "counting pass: {SORT_WORDS} words x {SORT_BUCKETS} buckets fused {fused:.2} ms, \
         step route {staged:.2} ms, ratio {ratio:.2}"
    );
    assert!(
        ratio <= MAX_COUNTING_RATIO,
        "the fused counting pass costs {ratio:.2}x the step route \
         (limit {MAX_COUNTING_RATIO}): does it sweep the count matrix step by step again?"
    );
}
