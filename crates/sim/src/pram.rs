//! The PRAM driver: shared memory + step execution + trace accumulation.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::machine::MachineProc;
use crate::memory::{SharedMemory, EMPTY};
use crate::rng::proc_rng;
use crate::stats::{StepStats, Trace};
use crate::step::{StepCtx, StepScratch, StepSink};

/// A simulated PRAM: shared memory, a master random seed, and the trace of
/// every step executed so far.
///
/// The same simulated execution can afterwards be costed under any
/// [`crate::CostModel`] via [`Pram::trace`].
#[derive(Debug)]
pub struct Pram {
    mem: SharedMemory,
    trace: Trace,
    seed: u64,
    steps_executed: u64,
    heap_top: usize,
    created: std::time::Instant,
    claim_attempts: u64,
    claim_failures: u64,
    scratch: StepScratch,
}

impl Pram {
    /// Creates a PRAM with `mem_size` cells of shared memory (all
    /// [`crate::EMPTY`]) and seed 0.
    pub fn new(mem_size: usize) -> Self {
        Pram::with_seed(mem_size, 0)
    }

    /// Creates a PRAM with the given master random seed.
    pub fn with_seed(mem_size: usize, seed: u64) -> Self {
        Pram {
            mem: SharedMemory::new(mem_size),
            trace: Trace::new(),
            seed,
            steps_executed: 0,
            heap_top: mem_size,
            created: std::time::Instant::now(),
            claim_attempts: 0,
            claim_failures: 0,
            scratch: StepScratch::default(),
        }
    }

    /// Host wall-clock time elapsed since this PRAM was created (reported by
    /// [`crate::machine::Machine::cost_report`] alongside the model-side
    /// quantities).
    pub fn wall_elapsed(&self) -> std::time::Duration {
        self.created.elapsed()
    }

    /// `(live attempts, collision failures)` recorded by
    /// [`crate::machine::Machine::claim`] so far.
    pub fn claim_stats(&self) -> (u64, u64) {
        (self.claim_attempts, self.claim_failures)
    }

    /// Adds one [`crate::claim_by_steps`] run's `(live attempts, collision
    /// failures)` to [`Pram::claim_stats`]: [`crate::Machine::claim`] does
    /// this, and so does a backend that runs the protocol through its own
    /// steps on this PRAM.
    pub fn note_claims(&mut self, live: u64, contended: u64) {
        self.claim_attempts += live;
        self.claim_failures += contended;
    }

    /// Allocates `len` fresh [`crate::EMPTY`]-initialised cells past every
    /// previously allocated region and returns their base address.
    ///
    /// Allocation is a host-side bookkeeping convenience (PRAM algorithms
    /// are free to address any cell); it lets primitives obtain scratch
    /// space without clobbering their caller's arrays.  Paired with
    /// [`Pram::release_to`], it behaves as a stack allocator.
    pub fn alloc(&mut self, len: usize) -> usize {
        let base = self.heap_top;
        self.heap_top += len;
        // Cells `ensure` creates are EMPTY already; only the reused prefix
        // (released and re-allocated cells) needs clearing.
        let reused = self.mem.len().saturating_sub(base).min(len);
        self.mem.clear_region(base, reused);
        self.mem.ensure(self.heap_top);
        base
    }

    /// Releases every allocation made at or after `base` (obtained from a
    /// previous [`Pram::alloc`]).  The cells remain addressable; only the
    /// allocator's high-water mark is rolled back so the space can be
    /// reused by later scratch allocations.
    pub fn release_to(&mut self, base: usize) {
        assert!(base <= self.heap_top, "release_to past the allocation top");
        self.heap_top = base;
    }

    /// The current allocation high-water mark.
    pub fn heap_top(&self) -> usize {
        self.heap_top
    }

    /// The master random seed of this run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Immutable access to the shared memory (host-side, un-accounted).
    pub fn memory(&self) -> &SharedMemory {
        &self.mem
    }

    /// Mutable access to the shared memory (host-side, un-accounted); used
    /// to load inputs and allocate auxiliary regions.
    pub fn memory_mut(&mut self) -> &mut SharedMemory {
        &mut self.mem
    }

    /// Grows shared memory to at least `size` cells and moves the allocator
    /// high-water mark past them, so later [`Pram::alloc`] calls never hand
    /// out addresses below `size`.
    pub fn ensure_memory(&mut self, size: usize) {
        self.mem.ensure(size);
        self.heap_top = self.heap_top.max(size);
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of synchronous steps executed so far.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Executes one synchronous PRAM step.
    ///
    /// Inside the closure, launch virtual processors with
    /// [`StepCtx::par_map`] / [`StepCtx::par_for`].  All reads observe the
    /// memory as it was when the step began; all writes take effect when the
    /// step ends (the lowest processor id wins a concurrently written cell,
    /// and its last write to it lands).  The step's statistics are appended
    /// to the trace.
    ///
    /// # Panics
    ///
    /// If two launches inside `f` overlap in processor ids, or if the memory
    /// has grown past `2^32` cells (the step accounting's address width).
    pub fn step<R>(&mut self, f: impl FnOnce(&mut StepCtx<'_>) -> R) -> R {
        // `()` counts nothing, so its partials are zero-sized and this
        // vector never allocates.
        self.step_into(rayon::current_num_threads(), &mut (), &mut Vec::new(), f)
    }

    /// [`Pram::step`] with its launches and its accounting walk fanned out
    /// over up to `threads` threads, and the walk reporting every distinct
    /// `(cell, processor)` pair to `sink` on its way; `partials` holds the
    /// sink's per-chunk partials, recycled across steps.  Thread count and
    /// sink are unobservable in the step's results and statistics.  This is
    /// how the BSP backend (crate `qrqw-bsp`) routes a step: its router is
    /// the sink.
    ///
    /// # Panics
    ///
    /// As [`Pram::step`].
    pub fn step_into<S: StepSink, R>(
        &mut self,
        threads: usize,
        sink: &mut S,
        partials: &mut Vec<S::Partial>,
        f: impl FnOnce(&mut StepCtx<'_>) -> R,
    ) -> R {
        let step_idx = self.steps_executed;
        self.scratch.begin_step(self.mem.len(), threads);
        let mut ctx = StepCtx::new(
            self.mem.as_slice(),
            self.seed,
            step_idx,
            threads,
            &self.scratch,
        );
        let result = f(&mut ctx);
        let stats = self.scratch.finish(self.mem.as_mut_slice(), sink, partials);
        self.trace.push(stats);
        self.steps_executed += 1;
        result
    }

    /// Executes one *sequential* step (see [`crate::Machine::seq_step`]): a
    /// single processor (id 0) runs `f` with write-through memory semantics,
    /// so its reads observe its own earlier writes within the step — the
    /// behaviour a native thread gets for free and the snapshot-read
    /// [`Pram::step`] deliberately forbids.
    ///
    /// The step is charged as the serial computation it is: one active
    /// processor whose time equals its total operation count, contention 1.
    /// Advances the step index by 1; random draws come from the
    /// `(seed, step, 0)` stream, matching every other backend.
    pub fn seq_step<T>(&mut self, f: impl FnOnce(&mut dyn MachineProc) -> T) -> T {
        let step_idx = self.steps_executed;
        let mut ctx = SeqProc {
            mem: &mut self.mem,
            seed: self.seed,
            step_idx,
            rng: None,
            reads: 0,
            writes: 0,
            computes: 0,
        };
        let result = f(&mut ctx);
        let (reads, writes, computes) = (ctx.reads, ctx.writes, ctx.computes);
        let ops = reads + writes + computes;
        self.trace.push(StepStats {
            active_procs: (ops > 0) as u64,
            total_reads: reads,
            total_writes: writes,
            total_computes: computes,
            max_ops_per_proc: ops,
            max_read_contention: (reads > 0) as u64,
            max_write_contention: (writes > 0) as u64,
            is_scan: false,
            scan_width: 0,
        });
        self.steps_executed += 1;
        result
    }

    /// Executes a built-in inclusive prefix-sums (scan) step over the memory
    /// region `[base, base+len)`, returning the total sum.
    ///
    /// On the scan-SIMD-QRQW model this costs unit time; under every other
    /// model it is charged as the `⌈lg len⌉`-depth binary-tree computation it
    /// abbreviates (see [`crate::CostModel::step_time`]).  Cells equal to
    /// [`crate::EMPTY`] are treated as zero.
    pub fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        self.mem.ensure(base + len);
        let mut acc = 0u64;
        for cell in &mut self.mem.as_mut_slice()[base..base + len] {
            if *cell != EMPTY {
                acc += *cell;
            }
            *cell = acc;
        }
        self.trace.push(StepStats {
            active_procs: len as u64,
            total_reads: len as u64,
            total_writes: len as u64,
            total_computes: len as u64,
            max_ops_per_proc: 1,
            max_read_contention: 1,
            max_write_contention: 1,
            is_scan: true,
            scan_width: len as u64,
        });
        self.steps_executed += 1;
        acc
    }

    /// Executes a built-in global-OR step over `[base, base+len)` (the
    /// MasPar `globalor` routine): returns true iff any cell in the region
    /// is non-zero and non-[`crate::EMPTY`].  Charged like a scan.
    pub fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        self.mem.ensure(base + len);
        let first = self.mem.as_slice()[base..base + len]
            .iter()
            .position(|&v| v != 0 && v != EMPTY);
        // Work reflects the cells actually inspected before the
        // short-circuit; the *time* charge keeps `scan_width = len` because
        // the machine primitive is a reduction tree over the whole region
        // regardless of where the first non-zero value sits.
        let examined = first.map_or(len, |i| i + 1) as u64;
        self.trace.push(StepStats {
            active_procs: examined,
            total_reads: examined,
            total_writes: 0,
            total_computes: examined,
            max_ops_per_proc: 1,
            max_read_contention: 1,
            max_write_contention: 1,
            is_scan: true,
            scan_width: len as u64,
        });
        self.steps_executed += 1;
        first.is_some()
    }

    /// Splits off the trace accumulated so far, resetting this PRAM's trace
    /// to empty (memory and step counter are preserved).  Useful for
    /// measuring individual phases of a larger algorithm.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }
}

/// The write-through per-processor context of [`Pram::seq_step`].
struct SeqProc<'a> {
    mem: &'a mut SharedMemory,
    seed: u64,
    step_idx: u64,
    rng: Option<SmallRng>,
    reads: u64,
    writes: u64,
    computes: u64,
}

impl MachineProc for SeqProc<'_> {
    fn proc_id(&self) -> u64 {
        0
    }

    fn read(&mut self, addr: usize) -> u64 {
        assert!(
            addr < self.mem.len(),
            "read of address {addr} outside shared memory of size {}",
            self.mem.len()
        );
        self.reads += 1;
        self.mem.peek(addr)
    }

    fn write(&mut self, addr: usize, value: u64) {
        assert!(
            addr < self.mem.len(),
            "write of address {addr} outside shared memory of size {}",
            self.mem.len()
        );
        self.writes += 1;
        self.mem.poke(addr, value);
    }

    fn compute(&mut self, ops: u64) {
        self.computes += ops;
    }

    fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "random_index bound must be positive");
        self.computes += 1;
        if self.rng.is_none() {
            self.rng = Some(proc_rng(self.seed, self.step_idx, 0));
        }
        self.rng.as_mut().unwrap().gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;

    #[test]
    fn writes_apply_at_end_of_step_with_lowest_id_winner() {
        let mut pram = Pram::new(4);
        pram.step(|s| {
            s.par_for(0..4, |p, ctx| {
                ctx.write(0, 100 + p as u64);
            });
        });
        assert_eq!(pram.memory().peek(0), 100);
        assert_eq!(pram.trace().step_stats()[0].max_write_contention, 4);
    }

    #[test]
    fn trace_accumulates_across_steps() {
        let n = 256;
        let mut pram = Pram::new(n);
        for _ in 0..3 {
            pram.step(|s| {
                s.par_for(0..n, |p, ctx| {
                    let v = ctx.read(p);
                    ctx.write(p, if v == EMPTY { 1 } else { v + 1 });
                });
            });
        }
        assert_eq!(pram.steps_executed(), 3);
        assert_eq!(pram.trace().time(CostModel::Qrqw), 3);
        assert_eq!(pram.trace().work(), 3 * 2 * n as u64);
        assert_eq!(pram.memory().peek(17), 3);
    }

    #[test]
    fn scan_step_computes_inclusive_prefix_sums() {
        let mut pram = Pram::new(8);
        pram.memory_mut().load(0, &[1, 2, 3, 4]);
        let total = pram.scan_step(0, 4);
        assert_eq!(total, 10);
        assert_eq!(pram.memory().dump(0, 4), vec![1, 3, 6, 10]);
        assert_eq!(pram.trace().time(CostModel::ScanSimdQrqw), 1);
        assert_eq!(pram.trace().time(CostModel::Qrqw), 2); // ceil(lg 4)
    }

    #[test]
    fn scan_step_treats_empty_as_zero() {
        let mut pram = Pram::new(4);
        pram.memory_mut().poke(1, 5);
        let total = pram.scan_step(0, 4);
        assert_eq!(total, 5);
        assert_eq!(pram.memory().dump(0, 4), vec![0, 5, 5, 5]);
    }

    #[test]
    fn global_or_step_detects_any_nonzero() {
        let mut pram = Pram::new(8);
        assert!(!pram.global_or_step(0, 8));
        pram.memory_mut().poke(5, 1);
        assert!(pram.global_or_step(0, 8));
    }

    #[test]
    fn global_or_step_charges_only_examined_cells_as_work() {
        let mut pram = Pram::new(8);
        pram.memory_mut().poke(0, 1);
        assert!(pram.global_or_step(0, 8));
        let s = pram.trace().step_stats()[0];
        // short-circuits on the first cell: one read of work...
        assert_eq!(s.total_reads, 1);
        assert_eq!(s.active_procs, 1);
        // ...but still a full-width reduction for the time charge.
        assert_eq!(s.scan_width, 8);
        assert_eq!(pram.trace().time(CostModel::Qrqw), 3); // ceil(lg 8)

        // an all-empty region examines every cell
        let mut pram = Pram::new(8);
        assert!(!pram.global_or_step(0, 8));
        assert_eq!(pram.trace().step_stats()[0].total_reads, 8);
    }

    #[test]
    fn take_trace_resets_but_preserves_memory() {
        let mut pram = Pram::new(4);
        pram.step(|s| s.par_for(0..4, |p, ctx| ctx.write(p, p as u64)));
        let t = pram.take_trace();
        assert_eq!(t.num_steps(), 1);
        assert_eq!(pram.trace().num_steps(), 0);
        assert_eq!(pram.memory().peek(3), 3);
        assert_eq!(pram.steps_executed(), 1);
    }

    #[test]
    fn alloc_and_release_behave_like_a_stack() {
        let mut pram = Pram::new(8);
        let a = pram.alloc(4);
        assert_eq!(a, 8);
        let b = pram.alloc(2);
        assert_eq!(b, 12);
        assert_eq!(pram.heap_top(), 14);
        pram.release_to(b);
        let c = pram.alloc(3);
        assert_eq!(c, 12);
        // freshly allocated cells are EMPTY even when reused
        assert!(pram.memory().dump(c, 3).iter().all(|&v| v == EMPTY));
        pram.release_to(a);
        assert_eq!(pram.heap_top(), 8);
        // ensure_memory pushes the high-water mark
        pram.ensure_memory(32);
        assert_eq!(pram.alloc(1), 32);
    }

    #[test]
    fn seq_step_reads_own_writes_within_the_step() {
        let mut pram = Pram::new(8);
        let observed = pram.seq_step(|ctx| {
            ctx.write(3, 41);
            let fresh = ctx.read(3);
            ctx.write(3, fresh + 1);
            ctx.read(3)
        });
        assert_eq!(observed, 42, "sequential reads must see same-step writes");
        assert_eq!(pram.memory().peek(3), 42);
        assert_eq!(pram.steps_executed(), 1);
    }

    #[test]
    fn seq_step_is_charged_as_one_serial_processor() {
        let mut pram = Pram::new(8);
        pram.seq_step(|ctx| {
            for i in 0..4 {
                let v = ctx.read(i);
                ctx.write(i, v.wrapping_add(1));
            }
            ctx.compute(2);
        });
        let s = pram.trace().step_stats()[0];
        assert_eq!(s.active_procs, 1);
        assert_eq!(s.total_reads, 4);
        assert_eq!(s.total_writes, 4);
        assert_eq!(s.total_computes, 2);
        assert_eq!(s.max_ops_per_proc, 10);
        assert_eq!(s.max_read_contention, 1);
        assert_eq!(pram.trace().time(CostModel::Qrqw), 10);
    }

    #[test]
    fn seq_step_draws_from_the_processor_zero_stream() {
        // A seq_step at step index t must draw the same numbers as processor
        // 0 of a parallel step at index t (the cross-backend RNG contract).
        let mut a = Pram::with_seed(8, 9);
        let seq_draw = a.seq_step(|ctx| ctx.random_index(1_000_000));
        let mut b = Pram::with_seed(8, 9);
        let par_draw = b.step(|s| s.par_map(0..1, |_p, ctx| ctx.random_index(1_000_000)))[0];
        assert_eq!(seq_draw, par_draw);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let run = |seed| {
            let mut pram = Pram::with_seed(64, seed);
            pram.step(|s| {
                s.par_for(0..64, |p, ctx| {
                    let target = ctx.random_index(64);
                    ctx.write(target, p as u64);
                });
            });
            pram.memory().dump(0, 64)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
