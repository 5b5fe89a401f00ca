//! The PRAM driver: shared memory + step execution + trace accumulation.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::bsp::Bsp;
use crate::machine::{claim_by_steps, ClaimMode, CostReport, Machine, MachineProc};
use crate::memory::{SharedMemory, EMPTY};
use crate::rng::proc_rng;
use crate::stats::{StepStats, Trace};
use crate::step::{launch, StepScratch};
use crate::CostModel;

/// A simulated PRAM: shared memory, a master random seed, and the trace of
/// every step executed so far.
///
/// It is driven through [`Machine`], like every backend.  The same simulated
/// execution can afterwards be costed under any [`crate::CostModel`] via
/// [`Pram::trace`].
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
    /// The BSP bookkeeping of a [`Pram::with_bsp`] machine.
    bsp: Option<Box<Bsp>>,
}

impl Pram {
    /// Creates a PRAM with `mem_size` cells of shared memory (all
    /// [`crate::EMPTY`]) and seed 0.
    pub fn new(mem_size: usize) -> Self {
        Machine::with_seed(mem_size, 0)
    }

    /// Creates a PRAM with `mem_size` cells (all [`crate::EMPTY`]) that
    /// also runs as the batch-message BSP machine of Theorem 1.1: every
    /// step's walk counts its messages per component (1024 components,
    /// cells dealt cyclically), its launches and walk fan out over `threads`
    /// threads instead of the host's, and [`Machine::cost_report`] carries
    /// the BSP section ([`crate::BspCost`]) in place of the model-side
    /// fields, under the backend name `"bsp"`.  Results, trace and step
    /// counts are a plain `Pram`'s, at any thread count.
    pub fn with_bsp(mem_size: usize, seed: u64, threads: usize) -> Self {
        Pram {
            bsp: Some(Box::new(Bsp::new(threads))),
            ..Pram::with_seed(mem_size, seed)
        }
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Splits off the trace accumulated so far, resetting this PRAM's trace
    /// to empty (memory and step counter are preserved).  Useful for
    /// measuring individual phases of a larger algorithm.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Appends a step's statistics to the trace, books them on the BSP side
    /// if there is one, and advances the step index.
    fn push(&mut self, stats: StepStats) {
        if let Some(bsp) = &mut self.bsp {
            bsp.book(&stats);
        }
        self.trace.push(stats);
        self.steps_executed += 1;
    }
}

impl Machine for Pram {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
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
            bsp: None,
        }
    }

    fn backend(&self) -> &'static str {
        if self.bsp.is_some() {
            "bsp"
        } else {
            "sim"
        }
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    fn ensure_memory(&mut self, size: usize) {
        self.mem.ensure(size);
        self.heap_top = self.heap_top.max(size);
    }

    /// Allocation is a host-side bookkeeping convenience (PRAM algorithms
    /// are free to address any cell); it lets primitives obtain scratch
    /// space without clobbering their caller's arrays.
    fn alloc(&mut self, len: usize) -> usize {
        let base = self.heap_top;
        self.heap_top += len;
        // Cells `ensure` creates are EMPTY already; only the reused prefix
        // (released and re-allocated cells) needs clearing.
        let reused = self.mem.len().saturating_sub(base).min(len);
        self.mem.clear_region(base, reused);
        self.mem.ensure(self.heap_top);
        base
    }

    /// The cells remain addressable; only the allocator's high-water mark
    /// is rolled back so the space can be reused by later scratch
    /// allocations.
    fn release_to(&mut self, base: usize) {
        assert!(base <= self.heap_top, "release_to past the allocation top");
        self.heap_top = base;
    }

    fn heap_top(&self) -> usize {
        self.heap_top
    }

    fn load(&mut self, base: usize, values: &[u64]) {
        self.mem.load(base, values)
    }

    fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        self.mem.dump(base, len)
    }

    fn peek(&self, addr: usize) -> u64 {
        self.mem.peek(addr)
    }

    fn poke(&mut self, addr: usize, value: u64) {
        self.mem.poke(addr, value)
    }

    fn clear_region(&mut self, base: usize, len: usize) {
        self.mem.clear_region(base, len)
    }

    /// All reads observe the memory as it was when the step began; all
    /// writes take effect when the step ends (the lowest processor id wins
    /// a concurrently written cell, and its last write to it lands).  The
    /// step's statistics are appended to the trace.  Processors and the
    /// accounting walk fan out over the host's threads, or a
    /// [`Pram::with_bsp`] machine's own count, whose walk also reports
    /// every distinct `(cell, processor)` pair to the BSP sink.  Neither is
    /// observable in the step's results and statistics.
    ///
    /// # Panics
    ///
    /// If the memory has grown past `2^32` cells (the step accounting's
    /// address width).
    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        let threads = self
            .bsp
            .as_ref()
            .map_or_else(rayon::current_num_threads, |bsp| bsp.threads);
        let step_idx = self.steps_executed;
        self.scratch.begin_step(self.mem.len(), threads);
        let snapshot = self.mem.as_slice();
        let out = launch(
            &self.scratch,
            snapshot,
            self.seed,
            step_idx,
            0..procs,
            threads,
            f,
        );
        let cells = self.mem.as_mut_slice();
        let stats = match self.bsp.as_deref_mut() {
            // `()` counts nothing, so its partials are zero-sized and this
            // vector never allocates.
            None => self.scratch.finish(cells, &mut (), &mut Vec::new()),
            Some(bsp) => self
                .scratch
                .finish(cells, &mut bsp.delivery, &mut bsp.tallies),
        };
        self.push(stats);
        out
    }

    /// Runs `f` with write-through memory semantics — the behaviour a
    /// native thread gets for free and the snapshot reads of
    /// [`Machine::par_map`] deliberately forbid — and charges the step as
    /// the serial computation it is: one active processor whose time equals
    /// its total operation count, contention 1.
    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T,
    {
        let mut ctx = SeqProc {
            mem: &mut self.mem,
            seed: self.seed,
            step_idx: self.steps_executed,
            rng: None,
            reads: 0,
            writes: 0,
            computes: 0,
        };
        let result = f(&mut ctx);
        let (reads, writes, computes) = (ctx.reads, ctx.writes, ctx.computes);
        let ops = reads + writes + computes;
        self.push(StepStats {
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
        result
    }

    /// On the scan-SIMD-QRQW model this costs unit time; under every other
    /// model it is charged as the `⌈lg len⌉`-depth binary-tree computation
    /// it abbreviates (see [`crate::CostModel::step_time`]).
    fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        self.mem.ensure(base + len);
        let mut acc = 0u64;
        for cell in &mut self.mem.as_mut_slice()[base..base + len] {
            if *cell != EMPTY {
                acc += *cell;
            }
            *cell = acc;
        }
        self.push(StepStats {
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
        acc
    }

    /// Charged like a scan.
    fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        self.mem.ensure(base + len);
        let first = self.mem.as_slice()[base..base + len]
            .iter()
            .position(|&v| v != 0 && v != EMPTY);
        // Work reflects the cells actually inspected before the
        // short-circuit; the *time* charge keeps `scan_width = len` because
        // the machine primitive is a reduction tree over the whole region
        // regardless of where the first non-zero value sits.
        let examined = first.map_or(len, |i| i + 1) as u64;
        self.push(StepStats {
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
        first.is_some()
    }

    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        let (success, live, contended) = claim_by_steps(self, attempts, mode);
        self.claim_attempts += live;
        self.claim_failures += contended;
        success
    }

    /// A [`Pram::with_bsp`] machine reports its BSP section in place of
    /// the model-side fields.
    fn cost_report(&self) -> CostReport {
        let time_qrqw = self.trace.time(CostModel::Qrqw);
        let report = CostReport {
            backend: self.backend(),
            steps: self.steps_executed,
            wall: self.created.elapsed(),
            claim_attempts: self.claim_attempts,
            contended_claims: self.claim_failures,
            work: None,
            max_contention: None,
            time_qrqw: None,
            bsp: None,
        };
        match &self.bsp {
            None => CostReport {
                work: Some(self.trace.work()),
                max_contention: Some(self.trace.max_contention()),
                time_qrqw: Some(time_qrqw),
                ..report
            },
            Some(bsp) => CostReport {
                bsp: Some(bsp.cost(&self.trace, time_qrqw)),
                ..report
            },
        }
    }
}

/// The write-through per-processor context of [`Machine::seq_step`].
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

    #[test]
    fn writes_apply_at_end_of_step_with_lowest_id_winner() {
        let mut pram = Pram::new(4);
        pram.par_for(4, |p, ctx| ctx.write(0, 100 + p as u64));
        assert_eq!(pram.peek(0), 100);
        assert_eq!(pram.trace().step_stats()[0].max_write_contention, 4);
    }

    #[test]
    fn trace_accumulates_across_steps() {
        let n = 256;
        let mut pram = Pram::new(n);
        for _ in 0..3 {
            pram.par_for(n, |p, ctx| {
                let v = ctx.read(p);
                ctx.write(p, if v == EMPTY { 1 } else { v + 1 });
            });
        }
        assert_eq!(pram.steps_executed(), 3);
        assert_eq!(pram.trace().time(CostModel::Qrqw), 3);
        assert_eq!(pram.trace().work(), 3 * 2 * n as u64);
        assert_eq!(pram.peek(17), 3);
    }

    #[test]
    fn scan_step_computes_inclusive_prefix_sums() {
        let mut pram = Pram::new(8);
        pram.load(0, &[1, 2, 3, 4]);
        let total = pram.scan_step(0, 4);
        assert_eq!(total, 10);
        assert_eq!(pram.dump(0, 4), vec![1, 3, 6, 10]);
        assert_eq!(pram.trace().time(CostModel::ScanSimdQrqw), 1);
        assert_eq!(pram.trace().time(CostModel::Qrqw), 2); // ceil(lg 4)
    }

    #[test]
    fn scan_step_treats_empty_as_zero() {
        let mut pram = Pram::new(4);
        pram.poke(1, 5);
        let total = pram.scan_step(0, 4);
        assert_eq!(total, 5);
        assert_eq!(pram.dump(0, 4), vec![0, 5, 5, 5]);
    }

    #[test]
    fn global_or_step_detects_any_nonzero() {
        let mut pram = Pram::new(8);
        assert!(!pram.global_or_step(0, 8));
        pram.poke(5, 1);
        assert!(pram.global_or_step(0, 8));
    }

    #[test]
    fn global_or_step_charges_only_examined_cells_as_work() {
        let mut pram = Pram::new(8);
        pram.poke(0, 1);
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
        pram.par_for(4, |p, ctx| ctx.write(p, p as u64));
        let t = pram.take_trace();
        assert_eq!(t.num_steps(), 1);
        assert_eq!(pram.trace().num_steps(), 0);
        assert_eq!(pram.peek(3), 3);
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
        assert!(pram.dump(c, 3).iter().all(|&v| v == EMPTY));
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
        assert_eq!(pram.peek(3), 42);
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
        let par_draw = b.par_map(1, |_p, ctx| ctx.random_index(1_000_000))[0];
        assert_eq!(seq_draw, par_draw);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let run = |seed| {
            let mut pram = Pram::with_seed(64, seed);
            pram.par_for(64, |p, ctx| {
                let target = ctx.random_index(64);
                ctx.write(target, p as u64);
            });
            pram.dump(0, 64)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
