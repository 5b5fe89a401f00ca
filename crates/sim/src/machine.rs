//! The `Machine` backend API: one algorithm source, every machine.
//!
//! The paper evaluates its algorithms twice — analytically on the QRQW PRAM
//! cost model and empirically on a real machine (the MasPar Table II
//! experiment).  This module captures the *work–time presentation* those two
//! evaluations share as a trait, so an algorithm is written once and executed
//! on any substrate:
//!
//! * [`crate::Pram`] — the simulator: exact per-step traces, every cost
//!   model, deterministic write arbitration.  Built with
//!   [`crate::Pram::with_bsp`] it is also the batch-message BSP machine of
//!   Theorem 1.1: supersteps, messages and the heaviest h-relation counted
//!   next to the predicted bound ([`BspCost`]).  Its realized queues are
//!   the simulator's contention by construction.
//! * `NativeMachine` (crate `qrqw-exec`) — real threads and atomics:
//!   wall-clock time and contended-CAS counts, under either chunk
//!   schedule of its step pool.
//!
//! A [`Machine`] exposes synchronous data-parallel steps ([`Machine::par_map`]
//! / [`Machine::par_for`]), per-processor shared-memory access through
//! [`MachineProc`], the built-in scan and global-OR primitives of the MasPar
//! experiment, the cell-claiming protocol of Section 5.1 ([`Machine::claim`]),
//! a stack-style scratch allocator, and a [`CostReport`] summarising whatever
//! the backend can measure.
//!
//! # The backend contract
//!
//! Algorithms written against [`Machine`] may assume, and backends must
//! provide:
//!
//! 1. **Synchronous steps.**  All processors of a step complete before the
//!    next step begins.
//! 2. **Deterministic randomness.**  [`MachineProc::random_index`] draws from
//!    a stream derived from `(machine seed, step index, processor id)` via
//!    [`crate::rng::proc_rng`], identically on every backend.  Each
//!    [`Machine::par_map`] / [`Machine::par_for`] / [`Machine::seq_step`]
//!    call advances the step index by exactly 1, [`Machine::scan_step`] and
//!    [`Machine::global_or_step`] by 1, [`Machine::compact_step`] by 3,
//!    [`Machine::bitonic_segments`] by `L(L+1)/2` for segments of `2^L`
//!    cells, [`Machine::scan_tree`] by `2·lg w + 3` for `w` the length
//!    rounded up to a power of two, [`Machine::counting_pass`] by
//!    `2·lg w + 6` for `w` its count matrix rounded up likewise, and
//!    [`Machine::claim`] by 6 ([`ClaimMode::Exclusive`]) or 3
//!    ([`ClaimMode::Occupy`]) — the length of the simulated claiming
//!    protocol.  Backends that keep this contract give
//!    *identical* random choices to the same algorithm, which is what makes
//!    the cross-backend parity tests exact.
//! 3. **Step race freedom.**  Within one step, a location written by one
//!    processor must not be read or written by any other processor.  The
//!    simulator tolerates such races (snapshot reads, deterministic write
//!    arbitration) and its trace exposes them as write contention; a native
//!    backend runs steps as real concurrent loops, so racing writes are
//!    scheduler-ordered.  Cross-processor races are expressed through
//!    [`Machine::claim`], whose outcome is well-defined on both backends.
//!    (Concurrent *reads* of a location no processor writes in the step are
//!    always fine — that is the Q in QRQW.)  The arbitration the model
//!    backends apply is: **the lowest processor id wins a cell; among that
//!    processor's writes to it, the last in program order lands.**  The
//!    second half holds on every backend — a processor may overwrite its
//!    own cell within a step, as a native thread's later store does — and
//!    is not contention.
//! 4. **Claim semantics.**  [`ClaimMode::Exclusive`] is fully deterministic:
//!    an attempt succeeds iff it is the only live claim on its cell, so
//!    algorithms built on exclusive claims (e.g. random permutation) produce
//!    bit-identical output on every backend.  [`ClaimMode::Occupy`] hands
//!    each contested cell to exactly one live claimant — the **lowest
//!    claimant index**, on every backend: the simulator through its
//!    lowest-processor-id write arbitration, the native machines through a
//!    `fetch_min` bidding pass.  (The paper's model only requires an
//!    *arbitrary* winner; pinning the arbitration is what keeps retry
//!    trajectories, step counts and contention totals bit-identical across
//!    backends, schedules and thread counts.)

use std::time::Duration;

use crate::memory::EMPTY;

/// Collision-resolution flavour for [`Machine::claim`] (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimMode {
    /// Simultaneous claimants all fail and the cell stays empty (required by
    /// the random-permutation dart throwers, where letting an arbitration
    /// winner through would bias the permutation).  Deterministic on every
    /// backend.
    Exclusive,
    /// Exactly one of the simultaneous claimants succeeds and the cell keeps
    /// its tag (the flavour used by multiple compaction and hashing).  The
    /// lowest claimant index wins, on every backend.
    Occupy,
}

/// What one processor can do inside one step of a [`Machine`].
///
/// Object-safe so that algorithm closures are written once as
/// `Fn(usize, &mut dyn MachineProc)` and monomorphise over the machine, not
/// over the per-processor context.
pub trait MachineProc {
    /// The processor id this context belongs to.
    fn proc_id(&self) -> u64;

    /// Reads shared-memory location `addr`.  On the simulator this observes
    /// the snapshot from the start of the step; on a native backend it is an
    /// atomic load.  Under the step-race-freedom contract both return the
    /// value the location held when the step began.
    fn read(&mut self, addr: usize) -> u64;

    /// Writes `value` to shared-memory location `addr` (simulator: buffered
    /// to the end of the step; native: an atomic store).
    fn write(&mut self, addr: usize, value: u64);

    /// Charges `ops` local compute operations (a cost-accounting no-op on
    /// native backends).
    fn compute(&mut self, ops: u64);

    /// A uniform random index in `0..bound` from the deterministic
    /// per-`(seed, step, proc)` stream shared by all backends.
    fn random_index(&mut self, bound: usize) -> usize;
}

/// BSP-side measurements of a run, filled only by a [`crate::Pram`] built
/// with [`crate::Pram::with_bsp`].
///
/// Theorem 1.1 of the paper bounds the cost of emulating a QRQW PRAM
/// algorithm of time `t` on a standard BSP machine by `O(t · lg p)` — the
/// repository's formula charge is [`crate::bsp_emulation_time`].  The BSP
/// machine routes every step's read/write requests as messages, in batches
/// keyed by destination cell.  Supersteps, messages and the h-relation are
/// counted on the step's walk.  The queue-derived fields are not an independent
/// measurement: with same-processor combining the longest per-cell queue
/// *is* the Definition 2.1 contention, so `max_queue` and `measured_cost`
/// are the backend's own trace read as queues, and `measured_cost` equals
/// that trace's QRQW time by construction.  Making it a measurement that
/// could exceed `predicted_cost` needs cells hashed to components and each
/// superstep charged `w + g·h + L`, which no backend does yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BspCost {
    /// Number of BSP components (`p` in the Theorem 1.1 bound).
    pub components: u64,
    /// Supersteps executed (each ends in a barrier; a step with reads costs
    /// a request and a reply superstep, one with writes a delivery
    /// superstep, and the built-in scan/OR primitives one per tree level).
    pub supersteps: u64,
    /// Messages routed (read requests count twice: request + reply).
    pub messages: u64,
    /// Longest per-cell message queue in any step: the largest contention
    /// of the backend's trace (0 for a run of empty steps).
    pub max_queue: u64,
    /// Largest number of messages routed through one component in any
    /// superstep — the `h` of the costliest realized h-relation.
    pub max_h_relation: u64,
    /// Emulation cost as the sum over steps of `max(local ops, longest
    /// queue)` in h-relation units (barrier latency is visible in
    /// `supersteps`, not folded in here) — the backend's trace time under
    /// [`crate::CostModel::Qrqw`], by construction.
    pub measured_cost: u64,
    /// The Theorem 1.1 formula bound for the same run:
    /// `charged QRQW time · ⌈lg components⌉`.
    pub predicted_cost: u64,
}

/// What an execution cost on whichever backend ran it.
///
/// The simulator fills the model-side fields from its exact trace and leaves
/// wall-clock as host time; a native backend has no trace, so the model-side
/// fields are `None` and the measured fields are wall-clock time and
/// contended claims (its CAS-failure analogue of queue contention).  The
/// BSP backend additionally fills [`CostReport::bsp`] with its realized
/// superstep/message/queue measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostReport {
    /// Short backend name (`"sim"`, `"native"`, `"native-steal"`,
    /// `"bsp"`).
    pub backend: &'static str,
    /// Synchronous steps executed (identical across backends for the same
    /// algorithm, seed and input — see the backend contract).
    pub steps: u64,
    /// Host wall-clock time since the machine was created.
    pub wall: Duration,
    /// Live claim attempts submitted through [`Machine::claim`].
    pub claim_attempts: u64,
    /// Live claim attempts that failed because of a same-step collision —
    /// the cross-backend contention measure (simulator: collision-set
    /// members; native: lost or poisoned CAS claims).
    pub contended_claims: u64,
    /// Total accounted operations (simulator only).
    pub work: Option<u64>,
    /// Largest per-step contention (simulator only).
    pub max_contention: Option<u64>,
    /// Running time under the QRQW metric (simulator only).
    pub time_qrqw: Option<u64>,
    /// Measured BSP emulation quantities (BSP backend only).
    pub bsp: Option<BspCost>,
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] steps={} wall={:.3}ms claims={} contended={}",
            self.backend,
            self.steps,
            self.wall.as_secs_f64() * 1e3,
            self.claim_attempts,
            self.contended_claims,
        )?;
        if let (Some(w), Some(k), Some(t)) = (self.work, self.max_contention, self.time_qrqw) {
            write!(f, " work={w} max_cont={k} t_qrqw={t}")?;
        }
        if let Some(b) = &self.bsp {
            write!(
                f,
                " supersteps={} msgs={} max_q={} max_h={} measured={} predicted={}",
                b.supersteps,
                b.messages,
                b.max_queue,
                b.max_h_relation,
                b.measured_cost,
                b.predicted_cost,
            )?;
        }
        Ok(())
    }
}

/// An execution substrate for algorithms in the work–time presentation.
///
/// See the [module documentation](self) for the contract backends must keep.
pub trait Machine {
    /// Creates a machine with `mem_size` cells of shared memory (all
    /// [`crate::EMPTY`]) and the given master random seed.
    fn with_seed(mem_size: usize, seed: u64) -> Self
    where
        Self: Sized;

    /// Short backend name (`"sim"`, `"native"`, `"native-steal"`,
    /// `"bsp"`).
    fn backend(&self) -> &'static str;

    /// The master random seed of this run.
    fn seed(&self) -> u64;

    /// Synchronous steps executed so far (the step index of the next step).
    fn steps_executed(&self) -> u64;

    /// Grows shared memory to at least `size` cells and moves the scratch
    /// allocator's high-water mark past them.
    fn ensure_memory(&mut self, size: usize);

    /// Allocates `len` fresh [`crate::EMPTY`]-initialised cells past every
    /// previous allocation and returns their base address (stack
    /// discipline; pair with [`Machine::release_to`]).
    fn alloc(&mut self, len: usize) -> usize;

    /// Releases every allocation made at or after `base`.
    fn release_to(&mut self, base: usize);

    /// The scratch allocator's current high-water mark.
    fn heap_top(&self) -> usize;

    /// Host-side bulk load of input data (un-accounted).
    fn load(&mut self, base: usize, values: &[u64]);

    /// Host-side bulk read-back of results (un-accounted).
    fn dump(&self, base: usize, len: usize) -> Vec<u64>;

    /// Host-side single-cell read (un-accounted).
    fn peek(&self, addr: usize) -> u64;

    /// Host-side single-cell write (un-accounted).
    fn poke(&mut self, addr: usize, value: u64);

    /// Host-side reset of a region to [`crate::EMPTY`] (un-accounted).
    fn clear_region(&mut self, base: usize, len: usize);

    /// Executes one synchronous step with processors `0..procs`, collecting
    /// each processor's result in processor order.
    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync;

    /// Executes one synchronous step with processors `0..procs` for side
    /// effects only.
    fn par_for<F>(&mut self, procs: usize, f: F)
    where
        F: Fn(usize, &mut dyn MachineProc) + Sync,
    {
        let _ = self.par_map(procs, |p, ctx| f(p, ctx));
    }

    /// Executes one *sequential* step: a single processor (id 0) runs `f`
    /// and — unlike inside [`Machine::par_map`], whose reads observe the
    /// memory as of the start of the step — its reads see its **own earlier
    /// writes within the same step** on every backend.
    ///
    /// This is the primitive for the sequential Las-Vegas clean-up passes
    /// (e.g. the dead-with-high-probability tails of the dart-throwing
    /// algorithms), which walk an array writing into free cells and must
    /// observe those writes immediately to stay correct.  Expressing them
    /// through `par_map(1, …)` used to be a latent sim-vs-native divergence:
    /// the simulator's snapshot reads would return stale values that a
    /// native thread sees fresh.
    ///
    /// Advances the step index by exactly 1; the processor draws from the
    /// same `(seed, step, 0)` random stream as processor 0 of a parallel
    /// step, so sequential steps preserve cross-backend RNG parity.
    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T;

    /// Built-in inclusive prefix sums over `[base, base+len)` ([`crate::EMPTY`]
    /// counts as zero), returning the total — the MasPar `enumerate`/`scan`
    /// primitive.  Advances the step index by 1.
    fn scan_step(&mut self, base: usize, len: usize) -> u64;

    /// Built-in global OR over `[base, base+len)` — the MasPar `globalor`
    /// primitive.  True iff any cell is non-zero and non-[`crate::EMPTY`].
    /// Advances the step index by 1.
    fn global_or_step(&mut self, base: usize, len: usize) -> bool;

    /// Compacts the non-[`crate::EMPTY`] cells of `[src, src+len)` to the
    /// front of `[dst, dst+len)` in their original order, returning how
    /// many there were.  `src` and `dst` must not overlap.  Memory is
    /// ensured up to `dst + count` (the survivor count), not `dst + len` —
    /// a caller that knows its survivor count may allocate exactly that.
    ///
    /// The default implementation is the canonical EREW-legal route — flag
    /// write, one [`Machine::scan_step`], rank gather — and is what the
    /// simulator charges; it advances the step index by exactly 3 and
    /// draws no randomness, and any override must do the same (the native
    /// backend fuses the passes into two block sweeps over reused scratch,
    /// with identical observable results).
    ///
    /// ```
    /// use qrqw_sim::{Machine, Pram, EMPTY};
    ///
    /// let mut m = Pram::with_seed(16, 0);
    /// // A sparse region: survivors 5 and 9 amid EMPTY cells.
    /// m.poke(1, 5);
    /// m.poke(3, 9);
    /// let count = m.compact_step(0, 8, 8);
    /// assert_eq!(count, 2);
    /// assert_eq!(m.dump(8, 2), vec![5, 9]); // original order preserved
    /// assert_eq!(m.steps_executed(), 3);    // the charged 3-step route
    /// ```
    fn compact_step(&mut self, src: usize, len: usize, dst: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.ensure_memory(src + len);
        let top = self.heap_top();
        // The flags sit at the allocation top, unless the destination
        // starts there: then past it, so that no processor's gather write
        // lands on a flag another one reads in the same step.  Every flag
        // is written before it is read, so the cells need no clearing.
        let flags = if dst >= top {
            self.ensure_memory(dst + 2 * len);
            dst + len
        } else {
            self.alloc(len)
        };
        self.par_for(len, |i, ctx| {
            let v = ctx.read(src + i);
            ctx.write(flags + i, (v != EMPTY) as u64);
        });
        // In-place inclusive scan: a surviving cell's destination is its
        // exclusive rank, i.e. the inclusive count one cell to the left
        // (0 for the first cell).  Each flag cell is read by exactly one
        // processor in the gather, so the pass stays EREW-legal.
        let count = self.scan_step(flags, len);
        self.ensure_memory(dst + count as usize);
        self.par_for(len, |i, ctx| {
            let v = ctx.read(src + i);
            if v != EMPTY {
                let pos = if i == 0 {
                    0
                } else {
                    ctx.read(flags + i - 1) as usize
                };
                ctx.write(dst + pos, v);
            }
        });
        self.release_to(top);
        count
    }

    /// Runs Batcher's bitonic sorting network over `num_segs` adjacent
    /// segments `[base + s*seg_size, base + (s+1)*seg_size)` at once,
    /// leaving each sorted ascending.  `seg_size` must be a power of two.
    ///
    /// The default implementation is the canonical EREW-legal route — one
    /// [`Machine::par_for`] per compare–exchange stage, each across all
    /// segments — and is what the model backends charge.  With
    /// `L = lg seg_size` it advances the step index by exactly
    /// `L(L+1)/2` (0 when `seg_size <= 1` or `num_segs == 0`) and draws
    /// no randomness; any override must do the same and leave memory
    /// bit-identical to the stage route (the native backend runs the
    /// stages cache-blocked, one pass per block).
    ///
    /// ```
    /// use qrqw_sim::{Machine, Pram};
    ///
    /// let mut m = Pram::with_seed(8, 0);
    /// m.load(0, &[4, 1, 3, 2, 9, 7, 8, 6]);
    /// m.bitonic_segments(0, 4, 2);
    /// assert_eq!(m.dump(0, 8), vec![1, 2, 3, 4, 6, 7, 8, 9]);
    /// assert_eq!(m.steps_executed(), 3); // L = 2: L(L+1)/2 stages
    /// ```
    fn bitonic_segments(&mut self, base: usize, seg_size: usize, num_segs: usize) {
        if seg_size <= 1 || num_segs == 0 {
            return;
        }
        assert!(
            seg_size.is_power_of_two(),
            "segment size must be a power of two"
        );
        self.ensure_memory(base + seg_size * num_segs);
        let total = seg_size * num_segs;
        // `seg_size` is a power of two: a mask splits the global index, no
        // run-time division per processor.
        let in_seg = seg_size - 1;
        let mut k = 2usize;
        while k <= seg_size {
            let mut j = k / 2;
            while j >= 1 {
                self.par_for(total, |g, ctx| {
                    let i = g & in_seg;
                    let l = i ^ j;
                    if l <= i {
                        return;
                    }
                    let off = base + (g - i);
                    let a = ctx.read(off + i);
                    let b = ctx.read(off + l);
                    let ascending = (i & k) == 0;
                    let out_of_order = if ascending { a > b } else { a < b };
                    if out_of_order {
                        ctx.write(off + i, b);
                        ctx.write(off + l, a);
                    }
                });
                j /= 2;
            }
            k *= 2;
        }
    }

    /// Replaces `[base, base+len)` by its exclusive prefix sums — inclusive
    /// when `inclusive` — and returns the total; [`crate::EMPTY`] cells
    /// count as zero.
    ///
    /// The default implementation is the canonical EREW-legal route, the
    /// work-optimal Blelloch tree over `w = len.next_power_of_two()` cells
    /// of scratch: a copy in, `lg w` up-sweep levels, a root clear, `lg w`
    /// down-sweep levels and a write-back, one [`Machine::par_for`] each.
    /// It is what the model backends charge.  It advances the step index
    /// by exactly `2·lg w + 3` (0 when `len == 0`) and draws no
    /// randomness; any override must do the same, return the same total
    /// and leave the same `heap_top` and live memory (the native backend
    /// runs one blocked scan: block sums, a serial scan of the block
    /// offsets, a fill).
    ///
    /// ```
    /// use qrqw_sim::{Machine, Pram, EMPTY};
    ///
    /// let mut m = Pram::with_seed(8, 0);
    /// m.load(0, &[3, 1, EMPTY, 4, 1]);
    /// assert_eq!(m.scan_tree(0, 5, false), 9);
    /// assert_eq!(m.dump(0, 5), vec![0, 3, 4, 4, 8]); // exclusive ranks
    /// assert_eq!(m.steps_executed(), 9);             // w = 8: 2·3 + 3
    /// ```
    fn scan_tree(&mut self, base: usize, len: usize, inclusive: bool) -> u64 {
        if len == 0 {
            return 0;
        }
        let width = len.next_power_of_two();
        let w = self.alloc(width);

        // Copy the input into the scratch tree (EMPTY -> 0; cells past `len`
        // are already EMPTY and become 0).
        self.par_for(width, |i, ctx| {
            let v = if i < len { ctx.read(base + i) } else { EMPTY };
            ctx.write(w + i, if v == EMPTY { 0 } else { v });
        });

        // Up-sweep.
        let levels = width.trailing_zeros() as usize;
        for d in 0..levels {
            let stride = 1usize << (d + 1);
            let half = 1usize << d;
            self.par_for(width / stride, |i, ctx| {
                let left = w + i * stride + half - 1;
                let right = w + i * stride + stride - 1;
                let a = ctx.read(left);
                let b = ctx.read(right);
                ctx.write(right, a + b);
            });
        }
        let total = self.peek(w + width - 1);

        // Down-sweep: clear the root, then push partial sums down.
        self.par_for(1, |_i, ctx| ctx.write(w + width - 1, 0));
        for d in (0..levels).rev() {
            let stride = 1usize << (d + 1);
            let half = 1usize << d;
            self.par_for(width / stride, |i, ctx| {
                let left = w + i * stride + half - 1;
                let right = w + i * stride + stride - 1;
                let a = ctx.read(left);
                let b = ctx.read(right);
                ctx.write(left, b);
                ctx.write(right, a + b);
            });
        }

        // Write the result back into the caller's region.
        self.par_for(len, |i, ctx| {
            let excl = ctx.read(w + i);
            if inclusive {
                let orig = ctx.read(base + i);
                let orig = if orig == EMPTY { 0 } else { orig };
                ctx.write(base + i, excl + orig);
            } else {
                ctx.write(base + i, excl);
            }
        });

        self.release_to(w);
        total
    }

    /// One stable counting-sort pass over `[base, base+n)` — the Fact 4.3
    /// routine of the paper — ordering the words by
    /// `bucket_of(word) ∈ [0, num_buckets)`.
    ///
    /// The default implementation is the canonical EREW-legal route and
    /// is what the model backends charge.  Every group processor counts
    /// its `g = max(num_buckets, ⌈lg n⌉, 1)` words sequentially and
    /// publishes its column of the key-major count matrix;
    /// [`Machine::scan_tree`] turns the matrix into output ranks; every
    /// group processor copies its words to their ranks in a scratch
    /// region; a last step copies them back.  That is `O(g + lg n)` time
    /// and `O(n)` work.  With `w = next_pow2(num_buckets · ⌈n/g⌉)` it
    /// advances the step index by exactly `2·lg w + 6` (0 when `n <= 1`)
    /// and draws no randomness.  Any override must do the same, panic on
    /// a bucket out of range, and leave the same `heap_top` and live
    /// memory (the native backend runs per-block histograms, a serial
    /// bucket-major scan of the block offsets, a stable scatter and a copy
    /// back as one pool dispatch).
    ///
    /// ```
    /// use qrqw_sim::{Machine, Pram};
    ///
    /// let mut m = Pram::with_seed(8, 0);
    /// m.load(0, &[21, 10, 20, 11, 12]);
    /// m.counting_pass(0, 5, 3, |w| w / 10); // by the tens digit
    /// assert_eq!(m.dump(0, 5), vec![10, 11, 12, 21, 20]); // stable
    /// // g = 3 gives two groups, so w = next_pow2(3 · 2) = 8: 2·3 + 6.
    /// assert_eq!(m.steps_executed(), 12);
    /// ```
    fn counting_pass<F>(&mut self, base: usize, n: usize, num_buckets: usize, bucket_of: F)
    where
        F: Fn(u64) -> u64 + Sync,
    {
        if n <= 1 {
            return;
        }
        assert!(num_buckets >= 1);
        self.ensure_memory(base + n);
        let lg_n = crate::schedule::ceil_lg(n as u64) as usize;
        let g = num_buckets.max(lg_n).max(1);
        let p = n.div_ceil(g);

        let counts = self.alloc(num_buckets * p); // N[key * p + group]
        let out = self.alloc(n);

        // Pass 1: every group processor counts its keys and publishes its column
        // of the count matrix (zero counts are simply left EMPTY, which the
        // prefix-sums routine treats as zero).
        let bucket_of = &bucket_of;
        self.par_for(p, |j, ctx| {
            let lo = j * g;
            let hi = ((j + 1) * g).min(n);
            let mut local = vec![0u64; num_buckets];
            for i in lo..hi {
                let w = ctx.read(base + i);
                let b = bucket_of(w) as usize;
                assert!(b < num_buckets, "bucket {b} out of range {num_buckets}");
                local[b] += 1;
                ctx.compute(1);
            }
            for (b, &c) in local.iter().enumerate() {
                if c > 0 {
                    ctx.write(counts + b * p + j, c);
                }
            }
        });

        // Pass 2: exclusive prefix sums over the count matrix in row-major
        // (key-major) order give every (key, group) its starting output rank.
        self.scan_tree(counts, num_buckets * p, false);

        // Pass 3: every group processor re-reads its keys and copies them to
        // their global ranks (distinct ranks, so the writes are exclusive).
        self.par_for(p, |j, ctx| {
            let lo = j * g;
            let hi = ((j + 1) * g).min(n);
            let mut next = vec![u64::MAX; num_buckets];
            for i in lo..hi {
                let w = ctx.read(base + i);
                let b = bucket_of(w) as usize;
                if next[b] == u64::MAX {
                    let start = ctx.read(counts + b * p + j);
                    next[b] = if start == EMPTY { 0 } else { start };
                }
                ctx.write(out + next[b] as usize, w);
                next[b] += 1;
                ctx.compute(1);
            }
        });

        // Pass 4: copy the sorted sequence back to the caller's region.
        self.par_for(n, |i, ctx| {
            let w = ctx.read(out + i);
            ctx.write(base + i, w);
        });

        self.release_to(counts);
    }

    /// Executes the cell-claiming protocol of Section 5.1:
    /// `attempts[i] = (tag, target)` asks to claim cell `target` with the
    /// unique non-[`crate::EMPTY`] value `tag`; returns which attempts
    /// succeeded.  Successful claims leave their tag in the cell; in
    /// [`ClaimMode::Exclusive`] contested cells are restored to empty, in
    /// [`ClaimMode::Occupy`] exactly one contender keeps the cell.
    /// Advances the step index by 6 (Exclusive) or 3 (Occupy).
    ///
    /// ```
    /// use qrqw_sim::{ClaimMode, Machine, Pram, EMPTY};
    ///
    /// let mut m = Pram::with_seed(16, 0);
    /// // Two darts collide on cell 4; a third claims cell 6 alone.
    /// let ok = m.claim(&[(1, 4), (2, 4), (3, 6)], ClaimMode::Exclusive);
    /// assert_eq!(ok, vec![false, false, true]);
    /// assert_eq!(m.peek(4), EMPTY); // contested cell restored
    /// assert_eq!(m.peek(6), 3);     // uncontested tag sticks
    /// assert_eq!(m.steps_executed(), 6);
    ///
    /// // Occupy mode instead hands the contested cell to exactly one winner.
    /// let mut m = Pram::with_seed(16, 0);
    /// let ok = m.claim(&[(1, 4), (2, 4)], ClaimMode::Occupy);
    /// assert_eq!(ok.iter().filter(|&&won| won).count(), 1);
    /// assert_ne!(m.peek(4), EMPTY);
    /// ```
    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool>;

    /// Whatever this backend can measure about the run so far.
    fn cost_report(&self) -> CostReport;
}

/// The Section 5.1 cell-claiming protocol written out as six (Exclusive)
/// or three (Occupy) ordinary [`Machine::par_map`] / [`Machine::par_for`]
/// steps — the [`Machine::claim`] of every backend whose concurrent writes
/// are arbitrated lowest-processor-id-first (the simulator, with or
/// without its BSP bookkeeping).  Returns the
/// success vector plus `(live attempts, contended attempts)` for the
/// caller's own counters.
pub fn claim_by_steps<M: Machine>(
    m: &mut M,
    attempts: &[(u64, usize)],
    mode: ClaimMode,
) -> (Vec<bool>, u64, u64) {
    let k = attempts.len();
    debug_assert!(
        attempts.iter().all(|&(tag, _)| tag != EMPTY),
        "claim tags must differ from EMPTY"
    );
    let Some(max_addr) = attempts.iter().map(|&(_, a)| a).max() else {
        return (Vec::new(), 0, 0);
    };
    m.ensure_memory(max_addr + 1);

    // S1: probe — an already-occupied cell rejects the claim outright.
    let live: Vec<bool> = m.par_map(k, |i, ctx| ctx.read(attempts[i].1) == EMPTY);

    // S2: live claimants write their tag; the number of tags landing on one
    // cell here *is* the contention of the claim.
    m.par_for(k, |i, ctx| {
        if live[i] {
            ctx.write(attempts[i].1, attempts[i].0);
        }
    });

    // S3: live claimants read back; holding one's own tag makes one the
    // tentative winner of the cell.
    let tentative: Vec<bool> = m.par_map(k, |i, ctx| {
        live[i] && ctx.read(attempts[i].1) == attempts[i].0
    });

    let success = match mode {
        ClaimMode::Occupy => tentative,
        ClaimMode::Exclusive => {
            // S4: the losers of a collision re-write their tag, poisoning
            // the cell so the tentative winner can detect contestation.
            m.par_for(k, |i, ctx| {
                if live[i] && !tentative[i] {
                    ctx.write(attempts[i].1, attempts[i].0);
                }
            });
            // S5: tentative winners re-read; an unchanged cell means the
            // claim was uncontested.
            let success: Vec<bool> = m.par_map(k, |i, ctx| {
                tentative[i] && ctx.read(attempts[i].1) == attempts[i].0
            });
            // S6: contested cells are restored to empty.
            m.par_for(k, |i, ctx| {
                if live[i] && !success[i] {
                    ctx.write(attempts[i].1, EMPTY);
                }
            });
            success
        }
    };

    let live_total = live.iter().filter(|&&l| l).count() as u64;
    let contended = live
        .iter()
        .zip(&success)
        .filter(|&(&l, &won)| l && !won)
        .count() as u64;
    (success, live_total, contended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Pram};

    /// A tiny algorithm written only against the trait, exercised on the
    /// simulator backend.
    fn double_region<M: Machine>(m: &mut M, base: usize, len: usize) {
        m.par_for(len, |i, ctx| {
            let v = ctx.read(base + i);
            ctx.write(base + i, v * 2);
        });
    }

    #[test]
    fn pram_runs_trait_generic_code() {
        let mut m = Pram::with_seed(8, 0);
        Machine::load(&mut m, 0, &[1, 2, 3, 4]);
        double_region(&mut m, 0, 4);
        assert_eq!(Machine::dump(&m, 0, 4), vec![2, 4, 6, 8]);
        assert_eq!(m.backend(), "sim");
        assert_eq!(Machine::steps_executed(&m), 1);
    }

    #[test]
    fn trait_claim_matches_protocol_semantics() {
        let mut m = Pram::with_seed(16, 0);
        let ok = Machine::claim(&mut m, &[(1, 4), (2, 4), (3, 6)], ClaimMode::Exclusive);
        assert_eq!(ok, vec![false, false, true]);
        assert_eq!(Machine::peek(&m, 4), EMPTY);
        assert_eq!(Machine::peek(&m, 6), 3);
        // exclusive protocol = 6 steps
        assert_eq!(Machine::steps_executed(&m), 6);
        let report = m.cost_report();
        assert_eq!(report.claim_attempts, 3);
        assert_eq!(report.contended_claims, 2);
    }

    #[test]
    fn trait_occupy_claim_advances_three_steps() {
        let mut m = Pram::with_seed(16, 0);
        let ok = Machine::claim(&mut m, &[(1, 4), (2, 4)], ClaimMode::Occupy);
        assert_eq!(ok.iter().filter(|&&b| b).count(), 1);
        assert_eq!(Machine::steps_executed(&m), 3);
    }

    #[test]
    fn cost_report_exposes_trace_quantities() {
        let mut m = Pram::with_seed(8, 0);
        Machine::load(&mut m, 0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        double_region(&mut m, 0, 8);
        let r = m.cost_report();
        assert_eq!(r.backend, "sim");
        assert_eq!(r.steps, 1);
        assert_eq!(r.work, Some(16));
        assert_eq!(r.time_qrqw, Some(m.trace().time(CostModel::Qrqw)));
        assert!(r.to_string().contains("[sim]"));
    }

    #[test]
    fn scan_and_global_or_through_trait() {
        let mut m = Pram::with_seed(8, 0);
        Machine::load(&mut m, 0, &[1, 2, 3]);
        assert_eq!(Machine::scan_step(&mut m, 0, 3), 6);
        assert!(Machine::global_or_step(&mut m, 0, 3));
    }
}
