//! The `Machine` backend API: one algorithm source, every machine.
//!
//! The paper evaluates its algorithms twice — analytically on the QRQW PRAM
//! cost model and empirically on a real machine (the MasPar Table II
//! experiment).  This module captures the *work–time presentation* those two
//! evaluations share as a trait, so an algorithm is written once and executed
//! on any substrate:
//!
//! * [`crate::Pram`] — the simulator: exact per-step traces, every cost
//!   model, deterministic write arbitration.
//! * `NativeMachine` (crate `qrqw-exec`) — real threads and atomics:
//!   wall-clock time and contended-CAS counts, under either chunk
//!   schedule of its step pool.
//! * `BspMachine` (crate `qrqw-bsp`) — a [`crate::Pram`] whose parallel
//!   steps are routed as batch messages: supersteps, messages and the
//!   heaviest h-relation counted next to the Theorem 1.1 predicted bound
//!   ([`BspCost`]).  Its realized queues are the simulator's contention by
//!   construction.
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
//!    [`Machine::global_or_step`] by 1, and [`Machine::claim`] by 6
//!    ([`ClaimMode::Exclusive`]) or 3 ([`ClaimMode::Occupy`]) — the length of
//!    the simulated claiming protocol.  Backends that keep this contract give
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
use crate::pram::Pram;
use crate::step::ProcCtx;

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

impl MachineProc for ProcCtx<'_> {
    #[inline]
    fn proc_id(&self) -> u64 {
        ProcCtx::proc_id(self)
    }

    #[inline]
    fn read(&mut self, addr: usize) -> u64 {
        ProcCtx::read(self, addr)
    }

    #[inline]
    fn write(&mut self, addr: usize, value: u64) {
        ProcCtx::write(self, addr, value)
    }

    #[inline]
    fn compute(&mut self, ops: u64) {
        ProcCtx::compute(self, ops)
    }

    #[inline]
    fn random_index(&mut self, bound: usize) -> usize {
        ProcCtx::random_index(self, bound)
    }
}

/// BSP-side measurements of a run, filled only by a batch-message BSP
/// backend (crate `qrqw-bsp`).
///
/// Theorem 1.1 of the paper bounds the cost of emulating a QRQW PRAM
/// algorithm of time `t` on a standard BSP machine by `O(t · lg p)` — the
/// repository's formula charge is [`crate::bsp_emulation_time`].  A BSP
/// backend routes every step's read/write requests as messages, in batches
/// keyed by destination cell.  Supersteps, messages and the h-relation are
/// counted by its router.  The queue-derived fields are not an independent
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

impl BspCost {
    /// `predicted / measured` — how far the realized emulation stays below
    /// the worst-case formula charge (`None` when nothing was measured).
    pub fn headroom(&self) -> Option<f64> {
        (self.measured_cost > 0).then(|| self.predicted_cost as f64 / self.measured_cost as f64)
    }
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
        let flags = self.alloc(len);
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
        self.release_to(flags);
        count
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
/// are arbitrated lowest-processor-id-first (the simulator, and the BSP
/// backend built on it through [`crate::Pram::step_into`]).  Returns the
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

impl Machine for Pram {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        Pram::with_seed(mem_size, seed)
    }

    fn backend(&self) -> &'static str {
        "sim"
    }

    fn seed(&self) -> u64 {
        Pram::seed(self)
    }

    fn steps_executed(&self) -> u64 {
        Pram::steps_executed(self)
    }

    fn ensure_memory(&mut self, size: usize) {
        Pram::ensure_memory(self, size)
    }

    fn alloc(&mut self, len: usize) -> usize {
        Pram::alloc(self, len)
    }

    fn release_to(&mut self, base: usize) {
        Pram::release_to(self, base)
    }

    fn heap_top(&self) -> usize {
        Pram::heap_top(self)
    }

    fn load(&mut self, base: usize, values: &[u64]) {
        self.memory_mut().load(base, values)
    }

    fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        self.memory().dump(base, len)
    }

    fn peek(&self, addr: usize) -> u64 {
        self.memory().peek(addr)
    }

    fn poke(&mut self, addr: usize, value: u64) {
        self.memory_mut().poke(addr, value)
    }

    fn clear_region(&mut self, base: usize, len: usize) {
        self.memory_mut().clear_region(base, len)
    }

    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        self.step(|s| s.par_map(0..procs, |p, ctx| f(p, ctx)))
    }

    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T,
    {
        Pram::seq_step(self, f)
    }

    fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        Pram::scan_step(self, base, len)
    }

    fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        Pram::global_or_step(self, base, len)
    }

    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        let (success, live, contended) = claim_by_steps(self, attempts, mode);
        self.note_claims(live, contended);
        success
    }

    fn cost_report(&self) -> CostReport {
        let (claim_attempts, contended_claims) = self.claim_stats();
        CostReport {
            backend: "sim",
            steps: Pram::steps_executed(self),
            wall: self.wall_elapsed(),
            claim_attempts,
            contended_claims,
            work: Some(self.trace().work()),
            max_contention: Some(self.trace().max_contention()),
            time_qrqw: Some(self.trace().time(crate::CostModel::Qrqw)),
            bsp: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

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
