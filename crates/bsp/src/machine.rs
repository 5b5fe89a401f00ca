//! [`BspMachine`]: the batch-message BSP implementation of the [`Machine`]
//! backend API.
//!
//! The other two backends *charge* contention (the simulator, by formula
//! over its exact trace) or *suffer* it (the native machine, as lost CAS
//! races).  This backend **measures** it: every [`Machine`] step runs as
//! BSP supersteps — a local-computation phase in which virtual processors
//! buffer their read/write requests as messages, then a routing phase
//! ([`crate::router`]) that walks the traffic in processor order, queues it
//! per destination cell and delivers it.  The longest queue any cell
//! accumulates is the
//! *realized* queue length of the step, recorded per step in
//! [`BspMachine::queue_profile`] and summed into
//! [`qrqw_sim::BspCost::measured_cost`]; the Theorem 1.1 formula bound for
//! the same run (`charged QRQW time · ⌈lg components⌉`, via
//! [`qrqw_sim::bsp_emulation_time`]) is reported next to it as
//! [`qrqw_sim::BspCost::predicted_cost`].
//!
//! # Keeping the backend contract
//!
//! * **Synchronous steps** — each routing phase is a barrier; writes are
//!   delivered only after every processor's compute phase finished, so
//!   reads observe the memory as of the start of the step (the simulator's
//!   snapshot semantics, which the step-race-freedom contract makes
//!   indistinguishable from the native backend's live reads).
//! * **Deterministic randomness** — processors draw from the shared
//!   [`qrqw_sim::proc_rng`] streams, and every operation advances the step
//!   index exactly as the contract prescribes ([`Machine::claim`] runs the
//!   Section 5.1 protocol as 6 (Exclusive) or 3 (Occupy) message steps of
//!   its own).
//! * **Claim semantics** — concurrent writes are arbitrated by the router:
//!   messages arrive in processor order, so the lowest processor id wins a
//!   cell — the simulator's rule, computed by the simulator's own walk.  Exclusive claims therefore
//!   succeed iff they are the unique live claimant — the same outcome the
//!   native CAS-plus-poison passes produce — and Occupy hands contested
//!   cells to the lowest-id claimant (a legal instance of the
//!   backend-defined "arbitrary" rule).
//! * **Thread-count invariance** — the compute phase fans out over the
//!   persistent worker pool ([`qrqw_exec::StepPool`], `QRQW_THREADS` /
//!   [`BspMachine::with_threads`]), each chunk buffering messages in its
//!   own [`qrqw_sim::ChunkLog`] through the simulator's per-processor
//!   context ([`qrqw_sim::ProcCtx`]: snapshot reads, writes held back until
//!   routing); the router walks each address range's part of the logs in
//!   processor order on its own worker, whatever order the chunks finished
//!   in, so chunk boundaries, the range cut and thread assignment are
//!   unobservable.
//!
//! Because routing arbitration coincides with the simulator's, a `BspMachine`
//! re-executes the simulator's exact trajectory for *every* algorithm in the
//! repository (occupy-based ones included), which is what makes the
//! measured-vs-charged comparison exact: the realized per-step queue can be
//! checked cell-for-cell against the contention the simulator charged for
//! the very same step (see `tests/theorem11.rs`).

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;
use rayon::pool::SendPtr;

use qrqw_exec::StepPool;
use qrqw_sim::{bsp_emulation_time, claim_by_steps, proc_rng, ProcCtx, StepScratch};
use qrqw_sim::{BspCost, ClaimMode, CostReport, Machine, MachineProc, EMPTY};

use crate::router::{RoutedStep, Router};

/// Environment variable overriding the number of BSP components (`p` in the
/// Theorem 1.1 bound).  Must be an integer ≥ 2 when set; anything else
/// makes machine construction panic — a mistyped override must never
/// silently report a `predicted_cost` at the wrong `⌈lg p⌉`.
pub const COMPONENTS_ENV: &str = "QRQW_BSP_COMPONENTS";

/// Default component count: `2^10`, giving the Theorem 1.1 formula its
/// `⌈lg p⌉ = 10` factor (the MasPar of the Section 5.2 experiment had
/// `2^14` processors; `p/lg p ≈ 2^10` components is the machine Theorem 1.1
/// would emulate it on).
pub const DEFAULT_COMPONENTS: u64 = 1024;

/// Running totals of the measured emulation (see [`BspCost`] for the
/// reported form).
#[derive(Debug, Default)]
struct BspStats {
    supersteps: u64,
    messages: u64,
    max_queue: u64,
    max_h_relation: u64,
    /// Σ over steps of `max(local ops, realized queue)` — what the routed
    /// supersteps actually cost in h-relation units.  In this router the
    /// realized queue coincides with the Definition 2.1 contention `κ`
    /// (one combined message per (cell, processor), drained one per
    /// cycle), so this sum equals the QRQW formula charge `Σ max(m, κ)` —
    /// an invariant this machine cannot check against itself; the
    /// independent anchor is the simulator's exact trace, which
    /// `tests/theorem11.rs` compares per step and in total.
    measured_cost: u64,
    /// Realized max queue length per [`Machine`] step, in step order (one
    /// entry per step-index advance, like the simulator's trace).
    queue_profile: Vec<u64>,
}

/// The batch-message BSP [`Machine`] backend.
pub struct BspMachine {
    cells: Vec<u64>,
    seed: u64,
    steps_executed: u64,
    heap_top: usize,
    created: Instant,
    pool: StepPool,
    components: u64,
    claim_attempts: u64,
    claim_failures: u64,
    stats: BspStats,
    scratch: StepScratch,
    router: Router,
}

impl BspMachine {
    /// Creates a machine with `mem_size` cells (all [`EMPTY`]) and seed 0.
    pub fn new(mem_size: usize) -> Self {
        Machine::with_seed(mem_size, 0)
    }

    /// Creates a machine with an explicit compute-phase thread count,
    /// overriding `QRQW_THREADS` / host parallelism.
    ///
    /// # Panics
    ///
    /// If [`COMPONENTS_ENV`] is set to anything but an integer ≥ 2 (as does
    /// [`Machine::with_seed`]).
    pub fn with_threads(mem_size: usize, seed: u64, threads: usize) -> Self {
        Self::build(
            mem_size,
            seed,
            StepPool::with_threads(threads),
            components_from_env(),
        )
    }

    /// Creates a machine with an explicit component count (`p` of the
    /// Theorem 1.1 bound; clamped to at least 2), overriding
    /// [`COMPONENTS_ENV`].
    pub fn with_components(mem_size: usize, seed: u64, components: u64) -> Self {
        Self::build(mem_size, seed, StepPool::from_env(), components.max(2))
    }

    fn build(mem_size: usize, seed: u64, pool: StepPool, components: u64) -> Self {
        BspMachine {
            cells: vec![EMPTY; mem_size],
            seed,
            steps_executed: 0,
            heap_top: mem_size,
            created: Instant::now(),
            pool,
            components,
            claim_attempts: 0,
            claim_failures: 0,
            stats: BspStats::default(),
            scratch: StepScratch::default(),
            router: Router::new(components as usize),
        }
    }

    /// Number of threads the compute phase fans out over.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of BSP components the router distributes cells over.
    pub fn components(&self) -> u64 {
        self.components
    }

    /// The realized max queue length of every [`Machine`] step so far, in
    /// step order — the measured counterpart of the simulator's
    /// `trace().contention_profile()`.
    pub fn queue_profile(&self) -> &[u64] {
        &self.stats.queue_profile
    }

    /// The measured emulation cost read as the QRQW charge it realizes —
    /// the `t` whose Theorem 1.1 bound is `t · ⌈lg components⌉`.  The
    /// router delivers every step at exactly its formula charge, so this
    /// must equal the simulator's `trace().time(CostModel::Qrqw)` for the
    /// same run — a cross-machine invariant only the simulator's
    /// independent trace can witness (pinned by `tests/theorem11.rs` and
    /// the `perf_report` validator, not by this machine's own counters).
    pub fn charged_qrqw_time(&self) -> u64 {
        self.stats.measured_cost
    }

    fn grow(&mut self, size: usize) {
        if self.cells.len() < size {
            self.cells.resize(size, EMPTY);
        }
    }

    /// Runs one message step: compute phase over the pool (processors
    /// buffer requests per chunk), routing phase (walk, measure, deliver),
    /// then the bookkeeping that one step-index advance owes the stats.
    fn exec_step<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        let step_idx = self.steps_executed;
        let seed = self.seed;
        let cells = &self.cells[..];
        // The routing walk fans out over as many threads as the compute
        // phase.
        self.scratch.begin_step(cells.len(), self.pool.threads());
        let scratch = &self.scratch;
        let mut out: Vec<T> = Vec::with_capacity(procs);
        let slots = SendPtr(out.as_mut_ptr());
        let slots = &slots;
        self.pool.dispatch(procs, 1, |lo, hi| {
            let mut log = scratch.take_log(lo);
            let mut ctx = ProcCtx::new(cells, seed, step_idx, &mut log);
            for p in lo..hi {
                ctx.begin(p as u64);
                let value = f(p, &mut ctx);
                // SAFETY: each index is written exactly once and chunks are
                // disjoint.
                unsafe { slots.0.add(p).write(value) };
                ctx.end();
            }
            scratch.put_log(log);
        });
        // SAFETY: the dispatch is a barrier, so all `procs` slots are
        // initialized; on a chunk panic it re-throws before here.
        unsafe { out.set_len(procs) };

        let (procs_stats, routed) = self.router.route(&mut self.scratch, &mut self.cells);
        self.record_message_step(
            &routed,
            procs_stats.active_procs,
            procs_stats.max_ops_per_proc,
        );
        self.steps_executed += 1;
        out
    }

    fn record_message_step(&mut self, routed: &RoutedStep, active: u64, m: u64) {
        let q = routed.max_queue();
        // Read traffic costs a request and a reply superstep, write traffic
        // a delivery superstep; even an all-compute step ends in a barrier.
        let supersteps =
            (2 * (routed.read_msgs > 0) as u64 + (routed.write_msgs > 0) as u64).max(1);
        self.stats.supersteps += supersteps;
        self.stats.messages += routed.messages();
        self.stats.max_queue = self.stats.max_queue.max(q);
        self.stats.max_h_relation = self.stats.max_h_relation.max(routed.max_h);
        if active > 0 {
            // The realized queues the router just drained.  Combining makes
            // the realized queue coincide with the Definition 2.1 κ, so this
            // is simultaneously the step's formula charge `max(m, κ)`; only
            // the simulator's independently computed trace can tell whether
            // the router still realizes that charge (tests/theorem11.rs).
            self.stats.measured_cost += m.max(q).max(1);
        }
        self.stats.queue_profile.push(q);
    }

    /// Records a built-in tree primitive (scan / global OR) of `width`
    /// leaves: `⌈lg width⌉` supersteps with unit queues (pairwise
    /// combining), `width` messages into the fabric — matching the
    /// `⌈lg width⌉` the simulator charges such a step.
    fn record_tree_step(&mut self, width: usize) {
        if width == 0 {
            self.stats.supersteps += 1;
            self.stats.queue_profile.push(0);
            return;
        }
        let depth = (64 - (width.max(2) as u64 - 1).leading_zeros()) as u64;
        self.stats.supersteps += depth;
        self.stats.messages += width as u64;
        self.stats.max_queue = self.stats.max_queue.max(1);
        self.stats.measured_cost += depth;
        self.stats.queue_profile.push(1);
    }
}

impl std::fmt::Debug for BspMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BspMachine")
            .field("cells", &self.cells.len())
            .field("seed", &self.seed)
            .field("steps_executed", &self.steps_executed)
            .field("heap_top", &self.heap_top)
            .field("threads", &self.pool.threads())
            .field("components", &self.components)
            .finish()
    }
}

/// The component count a raw `QRQW_BSP_COMPONENTS` value selects:
/// [`DEFAULT_COMPONENTS`] when unset, an error when set but not an integer
/// ≥ 2.
fn components_from_env_value(raw: Option<&str>) -> Result<u64, String> {
    match raw {
        None => Ok(DEFAULT_COMPONENTS),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(c) if c >= 2 => Ok(c),
            _ => Err(format!(
                "invalid {COMPONENTS_ENV}={v:?}: expected an integer >= 2"
            )),
        },
    }
}

fn components_from_env() -> u64 {
    let raw = std::env::var(COMPONENTS_ENV).ok();
    components_from_env_value(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Write-through context for [`Machine::seq_step`]: one processor on one
/// component, reads see its own same-step writes.
struct SeqBspProc<'a> {
    cells: &'a mut Vec<u64>,
    seed: u64,
    step_idx: u64,
    rng: Option<SmallRng>,
    reads: u64,
    writes: u64,
    computes: u64,
}

impl MachineProc for SeqBspProc<'_> {
    fn proc_id(&self) -> u64 {
        0
    }

    fn read(&mut self, addr: usize) -> u64 {
        assert!(
            addr < self.cells.len(),
            "read of address {addr} outside shared memory of size {}",
            self.cells.len()
        );
        self.reads += 1;
        self.cells[addr]
    }

    fn write(&mut self, addr: usize, value: u64) {
        assert!(
            addr < self.cells.len(),
            "write of address {addr} outside shared memory of size {}",
            self.cells.len()
        );
        self.writes += 1;
        self.cells[addr] = value;
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

impl Machine for BspMachine {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        Self::build(mem_size, seed, StepPool::from_env(), components_from_env())
    }

    fn backend(&self) -> &'static str {
        "bsp"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    fn ensure_memory(&mut self, size: usize) {
        self.grow(size);
        self.heap_top = self.heap_top.max(size);
    }

    fn alloc(&mut self, len: usize) -> usize {
        let base = self.heap_top;
        self.heap_top += len;
        let fresh_from = self.cells.len();
        self.grow(self.heap_top);
        // `grow` initializes everything past the old arena end to EMPTY;
        // only the reused prefix (released and re-allocated cells) needs an
        // explicit clear.
        if base < fresh_from {
            let reused = len.min(fresh_from - base);
            self.cells[base..base + reused].fill(EMPTY);
        }
        base
    }

    fn release_to(&mut self, base: usize) {
        assert!(base <= self.heap_top, "release_to past the allocation top");
        self.heap_top = base;
    }

    fn heap_top(&self) -> usize {
        self.heap_top
    }

    fn load(&mut self, base: usize, values: &[u64]) {
        self.grow(base + values.len());
        self.cells[base..base + values.len()].copy_from_slice(values);
    }

    fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        self.cells[base..base + len].to_vec()
    }

    fn peek(&self, addr: usize) -> u64 {
        self.cells[addr]
    }

    fn poke(&mut self, addr: usize, value: u64) {
        self.cells[addr] = value;
    }

    fn clear_region(&mut self, base: usize, len: usize) {
        self.grow(base + len);
        self.cells[base..base + len].fill(EMPTY);
    }

    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        self.exec_step(procs, f)
    }

    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T,
    {
        let step_idx = self.steps_executed;
        let seed = self.seed;
        let mut ctx = SeqBspProc {
            cells: &mut self.cells,
            seed,
            step_idx,
            rng: None,
            reads: 0,
            writes: 0,
            computes: 0,
        };
        let result = f(&mut ctx);
        let (reads, writes, computes) = (ctx.reads, ctx.writes, ctx.computes);
        // One component working serially: every remote access is a message
        // with a queue of one, and the step costs its full operation count.
        let ops = reads + writes + computes;
        self.stats.supersteps += 1;
        self.stats.messages += reads + writes;
        let q = ((reads + writes) > 0) as u64;
        self.stats.max_queue = self.stats.max_queue.max(q);
        self.stats.measured_cost += ops;
        self.stats.queue_profile.push(q);
        self.steps_executed += 1;
        result
    }

    fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        self.grow(base + len);
        let mut acc = 0u64;
        for cell in &mut self.cells[base..base + len] {
            let v = if *cell == EMPTY { 0 } else { *cell };
            acc += v;
            *cell = acc;
        }
        self.record_tree_step(len);
        self.steps_executed += 1;
        acc
    }

    fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        self.grow(base + len);
        let any = self.cells[base..base + len]
            .iter()
            .any(|&v| v != 0 && v != EMPTY);
        self.record_tree_step(len);
        self.steps_executed += 1;
        any
    }

    /// The Section 5.1 protocol, step for step like the simulator
    /// ([`claim_by_steps`]), each pass a routed message step whose queues
    /// are measured — the longest S2 write batch *is* the realized
    /// contention of the claim.  The router's processor-order delivery is
    /// the simulator's lowest-id write arbitration.
    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        let (success, live, contended) = claim_by_steps(self, attempts, mode);
        self.claim_attempts += live;
        self.claim_failures += contended;
        success
    }

    fn cost_report(&self) -> CostReport {
        CostReport {
            backend: "bsp",
            steps: self.steps_executed,
            wall: self.created.elapsed(),
            claim_attempts: self.claim_attempts,
            contended_claims: self.claim_failures,
            work: None,
            max_contention: None,
            time_qrqw: None,
            bsp: Some(BspCost {
                components: self.components,
                supersteps: self.stats.supersteps,
                messages: self.stats.messages,
                max_queue: self.stats.max_queue,
                max_h_relation: self.stats.max_h_relation,
                measured_cost: self.stats.measured_cost,
                predicted_cost: bsp_emulation_time(self.stats.measured_cost, self.components),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;

    #[test]
    fn par_map_runs_all_processors_in_order() {
        let mut m = BspMachine::new(16);
        let out = m.par_map(5000, |p, ctx| {
            ctx.write(p % 16, p as u64);
            p * 2
        });
        assert_eq!(out.len(), 5000);
        assert_eq!(out[1234], 2468);
        assert_eq!(m.steps_executed, 1);
    }

    #[test]
    fn reads_observe_the_start_of_step_snapshot() {
        let mut m = BspMachine::new(8);
        Machine::poke(&mut m, 0, 7);
        let seen = m.par_map(4, |p, ctx| {
            ctx.write(0, 100 + p as u64);
            ctx.read(0)
        });
        assert_eq!(seen, vec![7; 4], "writes must not be visible mid-step");
        // delivery: lowest processor id wins the contested cell
        assert_eq!(Machine::peek(&m, 0), 100);
        assert_eq!(m.queue_profile(), &[4]);
    }

    #[test]
    fn exclusive_claim_is_deterministic_and_restores_contested_cells() {
        let mut m = BspMachine::new(8);
        let ok = m.claim(&[(1, 4), (2, 4), (3, 4), (4, 6)], ClaimMode::Exclusive);
        assert_eq!(ok, vec![false, false, false, true]);
        assert_eq!(Machine::peek(&m, 4), EMPTY, "contested cell restored");
        assert_eq!(Machine::peek(&m, 6), 4);
        assert_eq!(m.steps_executed, 6);
        let report = m.cost_report();
        assert_eq!(report.claim_attempts, 4);
        assert_eq!(report.contended_claims, 3);
        // the S2 write batch realizes the claim's contention: 3 tags on cell 4
        assert_eq!(m.queue_profile()[1], 3);
    }

    #[test]
    fn occupy_claim_hands_the_cell_to_the_lowest_claimant() {
        let mut m = BspMachine::new(8);
        let ok = m.claim(&[(10, 4), (11, 4), (12, 4)], ClaimMode::Occupy);
        assert_eq!(ok, vec![true, false, false]);
        assert_eq!(Machine::peek(&m, 4), 10);
        assert_eq!(m.steps_executed, 3);
    }

    #[test]
    fn occupied_cells_reject_claims_in_both_modes() {
        for mode in [ClaimMode::Exclusive, ClaimMode::Occupy] {
            let mut m = BspMachine::new(8);
            Machine::poke(&mut m, 2, 55);
            assert_eq!(m.claim(&[(77, 2)], mode), vec![false]);
            assert_eq!(Machine::peek(&m, 2), 55);
        }
    }

    #[test]
    fn claims_match_the_simulator_cell_by_cell() {
        let attempts: Vec<(u64, usize)> = (0..200u64)
            .map(|i| (i + 1, (i as usize * 7) % 64))
            .collect();
        let mut sim = Pram::with_seed(16, 0);
        let mut bsp = BspMachine::with_seed(16, 0);
        for mode in [ClaimMode::Exclusive, ClaimMode::Occupy] {
            let a = Machine::claim(&mut sim, &attempts, mode);
            let b = bsp.claim(&attempts, mode);
            assert_eq!(a, b, "{mode:?} outcomes diverged");
            for addr in 0..64 {
                assert_eq!(Machine::peek(&sim, addr), bsp.peek(addr), "cell {addr}");
            }
        }
        let (rs, rb) = (sim.cost_report(), bsp.cost_report());
        assert_eq!(rs.steps, rb.steps);
        assert_eq!(rs.claim_attempts, rb.claim_attempts);
        assert_eq!(rs.contended_claims, rb.contended_claims);
    }

    #[test]
    fn scan_step_matches_sequential_prefix_and_charges_tree_depth() {
        let mut m = BspMachine::new(0);
        let vals: Vec<u64> = (0..1000u64).map(|i| i % 7).collect();
        m.ensure_memory(1000);
        Machine::load(&mut m, 0, &vals);
        let total = m.scan_step(0, 1000);
        assert_eq!(total, vals.iter().sum::<u64>());
        let got = Machine::dump(&m, 0, 1000);
        let mut acc = 0;
        for i in 0..1000 {
            acc += vals[i];
            assert_eq!(got[i], acc, "mismatch at {i}");
        }
        // ceil(lg 1000) = 10 tree supersteps, unit queues
        assert_eq!(m.cost_report().bsp.unwrap().measured_cost, 10);
        assert_eq!(m.queue_profile(), &[1]);
    }

    #[test]
    fn global_or_detects_any_nonzero() {
        let mut m = BspMachine::new(5000);
        assert!(!m.global_or_step(0, 5000));
        Machine::poke(&mut m, 4321, 9);
        assert!(m.global_or_step(0, 5000));
    }

    #[test]
    fn alloc_and_release_behave_like_a_stack() {
        let mut m = BspMachine::new(8);
        let a = Machine::alloc(&mut m, 4);
        assert_eq!(a, 8);
        let b = Machine::alloc(&mut m, 2);
        assert_eq!(b, 12);
        Machine::release_to(&mut m, b);
        let c = Machine::alloc(&mut m, 3);
        assert_eq!(c, 12);
        assert!(Machine::dump(&m, c, 3).iter().all(|&v| v == EMPTY));
    }

    #[test]
    fn seq_step_reads_own_writes_and_advances_one_step() {
        let mut m = BspMachine::new(8);
        let observed = m.seq_step(|ctx| {
            ctx.write(3, 41);
            let fresh = ctx.read(3);
            ctx.write(3, fresh + 1);
            ctx.read(3)
        });
        assert_eq!(observed, 42);
        assert_eq!(Machine::peek(&m, 3), 42);
        assert_eq!(m.steps_executed, 1);
    }

    #[test]
    fn random_streams_match_the_simulator() {
        let mut bsp = BspMachine::with_seed(4, 77);
        let bsp_draws = bsp.par_map(64, |_p, ctx| ctx.random_index(1000));
        let seq = bsp.seq_step(|ctx| ctx.random_index(1 << 20));
        let mut sim = Pram::with_seed(4, 77);
        let sim_draws = Machine::par_map(&mut sim, 64, |_p, ctx| ctx.random_index(1000));
        let sim_seq = Machine::seq_step(&mut sim, |ctx| ctx.random_index(1 << 20));
        assert_eq!(bsp_draws, sim_draws);
        assert_eq!(seq, sim_seq);
    }

    #[test]
    fn outputs_are_bit_identical_at_every_thread_count() {
        let run = |threads: usize| {
            let mut m = BspMachine::with_threads(4096, 9, threads);
            let draws = m.par_map(5000, |_p, ctx| ctx.random_index(1 << 30));
            m.par_for(5000, |p, ctx| {
                let t = (p * 131) % 4096;
                ctx.write(t, p as u64);
            });
            (draws, m.dump(0, 4096), m.queue_profile().to_vec())
        };
        let baseline = run(1);
        for threads in [2, 5, 8] {
            assert_eq!(run(threads), baseline, "thread count {threads} diverged");
        }
    }

    #[test]
    fn cost_report_carries_measured_and_predicted_sides() {
        let mut m = BspMachine::with_components(128, 0, 1024);
        m.par_for(64, |p, ctx| {
            let v = ctx.read(p % 8); // queue of 8 on each of 8 cells
            ctx.write(8 + p, v);
        });
        let report = m.cost_report();
        assert_eq!(report.backend, "bsp");
        let bsp = report.bsp.expect("bsp backend must fill its cost section");
        assert_eq!(bsp.components, 1024);
        assert_eq!(bsp.max_queue, 8);
        assert_eq!(m.queue_profile(), &[8]);
        // one step, m = 2 ops... max(m, q) = 8; predicted = 8 · lg 1024
        assert_eq!(bsp.measured_cost, 8);
        assert_eq!(bsp.predicted_cost, 80);
        assert_eq!(bsp.headroom(), Some(10.0));
        // reads travel request + reply, writes once
        assert_eq!(bsp.messages, 2 * 64 + 64);
        assert_eq!(bsp.supersteps, 3);
        assert!(report.to_string().contains("measured=8 predicted=80"));
    }

    #[test]
    fn components_are_configurable_and_clamped() {
        let m = BspMachine::with_components(8, 0, 0);
        assert_eq!(m.components(), 2, "component count must clamp to ≥ 2");
        let m = BspMachine::with_components(8, 0, 4096);
        assert_eq!(m.components(), 4096);
    }

    #[test]
    fn component_env_values_default_when_unset_and_reject_loudly_when_invalid() {
        assert_eq!(components_from_env_value(None), Ok(DEFAULT_COMPONENTS));
        assert_eq!(components_from_env_value(Some("64")), Ok(64));
        for bad in ["1", "0", "abc"] {
            let err = components_from_env_value(Some(bad)).unwrap_err();
            assert!(err.contains(COMPONENTS_ENV), "{err}");
        }
    }

    #[test]
    fn empty_and_zero_width_steps_cost_nothing() {
        let mut m = BspMachine::new(4);
        let out: Vec<u64> = m.par_map(0, |_p, _ctx| 0u64);
        assert!(out.is_empty());
        assert_eq!(m.scan_step(0, 0), 0);
        assert!(!m.global_or_step(0, 0));
        let bsp = m.cost_report().bsp.unwrap();
        assert_eq!(bsp.measured_cost, 0);
        assert_eq!(m.queue_profile(), &[0, 0, 0]);
        assert_eq!(m.steps_executed, 3);
    }
}
