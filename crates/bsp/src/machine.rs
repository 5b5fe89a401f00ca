//! [`BspMachine`]: the batch-message BSP implementation of the [`Machine`]
//! backend API — a [`Pram`] whose parallel steps are routed as messages.
//!
//! The simulator *charges* contention (by formula over its exact trace) and
//! the native machine *suffers* it (as lost CAS races).  This backend runs
//! every [`Machine`] step as BSP supersteps: a local-computation phase in
//! which virtual processors buffer their read/write requests as messages,
//! then a routing phase ([`crate::router`]) that walks the traffic in
//! processor order, queues it per destination cell, delivers it and counts
//! it per component.
//!
//! The machine is a [`Pram`] plus that router.  Memory, allocator, launches,
//! [`Machine::seq_step`], the scan and global-OR primitives and the trace
//! are the simulator's; a parallel step's accounting walk finishes into the
//! router ([`Pram::par_map_into`]) instead of straight into memory.  What this
//! type adds is the BSP bookkeeping — supersteps, messages and the heaviest
//! h-relation — read off each step the `Pram` just ran.
//!
//! # What is measured
//!
//! The router's message, superstep and `h` counts are its own.  The realized
//! queue of a step is the longest per-cell message queue it drained, and
//! with same-processor combining that queue *is* the Definition 2.1
//! contention `κ`: [`BspMachine::queue_profile`] and
//! [`qrqw_sim::BspCost::measured_cost`] (Σ `max(m, queue)`) are read off the
//! `Pram`'s trace, so `measured_cost` equals the trace's QRQW time by
//! construction, and its comparison with
//! [`qrqw_sim::BspCost::predicted_cost`] (`t · ⌈lg components⌉`, via
//! [`qrqw_sim::bsp_emulation_time`]) holds for every program.  A cost that
//! could exceed the bound needs cells hashed to components and each
//! superstep charged `w + g·h + L`; that is not built yet.
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
//!   cell — the simulator's rule, computed by the simulator's own walk.
//!   Exclusive claims therefore succeed iff they are the unique live
//!   claimant — the same outcome the native CAS-plus-poison passes produce
//!   — and Occupy hands contested cells to the lowest-id claimant (a legal
//!   instance of the backend-defined "arbitrary" rule).
//! * **Thread-count invariance** — a step's launches and its routing walk
//!   fan out over up to [`BspMachine::threads`] threads of the process-wide
//!   pool (`QRQW_THREADS` / [`BspMachine::with_threads`]), launched as every
//!   `Pram` step is; the walk meets each address range's requests in
//!   processor order whatever order the chunks finished in, so chunk
//!   boundaries, the range cut and thread assignment are unobservable.
//!
//! Because routing arbitration coincides with the simulator's, a
//! `BspMachine` re-executes the simulator's exact trajectory for *every*
//! algorithm in the repository (occupy-based ones included), which
//! `tests/theorem11.rs` checks step for step against an independent
//! simulator run.

use qrqw_exec::StepPool;
use qrqw_sim::{bsp_emulation_time, claim_by_steps, CostModel, Pram, StepStats};
use qrqw_sim::{BspCost, ClaimMode, CostReport, Machine, MachineProc};

use crate::router::Router;

/// Default component count: `2^10`, giving the Theorem 1.1 formula its
/// `⌈lg p⌉ = 10` factor (the MasPar of the Section 5.2 experiment had
/// `2^14` processors; `p/lg p ≈ 2^10` components is the machine Theorem 1.1
/// would emulate it on).
pub const DEFAULT_COMPONENTS: u64 = 1024;

/// The BSP-only running totals (see [`BspCost`] for the reported form);
/// everything else the machine reports is read off its `Pram`.
#[derive(Debug, Default)]
struct BspStats {
    supersteps: u64,
    messages: u64,
    max_h_relation: u64,
}

/// The batch-message BSP [`Machine`] backend.
#[derive(Debug)]
pub struct BspMachine {
    pram: Pram,
    router: Router,
    components: u64,
    threads: usize,
    stats: BspStats,
}

impl BspMachine {
    /// Creates a machine with `mem_size` cells (all [`qrqw_sim::EMPTY`]) and
    /// seed 0.
    pub fn new(mem_size: usize) -> Self {
        Machine::with_seed(mem_size, 0)
    }

    /// Creates a machine with an explicit compute-phase thread count,
    /// overriding `QRQW_THREADS` / host parallelism.
    pub fn with_threads(mem_size: usize, seed: u64, threads: usize) -> Self {
        Self::build(
            mem_size,
            seed,
            StepPool::with_threads(threads),
            DEFAULT_COMPONENTS,
        )
    }

    /// Creates a machine with an explicit component count (`p` of the
    /// Theorem 1.1 bound; clamped to at least 2) in place of
    /// [`DEFAULT_COMPONENTS`].
    pub fn with_components(mem_size: usize, seed: u64, components: u64) -> Self {
        Self::build(mem_size, seed, StepPool::from_env(), components.max(2))
    }

    /// `pool` only sizes the machine: its thread count, clamped as every
    /// pool's is, goes to each [`Pram::par_map_into`].
    fn build(mem_size: usize, seed: u64, pool: StepPool, components: u64) -> Self {
        BspMachine {
            pram: Pram::with_seed(mem_size, seed),
            router: Router::new(components as usize),
            components,
            threads: pool.threads(),
            stats: BspStats::default(),
        }
    }

    /// Number of threads a step's launches and routing walk fan out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of BSP components the router distributes cells over.
    pub fn components(&self) -> u64 {
        self.components
    }

    /// The realized max queue length of every [`Machine`] step so far, in
    /// step order — the measured counterpart of the simulator's
    /// `trace().contention_profile()`, read off this machine's trace.
    pub fn queue_profile(&self) -> Vec<u64> {
        self.pram.trace().step_stats().iter().map(queue).collect()
    }

    /// Books a step the router did not carry — a sequential step, a scan or
    /// a global OR — from the statistics the `Pram` just pushed.
    fn note_unrouted_step(&mut self) {
        let s = self
            .pram
            .trace()
            .step_stats()
            .last()
            .expect("a step just ran");
        if s.is_scan && s.scan_width > 0 {
            // A tree primitive: `⌈lg width⌉` supersteps of pairwise
            // combining, `width` messages into the fabric.
            self.stats.supersteps += CostModel::Qrqw.step_time(s);
            self.stats.messages += s.scan_width;
        } else {
            // One component working serially, or an empty primitive: one
            // superstep, every remote access a message.
            self.stats.supersteps += 1;
            self.stats.messages += s.total_reads + s.total_writes;
        }
    }
}

/// A step's realized queue: the longest per-cell queue, 0 when no processor
/// was active (an empty scan still records unit contention).
fn queue(s: &StepStats) -> u64 {
    if s.active_procs == 0 {
        0
    } else {
        s.max_read_contention.max(s.max_write_contention)
    }
}

impl Machine for BspMachine {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        Self::build(mem_size, seed, StepPool::from_env(), DEFAULT_COMPONENTS)
    }

    fn backend(&self) -> &'static str {
        "bsp"
    }

    fn seed(&self) -> u64 {
        self.pram.seed()
    }

    fn steps_executed(&self) -> u64 {
        self.pram.steps_executed()
    }

    fn ensure_memory(&mut self, size: usize) {
        self.pram.ensure_memory(size)
    }

    fn alloc(&mut self, len: usize) -> usize {
        self.pram.alloc(len)
    }

    fn release_to(&mut self, base: usize) {
        self.pram.release_to(base)
    }

    fn heap_top(&self) -> usize {
        self.pram.heap_top()
    }

    fn load(&mut self, base: usize, values: &[u64]) {
        self.pram.load(base, values)
    }

    fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        self.pram.dump(base, len)
    }

    fn peek(&self, addr: usize) -> u64 {
        self.pram.peek(addr)
    }

    fn poke(&mut self, addr: usize, value: u64) {
        self.pram.poke(addr, value)
    }

    fn clear_region(&mut self, base: usize, len: usize) {
        self.pram.clear_region(base, len)
    }

    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        let (out, routed) = self.router.step(&mut self.pram, self.threads, procs, f);
        self.stats.supersteps += routed.supersteps();
        self.stats.messages += routed.messages();
        self.stats.max_h_relation = self.stats.max_h_relation.max(routed.max_h);
        out
    }

    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T,
    {
        let out = self.pram.seq_step(f);
        self.note_unrouted_step();
        out
    }

    fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        let total = self.pram.scan_step(base, len);
        self.note_unrouted_step();
        total
    }

    fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        let any = self.pram.global_or_step(base, len);
        self.note_unrouted_step();
        any
    }

    /// The Section 5.1 protocol, step for step like the simulator
    /// ([`claim_by_steps`]), each pass a routed message step whose queues
    /// are measured — the longest S2 write batch *is* the realized
    /// contention of the claim.  The router's processor-order delivery is
    /// the simulator's lowest-id write arbitration.
    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        let (success, live, contended) = claim_by_steps(self, attempts, mode);
        self.pram.note_claims(live, contended);
        success
    }

    /// The `Pram`'s report with the BSP section in place of the model-side
    /// fields.  `measured_cost` is the `Pram`'s trace time under
    /// [`CostModel::Qrqw`] — the `t` whose Theorem 1.1 bound is
    /// `t · ⌈lg components⌉`; that it equals the simulator's for the same
    /// run says the two re-execute one trajectory (pinned by
    /// `tests/theorem11.rs` and the `perf_report` validator).
    fn cost_report(&self) -> CostReport {
        let sim = self.pram.cost_report();
        let measured_cost = sim.time_qrqw.expect("a Pram reports its QRQW time");
        CostReport {
            backend: "bsp",
            work: None,
            max_contention: None,
            time_qrqw: None,
            bsp: Some(BspCost {
                components: self.components,
                supersteps: self.stats.supersteps,
                messages: self.stats.messages,
                max_queue: self
                    .pram
                    .trace()
                    .step_stats()
                    .iter()
                    .map(queue)
                    .max()
                    .unwrap_or(0),
                max_h_relation: self.stats.max_h_relation,
                measured_cost,
                predicted_cost: bsp_emulation_time(measured_cost, self.components),
            }),
            ..sim
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::EMPTY;

    #[test]
    fn par_map_runs_all_processors_in_order() {
        let mut m = BspMachine::new(16);
        let out = m.par_map(5000, |p, ctx| {
            ctx.write(p % 16, p as u64);
            p * 2
        });
        assert_eq!(out.len(), 5000);
        assert_eq!(out[1234], 2468);
        assert_eq!(m.steps_executed(), 1);
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
        assert_eq!(m.steps_executed(), 6);
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
        assert_eq!(m.steps_executed(), 3);
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
        assert_eq!(m.steps_executed(), 1);
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
        // the 8 read cells sit on 8 of the 1024 components, each asked by 8
        // readers at 2 messages apiece; the 64 writes land on distinct
        // components
        assert_eq!(bsp.max_h_relation, 16);
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
    fn empty_and_zero_width_steps_cost_nothing() {
        let mut m = BspMachine::new(4);
        let out: Vec<u64> = m.par_map(0, |_p, _ctx| 0u64);
        assert!(out.is_empty());
        assert_eq!(m.scan_step(0, 0), 0);
        assert!(!m.global_or_step(0, 0));
        let bsp = m.cost_report().bsp.unwrap();
        assert_eq!(bsp.measured_cost, 0);
        assert_eq!(m.queue_profile(), &[0, 0, 0]);
        assert_eq!(m.steps_executed(), 3);
    }
}
