//! `Lockstep<A, B>`: a differential [`Machine`] that runs every call on two
//! backends and compares them after every step.
//!
//! A [`Machine::par_map`] runs on `A` with each processor's context
//! wrapped in a recorder of its reads, writes and draws; the logs ride back
//! in `par_map`'s own return value.  It then runs on `B`, each processor
//! checking its ops against `A`'s log of it as it goes and returning where
//! they first part.  A [`Machine::seq_step`] body
//! is an `FnOnce`, so it runs once, recorded, on `A`, and its log is
//! replayed inside `B`'s `seq_step`, reading and drawing on `B`.  `claim`,
//! `scan_step`, `global_or_step`, `compact_step`, `bitonic_segments`,
//! `scan_tree`, `counting_pass`, `list_rank`, `fill_forward` and
//! `duplicate` forward to each machine's own implementation.  After every step-executing call Lockstep
//! compares the step counters, the call's result, the claim counters (after
//! unrecorded calls, the only ones that move them), `heap_top`, the op logs
//! and the live memory prefix `dump(0, heap_top)`.  At the first mismatch
//! it panics naming the step index, the call, the processor and op, and
//! the first differing cell.  The host sees `A`'s results, so both machines
//! receive the same calls.
//!
//! The values `B`'s `par_map` returns are not compared: `B`'s processors
//! run to check their ops, and only `A`'s values reach the host.  A `B`
//! that returned its values out of processor order would pass every
//! Lockstep run whose ops and memory agree, so the contract's clause tests
//! in `tests/backends.rs` assert what each machine returns directly.
//!
//! One mismatch is tolerated: a step whose log *on `A`* breaks contract
//! rule 3 — a processor reads or writes a cell that another processor
//! writes in the same step.  Lockstep counts every such step
//! ([`Lockstep::rule3_steps`], a function of `A`'s log alone); when `B`
//! parted from `A` in one, it copies `A`'s memory into `B` and counts a
//! resync ([`Lockstep::resynced_steps`]).

use std::fmt::Debug;

use qrqw_bench::Backend;
use qrqw_suite::exec::Schedule;
use qrqw_suite::sim::{ClaimMode, CostReport, Machine, MachineProc, EMPTY};

/// One memory operation of one processor in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read(usize, u64),
    Write(usize, u64),
    Draw(usize, usize),
}

/// Where `B`'s ops first part from `A`'s log of the same processor: the op
/// index and `B`'s op there (`None`: `B` issued fewer ops).
type Divergence = (usize, Option<Op>);

/// A processor context that hands every read, write and draw to `note`.
struct Recorder<'a, N: FnMut(Op)>(&'a mut dyn MachineProc, N);

impl<N: FnMut(Op)> MachineProc for Recorder<'_, N> {
    fn proc_id(&self) -> u64 {
        self.0.proc_id()
    }

    fn read(&mut self, addr: usize) -> u64 {
        let value = self.0.read(addr);
        (self.1)(Op::Read(addr, value));
        value
    }

    fn write(&mut self, addr: usize, value: u64) {
        self.0.write(addr, value);
        (self.1)(Op::Write(addr, value));
    }

    fn compute(&mut self, ops: u64) {
        self.0.compute(ops)
    }

    fn random_index(&mut self, bound: usize) -> usize {
        let drawn = self.0.random_index(bound);
        (self.1)(Op::Draw(bound, drawn));
        drawn
    }
}

/// Runs `f` on `ctx`, returning its result and its op log.
fn record<T>(ctx: &mut dyn MachineProc, f: impl FnOnce(&mut dyn MachineProc) -> T) -> (T, Vec<Op>) {
    let mut log = Vec::new();
    let out = f(&mut Recorder(ctx, |op| log.push(op)));
    (out, log)
}

/// Runs `f` on `ctx`, checking each op against `want` as it goes; returns
/// where they first part.
fn check_ops(
    ctx: &mut dyn MachineProc,
    want: &[Op],
    f: impl FnOnce(&mut dyn MachineProc),
) -> Option<Divergence> {
    let (mut at, mut diverged) = (0, None);
    f(&mut Recorder(ctx, |op| {
        if diverged.is_none() && want.get(at) != Some(&op) {
            diverged = Some((at, Some(op)));
        }
        at += 1;
    }));
    diverged.or((at < want.len()).then_some((at, None)))
}

/// Re-issues `A`'s sequential-step log on `B`: the same writes, and the
/// reads and draws, whose values `B` supplies.
fn replay(ctx: &mut dyn MachineProc, log: &[Op]) {
    for &op in log {
        match op {
            Op::Read(addr, _) => drop(ctx.read(addr)),
            Op::Write(addr, value) => ctx.write(addr, value),
            Op::Draw(bound, _) => drop(ctx.random_index(bound)),
        }
    }
}

/// Whether a processor reads or writes a cell that another processor
/// writes in the same step (contract rule 3).  `owner` is scratch space
/// kept across steps: `owner[addr] = (stamp, p)` marks a cell processor `p`
/// wrote in the step stamped `stamp`, so no step has to clear it.
fn breaks_rule3(logs: &[Vec<Op>], owner: &mut Vec<(u64, usize)>, stamp: u64) -> bool {
    for (p, log) in logs.iter().enumerate() {
        for op in log {
            if let Op::Write(addr, _) = *op {
                if addr >= owner.len() {
                    owner.resize(2 * addr + 1, (0, 0));
                }
                let cell = &mut owner[addr];
                if cell.0 == stamp && cell.1 != p {
                    return true;
                }
                *cell = (stamp, p);
            }
        }
    }
    for (p, log) in logs.iter().enumerate() {
        for op in log {
            if let Op::Read(addr, _) = *op {
                if let Some(&(s, q)) = owner.get(addr) {
                    if s == stamp && q != p {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// The first index where two sequences differ, described.
fn first_diff<T: PartialEq + Debug>(what: &str, a: &[T], b: &[T]) -> Option<String> {
    if a == b {
        return None;
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(format!("{what} {i}: {:?} vs {:?}", a[i], b[i])),
        None if a.len() != b.len() => Some(format!("{what} count {} vs {}", a.len(), b.len())),
        None => None,
    }
}

/// `A`'s per-processor op logs of one recorded step, and where `B`'s ops
/// first parted from each.
type StepLogs<'a> = (&'a [Vec<Op>], &'a [Option<Divergence>]);

/// Two machines driven in lockstep; see the module docs.
pub struct Lockstep<A, B> {
    a: A,
    b: B,
    label: String,
    rule3_steps: u64,
    resynced_steps: u64,
    /// Recorded steps checked so far: the stamp of [`breaks_rule3`].
    recorded: u64,
    owner: Vec<(u64, usize)>,
}

impl<A: Machine, B: Machine> Lockstep<A, B> {
    pub fn new(a: A, b: B, label: impl Into<String>) -> Self {
        let label = label.into();
        Lockstep {
            a,
            b,
            label,
            rule3_steps: 0,
            resynced_steps: 0,
            recorded: 0,
            owner: Vec::new(),
        }
    }

    /// The pair and seed this Lockstep names in its panics.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The reference machine.
    pub fn a(&self) -> &A {
        &self.a
    }

    /// The machine under test.
    pub fn b(&self) -> &B {
        &self.b
    }

    /// Steps whose log on `A` breaks contract rule 3.
    pub fn rule3_steps(&self) -> u64 {
        self.rule3_steps
    }

    /// Rule-3 steps in which `B` parted from `A` and was resynced.
    pub fn resynced_steps(&self) -> u64 {
        self.resynced_steps
    }

    /// Compares the machines after the call `call` that began at step
    /// index `step`; `logs` are those of a recorded step.
    fn check<T: PartialEq + Debug>(
        &mut self,
        step: u64,
        call: &str,
        results: (&[T], &[T]),
        logs: Option<StepLogs>,
    ) {
        let (sa, sb) = (self.a.steps_executed(), self.b.steps_executed());
        let mut strict = vec![
            (sa != sb).then(|| format!("steps {sa} vs {sb}")),
            first_diff("result", results.0, results.1),
            first_diff("heap_top", &[self.a.heap_top()], &[self.b.heap_top()]),
        ];
        if logs.is_none() {
            let (ra, rb) = (self.a.cost_report(), self.b.cost_report());
            strict.push(first_diff(
                "claim counters",
                &[ra.claim_attempts, ra.contended_claims],
                &[rb.claim_attempts, rb.contended_claims],
            ));
        }
        self.recorded += logs.is_some() as u64;
        let hazard = logs.is_some_and(|(la, _)| breaks_rule3(la, &mut self.owner, self.recorded));
        self.rule3_steps += hazard as u64;
        let log_diff = logs.and_then(|(la, lb)| {
            let p = lb.iter().position(Option::is_some)?;
            let (i, op) = lb[p]?;
            Some(format!(
                "processor {p} op {i}: {:?} vs {op:?}",
                la[p].get(i)
            ))
        });
        let ma = self.a.dump(0, self.a.heap_top());
        let mb = self.b.dump(0, self.b.heap_top());
        let loose = [log_diff, first_diff("cell", &ma, &mb)];
        let strict: Vec<String> = strict.into_iter().flatten().collect();
        let loose: Vec<String> = loose.into_iter().flatten().collect();
        if strict.is_empty() && loose.is_empty() {
            return;
        }
        if strict.is_empty() && hazard {
            self.resynced_steps += 1;
            self.b.load(0, &ma);
            return;
        }
        let what = [strict, loose].concat().join("; ");
        panic!("lockstep {}: step {step} ({call}): {what}", self.label)
    }
}

/// Runs the unrecorded call `$call(...)` on both machines, checks them
/// after it, and yields `A`'s result.
macro_rules! both {
    ($self:ident, $call:ident($($arg:expr),*)) => {{
        let step = $self.a.steps_executed();
        let (ra, rb) = ($self.a.$call($($arg),*), $self.b.$call($($arg),*));
        let call = format!("{}{:?}", stringify!($call), ($($arg,)*));
        $self.check(step, &call, (&[&ra], &[&rb]), None);
        ra
    }};
}

impl<A: Machine, B: Machine> Machine for Lockstep<A, B> {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        Lockstep::new(
            A::with_seed(mem_size, seed),
            B::with_seed(mem_size, seed),
            "",
        )
    }

    fn backend(&self) -> &'static str {
        self.b.backend()
    }
    fn seed(&self) -> u64 {
        self.a.seed()
    }
    fn steps_executed(&self) -> u64 {
        self.a.steps_executed()
    }
    fn heap_top(&self) -> usize {
        self.a.heap_top()
    }
    fn cost_report(&self) -> CostReport {
        self.a.cost_report()
    }
    fn peek(&self, addr: usize) -> u64 {
        self.dump(addr, 1)[0]
    }
    fn ensure_memory(&mut self, size: usize) {
        self.a.ensure_memory(size);
        self.b.ensure_memory(size)
    }
    fn release_to(&mut self, base: usize) {
        self.a.release_to(base);
        self.b.release_to(base)
    }
    fn load(&mut self, base: usize, values: &[u64]) {
        self.a.load(base, values);
        self.b.load(base, values)
    }
    fn poke(&mut self, addr: usize, value: u64) {
        self.a.poke(addr, value);
        self.b.poke(addr, value)
    }
    fn clear_region(&mut self, base: usize, len: usize) {
        self.a.clear_region(base, len);
        self.b.clear_region(base, len)
    }

    fn alloc(&mut self, len: usize) -> usize {
        let base = self.a.alloc(len);
        assert_eq!(
            base,
            self.b.alloc(len),
            "lockstep {}: alloc({len})",
            self.label
        );
        base
    }

    fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        let (a, b) = (self.a.dump(base, len), self.b.dump(base, len));
        if let Some(what) = first_diff("cell", &a, &b) {
            panic!("lockstep {}: dump({base}, {len}): {what}", self.label);
        }
        a
    }

    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        let step = self.a.steps_executed();
        let (out, la): (Vec<T>, Vec<Vec<Op>>) = self
            .a
            .par_map(procs, |p, ctx| record(ctx, |ctx| f(p, ctx)))
            .into_iter()
            .unzip();
        let lb = self.b.par_map(procs, |p, ctx| {
            check_ops(ctx, &la[p], |ctx| drop(f(p, ctx)))
        });
        self.check::<()>(step, "par_map", (&[], &[]), Some((&la, &lb)));
        out
    }

    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T,
    {
        let step = self.a.steps_executed();
        let (out, la) = self.a.seq_step(|ctx| record(ctx, f));
        let lb = self
            .b
            .seq_step(|ctx| check_ops(ctx, &la, |ctx| replay(ctx, &la)));
        self.check::<()>(step, "seq_step", (&[], &[]), Some((&[la], &[lb])));
        out
    }

    fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        both!(self, scan_step(base, len))
    }
    fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        both!(self, global_or_step(base, len))
    }
    fn compact_step(&mut self, src: usize, len: usize, dst: usize) -> u64 {
        both!(self, compact_step(src, len, dst))
    }
    fn bitonic_segments(&mut self, base: usize, seg_size: usize, num_segs: usize) {
        both!(self, bitonic_segments(base, seg_size, num_segs))
    }
    fn scan_tree(&mut self, base: usize, len: usize, inclusive: bool) -> u64 {
        both!(self, scan_tree(base, len, inclusive))
    }
    fn list_rank(&mut self, base_succ: usize, n: usize, base_rank: usize) {
        both!(self, list_rank(base_succ, n, base_rank))
    }
    fn fill_forward(&mut self, base: usize, len: usize) {
        both!(self, fill_forward(base, len))
    }
    fn duplicate(&mut self, src: usize, k: usize, dest: usize, copies: usize) {
        both!(self, duplicate(src, k, dest, copies))
    }
    fn counting_pass<F>(&mut self, base: usize, n: usize, num_buckets: usize, bucket_of: F)
    where
        F: Fn(u64) -> u64 + Sync,
    {
        // A closure has no Debug form, so the call is named by its shape.
        let step = self.a.steps_executed();
        self.a.counting_pass(base, n, num_buckets, &bucket_of);
        self.b.counting_pass(base, n, num_buckets, &bucket_of);
        let call = format!("counting_pass{:?}", (base, n, num_buckets));
        self.check::<()>(step, &call, (&[], &[]), None);
    }

    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        let step = self.a.steps_executed();
        let (ra, rb) = (self.a.claim(attempts, mode), self.b.claim(attempts, mode));
        self.check(step, &format!("claim({mode:?})"), (&ra, &rb), None);
        ra
    }
}

/// The machine a Lockstep pair runs against a plain simulator: the
/// BSP-costed simulator walking on `t` threads, or the native machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pair {
    Sim(usize),
    Native(usize, Schedule),
}

/// Pool sizes (and simulator walk widths) every pair runs at: sequential,
/// the smallest chunked count, and an odd oversubscribed one.
pub const THREADS: [usize; 3] = [1, 2, 5];

/// The native machine under both chunk schedules.
pub const NATIVE: [Backend; 2] = [Backend::Native, Backend::NativeSteal];

/// The Lockstep pairs that cover `backend`.  The match is exhaustive, so a
/// backend registered in `Backend::ALL` without pairs fails the build.
/// The stealing pairs start at 2 threads: a 1-thread pool runs every
/// dispatch inline and never reads its schedule, so it would repeat the
/// chunked 1-thread pair.
pub fn pairs(backend: Backend) -> Vec<Pair> {
    match backend {
        Backend::Sim => THREADS.map(Pair::Sim).into(),
        Backend::Native => THREADS.map(|t| Pair::Native(t, Schedule::Chunked)).into(),
        Backend::NativeSteal => THREADS[1..]
            .iter()
            .map(|&t| Pair::Native(t, Schedule::Stealing))
            .collect(),
    }
}

/// The Lockstep pairs of every backend in `backends`; panics naming a
/// backend that has none.
pub fn pairs_of<const N: usize>(backends: [Backend; N]) -> Vec<Pair> {
    let pairs = |backend| {
        let pairs = pairs(backend);
        assert!(!pairs.is_empty(), "{backend:?} has no pairs");
        pairs
    };
    backends.into_iter().flat_map(pairs).collect()
}

/// Runs `$body` once per pair in `$pairs`, with `$pair` bound to the pair
/// and `$m` to a fresh machine under test seeded with `$seed`: the one
/// place a test builds a machine from a pair.
macro_rules! each_machine {
    ($pairs:expr, $seed:expr, |$pair:ident, $m:ident| $body:expr) => {
        for $pair in $pairs {
            use qrqw_suite::{exec::NativeMachine, exec::StepPool, sim::Pram};
            use $crate::common::lockstep::Pair;
            let seed: u64 = $seed;
            match $pair {
                Pair::Sim(threads) => {
                    #[allow(unused_mut)]
                    let mut $m = Pram::with_bsp(16, seed, threads);
                    $body;
                }
                Pair::Native(threads, schedule) => {
                    let pool = StepPool::with_threads(threads).with_schedule(schedule);
                    #[allow(unused_mut)]
                    let mut $m = NativeMachine::with_pool(16, seed, pool);
                    $body;
                }
            }
        }
    };
}
pub(crate) use each_machine;

/// Runs `$body` once per pair in `$pairs`, with `$m` bound to a fresh
/// `Lockstep<Pram, _>` of that pair whose machines are both seeded with
/// `$seed`.
macro_rules! each_pair {
    ($pairs:expr, $seed:expr, |$m:ident| $body:expr) => {
        $crate::common::lockstep::each_machine!($pairs, $seed, |pair, b| {
            let seed: u64 = $seed;
            let a = qrqw_suite::sim::Pram::with_seed(16, seed);
            let label = format!("{pair:?} seed {seed}");
            #[allow(unused_mut)]
            let mut $m = $crate::common::lockstep::Lockstep::new(a, b, label);
            $body;
        })
    };
}
pub(crate) use each_pair;

/// The [`Machine`] methods a wrapper passes unchanged to the machine in its
/// field `$inner`: all but construction, `par_map`, `claim` and the calls
/// with a default body, which each wrapper decides on.
macro_rules! forward_machine {
    ($inner:tt) => {
        fn backend(&self) -> &'static str {
            self.$inner.backend()
        }
        fn seed(&self) -> u64 {
            self.$inner.seed()
        }
        fn steps_executed(&self) -> u64 {
            self.$inner.steps_executed()
        }
        fn ensure_memory(&mut self, size: usize) {
            self.$inner.ensure_memory(size)
        }
        fn alloc(&mut self, len: usize) -> usize {
            self.$inner.alloc(len)
        }
        fn release_to(&mut self, base: usize) {
            self.$inner.release_to(base)
        }
        fn heap_top(&self) -> usize {
            self.$inner.heap_top()
        }
        fn load(&mut self, base: usize, values: &[u64]) {
            self.$inner.load(base, values)
        }
        fn dump(&self, base: usize, len: usize) -> Vec<u64> {
            self.$inner.dump(base, len)
        }
        fn peek(&self, addr: usize) -> u64 {
            self.$inner.peek(addr)
        }
        fn poke(&mut self, addr: usize, value: u64) {
            self.$inner.poke(addr, value)
        }
        fn clear_region(&mut self, base: usize, len: usize) {
            self.$inner.clear_region(base, len)
        }
        fn seq_step<T, F>(&mut self, f: F) -> T
        where
            F: FnOnce(&mut dyn qrqw_suite::sim::MachineProc) -> T,
        {
            self.$inner.seq_step(f)
        }
        fn scan_step(&mut self, base: usize, len: usize) -> u64 {
            self.$inner.scan_step(base, len)
        }
        fn global_or_step(&mut self, base: usize, len: usize) -> bool {
            self.$inner.global_or_step(base, len)
        }
        fn cost_report(&self) -> qrqw_suite::sim::CostReport {
            self.$inner.cost_report()
        }
    };
}
pub(crate) use forward_machine;

/// How a [`Drift`] machine departs from its inner machine.
#[derive(Debug, Clone, Copy)]
pub enum DriftKind {
    /// After the `par_map` that begins at the drift step, cell `addr`
    /// holds a different value.
    Cell(usize),
    /// The Occupy claim that begins at the drift step hands its first
    /// contested cell to the highest claimant instead of the lowest.
    HighestClaimant,
}

/// A machine that departs from `inner` once, at step `at`: the injected
/// drift a Lockstep must name.
pub struct Drift<M> {
    pub inner: M,
    pub at: u64,
    pub kind: DriftKind,
}

impl<M: Machine> Machine for Drift<M> {
    /// A drift that never fires.
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        Drift {
            inner: M::with_seed(mem_size, seed),
            at: u64::MAX,
            kind: DriftKind::Cell(0),
        }
    }

    forward_machine!(inner);
    fn compact_step(&mut self, src: usize, len: usize, dst: usize) -> u64 {
        self.inner.compact_step(src, len, dst)
    }
    fn bitonic_segments(&mut self, base: usize, seg_size: usize, num_segs: usize) {
        self.inner.bitonic_segments(base, seg_size, num_segs)
    }
    fn scan_tree(&mut self, base: usize, len: usize, inclusive: bool) -> u64 {
        self.inner.scan_tree(base, len, inclusive)
    }
    fn list_rank(&mut self, base_succ: usize, n: usize, base_rank: usize) {
        self.inner.list_rank(base_succ, n, base_rank)
    }
    fn fill_forward(&mut self, base: usize, len: usize) {
        self.inner.fill_forward(base, len)
    }
    fn duplicate(&mut self, src: usize, k: usize, dest: usize, copies: usize) {
        self.inner.duplicate(src, k, dest, copies)
    }
    fn counting_pass<F>(&mut self, base: usize, n: usize, num_buckets: usize, bucket_of: F)
    where
        F: Fn(u64) -> u64 + Sync,
    {
        self.inner.counting_pass(base, n, num_buckets, bucket_of)
    }

    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        let step = self.inner.steps_executed();
        let out = self.inner.par_map(procs, f);
        if let (DriftKind::Cell(addr), true) = (self.kind, step == self.at) {
            let v = self.inner.peek(addr);
            self.inner.poke(addr, if v == EMPTY { 0 } else { v + 1 });
        }
        out
    }

    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        let step = self.inner.steps_executed();
        let mut won = self.inner.claim(attempts, mode);
        if matches!(self.kind, DriftKind::HighestClaimant) && step == self.at {
            // A won cell was empty, so every claimant of it was live.
            let last_on = |i: usize| attempts.iter().rposition(|a| a.1 == attempts[i].1).unwrap();
            if let Some(lowest) = (0..won.len()).find(|&i| won[i] && last_on(i) != i) {
                let highest = last_on(lowest);
                won.swap(lowest, highest);
                self.inner.poke(attempts[highest].1, attempts[highest].0);
            }
        }
        won
    }
}
