//! One table of machine-call cases, each checked against a host oracle.
//!
//! Every `Machine` call that `NativeMachine` overrides with a kernel of its
//! own is a [`Kernel`]; a [`Case`] adds the input, where it is loaded and
//! the allocation top the call starts from.  [`Case::run`] issues it on any
//! machine and returns what the call left ([`After`]), and
//! [`Case::oracle`] computes the same record on the host from the call's
//! contract (`crates/sim/src/machine.rs`).  The whole live prefix, the
//! result, `heap_top`, the step advance and the claim counters are at least
//! what Lockstep compares after one unrecorded call, so a case needs no
//! simulator beside the machine under test.  [`check`] runs cases on every
//! machine each lists.  [`ByStages`] keeps the trait's default routes,
//! which `tests/step_kernel_cost.rs` prices each kernel against and
//! [`check`] runs every compaction on.

use std::time::{Duration, Instant};

use qrqw_suite::exec::{NativeMachine, StepPool, SHARD_CELLS};
use qrqw_suite::sim::{ClaimMode, Machine, MachineProc, EMPTY};

use super::lockstep::{each_machine, forward_machine, pairs_of, Pair, NATIVE, THREADS};

/// A machine call with a native kernel, and its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    ScanStep,
    GlobalOr,
    /// `compact_step` to a destination below the allocation top or raw at
    /// it.
    Compact(usize),
    /// `bitonic_segments` over segments of a size and count.
    Bitonic(usize, usize),
    /// `scan_tree`, inclusive or not.
    ScanTree(bool),
    /// `counting_pass` by [`bucket_of`] over a power-of-two bucket count.
    CountingPass(usize),
}

/// One call on one input.
pub struct Case {
    pub kernel: Kernel,
    pub input: Vec<u64>,
    /// Where the input is loaded.
    pub base: usize,
    /// Cells ensured before the load: the allocation top the call starts
    /// from, at least a fresh machine's 16.
    pub top: usize,
}

/// What a call left: `dump(0, end)` over the live prefix and the call's
/// output past it (a raw compaction's survivors lie above the top it
/// restores), the result (a sum or survivor count, 1 or 0 for a global OR,
/// 0 for none), `heap_top`, the step advance, and the claim attempts and
/// contended claims.
#[derive(PartialEq, Eq)]
pub struct After {
    memory: Vec<u64>,
    result: u64,
    heap_top: usize,
    advance: u64,
    claims: [u64; 2],
}

impl After {
    /// What in `got` differs from `self`, if anything.
    fn diff(&self, got: &After) -> Option<String> {
        if self == got {
            return None;
        }
        let (want, have) = (&self.memory, &got.memory);
        let cell = (0..want.len().max(have.len())).find(|&i| want.get(i) != have.get(i));
        let cell = cell.map(|i| (i, have.get(i), want.get(i)));
        let fields = |a: &After| (a.result, a.heap_top, a.advance, a.claims);
        let (have, want) = (fields(got), fields(self));
        Some(format!(
            "(result, heap_top, advance, claims) {have:?}, want {want:?}; \
             first (cell, value, want) {cell:?}"
        ))
    }
}

/// The bucket of a word in a counting pass over `buckets`: its second
/// byte, masked.
fn bucket_of(buckets: usize) -> impl Fn(u64) -> u64 + Sync + Copy {
    let mask = buckets as u64 - 1;
    move |w| (w >> 8) & mask
}

/// Replaces `cells` by their prefix sums, `EMPTY` counting as zero, and
/// returns the total.
fn prefix_sums(cells: &mut [u64], inclusive: bool) -> u64 {
    let mut acc = 0;
    for cell in cells {
        let v = if *cell == EMPTY { 0 } else { *cell };
        *cell = if inclusive { acc + v } else { acc };
        acc += v;
    }
    acc
}

impl Case {
    /// The end of the call's output, for a call that returned `result`.
    fn end(&self, result: u64) -> usize {
        let survivors = match self.kernel {
            Kernel::Compact(dst) => dst + result as usize,
            _ => 0,
        };
        survivors.max(self.base + self.input.len())
    }

    /// The machines the case runs on: every native pair, and the model
    /// backends where the stage route is cheap enough.
    fn machines(&self) -> Vec<Pair> {
        let model = match self.kernel {
            Kernel::ScanStep | Kernel::GlobalOr | Kernel::Compact(_) => vec![Pair::Sim],
            // The stage route is one loop with no shape-dependent path, so
            // the model backends run only the small networks.
            Kernel::Bitonic(..) if self.input.len() > 1 << 13 => vec![],
            Kernel::Bitonic(..) => vec![Pair::Sim, Pair::Bsp(THREADS[1])],
            Kernel::ScanTree(_) | Kernel::CountingPass(_) => vec![Pair::Bsp(THREADS[1])],
        };
        [pairs_of(NATIVE), model].concat()
    }

    /// Loads the input into `m`, issues the call, and returns what it left
    /// and the call's wall time.
    pub fn run<M: Machine>(&self, m: &mut M) -> (After, Duration) {
        let (base, len) = (self.base, self.input.len());
        m.ensure_memory(self.top);
        m.load(base, &self.input);
        let before = m.steps_executed();
        let start = Instant::now();
        let result = match self.kernel {
            Kernel::ScanStep => m.scan_step(base, len),
            Kernel::GlobalOr => m.global_or_step(base, len) as u64,
            Kernel::Compact(dst) => m.compact_step(base, len, dst),
            Kernel::Bitonic(seg, segs) => {
                m.bitonic_segments(base, seg, segs);
                0
            }
            Kernel::ScanTree(inclusive) => m.scan_tree(base, len, inclusive),
            Kernel::CountingPass(buckets) => {
                m.counting_pass(base, len, buckets, bucket_of(buckets));
                0
            }
        };
        let wall = start.elapsed();
        let (report, heap_top) = (m.cost_report(), m.heap_top());
        let after = After {
            memory: m.dump(0, heap_top.max(self.end(result))),
            result,
            heap_top,
            advance: m.steps_executed() - before,
            claims: [report.claim_attempts, report.contended_claims],
        };
        (after, wall)
    }

    /// What the call leaves on a fresh machine, computed on the host.
    pub fn oracle(&self) -> After {
        let (base, len, top) = (self.base, self.input.len(), self.top.max(16));
        let mut memory = vec![EMPTY; top.max(base + len)];
        memory[base..base + len].copy_from_slice(&self.input);
        let range = &mut memory[base..base + len];
        let lg = |x: usize| x.next_power_of_two().trailing_zeros() as u64;
        // The result, the step advance, and whether the call ensures the
        // memory it covers (which moves the allocation top past it).
        let (result, advance, ensures) = match self.kernel {
            Kernel::ScanStep => (prefix_sums(range, true), 1, false),
            Kernel::GlobalOr => {
                let set = range.iter().any(|&v| v != 0 && v != EMPTY);
                (set as u64, 1, false)
            }
            Kernel::Compact(dst) => {
                let kept: Vec<u64> = range.iter().copied().filter(|&v| v != EMPTY).collect();
                memory.resize(memory.len().max(dst + kept.len()), EMPTY);
                memory[dst..dst + kept.len()].copy_from_slice(&kept);
                (kept.len() as u64, if len == 0 { 0 } else { 3 }, len > 0)
            }
            Kernel::Bitonic(seg, segs) => {
                // A sorting network leaves every segment sorted, whatever
                // the order of its stages.
                range.chunks_mut(seg).for_each(<[u64]>::sort_unstable);
                let l = if segs == 0 { 0 } else { lg(seg) };
                (0, l * (l + 1) / 2, l > 0)
            }
            Kernel::ScanTree(inclusive) => {
                let steps = if len == 0 { 0 } else { 2 * lg(len) + 3 };
                (prefix_sums(range, inclusive), steps, false)
            }
            Kernel::CountingPass(buckets) => {
                // Stable: each bucket keeps its words in input order.
                let mut sorted = vec![Vec::new(); buckets];
                for &w in range.iter() {
                    sorted[bucket_of(buckets)(w) as usize].push(w);
                }
                range.copy_from_slice(&sorted.concat());
                let g = buckets.max(lg(len) as usize).max(1);
                let steps = 2 * lg(buckets * len.div_ceil(g)) + 6;
                (0, if len <= 1 { 0 } else { steps }, len > 1)
            }
        };
        let heap_top = if ensures { top.max(base + len) } else { top };
        memory.truncate(heap_top.max(self.end(result)));
        After {
            memory,
            result,
            heap_top,
            advance,
            claims: [0, 0],
        }
    }
}

/// `len` words below `modulus`, duplicates among them, with every seventh
/// cell `EMPTY`.
fn mixed(len: usize, modulus: u64) -> Vec<u64> {
    let word = |i: u64| i.wrapping_mul(0x9E37_79B9) % modulus;
    (0..len as u64)
        .map(|i| if i % 7 == 3 { EMPTY } else { word(i) })
        .collect()
}

/// Every case: shapes that reach each path of the native kernels, and the
/// no-op shapes.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut add = |kernel, input, base, top| {
        cases.push(Case {
            kernel,
            input,
            base,
            top,
        })
    };

    // Two n-cell allocations above a fresh machine's 16 cells: a scan and
    // a compaction below the top run as one 3-pass pool dispatch, a
    // compaction raw at the top as two, with the arena's growth between.
    let (n, top) = (60_000, 16 + 120_000);
    let mod13 = (0..n as u64).map(|i| (i * 31) % 13).collect();
    add(Kernel::ScanStep, mod13, 16, top);
    for dst in [16 + n, top] {
        let sparse = (0..n as u64).map(|i| if i % 3 == 0 { i + 1 } else { EMPTY });
        add(Kernel::Compact(dst), sparse.collect(), 16, top);
    }
    // Scan and global OR over the start of memory; EMPTY and 0 are unset.
    let n = 50_000;
    let mod11 = (0..n as u64).map(|i| i % 11).collect();
    add(Kernel::ScanStep, mod11, 0, n);
    add(Kernel::GlobalOr, vec![0; n], 0, n);
    for set in [vec![], vec![(n - 1, 3)], vec![(0, 5), (n - 1, 0)]] {
        let mut input = vec![EMPTY; n];
        set.into_iter().for_each(|(i, v)| input[i] = v);
        add(Kernel::GlobalOr, input, 0, n);
    }

    // Networks with segments inside one 2^14-cell block, exactly one block
    // over several chunks, one and several whole-range passes per k above
    // it, a lone segment over two chunks; loaded above the top they grow.
    for (seg, segs) in [
        (1, 4),
        (2, 3),
        (16, 17),
        (1024, 7),
        (1 << 14, 17),
        (1 << 15, 1),
        (1 << 15, 3),
        (1 << 17, 2),
        (64, 0),
    ] {
        add(Kernel::Bitonic(seg, segs), mixed(seg * segs, 97), 3, 16);
    }

    // The blocked scan tree and counting pass: inline (up to 2048 cells),
    // one block (`SCAN_BLOCK` in `crates/exec/src/machine.rs`), one block
    // and one cell, several chunks across the arena's 2^18-cell shard seam.
    let (base, block) = (SHARD_CELLS - (1 << 16) - 5, 8192);
    for len in [0, 1, 2, 255, block - 1, block, block + 1, (1 << 17) + 3] {
        let (top, words) = (base + len, mixed(len, 1_000_003));
        for inclusive in [false, true] {
            add(Kernel::ScanTree(inclusive), words.clone(), base, top);
        }
        for buckets in [1, 2, 256, 4096] {
            // Words in every bucket; and all in the last, one rank run per
            // block.
            let last = (buckets as u64 - 1) << 8;
            let one_bucket = (0..len as u64).map(|i| last | (i & 0xFF)).collect();
            add(Kernel::CountingPass(buckets), words.clone(), base, top);
            add(Kernel::CountingPass(buckets), one_bucket, base, top);
        }
    }
    cases
}

/// Runs every case whose call `pick` selects on every machine the case
/// lists, each on a fresh machine, against the case's oracle; a
/// compaction also on [`ByStages`] over a 2-thread pool.  `ByStages` runs
/// the trait's default route as truly concurrent steps, so a route whose
/// processors race shows there, where the model backends' snapshot reads
/// hide it.  (The other calls' routes on it would double the table's
/// time.)
pub fn check(pick: fn(Kernel) -> bool) {
    let cases: Vec<Case> = cases().into_iter().filter(|c| pick(c.kernel)).collect();
    assert!(!cases.is_empty(), "no case picked");
    for (i, case) in cases.iter().enumerate() {
        let want = case.oracle();
        let compare = |on: &str, got: After| {
            if let Some(diff) = want.diff(&got) {
                let (kernel, len, base) = (case.kernel, case.input.len(), case.base);
                panic!("{kernel:?} case {i} ({len} cells at {base}) on {on}: {diff}");
            }
        };
        each_machine!(case.machines(), 0, |pair, m| {
            compare(&format!("{pair:?}"), case.run(&mut m).0)
        });
        if let Kernel::Compact(_) = case.kernel {
            let pool = StepPool::with_threads(2);
            let mut staged = ByStages(NativeMachine::with_pool(16, 0, pool));
            compare("ByStages(Native(2))", case.run(&mut staged).0);
        }
    }
}

/// A `NativeMachine` that keeps the trait's default `compact_step`,
/// `bitonic_segments`, `scan_tree` and `counting_pass`: each call's
/// canonical route, one `par_for` per step on the same pool.
pub struct ByStages(pub NativeMachine);

impl Machine for ByStages {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        ByStages(NativeMachine::with_seed(mem_size, seed))
    }
    forward_machine!(0);
    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        self.0.par_map(procs, f)
    }
    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        self.0.claim(attempts, mode)
    }
}
