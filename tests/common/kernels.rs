//! One table of machine-call cases, each checked against a host oracle.
//!
//! Every `Machine` call that `NativeMachine` overrides with a kernel of its
//! own is a [`Kernel`], the §5.1 cell-claiming protocol (`Machine::claim`)
//! among them; a [`Case`] adds the input, where it is loaded, the
//! allocation top the call starts from and, for a claim, its attempts.
//! [`Case::run`] issues it on any machine and returns what the call left
//! ([`After`]), and [`Case::oracle`] computes the same record on the host
//! from the call's contract (`crates/sim/src/machine.rs`).  The whole live
//! prefix, the result, a claim's success vector, `heap_top`, the step
//! advance and the claim counters' advance are at least what Lockstep
//! compares after one unrecorded call, so a case needs no simulator beside
//! the machine under test.  [`check`] runs cases on every machine each
//! lists, and on the simulator also requires every call but a claim to
//! take EREW steps only.  [`ByStages`] keeps the trait's default routes and the six-step
//! claim, which `tests/step_kernel_cost.rs` prices each kernel against and
//! [`check`] runs every compaction, exclusive claim and list ranking on.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qrqw_suite::exec::{NativeMachine, StepPool, SHARD_CELLS};
use qrqw_suite::sim::{claim_by_steps, ClaimMode, CostReport, Machine, MachineProc, EMPTY};

use super::lockstep::{each_machine, forward_machine, pairs_of, Pair, NATIVE, THREADS};

/// A machine call with a native kernel, and its shape; the §5.1 claim
/// protocol is one in each mode.
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
    /// `claim` of the case's attempts, onto the loaded input.
    Claim(ClaimMode),
    /// `list_rank` of the loaded successors into a rank region at an
    /// address.
    ListRank(usize),
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
    /// A claim's `(tag, target)` attempts; empty for the other calls.
    pub attempts: Vec<(u64, usize)>,
}

/// What a call left: `dump(0, end)` over the live prefix and the call's
/// output past it (a raw compaction's survivors lie above the top it
/// restores), the result (a sum or survivor count, 1 or 0 for a global OR,
/// 0 for none), a claim's success vector (empty for the other calls),
/// `heap_top`, the step advance, and the advance of the claim attempts and
/// contended claims.
#[derive(PartialEq, Eq)]
pub struct After {
    memory: Vec<u64>,
    result: u64,
    success: Vec<bool>,
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
        let (want, have) = (&self.success, &got.success);
        let attempt = (0..want.len().max(have.len())).find(|&j| want.get(j) != have.get(j));
        let attempt = attempt.map(|j| (j, have.get(j), want.get(j)));
        let fields = |a: &After| (a.result, a.heap_top, a.advance, a.claims);
        let (have, want) = (fields(got), fields(self));
        Some(format!(
            "(result, heap_top, advance, claims) {have:?}, want {want:?}; \
             first (cell, value, want) {cell:?}; first (attempt, won, want) {attempt:?}"
        ))
    }
}

/// The bucket of a word in a counting pass over `buckets`: its second
/// byte, masked.
fn bucket_of(buckets: usize) -> impl Fn(u64) -> u64 + Sync + Copy {
    let mask = buckets as u64 - 1;
    move |w| (w >> 8) & mask
}

/// A report's claim attempts and contended claims.
fn counters(report: CostReport) -> [u64; 2] {
    [report.claim_attempts, report.contended_claims]
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
            Kernel::ListRank(rank) => rank + self.input.len(),
            _ => 0,
        };
        survivors.max(self.base + self.input.len())
    }

    /// The machines the case runs on: every native pair, and the
    /// simulator (walking on 2 threads) where the stage route is cheap
    /// enough.
    fn machines(&self) -> Vec<Pair> {
        let model = match self.kernel {
            // The stage and pointer-jumping routes are loops with no
            // shape-dependent path, so the simulator runs only the small
            // networks and lists.
            Kernel::Bitonic(..) | Kernel::ListRank(_) if self.input.len() > 1 << 13 => vec![],
            _ => vec![Pair::Sim(THREADS[1])],
        };
        [pairs_of(NATIVE), model].concat()
    }

    /// Loads the input into `m`, issues the call, and returns what it left
    /// and the call's wall time.
    pub fn run<M: Machine>(&self, m: &mut M) -> (After, Duration) {
        let (base, len) = (self.base, self.input.len());
        m.ensure_memory(self.top);
        m.load(base, &self.input);
        let before = (m.steps_executed(), counters(m.cost_report()));
        let mut success = Vec::new();
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
            Kernel::Claim(mode) => {
                success = m.claim(&self.attempts, mode);
                0
            }
            Kernel::ListRank(rank) => {
                m.list_rank(base, len, rank);
                0
            }
        };
        let wall = start.elapsed();
        let (now, heap_top) = (counters(m.cost_report()), m.heap_top());
        let after = After {
            memory: m.dump(0, heap_top.max(self.end(result))),
            result,
            success,
            heap_top,
            advance: m.steps_executed() - before.0,
            claims: [now[0] - before.1[0], now[1] - before.1[1]],
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
        let (mut success, mut claims) = (Vec::new(), [0, 0]);
        // The result, the step advance, and the cells the call ensures
        // (which moves the allocation top past them), 0 for none.
        let covered = base + len;
        let (result, advance, ensured) = match self.kernel {
            Kernel::ScanStep => (prefix_sums(range, true), 1, 0),
            Kernel::GlobalOr => {
                let set = range.iter().any(|&v| v != 0 && v != EMPTY);
                (set as u64, 1, 0)
            }
            Kernel::Compact(dst) => {
                let kept: Vec<u64> = range.iter().copied().filter(|&v| v != EMPTY).collect();
                memory.resize(memory.len().max(dst + kept.len()), EMPTY);
                memory[dst..dst + kept.len()].copy_from_slice(&kept);
                let (advance, ensured) = if len == 0 { (0, 0) } else { (3, covered) };
                (kept.len() as u64, advance, ensured)
            }
            Kernel::Bitonic(seg, segs) => {
                // A sorting network leaves every segment sorted, whatever
                // the order of its stages.
                range.chunks_mut(seg).for_each(<[u64]>::sort_unstable);
                let l = if segs == 0 { 0 } else { lg(seg) };
                (0, l * (l + 1) / 2, if l > 0 { covered } else { 0 })
            }
            Kernel::ScanTree(inclusive) => {
                let steps = if len == 0 { 0 } else { 2 * lg(len) + 3 };
                (prefix_sums(range, inclusive), steps, 0)
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
                (
                    0,
                    if len <= 1 { 0 } else { steps },
                    if len > 1 { covered } else { 0 },
                )
            }
            Kernel::Claim(mode) => {
                let attempts = &self.attempts;
                let ensured = attempts.iter().map(|&(_, a)| a + 1).max().unwrap_or(0);
                memory.resize(memory.len().max(ensured), EMPTY);
                // An attempt is live when its target is EMPTY at the start.
                // Exclusive gives a cell to its only live claimant (a
                // contested cell stays EMPTY); Occupy gives it to the
                // lowest live claimant index, and the cell keeps that
                // claimant's tag.
                let mut live: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                for (j, &(_, cell)) in attempts.iter().enumerate() {
                    if memory[cell] == EMPTY {
                        live.entry(cell).or_default().push(j);
                    }
                }
                success = vec![false; attempts.len()];
                for (cell, claimants) in &live {
                    if mode == ClaimMode::Occupy || claimants.len() == 1 {
                        success[claimants[0]] = true;
                        memory[*cell] = attempts[claimants[0]].0;
                    }
                }
                let live = live.values().map(Vec::len).sum::<usize>() as u64;
                let won = success.iter().filter(|&&won| won).count() as u64;
                claims = [live, live - won];
                let advance = match mode {
                    _ if attempts.is_empty() => 0,
                    ClaimMode::Exclusive => 6,
                    ClaimMode::Occupy => 3,
                };
                (0, advance, ensured)
            }
            Kernel::ListRank(rank) => {
                let ranks = list_ranks(&self.input);
                memory.resize(memory.len().max(rank + len), EMPTY);
                memory[rank..rank + len].copy_from_slice(&ranks);
                match len {
                    0 => (0, 0, 0),
                    _ => (0, 2 * lg(len).max(1) + 2, covered.max(rank + len)),
                }
            }
        };
        let heap_top = top.max(ensured);
        memory.truncate(heap_top.max(self.end(result)));
        After {
            memory,
            result,
            success,
            heap_top,
            advance,
            claims,
        }
    }
}

/// Every node's number of links to the end of its list, walked on the
/// host from the heads of the NIL-terminated lists `succ`.
fn list_ranks(succ: &[u64]) -> Vec<u64> {
    let mut named = vec![false; succ.len()];
    succ.iter()
        .filter(|&&s| s != EMPTY)
        .for_each(|&s| named[s as usize] = true);
    let mut ranks = vec![0; succ.len()];
    for head in (0..succ.len()).filter(|&i| !named[i]) {
        let mut list = vec![head];
        while let Some(&next) = succ.get(list[list.len() - 1]).filter(|&&s| s != EMPTY) {
            list.push(next as usize);
        }
        for (at, &node) in list.iter().enumerate() {
            ranks[node] = (list.len() - 1 - at) as u64;
        }
    }
    ranks
}

/// The successors of lists visiting the nodes `0..order.len()` in the
/// order `order`, a list ending after position `p` where `ends(p)`.
pub fn lists(order: &[usize], ends: impl Fn(usize) -> bool) -> Vec<u64> {
    let mut succ = vec![EMPTY; order.len()];
    for (p, pair) in order.windows(2).enumerate() {
        if !ends(p) {
            succ[pair[0]] = pair[1] as u64;
        }
    }
    succ
}

/// The nodes `0..n` in a seeded random order.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        (i as u64 ^ seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    });
    order
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
            attempts: Vec::new(),
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
    // Compactions of no cells, of only EMPTY cells and of no EMPTY cell.
    let full = (0..20).map(|i| 2 * i).collect();
    for input in [vec![], vec![EMPTY; 20], full] {
        add(Kernel::Compact(36), input, 16, 56);
    }
    // Scan and global OR over the start of memory; EMPTY and 0 are unset.
    let n = 50_000;
    add(Kernel::ScanStep, mixed(n, 11), 0, n);
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

    // Lists, ruled by their heads and every node at a multiple of the
    // kernel's 128-node ruler stride (`RULER_STRIDE` in
    // `crates/exec/src/machine.rs`), the ranks loaded past the successors:
    // one random chain of 2^18 nodes across the 2^18-cell shard seam;
    // random lists of about four nodes, single nodes among them, pooled
    // and inline; all NIL; one node and a pair; a chain through every
    // node off the stride (each stride node alone), ruled by its head
    // alone; a reversed chain; and no nodes.
    let n = 1 << 18;
    let chain = lists(&shuffled(n, 1), |_| false);
    let ends = |p: usize| (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 < 2;
    let (mut order, stride): (Vec<usize>, Vec<usize>) =
        shuffled(3000, 4).into_iter().partition(|i| i % 128 != 0);
    let chained = order.len();
    order.extend(stride);
    let unstrided = lists(&order, |p| p + 1 >= chained);
    for input in [
        chain,
        lists(&shuffled(5000, 2), ends),
        lists(&shuffled(1000, 3), ends),
        vec![EMPTY; 3000],
        vec![EMPTY],
        vec![EMPTY, 0],
        unstrided,
        (0..5000u64)
            .map(|i| i.checked_sub(1).unwrap_or(EMPTY))
            .collect(),
        vec![],
    ] {
        let base = SHARD_CELLS - 5000;
        add(Kernel::ListRank(base + input.len()), input, base, 16);
    }

    // Claims in both modes onto a loaded region whose every fifth cell is
    // occupied.  Attempt j has tag 2j + 1 and aims at a hash of j over
    // `span` cells from `base`.  Each listed set of attempts then moves to
    // a fresh cell of its own past the span and the top, so it is exactly
    // that cell's collision set, and a listed tag replaces the default: an
    // even tag names a rival's index, and the largest tag is EMPTY - 2.
    let hash = |j: usize| (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    for (k, base, loaded, span, sets, tags) in [
        // No attempts.
        (0, 0, 8, 8, vec![], vec![]),
        // Inline (at most 2048 attempts): an Occupy winner tagged with the
        // index of a later rival on its cell, EMPTY - 2 landing first on a
        // contested cell, a pair across a bitset word, the last attempt
        // alone in the last partial word.
        (
            1000,
            16,
            600,
            600,
            vec![vec![10, 20], vec![1, 2, 700], vec![63, 64], vec![999]],
            vec![(10, 20), (1, EMPTY - 2)],
        ),
        // Pooled: pairs across chunks (512 attempts at 2 and 5 threads),
        // across a chunk boundary and across a word with the last attempt,
        // the tag hazard across chunks, EMPTY - 2 alone.
        (
            3001,
            16,
            2000,
            2000,
            vec![
                vec![100, 2900],
                vec![511, 512],
                vec![63, 64, 3000],
                vec![10, 1000],
                vec![5],
            ],
            vec![(10, 1000), (5, EMPTY - 2)],
        ),
        // 6000 claimants over 97 cells.
        (6000, 16, 97, 97, vec![], vec![]),
        // Targets past the starting top, across the 2^18-cell shard seam.
        (
            4099,
            SHARD_CELLS - 2000,
            1000,
            4000,
            vec![vec![0, 4098]],
            vec![],
        ),
    ] {
        let mut attempts: Vec<(u64, usize)> = (0..k)
            .map(|j| (2 * j as u64 + 1, base + (hash(j) % span as u64) as usize))
            .collect();
        for (fresh, set) in sets.iter().enumerate() {
            set.iter()
                .for_each(|&j| attempts[j].1 = base + span + fresh);
        }
        tags.iter().for_each(|&(j, tag)| attempts[j].0 = tag);
        let region = (0..loaded as u64).map(|i| if i % 5 == 2 { i + 1 } else { EMPTY });
        for mode in [ClaimMode::Exclusive, ClaimMode::Occupy] {
            cases.push(Case {
                kernel: Kernel::Claim(mode),
                input: region.clone().collect(),
                base,
                top: (base + loaded).max(16),
                attempts: attempts.clone(),
            });
        }
    }
    cases
}

/// Runs every case whose call `pick` selects on every machine the case
/// lists, each on a fresh machine, against the case's oracle, and on the
/// simulator every call but a claim to a maximum contention of 1 (the
/// EREW check of the default routes, which the simulator runs); a
/// compaction, an exclusive claim and a list ranking also on [`ByStages`]
/// over a 2-thread pool.  `ByStages` runs the trait's default route as
/// truly concurrent steps, so a route whose processors race shows there,
/// where the model backends' snapshot reads hide it.  (The other calls'
/// routes on it would double the table's time, and an occupy claim's
/// winner on the step route there is whichever writer lands last.)
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
            compare(&format!("{pair:?}"), case.run(&mut m).0);
            // The default routes are EREW: on the simulator, no step of
            // one queues two accesses on a cell.  (A claim is contended by
            // design.)
            let contention = m.cost_report().max_contention;
            if contention.is_some() && !matches!(case.kernel, Kernel::Claim(_)) {
                let (kernel, len, base) = (case.kernel, case.input.len(), case.base);
                assert_eq!(
                    contention,
                    Some(1),
                    "{kernel:?} case {i} ({len} cells at {base}) on {pair:?}: max contention"
                );
            }
        });
        if let Kernel::Compact(_) | Kernel::Claim(ClaimMode::Exclusive) | Kernel::ListRank(_) =
            case.kernel
        {
            let pool = StepPool::with_threads(2);
            let mut staged = ByStages(NativeMachine::with_pool(16, 0, pool));
            compare("ByStages(Native(2))", case.run(&mut staged).0);
        }
    }
}

/// A `NativeMachine` that keeps the trait's default `compact_step`,
/// `bitonic_segments`, `scan_tree`, `counting_pass` and `list_rank`, and
/// claims through [`claim_by_steps`]: each call's canonical route, one
/// `par_for` or `par_map` per step on the same pool.
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
        let (success, live, contended) = claim_by_steps(self, attempts, mode);
        self.0.contention().add(live, contended);
        success
    }
}
