//! Seeded program fuzzer for the dirty-page snapshot / restore path of
//! [`NativeMachine`].
//!
//! The incremental paths are exact only if **every** write site of the
//! machine marks the page it stores into.  Instead of trusting a list of
//! sites, this suite generates random short programs over every primitive
//! that writes shared memory and checks the two properties the serving
//! layer relies on:
//!
//! * `snapshot_into → program → restore` leaves `dump(0, heap_top)`,
//!   `heap_top`, `steps_executed` and the contention totals equal to the
//!   pre-image, and a replay of the program reproduces the same outputs and
//!   the same post-image;
//! * `snapshot_into → program → snapshot_into` leaves the incremental
//!   shadow equal, cell for cell, to a fresh full snapshot.
//!
//! Every case runs at threads {1, 2, 5} × {Chunked, Stealing}, on a machine
//! whose heap starts just below a shard boundary so allocations grow across
//! it.  A failing case prints its seed.

use qrqw_exec::{MachineSnapshot, NativeMachine, Schedule, StepPool, PAGE_CELLS, SHARD_CELLS};
use qrqw_sim::{ClaimMode, Machine, EMPTY};

/// SplitMix64: the whole fuzzer is a pure function of the case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Stored values stay below this, and a case scans at most [`MAX_SCANS`]
/// ranges of at most [`MAX_SCAN_LEN`] cells, so even scans compounding on
/// the same cells keep every prefix sum below 2¹⁶ · (2¹⁰)⁴ = 2⁵⁶.
const VALUE_BOUND: u64 = 1 << 16;
const MAX_SCANS: usize = 4;
const MAX_SCAN_LEN: usize = 1024;

/// One machine operation, with every address resolved at generation time
/// against the generator's model of the allocator.
#[derive(Debug, Clone)]
enum Op {
    /// `par_for` writing distinct cells of a power-of-two span.
    Write {
        base: usize,
        span: usize,
        n: usize,
        odd: usize,
        salt: u64,
    },
    /// `par_map` reading cells and drawing randomness (no writes).
    Map {
        base: usize,
        len: usize,
        n: usize,
    },
    /// `seq_step` read-modify-writing a few cells.
    Seq {
        cells: Vec<usize>,
    },
    /// `claim` with duplicate target cells.
    Claim {
        attempts: Vec<(u64, usize)>,
        mode: ClaimMode,
    },
    /// `scan_step` (`tree: None`) or `scan_tree(base, len, inclusive)`
    /// (`tree: Some(inclusive)`).
    Scan {
        base: usize,
        len: usize,
        tree: Option<bool>,
    },
    /// `counting_pass` by the value's bits above the lowest four.
    Count {
        base: usize,
        len: usize,
        num_buckets: usize,
    },
    /// `compact_step` into a destination below the allocation top.
    Compact {
        src: usize,
        len: usize,
        dst: usize,
    },
    /// `bitonic_segments` over `segs` segments of `seg` cells.
    Bitonic {
        base: usize,
        seg: usize,
        segs: usize,
    },
    /// A load of NIL-terminated lists at `succ`, then `list_rank` of
    /// them into a rank region in another region.
    ListRank {
        succ: usize,
        lists: Vec<u64>,
        rank: usize,
    },
    /// `fill_forward` over a range.
    Fill {
        base: usize,
        len: usize,
    },
    /// `duplicate` of `k` cells at `src` into `copies` copies each at
    /// `dest`, in another region.
    Duplicate {
        src: usize,
        k: usize,
        dest: usize,
        copies: usize,
    },
    Load {
        base: usize,
        values: Vec<u64>,
    },
    Poke {
        addr: usize,
        value: u64,
    },
    Clear {
        base: usize,
        len: usize,
    },
    /// `alloc(len)`; must return `expect`.
    Alloc {
        len: usize,
        expect: usize,
    },
    Release {
        to: usize,
    },
}

/// The generator's model of the machine's allocator: the regions a program
/// may address (all below `top`) and the allocation top.
#[derive(Debug, Clone)]
struct Model {
    /// Regions that are never released (carved out of the initial memory).
    fixed: Vec<(usize, usize)>,
    /// Stack of allocated regions, bottom first.
    stack: Vec<(usize, usize)>,
    top: usize,
    /// Scans the case may still generate (see [`MAX_SCANS`]).
    scans_left: usize,
}

impl Model {
    fn regions(&self) -> usize {
        self.fixed.len() + self.stack.len()
    }

    fn nth(&self, i: usize) -> (usize, usize) {
        if i < self.fixed.len() {
            self.fixed[i]
        } else {
            self.stack[i - self.fixed.len()]
        }
    }

    fn region(&self, rng: &mut Rng) -> (usize, usize) {
        self.nth(rng.below(self.regions()))
    }

    /// A sub-range of some region, at most `max` cells long.
    fn range(&self, rng: &mut Rng, max: usize) -> (usize, usize) {
        let (base, len) = self.region(rng);
        let sub = 1 + rng.below(len.min(max));
        (base + rng.below(len - sub + 1), sub)
    }
}

fn gen_program(rng: &mut Rng, model: &mut Model) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..4 + rng.below(8) {
        let op = match rng.below(17) {
            0 | 1 => {
                let (base, len) = model.range(rng, 8192);
                let span = if len.is_power_of_two() {
                    len
                } else {
                    len.next_power_of_two() / 2
                };
                Op::Write {
                    base,
                    span,
                    n: 1 + rng.below(span),
                    odd: rng.below(span) | 1,
                    salt: rng.next() % VALUE_BOUND,
                }
            }
            2 => {
                let (base, len) = model.range(rng, 4096);
                Op::Map {
                    base,
                    len,
                    n: 1 + rng.below(3000),
                }
            }
            3 => {
                let (base, len) = model.region(rng);
                Op::Seq {
                    cells: (0..1 + rng.below(6))
                        .map(|_| base + rng.below(len))
                        .collect(),
                }
            }
            4 | 5 => {
                let (base, len) = model.range(rng, 2048);
                let k = 1 + rng.below(5000);
                Op::Claim {
                    attempts: (0..k)
                        .map(|_| (1 + rng.next() % (VALUE_BOUND - 1), base + rng.below(len)))
                        .collect(),
                    mode: if rng.below(2) == 0 {
                        ClaimMode::Exclusive
                    } else {
                        ClaimMode::Occupy
                    },
                }
            }
            6 if model.scans_left > 0 => {
                model.scans_left -= 1;
                let (base, len) = model.range(rng, MAX_SCAN_LEN);
                Op::Scan {
                    base,
                    len,
                    tree: [None, Some(false), Some(true)][rng.below(3)],
                }
            }
            7 => {
                // Source and destination in two different regions (the
                // gather pass may not read what it writes), the
                // destination with room for every survivor.
                let i = rng.below(model.regions());
                let j = (i + 1 + rng.below(model.regions() - 1)) % model.regions();
                let ((sbase, slen), (dbase, dlen)) = (model.nth(i), model.nth(j));
                let len = 1 + rng.below(slen.min(dlen).min(4096));
                Op::Compact {
                    src: sbase + rng.below(slen - len + 1),
                    len,
                    dst: dbase + rng.below(dlen - len + 1),
                }
            }
            8 => {
                let (base, len) = model.range(rng, 6000);
                Op::Load {
                    base,
                    values: (0..len).map(|_| rng.next() % VALUE_BOUND).collect(),
                }
            }
            9 => {
                let (base, len) = model.region(rng);
                Op::Poke {
                    addr: base + rng.below(len),
                    value: rng.next() % VALUE_BOUND,
                }
            }
            10 => {
                let (base, len) = model.range(rng, 6000);
                Op::Clear { base, len }
            }
            11 => {
                // Half the time the region across the shard boundary, once
                // the stack reaches past it, and independently half the
                // time the widest segment that fits: the 40 000-cell region
                // then reaches the native kernel's whole-range passes.
                let across = (0..model.regions())
                    .map(|i| model.nth(i))
                    .find(|&(base, len)| base < SHARD_CELLS && base + len > SHARD_CELLS);
                let (base, len) = match across {
                    Some(region) if rng.below(2) == 0 => region,
                    _ => model.region(rng),
                };
                let widest = len.ilog2() as usize;
                let seg = 1 << (widest - rng.below(2) * rng.below(widest + 1));
                let segs = 1 + rng.below(len / seg);
                Op::Bitonic {
                    base: base + rng.below(len - seg * segs + 1),
                    seg,
                    segs,
                }
            }
            12 => {
                let (base, len) = model.range(rng, 20_000);
                Op::Count {
                    base,
                    len,
                    num_buckets: [1, 2, 256, 4096][rng.below(4)],
                }
            }
            13 => {
                // Successors and ranks in two different regions, as for a
                // compaction: random lists of about four nodes over a
                // random order of the nodes.
                let i = rng.below(model.regions());
                let j = (i + 1 + rng.below(model.regions() - 1)) % model.regions();
                let ((sbase, slen), (rbase, rlen)) = (model.nth(i), model.nth(j));
                let n = 1 + rng.below(slen.min(rlen).min(6000));
                let mut order: Vec<usize> = (0..n).collect();
                for k in (1..n).rev() {
                    order.swap(k, rng.below(k + 1));
                }
                let mut lists = vec![EMPTY; n];
                for pair in order.windows(2) {
                    if rng.below(4) != 0 {
                        lists[pair[0]] = pair[1] as u64;
                    }
                }
                Op::ListRank {
                    succ: sbase + rng.below(slen - n + 1),
                    lists,
                    rank: rbase + rng.below(rlen - n + 1),
                }
            }
            14 => {
                let (base, len) = model.range(rng, 20_000);
                Op::Fill { base, len }
            }
            15 => {
                // Source and copies in two different regions, as for a
                // compaction.
                let i = rng.below(model.regions());
                let j = (i + 1 + rng.below(model.regions() - 1)) % model.regions();
                let ((sbase, slen), (dbase, dlen)) = (model.nth(i), model.nth(j));
                let copies = 1 + rng.below(dlen.min(3000));
                let k = 1 + rng.below(slen.min(dlen / copies));
                Op::Duplicate {
                    src: sbase + rng.below(slen - k + 1),
                    k,
                    dest: dbase + rng.below(dlen - k * copies + 1),
                    copies,
                }
            }
            _ => {
                if !model.stack.is_empty() && rng.below(3) == 0 {
                    let keep = rng.below(model.stack.len());
                    let to = model.stack[keep].0;
                    model.stack.truncate(keep);
                    model.top = to;
                    Op::Release { to }
                } else {
                    let len = 1 + rng.below(5000);
                    let expect = model.top;
                    model.stack.push((expect, len));
                    model.top += len;
                    Op::Alloc { len, expect }
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// Runs `ops` and returns everything the program observed.
fn run(m: &mut NativeMachine, ops: &[Op]) -> Vec<u64> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Write {
                base,
                span,
                n,
                odd,
                salt,
            } => {
                let (base, span, odd, salt) = (*base, *span, *odd, *salt);
                m.par_for(*n, |p, ctx| {
                    // `odd` is coprime to the power-of-two span: distinct
                    // processors write distinct cells.
                    let addr = base + (p.wrapping_mul(odd) & (span - 1));
                    ctx.write(
                        addr,
                        (p as u64).wrapping_mul(31).wrapping_add(salt) % VALUE_BOUND,
                    );
                });
            }
            Op::Map { base, len, n } => {
                let (base, len) = (*base, *len);
                out.extend(m.par_map(*n, |p, ctx| {
                    let v = ctx.read(base + p % len);
                    v.wrapping_add(ctx.random_index(1 << 20) as u64)
                }));
            }
            Op::Seq { cells } => {
                out.push(m.seq_step(|ctx| {
                    let mut acc = ctx.random_index(1 << 10) as u64;
                    for &c in cells {
                        let v = ctx.read(c);
                        acc = acc.wrapping_add(v);
                        ctx.write(c, acc % VALUE_BOUND);
                    }
                    acc
                }));
            }
            Op::Claim { attempts, mode } => {
                out.extend(m.claim(attempts, *mode).into_iter().map(u64::from));
            }
            Op::Scan { base, len, tree } => out.push(match *tree {
                None => m.scan_step(*base, *len),
                Some(inclusive) => m.scan_tree(*base, *len, inclusive),
            }),
            Op::Count {
                base,
                len,
                num_buckets,
            } => {
                let mask = *num_buckets as u64 - 1;
                m.counting_pass(*base, *len, *num_buckets, |w| (w >> 4) & mask);
            }
            Op::Compact { src, len, dst } => out.push(m.compact_step(*src, *len, *dst)),
            Op::Bitonic { base, seg, segs } => m.bitonic_segments(*base, *seg, *segs),
            Op::ListRank { succ, lists, rank } => {
                m.load(*succ, lists);
                m.list_rank(*succ, lists.len(), *rank);
            }
            Op::Fill { base, len } => m.fill_forward(*base, *len),
            Op::Duplicate {
                src,
                k,
                dest,
                copies,
            } => m.duplicate(*src, *k, *dest, *copies),
            Op::Load { base, values } => m.load(*base, values),
            Op::Poke { addr, value } => m.poke(*addr, *value),
            Op::Clear { base, len } => m.clear_region(*base, *len),
            Op::Alloc { len, expect } => {
                let base = m.alloc(*len);
                assert_eq!(base, *expect, "the allocator model drifted");
                out.push(base as u64);
            }
            Op::Release { to } => m.release_to(*to),
        }
    }
    out
}

/// Everything a rollback must reproduce.
#[derive(Debug, PartialEq)]
struct Image {
    cells: Vec<u64>,
    heap_top: usize,
    steps: u64,
    attempts: u64,
    failures: u64,
}

fn image(m: &NativeMachine) -> Image {
    Image {
        cells: m.dump(0, m.heap_top()),
        heap_top: m.heap_top(),
        steps: m.steps_executed(),
        attempts: m.contention().attempts(),
        failures: m.contention().failures(),
    }
}

/// A machine whose heap starts 2048 cells below the first shard boundary,
/// with three addressable regions carved out of the initial memory (one
/// wide enough for a bitonic segment of 2^15 cells) and a model that
/// tracks it.
fn machine(seed: u64, pool: StepPool) -> (NativeMachine, Model) {
    let size = SHARD_CELLS - 2048;
    let mut m = NativeMachine::with_pool(size, seed, pool);
    let fixed = vec![(1000, 9000), (12_000, 40_000), (size - 7000, 7000)];
    for &(base, len) in &fixed {
        let values: Vec<u64> = (0..len as u64).map(|i| (i * 7 + seed) % 97).collect();
        m.load(base, &values);
    }
    let model = Model {
        fixed,
        stack: Vec::new(),
        top: size,
        scans_left: MAX_SCANS,
    };
    (m, model)
}

/// Every pool shape: one thread (which runs every dispatch inline and
/// never reads its schedule), and 2 and 5 under both schedules.
fn pools() -> Vec<StepPool> {
    let mut pools = vec![StepPool::with_threads(1)];
    for threads in [2, 5] {
        for schedule in Schedule::ALL {
            pools.push(StepPool::with_threads(threads).with_schedule(schedule));
        }
    }
    pools
}

/// The bitonic networks of `ops` that the native kernel runs with
/// whole-range passes (segments over 2^14 cells), and those whose range
/// crosses the shard boundary.
fn bitonic_reach(ops: &[Op]) -> [usize; 2] {
    let mut reach = [0, 0];
    for op in ops {
        if let Op::Bitonic { base, seg, segs } = *op {
            if seg > 1 && segs > 0 {
                reach[0] += (seg > 1 << 14) as usize;
                reach[1] += (base < SHARD_CELLS && base + seg * segs > SHARD_CELLS) as usize;
            }
        }
    }
    reach
}

/// One fuzz case: a prelude on the unarmed machine, then rounds of
/// checkpoint → program → rollback → replay on one persistent shadow.
/// Returns the [`bitonic_reach`] of its programs.
fn case(seed: u64, pool: StepPool) -> [usize; 2] {
    let mut rng = Rng(seed);
    let (mut m, mut model) = machine(seed, pool);
    // History from before the first snapshot: the arming snapshot must be
    // a full copy that needs no marks.
    let prelude = gen_program(&mut rng, &mut model);
    run(&mut m, &prelude);
    let mut reach = bitonic_reach(&prelude);

    let mut shadow = MachineSnapshot::default();
    for round in 0..3 {
        m.snapshot_into(&mut shadow);
        assert!(m.is_current(&shadow));
        let pre = image(&m);
        assert_eq!(shadow.cells(), &pre.cells[..], "round {round}: shadow");
        if round == 0 {
            assert_eq!(shadow.copied_cells(), pre.heap_top, "first sync is full");
        }

        let program = gen_program(&mut rng, &mut model);
        let [wide, straddling] = bitonic_reach(&program);
        reach = [reach[0] + wide, reach[1] + straddling];
        let first = run(&mut m, &program);
        let post = image(&m);
        m.restore(&shadow);
        assert_eq!(image(&m), pre, "round {round}: rollback is not exact");
        assert!(m.is_current(&shadow), "a rollback keeps the shadow current");

        let replay = run(&mut m, &program);
        assert_eq!(replay, first, "round {round}: replay outputs differ");
        assert_eq!(image(&m), post, "round {round}: replay post-image differs");
    }

    // The incremental shadow equals a fresh full snapshot cell for cell.
    m.snapshot_into(&mut shadow);
    let incremental_copied = shadow.copied_cells();
    let mut fresh = MachineSnapshot::default();
    m.snapshot_into(&mut fresh);
    assert_eq!(fresh.copied_cells(), m.heap_top());
    assert!(incremental_copied <= fresh.copied_cells());
    assert_eq!(shadow.cells(), fresh.cells(), "incremental shadow drifted");
    assert_eq!(shadow.heap_top(), fresh.heap_top());
    assert_eq!(shadow.steps_executed(), fresh.steps_executed());
    assert!(!m.is_current(&shadow), "the fresh snapshot superseded it");
    reach
}

/// Runs `f`, printing the case coordinates if it panics.
fn reporting(seed: u64, pool: &StepPool, f: impl FnOnce()) {
    if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        eprintln!(
            "snapshot_fuzz FAILED: seed={seed} threads={} schedule={:?}",
            pool.threads(),
            pool.schedule()
        );
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn random_programs_roll_back_and_resync_exactly() {
    let mut reach = [0, 0];
    for (i, pool) in pools().into_iter().enumerate() {
        for s in 0..12u64 {
            let seed = 0x5EED_0000 + 1000 * i as u64 + s;
            reporting(seed, &pool, || {
                let [wide, straddling] = case(seed, pool.clone());
                reach = [reach[0] + wide, reach[1] + straddling];
            });
        }
    }
    // The sweep meets the bitonic kernel's whole-range passes and networks
    // across the shard boundary.
    assert!(reach[0] > 0 && reach[1] > 0, "bitonic reach {reach:?}");
}

#[test]
#[should_panic(expected = "epoch rule")]
fn restoring_a_superseded_snapshot_panics_naming_the_epoch_rule() {
    let mut rng = Rng(77);
    let (mut m, mut model) = machine(77, StepPool::with_threads(2));
    let mut old = MachineSnapshot::default();
    m.snapshot_into(&mut old);
    run(&mut m, &gen_program(&mut rng, &mut model));
    // A second buffer supersedes the first: the dirty map reaches back only
    // to it.
    m.snapshot_into(&mut MachineSnapshot::default());
    assert!(!m.is_current(&old));
    m.restore(&old);
}

#[test]
fn a_warm_resnapshot_with_nothing_dirty_copies_no_cells() {
    let (mut m, _) = machine(3, StepPool::with_threads(2));
    let mut shadow = MachineSnapshot::default();
    m.snapshot_into(&mut shadow);
    assert_eq!(shadow.copied_cells(), m.heap_top());
    // Reads, and writes that are rolled back, leave nothing to copy.
    let _ = m.par_map(5000, |p, ctx| ctx.read(p));
    m.snapshot_into(&mut shadow);
    assert_eq!(shadow.copied_cells(), 0);
    m.poke(1234, 5);
    m.restore(&shadow);
    m.snapshot_into(&mut shadow);
    assert_eq!(shadow.copied_cells(), 0);
    // One written cell costs one page.
    m.poke(1234, 5);
    m.snapshot_into(&mut shadow);
    assert_eq!(shadow.copied_cells(), PAGE_CELLS);
    assert_eq!(shadow.cells()[1234], 5);
}

#[test]
fn a_rollback_empties_what_the_program_allocated_above_the_snapshot_top() {
    // Growth across the shard boundary after the snapshot: the rolled-back
    // cells read EMPTY again when re-allocated, and the arena keeps its
    // shards.
    let (mut m, _) = machine(9, StepPool::with_threads(2));
    let mut shadow = MachineSnapshot::default();
    m.snapshot_into(&mut shadow);
    let top = m.heap_top();
    let base = m.alloc(6000);
    assert_eq!(base, top);
    let values: Vec<u64> = (1..=6000).collect();
    m.load(base, &values);
    assert_eq!(m.arena_stats().shards, 2, "the allocation crossed a shard");
    m.restore(&shadow);
    assert_eq!(m.heap_top(), top);
    assert_eq!(m.arena_stats().shards, 2);
    assert!((base..base + 6000).all(|a| m.peek(a) == EMPTY));
}
