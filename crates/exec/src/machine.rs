//! [`NativeMachine`]: the native shared-memory implementation of the
//! [`Machine`] backend API.
//!
//! Shared memory is a flat arena of [`AtomicU64`] cells; a step fans its
//! virtual processors out over real threads (threads contending on atomic
//! cells play the role of the MasPar router queues of the Section 5.2
//! experiment).  The backend keeps the full `Machine` contract:
//!
//! * every step is a barrier (the pool dispatch joins before the step
//!   returns), so steps are synchronous;
//! * per-processor randomness comes from the same
//!   [`qrqw_sim::rng::proc_rng`] streams as the simulator, and every
//!   operation advances the step index by the amount the contract
//!   prescribes, so the same algorithm draws the same random numbers on
//!   both backends;
//! * [`Machine::claim`] is implemented with compare-and-swap: a probe pass,
//!   a CAS pass, and (for [`ClaimMode::Exclusive`]) a poison pass plus a
//!   verify-and-restore pass, separated by barriers.  Exclusive claims are
//!   therefore exactly as deterministic as on the simulator — an attempt
//!   succeeds iff it is the only live claim on its cell — while occupy
//!   claims hand the cell to the lowest claimant index (a `fetch_min`
//!   bidding pass), whichever thread gets there first.
//!
//! # Execution hot path
//!
//! Steps never spawn threads and (after warm-up) never touch the heap for
//! scratch state:
//!
//! * shared memory is a sharded `Arena` (see [`crate::arena`]):
//!   cache-line-aligned [`crate::arena::SHARD_CELLS`]-cell shards behind a flat pointer
//!   table, addressed by shift+mask — growth *appends* shards, it never
//!   moves existing cells (no realloc copy, no transient 2× footprint);
//! * dispatch goes through [`StepPool`] to the process-wide persistent
//!   worker pool — parked threads, one wake per step, contiguous chunks
//!   claimed dynamically;
//! * each chunk runs one `NativeProc` context with one lazily re-seeded
//!   RNG slot, re-pointed per virtual processor, instead of constructing a
//!   context per processor;
//! * **the inlining rule**: anything a step closure calls per virtual
//!   processor is `#[inline]` — `NativeProc`'s five [`MachineProc`]
//!   methods, [`qrqw_sim::proc_rng`], the vendored `SmallRng`'s seeding and
//!   draw — because step closures are monomorphised in downstream crates
//!   and every consumer of these crates builds without LTO: without the
//!   attribute each `ctx.read` is an out-of-line call around a bounds
//!   check and a load.  The chunk's context also holds the arena's length,
//!   shard table and armed flag *by value* (`ArenaView`), so the
//!   per-processor loop does not reload them behind every store.
//!   `tests/step_kernel_cost.rs` pins the resulting cost against a raw
//!   loop over a `Vec<AtomicU64>`.  The machine's own kernels (claim,
//!   scan, compaction, counting, list ranking, global OR, `peek` / `poke`)
//!   reach cells
//!   through the same view, taken once per call after any growth, and
//!   walk a chunk block by block through one helper, `for_blocks`;
//! * `claim` keeps its `live` / `cas_won` pass state in reusable
//!   bitset-backed scratch buffers (one bit per attempt, chunk boundaries
//!   word-aligned so chunks own whole words), and aggregates contention
//!   bookkeeping per chunk into two atomic adds via
//!   [`ContentionCounter::add`];
//! * `scan_step` and `scan_tree` share one blocked scan — block sums, a
//!   serial scan of the block offsets, a fill, as one pool dispatch — with
//!   its per-block offset table in reusable scratch, so the Blelloch tree's
//!   `2·lg w + 3` steps cost one read and one write sweep;
//! * `counting_pass` (the Fact 4.3 pass) is one 4-pass dispatch: a bucket
//!   histogram per block in the same offset table, a serial bucket-major
//!   scan of those histograms into ranks, a stable scatter into a reusable
//!   spill buffer, and a copy back — the count matrix and the output copy
//!   of the default route never touch the arena;
//! * `list_rank` ranks a sparse ruling set (Helman and JáJá) in one 4-pass
//!   dispatch with `O(n)` work, where the default route's pointer jumping
//!   does `O(n lg n)` in `2·max(1, ⌈lg n⌉) + 2` steps: every successor
//!   marks the node it names; every node at a multiple of `RULER_STRIDE`
//!   and every unmarked node (a head) walks its sublist to the next stride
//!   node, `WALKS_IN_FLIGHT` walks interleaved per chunk, each prefetching
//!   its next node; one serial pass ranks the stride rulers' chains; a
//!   fill writes every rank.  Its marks, per-node places and per-ruler
//!   links live in reused scratch, two words per node, and the kernel
//!   panics on successors that do not form NIL-terminated lists with at
//!   most one predecessor per node;
//! * `bitonic_segments` runs the whole network as block-resident passes:
//!   every stage with `k <= BITONIC_BLOCK` in one pass, block by block,
//!   and per larger `k` one whole-range pass per stage `j >= BITONIC_BLOCK`
//!   plus one block-resident pass for the rest, whose last three stages
//!   per `k` run in registers over 8-cell groups — the same
//!   compare–exchanges as the stage route, over plain word slices, with no
//!   scratch at all;
//! * bulk memory traffic (`load` / `dump` / `clear_region` and arena
//!   growth) is a parallel fill above the inline cutoff.
//!
//! The only per-call allocations left are the result vectors the `Machine`
//! API returns by value (`par_map`'s outputs, `claim`'s success flags),
//! written in place exactly once.  Thread count comes from the
//! [`StepPool`] handed to [`NativeMachine::with_pool`], or from the
//! `QRQW_THREADS` environment variable for [`Machine::with_seed`]; chunk
//! boundaries never affect what is computed for an index, so outputs of
//! deterministic algorithms are bit-identical at any thread count.
//!
//! What the simulator measures as queue contention, this backend *observes*:
//! the [`ContentionCounter`] records every live claim that lost its cell to
//! a same-step collision, and [`Machine::cost_report`] reports wall-clock
//! time plus that count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use qrqw_sim::machine::assert_lists_apart;
use qrqw_sim::proc_rng;
use qrqw_sim::schedule::ceil_lg;
use qrqw_sim::{ClaimMode, CostReport, Machine, MachineProc, EMPTY};

use crate::arena::{Arena, ArenaStats, ArenaView, PAGE_CELLS, SHARD_CELLS, SHARD_MASK};
use crate::contention::ContentionCounter;
use crate::handle::MachineSnapshot;
use crate::pool::{Schedule, SendPtr, StepPool};

/// Source of [`NativeMachine`] identities; starts at 1 so a default
/// [`MachineSnapshot`] (identity 0) never matches a machine.
static NEXT_MACHINE_ID: AtomicU64 = AtomicU64::new(1);

/// Sentinel written by exclusive-claim losers so the CAS winner can detect
/// that its cell was contested.  Claim tags must stay below this value
/// (every tag in the repository is an index-derived value far below it).
const POISON: u64 = u64::MAX - 1;

/// Cells per block of the blocked prefix of [`Machine::scan_step`] and
/// [`Machine::scan_tree`] and of the histograms of
/// [`Machine::counting_pass`]; also the chunk alignment of their
/// dispatches, so every block belongs to exactly one chunk.
const SCAN_BLOCK: usize = 8192;

/// Cells per block of the cache-blocked bitonic network in
/// [`Machine::bitonic_segments`] (128 KiB, L2-resident); also the chunk
/// alignment of its dispatches (the segment size when segments are
/// smaller), so every block belongs to one chunk.
const BITONIC_BLOCK: usize = 1 << 14;

/// How often the `global_or_step` scan re-polls the shared "found" flag.
const OR_POLL_MASK: usize = 0x1FF;

/// How far ahead the claim passes prefetch their (randomly scattered)
/// target cells — the passes are memory-latency-bound, not compute-bound.
const PREFETCH_DIST: usize = 16;

/// The ruler stride of [`Machine::list_rank`]'s sparse ruling set: every
/// node whose index is a multiple of it rules a sublist, as does every
/// list head.
const RULER_STRIDE: usize = 128;

/// Sublist walks a chunk of [`Machine::list_rank`] keeps in flight, each
/// prefetching its next node, so that their cache misses overlap.
const WALKS_IN_FLIGHT: usize = 32;

/// `list_rank`'s predecessor mark: the top bit over a per-call stamp, so
/// a mark never equals a [`link`] word or a mark of another call.
const LIST_MARK: u64 = 1 << 63;

/// `list_rank`'s tag on a stride ruler whose node count to the end of
/// its list is known.
const RANKED: u64 = 1 << 63;

/// Nodes `list_rank` accepts: node indices, offsets and counts fit the
/// 30-bit fields of [`link`] and [`place`].
const MAX_LIST_NODES: usize = 1 << 30;

/// Reusable step-pass scratch: grown on demand, never shrunk, so steady
/// workloads stop allocating after their first step of each shape.
#[derive(Default)]
struct Scratch {
    /// Claim pass: bit `i` set iff attempt `i` probed its cell [`EMPTY`].
    live: Vec<AtomicU64>,
    /// Claim pass: bit `i` set iff attempt `i` won its compare-and-swap.
    cas_won: Vec<AtomicU64>,
    /// Scan pass: per-[`SCAN_BLOCK`] totals, then exclusive offsets.
    /// Counting pass: one bucket histogram per block, then per-bucket
    /// output ranks.  List ranking: one [`link`] per stride ruler, then
    /// its node count to the end of its list, tagged [`RANKED`].
    offsets: Vec<AtomicU64>,
    /// Counting pass: the stably scattered words before the copy back.
    /// List ranking: every node's [`place`], its ruler and offset.
    spill: Vec<AtomicU64>,
    /// List ranking: every node's predecessor mark, and a head's
    /// [`link`].
    marks: Vec<AtomicU64>,
    /// List ranking: the stamp of the last call's marks.
    list_calls: u64,
}

fn ensure_words(buf: &mut Vec<AtomicU64>, words: usize) {
    if buf.len() < words {
        buf.resize_with(words, || AtomicU64::new(0));
    }
}

/// The native pooled-threads/atomics [`Machine`] backend.
pub struct NativeMachine {
    arena: Arena,
    seed: u64,
    steps_executed: u64,
    heap_top: usize,
    counter: ContentionCounter,
    created: Instant,
    pool: StepPool,
    scratch: Scratch,
    /// Process-unique identity, stamped into snapshots.
    id: u64,
    /// Bumped by every [`NativeMachine::snapshot_into`]: the snapshot
    /// stamped with the current value is the one the arena's dirty map is
    /// relative to.
    sync_epoch: u64,
}

impl NativeMachine {
    /// Creates a machine with `mem_size` cells (all [`EMPTY`]) and the
    /// given seed that dispatches on `pool` — thread count *and* schedule
    /// (e.g. `StepPool::with_threads(4).with_schedule(Schedule::Stealing)`);
    /// [`Machine::with_seed`] is this on [`StepPool::from_env`].
    pub fn with_pool(mem_size: usize, seed: u64, pool: StepPool) -> Self {
        let mut machine = NativeMachine {
            arena: Arena::default(),
            seed,
            steps_executed: 0,
            heap_top: mem_size,
            counter: ContentionCounter::new(),
            created: Instant::now(),
            pool,
            scratch: Scratch::default(),
            id: NEXT_MACHINE_ID.fetch_add(1, Ordering::Relaxed),
            sync_epoch: 0,
        };
        machine.grow(mem_size);
        machine
    }

    /// Number of threads (including the caller) this machine's steps use.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The backend name this machine reports: the schedule is part of the
    /// identity (`"native"` for chunked dispatch, `"native-steal"` for
    /// work-stealing), so harness rows and parity drift guards distinguish
    /// the two execution modes.
    fn backend_name(&self) -> &'static str {
        match self.pool.schedule() {
            Schedule::Chunked => "native",
            Schedule::Stealing => "native-steal",
        }
    }

    /// The contention instrumentation of this machine.
    pub fn contention(&self) -> &ContentionCounter {
        &self.counter
    }

    fn grow(&mut self, size: usize) {
        if size <= self.arena.len() {
            return;
        }
        // Append whole shards (existing cells never move — see the
        // grow-without-move invariant in `crate::arena`) and EMPTY-fill
        // only the fresh ones, parallelized over the step pool.
        let fresh = self.arena.reserve_shards(size);
        if !fresh.is_empty() {
            let arena = &self.arena;
            let base = fresh.start;
            self.pool.dispatch(fresh.len(), 1, |lo, hi| {
                // Safety: disjoint chunks fill disjoint cell ranges of
                // still-unpublished shards; `&mut self` rules out any
                // concurrent access to the arena.
                unsafe { arena.fill_empty(base + lo, hi - lo) };
            });
        }
        self.arena.set_len(size);
    }

    /// The shape of the sharded arena (logical cells, allocated shards).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Whether `snap` is this machine's **latest** snapshot: the buffer its
    /// dirty map is relative to.  Only such a buffer can be brought up to
    /// date, or rolled back to, by copying dirty pages alone; every
    /// [`NativeMachine::snapshot_into`] supersedes all earlier buffers
    /// (clones of the latest one carry the same stamp and the same cells,
    /// so they stay current with it).
    pub fn is_current(&self, snap: &MachineSnapshot) -> bool {
        snap.machine_id == self.id && snap.epoch == self.sync_epoch
    }

    /// Brings `snap` up to date with the machine's observable state — the
    /// live cell prefix `[0, heap_top)` plus the step and contention
    /// counters — and makes it the machine's latest snapshot.
    ///
    /// `snap` is a persistent **shadow**: when it already is the latest
    /// snapshot ([`NativeMachine::is_current`]) only the pages written
    /// since are copied, plus `[old_top, heap_top)` if the heap grew, so a
    /// per-batch checkpoint costs O(cells the batch wrote).  Any other
    /// buffer (fresh, superseded, or another machine's) gets the full
    /// pool-parallel copy of the prefix.  Either way the dirty map is left
    /// clean and [`MachineSnapshot::copied_cells`] reports what was copied.
    /// The first call arms the arena's dirty tracking.
    ///
    /// The RNG needs no saving: random draws are a pure function of
    /// `(seed, step_idx, proc)`, so restoring `steps_executed` restores
    /// every random stream exactly.
    pub fn snapshot_into(&mut self, snap: &mut MachineSnapshot) {
        let top = self.heap_top;
        debug_assert!(top <= self.arena.len(), "allocation top above the arena");
        if self.is_current(snap) {
            snap.cells.truncate(top);
        } else {
            self.arena.arm();
            snap.cells.clear();
        }
        // The shadow holds `[0, kept)` as of the last sync; a full copy is
        // the same procedure with nothing kept.
        let kept = snap.cells.len();
        let mut copied = top - kept;
        let arena = &self.arena;
        let shadow = &mut snap.cells;
        arena.take_dirty(|page| {
            if page < kept {
                let stale = &mut shadow[page..(page + PAGE_CELLS).min(kept)];
                // SAFETY: bulk copy out of the quiescent arena (`&mut self`:
                // no step is running) into a slice of exactly that length.
                unsafe { arena.copy_out(page, stale.as_mut_ptr(), stale.len()) };
                copied += stale.len();
            }
        });
        shadow.reserve(top - kept);
        let slots = SendPtr(shadow.as_mut_ptr());
        let slots = &slots;
        self.pool.dispatch(top - kept, 1, |lo, hi| {
            // SAFETY: as above, into disjoint slots of the reserved buffer.
            unsafe { arena.copy_out(kept + lo, slots.0.add(kept + lo), hi - lo) };
        });
        // SAFETY: `[0, kept)` was initialized, `[kept, top)` just written.
        unsafe { shadow.set_len(top) };
        self.sync_epoch += 1;
        snap.machine_id = self.id;
        snap.epoch = self.sync_epoch;
        snap.copied = copied;
        snap.heap_top = top;
        snap.steps_executed = self.steps_executed;
        snap.attempts = self.counter.attempts();
        snap.failures = self.counter.failures();
    }

    /// Rolls the machine back to `snap`: the cell prefix `[0, heap_top)` of
    /// the snapshot reads as it did then, the allocation top and the
    /// step/contention counters rewind — so post-restore execution
    /// (including its random draws) is indistinguishable from execution
    /// that started at the snapshot point.
    ///
    /// Only the pages written since the snapshot are touched: their cells
    /// below the snapshot's top are copied back and their cells above it
    /// read [`EMPTY`] again.  Cells above the top need no pre-image —
    /// nothing reads them before `alloc` hands them out, and `alloc` clears
    /// every reused cell.  The snapshot stays the latest one, so it can be
    /// restored again.  The arena itself never shrinks (shards stay
    /// allocated); only the logical contents roll back.
    ///
    /// # Panics
    ///
    /// If `snap` is not this machine's latest snapshot
    /// ([`NativeMachine::is_current`]) — the epoch rule: the dirty map
    /// reaches back only to the last [`NativeMachine::snapshot_into`], so
    /// an older, fresh or foreign buffer cannot be rolled back to.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        assert!(
            self.is_current(snap),
            "NativeMachine::restore: superseded snapshot — the epoch rule: only the latest \
             snapshot_into of this machine can be restored"
        );
        debug_assert_eq!(snap.cells.len(), snap.heap_top);
        let arena = &self.arena;
        let cells = &snap.cells[..];
        let top = snap.heap_top;
        let end = arena.len();
        arena.take_dirty(|page| {
            let stop = (page + PAGE_CELLS).min(end);
            let saved = stop.min(top);
            let fill_from = page.max(top);
            // SAFETY: shard-segment bulk writes inside the logical size;
            // `&mut self` rules out concurrent cell access.
            unsafe {
                if page < saved {
                    arena.copy_in(page, &cells[page..saved]);
                }
                if fill_from < stop {
                    arena.fill_empty(fill_from, stop - fill_from);
                }
            }
        });
        self.heap_top = top;
        self.steps_executed = snap.steps_executed;
        self.counter.store(snap.attempts, snap.failures);
    }

    /// Prefix sums over `[base, base+len)` in place, [`EMPTY`] read as 0,
    /// exclusive or inclusive; returns the total.  The caller grows the
    /// arena and advances the step index.
    fn blocked_scan(&mut self, base: usize, len: usize, inclusive: bool) -> u64 {
        if len == 0 {
            return 0;
        }
        let nblocks = len.div_ceil(SCAN_BLOCK);
        ensure_words(&mut self.scratch.offsets, nblocks);
        // The fill pass rewrites the whole range.
        self.arena.mark_range(base, len);
        let mem = self.arena.view();
        let offsets = &self.scratch.offsets[..nblocks];
        let val = |i: usize| {
            let v = mem.cell(base + i).load(Ordering::Relaxed);
            if v == EMPTY {
                0
            } else {
                v
            }
        };
        // Blocked parallel prefix: per-block totals into reused scratch, an
        // exclusive scan of those totals, then a parallel fill.  Chunks are
        // SCAN_BLOCK-aligned, so each block has one writer.
        let sum_blocks = |lo: usize, hi: usize| {
            for_blocks::<SCAN_BLOCK>(lo, hi, |block, i, end| {
                offsets[block].store((i..end).map(val).sum(), Ordering::Relaxed);
            });
        };
        let fill = |lo: usize, hi: usize| {
            for_blocks::<SCAN_BLOCK>(lo, hi, |block, i, end| {
                let mut run = offsets[block].load(Ordering::Relaxed);
                for j in i..end {
                    let excl = run;
                    run += val(j);
                    let out = if inclusive { run } else { excl };
                    mem.cell(base + j).store(out, Ordering::Relaxed);
                }
            });
        };
        // One pool dispatch: block sums, then the serial exclusive scan of
        // the block totals run by whichever participant owns the first
        // chunk of the middle pass (the other chunks of that pass are
        // no-ops — the barrier still separates it from the fill), then the
        // fill.
        let total = AtomicU64::new(0);
        self.pool
            .dispatch_fused(len, SCAN_BLOCK, 3, |pass, lo, hi| match pass {
                0 => sum_blocks(lo, hi),
                1 => {
                    if lo == 0 {
                        total.store(exclusive_scan(offsets), Ordering::Relaxed);
                    }
                }
                _ => fill(lo, hi),
            });
        total.into_inner()
    }

    /// Raw scratch-buffer addresses, for the allocation-stability tests: a
    /// warm machine must keep these fixed across steps.
    #[cfg(test)]
    fn scratch_fingerprint(&self) -> (usize, usize, usize) {
        (
            self.scratch.live.as_ptr() as usize,
            self.scratch.cas_won.as_ptr() as usize,
            self.scratch.offsets.as_ptr() as usize,
        )
    }

    /// Raw address of the cell backing `addr`, for the no-move assertions
    /// of the unit tests.
    #[cfg(test)]
    fn cell_addr(&self, addr: usize) -> usize {
        self.arena.cell_addr(addr)
    }
}

impl std::fmt::Debug for NativeMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeMachine")
            .field("cells", &self.arena.len())
            .field("shards", &self.arena.stats().shards)
            .field("seed", &self.seed)
            .field("steps_executed", &self.steps_executed)
            .field("heap_top", &self.heap_top)
            .field("threads", &self.pool.threads())
            .field("schedule", &self.pool.schedule())
            .finish()
    }
}

/// Per-chunk context handed to step closures by [`NativeMachine`].  One
/// context serves every virtual processor of its chunk: the dispatch loop
/// re-points `proc` (and clears the lazily-seeded `rng` slot) per
/// processor, so the observable behaviour is identical to a context per
/// processor without the per-processor setup.
struct NativeProc<'a> {
    mem: ArenaView<'a>,
    seed: u64,
    step_idx: u64,
    proc: u64,
    rng: Option<SmallRng>,
}

// Every method is `#[inline]` — the inlining rule of the module docs.
impl MachineProc for NativeProc<'_> {
    #[inline]
    fn proc_id(&self) -> u64 {
        self.proc
    }

    #[inline]
    fn read(&mut self, addr: usize) -> u64 {
        assert!(
            addr < self.mem.len(),
            "read of address {addr} outside shared memory of size {}",
            self.mem.len()
        );
        self.mem.cell(addr).load(Ordering::Relaxed)
    }

    #[inline]
    fn write(&mut self, addr: usize, value: u64) {
        assert!(
            addr < self.mem.len(),
            "write of address {addr} outside shared memory of size {}",
            self.mem.len()
        );
        self.mem.cell(addr).store(value, Ordering::Relaxed);
        self.mem.mark(addr);
    }

    #[inline]
    fn compute(&mut self, _ops: u64) {}

    #[inline]
    fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "random_index bound must be positive");
        if self.rng.is_none() {
            self.rng = Some(proc_rng(self.seed, self.step_idx, self.proc));
        }
        self.rng.as_mut().unwrap().gen_range(0..bound)
    }
}

/// Turns the per-block totals in `offsets` into exclusive offsets in place
/// and returns the grand total — the serial middle pass of the blocked scan and
/// `compact_step`.
fn exclusive_scan(offsets: &[AtomicU64]) -> u64 {
    let mut acc = 0u64;
    for block in offsets {
        let total = block.load(Ordering::Relaxed);
        block.store(acc, Ordering::Relaxed);
        acc += total;
    }
    acc
}

/// The one block walk of the machine's kernels: calls `f(i / W, i, end)`
/// for every `W`-cell block `[i, end)` of the chunk `[lo, hi)`, from `lo`
/// on.  The dispatches that index per-block scratch by `i / W` are
/// `W`-aligned, so every such block belongs to one chunk.
#[inline(always)]
fn for_blocks<const W: usize>(lo: usize, hi: usize, mut f: impl FnMut(usize, usize, usize)) {
    let mut i = lo;
    while i < hi {
        let end = (i + W).min(hi);
        f(i / W, i, end);
        i = end;
    }
}

/// The claim passes' lookahead: prefetches the target cell of the attempt
/// [`PREFETCH_DIST`] past `j` when that attempt is still in the chunk
/// (`..hi`).
#[inline(always)]
fn prefetch_ahead(mem: ArenaView<'_>, attempts: &[(u64, usize)], j: usize, hi: usize) {
    if j + PREFETCH_DIST < hi {
        mem.prefetch(attempts[j + PREFETCH_DIST].1);
    }
}

/// Hints the cache that the scratch word `word` is about to be written.
#[inline(always)]
fn prefetch_word(word: &AtomicU64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure hint, on a live reference.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            word.as_ptr().cast::<i8>(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = word;
}

/// A `list_rank` sublist: the successor of its last node (the next
/// stride ruler, or [`EMPTY`]) over its node count.
#[inline(always)]
fn link(next: u64, len: u64) -> u64 {
    let next = if next == EMPTY { 0 } else { next + 1 };
    next << 32 | len
}

/// The next stride ruler and the node count of a [`link`].
#[inline(always)]
fn unlink(word: u64) -> (Option<usize>, u64) {
    let next = (word >> 32) as usize;
    (next.checked_sub(1), word & u64::from(u32::MAX))
}

/// A `list_rank` node's ruler over its offset from that ruler.
#[inline(always)]
fn place(ruler: usize, offset: u64) -> u64 {
    (ruler as u64) << 32 | offset
}

/// `list_rank`'s panic on successors that break the call's contract.
#[cold]
fn broken_lists(what: std::fmt::Arguments<'_>) -> ! {
    panic!(
        "list_rank: {what}: the successors must form NIL-terminated lists with at most one \
         predecessor per node"
    )
}

/// `compact_step`, count pass: the number of non-[`EMPTY`] cells of every
/// [`SCAN_BLOCK`] of `src + [lo, hi)` into that block's `offsets` slot.
fn count_survivors(mem: ArenaView<'_>, offsets: &[AtomicU64], src: usize, lo: usize, hi: usize) {
    for_blocks::<SCAN_BLOCK>(lo, hi, |block, i, end| {
        let survivors = (i..end)
            .filter(|&j| mem.cell(src + j).load(Ordering::Relaxed) != EMPTY)
            .count() as u64;
        offsets[block].store(survivors, Ordering::Relaxed);
    });
}

/// `compact_step`, gather pass: every non-[`EMPTY`] cell of `src + [lo, hi)`
/// goes to `dst +` its global rank (its block's exclusive offset plus its
/// rank inside the block).
fn gather_survivors(
    mem: ArenaView<'_>,
    offsets: &[AtomicU64],
    src: usize,
    dst: usize,
    lo: usize,
    hi: usize,
) {
    for_blocks::<SCAN_BLOCK>(lo, hi, |block, i, end| {
        let mut rank = offsets[block].load(Ordering::Relaxed) as usize;
        for j in i..end {
            let v = mem.cell(src + j).load(Ordering::Relaxed);
            if v != EMPTY {
                // Global ranks are disjoint across blocks, so every
                // destination cell has exactly one writer.
                mem.cell(dst + rank).store(v, Ordering::Relaxed);
                rank += 1;
            }
        }
    });
}

/// The pair `(x, y)` in order: smaller first when `ascending`, larger
/// first otherwise.  Storing an in-order pair back unchanged leaves what
/// the stage route's skipped write leaves.
#[inline(always)]
fn ordered(x: u64, y: u64, ascending: bool) -> (u64, u64) {
    // A select and an xor for the larger value: branch-free when
    // optimized, and no call in a debug build, where the test suite sorts
    // its 2^18-cell networks.
    let small = if x <= y { x } else { y };
    let large = x ^ y ^ small;
    if ascending {
        (small, large)
    } else {
        (large, small)
    }
}

/// Orders every pair `(lower[t], upper[t])` (see [`ordered`]).
#[inline]
fn order_pairs(lower: &mut [u64], upper: &mut [u64], ascending: bool) {
    let upper = &mut upper[..lower.len()];
    let mut t = 0;
    while t < lower.len() {
        (lower[t], upper[t]) = ordered(lower[t], upper[t], ascending);
        t += 1;
    }
}

/// Stages `(k, 4)`, `(k, 2)` and `(k, 1)` at once over every 8-cell group
/// of `cells`, whose first cell has global index `first` (`k >= 8`, so a
/// group has one direction): twelve compare–exchanges in registers
/// instead of three sweeps.
fn order_eights(cells: &mut [u64], first: usize, in_seg: usize, k: usize) {
    const PAIRS: [(usize, usize); 12] = [
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7),
        (0, 2),
        (1, 3),
        (4, 6),
        (5, 7),
        (0, 1),
        (2, 3),
        (4, 5),
        (6, 7),
    ];
    let mut group = 0;
    while group < cells.len() {
        let ascending = (first + group) & in_seg & k == 0;
        let g = &mut cells[group..group + 8];
        for (a, b) in PAIRS {
            (g[a], g[b]) = ordered(g[a], g[b], ascending);
        }
        group += 8;
    }
}

/// One call's bitonic network: the segmented range at `base`, whose
/// global index `g` has in-segment index `g & in_seg`.
#[derive(Clone, Copy)]
struct Network<'a> {
    mem: ArenaView<'a>,
    base: usize,
    /// Segment size − 1.
    in_seg: usize,
}

impl Network<'_> {
    /// Stage `(k, j)` restricted to the lower partners among the global
    /// indices `[lo, hi)`: every `x` with bit `j` clear orders the pair
    /// `(x, x + j)`, ascending iff bit `k` of its in-segment index is
    /// clear.  `[lo, hi)` may cut a run of pairs anywhere and the upper
    /// partners may lie past `hi`: no other lower partner of the stage
    /// touches them, so the caller must own the pairs, not the range.
    fn stage(self, k: usize, j: usize, lo: usize, hi: usize) {
        let mut g = lo;
        while g < hi {
            // Runs of 2j: j lower partners, then their j upper partners.
            let run = g & !(2 * j - 1);
            let ascending = run & self.in_seg & k == 0;
            let end = (run + j).min(hi);
            let mut x = g;
            while x < end {
                let (a, b) = (self.base + x, self.base + x + j);
                let n = (end - x)
                    .min(SHARD_CELLS - (a & SHARD_MASK))
                    .min(SHARD_CELLS - (b & SHARD_MASK));
                // SAFETY: this chunk owns these pairs for the pass, and
                // the halves are disjoint (n <= j).
                let (lower, upper) =
                    unsafe { (self.mem.words_mut(a, n), self.mem.words_mut(b, n)) };
                let in_shard = "n stops both halves at their shard's end";
                order_pairs(lower.expect(in_shard), upper.expect(in_shard), ascending);
                x += n;
            }
            g = run + 2 * j;
        }
    }

    /// The block-resident stages: for every block of `[lo, hi)` in turn
    /// ([`BITONIC_BLOCK`] cells from `lo` on), each stage `(k, j)` with
    /// `k` a power of two in `k_from..=k_to` and `j < min(k, BITONIC_BLOCK)`,
    /// in network order.  `lo` is `BITONIC_BLOCK`-aligned, or aligned to
    /// the segment size when `k_to` is, so every such pair lies inside one
    /// block and the block stays in cache across its stages.
    fn blocks(self, k_from: usize, k_to: usize, lo: usize, hi: usize) {
        for_blocks::<BITONIC_BLOCK>(lo, hi, |_, block, end| {
            // SAFETY: the chunk owns its blocks for the pass.  A block
            // across a shard boundary (`None`) takes the pair-run route.
            let mut cells = unsafe { self.mem.words_mut(self.base + block, end - block) };
            let mut k = k_from;
            while k <= k_to {
                let mut j = (k / 2).min(BITONIC_BLOCK / 2);
                while j >= 1 {
                    match cells.as_deref_mut() {
                        // Runs of 2j tile the block: it starts 2j-aligned
                        // and its length is a multiple of
                        // min(seg_size, BITONIC_BLOCK) >= 2j.
                        Some(cells) if j == 4 => {
                            order_eights(cells, block, self.in_seg, k);
                            break;
                        }
                        Some(cells) => {
                            let mut run = 0;
                            while run < cells.len() {
                                let (lower, upper) = cells[run..run + 2 * j].split_at_mut(j);
                                order_pairs(lower, upper, (block + run) & self.in_seg & k == 0);
                                run += 2 * j;
                            }
                        }
                        None => self.stage(k, j, block, end),
                    }
                    j /= 2;
                }
                k *= 2;
            }
        });
    }
}

impl Machine for NativeMachine {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        Self::with_pool(mem_size, seed, StepPool::from_env())
    }

    fn backend(&self) -> &'static str {
        self.backend_name()
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
        self.heap_top = base.checked_add(len).unwrap_or_else(|| {
            panic!(
                "out of memory: allocating {len} cells above allocation top {base} \
                 overflows the cell address space"
            )
        });
        let fresh_from = self.arena.len();
        self.grow(self.heap_top);
        // `grow` initializes everything past the old arena end to EMPTY;
        // only the reused prefix (released and re-allocated cells) needs an
        // explicit clear.
        if base < fresh_from {
            Machine::clear_region(self, base, len.min(fresh_from - base));
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
        let arena = &self.arena;
        arena.mark_range(base, values.len());
        self.pool.dispatch(values.len(), 1, |lo, hi| {
            // Safety: shard-segment bulk copy; `&mut self` rules out
            // concurrent cell access, chunks are disjoint.
            unsafe { arena.copy_in(base + lo, &values[lo..hi]) };
        });
    }

    fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        assert!(
            base + len <= self.arena.len(),
            "dump of {base}..{} outside shared memory of size {}",
            base + len,
            self.arena.len()
        );
        let mut out: Vec<u64> = Vec::with_capacity(len);
        let arena = &self.arena;
        let slots = SendPtr(out.as_mut_ptr());
        let slots = &slots;
        self.pool.dispatch(len, 1, |lo, hi| {
            // Safety: bulk copy out of the (quiescent: no step is running,
            // every writer needs `&mut self`) arena into disjoint slots.
            unsafe { arena.copy_out(base + lo, slots.0.add(lo), hi - lo) };
        });
        unsafe { out.set_len(len) };
        out
    }

    fn peek(&self, addr: usize) -> u64 {
        self.arena.view().cell(addr).load(Ordering::Relaxed)
    }

    fn poke(&mut self, addr: usize, value: u64) {
        let mem = self.arena.view();
        mem.cell(addr).store(value, Ordering::Relaxed);
        mem.mark(addr);
    }

    fn clear_region(&mut self, base: usize, len: usize) {
        self.grow(base + len);
        let arena = &self.arena;
        arena.mark_range(base, len);
        self.pool.dispatch(len, 1, |lo, hi| {
            // Safety: all-ones byte fill == EMPTY fill; `&mut self` rules
            // out concurrent cell access, chunks are disjoint.
            unsafe { arena.fill_empty(base + lo, hi - lo) };
        });
    }

    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        let step_idx = self.steps_executed;
        let seed = self.seed;
        let mem = self.arena.view();
        let mut out: Vec<T> = Vec::with_capacity(procs);
        let slots = SendPtr(out.as_mut_ptr());
        let slots = &slots;
        self.pool.dispatch(procs, 1, |lo, hi| {
            let mut ctx = NativeProc {
                mem,
                seed,
                step_idx,
                proc: 0,
                rng: None,
            };
            for p in lo..hi {
                ctx.proc = p as u64;
                ctx.rng = None;
                let value = f(p, &mut ctx);
                unsafe { slots.0.add(p).write(value) };
            }
        });
        unsafe { out.set_len(procs) };
        self.steps_executed += 1;
        out
    }

    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T,
    {
        // A native thread's reads already see its own earlier stores, so the
        // sequential step is simply one processor run inline on the caller's
        // thread — the contract's step-index and RNG-stream advances are the
        // same as for a one-processor parallel step.
        let step_idx = self.steps_executed;
        let mut ctx = NativeProc {
            mem: self.arena.view(),
            seed: self.seed,
            step_idx,
            proc: 0,
            rng: None,
        };
        let result = f(&mut ctx);
        self.steps_executed += 1;
        result
    }

    fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        self.grow(base + len);
        self.steps_executed += 1;
        self.blocked_scan(base, len, true)
    }

    fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        self.grow(base + len);
        let mem = self.arena.view();
        let found = AtomicBool::new(false);
        // Chunked early exit: a hit raises the flag, which later chunks
        // observe on entry and running chunks poll every few hundred cells.
        self.pool.dispatch(len, 1, |lo, hi| {
            if found.load(Ordering::Relaxed) {
                return;
            }
            for i in lo..hi {
                if i & OR_POLL_MASK == 0 && found.load(Ordering::Relaxed) {
                    return;
                }
                let v = mem.cell(base + i).load(Ordering::Relaxed);
                if v != 0 && v != EMPTY {
                    found.store(true, Ordering::Relaxed);
                    return;
                }
            }
        });
        self.steps_executed += 1;
        found.load(Ordering::Relaxed)
    }

    fn compact_step(&mut self, src: usize, len: usize, dst: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.ensure_memory(src + len);
        // The default route's scratch release rolls the allocator mark back
        // to this point even when `dst + count` lies above it; replicate
        // that so `heap_top` evolves identically on both backends.
        let heap_mark = self.heap_top;
        // Equivalent of the trait's flag → scan → gather route: one
        // block-count pass, a serial scan of the (reused) per-block
        // offsets, one gather pass writing survivors straight to their
        // global rank.  Ranks order identically, so the observable result
        // is the same; the step index advances by 3 like the canonical
        // route, keeping later RNG coordinates in cross-backend lockstep.
        let nblocks = len.div_ceil(SCAN_BLOCK);
        ensure_words(&mut self.scratch.offsets, nblocks);
        let (mem, offsets) = (self.arena.view(), &self.scratch.offsets[..nblocks]);
        let count = if dst + len <= mem.len() {
            // The destination already fits (`count <= len`, so `dst + count`
            // cannot outgrow the arena mid-group): count, scan and gather
            // run as ONE pool dispatch, the scan by whichever participant
            // owns the first chunk of the middle pass.
            let count = AtomicU64::new(0);
            self.pool
                .dispatch_fused(len, SCAN_BLOCK, 3, |pass, lo, hi| match pass {
                    0 => count_survivors(mem, offsets, src, lo, hi),
                    1 => {
                        if lo == 0 {
                            count.store(exclusive_scan(offsets), Ordering::Relaxed);
                        }
                    }
                    _ => gather_survivors(mem, offsets, src, dst, lo, hi),
                });
            count.into_inner()
        } else {
            // The arena must grow to hold the survivors, and growth cannot
            // happen inside a step: two dispatches with the host scanning
            // and growing in between.
            self.pool.dispatch(len, SCAN_BLOCK, |lo, hi| {
                count_survivors(mem, offsets, src, lo, hi)
            });
            let count = exclusive_scan(offsets);
            self.ensure_memory(dst + count as usize);
            let (mem, offsets) = (self.arena.view(), &self.scratch.offsets[..nblocks]);
            self.pool.dispatch(len, SCAN_BLOCK, |lo, hi| {
                gather_survivors(mem, offsets, src, dst, lo, hi)
            });
            count
        };
        self.arena.mark_range(dst, count as usize);
        self.heap_top = heap_mark;
        self.steps_executed += 3;
        count
    }

    fn bitonic_segments(&mut self, base: usize, seg_size: usize, num_segs: usize) {
        if seg_size <= 1 || num_segs == 0 {
            return;
        }
        assert!(
            seg_size.is_power_of_two(),
            "segment size must be a power of two"
        );
        let total = seg_size * num_segs;
        self.ensure_memory(base + total);
        // Every stage may rewrite any cell of the range.
        self.arena.mark_range(base, total);
        let net = Network {
            mem: self.arena.view(),
            base,
            in_seg: seg_size - 1,
        };
        // The network is data-oblivious, so reordering stages only inside
        // blocks leaves exactly the memory the stage route leaves.  One
        // pass runs every stage with k <= BITONIC_BLOCK block by block
        // (chunked by whole segments when they fit in a block); each
        // larger k takes one whole-range pass per stage j >= BITONIC_BLOCK,
        // then one block-resident pass for the rest.
        let low = seg_size.min(BITONIC_BLOCK);
        self.pool
            .dispatch(total, low, |lo, hi| net.blocks(2, low, lo, hi));
        let mut k = 2 * BITONIC_BLOCK;
        while k <= seg_size {
            let wide = (k / BITONIC_BLOCK).trailing_zeros() as usize;
            self.pool
                .dispatch_fused(total, BITONIC_BLOCK, wide + 1, |pass, lo, hi| {
                    if pass < wide {
                        net.stage(k, k >> (pass + 1), lo, hi);
                    } else {
                        net.blocks(k, k, lo, hi);
                    }
                });
            k *= 2;
        }
        let lg = seg_size.trailing_zeros() as u64;
        self.steps_executed += lg * (lg + 1) / 2;
    }

    fn scan_tree(&mut self, base: usize, len: usize, inclusive: bool) -> u64 {
        if len == 0 {
            return 0;
        }
        self.grow(base + len);
        let total = self.blocked_scan(base, len, inclusive);
        // The tree route's step count: copy, lg w up-sweep levels, root
        // clear, lg w down-sweep levels, write-back.
        let lg = len.next_power_of_two().trailing_zeros() as u64;
        self.steps_executed += 2 * lg + 3;
        total
    }

    fn counting_pass<F>(&mut self, base: usize, n: usize, num_buckets: usize, bucket_of: F)
    where
        F: Fn(u64) -> u64 + Sync,
    {
        if n <= 1 {
            return;
        }
        assert!(num_buckets >= 1);
        self.ensure_memory(base + n);
        // The default route's count matrix and output copy lie above the
        // allocation top and are released again; this route keeps both
        // off the arena, in reused scratch: one bucket histogram per
        // SCAN_BLOCK block (chunks are SCAN_BLOCK-aligned, so each block
        // has one writer) and the spill buffer.
        let nblocks = n.div_ceil(SCAN_BLOCK);
        ensure_words(&mut self.scratch.offsets, nblocks * num_buckets);
        ensure_words(&mut self.scratch.spill, n);
        let arena = &self.arena;
        // The copy back rewrites the whole range.
        arena.mark_range(base, n);
        let mem = arena.view();
        let hist = &self.scratch.offsets[..nblocks * num_buckets];
        let spill = &self.scratch.spill[..n];
        let row = |block: usize| &hist[block * num_buckets..][..num_buckets];
        let count = |lo: usize, hi: usize| {
            for_blocks::<SCAN_BLOCK>(lo, hi, |block, i, end| {
                let row = row(block);
                row.iter().for_each(|c| c.store(0, Ordering::Relaxed));
                for j in i..end {
                    let b = bucket_of(mem.cell(base + j).load(Ordering::Relaxed)) as usize;
                    assert!(b < num_buckets, "bucket {b} out of range {num_buckets}");
                    let c = &row[b];
                    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                }
            });
        };
        // Bucket-major over the blocks: the first rank of every
        // (bucket, block), which is what the default route's scan of the
        // key-major count matrix gives every (bucket, group).
        let ranks = || {
            let mut acc = 0u64;
            for b in 0..num_buckets {
                for block in 0..nblocks {
                    let c = &hist[block * num_buckets + b];
                    let k = c.load(Ordering::Relaxed);
                    c.store(acc, Ordering::Relaxed);
                    acc += k;
                }
            }
        };
        // Each block hands its words out in index order, so equal buckets
        // keep their order: the sort is stable.
        let scatter = |lo: usize, hi: usize| {
            for_blocks::<SCAN_BLOCK>(lo, hi, |block, i, end| {
                let row = row(block);
                for j in i..end {
                    let w = mem.cell(base + j).load(Ordering::Relaxed);
                    let c = &row[bucket_of(w) as usize];
                    let rank = c.load(Ordering::Relaxed);
                    c.store(rank + 1, Ordering::Relaxed);
                    spill[rank as usize].store(w, Ordering::Relaxed);
                }
            });
        };
        let copy_back = |lo: usize, hi: usize| {
            let words = &spill[lo..hi];
            // SAFETY: `u64` and `AtomicU64` share layout, and no chunk
            // writes the spill buffer in this pass (the inter-pass barrier
            // orders every scatter store before it); the shard-segment copy
            // targets this chunk's cells only, and `&mut self` rules out
            // any other access to them.
            unsafe {
                let words = &*(std::ptr::from_ref(words) as *const [u64]);
                arena.copy_in(base + lo, words);
            }
        };
        // Relaxed suffices: a pass's stores reach the next pass's chunks
        // through the inter-pass barrier of `dispatch_fused`, which makes
        // every write of one pass visible before the next pass starts.
        self.pool
            .dispatch_fused(n, SCAN_BLOCK, 4, |pass, lo, hi| match pass {
                0 => count(lo, hi),
                1 => {
                    if lo == 0 {
                        ranks();
                    }
                }
                2 => scatter(lo, hi),
                _ => copy_back(lo, hi),
            });
        // The default route's step count: count, the scan tree over the
        // next_pow2(num_buckets · groups)-cell matrix, scatter, copy back.
        let g = num_buckets.max(ceil_lg(n as u64) as usize).max(1);
        let lg = (num_buckets * n.div_ceil(g))
            .next_power_of_two()
            .trailing_zeros() as u64;
        self.steps_executed += 2 * lg + 6;
    }

    fn list_rank(&mut self, base_succ: usize, n: usize, base_rank: usize) {
        assert_lists_apart(base_succ, n, base_rank);
        if n == 0 {
            return;
        }
        assert!(
            n < MAX_LIST_NODES,
            "list_rank: {n} nodes; the native kernel ranks fewer than {MAX_LIST_NODES}"
        );
        self.ensure_memory(base_succ + n);
        self.ensure_memory(base_rank + n);
        // The default route's pointer scratch lies above the allocation top
        // and is released again; this route keeps two words per node and
        // one per stride ruler off the arena, in reused scratch.
        let strides = n.div_ceil(RULER_STRIDE);
        ensure_words(&mut self.scratch.marks, n);
        ensure_words(&mut self.scratch.spill, n);
        ensure_words(&mut self.scratch.offsets, strides);
        // A fresh stamp per call: marks left by earlier calls never read
        // as this call's, so the marks need no clearing.
        self.scratch.list_calls += 1;
        let stamp = LIST_MARK | self.scratch.list_calls;
        // The fill rewrites the whole rank region.
        self.arena.mark_range(base_rank, n);
        let mem = self.arena.view();
        let marks = &self.scratch.marks[..n];
        let places = &self.scratch.spill[..n];
        let rulers = &self.scratch.offsets[..strides];
        let n64 = n as u64;
        let succ = |i: usize| mem.cell(base_succ + i).load(Ordering::Relaxed);
        // Successors that are not NIL, nodes no successor names, nodes the
        // walks placed: what the serial pass checks the contract by.
        let (linked, heads, placed) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));

        // Pass 0: every successor marks the node it names.
        let mark = |lo: usize, hi: usize| {
            let mut count = 0;
            for i in lo..hi {
                if i + PREFETCH_DIST < hi {
                    let ahead = succ(i + PREFETCH_DIST);
                    if ahead < n64 {
                        prefetch_word(&marks[ahead as usize]);
                    }
                }
                let s = succ(i);
                if s == EMPTY {
                    continue;
                }
                if s >= n64 {
                    broken_lists(format_args!("node {i}'s successor {s} is not below {n}"));
                }
                marks[s as usize].store(stamp, Ordering::Relaxed);
                count += 1;
            }
            linked.fetch_add(count, Ordering::Relaxed);
        };
        // Pass 1: every ruler of the chunk — a node at a multiple of
        // RULER_STRIDE, or a head, which no successor marked — walks its
        // sublist up to the next stride node or the end of its list,
        // placing each node it passes: its ruler and offset.  The walks run
        // interleaved, WALKS_IN_FLIGHT at a time, each prefetching the node
        // it places next.  A stride ruler leaves its sublist's link in its
        // `rulers` slot, a head in its own mark, which no other chunk reads.
        let walk = |lo: usize, hi: usize| {
            let (mut next, mut unmarked, mut count) = (lo, 0u64, 0u64);
            // A walk: its ruler, the node it places next and that node's
            // offset.
            let mut walks = [(0usize, 0usize, 0u64); WALKS_IN_FLIGHT];
            let mut live = 0;
            loop {
                while live < WALKS_IN_FLIGHT && next < hi {
                    let i = next;
                    next += 1;
                    let head = marks[i].load(Ordering::Relaxed) != stamp;
                    unmarked += head as u64;
                    if head || i.is_multiple_of(RULER_STRIDE) {
                        walks[live] = (i, i, 0);
                        live += 1;
                    }
                }
                if live == 0 {
                    break;
                }
                let mut w = 0;
                while w < live {
                    let (ruler, node, offset) = walks[w];
                    places[node].store(place(ruler, offset), Ordering::Relaxed);
                    count += 1;
                    let s = succ(node);
                    if s == EMPTY || (s as usize).is_multiple_of(RULER_STRIDE) {
                        let end = link(s, offset + 1);
                        if ruler.is_multiple_of(RULER_STRIDE) {
                            rulers[ruler / RULER_STRIDE].store(end, Ordering::Relaxed);
                        } else {
                            marks[ruler].store(end, Ordering::Relaxed);
                        }
                        live -= 1;
                        walks[w] = walks[live];
                    } else {
                        let s = s as usize;
                        mem.prefetch(base_succ + s);
                        prefetch_word(&places[s]);
                        walks[w] = (ruler, s, offset + 1);
                        w += 1;
                    }
                }
                // Only a cycle entered through a shared successor keeps a
                // walk going this long.
                if count > n64 {
                    broken_lists(format_args!("the walks passed more than {n} nodes"));
                }
            }
            heads.fetch_add(unmarked, Ordering::Relaxed);
            placed.fetch_add(count, Ordering::Relaxed);
        };
        // Pass 2, serial: the contract holds iff the successors name
        // distinct nodes (then the walks are disjoint), the walks placed
        // every node (then no cycle lacks a stride ruler), and no stride
        // ruler's chain of sublists returns to it.  Each chain then gets
        // its node counts to the end of the list, summed on one walk along
        // it and handed out on a second.
        let rank_rulers = || {
            let linked = linked.load(Ordering::Relaxed);
            let named = n64 - heads.load(Ordering::Relaxed);
            if named != linked {
                broken_lists(format_args!(
                    "{linked} successors name {named} distinct nodes"
                ));
            }
            let placed = placed.load(Ordering::Relaxed);
            if placed != n64 {
                broken_lists(format_args!("the walks placed {placed} of {n} nodes"));
            }
            for first in 0..strides {
                let (mut total, mut at) = (0, first);
                loop {
                    let word = rulers[at].load(Ordering::Relaxed);
                    if word & RANKED != 0 {
                        total += word & !RANKED;
                        break;
                    }
                    let (next, len) = unlink(word);
                    total += len;
                    match next.map(|node| node / RULER_STRIDE) {
                        None => break,
                        Some(next) if next == first => broken_lists(format_args!(
                            "node {} lies on a cycle",
                            first * RULER_STRIDE
                        )),
                        Some(next) => at = next,
                    }
                }
                let mut at = first;
                loop {
                    let word = rulers[at].load(Ordering::Relaxed);
                    if word & RANKED != 0 {
                        break;
                    }
                    rulers[at].store(RANKED | total, Ordering::Relaxed);
                    let (next, len) = unlink(word);
                    total -= len;
                    match next {
                        None => break,
                        Some(next) => at = next / RULER_STRIDE,
                    }
                }
            }
        };
        // Pass 3: a node's rank is its ruler's node count to the end, less
        // one and its offset; a head's count is its sublist's plus the
        // count of the stride ruler after it.
        let fill = |lo: usize, hi: usize| {
            let count_of =
                |node: usize| rulers[node / RULER_STRIDE].load(Ordering::Relaxed) & !RANKED;
            for (i, place) in (lo..hi).zip(&places[lo..hi]) {
                let word = place.load(Ordering::Relaxed);
                let (ruler, offset) = ((word >> 32) as usize, word & u64::from(u32::MAX));
                let count = if ruler.is_multiple_of(RULER_STRIDE) {
                    count_of(ruler)
                } else {
                    let (next, len) = unlink(marks[ruler].load(Ordering::Relaxed));
                    len + next.map_or(0, count_of)
                };
                mem.cell(base_rank + i)
                    .store(count - 1 - offset, Ordering::Relaxed);
            }
        };
        self.pool
            .dispatch_fused(n, 1, 4, |pass, lo, hi| match pass {
                0 => mark(lo, hi),
                1 => walk(lo, hi),
                2 => {
                    if lo == 0 {
                        rank_rulers();
                    }
                }
                _ => fill(lo, hi),
            });
        // The default route's step count: the read, max(1, ⌈lg n⌉) rounds
        // of publish and jump, the last publish.
        self.steps_executed += 2 * ceil_lg(n64).max(1) + 2;
    }

    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        let k = attempts.len();
        if k == 0 {
            return Vec::new();
        }
        debug_assert!(
            attempts
                .iter()
                .all(|&(tag, _)| tag != EMPTY && tag != POISON),
            "claim tags must differ from the EMPTY and POISON sentinels"
        );
        if let Some(max_addr) = attempts.iter().map(|&(_, a)| a).max() {
            self.ensure_memory(max_addr + 1);
        }
        let words = k.div_ceil(64);
        ensure_words(&mut self.scratch.live, words);
        ensure_words(&mut self.scratch.cas_won, words);
        let mem = self.arena.view();
        let live = &self.scratch.live[..];
        let cas_won = &self.scratch.cas_won[..];
        let counter = &self.counter;
        let pool = &self.pool;
        let mut out: Vec<bool> = Vec::with_capacity(k);
        let slots = SendPtr(out.as_mut_ptr());
        let slots = &slots;

        // All claim passes use 64-aligned chunks, so every scratch word has
        // exactly one writing chunk and plain stores suffice.

        // Probe pass: all probes complete (barrier) before any CAS, so a
        // pre-occupied cell rejects every claim, matching the simulator's
        // snapshot-read S1.  The protocol's passes run as ONE fused pool
        // dispatch: the inter-pass barrier inside `dispatch_fused` gives
        // the same complete-before-next-pass guarantee as the separate
        // dispatches did, at one worker wakeup for the whole protocol.
        let probe = |lo: usize, hi: usize| {
            for_blocks::<64>(lo, hi, |word, i, end| {
                let mut bits = 0u64;
                for j in i..end {
                    prefetch_ahead(mem, attempts, j, hi);
                    if mem.cell(attempts[j].1).load(Ordering::Acquire) == EMPTY {
                        bits |= 1u64 << (j - i);
                    }
                }
                live[word].store(bits, Ordering::Relaxed);
            });
        };

        match mode {
            ClaimMode::Occupy => {
                // Second pass: deterministic arbitration.  Every live
                // claimant `fetch_min`s its *claimant index* into the cell
                // (EMPTY is `u64::MAX`, so the cell ends at the lowest live
                // index) — the same winner the simulator's
                // lowest-processor-id write arbitration picks.  A raw
                // first-CAS-wins race here would make the winner depend on
                // chunk execution order, which is exactly the
                // schedule-dependent drift the perf_report step guard
                // caught on the stealing dispatcher.
                let bid = |lo: usize, hi: usize| {
                    for_blocks::<64>(lo, hi, |word, i, end| {
                        let lw = live[word].load(Ordering::Relaxed);
                        for j in i..end {
                            prefetch_ahead(mem, attempts, j, hi);
                            if lw & (1u64 << (j - i)) != 0 {
                                mem.cell(attempts[j].1)
                                    .fetch_min(j as u64, Ordering::AcqRel);
                                mem.mark(attempts[j].1);
                            }
                        }
                    });
                };
                // Third pass: read-only winner resolution, fused with
                // success output and per-chunk contention bookkeeping.
                // This must not write tags yet: a tag numerically equal to
                // another claimant's index would make that claimant's
                // win-check race against the write.
                let resolve = |lo: usize, hi: usize| {
                    let mut attempted = 0u64;
                    let mut failed = 0u64;
                    for_blocks::<64>(lo, hi, |word, i, end| {
                        let lw = live[word].load(Ordering::Relaxed);
                        let mut bits = 0u64;
                        for j in i..end {
                            prefetch_ahead(mem, attempts, j, hi);
                            let mut won = false;
                            if lw & (1u64 << (j - i)) != 0 {
                                won = mem.cell(attempts[j].1).load(Ordering::Acquire) == j as u64;
                                attempted += 1;
                                failed += !won as u64;
                            }
                            if won {
                                bits |= 1u64 << (j - i);
                            }
                            unsafe { slots.0.add(j).write(won) };
                        }
                        cas_won[word].store(bits, Ordering::Relaxed);
                    });
                    counter.add(attempted, failed);
                };
                // Fourth pass: each winner — the unique writer of its cell
                // — replaces its bid with its tag, restoring the "cell
                // keeps the winning tag" contract.
                let settle = |lo: usize, hi: usize| {
                    for_blocks::<64>(lo, hi, |word, i, end| {
                        let ww = cas_won[word].load(Ordering::Relaxed);
                        for (off, &(tag, addr)) in attempts[i..end].iter().enumerate() {
                            if ww & (1u64 << off) != 0 {
                                mem.cell(addr).store(tag, Ordering::Release);
                                mem.mark(addr);
                            }
                        }
                    });
                };
                pool.dispatch_fused(k, 64, 4, |pass, lo, hi| match pass {
                    0 => probe(lo, hi),
                    1 => bid(lo, hi),
                    2 => resolve(lo, hi),
                    _ => settle(lo, hi),
                });
                self.steps_executed += 3;
            }
            ClaimMode::Exclusive => {
                // Second pass: CAS + poison — live claimants race, and a
                // loser poisons its cell *immediately*.  The probe barrier
                // already filtered every claim on a pre-occupied cell, so a
                // failed CAS can only mean the cell holds a same-step
                // rival's tag (or POISON from an earlier loser), and
                // marking it contested is what a separate poison pass would
                // have done.  One random-access sweep instead of two; the
                // deterministic outcome (success iff unique live claimant)
                // is unchanged because the verify pass still runs after a
                // full barrier, when every loser has poisoned.
                let cas_poison = |lo: usize, hi: usize| {
                    for_blocks::<64>(lo, hi, |word, i, end| {
                        let lw = live[word].load(Ordering::Relaxed);
                        let mut bits = 0u64;
                        for j in i..end {
                            prefetch_ahead(mem, attempts, j, hi);
                            if lw & (1u64 << (j - i)) == 0 {
                                continue;
                            }
                            match mem.cell(attempts[j].1).compare_exchange(
                                EMPTY,
                                attempts[j].0,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => bits |= 1u64 << (j - i),
                                Err(_) => mem.cell(attempts[j].1).store(POISON, Ordering::Release),
                            }
                            // Won or poisoned: the cell was written.
                            mem.mark(attempts[j].1);
                        }
                        cas_won[word].store(bits, Ordering::Relaxed);
                    });
                };
                // Third pass: verify-and-restore, fused with success output
                // and per-chunk contention bookkeeping — a CAS winner whose
                // tag survived was the unique claimant; a poisoned cell is
                // released.
                let verify = |lo: usize, hi: usize| {
                    let mut attempted = 0u64;
                    let mut succeeded = 0u64;
                    for_blocks::<64>(lo, hi, |word, i, end| {
                        attempted += live[word].load(Ordering::Relaxed).count_ones() as u64;
                        let ww = cas_won[word].load(Ordering::Relaxed);
                        for j in i..end {
                            prefetch_ahead(mem, attempts, j, hi);
                            let mut ok = false;
                            if ww & (1u64 << (j - i)) != 0 {
                                if mem.cell(attempts[j].1).load(Ordering::Acquire) == attempts[j].0
                                {
                                    ok = true;
                                } else {
                                    mem.cell(attempts[j].1).store(EMPTY, Ordering::Release);
                                    mem.mark(attempts[j].1);
                                }
                            }
                            succeeded += ok as u64;
                            unsafe { slots.0.add(j).write(ok) };
                        }
                    });
                    counter.add(attempted, attempted - succeeded);
                };
                pool.dispatch_fused(k, 64, 3, |pass, lo, hi| match pass {
                    0 => probe(lo, hi),
                    1 => cas_poison(lo, hi),
                    _ => verify(lo, hi),
                });
                self.steps_executed += 6;
            }
        }
        unsafe { out.set_len(k) };
        out
    }

    fn cost_report(&self) -> CostReport {
        CostReport {
            backend: self.backend_name(),
            steps: self.steps_executed,
            wall: self.created.elapsed(),
            claim_attempts: self.counter.attempts(),
            contended_claims: self.counter.failures(),
            work: None,
            max_contention: None,
            time_qrqw: None,
            bsp: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::SHARD_CELLS;

    #[test]
    fn bulk_memory_ops_work_above_the_inline_cutoff() {
        let n = 100_000usize;
        let mut m = NativeMachine::with_pool(0, 0, StepPool::with_threads(4));
        let vals: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        Machine::ensure_memory(&mut m, n);
        Machine::load(&mut m, 0, &vals);
        assert_eq!(Machine::dump(&m, 0, n), vals);
        Machine::clear_region(&mut m, 10, n - 10);
        assert_eq!(Machine::peek(&m, 9), vals[9]);
        assert!((10..n).all(|a| Machine::peek(&m, a) == EMPTY));
    }

    #[test]
    fn claim_and_scan_scratch_buffers_are_reused_across_steps() {
        // The zero-allocation contract: once warm, repeated steps of the
        // same shape must not reallocate the pass scratch.
        let k = 10_000usize;
        let attempts: Vec<(u64, usize)> = (0..k).map(|i| (i as u64 + 1, i % 4096)).collect();
        let mut m = NativeMachine::with_pool(4096, 0, StepPool::with_threads(2));
        let _ = m.claim(&attempts, ClaimMode::Exclusive);
        let _ = m.scan_step(0, 4096);
        let warm = m.scratch_fingerprint();
        assert_ne!(warm, (0, 0, 0), "scratch must be materialized after use");
        for round in 0..10 {
            Machine::clear_region(&mut m, 0, 4096);
            let _ = m.claim(&attempts, ClaimMode::Occupy);
            let _ = m.claim(&attempts, ClaimMode::Exclusive);
            let _ = m.scan_step(0, 4096);
            assert_eq!(
                m.scratch_fingerprint(),
                warm,
                "steady-state steps must reuse scratch buffers"
            );
            // Arena growth appends shards; it must not disturb the pass
            // scratch of a warm machine.
            m.ensure_memory((round + 2) * SHARD_CELLS);
            assert_eq!(
                m.scratch_fingerprint(),
                warm,
                "arena growth must leave the warm scratch untouched"
            );
        }
        assert!(
            m.arena_stats().shards >= 11,
            "growth must have added shards"
        );
    }

    #[test]
    fn growth_preserves_cell_addresses_and_contents() {
        // The grow-without-move invariant, observed through the machine:
        // growing by whole shards leaves every existing cell at the same
        // physical address with the same contents, and fresh cells EMPTY.
        let mut m = NativeMachine::with_seed(SHARD_CELLS, 1);
        m.poke(0, 7);
        m.poke(SHARD_CELLS - 1, 11);
        let first = m.cell_addr(0);
        let last = m.cell_addr(SHARD_CELLS - 1);
        m.ensure_memory(4 * SHARD_CELLS + 5);
        assert_eq!(m.cell_addr(0), first, "growth moved the first cell");
        assert_eq!(m.cell_addr(SHARD_CELLS - 1), last, "growth moved a cell");
        assert_eq!(m.peek(0), 7);
        assert_eq!(m.peek(SHARD_CELLS - 1), 11);
        assert_eq!(m.peek(SHARD_CELLS), EMPTY, "fresh cells must be EMPTY");
        assert_eq!(m.peek(4 * SHARD_CELLS + 4), EMPTY);
        assert_eq!(m.arena_stats().shards, 5);
    }

    #[test]
    fn writes_straddling_a_shard_boundary_land_in_both_shards() {
        // First/last cell of a shard: the shift+mask cell→shard map must
        // agree with the flat address space across the seam.
        let mut m = NativeMachine::with_seed(2 * SHARD_CELLS, 1);
        let seam = SHARD_CELLS;
        let values: Vec<u64> = (0..8).map(|i| 100 + i).collect();
        m.load(seam - 4, &values);
        assert_eq!(m.dump(seam - 4, 8), values);
        assert_eq!(m.peek(seam - 1), 103, "last cell of shard 0");
        assert_eq!(m.peek(seam), 104, "first cell of shard 1");
    }

    #[test]
    #[should_panic(expected = "write of address 64 outside shared memory of size 64")]
    fn growth_mid_step_is_rejected() {
        // Steps may not grow the machine: a processor touching an address
        // beyond the logical length must panic, not silently allocate.
        // One thread so the step closure runs inline and the panic
        // propagates to the caller.
        let mut m = NativeMachine::with_pool(64, 0, StepPool::with_threads(1));
        m.par_for(1, |_, ctx| ctx.write(64, 1));
    }

    #[test]
    #[should_panic(expected = "read of address 64 outside shared memory of size 64")]
    fn reads_in_the_last_shards_slack_are_rejected_too() {
        // Cell 64 is allocated (a shard holds SHARD_CELLS cells) but lies
        // past the logical size: the by-value view a chunk checks against
        // must carry the logical length, not the capacity.
        let mut m = NativeMachine::with_pool(64, 0, StepPool::with_threads(1));
        m.par_for(1, |_, ctx| {
            ctx.read(64);
        });
    }

    #[test]
    #[ignore = "huge-n smoke: ~1 GiB arena, run explicitly with --ignored"]
    fn huge_n_smoke_at_2_pow_27() {
        // The acceptance bar for the sharded arena: 2^27 cells come up,
        // span 512 shards, and the step primitives work at the far end of
        // the address space without the old realloc cliff.
        let n = 1usize << 27;
        let mut m = NativeMachine::with_seed(1, 1);
        m.ensure_memory(n);
        let stats = m.arena_stats();
        assert_eq!(stats.cells, n);
        assert_eq!(stats.shards, n / SHARD_CELLS);
        let tail = n - 4096;
        let values: Vec<u64> = (0..4096u64).map(|i| i + 1).collect();
        m.load(tail, &values);
        let total = m.scan_step(tail, 4096);
        assert_eq!(total, 4096 * 4097 / 2);
        let attempts: Vec<(u64, usize)> = (0..4096).map(|i| (i as u64 + 1, tail + i / 2)).collect();
        Machine::clear_region(&mut m, tail, 4096);
        let won = m.claim(&attempts, ClaimMode::Exclusive);
        assert!(won.iter().all(|&b| !b), "every cell is contested by a pair");
    }
}
