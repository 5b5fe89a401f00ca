//! The per-processor side of a simulated step and the step accounting.
//!
//! A parallel step of [`crate::Pram`] ([`crate::Machine::par_map`])
//! launches its virtual
//! processors here; each runs with a per-processor context, the simulator's
//! [`crate::MachineProc`], through which it reads the shared memory (as it
//! was at the *beginning* of the step), buffers writes (applied at the *end*
//! of the step), performs accounted local compute operations, and draws
//! deterministic random numbers.
//!
//! The split into read-substep / compute-substep / write-substep of
//! Definition 2.2 is therefore enforced structurally: reads can never
//! observe a write issued in the same step.
//!
//! # Accounting: chunk logs split by address, and the stamp walk
//!
//! Definition 2.1 charges a step by its per-cell queues, so the accounting
//! of one cell never looks at another — the reason Theorem 1.1's emulation
//! can let every memory module serve its own cells.  A step's memory is
//! therefore dealt to a few address ranges the way that emulation spreads
//! memory over modules: in blocks of cells, round robin, so that any long
//! array is spread evenly over the ranges.  `StepScratch::begin_step`
//! derives the cut from the memory size and the number of walkers its
//! caller offers; one walker gets one range.
//!
//! Processors are launched in contiguous chunks, and each chunk appends to
//! one `ChunkLog`: per range, the reads and the `(address, value)` writes
//! that fall in it, each tagged with its processor id.  Logs are recycled
//! through a `StepScratch`, so a steady-state step allocates nothing.
//!
//! `StepScratch::finish` orders the step's logs by their first processor
//! id and walks every range on its own pool worker, over the range's own
//! cells of a per-cell stamp table: the range's part of each log in chunk
//! order, once for the reads and once for the writes.  Chunks are
//! contiguous id ranges and each logs in processor order, so that walk
//! meets every cell's accesses in ascending processor id, and one
//! processor's accesses to it in program order — the one order the stamps
//! rely on, and one no partition by address can break.  One `(epoch, last
//! processor, count)` stamp per cell then tells, per access:
//!
//! * a stale epoch — the first processor on the cell this walk, hence its
//!   lowest id: a new `(cell, processor)` pair, and for writes the owner of
//!   the cell;
//! * the stamped processor again — a repeat, not extra contention; the
//!   owner's repeated writes land in program order, so its last one stays;
//! * another processor — one more distinct processor queued on the cell.
//!
//! The largest count is the contention `κ` of Definition 2.1 (folded over
//! the ranges by max), the new-pair events are the messages a BSP router
//! would carry (counted per chunk of the walk, merged by the `StepSink`:
//! a [`crate::Pram::with_bsp`] machine's sink counts them), and each walker
//! writes its range's owner writes into the memory: the arbitration.  The
//! walk never orders accesses by address.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::Rng;
use rayon::pool::SendPtr;

use crate::machine::MachineProc;
use crate::rng::proc_rng;
use crate::stats::StepStats;

/// Most address ranges a step is cut into (a power of two).  Two per
/// walker let the pool balance uneven ranges; many more would make every
/// chunk keep that many part-filled sub-logs.
const MAX_RANGES: usize = 8;

/// The ranges interleave in blocks of at most `2^MAX_BLOCK_BITS` cells (48
/// KiB of stamps): walkers working on neighbouring blocks share a cache line
/// or a page only at the seams, and an array of some ten thousand cells is
/// already spread over every range.  Smaller memories get smaller blocks,
/// so that each range owns at least 16.
const MAX_BLOCK_BITS: u32 = 12;

/// Records per block of a [`SubLogs`] buffer.
const BLOCK: usize = 128;

/// How memory is dealt to `2^range_bits` address ranges: in blocks of
/// `2^block_bits` cells, round robin, the way Theorem 1.1's emulation
/// spreads memory over modules.  Range `r` owns the blocks `r`,
/// `r + ranges`, `r + 2·ranges`, …, and with them those cells' stamps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cut {
    range_bits: u32,
    block_bits: u32,
}

impl Cut {
    /// The range owning cell `addr`.
    #[inline]
    fn range_of(self, addr: usize) -> usize {
        (addr >> self.block_bits) & ((1 << self.range_bits) - 1)
    }
}

/// How a step's memory of `cells` cells is cut into address ranges, and how
/// many walkers may walk them at once.
#[derive(Debug, Clone, Copy, Default)]
struct Split {
    cut: Cut,
    cells: usize,
    walkers: usize,
}

impl Split {
    /// About two ranges per walker, at most [`MAX_RANGES`], each owning at
    /// least 16 blocks where the memory allows; one walker gets one range.
    ///
    /// # Panics
    ///
    /// If the memory has more than `2^32` cells: a record holds a 32-bit
    /// address, as it holds a 32-bit processor id.
    fn new(cells: usize, walkers: usize) -> Split {
        assert!(
            cells as u64 <= 1 << 32,
            "the step accounting addresses at most 2^32 cells, not {cells}"
        );
        let walkers = walkers.max(1);
        let target = if walkers == 1 {
            1
        } else {
            (2 * walkers).min(MAX_RANGES)
        };
        let range_bits = target.next_power_of_two().trailing_zeros();
        let block_bits = (cells >> (range_bits + 4))
            .checked_ilog2()
            .unwrap_or(0)
            .min(MAX_BLOCK_BITS);
        Split {
            cut: Cut {
                range_bits,
                block_bits,
            },
            cells,
            walkers,
        }
    }

    fn ranges(&self) -> usize {
        1 << self.cut.range_bits
    }
}

/// A logged read: the reader and the cell.
#[derive(Debug, Clone, Copy, Default)]
struct Read {
    proc: u32,
    addr: u32,
}

/// A logged write: the writer, the cell and the value.
#[derive(Debug, Clone, Copy, Default)]
struct Write {
    proc: u32,
    addr: u32,
    value: u64,
}

/// One side (reads or writes) of a chunk's log, partitioned by range in a
/// single recycled buffer.  Records go into blocks of [`BLOCK`], each owned
/// by one range and filled in logging order, so the buffer holds the
/// chunk's records plus at most one part-filled block per range however
/// the traffic is spread over the ranges.
#[derive(Debug, Default)]
struct SubLogs<R> {
    /// The blocks, initialised up to the most any step used (a reset keeps
    /// them, so a steady-state step never writes a record slot twice).
    buf: Vec<R>,
    /// The range owning each block in use.
    owners: Vec<u32>,
    /// Per range: its next free slot and the end of its open block (equal
    /// when it has no room left, or no block yet).  Every `end` is at most
    /// `buf.len()`.
    tails: [(usize, usize); MAX_RANGES],
}

impl<R: Copy + Default> SubLogs<R> {
    /// Empties the log, keeping its blocks.
    fn reset(&mut self) {
        self.owners.clear();
        self.tails = Default::default();
    }

    #[inline]
    fn push(&mut self, range: usize, record: R) {
        let (next, end) = self.tails[range];
        let at = if next == end {
            self.open_block(range)
        } else {
            next
        };
        debug_assert!(at < self.buf.len());
        // SAFETY: `at` is below its block's end, which is at most
        // `buf.len()` (`tails`' invariant, kept by `open_block`).
        unsafe { *self.buf.get_unchecked_mut(at) = record };
        self.tails[range].0 = at + 1;
    }

    /// Gives `range` a fresh block and returns its first slot.
    #[cold]
    fn open_block(&mut self, range: usize) -> usize {
        let start = self.owners.len() * BLOCK;
        if self.buf.len() < start + BLOCK {
            self.buf.resize(start + BLOCK, R::default());
        }
        self.owners.push(range as u32);
        self.tails[range] = (start, start + BLOCK);
        start
    }

    /// `range`'s records, in the order they were logged.
    fn of_range(&self, range: usize) -> impl Iterator<Item = &[R]> + '_ {
        let (next, end) = self.tails[range];
        self.owners
            .iter()
            .enumerate()
            .filter(move |&(_, &owner)| owner as usize == range)
            .map(move |(block, _)| {
                let start = block * BLOCK;
                let stop = if start + BLOCK == end {
                    next
                } else {
                    start + BLOCK
                };
                &self.buf[start..stop]
            })
    }
}

/// The operation log of one contiguous chunk of virtual processors: its
/// reads and writes split by address range, each tagged with its processor
/// id, and the per-chunk sums of the per-processor counts.
#[derive(Debug, Default)]
pub(crate) struct ChunkLog {
    lo: usize,
    /// Processors closed so far: the chunk is `lo .. lo + procs`.
    procs: usize,
    cut: Cut,
    reads: SubLogs<Read>,
    writes: SubLogs<Write>,
    total_reads: u64,
    total_writes: u64,
    active: u64,
    computes: u64,
    max_ops: u64,
}

impl ChunkLog {
    /// Closes the current processor, which issued `reads` reads, `writes`
    /// writes and charged `computes` local operations; the next record
    /// belongs to the next processor id.
    #[inline]
    fn end_processor(&mut self, reads: u64, writes: u64, computes: u64) {
        self.procs += 1;
        self.total_reads += reads;
        self.total_writes += writes;
        self.active += (reads + writes + computes > 0) as u64;
        self.computes += computes;
        self.max_ops = self.max_ops.max(reads).max(writes).max(computes);
    }

    /// Empties the log, keeping its capacity, for a chunk starting at
    /// processor `lo` of a step cut as `split`.
    fn reset(&mut self, lo: usize, split: &Split) {
        self.lo = lo;
        self.procs = 0;
        self.cut = split.cut;
        self.reads.reset();
        self.writes.reset();
        self.total_reads = 0;
        self.total_writes = 0;
        self.active = 0;
        self.computes = 0;
        self.max_ops = 0;
    }

    /// One past the last processor id logged.
    fn hi(&self) -> usize {
        self.lo + self.procs
    }
}

/// The context of each virtual processor of a parallel step: its
/// [`MachineProc`].
///
/// One context serves a whole chunk, re-pointed per processor
/// (`ProcCtx::begin` … `ProcCtx::end`), and its methods are
/// `#[inline]`: step closures are monomorphised in downstream crates, which
/// build without LTO.
pub(crate) struct ProcCtx<'a> {
    snapshot: &'a [u64],
    log: &'a mut ChunkLog,
    cut: Cut,
    seed: u64,
    step_idx: u64,
    proc: u64,
    reads: u64,
    writes: u64,
    computes: u64,
    rng: Option<SmallRng>,
}

impl<'a> ProcCtx<'a> {
    /// A context for the chunk that fills `log`, reading `snapshot` in step
    /// `step_idx` of a run seeded with `seed`.
    fn new(snapshot: &'a [u64], seed: u64, step_idx: u64, log: &'a mut ChunkLog) -> Self {
        ProcCtx {
            snapshot,
            cut: log.cut,
            log,
            seed,
            step_idx,
            proc: 0,
            reads: 0,
            writes: 0,
            computes: 0,
            rng: None,
        }
    }

    /// Points the context at processor `proc`, which must be the chunk's
    /// next id.
    #[inline]
    fn begin(&mut self, proc: u64) {
        debug_assert_eq!(proc as usize, self.log.hi(), "a chunk runs consecutive ids");
        self.proc = proc;
        self.reads = 0;
        self.writes = 0;
        self.computes = 0;
        self.rng = None;
    }

    /// Closes the current processor's stretch of the log.
    #[inline]
    fn end(&mut self) {
        self.log
            .end_processor(self.reads, self.writes, self.computes);
    }
}

impl MachineProc for ProcCtx<'_> {
    #[inline]
    fn proc_id(&self) -> u64 {
        self.proc
    }

    /// The value as of the start of the step; charges one read operation.
    #[inline]
    fn read(&mut self, addr: usize) -> u64 {
        assert!(
            addr < self.snapshot.len(),
            "read of address {addr} outside shared memory of size {}",
            self.snapshot.len()
        );
        self.reads += 1;
        let record = Read {
            proc: self.proc as u32,
            addr: addr as u32,
        };
        self.log.reads.push(self.cut.range_of(addr), record);
        self.snapshot[addr]
    }

    /// Buffers the write to the end of the step and charges one write
    /// operation.  If several processors write the same location in a
    /// step, the one with the smallest processor id wins (a deterministic
    /// instance of the paper's "arbitrary write succeeds" rule); among that
    /// processor's own writes to the location, the last in program order
    /// lands.
    #[inline]
    fn write(&mut self, addr: usize, value: u64) {
        assert!(
            addr < self.snapshot.len(),
            "write of address {addr} outside shared memory of size {}",
            self.snapshot.len()
        );
        self.writes += 1;
        let record = Write {
            proc: self.proc as u32,
            addr: addr as u32,
            value,
        };
        self.log.writes.push(self.cut.range_of(addr), record);
    }

    #[inline]
    fn compute(&mut self, ops: u64) {
        self.computes += ops;
    }

    /// Charges one compute operation for the random-number generation.
    #[inline]
    fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "random_index bound must be positive");
        self.computes += 1;
        let (seed, step_idx, proc) = (self.seed, self.step_idx, self.proc);
        self.rng
            .get_or_insert_with(|| proc_rng(seed, step_idx, proc))
            .gen_range(0..bound)
    }
}

/// A launch of at least this many virtual processors fans them out over
/// the worker pool; smaller launches run on the calling thread.  Host
/// speed only: per-processor random streams are keyed by
/// `(seed, step, proc)` and write arbitration is deterministic, so both
/// ways are bit-identical.
const PARALLEL_CUTOFF: usize = 4096;

/// A step logging at least this many accesses walks its address ranges on
/// the worker pool; smaller ones are walked inline.  A range is walked the
/// same on any thread, so both ways are bit-identical.  Below about this
/// size (some 70 µs of walk on the 2-vCPU reference box) the worker's
/// wake-up and the cells its walk leaves in the other core's cache cost
/// what the split saves: at half this cutoff `model` spent 8 % more CPU
/// for no more throughput.
const WALK_CUTOFF: u64 = 4 * PARALLEL_CUTOFF as u64;

/// Smallest chunk a pooled launch is cut into: a few chunks per thread for
/// dynamic load balance, but never degenerate slivers.
const MIN_CHUNK: usize = PARALLEL_CUTOFF / 8;

/// Launches virtual processors `range` into the step `scratch` has open,
/// reading `snapshot` in step `step_idx` of a run seeded with `seed`, and
/// collects their results in processor order.  A launch of at least
/// [`PARALLEL_CUTOFF`] processors fans out over up to `threads` threads;
/// every chunk files its own log.  A step is one launch of `0..procs`;
/// the in-crate tests issue several, in any order.
pub(crate) fn launch<T, F>(
    scratch: &StepScratch,
    snapshot: &[u64],
    seed: u64,
    step_idx: u64,
    range: Range<usize>,
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
{
    let len = range.len();
    let threads = if len >= PARALLEL_CUTOFF { threads } else { 1 };
    let mut out: Vec<T> = Vec::with_capacity(len);
    let slots = SendPtr(out.as_mut_ptr());
    let slots = &slots;
    let chunk_len = len.div_ceil(threads * 4).max(MIN_CHUNK);
    rayon::pool::dispatch(len, chunk_len, threads, false, 1, |_, lo, hi| {
        let mut log = scratch.take_log(range.start + lo);
        let mut ctx = ProcCtx::new(snapshot, seed, step_idx, &mut log);
        for i in lo..hi {
            let p = range.start + i;
            ctx.begin(p as u64);
            let value = f(p, &mut ctx);
            // SAFETY: disjoint chunks write disjoint slots of the
            // reserved buffer, each exactly once.
            unsafe { slots.0.add(i).write(value) };
            ctx.end();
        }
        scratch.put_log(log);
    });
    // SAFETY: every chunk completed (`dispatch` is a barrier), so all
    // `len` slots are initialized.  On a chunk panic `dispatch` re-throws
    // before here and the written values are leaked, not dropped.
    unsafe { out.set_len(len) };
    out
}

/// What a step's accounting walk reports besides its statistics: every
/// distinct `(cell, processor)` pair it meets (the BSP sink of
/// [`crate::Pram::with_bsp`] counts them as messages).
///
/// The walk runs in chunks — one when it runs inline, one per address
/// range when it fans out over the pool — and each chunk counts into its
/// own [`StepSink::Partial`]; [`StepSink::merge`] folds them.
pub(crate) trait StepSink {
    /// What one chunk of the walk counts.  Concurrent chunks update
    /// neighbouring partials of one vector, so a partial written per
    /// message should fill its own cache lines (`#[repr(align(128))]`).
    type Partial: Send;

    /// A zeroed partial, for a walk in more chunks than the caller kept
    /// partials for.
    fn new_partial(&self) -> Self::Partial;

    /// A distinct `(cell, processor)` read pair: one read request however
    /// often the processor re-read the cell.
    fn read_pair(_partial: &mut Self::Partial, _addr: usize) {}

    /// A distinct `(cell, processor)` write pair.
    fn write_pair(_partial: &mut Self::Partial, _addr: usize) {}

    /// Folds the partials the walk's chunks filled into the sink, leaving
    /// them zeroed for the next step.
    fn merge(&mut self, _partials: &mut [Self::Partial]) {}
}

/// The plain step counts nothing: its partials are zero-sized.
impl StepSink for () {
    type Partial = ();

    fn new_partial(&self) {}
}

/// Per-cell scratch of the walk: valid only while `epoch` is the walk's own,
/// so a walk never clears the table behind itself.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    epoch: u32,
    /// The last processor that touched the cell in this walk.
    proc: u32,
    /// Distinct processors that touched the cell in this walk.
    count: u32,
}

#[derive(Debug, Default)]
struct StampTable {
    stamps: Vec<Stamp>,
    epoch: u32,
}

impl StampTable {
    /// Fresh epochs for a step's reads walk and writes walk over a memory of
    /// `cells` cells: every stamp the table holds reads as stale under
    /// either.  Both are taken before either walk runs, so the table is
    /// wiped before the pair is handed out whenever it would pass
    /// `u32::MAX` — a wipe between them would leave the first walk's
    /// stamps to be met again when the epochs come round.
    fn next_epochs(&mut self, cells: usize) -> (u32, u32) {
        if self.epoch > u32::MAX - 2 {
            self.stamps.fill(Stamp::default());
            self.epoch = 0;
        }
        self.epoch += 2;
        if self.stamps.len() < cells {
            self.stamps.resize(cells, Stamp::default());
        }
        (self.epoch - 1, self.epoch)
    }
}

/// Walks one side (reads or writes) of one address range under `epoch`:
/// `blocks` hold the range's records in ascending processor order, and
/// `key` gives a record's `(processor, address)`.  Returns the largest
/// number of distinct processors found on one cell.  `visit(record,
/// new_pair, owner)` sees every record with whether it is its processor's
/// first access to the cell, and whether no lower processor id touched the
/// cell.
///
/// # Panics
///
/// If a record addresses a cell past `cells`.
///
/// # Safety
///
/// `stamps` points to a table of at least `cells` stamps, and while the
/// walk runs no other thread touches the stamps of the cells `blocks`
/// address.
unsafe fn walk<'r, R: 'r>(
    stamps: *mut Stamp,
    cells: usize,
    epoch: u32,
    blocks: impl Iterator<Item = &'r [R]>,
    key: impl Fn(&R) -> (u32, u32),
    mut visit: impl FnMut(&R, bool, bool),
) -> u64 {
    let mut longest = 0;
    for block in blocks {
        for record in block {
            let (proc, addr) = key(record);
            // A log filled over a larger snapshot than the step's memory
            // must not reach past it.
            assert!((addr as usize) < cells, "access outside the step's memory");
            // SAFETY: in bounds (just checked), and this walk's alone (the
            // caller's contract).
            let stamp = unsafe { &mut *stamps.add(addr as usize) };
            let (new_pair, owner) = if stamp.epoch != epoch {
                *stamp = Stamp {
                    epoch,
                    proc,
                    count: 1,
                };
                longest = longest.max(1);
                (true, true)
            } else if stamp.proc == proc {
                (false, stamp.count == 1)
            } else {
                stamp.proc = proc;
                stamp.count += 1;
                longest = longest.max(stamp.count);
                (true, false)
            };
            visit(record, new_pair, owner);
        }
    }
    longest as u64
}

#[derive(Debug, Default)]
struct LogPool {
    /// Emptied logs, capacity kept.
    free: Vec<ChunkLog>,
    /// Logs of the step in flight, in the order their chunks finished.
    filled: Vec<ChunkLog>,
}

/// The reusable state behind a model backend's step accounting: the pool of
/// [`ChunkLog`]s and the per-cell stamp table (12 bytes per cell, grown
/// lazily to the memory size).
///
/// A step is `begin_step`, any number of `take_log` … `put_log` from the
/// threads running its chunks (each filling its log through a
/// [`ProcCtx`]), then `finish`.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    logs: Mutex<LogPool>,
    stamps: StampTable,
    split: Split,
}

impl StepScratch {
    /// Opens a step over a memory of `cells` cells whose accounting
    /// [`StepScratch::finish`] may walk on up to `walkers` threads (the
    /// caller's own parallelism; 1 walks one address range inline), and
    /// recycles whatever a previous step left behind when a processor body
    /// unwound out of it.
    pub(crate) fn begin_step(&mut self, cells: usize, walkers: usize) {
        let pool = self.logs.get_mut().expect("log pool lock poisoned");
        pool.free.append(&mut pool.filled);
        self.split = Split::new(cells, walkers);
    }

    /// An empty log for a chunk whose first processor id is `lo`.
    fn take_log(&self, lo: usize) -> ChunkLog {
        let recycled = self.logs.lock().expect("log pool lock poisoned").free.pop();
        let mut log = recycled.unwrap_or_default();
        log.reset(lo, &self.split);
        log
    }

    /// Hands a chunk's filled log back for [`StepScratch::finish`].
    fn put_log(&self, log: ChunkLog) {
        let mut pool = self.logs.lock().expect("log pool lock poisoned");
        pool.filled.push(log);
    }

    /// Moves the walk epoch, so a test can run the wrap-and-clear path
    /// without executing `2^32` walks first.
    #[cfg(test)]
    fn force_epoch(&mut self, epoch: u32) {
        self.stamps.epoch = epoch;
    }

    /// The number of address ranges the open step is cut into.
    #[cfg(test)]
    fn ranges(&self) -> usize {
        self.split.ranges()
    }

    /// Closes the step: computes its statistics, writes every winning write
    /// into `cells` and reports every distinct `(cell, processor)` pair to
    /// `sink` (see the [module docs](self)).  `partials` holds the sink's
    /// per-chunk partials, recycled across steps.
    ///
    /// # Panics
    ///
    /// If a processor id was launched twice in the step or does not fit 32
    /// bits, if `cells` is not the size the step began with, or if a log was
    /// taken for another step or logged a cell past that memory.
    pub(crate) fn finish<S: StepSink>(
        &mut self,
        cells: &mut [u64],
        sink: &mut S,
        partials: &mut Vec<S::Partial>,
    ) -> StepStats {
        let split = self.split;
        let pool = self.logs.get_mut().expect("log pool lock poisoned");
        // The only ordering a step pays for: chunks, not accesses.
        pool.filled.sort_unstable_by_key(|log| log.lo);
        let logs = &pool.filled[..];
        for pair in logs.windows(2) {
            assert!(
                pair[0].hi() <= pair[1].lo,
                "processor id launched twice in one step"
            );
        }
        assert!(
            logs.last().map_or(0, ChunkLog::hi) <= u32::MAX as usize,
            "processor ids must fit 32 bits"
        );

        let stats = StepStats {
            active_procs: logs.iter().map(|log| log.active).sum(),
            total_reads: logs.iter().map(|log| log.total_reads).sum(),
            total_writes: logs.iter().map(|log| log.total_writes).sum(),
            total_computes: logs.iter().map(|log| log.computes).sum(),
            max_ops_per_proc: logs.iter().map(|log| log.max_ops).max().unwrap_or(0),
            max_read_contention: 0,
            max_write_contention: 0,
            is_scan: false,
            scan_width: 0,
        };
        // One chunk per range on the pool, or all ranges in one chunk inline.
        let ranges = split.ranges();
        let (threads, chunk_len) = if stats.total_reads + stats.total_writes >= WALK_CUTOFF {
            (split.walkers, 1)
        } else {
            (1, ranges)
        };
        let chunks = ranges.div_ceil(chunk_len);
        while partials.len() < chunks {
            partials.push(sink.new_partial());
        }
        let (read_epoch, write_epoch) = self.stamps.next_epochs(split.cells);
        assert_eq!(
            cells.len(),
            split.cells,
            "the memory changed size during the step"
        );
        // A record sits in the sub-log of its cell's range only if its log
        // was cut as this step is.
        assert!(
            logs.iter().all(|log| log.cut == split.cut),
            "a chunk log taken for another step"
        );

        let longest_read = AtomicU64::new(0);
        let longest_write = AtomicU64::new(0);
        let stamps = SendPtr(self.stamps.stamps.as_mut_ptr());
        let cells = SendPtr(cells.as_mut_ptr());
        let parts = SendPtr(partials.as_mut_ptr());
        let (stamps, cells, parts) = (&stamps, &cells, &parts);
        rayon::pool::dispatch(ranges, chunk_len, threads, false, 1, |_, lo, hi| {
            // SAFETY: `partials` holds at least `chunks` partials (grown
            // above), and each chunk index is run by one body only.
            let partial = unsafe { &mut *parts.0.add(lo / chunk_len) };
            for range in lo..hi {
                let count_read = |r: &Read, new_pair: bool, _| {
                    if new_pair {
                        S::read_pair(partial, r.addr as usize);
                    }
                };
                let read_blocks = logs.iter().flat_map(|log| log.reads.of_range(range));
                // SAFETY (both walks): the table holds `split.cells` stamps
                // (`next_epochs`); every record in a range's sub-logs
                // addresses a cell of that range (asserted cut), and each
                // range is walked by one body only, so no two threads touch
                // one stamp.  `dispatch` is a barrier: nothing here outlives
                // the borrows behind the pointers.
                let read = unsafe {
                    walk(
                        stamps.0,
                        split.cells,
                        read_epoch,
                        read_blocks,
                        |r| (r.proc, r.addr),
                        count_read,
                    )
                };
                let deliver = |w: &Write, new_pair: bool, owner: bool| {
                    if new_pair {
                        S::write_pair(partial, w.addr as usize);
                    }
                    if owner {
                        // SAFETY: `walk` checked the address against the
                        // memory's length, and the cell is this range's,
                        // walked by this body only.
                        unsafe { cells.0.add(w.addr as usize).write(w.value) };
                    }
                };
                let write_blocks = logs.iter().flat_map(|log| log.writes.of_range(range));
                let write = unsafe {
                    walk(
                        stamps.0,
                        split.cells,
                        write_epoch,
                        write_blocks,
                        |w| (w.proc, w.addr),
                        deliver,
                    )
                };
                // Relaxed: the dispatch's completion is what publishes them.
                longest_read.fetch_max(read, Ordering::Relaxed);
                longest_write.fetch_max(write, Ordering::Relaxed);
            }
        });
        sink.merge(&mut partials[..chunks]);
        pool.free.append(&mut pool.filled);
        StepStats {
            max_read_contention: longest_read.into_inner(),
            max_write_contention: longest_write.into_inner(),
            ..stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SharedMemory;
    use rand::SeedableRng;

    /// A memory and its scratch, stepped the way [`crate::Pram`]'s `par_map`
    /// does on `walkers` threads (the host parallelism unless a test forces
    /// another count).
    struct Harness {
        mem: SharedMemory,
        scratch: StepScratch,
        walkers: usize,
    }

    impl Harness {
        /// Cell `i` holds `i`.
        fn counting(n: usize) -> Self {
            let mut mem = SharedMemory::new(n);
            mem.load(0, &(0..n as u64).collect::<Vec<_>>());
            Harness {
                mem,
                scratch: StepScratch::default(),
                walkers: rayon::current_num_threads(),
            }
        }

        /// One step of several launches — `(processors, threads)`, issued
        /// in the order given, each running `body` — whose walk reports
        /// to `sink`: every launch's results, and the step's statistics.
        fn step_with<T: Send, S: StepSink>(
            &mut self,
            (seed, step_idx): (u64, u64),
            launches: &[(Range<usize>, usize)],
            sink: &mut S,
            body: impl Fn(usize, &mut dyn MachineProc) -> T + Sync,
        ) -> (Vec<Vec<T>>, StepStats) {
            self.scratch.begin_step(self.mem.len(), self.walkers);
            let snapshot = self.mem.as_slice();
            let outs = launches
                .iter()
                .map(|(range, threads)| {
                    let range = range.clone();
                    launch(
                        &self.scratch,
                        snapshot,
                        seed,
                        step_idx,
                        range,
                        *threads,
                        &body,
                    )
                })
                .collect();
            let stats = self
                .scratch
                .finish(self.mem.as_mut_slice(), sink, &mut Vec::new());
            (outs, stats)
        }

        /// One step of one launch of processors `0..procs`, seed 0, step 0.
        fn step<T: Send>(
            &mut self,
            procs: usize,
            body: impl Fn(usize, &mut dyn MachineProc) -> T + Sync,
        ) -> (Vec<T>, StepStats) {
            let launches = [(0..procs, self.walkers)];
            let (mut outs, stats) = self.step_with((0, 0), &launches, &mut (), body);
            (outs.pop().expect("one launch"), stats)
        }
    }

    /// A sink that keeps every `(cell, processor)` pair the walk reports:
    /// one entry per pair, the cells read and the cells written, sorted.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Pairs {
        reads: Vec<usize>,
        writes: Vec<usize>,
    }

    impl StepSink for Pairs {
        type Partial = Pairs;

        fn new_partial(&self) -> Pairs {
            Pairs::default()
        }

        fn read_pair(partial: &mut Pairs, addr: usize) {
            partial.reads.push(addr);
        }

        fn write_pair(partial: &mut Pairs, addr: usize) {
            partial.writes.push(addr);
        }

        fn merge(&mut self, partials: &mut [Pairs]) {
            for partial in partials {
                self.reads.append(&mut partial.reads);
                self.writes.append(&mut partial.writes);
            }
            self.reads.sort_unstable();
            self.writes.sort_unstable();
        }
    }

    #[test]
    fn reads_see_start_of_step_snapshot() {
        let mut h = Harness::counting(8);
        let (vals, _) = h.step(8, |p, ctx| {
            ctx.write(p, 100);
            ctx.read(p)
        });
        assert_eq!(vals, (0..8).collect::<Vec<u64>>());
        assert_eq!(h.mem.dump(0, 8), vec![100; 8]);
    }

    #[test]
    fn contention_counts_distinct_processors_per_location() {
        let mut h = Harness::counting(8);
        let (_, stats) = h.step(6, |p, ctx| {
            // everyone reads location 3; three processors write location 5
            let _ = ctx.read(3);
            let _ = ctx.read(3); // re-read by same proc: not extra contention
            if p < 3 {
                ctx.write(5, p as u64);
            }
        });
        assert_eq!(stats.max_read_contention, 6);
        assert_eq!(stats.max_write_contention, 3);
        assert_eq!(stats.active_procs, 6);
        assert_eq!(stats.total_reads, 12);
        assert_eq!(stats.total_writes, 3);
        // lowest processor id wins the concurrent write
        assert_eq!(h.mem.peek(5), 0);
    }

    #[test]
    fn max_ops_per_proc_tracks_substep_maximum() {
        let mut h = Harness::counting(16);
        let (_, stats) = h.step(2, |p, ctx| {
            if p == 0 {
                for i in 0..5 {
                    let _ = ctx.read(i);
                }
            } else {
                ctx.compute(3);
                ctx.write(0, 1);
            }
        });
        assert_eq!(stats.max_ops_per_proc, 5);
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let run = |threads| {
            let mut h = Harness::counting(10_000);
            let (out, stats) = h.step_with((42, 0), &[(0..10_000, threads)], &mut (), |p, ctx| {
                let v = ctx.read(p);
                let r = ctx.random_index(50);
                ctx.write((p + 1) % 10_000, v + r as u64);
                v + r as u64
            });
            (out, stats, h.mem.dump(0, 10_000))
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn idle_processors_are_not_counted_active() {
        let mut h = Harness::counting(4);
        let (_, stats) = h.step(4, |p, ctx| {
            if p == 2 {
                ctx.write(0, 9);
            }
        });
        assert_eq!(stats.active_procs, 1);
    }

    #[test]
    #[should_panic(expected = "outside shared memory")]
    fn out_of_bounds_read_panics() {
        let mut h = Harness::counting(4);
        h.step(1, |_p, ctx| ctx.read(100));
    }

    #[test]
    #[should_panic(expected = "processor id launched twice in one step")]
    fn a_processor_launched_twice_in_one_step_panics() {
        let mut h = Harness::counting(16);
        let launches = [(0..8, 1), (7..12, 1)];
        h.step_with((0, 0), &launches, &mut (), |p, ctx| ctx.write(p, 1));
    }

    #[test]
    fn disjoint_launches_in_descending_order_are_one_ascending_walk() {
        let mut h = Harness::counting(16);
        let launches = [(69_990..70_010, 1), (0..8, 1)];
        let (_, stats) = h.step_with((0, 0), &launches, &mut (), |p, ctx| {
            if p == 70_000 || p == 3 {
                let _ = ctx.read(9);
                ctx.write(4, p as u64);
            }
        });
        assert_eq!(stats.active_procs, 2);
        assert_eq!(stats.max_read_contention, 2);
        assert_eq!(stats.max_write_contention, 2);
        assert_eq!(h.mem.peek(4), 3, "the lower id wins across launches");
    }

    // ---- the walk against the sort it replaces ---------------------------

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read(usize),
        Write(usize, u64),
        Compute(u64),
    }

    /// The accounting this module did before the walk — every access copied
    /// out with its processor id, both sides sorted by address, distinct
    /// processors counted as run lengths — with one rule made explicit: of
    /// the lowest processor's writes to a cell, the last in program order
    /// lands (the unstable sort used to pick any).  Also the step's
    /// `(cell, processor)` pairs, as [`Pairs`] holds them.
    fn sorted_reference(program: &[(u64, Vec<Op>)]) -> (StepStats, Vec<(usize, u64)>, Pairs) {
        let mut stats = StepStats {
            active_procs: 0,
            total_reads: 0,
            total_writes: 0,
            total_computes: 0,
            max_ops_per_proc: 0,
            max_read_contention: 0,
            max_write_contention: 0,
            is_scan: false,
            scan_width: 0,
        };
        let mut read_pairs: Vec<(usize, u64)> = Vec::new();
        let mut write_recs: Vec<(usize, u64, u64)> = Vec::new();
        for (proc, ops) in program {
            let (mut reads, mut writes, mut computes) = (0u64, 0u64, 0u64);
            for &op in ops {
                match op {
                    Op::Read(a) => {
                        reads += 1;
                        read_pairs.push((a, *proc));
                    }
                    Op::Write(a, v) => {
                        writes += 1;
                        write_recs.push((a, *proc, v));
                    }
                    Op::Compute(c) => computes += c,
                }
            }
            if reads + writes + computes == 0 {
                continue;
            }
            stats.active_procs += 1;
            stats.total_reads += reads;
            stats.total_writes += writes;
            stats.total_computes += computes;
            stats.max_ops_per_proc = stats.max_ops_per_proc.max(reads).max(writes).max(computes);
        }

        read_pairs.sort_unstable();
        read_pairs.dedup();
        stats.max_read_contention = longest_run(read_pairs.iter().map(|&(a, _)| a));

        // Stable, so one processor's writes to a cell stay in program order.
        write_recs.sort_by_key(|&(a, p, _)| (a, p));
        let mut wp: Vec<(usize, u64)> = write_recs.iter().map(|&(a, p, _)| (a, p)).collect();
        wp.dedup();
        stats.max_write_contention = longest_run(wp.iter().map(|&(a, _)| a));

        let mut winners: Vec<(usize, u64, u64)> = Vec::new();
        for &(a, p, v) in &write_recs {
            match winners.last_mut() {
                Some(w) if w.0 == a && w.1 == p => w.2 = v,
                Some(w) if w.0 == a => {}
                _ => winners.push((a, p, v)),
            }
        }
        let pairs = Pairs {
            reads: read_pairs.iter().map(|&(a, _)| a).collect(),
            writes: wp.iter().map(|&(a, _)| a).collect(),
        };
        (
            stats,
            winners.into_iter().map(|(a, _, v)| (a, v)).collect(),
            pairs,
        )
    }

    fn longest_run<I: Iterator<Item = usize>>(addrs: I) -> u64 {
        let mut best = 0u64;
        let mut cur = 0u64;
        let mut last = usize::MAX;
        for a in addrs {
            if a == last {
                cur += 1;
            } else {
                cur = 1;
                last = a;
            }
            best = best.max(cur);
        }
        best
    }

    /// One random processor body.  `flavour` picks the step's shape; `hot`
    /// is a cell every reading processor also reads.
    fn random_ops(rng: &mut SmallRng, cells: usize, flavour: u64, hot: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        let kind = rng.gen_range(0..10u32);
        if kind == 0 {
            return ops; // idle
        }
        if kind == 1 {
            ops.push(Op::Compute(rng.gen_range(1..6u64)));
            return ops; // compute only
        }
        // Collisions need a small address range; the rest of the memory
        // keeps the stamp table honest about its size.
        let addr = |rng: &mut SmallRng| {
            if rng.gen::<bool>() {
                rng.gen_range(0..cells.min(24))
            } else {
                rng.gen_range(0..cells)
            }
        };
        if flavour != 1 {
            ops.push(Op::Read(hot));
            for _ in 0..rng.gen_range(0..3u32) {
                let a = addr(rng);
                ops.push(Op::Read(a));
                if rng.gen_range(0..4u32) == 0 {
                    ops.push(Op::Read(a)); // re-read: no extra contention
                }
            }
        }
        if rng.gen_range(0..3u32) == 0 {
            ops.push(Op::Compute(rng.gen_range(1..4u64)));
        }
        if flavour != 2 {
            for _ in 0..rng.gen_range(0..3u32) {
                let a = addr(rng);
                ops.push(Op::Write(a, rng.gen()));
                if rng.gen_range(0..4u32) == 0 {
                    ops.push(Op::Write(a, rng.gen())); // same cell again
                }
            }
        }
        ops
    }

    #[test]
    fn the_walk_agrees_with_the_sort_it_replaces() {
        const SIZES: [usize; 5] = [1, 7, 300, PARALLEL_CUTOFF - 1, 3 * PARALLEL_CUTOFF + 17];
        /// Every processor reads and writes one hot cell: ROADMAP's skew
        /// adversary, all traffic in one range.
        const HOT: u64 = 240;
        /// A one-cell memory: however many ranges the step is cut into,
        /// one holds all of it.
        const ONE_RANGE: u64 = 241;
        let mut grown = Harness::counting(64);
        let mut one_cell = Harness::counting(1);
        for seed in 0..242u64 {
            let h = if seed == ONE_RANGE {
                &mut one_cell
            } else {
                &mut grown
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            if seed % 7 == 3 {
                // Memory grown between steps: the stamp table must follow.
                let grown = h.mem.len() + rng.gen_range(1..5000usize);
                h.mem.ensure(grown);
            }
            if seed == 100 {
                // The step's two epochs would pass the last: the table is
                // wiped before either walk.
                h.scratch.force_epoch(u32::MAX - 1);
            }
            let cells = h.mem.len();
            let procs = if seed >= HOT {
                SIZES[4]
            } else {
                SIZES[seed as usize % SIZES.len()]
            };
            // 0 mixed, 1 writes only, 2 reads only
            let flavour = (seed / 5) % 3;
            let hot = rng.gen_range(0..cells);
            let first = rng.gen_range(0..1000usize);
            let program: Vec<(u64, Vec<Op>)> = (first..first + procs)
                .map(|p| {
                    let ops = if seed == HOT {
                        vec![Op::Read(hot), Op::Write(hot, rng.gen())]
                    } else {
                        random_ops(&mut rng, cells, flavour, hot)
                    };
                    (p as u64, ops)
                })
                .collect();
            let body = |p: usize, ctx: &mut dyn MachineProc| {
                let mut sum = 0u64;
                for &op in &program[p - first].1 {
                    match op {
                        Op::Read(a) => sum = sum.wrapping_add(ctx.read(a)),
                        Op::Write(a, v) => ctx.write(a, v),
                        Op::Compute(c) => ctx.compute(c),
                    }
                }
                sum
            };

            let before = h.mem.dump(0, cells);
            let (want_stats, winners, want_pairs) = sorted_reference(&program);
            let mut want_mem = before.clone();
            for (a, v) in winners {
                want_mem[a] = v;
            }
            // Even seeds: two launches, upper half first; above the cutoff
            // four pool threads deliver each one's logs out of order.  Odd
            // seeds: launches of a random size, each filing its logs in
            // turn, issued reversed and rotated.
            let end = first + procs;
            let scrambled: Vec<(Range<usize>, usize)> = if seed % 2 == 0 {
                let split = first + procs / 2;
                vec![(split..end, 4), (first..split, 4)]
            } else {
                let chunk = rng.gen_range(1..600usize);
                let mut launches: Vec<_> = (first..end)
                    .step_by(chunk)
                    .map(|lo| (lo..(lo + chunk).min(end), 4))
                    .collect();
                launches.reverse();
                let by = rng.gen_range(0..64usize) % launches.len();
                launches.rotate_left(by);
                launches
            };
            let in_order = vec![(first..end, 4)];
            // As the machine would, then with the split forced: four
            // walkers deal even the 64-cell memory to eight ranges, and
            // above the walk cutoff up to four threads walk them.  Last,
            // the whole program as one launch, which above the cutoff four
            // pool threads run in chunks of their own.
            for (walkers, launches) in [
                (rayon::current_num_threads(), &scrambled),
                (4, &scrambled),
                (4, &in_order),
            ] {
                let tag = format!(
                    "seed {seed}, {walkers} walkers, {} launches",
                    launches.len()
                );
                h.mem.load(0, &before);
                h.walkers = walkers;
                let mut pairs = Pairs::default();
                let (outs, stats) = h.step_with((seed, seed), launches, &mut pairs, body);
                if walkers == 4 {
                    assert_eq!(h.scratch.ranges(), MAX_RANGES, "{tag}: ranges");
                }

                assert_eq!(stats, want_stats, "{tag}: step statistics");
                assert_eq!(h.mem.dump(0, cells), want_mem, "{tag}: memory image");
                assert!(pairs == want_pairs, "{tag}: (cell, processor) pairs");
                let mut outs: Vec<_> = launches.iter().map(|(l, _)| l.start).zip(outs).collect();
                outs.sort_unstable_by_key(|&(start, _)| start);
                let sums: Vec<u64> = outs.into_iter().flat_map(|(_, out)| out).collect();
                assert_eq!(sums.len(), procs, "{tag}: results");
                for ((_, ops), got) in program.iter().zip(sums) {
                    let want = ops.iter().fold(0u64, |sum, op| match op {
                        Op::Read(a) => sum.wrapping_add(before[*a]),
                        _ => sum,
                    });
                    assert_eq!(got, want, "{tag}: a read missed the snapshot");
                }
            }
        }
    }

    #[test]
    fn no_stamp_survives_the_epoch_wrap() {
        // Stored epochs at the wrap, in an order that hands the top epochs
        // out again after a wipe.  Each is either ahead of the one the last
        // step left, as if the steps in between had run, or close enough to
        // the top to wipe.  Every step touches the same few cells, and a
        // reads-only step is followed by a writes-only one, so a stamp left
        // by an earlier step would read as this step's.
        const MAX: u32 = u32::MAX;
        let mut h = Harness::counting(64);
        for (i, epoch) in [MAX - 1, MAX - 2, MAX - 1, MAX - 3, MAX, MAX - 2]
            .into_iter()
            .enumerate()
        {
            h.scratch.force_epoch(epoch);
            let mut rng = SmallRng::seed_from_u64(i as u64);
            // reads only, writes only, mixed
            let flavour = [2, 1, 0][i % 3];
            let program: Vec<(u64, Vec<Op>)> = (0..300)
                .map(|p| (p, random_ops(&mut rng, 64, flavour, 5)))
                .collect();
            let (want_stats, winners, _) = sorted_reference(&program);
            let mut want_mem = h.mem.dump(0, 64);
            for (a, v) in winners {
                want_mem[a] = v;
            }
            let launches = [(0..300, h.walkers)];
            let (_, stats) = h.step_with((0, i as u64), &launches, &mut (), |p, ctx| {
                for &op in &program[p].1 {
                    match op {
                        Op::Read(a) => _ = ctx.read(a),
                        Op::Write(a, v) => ctx.write(a, v),
                        Op::Compute(c) => ctx.compute(c),
                    }
                }
            });
            assert_eq!(stats, want_stats, "step {i}, epoch {epoch}: statistics");
            assert_eq!(
                h.mem.dump(0, 64),
                want_mem,
                "step {i}, epoch {epoch}: memory"
            );
        }
    }
}
