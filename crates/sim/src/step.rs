//! The per-step, per-processor execution API and the step accounting.
//!
//! A PRAM step is expressed as a closure over a [`StepCtx`].  Inside the
//! closure the algorithm launches any number of *virtual processors* via
//! [`StepCtx::par_map`] / [`StepCtx::par_for`]; each virtual processor
//! receives a [`ProcCtx`] through which it reads the shared memory (as it
//! was at the *beginning* of the step), buffers writes (applied at the *end*
//! of the step), performs accounted local compute operations, and draws
//! deterministic random numbers.
//!
//! The split into read-substep / compute-substep / write-substep of
//! Definition 2.2 is therefore enforced structurally: reads can never
//! observe a write issued in the same step.
//!
//! # Accounting: chunk logs and the stamp walk
//!
//! Processors are launched in contiguous chunks, and each chunk appends to
//! one flat [`ChunkLog`]: the addresses read, the `(address, value)` pairs
//! written, and one pair of end offsets per processor.  Logs are recycled
//! through a [`StepScratch`], so a steady-state step allocates nothing.
//!
//! [`StepScratch::finish`] orders the step's logs by their first processor
//! id and walks them once for the reads and once for the writes.  Because
//! chunks are contiguous id ranges, that walk visits processors in ascending
//! id and each processor's accesses contiguously, so one `(epoch, last
//! processor, count)` stamp per cell is enough to tell, per access:
//!
//! * a stale epoch — the first processor on the cell this walk, hence its
//!   lowest id: a new `(cell, processor)` pair, and for writes the owner of
//!   the cell;
//! * the stamped processor again — a repeat, not extra contention; the
//!   owner's repeated writes land in program order, so its last one stays;
//! * another processor — one more distinct processor queued on the cell.
//!
//! The largest count is the contention `κ` of Definition 2.1, the new-pair
//! events are the messages a BSP router would carry, and the owner's writes
//! are the arbitration.  Both model backends ([`crate::Pram`] and
//! `qrqw_bsp::BspMachine`) run this one walk; neither orders accesses by
//! address.

use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::Rng;
use rayon::pool::SendPtr;

use crate::memory::SharedMemory;
use crate::rng::proc_rng;
use crate::stats::StepStats;

/// The flat operation log of one contiguous chunk of virtual processors.
///
/// Processor `lo + i` is the `i`-th to finish in the chunk; its reads and
/// writes are the records between the `(i − 1)`-th and the `i`-th entry of
/// the end offsets, so no record carries a processor id.
#[derive(Debug, Default)]
pub struct ChunkLog {
    lo: usize,
    reads: Vec<usize>,
    writes: Vec<(usize, u64)>,
    /// `(reads.len(), writes.len())` when each processor finished.
    ends: Vec<(usize, usize)>,
    active: u64,
    computes: u64,
    max_ops: u64,
}

impl ChunkLog {
    /// Closes the current processor, which charged `computes` local
    /// operations; the next record belongs to the next processor id.
    #[inline]
    fn end_processor(&mut self, computes: u64) {
        let (read_from, write_from) = self.ends.last().copied().unwrap_or((0, 0));
        let reads = (self.reads.len() - read_from) as u64;
        let writes = (self.writes.len() - write_from) as u64;
        self.ends.push((self.reads.len(), self.writes.len()));
        self.active += (reads + writes + computes > 0) as u64;
        self.computes += computes;
        self.max_ops = self.max_ops.max(reads).max(writes).max(computes);
    }

    /// Empties the log, keeping its capacity, for a chunk starting at
    /// processor `lo`.
    fn reset(&mut self, lo: usize) {
        self.lo = lo;
        self.reads.clear();
        self.writes.clear();
        self.ends.clear();
        self.active = 0;
        self.computes = 0;
        self.max_ops = 0;
    }

    /// One past the last processor id logged.
    fn hi(&self) -> usize {
        self.lo + self.ends.len()
    }
}

/// Handle given to each virtual processor for the duration of one step.
///
/// One context serves a whole chunk, re-pointed per processor
/// ([`ProcCtx::begin`] … [`ProcCtx::end`]), and its methods are
/// `#[inline]`: step closures are monomorphised in downstream crates, which
/// build without LTO.
pub struct ProcCtx<'a> {
    snapshot: &'a [u64],
    log: &'a mut ChunkLog,
    seed: u64,
    step_idx: u64,
    proc: u64,
    computes: u64,
    rng: Option<SmallRng>,
}

impl<'a> ProcCtx<'a> {
    /// A context for the chunk that fills `log`, reading `snapshot` in step
    /// `step_idx` of a run seeded with `seed`.
    pub fn new(snapshot: &'a [u64], seed: u64, step_idx: u64, log: &'a mut ChunkLog) -> Self {
        ProcCtx {
            snapshot,
            log,
            seed,
            step_idx,
            proc: 0,
            computes: 0,
            rng: None,
        }
    }

    /// Points the context at processor `proc`, which must be the chunk's
    /// next id.
    #[inline]
    pub fn begin(&mut self, proc: u64) {
        debug_assert_eq!(proc as usize, self.log.hi(), "a chunk runs consecutive ids");
        self.proc = proc;
        self.computes = 0;
        self.rng = None;
    }

    /// Closes the current processor's stretch of the log.
    #[inline]
    pub fn end(&mut self) {
        self.log.end_processor(self.computes);
    }

    /// The virtual-processor id this context belongs to.
    #[inline]
    pub fn proc_id(&self) -> u64 {
        self.proc
    }

    /// Reads shared-memory location `addr` (value as of the start of the
    /// step) and charges one read operation.
    #[inline]
    pub fn read(&mut self, addr: usize) -> u64 {
        assert!(
            addr < self.snapshot.len(),
            "read of address {addr} outside shared memory of size {}",
            self.snapshot.len()
        );
        self.log.reads.push(addr);
        self.snapshot[addr]
    }

    /// Buffers a write of `value` to shared-memory location `addr` and
    /// charges one write operation.  If several processors write the same
    /// location in a step, the one with the smallest processor id wins
    /// (a deterministic instance of the paper's "arbitrary write succeeds"
    /// rule); among that processor's own writes to the location, the last
    /// in program order lands.
    #[inline]
    pub fn write(&mut self, addr: usize, value: u64) {
        assert!(
            addr < self.snapshot.len(),
            "write of address {addr} outside shared memory of size {}",
            self.snapshot.len()
        );
        self.log.writes.push((addr, value));
    }

    /// Charges `ops` local RAM operations on the processor's private state.
    #[inline]
    pub fn compute(&mut self, ops: u64) {
        self.computes += ops;
    }

    /// The processor's deterministic random stream for this step.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        if self.rng.is_none() {
            self.rng = Some(proc_rng(self.seed, self.step_idx, self.proc));
        }
        self.rng.as_mut().unwrap()
    }

    /// Convenience: a uniform random index in `0..bound` (charges one
    /// compute operation for the random-number generation).
    #[inline]
    pub fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "random_index bound must be positive");
        self.computes += 1;
        self.rng().gen_range(0..bound)
    }
}

/// A step launching at least this many virtual processors fans them out
/// over the worker pool; smaller steps run on the calling thread.  Host
/// speed only: per-processor random streams are keyed by
/// `(seed, step, proc)` and write arbitration is deterministic, so both
/// ways are bit-identical.
const PARALLEL_CUTOFF: usize = 4096;

/// Smallest chunk a pooled launch is cut into: a few chunks per thread for
/// dynamic load balance, but never degenerate slivers.
const MIN_CHUNK: usize = PARALLEL_CUTOFF / 8;

/// Handle for one synchronous PRAM step.
pub struct StepCtx<'a> {
    snapshot: &'a [u64],
    seed: u64,
    step_idx: u64,
    scratch: &'a StepScratch,
}

impl<'a> StepCtx<'a> {
    pub(crate) fn new(
        snapshot: &'a [u64],
        seed: u64,
        step_idx: u64,
        scratch: &'a StepScratch,
    ) -> Self {
        StepCtx {
            snapshot,
            seed,
            step_idx,
            scratch,
        }
    }

    /// Launches virtual processors `range.start .. range.end` and collects
    /// their results.
    pub fn par_map<T, F>(&mut self, range: std::ops::Range<usize>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut ProcCtx<'_>) -> T + Sync,
    {
        let threads = if range.len() >= PARALLEL_CUTOFF {
            rayon::current_num_threads()
        } else {
            1
        };
        self.par_map_on(range, threads, f)
    }

    /// [`StepCtx::par_map`] with the thread count chosen by the caller
    /// (1 runs the launch inline as a single chunk).
    fn par_map_on<T, F>(&mut self, range: std::ops::Range<usize>, threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut ProcCtx<'_>) -> T + Sync,
    {
        let len = range.len();
        let (snapshot, seed, step_idx, scratch) =
            (self.snapshot, self.seed, self.step_idx, self.scratch);
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

    /// Launches virtual processors `range.start .. range.end` for their side
    /// effects only.
    pub fn par_for<F>(&mut self, range: std::ops::Range<usize>, f: F)
    where
        F: Fn(usize, &mut ProcCtx<'_>) + Sync,
    {
        let _ = self.par_map(range, |p, ctx| f(p, ctx));
    }
}

/// What [`StepScratch::finish`] reports while it walks a step's traffic.
pub trait StepSink {
    /// A distinct `(cell, processor)` read pair: one read request however
    /// often the processor re-read the cell.
    fn read_pair(&mut self, _addr: usize) {}

    /// A distinct `(cell, processor)` write pair.
    fn write_pair(&mut self, _addr: usize) {}

    /// A write by the lowest processor id on `addr`.  Called in that
    /// processor's program order, so applying every call as it comes leaves
    /// its last value in the cell.
    fn deliver(&mut self, addr: usize, value: u64);
}

impl StepSink for SharedMemory {
    fn deliver(&mut self, addr: usize, value: u64) {
        self.apply(addr, value);
    }
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
    /// Walks one side (reads or writes) of `logs`, which must be in
    /// ascending processor order, over a memory of `cells` cells; returns
    /// the largest number of distinct processors found on one cell.
    /// `visit(record, new_pair, owner)` sees every record with whether it is
    /// its processor's first access to the cell, and whether no lower
    /// processor id touched the cell.
    fn walk<A>(
        &mut self,
        cells: usize,
        logs: &[ChunkLog],
        records: impl for<'l> Fn(&'l ChunkLog) -> &'l [A],
        end: impl Fn(&(usize, usize)) -> usize,
        addr: impl Fn(&A) -> usize,
        mut visit: impl FnMut(&A, bool, bool),
    ) -> u64 {
        if logs.iter().all(|log| records(log).is_empty()) {
            return 0;
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(Stamp::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.stamps.len() < cells {
            self.stamps.resize(cells, Stamp::default());
        }
        let epoch = self.epoch;
        let stamps = &mut self.stamps[..];
        let mut longest = 1;
        for log in logs {
            let records = records(log);
            let mut from = 0;
            for (i, ends) in log.ends.iter().enumerate() {
                let proc = (log.lo + i) as u32;
                let to = end(ends);
                for record in &records[from..to] {
                    let stamp = &mut stamps[addr(record)];
                    let (new_pair, owner) = if stamp.epoch != epoch {
                        *stamp = Stamp {
                            epoch,
                            proc,
                            count: 1,
                        };
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
                from = to;
            }
        }
        longest as u64
    }
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
pub struct StepScratch {
    logs: Mutex<LogPool>,
    stamps: StampTable,
}

impl StepScratch {
    /// Opens a step, recycling whatever a previous step left behind when a
    /// processor body unwound out of it.
    pub fn begin_step(&mut self) {
        let pool = self.logs.get_mut().expect("log pool lock poisoned");
        pool.free.append(&mut pool.filled);
    }

    /// An empty log for a chunk whose first processor id is `lo`.
    pub fn take_log(&self, lo: usize) -> ChunkLog {
        let recycled = self.logs.lock().expect("log pool lock poisoned").free.pop();
        let mut log = recycled.unwrap_or_default();
        log.reset(lo);
        log
    }

    /// Hands a chunk's filled log back for [`StepScratch::finish`].
    pub fn put_log(&self, log: ChunkLog) {
        let mut pool = self.logs.lock().expect("log pool lock poisoned");
        pool.filled.push(log);
    }

    /// Moves the walk epoch, so a test can run the wrap-and-clear path
    /// without executing `2^32` walks first.
    #[cfg(test)]
    fn force_epoch(&mut self, epoch: u32) {
        self.stamps.epoch = epoch;
    }

    /// Closes the step over a memory of `cells` cells: computes its
    /// statistics and reports every distinct `(cell, processor)` pair and
    /// every winning write to `sink` (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// If a processor id was launched twice in the step, or does not fit 32
    /// bits.
    pub fn finish(&mut self, cells: usize, sink: &mut impl StepSink) -> StepStats {
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

        let max_read_contention = self.stamps.walk(
            cells,
            logs,
            |log| &log.reads[..],
            |ends| ends.0,
            |&addr| addr,
            |&addr, new_pair, _| {
                if new_pair {
                    sink.read_pair(addr);
                }
            },
        );
        let max_write_contention = self.stamps.walk(
            cells,
            logs,
            |log| &log.writes[..],
            |ends| ends.1,
            |&(addr, _)| addr,
            |&(addr, value), new_pair, owner| {
                if new_pair {
                    sink.write_pair(addr);
                }
                if owner {
                    sink.deliver(addr, value);
                }
            },
        );

        let stats = StepStats {
            active_procs: logs.iter().map(|log| log.active).sum(),
            total_reads: logs.iter().map(|log| log.reads.len() as u64).sum(),
            total_writes: logs.iter().map(|log| log.writes.len() as u64).sum(),
            total_computes: logs.iter().map(|log| log.computes).sum(),
            max_ops_per_proc: logs.iter().map(|log| log.max_ops).max().unwrap_or(0),
            max_read_contention,
            max_write_contention,
            is_scan: false,
            scan_width: 0,
        };
        pool.free.append(&mut pool.filled);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A memory and its scratch, stepped the way [`crate::Pram::step`] does.
    struct Harness {
        mem: SharedMemory,
        scratch: StepScratch,
    }

    impl Harness {
        /// Cell `i` holds `i`.
        fn counting(n: usize) -> Self {
            let mut mem = SharedMemory::new(n);
            mem.load(0, &(0..n as u64).collect::<Vec<_>>());
            Harness {
                mem,
                scratch: StepScratch::default(),
            }
        }

        fn step<R>(
            &mut self,
            seed: u64,
            step_idx: u64,
            f: impl FnOnce(&mut StepCtx<'_>) -> R,
        ) -> (R, StepStats) {
            self.scratch.begin_step();
            let mut ctx = StepCtx::new(self.mem.as_slice(), seed, step_idx, &self.scratch);
            let result = f(&mut ctx);
            let stats = self.scratch.finish(self.mem.len(), &mut self.mem);
            (result, stats)
        }
    }

    #[test]
    fn reads_see_start_of_step_snapshot() {
        let mut h = Harness::counting(8);
        let (vals, _) = h.step(0, 0, |s| {
            s.par_map(0..8, |p, ctx| {
                ctx.write(p, 100);
                ctx.read(p)
            })
        });
        assert_eq!(vals, (0..8).collect::<Vec<u64>>());
        assert_eq!(h.mem.dump(0, 8), vec![100; 8]);
    }

    #[test]
    fn contention_counts_distinct_processors_per_location() {
        let mut h = Harness::counting(8);
        let ((), stats) = h.step(0, 0, |s| {
            s.par_for(0..6, |p, ctx| {
                // everyone reads location 3; three processors write location 5
                let _ = ctx.read(3);
                let _ = ctx.read(3); // re-read by same proc: not extra contention
                if p < 3 {
                    ctx.write(5, p as u64);
                }
            })
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
        let ((), stats) = h.step(0, 0, |s| {
            s.par_for(0..2, |p, ctx| {
                if p == 0 {
                    for i in 0..5 {
                        let _ = ctx.read(i);
                    }
                } else {
                    ctx.compute(3);
                    ctx.write(0, 1);
                }
            })
        });
        assert_eq!(stats.max_ops_per_proc, 5);
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let run = |threads| {
            let mut h = Harness::counting(10_000);
            let (out, stats) = h.step(42, 0, |s| {
                s.par_map_on(0..10_000, threads, |p, ctx| {
                    let v = ctx.read(p);
                    let r = ctx.random_index(50);
                    ctx.write((p + 1) % 10_000, v + r as u64);
                    v + r as u64
                })
            });
            (out, stats, h.mem.dump(0, 10_000))
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn idle_processors_are_not_counted_active() {
        let mut h = Harness::counting(4);
        let ((), stats) = h.step(0, 0, |s| {
            s.par_for(0..4, |p, ctx| {
                if p == 2 {
                    ctx.write(0, 9);
                }
            })
        });
        assert_eq!(stats.active_procs, 1);
    }

    #[test]
    #[should_panic(expected = "outside shared memory")]
    fn out_of_bounds_read_panics() {
        let mut h = Harness::counting(4);
        h.step(0, 0, |s| {
            s.par_for(0..1, |_p, ctx| {
                let _ = ctx.read(100);
            })
        });
    }

    #[test]
    #[should_panic(expected = "processor id launched twice in one step")]
    fn a_processor_launched_twice_in_one_step_panics() {
        let mut h = Harness::counting(16);
        h.step(0, 0, |s| {
            s.par_for(0..8, |p, ctx| ctx.write(p, 1));
            s.par_for(7..12, |p, ctx| ctx.write(p, 2));
        });
    }

    #[test]
    fn disjoint_launches_in_descending_order_are_one_ascending_walk() {
        let mut h = Harness::counting(16);
        let ((), stats) = h.step(0, 0, |s| {
            s.par_for(69_990..70_010, |p, ctx| {
                if p == 70_000 {
                    let _ = ctx.read(9);
                    ctx.write(4, 70_000);
                }
            });
            s.par_for(0..8, |p, ctx| {
                if p == 3 {
                    let _ = ctx.read(9);
                    ctx.write(4, 3);
                }
            });
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
    /// lands (the unstable sort used to pick any).
    fn sorted_reference(program: &[(u64, Vec<Op>)]) -> (StepStats, Vec<(usize, u64)>) {
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
        (stats, winners.into_iter().map(|(a, _, v)| (a, v)).collect())
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
        let mut h = Harness::counting(64);
        for seed in 0..240u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            if seed % 7 == 3 {
                // Memory grown between steps: the stamp table must follow.
                let grown = h.mem.len() + rng.gen_range(1..5000usize);
                h.mem.ensure(grown);
            }
            if seed == 100 {
                // The reads walk takes the last epoch, the writes walk wraps.
                h.scratch.force_epoch(u32::MAX - 1);
            }
            let cells = h.mem.len();
            let procs = SIZES[seed as usize % SIZES.len()];
            // 0 mixed, 1 writes only, 2 reads only
            let flavour = (seed / 5) % 3;
            let hot = rng.gen_range(0..cells);
            let first = rng.gen_range(0..1000usize);
            let program: Vec<(u64, Vec<Op>)> = (first..first + procs)
                .map(|p| (p as u64, random_ops(&mut rng, cells, flavour, hot)))
                .collect();

            let before = h.mem.dump(0, cells);
            let body = |p: usize, ctx: &mut ProcCtx<'_>| {
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
            // Two launches, upper half first, on every other seed; above the
            // cutoff four pool threads deliver the logs out of order.
            let split = first + if seed % 2 == 0 { procs / 2 } else { 0 };
            let threads = if procs >= PARALLEL_CUTOFF { 4 } else { 1 };
            let ((upper, lower), stats) = h.step(seed, seed, |s| {
                let upper = s.par_map_on(split..first + procs, threads, body);
                let lower = s.par_map_on(first..split, threads, body);
                (upper, lower)
            });

            let (want_stats, winners) = sorted_reference(&program);
            assert_eq!(stats, want_stats, "seed {seed}: step statistics");
            let mut want_mem = before.clone();
            for (a, v) in winners {
                want_mem[a] = v;
            }
            assert_eq!(h.mem.dump(0, cells), want_mem, "seed {seed}: memory image");
            let sums: Vec<u64> = lower.into_iter().chain(upper).collect();
            for ((_, ops), got) in program.iter().zip(sums) {
                let want = ops.iter().fold(0u64, |sum, op| match op {
                    Op::Read(a) => sum.wrapping_add(before[*a]),
                    _ => sum,
                });
                assert_eq!(got, want, "seed {seed}: a read missed the snapshot");
            }
        }
    }
}
