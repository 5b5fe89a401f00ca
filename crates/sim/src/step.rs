//! The per-step, per-processor execution API.
//!
//! A PRAM step is expressed as a closure over a [`StepCtx`].  Inside the
//! closure the algorithm launches any number of *virtual processors* via
//! [`StepCtx::par_map`] / [`StepCtx::par_for`]; each virtual processor
//! receives a [`ProcCtx`] through which it reads the shared memory (as it
//! was at the *beginning* of the step), buffers writes (applied at the *end*
//! of the step, arbitrary winner), performs accounted local compute
//! operations, and draws deterministic random numbers.
//!
//! The split into read-substep / compute-substep / write-substep of
//! Definition 2.2 is therefore enforced structurally: reads can never
//! observe a write issued in the same step.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::rng::proc_rng;
use crate::stats::StepStats;

/// The operation log of a single virtual processor within one step.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProcLog {
    pub proc: u64,
    pub reads: Vec<usize>,
    pub writes: Vec<(usize, u64)>,
    pub computes: u64,
}

impl ProcLog {
    fn ops(&self) -> u64 {
        self.reads.len() as u64 + self.writes.len() as u64 + self.computes
    }

    fn max_substep_ops(&self) -> u64 {
        (self.reads.len() as u64)
            .max(self.writes.len() as u64)
            .max(self.computes)
    }
}

/// Handle given to each virtual processor for the duration of one step.
pub struct ProcCtx<'a> {
    snapshot: &'a [u64],
    log: ProcLog,
    seed: u64,
    step_idx: u64,
    rng: Option<SmallRng>,
}

impl<'a> ProcCtx<'a> {
    pub(crate) fn new(snapshot: &'a [u64], seed: u64, step_idx: u64, proc: u64) -> Self {
        ProcCtx {
            snapshot,
            log: ProcLog {
                proc,
                ..ProcLog::default()
            },
            seed,
            step_idx,
            rng: None,
        }
    }

    /// The virtual-processor id this context belongs to.
    pub fn proc_id(&self) -> u64 {
        self.log.proc
    }

    /// Reads shared-memory location `addr` (value as of the start of the
    /// step) and charges one read operation.
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
    /// rule).
    pub fn write(&mut self, addr: usize, value: u64) {
        assert!(
            addr < self.snapshot.len(),
            "write of address {addr} outside shared memory of size {}",
            self.snapshot.len()
        );
        self.log.writes.push((addr, value));
    }

    /// Charges `ops` local RAM operations on the processor's private state.
    pub fn compute(&mut self, ops: u64) {
        self.log.computes += ops;
    }

    /// The processor's deterministic random stream for this step.
    pub fn rng(&mut self) -> &mut SmallRng {
        if self.rng.is_none() {
            self.rng = Some(proc_rng(self.seed, self.step_idx, self.log.proc));
        }
        self.rng.as_mut().unwrap()
    }

    /// Convenience: a uniform random index in `0..bound` (charges one
    /// compute operation for the random-number generation).
    pub fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "random_index bound must be positive");
        self.log.computes += 1;
        self.rng().gen_range(0..bound)
    }

    pub(crate) fn into_log(self) -> ProcLog {
        self.log
    }
}

/// A step launching at least this many virtual processors fans them out
/// over the worker pool; smaller steps run on the calling thread.  Host
/// speed only: per-processor random streams are keyed by
/// `(seed, step, proc)` and write arbitration is deterministic, so both
/// ways are bit-identical.
const PARALLEL_CUTOFF: usize = 4096;

/// Handle for one synchronous PRAM step.
pub struct StepCtx<'a> {
    snapshot: &'a [u64],
    seed: u64,
    step_idx: u64,
    logs: Vec<ProcLog>,
}

impl<'a> StepCtx<'a> {
    pub(crate) fn new(snapshot: &'a [u64], seed: u64, step_idx: u64) -> Self {
        StepCtx {
            snapshot,
            seed,
            step_idx,
            logs: Vec::new(),
        }
    }

    /// Launches virtual processors `range.start .. range.end` and collects
    /// their results.
    pub fn par_map<T, F>(&mut self, range: std::ops::Range<usize>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut ProcCtx<'_>) -> T + Sync,
    {
        let parallel = range.len() >= PARALLEL_CUTOFF;
        self.par_map_on(range, parallel, f)
    }

    /// [`StepCtx::par_map`] with the pool-or-inline decision made by the
    /// caller.
    fn par_map_on<T, F>(&mut self, range: std::ops::Range<usize>, parallel: bool, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut ProcCtx<'_>) -> T + Sync,
    {
        let snapshot = self.snapshot;
        let seed = self.seed;
        let step_idx = self.step_idx;
        let run = |p: usize| {
            let mut ctx = ProcCtx::new(snapshot, seed, step_idx, p as u64);
            let r = f(p, &mut ctx);
            (r, ctx.into_log())
        };
        let pairs: Vec<(T, ProcLog)> = if parallel {
            rayon::par_collect(range.len(), |i| run(range.start + i))
        } else {
            range.map(run).collect()
        };
        let mut out = Vec::with_capacity(pairs.len());
        for (r, log) in pairs {
            out.push(r);
            self.logs.push(log);
        }
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

    /// Finalises the step: computes the step statistics and the list of
    /// winning writes (lowest processor id per location).
    pub(crate) fn finish(self) -> (StepStats, Vec<(usize, u64)>) {
        let mut active = 0u64;
        let mut total_reads = 0u64;
        let mut total_writes = 0u64;
        let mut total_computes = 0u64;
        let mut max_ops = 0u64;

        // (addr, proc) pairs for contention counting over distinct procs.
        let mut read_pairs: Vec<(usize, u64)> = Vec::new();
        // (addr, proc, value) for writes: contention + arbitration.
        let mut write_recs: Vec<(usize, u64, u64)> = Vec::new();

        for log in &self.logs {
            if log.ops() == 0 {
                continue;
            }
            active += 1;
            total_reads += log.reads.len() as u64;
            total_writes += log.writes.len() as u64;
            total_computes += log.computes;
            max_ops = max_ops.max(log.max_substep_ops());
            for &a in &log.reads {
                read_pairs.push((a, log.proc));
            }
            for &(a, v) in &log.writes {
                write_recs.push((a, log.proc, v));
            }
        }

        read_pairs.sort_unstable();
        read_pairs.dedup();
        let max_read_contention = max_run_by_addr(read_pairs.iter().map(|&(a, _)| a));

        write_recs.sort_unstable_by_key(|&(a, p, _)| (a, p));
        // Distinct-processor write contention: dedup (addr, proc).
        let mut wp: Vec<(usize, u64)> = write_recs.iter().map(|&(a, p, _)| (a, p)).collect();
        wp.dedup();
        let max_write_contention = max_run_by_addr(wp.iter().map(|&(a, _)| a));

        // Winning writes: first record of each address run (lowest proc id).
        let mut winners: Vec<(usize, u64)> = Vec::new();
        let mut last_addr = usize::MAX;
        for &(a, _p, v) in &write_recs {
            if a != last_addr {
                winners.push((a, v));
                last_addr = a;
            }
        }

        let stats = StepStats {
            active_procs: active,
            total_reads,
            total_writes,
            total_computes,
            max_ops_per_proc: max_ops,
            max_read_contention,
            max_write_contention,
            is_scan: false,
            scan_width: 0,
        };
        (stats, winners)
    }
}

/// Given an address sequence sorted by address, returns the length of the
/// longest run of equal addresses (0 for an empty sequence).
fn max_run_by_addr<I: Iterator<Item = usize>>(addrs: I) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    #[test]
    fn reads_see_start_of_step_snapshot() {
        let mem = snapshot(8);
        let mut step = StepCtx::new(&mem, 0, 0);
        let vals = step.par_map(0..8, |p, ctx| {
            ctx.write(p, 100);
            ctx.read(p)
        });
        assert_eq!(vals, (0..8).map(|x| x as u64).collect::<Vec<_>>());
    }

    #[test]
    fn contention_counts_distinct_processors_per_location() {
        let mem = snapshot(8);
        let mut step = StepCtx::new(&mem, 0, 0);
        step.par_for(0..6, |p, ctx| {
            // everyone reads location 3; three processors write location 5
            let _ = ctx.read(3);
            let _ = ctx.read(3); // re-read by same proc: not extra contention
            if p < 3 {
                ctx.write(5, p as u64);
            }
        });
        let (stats, writes) = step.finish();
        assert_eq!(stats.max_read_contention, 6);
        assert_eq!(stats.max_write_contention, 3);
        assert_eq!(stats.active_procs, 6);
        assert_eq!(stats.total_reads, 12);
        assert_eq!(stats.total_writes, 3);
        // lowest processor id wins the concurrent write
        assert_eq!(writes, vec![(5, 0)]);
    }

    #[test]
    fn max_ops_per_proc_tracks_substep_maximum() {
        let mem = snapshot(16);
        let mut step = StepCtx::new(&mem, 0, 0);
        step.par_for(0..2, |p, ctx| {
            if p == 0 {
                for i in 0..5 {
                    let _ = ctx.read(i);
                }
            } else {
                ctx.compute(3);
                ctx.write(0, 1);
            }
        });
        let (stats, _) = step.finish();
        assert_eq!(stats.max_ops_per_proc, 5);
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let mem = snapshot(10_000);
        let run = |parallel| {
            let mut step = StepCtx::new(&mem, 42, 0);
            let out = step.par_map_on(0..10_000, parallel, |p, ctx| {
                let v = ctx.read(p);
                let r = ctx.random_index(50);
                ctx.write((p + 1) % 10_000, v + r as u64);
                v + r as u64
            });
            let (stats, writes) = step.finish();
            (out, stats, writes)
        };
        let (o1, s1, w1) = run(false);
        let (o2, s2, w2) = run(true);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        assert_eq!(w1, w2);
    }

    #[test]
    fn idle_processors_are_not_counted_active() {
        let mem = snapshot(4);
        let mut step = StepCtx::new(&mem, 0, 0);
        step.par_for(0..4, |p, ctx| {
            if p == 2 {
                ctx.write(0, 9);
            }
        });
        let (stats, _) = step.finish();
        assert_eq!(stats.active_procs, 1);
    }

    #[test]
    fn max_run_helper() {
        assert_eq!(max_run_by_addr([].into_iter()), 0);
        assert_eq!(max_run_by_addr([1, 1, 2, 3, 3, 3].into_iter()), 3);
    }

    #[test]
    #[should_panic(expected = "outside shared memory")]
    fn out_of_bounds_read_panics() {
        let mem = snapshot(4);
        let mut step = StepCtx::new(&mem, 0, 0);
        step.par_for(0..1, |_p, ctx| {
            let _ = ctx.read(100);
        });
    }
}
