//! Per-step statistics and whole-run traces.

use crate::model::CostModel;

/// Exact measurements for one synchronous PRAM step.
///
/// Contention is counted over *distinct processors* per location, matching
/// Definition 2.1 ("the number of processors reading x or the number of
/// processors writing x").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Number of virtual processors that issued at least one operation.
    pub active_procs: u64,
    /// Total shared-memory reads issued in the step.
    pub total_reads: u64,
    /// Total shared-memory writes issued in the step.
    pub total_writes: u64,
    /// Total local (compute) operations issued in the step.
    pub total_computes: u64,
    /// `m` — the maximum over processors of `max(r_i, c_i, w_i)`.
    pub max_ops_per_proc: u64,
    /// Maximum number of distinct processors reading any one location.
    pub max_read_contention: u64,
    /// Maximum number of distinct processors writing any one location.
    pub max_write_contention: u64,
    /// True if this step is a built-in whole-array scan (prefix sums),
    /// charged unit time only under [`CostModel::ScanSimdQrqw`].
    pub is_scan: bool,
    /// Width of the scanned region, when `is_scan` is set.
    pub scan_width: u64,
}

impl StepStats {
    /// The maximum contention `κ` of the step (reads or writes), with the
    /// Definition 2.1 corner-case convention that a step with no memory
    /// operations has contention one.
    pub fn max_contention(&self) -> u64 {
        self.max_read_contention
            .max(self.max_write_contention)
            .max(1)
    }

    /// Total operations (reads + computes + writes) — the step's work in the
    /// work–time presentation.
    pub fn ops(&self) -> u64 {
        self.total_reads + self.total_writes + self.total_computes
    }
}

/// The accumulated record of an algorithm execution: one [`StepStats`] per
/// step, in order.
///
/// All derived quantities — running time under any [`CostModel`], total
/// work, Brent-scheduled time, BSP emulation time — are computed from the
/// trace after the fact, so a single simulated execution can be evaluated
/// under every model simultaneously.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    steps: Vec<StepStats>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { steps: Vec::new() }
    }

    /// Appends one step's statistics.
    pub fn push(&mut self, stats: StepStats) {
        self.steps.push(stats);
    }

    /// The per-step statistics, in execution order.
    pub fn step_stats(&self) -> &[StepStats] {
        &self.steps
    }

    /// Number of parallel steps executed (the `t'` of Theorem 3.6).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total work: the number of operations summed over all steps.
    pub fn work(&self) -> u64 {
        self.steps.iter().map(StepStats::ops).sum()
    }

    /// Running time under `model`: the sum over steps of the per-step cost.
    ///
    /// For the queue models this is exactly the work–time presentation time
    /// of the paper ("the sum over all steps of the maximum contention of
    /// the step", generalised to `max(m, κ)`).
    pub fn time(&self, model: CostModel) -> u64 {
        self.steps.iter().map(|s| model.step_time(s)).sum()
    }

    /// Number of steps that violate `model`'s legality constraints
    /// (e.g. contention > 1 under EREW).
    pub fn violations(&self, model: CostModel) -> u64 {
        self.steps.iter().filter(|s| model.step_violates(s)).count() as u64
    }

    /// The largest contention observed in any step of the run.
    pub fn max_contention(&self) -> u64 {
        self.steps
            .iter()
            .map(StepStats::max_contention)
            .max()
            .unwrap_or(1)
    }

    /// The per-step sequence of maximum contentions (useful for plotting the
    /// contention profile of an algorithm).
    pub fn contention_profile(&self) -> Vec<u64> {
        self.steps.iter().map(StepStats::max_contention).collect()
    }

    /// The per-step sequence of realized queues of the BSP emulation
    /// (Theorem 1.1): with same-processor combining, a step's longest
    /// per-cell message queue is its contention — except that a step no
    /// processor was active in queues nothing, where
    /// [`Trace::contention_profile`] reads Definition 2.1's 1.
    pub fn queue_profile(&self) -> Vec<u64> {
        self.steps
            .iter()
            .map(|s| {
                if s.active_procs == 0 {
                    0
                } else {
                    s.max_read_contention.max(s.max_write_contention)
                }
            })
            .collect()
    }

    /// Brent-scheduled running time on `p` processors under `model`
    /// (Theorem 2.3): `work/p + time`, assuming processor allocation is
    /// free.
    pub fn brent_time(&self, p: u64, model: CostModel) -> u64 {
        assert!(p > 0, "Brent scheduling needs at least one processor");
        self.work().div_ceil(p) + self.time(model)
    }

    /// Time to emulate this algorithm on a `(p/lg p)`-component standard BSP
    /// machine (Theorem 1.1): `O(t · lg p)`; we report `t · ceil(lg p)`.
    pub fn bsp_time(&self, p: u64, model: CostModel) -> u64 {
        assert!(p > 1, "BSP emulation needs at least two components");
        let lg_p = 64 - (p - 1).leading_zeros() as u64;
        self.time(model) * lg_p.max(1)
    }

    /// Merges another trace's steps onto the end of this one (used when an
    /// algorithm is composed of independently-simulated phases).
    pub fn extend(&mut self, other: &Trace) {
        self.steps.extend_from_slice(&other.steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(reads: u64, writes: u64, m: u64, rk: u64, wk: u64) -> StepStats {
        StepStats {
            active_procs: reads.max(writes).max(1),
            total_reads: reads,
            total_writes: writes,
            total_computes: 0,
            max_ops_per_proc: m,
            max_read_contention: rk,
            max_write_contention: wk,
            is_scan: false,
            scan_width: 0,
        }
    }

    #[test]
    fn work_and_time_accumulate() {
        let mut t = Trace::new();
        t.push(step(10, 10, 1, 1, 1));
        t.push(step(10, 0, 1, 5, 0));
        assert_eq!(t.work(), 30);
        assert_eq!(t.time(CostModel::Qrqw), 1 + 5);
        assert_eq!(t.time(CostModel::Crcw), 2);
        assert_eq!(t.violations(CostModel::Erew), 1);
        assert_eq!(t.max_contention(), 5);
        assert_eq!(t.contention_profile(), vec![1, 5]);
    }

    #[test]
    fn brent_time_matches_theorem_2_3() {
        let mut t = Trace::new();
        for _ in 0..4 {
            t.push(step(100, 100, 1, 2, 2));
        }
        // work = 800, qrqw time = 8
        assert_eq!(t.brent_time(100, CostModel::Qrqw), 8 + 8);
        assert_eq!(t.brent_time(1, CostModel::Qrqw), 800 + 8);
    }

    #[test]
    fn bsp_time_is_time_times_log_p() {
        let mut t = Trace::new();
        t.push(step(8, 8, 1, 1, 1));
        assert_eq!(t.time(CostModel::Qrqw), 1);
        assert_eq!(t.bsp_time(1024, CostModel::Qrqw), 10);
    }

    #[test]
    fn one_step_is_charged_under_every_model() {
        let mut t = Trace::new();
        t.push(step(4, 4, 2, 3, 1));
        assert_eq!(t.num_steps(), 1);
        assert_eq!(t.work(), 8);
        assert_eq!(t.time(CostModel::Qrqw), 3);
        assert_eq!(t.time(CostModel::Crqw), 2);
        assert_eq!(t.time(CostModel::Crcw), 2);
        assert_eq!(t.violations(CostModel::Erew), 1);
    }

    #[test]
    fn extend_concatenates_traces() {
        let mut a = Trace::new();
        a.push(step(1, 1, 1, 1, 1));
        let mut b = Trace::new();
        b.push(step(2, 2, 1, 2, 2));
        a.extend(&b);
        assert_eq!(a.num_steps(), 2);
        assert_eq!(a.work(), 2 + 4);
    }

    #[test]
    fn empty_trace_has_unit_contention_and_zero_time() {
        let t = Trace::new();
        assert_eq!(t.max_contention(), 1);
        assert_eq!(t.work(), 0);
        assert_eq!(t.time(CostModel::Qrqw), 0);
    }
}
