//! Work-optimal EREW prefix sums (Blelloch up-sweep / down-sweep).
//!
//! Prefix sums are the workhorse of the *zero-contention* (EREW) algorithms
//! the paper compares against: the `Θ(lg n)`-time load-balancing baseline
//! (Table I), the compaction steps of the dart-throwing-with-scans
//! permutation algorithm (Section 5.2), and countless bookkeeping steps in
//! the QRQW algorithms themselves.  The routine is one machine call,
//! [`Machine::scan_tree`]: `2⌈lg n⌉ + 3` EREW-legal steps and `O(n)` work
//! on the model backends.
//!
//! Cells equal to [`qrqw_sim::EMPTY`] are treated as zero, which is what the
//! flag-counting uses in this repository want.

use qrqw_sim::Machine;

/// Replaces `mem[base .. base+len)` by its *inclusive* prefix sums and
/// returns the total.
pub fn prefix_sums_inclusive<M: Machine>(m: &mut M, base: usize, len: usize) -> u64 {
    m.scan_tree(base, len, true)
}

/// Replaces `mem[base .. base+len)` by its *exclusive* prefix sums and
/// returns the total.
pub fn prefix_sums_exclusive<M: Machine>(m: &mut M, base: usize, len: usize) -> u64 {
    m.scan_tree(base, len, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{CostModel, Pram};

    #[test]
    fn time_is_logarithmic_and_work_linear() {
        let n = 1024usize;
        let xs: Vec<u64> = vec![1; n];
        let mut pram = Pram::new(n);
        pram.load(0, &xs);
        prefix_sums_inclusive(&mut pram, 0, n);
        let trace = pram.trace();
        let t = trace.time(CostModel::Qrqw);
        // 2 lg n + 3 steps, every step has m = κ = small constant
        assert!(t <= 4 * 10 + 12, "time {t} should be O(lg n)");
        // work is linear
        assert!(
            trace.work() <= 16 * n as u64,
            "work {} should be O(n)",
            trace.work()
        );
    }
}
