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

    fn reference_inclusive(xs: &[u64]) -> Vec<u64> {
        let mut acc = 0;
        xs.iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect()
    }

    #[test]
    fn inclusive_matches_reference() {
        let xs: Vec<u64> = (0..37).map(|i| (i * 7 + 3) % 11).collect();
        let mut pram = Pram::new(64);
        pram.load(0, &xs);
        let total = prefix_sums_inclusive(&mut pram, 0, xs.len());
        assert_eq!(pram.dump(0, xs.len()), reference_inclusive(&xs));
        assert_eq!(total, xs.iter().sum::<u64>());
    }

    #[test]
    fn exclusive_matches_reference() {
        let xs: Vec<u64> = vec![5, 0, 2, 9, 1, 1, 3];
        let mut pram = Pram::new(16);
        pram.load(0, &xs);
        let total = prefix_sums_exclusive(&mut pram, 0, xs.len());
        let mut expect = vec![0u64];
        for &x in &xs[..xs.len() - 1] {
            expect.push(expect.last().unwrap() + x);
        }
        assert_eq!(pram.dump(0, xs.len()), expect);
        assert_eq!(total, 21);
    }

    #[test]
    fn empty_cells_count_as_zero() {
        let mut pram = Pram::new(8);
        pram.poke(2, 4);
        pram.poke(5, 6);
        let total = prefix_sums_inclusive(&mut pram, 0, 8);
        assert_eq!(total, 10);
        assert_eq!(pram.dump(0, 8), vec![0, 0, 4, 4, 4, 10, 10, 10]);
    }

    #[test]
    fn is_erew_legal_and_logarithmic_time() {
        let n = 1024usize;
        let xs: Vec<u64> = vec![1; n];
        let mut pram = Pram::new(n);
        pram.load(0, &xs);
        prefix_sums_inclusive(&mut pram, 0, n);
        let trace = pram.trace();
        assert_eq!(trace.violations(CostModel::Erew), 0, "scan must be EREW");
        assert_eq!(trace.max_contention(), 1);
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

    #[test]
    fn singleton_and_zero_length() {
        let mut pram = Pram::new(4);
        pram.poke(0, 9);
        assert_eq!(prefix_sums_inclusive(&mut pram, 0, 1), 9);
        assert_eq!(pram.peek(0), 9);
        assert_eq!(prefix_sums_inclusive(&mut pram, 0, 0), 0);
        assert_eq!(prefix_sums_exclusive(&mut pram, 0, 1), 9);
        assert_eq!(pram.peek(0), 0);
    }

    #[test]
    fn scratch_space_is_released() {
        let mut pram = Pram::new(32);
        let before = pram.heap_top();
        prefix_sums_inclusive(&mut pram, 0, 32);
        assert_eq!(pram.heap_top(), before);
    }
}
