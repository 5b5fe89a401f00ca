//! Batcher's bitonic sorting network as an EREW PRAM algorithm.
//!
//! The MasPar MP-1 system sort used by the *sorting-based* random-permutation
//! baseline of Section 5.2 is a bitonic sort, and the paper's asymptotic
//! analysis of that baseline charges it `O(lg² n)` time on the
//! (scan-)SIMD-QRQW PRAM.  This module provides exactly that network: every
//! compare–exchange stage is one EREW-legal step in which each active
//! processor performs two reads and at most two writes, for
//! `lg n (lg n + 1) / 2` steps and `O(n lg² n)` work in total.
//!
//! The network itself is one machine call, [`Machine::bitonic_segments`].
//! The model backends (`Pram`, plain or built with `Pram::with_bsp`) run
//! its default body and charge and route it one step per stage;
//! `NativeMachine` overrides it with a cache-blocked kernel that runs the
//! same stages with the same step advance and leaves the same memory.
//!
//! Cells may hold any `u64` below [`qrqw_sim::EMPTY`]; the routine pads to a
//! power of two internally with `EMPTY`, which sorts to the end.

use qrqw_sim::{Machine, EMPTY};

use crate::util::next_pow2;

/// Sorts `[base, base+n)` in ascending order.
pub fn bitonic_sort<M: Machine>(m: &mut M, base: usize, n: usize) {
    if n <= 1 {
        return;
    }
    m.ensure_memory(base + n);
    let width = next_pow2(n);
    let work = m.alloc(width);

    // Copy in, padding with EMPTY (the maximum value, so pads stay at the
    // tail of the sorted order).
    m.par_for(width, |i, ctx| {
        let v = if i < n { ctx.read(base + i) } else { EMPTY };
        ctx.write(work + i, v);
    });

    m.bitonic_segments(work, width, 1);

    // Copy the sorted prefix back.
    m.par_for(n, |i, ctx| {
        let v = ctx.read(work + i);
        ctx.write(base + i, v);
    });
    m.release_to(work);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{CostModel, Pram};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sorts_random_input() {
        let mut rng = SmallRng::seed_from_u64(9);
        let xs: Vec<u64> = (0..777).map(|_| rng.gen_range(0..10_000)).collect();
        let mut pram = Pram::new(1024);
        pram.load(0, &xs);
        bitonic_sort(&mut pram, 0, xs.len());
        let mut expect = xs.clone();
        expect.sort_unstable();
        assert_eq!(pram.dump(0, xs.len()), expect);
    }

    #[test]
    fn is_erew_legal() {
        let xs: Vec<u64> = (0..64).rev().collect();
        let mut pram = Pram::new(64);
        pram.load(0, &xs);
        bitonic_sort(&mut pram, 0, 64);
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
        assert_eq!(pram.trace().max_contention(), 1);
    }

    #[test]
    fn time_is_order_lg_squared() {
        let n = 1024usize;
        let xs: Vec<u64> = (0..n as u64).rev().collect();
        let mut pram = Pram::new(n);
        pram.load(0, &xs);
        bitonic_sort(&mut pram, 0, n);
        let t = pram.trace().time(CostModel::Qrqw);
        let lg = 10u64;
        assert!(t >= lg * (lg + 1) / 2, "bitonic must pay Θ(lg² n) steps");
        // each compare–exchange stage costs 2 (two reads / two writes per
        // processor), plus the copy-in / copy-out steps
        assert!(t <= lg * (lg + 1) + 8, "unexpected extra steps: {t}");
    }

    #[test]
    fn handles_duplicates_and_already_sorted() {
        let xs = vec![3u64, 3, 3, 1, 1, 2, 2, 2, 2];
        let mut pram = Pram::new(16);
        pram.load(0, &xs);
        bitonic_sort(&mut pram, 0, xs.len());
        assert_eq!(pram.dump(0, xs.len()), vec![1, 1, 2, 2, 2, 2, 3, 3, 3]);

        let sorted: Vec<u64> = (0..33).collect();
        let mut pram = Pram::new(64);
        pram.load(0, &sorted);
        bitonic_sort(&mut pram, 0, 33);
        assert_eq!(pram.dump(0, 33), sorted);
    }

    #[test]
    fn trivial_sizes_are_noops() {
        let mut pram = Pram::new(4);
        bitonic_sort(&mut pram, 0, 0);
        bitonic_sort(&mut pram, 0, 1);
        assert_eq!(pram.trace().num_steps(), 0);
    }

    #[test]
    fn segmented_sort_charges_are_pinned() {
        // Four accesses per processor per stage at fixed addresses: the
        // charges of one fixed input of odd segment count, read off it.
        let data: Vec<u64> = (0..17 * 16).map(|i| (i * 7919 + 13) % 1009).collect();
        let mut pram = Pram::new(3 + data.len());
        pram.load(3, &data);
        pram.bitonic_segments(3, 16, 17);
        let trace = pram.trace();
        assert_eq!(
            (
                trace.work(),
                trace.time(CostModel::Qrqw),
                trace.max_contention()
            ),
            (4082, 20, 1)
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn segmented_sort_rejects_non_power_of_two() {
        let mut pram = Pram::new(30);
        pram.bitonic_segments(0, 10, 3);
    }
}
