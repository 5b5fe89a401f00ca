//! Binary broadcasting and value duplication.
//!
//! Broadcasting a value to `k` processors requires `Ω(lg k)` time on the
//! QRQW PRAM (Theorem 3.1 quotes the lower bound from the companion paper),
//! and the matching upper bound is the plain binary-doubling broadcast
//! implemented here.  The same doubling pattern implements the paper's
//! *duplication* technique (Section 1.2): "if a program variable is to be
//! read by `k` processors, replace the variable with `k` copies and let
//! each processor read a random copy" — used by the hashing algorithm
//! (Lemma 6.4) and the binary-search fat-tree (Section 7.2).

use qrqw_sim::Machine;

/// Copies the value at `src_addr` into the `count` cells
/// `dest_base .. dest_base + count` in `O(lg count)` EREW-legal steps and
/// `O(count)` work.
pub fn broadcast_cell<M: Machine>(m: &mut M, src_addr: usize, dest_base: usize, count: usize) {
    if count == 0 {
        return;
    }
    m.ensure_memory(dest_base + count);
    // Seed the first destination cell.
    m.par_for(1, |_p, ctx| {
        let v = ctx.read(src_addr);
        ctx.write(dest_base, v);
    });
    // Double the copied prefix until it covers the region.
    let mut have = 1usize;
    while have < count {
        let add = have.min(count - have);
        m.par_for(add, |p, ctx| {
            let v = ctx.read(dest_base + p);
            ctx.write(dest_base + have + p, v);
        });
        have += add;
    }
}

/// Duplicates each of the `k` values `mem[src_base + i]` into `copies`
/// consecutive cells starting at `dest_base + i * copies`, in
/// `O(lg copies)` EREW-legal steps and `O(k · copies)` work.
///
/// This is the bulk form of the paper's duplication technique: after the
/// call, a processor wanting value `i` can read `dest_base + i*copies + r`
/// for a random `r`, so `κ` concurrent readers of the same logical value
/// spread over `copies` cells and the expected contention drops to
/// `κ / copies`.
pub fn duplicate_values<M: Machine>(
    m: &mut M,
    src_base: usize,
    k: usize,
    dest_base: usize,
    copies: usize,
) {
    if k == 0 || copies == 0 {
        return;
    }
    m.ensure_memory(dest_base + k * copies);
    // Seed copy 0 of every value.
    m.par_for(k, |i, ctx| {
        let v = ctx.read(src_base + i);
        ctx.write(dest_base + i * copies, v);
    });
    // Doubling within every block simultaneously.
    let mut have = 1usize;
    while have < copies {
        let add = have.min(copies - have);
        // `add == have`, a power of two, in every round but the last: split
        // the processor index with a shift and a mask there instead of a
        // run-time division per processor.
        let pow2 = add.is_power_of_two();
        let shift = add.trailing_zeros();
        m.par_for(k * add, |p, ctx| {
            let (i, j) = if pow2 {
                (p >> shift, p & (add - 1))
            } else {
                (p / add, p % add)
            };
            let v = ctx.read(dest_base + i * copies + j);
            ctx.write(dest_base + i * copies + have + j, v);
        });
        have += add;
    }
}

/// Propagates non-empty values forward: after the call, every cell of
/// `[base, base+len)` holds the nearest non-[`qrqw_sim::EMPTY`] value at or
/// before it (cells before the first non-empty value stay empty).
///
/// This is the "segmented broadcast" used to distribute a per-segment datum
/// (written at each segment's first cell) to the whole segment — e.g. a
/// bucket's subarray pointer to all items of the bucket after they have been
/// sorted by label.  `⌈lg len⌉` steps of contention ≤ 2 each; the total work
/// is `O(len · lg s)` where `s` is the longest empty run being filled.
///
/// Each round breaks step race freedom (rule 3 of the [`qrqw_sim::machine`]
/// contract): processor `p` reads cell `base + i − jump`, which processor
/// `p − jump` may fill in the same step, so `Pram` reads the start-of-step
/// `EMPTY` where a native machine may read the fresh value; the fill is
/// monotone, so the final contents agree.
pub fn propagate_nonempty_forward<M: Machine>(m: &mut M, base: usize, len: usize) {
    use qrqw_sim::EMPTY;
    if len <= 1 {
        return;
    }
    m.ensure_memory(base + len);
    let mut jump = 1usize;
    while jump < len {
        m.par_for(len - jump, |p, ctx| {
            let i = p + jump;
            let own = ctx.read(base + i);
            if own != EMPTY {
                return;
            }
            let prev = ctx.read(base + i - jump);
            if prev != EMPTY {
                ctx.write(base + i, prev);
            }
        });
        jump *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{CostModel, Pram};

    #[test]
    fn broadcast_fills_region_with_value() {
        let mut pram = Pram::new(64);
        pram.poke(0, 99);
        broadcast_cell(&mut pram, 0, 10, 37);
        assert!(pram.dump(10, 37).iter().all(|&v| v == 99));
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }

    #[test]
    fn broadcast_time_is_logarithmic() {
        let mut pram = Pram::new(2048);
        pram.poke(0, 1);
        broadcast_cell(&mut pram, 0, 1, 1024);
        let t = pram.trace().time(CostModel::Qrqw);
        assert!(t <= 2 * 11, "broadcast of 1024 cells took {t} steps");
        assert!(pram.trace().work() <= 3 * 1024);
    }

    #[test]
    fn broadcast_of_zero_cells_is_noop() {
        let mut pram = Pram::new(4);
        broadcast_cell(&mut pram, 0, 0, 0);
        assert_eq!(pram.trace().num_steps(), 0);
    }

    #[test]
    fn duplicate_values_makes_block_copies() {
        let mut pram = Pram::new(4);
        pram.load(0, &[7, 8, 9]);
        let dest = pram.alloc(3 * 5);
        duplicate_values(&mut pram, 0, 3, dest, 5);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(pram.peek(dest + i * 5 + j), 7 + i as u64);
            }
        }
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }

    #[test]
    fn duplicate_values_handles_non_power_of_two_copies() {
        let mut pram = Pram::new(2);
        pram.load(0, &[3, 4]);
        let dest = pram.alloc(2 * 7);
        duplicate_values(&mut pram, 0, 2, dest, 7);
        assert!(pram.dump(dest, 7).iter().all(|&v| v == 3));
        assert!(pram.dump(dest + 7, 7).iter().all(|&v| v == 4));
    }

    #[test]
    fn duplicate_values_matches_a_host_reference_for_every_round_shape() {
        // 1: no doubling round; 2 and 8: power-of-two rounds only; 7 and
        // 2260 (hashing's count at n = 2^16): a non-power-of-two last round.
        for copies in [1usize, 2, 7, 8, 2260] {
            let src: Vec<u64> = (0..5).map(|i| 100 + 3 * i).collect();
            let mut pram = Pram::new(src.len());
            pram.load(0, &src);
            let dest = pram.alloc(src.len() * copies);
            duplicate_values(&mut pram, 0, src.len(), dest, copies);
            let expect: Vec<u64> = src
                .iter()
                .flat_map(|&v| std::iter::repeat_n(v, copies))
                .collect();
            assert_eq!(pram.dump(dest, expect.len()), expect, "{copies} copies");
            assert_eq!(pram.trace().violations(CostModel::Erew), 0);
        }
    }

    #[test]
    fn duplicate_single_copy_is_plain_copy() {
        let mut pram = Pram::new(4);
        pram.load(0, &[1, 2, 3, 4]);
        let dest = pram.alloc(4);
        duplicate_values(&mut pram, 0, 4, dest, 1);
        assert_eq!(pram.dump(dest, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn propagate_fills_runs_with_previous_value() {
        use qrqw_sim::EMPTY;
        let mut pram = Pram::new(12);
        pram.poke(2, 7);
        pram.poke(6, 9);
        pram.poke(10, 3);
        propagate_nonempty_forward(&mut pram, 0, 12);
        assert_eq!(
            pram.dump(0, 12),
            vec![EMPTY, EMPTY, 7, 7, 7, 7, 9, 9, 9, 9, 3, 3]
        );
        // contention never exceeds two (own cell + successor probe)
        assert!(pram.trace().max_contention() <= 2);
    }

    #[test]
    fn propagate_noop_on_short_or_full_regions() {
        let mut pram = Pram::new(8);
        propagate_nonempty_forward(&mut pram, 0, 1);
        assert_eq!(pram.trace().num_steps(), 0);
        pram.load(0, &[1, 2, 3, 4]);
        propagate_nonempty_forward(&mut pram, 0, 4);
        assert_eq!(pram.dump(0, 4), vec![1, 2, 3, 4]);
    }
}
