//! Binary-tree global OR.
//!
//! The EREW bookkeeping tool the paper's algorithms use for "detect
//! whether any item failed" steps (e.g. the `globalor` calls in the MasPar
//! experiment of Section 5.2 and the failure tests of the Las Vegas
//! wrappers).  It runs in `⌈lg n⌉ + 1` EREW-legal steps and `O(n)` work.

use qrqw_sim::{Machine, EMPTY};

use crate::util::next_pow2;

/// Returns true iff any cell in `[base, base+len)` is non-zero and
/// non-[`EMPTY`].  `O(lg n)` EREW steps, `O(n)` work.
pub fn global_or<M: Machine>(m: &mut M, base: usize, len: usize) -> bool {
    if len == 0 {
        return false;
    }
    let width = next_pow2(len);
    let w = m.alloc(width);
    m.par_for(width, |i, ctx| {
        let v = if i < len { ctx.read(base + i) } else { EMPTY };
        ctx.write(w + i, if v == EMPTY { 0 } else { v });
    });
    let levels = width.trailing_zeros() as usize;
    for d in 0..levels {
        let stride = 1usize << (d + 1);
        let half = 1usize << d;
        m.par_for(width / stride, |i, ctx| {
            let a = ctx.read(w + i * stride + half - 1);
            let b = ctx.read(w + i * stride + stride - 1);
            ctx.write(w + i * stride + stride - 1, (a != 0 || b != 0) as u64);
        });
    }
    let result = m.peek(w + width - 1);
    m.release_to(w);
    result != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{CostModel, Pram};

    #[test]
    fn or_detects_presence() {
        let mut pram = Pram::new(33);
        assert!(!global_or(&mut pram, 0, 33));
        pram.memory_mut().poke(20, 5);
        assert!(global_or(&mut pram, 0, 33));
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }

    #[test]
    fn or_ignores_zero_cells() {
        let mut pram = Pram::new(8);
        pram.memory_mut().load(0, &[0; 8]);
        assert!(!global_or(&mut pram, 0, 8));
    }

    #[test]
    fn or_is_logarithmic_time() {
        let mut pram = Pram::new(4096);
        pram.memory_mut().load(0, &vec![1u64; 4096]);
        assert!(global_or(&mut pram, 0, 4096));
        let t = pram.trace().time(CostModel::Qrqw);
        assert!(t <= 3 * 13, "or of 4096 cells took {t} time");
    }

    #[test]
    fn empty_region_is_false() {
        let mut pram = Pram::new(4);
        assert!(!global_or(&mut pram, 0, 0));
    }
}
