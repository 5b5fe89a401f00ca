//! List ranking.
//!
//! Section 3 of the paper converts the "array of arrays" task representation
//! into the single-array input format by linking the task arrays into a
//! list, *list ranking* it, and copying tasks to their ranked positions —
//! `O(lg L)` time, `O(m)` work.  List ranking is a machine call,
//! [`Machine::list_rank`]: its default route, which the simulator charges,
//! is classic pointer jumping (`2·max(1, ⌈lg n⌉) + 2` EREW-legal steps,
//! `O(n lg n)` work), and the native machine ranks a sparse ruling set in
//! one pool dispatch with `O(n)` work.  [`list_rank`] keeps the routine's
//! name for its callers.

use qrqw_sim::{Machine, EMPTY};

/// The null successor pointer marking the end of a list.
pub const NIL: u64 = EMPTY;

/// Computes, for every node `i` of the linked lists described by
/// `succ[base_succ + i]` (`NIL` terminates a list), the number of links from
/// `i` to the end of its list, storing it in `rank[base_rank + i]` — see
/// [`Machine::list_rank`] for the contract.
pub fn list_rank<M: Machine>(m: &mut M, base_succ: usize, n: usize, base_rank: usize) {
    m.list_rank(base_succ, n, base_rank);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{CostModel, Pram};

    #[test]
    fn long_chain_is_erew_and_logarithmic() {
        let n = 512;
        let mut succ: Vec<u64> = (1..=n as u64).collect();
        succ[n - 1] = NIL;
        let mut pram = Pram::new(2 * n);
        pram.load(0, &succ);
        list_rank(&mut pram, 0, n, n);
        assert_eq!(pram.peek(n), (n - 1) as u64);
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
        let t = pram.trace().time(CostModel::Qrqw);
        assert!(t <= 10 * 12, "list ranking of 512 nodes took {t}");
    }
}
