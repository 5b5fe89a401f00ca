//! Pointer-jumping list ranking.
//!
//! Section 3 of the paper converts the "array of arrays" task representation
//! into the single-array input format by linking the task arrays into a
//! list, *list ranking* it, and copying tasks to their ranked positions —
//! `O(lg L)` time, `O(m)` work.  This module provides the classic
//! pointer-jumping list-ranking algorithm (`O(lg n)` steps, `O(n lg n)`
//! work), which is exactly what that conversion needs for lists of length
//! `≤ L`.
//!
//! Each round is split into a *publish* step (every node writes its current
//! rank and pointer into its own cells) and a *jump* step (every node reads
//! its unique successor's cells), so the whole routine is EREW-legal: a
//! node's cells are read only by its unique predecessor.

use qrqw_sim::{Machine, EMPTY};

/// The null successor pointer marking the end of a list.
pub const NIL: u64 = EMPTY;

/// Computes, for every node `i` of the linked lists described by
/// `succ[base_succ + i]` (`NIL` terminates a list), the number of links from
/// `i` to the end of its list, storing it in `rank[base_rank + i]`.
///
/// Runs in `2⌈lg n⌉ + 2` EREW-legal steps with `O(n lg n)` work on any
/// [`Machine`] backend (the routine is deterministic, so both backends
/// produce identical ranks).
pub fn list_rank<M: Machine>(m: &mut M, base_succ: usize, n: usize, base_rank: usize) {
    if n == 0 {
        return;
    }
    m.ensure_memory(base_succ + n);
    m.ensure_memory(base_rank + n);
    // Shared "publication" arrays for the current pointer of every node;
    // the ranks are published in the caller's output array.
    let s_pub = m.alloc(n);

    // Private per-node state (the node's current rank and pointer), carried
    // between steps by the host exactly as a PRAM processor would carry it
    // in its private memory.
    let mut state: Vec<(u64, u64)> = m.par_map(n, |i, ctx| {
        let succ = ctx.read(base_succ + i);
        let rank = if succ == NIL { 0 } else { 1 };
        (rank, succ)
    });

    let rounds = (usize::BITS - (n - 1).leading_zeros()).max(1);
    for _ in 0..rounds {
        // Publish: every node writes its own cells (exclusive).
        m.par_for(n, |i, ctx| {
            let (rank, succ) = state[i];
            ctx.write(base_rank + i, rank);
            ctx.write(s_pub + i, succ);
        });
        // Jump: every node reads its unique successor's cells (exclusive).
        let next = m.par_map(n, |i, ctx| {
            let (rank, succ) = state[i];
            if succ == NIL {
                return (rank, succ);
            }
            let succ_rank = ctx.read(base_rank + succ as usize);
            let succ_succ = ctx.read(s_pub + succ as usize);
            (rank + succ_rank, succ_succ)
        });
        state = next;
    }

    // Final publish of the converged ranks.
    m.par_for(n, |i, ctx| {
        ctx.write(base_rank + i, state[i].0);
    });
    m.release_to(s_pub);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{CostModel, Pram};

    /// Builds the successor array of a single list visiting `order` in turn.
    fn chain(order: &[usize], n: usize) -> Vec<u64> {
        let mut succ = vec![NIL; n];
        for w in order.windows(2) {
            succ[w[0]] = w[1] as u64;
        }
        succ
    }

    #[test]
    fn ranks_single_chain() {
        let order = [3usize, 0, 4, 1, 2];
        let succ = chain(&order, 5);
        let mut pram = Pram::new(16);
        pram.load(0, &succ);
        list_rank(&mut pram, 0, 5, 8);
        // node at position j in the traversal has rank (len-1-j)
        for (j, &node) in order.iter().enumerate() {
            assert_eq!(pram.peek(8 + node), (order.len() - 1 - j) as u64);
        }
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }

    #[test]
    fn ranks_multiple_disjoint_lists() {
        // two lists: 0 -> 1 -> 2 and 5 -> 4
        let mut succ = vec![NIL; 6];
        succ[0] = 1;
        succ[1] = 2;
        succ[5] = 4;
        let mut pram = Pram::new(32);
        pram.load(0, &succ);
        list_rank(&mut pram, 0, 6, 16);
        let ranks = pram.dump(16, 6);
        assert_eq!(ranks, vec![2, 1, 0, 0, 0, 1]);
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }

    #[test]
    fn preserves_original_successors() {
        let succ = chain(&[0, 1, 2, 3], 4);
        let mut pram = Pram::new(16);
        pram.load(0, &succ);
        list_rank(&mut pram, 0, 4, 8);
        assert_eq!(pram.dump(0, 4), succ);
    }

    #[test]
    fn long_chain_is_erew_and_logarithmic() {
        let n = 512;
        let order: Vec<usize> = (0..n).collect();
        let succ = chain(&order, n);
        let mut pram = Pram::new(2 * n);
        pram.load(0, &succ);
        list_rank(&mut pram, 0, n, n);
        assert_eq!(pram.peek(n), (n - 1) as u64);
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
        let t = pram.trace().time(CostModel::Qrqw);
        assert!(t <= 10 * 12, "list ranking of 512 nodes took {t}");
    }
}
