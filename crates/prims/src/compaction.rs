//! Compaction and linear compaction (Section 4, preliminaries).
//!
//! *Compaction*: given an array `A[1..n]` with `k` non-empty cells (`k`
//! known, positions unknown), move the non-empty contents to the first `k`
//! cells.  *Linear compaction*: move them to an output array of size
//! `O(k)`.
//!
//! Two implementations are provided:
//!
//! * [`compact_erew`] — the zero-contention prefix-sums route
//!   (`Θ(lg n)` time, linear work), the tool behind the EREW baselines and
//!   the "compact the array at the end" steps of several QRQW algorithms.
//!
//! * [`linear_compaction`] — a low-contention randomized routine: every
//!   non-empty item repeatedly *dart-throws* into the `Θ(k)`-cell output
//!   array using the occupy-mode claiming protocol, with the team size per
//!   still-unplaced item doubling doubly-exponentially between rounds (the
//!   log-star paradigm of Section 4.1), plus a sequential Las-Vegas
//!   clean-up for the (w.h.p. empty) tail.
//!
//!   **Substitution note.**  The paper invokes the `O(√lg n)`-time linear
//!   compaction of its companion paper GMR96a, whose internals are not
//!   reproduced in the present text.  Our routine attains
//!   `O(lg*n · lg n / lg lg n)` QRQW time with linear work — the same
//!   w.h.p. contention bound per round (Observation 2.6) and the same
//!   linear-work property, so every qualitative comparison in Table I that
//!   relies on linear compaction is preserved; only the `√lg n` factor in
//!   the load-balancing bound becomes `lg n / lg lg n`.  This is recorded
//!   in DESIGN.md.

use qrqw_sim::schedule::ceil_lg;
use qrqw_sim::{Machine, EMPTY};

use crate::claim::{ClaimMode, TeamDarts};

/// Moves the non-empty cells of `[src_base, src_base+n)` to the front of
/// `[dst_base, dst_base+n)` in their original order, returning how many
/// there were.  EREW-legal; this is the machine's compaction primitive
/// ([`Machine::compact_step`]): the simulator runs (and charges) the
/// canonical flag-write → [`Machine::scan_step`] → rank-gather route, the
/// native backend fuses the passes into two block sweeps.
pub fn compact_erew<M: Machine>(m: &mut M, src_base: usize, n: usize, dst_base: usize) -> u64 {
    m.compact_step(src_base, n, dst_base)
}

/// Result of a [`linear_compaction`] call.
#[derive(Debug, Clone)]
pub struct LinearCompactionOutcome {
    /// `(source index, destination offset)` for every placed item; the
    /// destination cell `dst_base + offset` holds the source index.
    pub placements: Vec<(usize, usize)>,
    /// Number of dart-throwing rounds executed.
    pub rounds: u64,
    /// Whether the sequential Las-Vegas clean-up had to place any item
    /// (w.h.p. false).
    pub fallback_used: bool,
}

/// Injectively maps the non-empty cells of `[src_base, src_base+n)` into the
/// output array `[dst_base, dst_base + dst_size)`, leaving each claimed
/// output cell holding the *source index* of the item placed there.
///
/// `dst_size` must be at least four times the number of non-empty cells
/// (the paper's constant-factor slack); randomized, Las Vegas, linear work,
/// `O(lg*n · lg n / lg lg n)` QRQW time w.h.p. (see the module notes).
pub fn linear_compaction<M: Machine>(
    m: &mut M,
    src_base: usize,
    n: usize,
    dst_base: usize,
    dst_size: usize,
) -> LinearCompactionOutcome {
    m.ensure_memory(src_base + n.max(1));
    m.ensure_memory(dst_base + dst_size.max(1));

    // Each processor inspects its own cell (one read each) and the hosts of
    // non-empty cells become the active item set.
    let occupied: Vec<bool> = m.par_map(n, |i, ctx| ctx.read(src_base + i) != EMPTY);
    let items: Vec<usize> = (0..n).filter(|&i| occupied[i]).collect();
    let count = items.len();
    assert!(
        count == 0 || dst_size >= 4 * count,
        "linear compaction needs an output array of size >= 4k (k = {count}, dst_size = {dst_size})"
    );

    let team_cap = (2 * ceil_lg(n.max(2) as u64)).max(2);
    let mut team: u64 = 1;
    let max_rounds = 4 + 2 * qrqw_sim::schedule::log_star(n.max(2) as u64);
    let mut placements: Vec<(usize, usize)> = Vec::with_capacity(count);

    let mut darts = TeamDarts::new(items, n, ClaimMode::Occupy);
    while !darts.live().is_empty() && darts.rounds() < max_rounds {
        darts.throw(m, team as usize, |_item, ctx| {
            dst_base + ctx.random_index(dst_size)
        });
        // Team-internal selection of the surviving copy (the paper charges a
        // within-group prefix computation for this; we account one compute
        // operation per team member, as a step of its own).
        m.par_for(darts.darts(), |_a, ctx| ctx.compute(1));
        darts.settle(
            m,
            0,
            |item| item as u64,
            |item, addr| placements.push((item, addr - dst_base)),
        );
        team = (1u64 << team.min(6)).min(team_cap).max(team + 1);
    }
    let rounds = darts.rounds();

    // Las-Vegas clean-up: one sequential step walks the output array and
    // places whatever is left (w.h.p. nothing).
    let mut walk = dst_base..dst_base + dst_size;
    let leftovers = darts.finish(m, |_item| walk.next(), |item| item as u64);
    let fallback_used = !leftovers.is_empty();
    placements.extend(leftovers.into_iter().map(|(item, spot)| {
        let addr = spot.expect("output array too small for the linear-compaction fallback");
        (item, addr - dst_base)
    }));

    LinearCompactionOutcome {
        placements,
        rounds,
        fallback_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::{CostModel, Pram};
    use std::collections::HashSet;

    #[test]
    fn compact_erew_moves_values_in_order() {
        let mut pram = Pram::new(32);
        pram.poke(3, 30);
        pram.poke(7, 70);
        pram.poke(12, 120);
        let count = compact_erew(&mut pram, 0, 16, 16);
        assert_eq!(count, 3);
        assert_eq!(pram.dump(16, 3), vec![30, 70, 120]);
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }

    #[test]
    fn compact_erew_empty_input() {
        let mut pram = Pram::new(8);
        assert_eq!(compact_erew(&mut pram, 0, 4, 4), 0);
        assert_eq!(compact_erew(&mut pram, 0, 0, 4), 0);
    }

    #[test]
    fn compact_erew_full_input_is_identity() {
        let xs: Vec<u64> = (0..20).map(|i| i * 2).collect();
        let mut pram = Pram::new(64);
        pram.load(0, &xs);
        let count = compact_erew(&mut pram, 0, 20, 32);
        assert_eq!(count, 20);
        assert_eq!(pram.dump(32, 20), xs);
    }

    #[test]
    fn linear_compaction_places_every_item_injectively() {
        let n = 256;
        let mut pram = Pram::with_seed(n, 11);
        // every 4th cell occupied -> k = 64 items
        for i in (0..n).step_by(4) {
            pram.poke(i, 1000 + i as u64);
        }
        let dst = pram.alloc(4 * 64);
        let out = linear_compaction(&mut pram, 0, n, dst, 4 * 64);
        assert_eq!(out.placements.len(), 64);
        let sources: HashSet<usize> = out.placements.iter().map(|&(s, _)| s).collect();
        assert_eq!(sources, (0..n).step_by(4).collect::<HashSet<_>>());
        let spots: HashSet<usize> = out.placements.iter().map(|&(_, d)| d).collect();
        assert_eq!(spots.len(), 64, "destinations must be distinct");
        for &(src, off) in &out.placements {
            assert_eq!(pram.peek(dst + off), src as u64);
        }
    }

    #[test]
    fn linear_compaction_handles_empty_and_single_item() {
        let mut pram = Pram::new(16);
        let out = linear_compaction(&mut pram, 0, 16, 16, 16);
        assert!(out.placements.is_empty());
        assert!(!out.fallback_used);

        let mut pram = Pram::new(16);
        pram.poke(5, 7);
        let dst = pram.alloc(8);
        let out = linear_compaction(&mut pram, 0, 16, dst, 8);
        assert_eq!(out.placements.len(), 1);
        assert_eq!(out.placements[0].0, 5);
    }

    #[test]
    fn linear_compaction_contention_is_modest() {
        let n = 1 << 12;
        let mut pram = Pram::with_seed(n, 3);
        for i in 0..n / 2 {
            pram.poke(i * 2, i as u64 + 1);
        }
        let k = n / 2;
        let dst = pram.alloc(4 * k);
        let out = linear_compaction(&mut pram, 0, n, dst, 4 * k);
        assert_eq!(out.placements.len(), k);
        // Observation 2.6: expected load per cell <= 1/4, so the maximum
        // contention is O(lg n / lg lg n) w.h.p.; allow a generous constant.
        let lg_n = ceil_lg(n as u64);
        assert!(
            pram.trace().max_contention() <= 4 * lg_n,
            "contention {} too high",
            pram.trace().max_contention()
        );
        // linear work
        assert!(pram.trace().work() <= 60 * n as u64);
    }

    #[test]
    #[should_panic(expected = "output array of size >= 4k")]
    fn linear_compaction_rejects_undersized_output() {
        let mut pram = Pram::new(16);
        for i in 0..8 {
            pram.poke(i, 1);
        }
        let _ = linear_compaction(&mut pram, 0, 16, 16, 8);
    }
}
