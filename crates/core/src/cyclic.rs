//! Random cyclic permutations (Sections 5.1.2–5.1.3) and the cycle-structure
//! utilities behind Figure 1.
//!
//! A *cyclic* permutation consists of a single cycle.  The paper gives two
//! low-contention generators:
//!
//! * [`random_cyclic_permutation_fast`] (Theorem 5.2): every item throws
//!   `f = ⌈√lg n⌉` darts into an array of `Θ(n·2^f / f)` cells, keeps one
//!   uncontested cell, and then finds its successor (the next occupied cell
//!   to its right, with wrap-around) by walking a binary tree imposed on the
//!   array.  Because the array is a factor `2^f` larger than the item count,
//!   the dart-throwing contention is only `O(√lg n)` w.h.p. — this is the
//!   paper's "larger array" technique — and because gaps are at most
//!   `2^{2f}` w.h.p. the tree walk needs only `O(√lg n)` levels.
//!
//! * [`random_cyclic_permutation_efficient`] (Theorem 5.3): items are placed
//!   into a `Θ(n)`-cell array with the log-star team-doubling placement of
//!   the heavy multiple-compaction algorithm, and successors are found with
//!   a `O(lg lg n)`-level tree walk (gaps are `O(lg² n)` w.h.p.).  Linear
//!   work.
//!
//! The successor relation *is* the cyclic permutation: `successor[i] = j`
//! means `π(i) = j`.

use qrqw_prims::{ClaimMode, TeamDarts};
use qrqw_sim::schedule::{ceil_lg, lg_lg, log_star, sqrt_lg};
use qrqw_sim::{Machine, MachineProc, EMPTY};

/// Outcome of a cyclic-permutation generation.
#[derive(Debug, Clone)]
pub struct CyclicOutcome {
    /// `successor[i] = π(i)`; a single cycle over `0..n`.
    pub successor: Vec<u64>,
    /// Whether the sequential Las-Vegas clean-up ran (w.h.p. false).
    pub fallback_used: bool,
    /// Dart-throwing / placement rounds used.
    pub rounds: u64,
}

/// True iff `successor` describes one single cycle covering all of `0..n`.
pub fn is_cyclic(successor: &[u64]) -> bool {
    let n = successor.len();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut cur = 0usize;
    for _ in 0..n {
        if seen[cur] {
            return false;
        }
        seen[cur] = true;
        let Ok(next) = usize::try_from(successor[cur]) else {
            return false;
        };
        if next >= n {
            return false;
        }
        cur = next;
    }
    cur == 0 && seen.iter().all(|&b| b)
}

/// Decomposes a permutation (given as `perm[i] = π(i)`) into its cycles,
/// each listed starting from its smallest element — the representation
/// illustrated in Figure 1 of the paper.
pub fn cycle_representation(perm: &[u64]) -> Vec<Vec<u64>> {
    let n = perm.len();
    let mut seen = vec![false; n];
    let mut cycles = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut cycle = Vec::new();
        let mut cur = start;
        while !seen[cur] {
            seen[cur] = true;
            cycle.push(cur as u64);
            cur = perm[cur] as usize;
            if cur >= n {
                break;
            }
        }
        cycles.push(cycle);
    }
    cycles
}

/// Places the `n` items into `[arena, arena+size)` with exclusive dart
/// throwing; `darts_per_item` darts in the first round, then team doubling.
/// Returns each item's cell and whether a sequential clean-up ran.
fn place_items<M: Machine>(
    m: &mut M,
    n: usize,
    arena: usize,
    size: usize,
    darts_per_item: usize,
) -> (Vec<usize>, bool, u64) {
    let mut cells = vec![usize::MAX; n];
    let max_rounds = 6 + 2 * log_star(n.max(2) as u64);
    let mut q = darts_per_item.max(1);
    let q_cap = ceil_lg(n.max(2) as u64).max(2) as usize;

    // Step 2 of Theorem 5.2: an item keeps the first cell its team claimed
    // uncontested, stamped with the item id, and marks the rest unclaimed.
    let mut darts = TeamDarts::new((0..n).collect(), n, ClaimMode::Exclusive);
    while !darts.live().is_empty() && darts.rounds() < max_rounds {
        darts.throw(m, q, |_item, ctx| arena + ctx.random_index(size));
        darts.settle(m, 0, |item| item as u64, |item, addr| cells[item] = addr);
        q = (q * 2).min(q_cap);
    }
    let rounds = darts.rounds();

    // Sequential Las-Vegas clean-up: one shared-cursor walk of the arena.
    let mut walk = arena..arena + size;
    let leftovers = darts.finish(m, |_item| walk.next(), |item| item as u64);
    for &(item, addr) in &leftovers {
        cells[item] = addr.expect("the dart arena has at least 2n free cells");
    }
    (cells, !leftovers.is_empty(), rounds)
}

/// Finds, for every placed item, the item occupying the next non-empty cell
/// to its right (with wrap-around) by the paper's binary-tree walk: level
/// `j` nodes cover `2^j` cells and remember the leftmost/rightmost item of
/// their subtree; merging two siblings links the left child's rightmost
/// item to the right child's leftmost item.  `levels` bounds the walk; gaps
/// larger than `2^levels` are fixed by a sequential sweep (w.h.p. none).
fn link_successors<M: Machine>(
    m: &mut M,
    arena: usize,
    size: usize,
    levels: usize,
    cells: &[usize],
) -> (Vec<u64>, bool) {
    let n = cells.len();
    let succ = m.alloc(n);

    // Level 0 is the arena itself; higher levels store (leftmost, rightmost)
    // packed as two cells per node.
    let mut prev_base = arena;
    let mut prev_nodes = size;
    let mut prev_is_arena = true;
    let mut level_meta: Vec<(usize, usize)> = Vec::new(); // (base, nodes) of top level

    for _ in 0..levels {
        if prev_nodes <= 1 {
            break;
        }
        let nodes = prev_nodes.div_ceil(2);
        let base = m.alloc(2 * nodes);
        m.par_for(nodes, |t, ctx| {
            let read_child = |ctx: &mut dyn MachineProc, c: usize| -> (u64, u64) {
                if c >= prev_nodes {
                    return (EMPTY, EMPTY);
                }
                if prev_is_arena {
                    let v = ctx.read(prev_base + c);
                    (v, v)
                } else {
                    (ctx.read(prev_base + 2 * c), ctx.read(prev_base + 2 * c + 1))
                }
            };
            let (ll, lr) = read_child(ctx, 2 * t);
            let (rl, rr) = read_child(ctx, 2 * t + 1);
            // Link across the sibling boundary, at the lowest level where
            // both sides are non-empty (do not overwrite earlier links).
            if lr != EMPTY && rl != EMPTY {
                let existing = ctx.read(succ + lr as usize);
                if existing == EMPTY {
                    ctx.write(succ + lr as usize, rl);
                }
            }
            let left = if ll != EMPTY { ll } else { rl };
            let right = if rr != EMPTY { rr } else { lr };
            if left != EMPTY {
                ctx.write(base + 2 * t, left);
            }
            if right != EMPTY {
                ctx.write(base + 2 * t + 1, right);
            }
        });
        prev_base = base;
        prev_nodes = nodes;
        prev_is_arena = false;
        level_meta = vec![(base, nodes)];
    }

    // Top level: link every node's rightmost item to the leftmost item of
    // the next non-empty node to its right (immediate neighbour w.h.p.).
    if let Some(&(base, nodes)) = level_meta.first() {
        m.par_for(nodes, |t, ctx| {
            let right = ctx.read(base + 2 * t + 1);
            if right == EMPTY {
                return;
            }
            let next_left = ctx.read(base + 2 * ((t + 1) % nodes));
            if next_left != EMPTY {
                let existing = ctx.read(succ + right as usize);
                if existing == EMPTY {
                    ctx.write(succ + right as usize, next_left);
                }
            }
        });
    }

    // Collect and, if necessary, repair sequentially (an unset successor
    // means some top-level node was empty — w.h.p. this never happens).
    let mut successor = m.dump(succ, n);
    let fallback = successor.contains(&EMPTY);
    if fallback {
        // Order items by their arena cell and close the cycle directly.
        let mut by_cell: Vec<(usize, usize)> = cells.iter().copied().enumerate().collect();
        by_cell.sort_by_key(|&(_, c)| c);
        m.seq_step(|ctx| ctx.compute(n as u64));
        for w in 0..by_cell.len() {
            let (item, _) = by_cell[w];
            let (next_item, _) = by_cell[(w + 1) % by_cell.len()];
            successor[item] = next_item as u64;
        }
    }
    (successor, fallback)
}

/// The fast algorithm of Theorem 5.2: `O(√lg n)` time with `n` processors.
pub fn random_cyclic_permutation_fast<M: Machine>(m: &mut M, n: usize) -> CyclicOutcome {
    if n == 0 {
        return CyclicOutcome {
            successor: Vec::new(),
            fallback_used: false,
            rounds: 0,
        };
    }
    if n == 1 {
        return CyclicOutcome {
            successor: vec![0],
            fallback_used: false,
            rounds: 0,
        };
    }
    let f = sqrt_lg(n as u64).max(1) as usize;
    let size = ((n / f.max(1)) << f.min(8)).max(2 * n);
    let arena = m.alloc(size);
    let (cells, fb1, rounds) = place_items(m, n, arena, size, f);
    let levels = (2 * f + 3).min(ceil_lg(size as u64) as usize + 1);
    let (successor, fb2) = link_successors(m, arena, size, levels, &cells);
    m.release_to(arena);
    CyclicOutcome {
        successor,
        fallback_used: fb1 || fb2,
        rounds,
    }
}

/// The work-optimal algorithm of Theorem 5.3: log-star placement into a
/// `Θ(n)`-cell array, `O(lg lg n)`-level successor search, linear work.
pub fn random_cyclic_permutation_efficient<M: Machine>(m: &mut M, n: usize) -> CyclicOutcome {
    if n == 0 {
        return CyclicOutcome {
            successor: Vec::new(),
            fallback_used: false,
            rounds: 0,
        };
    }
    if n == 1 {
        return CyclicOutcome {
            successor: vec![0],
            fallback_used: false,
            rounds: 0,
        };
    }
    let size = 4 * n;
    let arena = m.alloc(size);
    let (cells, fb1, rounds) = place_items(m, n, arena, size, 1);
    let levels = (2 * lg_lg(n as u64) as usize + 6).min(ceil_lg(size as u64) as usize + 1);
    let (successor, fb2) = link_successors(m, arena, size, levels, &cells);
    m.release_to(arena);
    CyclicOutcome {
        successor,
        fallback_used: fb1 || fb2,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;

    #[test]
    fn fast_algorithm_produces_a_single_cycle() {
        for seed in 0..3 {
            let mut pram = Pram::with_seed(4, seed);
            let out = random_cyclic_permutation_fast(&mut pram, 400);
            assert!(crate::permutation::is_permutation(&out.successor));
            assert!(is_cyclic(&out.successor), "seed {seed} not a single cycle");
        }
    }

    #[test]
    fn efficient_algorithm_produces_a_single_cycle() {
        let mut pram = Pram::with_seed(4, 11);
        let out = random_cyclic_permutation_efficient(&mut pram, 600);
        assert!(crate::permutation::is_permutation(&out.successor));
        assert!(is_cyclic(&out.successor));
    }

    #[test]
    fn tiny_instances() {
        let mut pram = Pram::with_seed(4, 1);
        assert!(random_cyclic_permutation_fast(&mut pram, 0)
            .successor
            .is_empty());
        assert_eq!(
            random_cyclic_permutation_fast(&mut pram, 1).successor,
            vec![0]
        );
        let two = random_cyclic_permutation_fast(&mut pram, 2);
        assert_eq!(two.successor, vec![1, 0]);
    }

    #[test]
    fn cycle_representation_matches_figure_1_examples() {
        // the paper's Figure 1: a cyclic permutation has one cycle, a
        // non-cyclic one decomposes into several
        let cyclic = vec![3u64, 0, 4, 1, 2]; // 0->3->1->0? no: check below
        let cycles = cycle_representation(&cyclic);
        let total: usize = cycles.iter().map(|c| c.len()).sum();
        assert_eq!(total, 5);

        let identity = vec![0u64, 1, 2, 3];
        assert_eq!(cycle_representation(&identity).len(), 4);

        let single = vec![1u64, 2, 3, 0];
        assert_eq!(cycle_representation(&single).len(), 1);
        assert!(is_cyclic(&single));
        assert!(!is_cyclic(&identity));
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut pram = Pram::with_seed(4, seed);
            random_cyclic_permutation_efficient(&mut pram, 128).successor
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn fast_algorithm_contention_is_low() {
        let n = 2048usize;
        let mut pram = Pram::with_seed(4, 21);
        let out = random_cyclic_permutation_fast(&mut pram, n);
        assert!(is_cyclic(&out.successor));
        let lg = ceil_lg(n as u64);
        assert!(
            pram.trace().max_contention() <= 2 * lg,
            "contention {}",
            pram.trace().max_contention()
        );
    }
}
