//! The cell-claiming protocol ("write, read, write, read", Section 5.1).
//!
//! Many of the paper's randomized algorithms have processors *claim* memory
//! cells: a processor picks a cell (usually at random) and wants to learn,
//! within a constant number of low-contention steps, whether its claim
//! succeeded.  Two flavours appear in the paper:
//!
//! * **Occupy** — an already-occupied cell rejects all claims; among
//!   simultaneous claimants to a free cell, the arbitration winner succeeds
//!   and the cell keeps its tag.  This is the behaviour used by the heavy
//!   multiple-compaction deactivation step (Section 4.1) and by the hashing
//!   algorithm's block-claiming step (Section 6.2).
//!
//! * **Exclusive** — a claim succeeds only if it is the *only* claim on the
//!   cell in this round; simultaneous claimants all fail and the cell is
//!   restored to empty.  This is the behaviour required by the
//!   random-permutation dart-throwing algorithms (Section 5.1), where
//!   letting an arbitration winner through would bias the permutation.
//!
//! Both are implemented with the paper's constant-round protocol, so the
//! contention of every step is at most the size of the largest collision
//! set — exactly the quantity the QRQW metric charges.
//!
//! On top of the claim sits the one protocol the paper's randomized
//! placements share — Section 4.1's heavy multiple compaction, the linear
//! compaction of Lemma 4.2 and step 2 of Theorem 5.2's cyclic permutation:
//! every live item fields a *team* of `q` darts, the darts claim, the first
//! winner of each team keeps its cell and stamps it, redundant winners
//! release theirs, and the items whose whole team lost go round again.
//! [`TeamDarts`] is that round, written once; its callers keep only what
//! differs between them (claim mode, target draw, stamped value, the
//! team-growth schedule and round cap, and what they charge for the team
//! select).

use std::mem::take;

use qrqw_sim::{Machine, MachineProc, EMPTY};

pub use qrqw_sim::ClaimMode;

/// A team dart-throwing placement in progress: the items still unplaced and
/// the round in flight.  A caller loops [`TeamDarts::throw`] →
/// [`TeamDarts::settle`] while [`TeamDarts::live`] is non-empty and its own
/// round cap allows, growing the team size as its analysis prescribes, then
/// hands whatever is left to [`TeamDarts::finish`].
pub struct TeamDarts {
    mode: ClaimMode,
    /// Tag stride: member `j` of item `i`'s team claims with `j·n + i + 1`,
    /// unique and below `EMPTY - 1`, the bound on every claim tag, as long
    /// as every item is below `n`.
    n: u64,
    live: Vec<usize>,
    rounds: u64,
    // The round in flight; `keep` is recycled across rounds.
    q: usize,
    attempts: Vec<(u64, usize)>,
    won: Vec<bool>,
    keep: Vec<Option<usize>>,
}

impl TeamDarts {
    /// Starts a placement of `items` (each below the tag stride `n`) whose
    /// darts claim in `mode`.
    pub fn new(items: Vec<usize>, n: usize, mode: ClaimMode) -> Self {
        debug_assert!(items.iter().all(|&item| item < n.max(1)));
        TeamDarts {
            mode,
            n: n as u64,
            live: items,
            rounds: 0,
            q: 0,
            attempts: Vec::new(),
            won: Vec::new(),
            keep: Vec::new(),
        }
    }

    /// The items not placed yet, in their original relative order.
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// Rounds thrown so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Darts of the round in flight (`live().len() · q` at its throw, 0 once
    /// it is settled) — the processor count of a step a caller runs between
    /// throw and settle.
    pub fn darts(&self) -> usize {
        self.attempts.len()
    }

    /// Throws one round: a step in which dart `a` — member `a % q` of the
    /// team of live item `a / q` — draws its cell with `target(item, ctx)`,
    /// then one [`Machine::claim`] over all darts, then the host-side pick
    /// of the first winner per team.
    pub fn throw<M, T>(&mut self, m: &mut M, q: usize, target: T)
    where
        M: Machine,
        T: Fn(usize, &mut dyn MachineProc) -> usize + Sync,
    {
        self.rounds += 1;
        self.q = q;
        let (live, n) = (&self.live, self.n);
        self.attempts = m.par_map(live.len() * q, |a, ctx| {
            let (item, member) = (live[a / q], (a % q) as u64);
            (member * n + item as u64 + 1, target(item, ctx))
        });
        self.won = m.claim(&self.attempts, self.mode);
        self.keep.clear();
        self.keep.resize(live.len(), None);
        for (a, &won) in self.won.iter().enumerate() {
            if won && self.keep[a / q].is_none() {
                self.keep[a / q] = Some(a);
            }
        }
    }

    /// Settles the thrown round in one step over its darts: every dart
    /// charges `select_ops` for the team-internal select, each team's kept
    /// winner overwrites its claim tag with `value(item)`, redundant winners
    /// restore [`EMPTY`].  Placed items are reported to `on_placed(item,
    /// cell)` in live order and leave the live list; the round is over.
    pub fn settle<M, V, P>(&mut self, m: &mut M, select_ops: u64, value: V, mut on_placed: P)
    where
        M: Machine,
        V: Fn(usize) -> u64 + Sync,
        P: FnMut(usize, usize),
    {
        // Taken, not borrowed: a round's k·q-entry vectors are freed here
        // instead of living on through the next round's throw.
        let (attempts, won) = (take(&mut self.attempts), take(&mut self.won));
        let (live, q, keep) = (&self.live, self.q, &self.keep);
        m.par_for(attempts.len(), |a, ctx| {
            ctx.compute(select_ops);
            if !won[a] {
                return;
            }
            let slot = a / q;
            let stamp = if keep[slot] == Some(a) {
                value(live[slot])
            } else {
                EMPTY
            };
            ctx.write(attempts[a].1, stamp);
        });
        let mut kept = keep.iter();
        self.live.retain(|&item| match kept.next() {
            Some(&Some(a)) => {
                on_placed(item, attempts[a].1);
                false
            }
            _ => true,
        });
    }

    /// The sequential Las-Vegas clean-up for the items the rounds left over
    /// (w.h.p. none, in which case no step runs and the result is empty):
    /// for each, advance its candidate-cell stream (`candidates(item)`,
    /// `None` = exhausted) until an [`EMPTY`] cell turns up, write
    /// `value(item)` there and report the cell.  Runs as one
    /// [`Machine::seq_step`], so the walk observes its own placements
    /// immediately on every backend — what keeps it injective.
    ///
    /// `candidates` is stateful across items: a shared cursor models one
    /// processor scanning an arena, per-label cursors one scan per subarray,
    /// which is how the w.h.p.-dead tails of Sections 4–7 are specified.
    pub fn finish<M, C, V>(
        self,
        m: &mut M,
        mut candidates: C,
        value: V,
    ) -> Vec<(usize, Option<usize>)>
    where
        M: Machine,
        C: FnMut(usize) -> Option<usize>,
        V: Fn(usize) -> u64,
    {
        if self.live.is_empty() {
            return Vec::new();
        }
        m.seq_step(|ctx| {
            self.live
                .iter()
                .map(|&item| {
                    let mut found = None;
                    while let Some(addr) = candidates(item) {
                        if ctx.read(addr) == EMPTY {
                            ctx.write(addr, value(item));
                            found = Some(addr);
                            break;
                        }
                    }
                    (item, found)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::CostModel;
    use qrqw_sim::Pram;

    #[test]
    fn contention_accounting_matches_collision_set_size() {
        let mut pram = Pram::new(8);
        let attempts: Vec<(u64, usize)> = (0..5).map(|i| (100 + i, 3usize)).collect();
        pram.claim(&attempts, ClaimMode::Occupy);
        // the probe and write steps each see 5 processors on one cell
        assert_eq!(pram.trace().max_contention(), 5);
        assert!(pram.trace().time(CostModel::Crcw) <= 3);
        assert!(pram.trace().time(CostModel::Qrqw) >= 10);
    }

    /// The value the engine tests have `item` stamp its cell with.
    fn stamp(item: usize) -> u64 {
        100 + item as u64
    }

    #[test]
    fn a_jammed_round_cap_leaves_the_rest_to_one_shared_cursor_walk() {
        let mut pram = Pram::with_seed(4, 1);
        let arena = pram.alloc(16);
        let hot = arena + 2;
        let mut placed = Vec::new();
        let mut darts = TeamDarts::new((0..6).collect(), 6, ClaimMode::Occupy);
        for q in [1, 2, 3] {
            let live = darts.live().len();
            darts.throw(&mut pram, q, |_item, _ctx| hot);
            assert_eq!(darts.darts(), live * q);
            darts.settle(&mut pram, 0, stamp, |item, addr| placed.push((item, addr)));
        }
        // Round 1 hands the hot cell to the lowest claimant; every later
        // dart finds it occupied, so the cap expires with five items live.
        assert_eq!(placed, [(0, hot)]);
        assert_eq!(darts.live(), [1, 2, 3, 4, 5]);
        assert_eq!(darts.rounds(), 3);

        let steps = pram.steps_executed();
        let mut walk = arena..arena + 16;
        let leftovers = darts.finish(&mut pram, |_item| walk.next(), stamp);
        assert_eq!(pram.steps_executed(), steps + 1, "one sequential step");
        // The shared cursor walks past the occupied hot cell.
        let spots = [arena, arena + 1, arena + 3, arena + 4, arena + 5];
        let want: Vec<_> = (1..6).zip(spots.map(Some)).collect();
        assert_eq!(leftovers, want);
        let mut cells = vec![EMPTY; 16];
        for (cell, item) in [1, 2, 0, 3, 4, 5].into_iter().enumerate() {
            cells[cell] = stamp(item);
        }
        assert_eq!(pram.dump(arena, 16), cells, "each item exactly once");
    }

    #[test]
    fn per_label_cursors_fill_their_subarrays_and_report_an_exhausted_one() {
        // Label = item % 2: label 0 owns 2 cells for three items, label 1
        // owns 4 cells (one already taken) for two.
        let mut pram = Pram::with_seed(4, 2);
        let base = pram.alloc(7);
        let subarrays = [(base, 2), (base + 2, 4)];
        pram.poke(base + 2, 999);
        let hot = base + 6;

        // Exclusive darts that all collide: nobody wins, the cell is
        // restored, nothing is placed and nobody leaves the live list.
        let mut darts = TeamDarts::new((0..5).collect(), 5, ClaimMode::Exclusive);
        darts.throw(&mut pram, 2, |_item, _ctx| hot);
        darts.settle(&mut pram, 0, stamp, |_, _| panic!("no dart can win"));
        assert_eq!(pram.peek(hot), EMPTY);
        assert_eq!(darts.live(), [0, 1, 2, 3, 4]);

        let steps = pram.steps_executed();
        let mut cursors = [0usize; 2];
        let leftovers = darts.finish(
            &mut pram,
            |item| {
                let (start, len) = subarrays[item % 2];
                let cur = &mut cursors[item % 2];
                (*cur < len).then(|| {
                    *cur += 1;
                    start + *cur - 1
                })
            },
            stamp,
        );
        assert_eq!(pram.steps_executed(), steps + 1, "one sequential step");
        assert_eq!(
            leftovers,
            [
                (0, Some(base)),
                (1, Some(base + 3)),
                (2, Some(base + 1)),
                (3, Some(base + 4)),
                (4, None),
            ]
        );
        let want = [stamp(0), stamp(2), 999, stamp(1), stamp(3), EMPTY, EMPTY];
        assert_eq!(pram.dump(base, 7), want);
    }

    #[test]
    fn single_dart_teams_with_private_targets_finish_in_one_round() {
        let mut pram = Pram::with_seed(4, 3);
        let base = pram.alloc(8);
        let mut placed = Vec::new();
        let mut darts = TeamDarts::new(vec![5, 1, 6], 8, ClaimMode::Exclusive);
        darts.throw(&mut pram, 1, |item, _ctx| base + item);
        darts.settle(&mut pram, 0, stamp, |item, addr| placed.push((item, addr)));
        assert_eq!(placed, [(5, base + 5), (1, base + 1), (6, base + 6)]);
        assert!(darts.live().is_empty());
        for (item, addr) in placed {
            assert_eq!(pram.peek(addr), stamp(item));
        }
        let steps = pram.steps_executed();
        assert!(darts.finish(&mut pram, |_| None, stamp).is_empty());
        assert_eq!(pram.steps_executed(), steps, "nothing left: no step");
    }

    #[test]
    fn an_empty_item_list_is_done_before_it_starts() {
        let mut pram = Pram::new(4);
        let darts = TeamDarts::new(Vec::new(), 0, ClaimMode::Occupy);
        assert!(darts.live().is_empty());
        assert_eq!((darts.rounds(), darts.darts()), (0, 0));
        assert!(darts.finish(&mut pram, |_| Some(0), stamp).is_empty());
        assert_eq!(pram.steps_executed(), 0);
    }

    #[test]
    fn redundant_winners_release_their_cells_and_the_select_charge_is_per_dart() {
        let run = |select_ops: u64| {
            let mut pram = Pram::with_seed(4, 4);
            let base = pram.alloc(12);
            let mut placed = Vec::new();
            let mut darts = TeamDarts::new((0..4).collect(), 4, ClaimMode::Occupy);
            // every dart its own cell: the whole team of three wins
            darts.throw(&mut pram, 3, |_item, ctx| base + ctx.proc_id() as usize);
            darts.settle(&mut pram, select_ops, stamp, |item, addr| {
                placed.push((item, addr))
            });
            assert!(darts.live().is_empty());
            let want: Vec<_> = (0..4).map(|item| (item, base + 3 * item)).collect();
            assert_eq!(placed, want, "the first member's cell is the one kept");
            for (a, cell) in pram.dump(base, 12).into_iter().enumerate() {
                let want = if a % 3 == 0 { stamp(a / 3) } else { EMPTY };
                assert_eq!(cell, want, "cell {a}");
            }
            pram.trace().work()
        };
        assert_eq!(run(1) - run(0), 12);
    }
}
