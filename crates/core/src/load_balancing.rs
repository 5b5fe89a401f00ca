//! Load balancing (Section 3).
//!
//! `n` processors hold `m` independent tasks; processor `i` starts with
//! `loads[i]` of them.  The goal is to redistribute the tasks so that every
//! processor ends with `O(1 + m/n)` of them.
//!
//! * [`load_balance_qrqw`] — the paper's low-contention algorithm
//!   (Lemma 3.3 / Theorem 3.4): tasks are grouped into super-tasks of size
//!   `⌈m/n⌉`, and `O(lg lg L)` *dispersal stages* follow, each of which
//!   (1) injectively maps the currently overloaded processors into an
//!   auxiliary array with the linear-compaction primitive, (2) broadcasts
//!   each auxiliary cell to a standing team of `u_i` processors, and
//!   (3) lets every team member adopt a chunk of at most `2 u_i`
//!   super-tasks from its overloaded processor.  Concurrent reads are
//!   replaced by the broadcast exactly as Section 3.2 prescribes.
//!
//! * [`load_balance_erew`] — the zero-contention baseline of Table I: one
//!   prefix-sums pass assigns every task a global rank and the tasks are
//!   dealt out in contiguous chunks of `⌈m/n⌉`.
//!
//! The paper also proves an `Ω(lg L)` lower bound (Theorem 3.2, by
//! reduction from broadcasting); the Table I harness exercises the
//! implementation across a range of `L` values to exhibit that growth.

use qrqw_prims::{
    duplicate_values, linear_compaction, prefix_sums_exclusive, propagate_nonempty_forward,
};
use qrqw_sim::schedule::lg_lg;
use qrqw_sim::{Machine, EMPTY};

/// A contiguous run of tasks, identified by the processor that originally
/// held them: tasks `start .. start + len` of `origin`'s initial task array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskBlock {
    /// Processor that held these tasks in the input.
    pub origin: usize,
    /// First task index within `origin`'s initial array.
    pub start: u64,
    /// Number of tasks in the block.
    pub len: u64,
}

/// Result of a load-balancing run.
#[derive(Debug, Clone)]
pub struct LoadBalanceResult {
    /// `assignment[p]` lists the task blocks processor `p` ends up with.
    pub assignment: Vec<Vec<TaskBlock>>,
    /// The largest number of tasks held by any processor after balancing.
    pub max_final_load: u64,
    /// Number of dispersal stages executed (0 for the EREW baseline).
    pub stages: u64,
    /// Whether the final greedy clean-up had to move any block.
    pub fallback_used: bool,
    /// Overloaded processors that a dispersal stage placed on the team of
    /// another one of the same stage: 0 when every stage's linear
    /// compaction was injective, as Lemma 3.3 requires (0 for the EREW
    /// baseline).
    pub shared_teams: u64,
}

impl LoadBalanceResult {
    /// Verifies that every input task appears in exactly one output block.
    pub fn covers_exactly(&self, loads: &[u64]) -> bool {
        let mut seen: Vec<Vec<bool>> = loads.iter().map(|&l| vec![false; l as usize]).collect();
        for blocks in &self.assignment {
            for b in blocks {
                for t in b.start..b.start + b.len {
                    let Some(slot) = seen.get_mut(b.origin).and_then(|v| v.get_mut(t as usize))
                    else {
                        return false;
                    };
                    if *slot {
                        return false;
                    }
                    *slot = true;
                }
            }
        }
        seen.iter().all(|v| v.iter().all(|&b| b))
    }
}

/// Internal representation during the dispersal stages: a contiguous run of
/// *super-tasks* of one origin processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SuperBlock {
    origin: usize,
    st_start: u64,
    st_len: u64,
}

/// Null link of a [`Holdings`] stack.
const NIL: usize = usize::MAX;

/// Who holds which runs of super-tasks — the "array of arrays" format in
/// which every processor holds a list of pointers to runs — kept in **one
/// flat pool** rather than a `Vec` per processor: at `n = 2^18` the
/// per-processor allocations, clones and drops were 85 % of the algorithm's
/// native wall.
///
/// A processor's runs form a stack threaded through the pool (`top[p]` is
/// its newest run, every entry links to the one below it), which is all the
/// algorithm needs: adoption pushes, the greedy clean-up pops, and a donor
/// hands its runs out newest-first.  The pool only ever grows; detached
/// entries are simply no longer reachable.
struct Holdings {
    /// `(run, pool index of the run below it in its holder's stack)`.
    pool: Vec<(SuperBlock, usize)>,
    /// Pool index of each processor's newest run.
    top: Vec<usize>,
}

impl Holdings {
    fn new(n: usize) -> Holdings {
        Holdings {
            pool: Vec::with_capacity(n),
            top: vec![NIL; n],
        }
    }

    /// Processor `p` takes `block` as its newest run.
    fn push(&mut self, p: usize, block: SuperBlock) {
        self.pool.push((block, self.top[p]));
        self.top[p] = self.pool.len() - 1;
    }

    /// Processor `p` gives up its newest run.
    fn pop(&mut self, p: usize) -> Option<SuperBlock> {
        let (block, below) = *self.pool.get(self.top[p])?;
        self.top[p] = below;
        Some(block)
    }

    /// Detaches every run of processor `p`, returning the pool index of the
    /// newest (for [`Holdings::runs_from`]); `p` restarts empty.
    fn detach(&mut self, p: usize) -> usize {
        std::mem::replace(&mut self.top[p], NIL)
    }

    /// The runs of one stack from pool index `at` down, newest first.
    fn runs_from(&self, mut at: usize) -> impl Iterator<Item = SuperBlock> + '_ {
        std::iter::from_fn(move || {
            let (block, below) = *self.pool.get(at)?;
            at = below;
            Some(block)
        })
    }

    /// Processor `p`'s task blocks, oldest run first, and their total size.
    fn tasks_of(&self, p: usize, loads: &[u64], g: u64) -> (Vec<TaskBlock>, u64) {
        let depth = self.runs_from(self.top[p]).count();
        let mut blocks = Vec::with_capacity(depth);
        let mut held = 0u64;
        for b in self.runs_from(self.top[p]) {
            let start = b.st_start * g;
            let end = ((b.st_start + b.st_len) * g).min(loads[b.origin]);
            if end > start {
                blocks.push(TaskBlock {
                    origin: b.origin,
                    start,
                    len: end - start,
                });
                held += end - start;
            }
        }
        blocks.reverse();
        (blocks, held)
    }
}

/// Greedy clean-up (Las Vegas tail): moves whole runs, newest first, from
/// processors above `2 · target` to processors below `target`.  Returns the
/// number of runs moved.
fn greedy_cleanup(held: &mut Holdings, cur: &mut [u64], target: u64) -> u64 {
    let mut moved = 0u64;
    let mut light: Vec<usize> = (0..cur.len()).filter(|&i| cur[i] < target).collect();
    for i in 0..cur.len() {
        while cur[i] > 2 * target {
            let Some(&dest) = light.last() else { break };
            let Some(b) = held.pop(i) else { break };
            cur[i] -= b.st_len;
            held.push(dest, b);
            cur[dest] += b.st_len;
            moved += 1;
            if cur[dest] >= target {
                light.pop();
            }
        }
    }
    moved
}

/// The QRQW load-balancing algorithm (Theorem 3.4).
pub fn load_balance_qrqw<M: Machine>(machine: &mut M, loads: &[u64]) -> LoadBalanceResult {
    let n = loads.len();
    if n == 0 {
        return LoadBalanceResult {
            assignment: Vec::new(),
            max_final_load: 0,
            stages: 0,
            fallback_used: false,
            shared_teams: 0,
        };
    }
    let m: u64 = loads.iter().sum();
    let g = (m.div_ceil(n as u64)).max(1); // super-task size

    // Ownership state in super-task units: every processor starts with its
    // own tasks as one run.
    let mut held = Holdings::new(n);
    let mut cur: Vec<u64> = loads.iter().map(|&load| load.div_ceil(g)).collect();
    for (i, &st) in cur.iter().enumerate() {
        if st > 0 {
            held.push(
                i,
                SuperBlock {
                    origin: i,
                    st_start: 0,
                    st_len: st,
                },
            );
        }
    }
    let max_load = |cur: &[u64]| cur.iter().copied().max().unwrap_or(0);
    // The runs of the donor being split, reused across donors and stages.
    let mut flat: Vec<SuperBlock> = Vec::new();

    // Every processor inspects its own load once (the accounted equivalent
    // of reading the `m_i` input).
    machine.par_for(n, |_i, ctx| ctx.compute(1));

    let l0 = max_load(&cur);
    let mut stages = 0u64;
    let mut shared_teams = 0u64;
    let max_stages = 2 * lg_lg(l0.max(4)) + 10;
    let settle = 24u64; // constant load at which the dispersal stops

    while max_load(&cur) > settle && stages < max_stages {
        stages += 1;
        let l_cur = max_load(&cur);
        let u = ((l_cur as f64).sqrt().ceil() as u64).max(2);

        // Step 0: overloaded processors announce themselves in a source
        // array (one exclusive write each).
        let threshold = 2 * u;
        let src = machine.alloc(n);
        let overloaded: Vec<usize> = (0..n).filter(|&i| cur[i] >= threshold).collect();
        if overloaded.is_empty() {
            machine.release_to(src);
            break;
        }
        let over_ref = &overloaded;
        machine.par_for(over_ref.len(), |x, ctx| {
            ctx.write(src + over_ref[x], over_ref[x] as u64);
        });

        // Step 1: linear compaction maps them injectively into the auxiliary
        // array; each auxiliary cell has a team of u processors standing by.
        let aux_size = (4 * n.div_ceil(u as usize))
            .max(4 * overloaded.len())
            .max(4);
        let aux = machine.alloc(aux_size);
        let placement = linear_compaction(machine, src, n, aux, aux_size);

        // Step 2: broadcast every auxiliary cell to its team (the paper's
        // replacement for concurrent reads), then every team member adopts
        // a chunk of at most 2u super-tasks.  Teams have ⌈u/2⌉ members so
        // the total number of team slots stays at ~2n and no destination
        // processor receives more than two chunks per stage.
        let team_size = (u as usize).div_ceil(2).max(1);
        let teams = machine.alloc(aux_size * team_size);
        duplicate_values(machine, aux, aux_size, teams, team_size);

        // Detach the overloaded processors' runs *before* any adoption:
        // what a donor adopts in this stage it keeps.
        let donors: Vec<(usize, usize)> = placement
            .placements
            .iter()
            .map(|&(proc_id, aux_cell)| {
                cur[proc_id] = 0;
                (aux_cell, held.detach(proc_id))
            })
            .collect();
        let mut cells: Vec<usize> = donors.iter().map(|&(cell, _)| cell).collect();
        cells.sort_unstable();
        shared_teams += cells.windows(2).filter(|pair| pair[0] == pair[1]).count() as u64;

        // Accounted adoption step: every member of a non-empty team reads
        // its broadcast copy and performs O(1) bookkeeping.
        let active_members: Vec<usize> = donors
            .iter()
            .flat_map(|&(cell, _)| (0..team_size).map(move |v| cell * team_size + v))
            .collect();
        let members_ref = &active_members;
        machine.par_for(members_ref.len(), |x, ctx| {
            let slot = members_ref[x];
            let _donor = ctx.read(teams + slot);
            ctx.compute(2);
        });

        // Host-side bookkeeping mirroring what the team members just did:
        // split the donor's super-tasks into chunks of 2u and hand chunk v
        // to processor (cell·team_size + v) mod n.
        for (cell, newest) in donors {
            flat.clear();
            flat.extend(held.runs_from(newest));
            flat.reverse(); // oldest first: chunks come off the newest end
            let mut v = 0usize;
            let chunk = 2 * u;
            while !flat.is_empty() {
                let dest = (cell * team_size + v) % n;
                v += 1;
                let mut taken = 0u64;
                while taken < chunk {
                    let Some(mut b) = flat.pop() else { break };
                    let take = b.st_len.min(chunk - taken);
                    held.push(dest, SuperBlock { st_len: take, ..b });
                    taken += take;
                    if b.st_len > take {
                        b.st_start += take;
                        b.st_len -= take;
                        flat.push(b);
                    }
                }
                cur[dest] += taken;
            }
        }
        machine.release_to(src);
    }

    // Greedy clean-up (Las Vegas tail), charged as one step whose
    // per-processor cost is the number of blocks moved.
    let target = settle.max(2 * m.div_ceil(n as u64));
    let mut fallback_used = false;
    if max_load(&cur) > 2 * target {
        fallback_used = true;
        let moved = greedy_cleanup(&mut held, &mut cur, target);
        machine.par_for(1, |_p, ctx| ctx.compute(moved.max(1)));
    }

    let mut max_final_load = 0u64;
    let assignment: Vec<Vec<TaskBlock>> = (0..n)
        .map(|p| {
            let (blocks, load) = held.tasks_of(p, loads, g);
            max_final_load = max_final_load.max(load);
            blocks
        })
        .collect();
    LoadBalanceResult {
        assignment,
        max_final_load,
        stages,
        fallback_used,
        shared_teams,
    }
}

/// The EREW prefix-sums baseline (the Table I comparison row): every task
/// gets a global rank via one prefix-sums pass and ranks are dealt out in
/// chunks of `⌈m/n⌉`.  `Θ(lg n + lg m)` time, `O(n + m)` work.
pub fn load_balance_erew<M: Machine>(machine: &mut M, loads: &[u64]) -> LoadBalanceResult {
    let n = loads.len();
    if n == 0 {
        return LoadBalanceResult {
            assignment: Vec::new(),
            max_final_load: 0,
            stages: 0,
            fallback_used: false,
            shared_teams: 0,
        };
    }
    let m: u64 = loads.iter().sum();
    let g = m.div_ceil(n as u64).max(1) as usize;

    // Prefix sums over the loads give every processor its tasks' global
    // offset.
    let offs = machine.alloc(n);
    machine.par_for(n, |i, ctx| {
        ctx.compute(1);
        ctx.write(offs + i, loads[i]);
    });
    prefix_sums_exclusive(machine, offs, n);
    let offsets: Vec<u64> = machine.dump(offs, n);

    // Mark every segment start of the global task array with
    // (origin, offset) and propagate it across the segment, so that task
    // rank p learns its origin without any concurrent reads.
    let tasks = machine.alloc((m as usize).max(1));
    machine.par_for(n, |i, ctx| {
        if loads[i] > 0 {
            let off = ctx.read(offs + i);
            ctx.write(tasks + off as usize, ((i as u64) << 32) | off);
        }
    });
    propagate_nonempty_forward(machine, tasks, m as usize);

    // Every task rank computes its destination (rank / g); the blocks are
    // reconstructed host-side from the same arithmetic.
    machine.par_for(m as usize, |p, ctx| {
        let w = ctx.read(tasks + p);
        debug_assert_ne!(w, EMPTY);
        ctx.compute(2);
    });
    machine.release_to(offs);

    let mut assignment: Vec<Vec<TaskBlock>> = vec![Vec::new(); n];
    for i in 0..n {
        let mut k = 0u64;
        while k < loads[i] {
            let rank = offsets[i] + k;
            let dest = (rank as usize / g).min(n - 1);
            let room = (g as u64 - rank % g as u64).min(loads[i] - k);
            assignment[dest].push(TaskBlock {
                origin: i,
                start: k,
                len: room,
            });
            k += room;
        }
    }
    let max_final_load = assignment
        .iter()
        .map(|bs| bs.iter().map(|b| b.len).sum::<u64>())
        .max()
        .unwrap_or(0);
    LoadBalanceResult {
        assignment,
        max_final_load,
        stages: 0,
        fallback_used: false,
        shared_teams: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn skewed_loads(n: usize, l: u64, seed: u64) -> Vec<u64> {
        // a few processors hold load L, the rest hold 0 or 1, total ~<= 2n
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut loads = vec![0u64; n];
        let heavy = (n as u64 / l.max(1)).clamp(1, n as u64) as usize;
        for load in loads.iter_mut().take(heavy) {
            *load = l;
        }
        for load in loads.iter_mut().skip(heavy) {
            *load = rng.gen_range(0..2);
        }
        loads
    }

    #[test]
    fn qrqw_balances_skewed_input() {
        let n = 512;
        let loads = skewed_loads(n, 64, 1);
        let m: u64 = loads.iter().sum();
        let mut pram = Pram::with_seed(4, 3);
        let res = load_balance_qrqw(&mut pram, &loads);
        assert!(res.covers_exactly(&loads));
        let bound = 64 * (1 + m / n as u64);
        assert!(
            res.max_final_load <= bound,
            "final load {} exceeds O(1+m/n) bound {}",
            res.max_final_load,
            bound
        );
    }

    #[test]
    fn qrqw_handles_single_hot_processor() {
        let n = 256;
        let mut loads = vec![0u64; n];
        loads[17] = 200;
        let mut pram = Pram::with_seed(4, 5);
        let res = load_balance_qrqw(&mut pram, &loads);
        assert!(res.covers_exactly(&loads));
        assert!(res.max_final_load <= 64, "load {}", res.max_final_load);
        assert!(res.stages >= 1);
    }

    #[test]
    fn qrqw_is_noop_when_already_balanced() {
        let loads = vec![2u64; 128];
        let mut pram = Pram::with_seed(4, 6);
        let res = load_balance_qrqw(&mut pram, &loads);
        assert!(res.covers_exactly(&loads));
        assert_eq!(res.stages, 0);
        assert_eq!(res.max_final_load, 2);
    }

    #[test]
    fn erew_baseline_balances_exactly() {
        let n = 300;
        let loads = skewed_loads(n, 128, 9);
        let m: u64 = loads.iter().sum();
        let mut pram = Pram::with_seed(4, 2);
        let res = load_balance_erew(&mut pram, &loads);
        assert!(res.covers_exactly(&loads));
        assert!(res.max_final_load <= m.div_ceil(n as u64) + 1);
    }

    #[test]
    fn erew_time_tracks_lg_n_not_l() {
        // the EREW baseline's time is (almost) independent of L
        let run = |l: u64| {
            let loads = skewed_loads(1024, l, 4);
            let mut pram = Pram::with_seed(4, 4);
            load_balance_erew(&mut pram, &loads);
            pram.trace().time(qrqw_sim::CostModel::Qrqw)
        };
        let t_small = run(4);
        let t_big = run(512);
        assert!(
            t_big <= t_small * 2,
            "EREW baseline should not grow with L ({t_small} vs {t_big})"
        );
    }

    #[test]
    fn empty_and_zero_load_inputs() {
        let mut pram = Pram::new(4);
        let res = load_balance_qrqw(&mut pram, &[]);
        assert!(res.assignment.is_empty());
        let res = load_balance_qrqw(&mut pram, &[0, 0, 0]);
        assert!(res.covers_exactly(&[0, 0, 0]));
        assert_eq!(res.max_final_load, 0);
        let res = load_balance_erew(&mut pram, &[0, 0, 0]);
        assert!(res.covers_exactly(&[0, 0, 0]));
    }

    /// Loads built like the repository benchmark's: one processor in 64
    /// holds 64 tasks, the rest 0 or 1.
    fn one_in_64_loads(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.gen_range(0..64) == 0 {
                    64
                } else {
                    rng.gen_range(0..2)
                }
            })
            .collect()
    }

    /// FNV-1a over every field of the result, blocks in per-processor order.
    fn digest(res: &LoadBalanceResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for blocks in &res.assignment {
            eat(blocks.len() as u64);
            for b in blocks {
                eat(b.origin as u64);
                eat(b.start);
                eat(b.len);
            }
        }
        eat(res.max_final_load);
        eat(res.stages);
        eat(res.fallback_used as u64);
        h
    }

    #[test]
    fn results_are_pinned_to_the_vec_of_vecs_implementation() {
        // (digest, stages, machine steps) read off the implementation this
        // one replaced, `owner: Vec<Vec<SuperBlock>>`: same blocks in the
        // same per-processor order from the same steps.  The one-hot input
        // makes adopters donate again in later stages.
        let mut one_hot = vec![0u64; 2048];
        one_hot[17] = 1 << 20;
        let got: Vec<(u64, u64, u64)> = [
            (one_in_64_loads(4096, 7), 3u64),
            (skewed_loads(1500, 300, 2), 11),
            (one_hot, 5),
        ]
        .iter()
        .map(|(loads, seed)| {
            let mut pram = Pram::with_seed(4, *seed);
            let res = load_balance_qrqw(&mut pram, loads);
            assert!(res.covers_exactly(loads));
            assert!(!res.fallback_used);
            (digest(&res), res.stages, pram.steps_executed())
        })
        .collect();
        assert_eq!(
            got,
            [
                (0x66e2dcd4c81a9b2, 2, 31),
                (0x61791edcb6941fc0, 2, 26),
                (0x28d04fd10cab95e, 4, 65),
            ]
        );
    }

    #[test]
    fn greedy_cleanup_matches_the_vec_of_vecs_reference() {
        // No input reaches the clean-up through `load_balance_qrqw` (it
        // takes a dozen unlucky dispersal stages in a row), so it is pinned
        // on hand-built states against the per-processor `Vec` form it
        // replaced, kept here verbatim.
        fn reference(owner: &mut [Vec<SuperBlock>], cur: &mut [u64], target: u64) -> u64 {
            let n = owner.len();
            let mut moved = 0u64;
            let mut light: Vec<usize> = (0..n).filter(|&i| cur[i] < target).collect();
            for i in 0..n {
                while cur[i] > 2 * target {
                    let Some(b) = owner[i].pop() else { break };
                    cur[i] -= b.st_len;
                    let dest = *light
                        .last()
                        .expect("the states below keep a light processor");
                    owner[dest].push(b);
                    cur[dest] += b.st_len;
                    moved += 1;
                    if cur[dest] >= target {
                        light.pop();
                    }
                }
            }
            moved
        }

        let mut rng = SmallRng::seed_from_u64(40);
        let mut total_moved = 0;
        for _ in 0..40 {
            // At most 3 heavy processors of at most 12 runs among at least
            // 37 light ones: more light processors than movable runs.
            let n = rng.gen_range(40..100);
            let target = rng.gen_range(4..30u64);
            let mut owner: Vec<Vec<SuperBlock>> = vec![Vec::new(); n];
            for _ in 0..rng.gen_range(1..4) {
                let p = rng.gen_range(0..n);
                owner[p] = (0..rng.gen_range(3..13))
                    .map(|r| SuperBlock {
                        origin: p,
                        st_start: 100 * r,
                        st_len: rng.gen_range(1..target),
                    })
                    .collect();
            }
            for (p, runs) in owner.iter_mut().enumerate() {
                if runs.is_empty() && rng.gen_range(0..2) == 0 {
                    runs.push(SuperBlock {
                        origin: p,
                        st_start: 0,
                        st_len: rng.gen_range(1..target.div_ceil(2) + 1),
                    });
                }
            }
            let mut cur: Vec<u64> = owner
                .iter()
                .map(|runs| runs.iter().map(|b| b.st_len).sum())
                .collect();
            let mut held = Holdings::new(n);
            for (p, runs) in owner.iter().enumerate() {
                for &b in runs {
                    held.push(p, b);
                }
            }

            let mut cur_ref = cur.clone();
            let moved = greedy_cleanup(&mut held, &mut cur, target);
            assert_eq!(moved, reference(&mut owner, &mut cur_ref, target));
            assert_eq!(cur, cur_ref);
            for (p, runs) in owner.iter().enumerate() {
                let mut got: Vec<SuperBlock> = held.runs_from(held.top[p]).collect();
                got.reverse();
                assert_eq!(&got, runs, "processor {p}");
            }
            total_moved += moved;
        }
        assert!(total_moved > 40, "the states must exercise the moves");
    }

    #[test]
    fn block_accounting_is_exact_for_random_loads() {
        let mut rng = SmallRng::seed_from_u64(12);
        let loads: Vec<u64> = (0..200).map(|_| rng.gen_range(0..10)).collect();
        let mut pram = Pram::with_seed(4, 8);
        let res = load_balance_qrqw(&mut pram, &loads);
        assert!(res.covers_exactly(&loads));
        let total_out: u64 = res
            .assignment
            .iter()
            .flat_map(|bs| bs.iter().map(|b| b.len))
            .sum();
        assert_eq!(total_out, loads.iter().sum::<u64>());
    }
}
