//! Multiple compaction (Section 4).
//!
//! Input: `n` items, each carrying a *label* `j`; for every label a *count*
//! `n_j` that upper-bounds the number of items with that label
//! (`Σ n_j = O(n)`), and an output array `B` partitioned so that label `j`
//! owns a private subarray of size `4 n_j`.  The problem is to move every
//! item into a private cell of its label's subarray.
//!
//! The paper splits the problem into the *heavy* case (every count at least
//! `α lg² n`) solved by log-star dart throwing with doubling teams
//! (Section 4.1), and the *light* case (every count below `α lg² n`) solved
//! by a reduction to small-range stable sorting (Section 4.2).  Both are
//! implemented here; [`multiple_compaction`] partitions an arbitrary
//! instance into the two cases and runs each once, exactly as the proof of
//! Theorem 4.1 prescribes.
//!
//! **Substitution note (light case).**  Section 4.2 routes the light case
//! through "supersets" of `Θ(lg² n)` consecutive labels so that the final
//! within-superset sort has keys in a `lg^O(1) n` range and Fact 4.3
//! applies.  Our [`light_multiple_compaction`] keeps steps (i)–(ii) (leader
//! election and the count array) and then sorts the light items by label
//! directly with the multi-pass Fact 4.3 radix sort from `qrqw-prims`,
//! which has the same `O(lg n)` time / linear work and removes one level of
//! indirection; the superset detour exists only to keep the key range small
//! for a single-pass sort.  This is recorded in DESIGN.md.

use qrqw_prims::{
    prefix_sums_exclusive, propagate_nonempty_forward, radix_sort_packed, ClaimMode, TeamDarts,
};
use qrqw_sim::schedule::{ceil_lg, log_star};
use qrqw_sim::{Machine, MachineProc};

/// The position of every label's private subarray inside the output array.
#[derive(Debug, Clone)]
pub struct McLayout {
    /// Base address (absolute, in shared memory) of the output array `B`.
    pub b_base: usize,
    /// Total size of `B`.
    pub b_len: usize,
    /// Per-label subarray offset within `B`.
    pub subarray_offset: Vec<usize>,
    /// Per-label subarray length (`4 · count`).
    pub subarray_len: Vec<usize>,
}

impl McLayout {
    /// Absolute address of cell `slot` of label `j`'s subarray.
    #[inline]
    pub fn cell(&self, label: usize, slot: usize) -> usize {
        debug_assert!(slot < self.subarray_len[label]);
        self.b_base + self.subarray_offset[label] + slot
    }
}

/// Result of a multiple-compaction run.
#[derive(Debug, Clone)]
pub struct McResult {
    /// Absolute output cell per item (`usize::MAX` for unplaced items when
    /// `failed` is set).
    pub positions: Vec<usize>,
    /// The output-array layout that was built from the counts.
    pub layout: McLayout,
    /// Set when the *relaxed* variant detected that some set exceeded its
    /// count (the caller is expected to re-run with better counts), or when
    /// an item could not be placed.
    pub failed: bool,
    /// Dart-throwing rounds used by the heavy phase.
    pub rounds: u64,
}

/// Builds the output array `B` and the per-label subarrays (size `4·count`)
/// from the counts, charging the prefix-sums computation to the machine.
pub fn build_layout<M: Machine>(m: &mut M, counts: &[u64]) -> McLayout {
    let num_labels = counts.len();
    let sizes = m.alloc(num_labels.max(1));
    m.par_for(num_labels, |j, ctx| {
        ctx.compute(1);
        ctx.write(sizes + j, 4 * counts[j]);
    });
    let total = prefix_sums_exclusive(m, sizes, num_labels) as usize;
    let offsets: Vec<usize> = m
        .dump(sizes, num_labels)
        .into_iter()
        .map(|v| v as usize)
        .collect();
    m.release_to(sizes);
    let b_base = m.alloc(total.max(1));
    McLayout {
        b_base,
        b_len: total,
        subarray_offset: offsets,
        subarray_len: counts.iter().map(|&c| 4 * c as usize).collect(),
    }
}

/// A team member's dart: a random slot of its item's label subarray.
fn random_subarray_cell(
    labels: &[u64],
    layout: &McLayout,
    item: usize,
    ctx: &mut dyn MachineProc,
) -> usize {
    let label = labels[item] as usize;
    layout.cell(label, ctx.random_index(layout.subarray_len[label].max(1)))
}

/// The candidate stream of the sequential clean-up: one cursor per label,
/// each walking its label's subarray once and then exhausted.
fn label_cursors<'a>(
    labels: &'a [u64],
    layout: &'a McLayout,
) -> impl FnMut(usize) -> Option<usize> + 'a {
    let mut cursors: std::collections::HashMap<usize, usize> = Default::default();
    move |item| {
        let label = labels[item] as usize;
        let cur = cursors.entry(label).or_insert(0);
        (*cur < layout.subarray_len[label]).then(|| {
            *cur += 1;
            layout.cell(label, *cur - 1)
        })
    }
}

/// Places the given items into their label subarrays by log-star
/// dart-throwing (the heavy algorithm of Section 4.1), leaving each claimed
/// cell holding its item's index.
fn place_by_dart_throwing<M: Machine>(
    m: &mut M,
    items: &[usize],
    labels: &[u64],
    layout: &McLayout,
    positions: &mut [usize],
    relaxed: bool,
) -> (bool, u64) {
    let n = labels.len().max(2);
    let team_cap = ceil_lg(n as u64).max(2);
    let mut team: u64 = 1;
    let max_rounds = 8 + 2 * log_star(n as u64);

    let mut darts = TeamDarts::new(items.to_vec(), n, ClaimMode::Occupy);
    while !darts.live().is_empty() && darts.rounds() < max_rounds {
        darts.throw(m, team as usize, |item, ctx| {
            random_subarray_cell(labels, layout, item, ctx)
        });
        // one compute per team member for the team-internal select
        darts.settle(
            m,
            1,
            |item| item as u64,
            |item, addr| positions[item] = addr,
        );
        team = (1u64 << team.min(6)).min(team_cap).max(team + 1);
    }
    let rounds = darts.rounds();

    // Las-Vegas clean-up (or relaxed failure report): one sequential step
    // scans each leftover label's subarray for free cells.
    let mut failed = false;
    for (item, spot) in darts.finish(m, label_cursors(labels, layout), |item| item as u64) {
        match spot {
            Some(addr) => positions[item] = addr,
            None => {
                failed = true;
                assert!(relaxed, "multiple compaction overflowed a subarray whose count was promised to be an upper bound");
            }
        }
    }
    (failed, rounds)
}

/// Dart-throwing placement of the keys' *values* into their labels'
/// subarrays — the relaxed heavy multiple compaction of Section 4.1 with the
/// cells holding key values rather than item indices, because the sorting
/// algorithms of Section 7 finish their subarrays in place.  Returns false
/// if some subarray overflowed.
pub(crate) fn place_values<M: Machine>(
    m: &mut M,
    keys: &[u64],
    labels: &[u64],
    layout: &McLayout,
) -> bool {
    let n = keys.len();
    let mut team = 1usize;
    let team_cap = ceil_lg(n as u64).max(2) as usize;
    let max_rounds = 8 + 2 * log_star(n as u64);

    let mut darts = TeamDarts::new((0..n).collect(), n, ClaimMode::Occupy);
    while !darts.live().is_empty() && darts.rounds() < max_rounds {
        darts.throw(m, team, |item, ctx| {
            random_subarray_cell(labels, layout, item, ctx)
        });
        darts.settle(m, 0, |item| keys[item], |_item, _addr| {});
        team = (team * 4).min(team_cap);
    }
    // Sequential Las-Vegas clean-up; an exhausted subarray reports failure.
    darts
        .finish(m, label_cursors(labels, layout), |item| keys[item])
        .iter()
        .all(|&(_, spot)| spot.is_some())
}

/// The heavy multiple-compaction algorithm (Lemma 4.2): every count is at
/// least `α lg² n`.  With `relaxed = true` this is the "relaxed" variant
/// used by the sorting algorithms of Section 7: if some set turns out to
/// exceed its promised count the run reports failure instead of panicking.
pub fn heavy_multiple_compaction<M: Machine>(
    m: &mut M,
    labels: &[u64],
    counts: &[u64],
    relaxed: bool,
) -> McResult {
    let layout = build_layout(m, counts);
    let mut positions = vec![usize::MAX; labels.len()];
    let items: Vec<usize> = (0..labels.len()).collect();
    let (failed, rounds) =
        place_by_dart_throwing(m, &items, labels, &layout, &mut positions, relaxed);
    McResult {
        positions,
        layout,
        failed,
        rounds,
    }
}

/// The light multiple-compaction algorithm (Section 4.2): every count is
/// below `α lg² n`.  Items are sorted by label with the Fact 4.3 radix
/// sort, ranked within their label run, and written to
/// `subarray(label)[rank]`.
pub fn light_multiple_compaction<M: Machine>(
    m: &mut M,
    labels: &[u64],
    counts: &[u64],
) -> McResult {
    let layout = build_layout(m, counts);
    let n = labels.len();
    let mut positions = vec![usize::MAX; n];
    if n == 0 {
        return McResult {
            positions,
            layout,
            failed: false,
            rounds: 0,
        };
    }

    // Step (i)-(ii) of Section 4.2 in spirit: every item publishes a packed
    // (label, item) word; the words are then stably sorted by label.
    let words = m.alloc(n);
    m.par_for(n, |i, ctx| {
        ctx.compute(1);
        ctx.write(words + i, qrqw_prims::pack(labels[i], i as u64));
    });
    let label_bits = (ceil_lg(counts.len().max(2) as u64) + 1) as usize;
    radix_sort_packed(m, words, n, label_bits);

    // Rank every item within its label run: mark run starts, propagate the
    // run-start index and the label's subarray base forward, then rank =
    // own index - run start.
    let starts = m.alloc(n);
    let bases = m.alloc(n);
    m.par_for(n, |i, ctx| {
        let w = ctx.read(words + i);
        let label = qrqw_prims::unpack_key(w) as usize;
        let is_start = if i == 0 {
            true
        } else {
            qrqw_prims::unpack_key(ctx.read(words + i - 1)) as usize != label
        };
        if is_start {
            ctx.write(starts + i, i as u64);
            // one reader per label: exclusive
            ctx.compute(1);
            ctx.write(
                bases + i,
                (layout.b_base + layout.subarray_offset[label]) as u64,
            );
        }
    });
    propagate_nonempty_forward(m, starts, n);
    propagate_nonempty_forward(m, bases, n);

    // Final placement: each item writes itself into subarray_base + rank.
    let placed: Vec<(usize, usize, bool)> = m.par_map(n, |i, ctx| {
        let w = ctx.read(words + i);
        let item = qrqw_prims::unpack_payload(w) as usize;
        let label = qrqw_prims::unpack_key(w) as usize;
        let start = ctx.read(starts + i) as usize;
        let base = ctx.read(bases + i) as usize;
        let rank = i - start;
        if rank < layout.subarray_len[label] {
            ctx.write(base + rank, item as u64);
            (item, base + rank, true)
        } else {
            (item, usize::MAX, false)
        }
    });
    let mut failed = false;
    for (item, addr, ok) in placed {
        if ok {
            positions[item] = addr;
        } else {
            failed = true;
        }
    }
    m.release_to(words);
    McResult {
        positions,
        layout,
        failed,
        rounds: 0,
    }
}

/// Solves an arbitrary multiple-compaction instance (Theorem 4.1): labels
/// with counts of at least `lg² n` go through the heavy algorithm, the rest
/// through the light algorithm, one application each.
pub fn multiple_compaction<M: Machine>(m: &mut M, labels: &[u64], counts: &[u64]) -> McResult {
    let n = labels.len();
    let lg = ceil_lg(n.max(2) as u64);
    let threshold = (lg * lg).max(4);

    let layout = build_layout(m, counts);
    let mut positions = vec![usize::MAX; n];

    let heavy_items: Vec<usize> = (0..n)
        .filter(|&i| counts[labels[i] as usize] >= threshold)
        .collect();
    let light_items: Vec<usize> = (0..n)
        .filter(|&i| counts[labels[i] as usize] < threshold)
        .collect();

    let mut failed = false;
    let mut rounds = 0;
    if !heavy_items.is_empty() {
        let (f, r) = place_by_dart_throwing(m, &heavy_items, labels, &layout, &mut positions, true);
        failed |= f;
        rounds = r;
    }
    if !light_items.is_empty() {
        // Run the light path on the light items only, then translate its
        // positions (computed against the same layout) into ours.
        let light_labels: Vec<u64> = light_items.iter().map(|&i| labels[i]).collect();
        // Counts restricted to light labels keep their original values; heavy
        // labels get zero so the light layout only sizes light subarrays.
        let light_counts: Vec<u64> = counts
            .iter()
            .map(|&c| if c < threshold { c } else { 0 })
            .collect();
        let sub = light_multiple_compaction(m, &light_labels, &light_counts);
        failed |= sub.failed;
        for (slot, &item) in light_items.iter().enumerate() {
            let p = sub.positions[slot];
            if p == usize::MAX {
                failed = true;
                continue;
            }
            // Translate from the light layout's subarray to the shared one.
            let label = labels[item] as usize;
            let off = p - (sub.layout.b_base + sub.layout.subarray_offset[label]);
            positions[item] = layout.cell(label, off);
        }
        // Materialise the light placements in the shared output array.
        let to_write: Vec<(usize, usize)> = light_items
            .iter()
            .filter(|&&i| positions[i] != usize::MAX)
            .map(|&i| (i, positions[i]))
            .collect();
        m.par_for(to_write.len(), |t, ctx| {
            let (item, addr) = to_write[t];
            ctx.write(addr, item as u64);
        });
    }

    McResult {
        positions,
        layout,
        failed,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn check_valid(result: &McResult, labels: &[u64]) {
        assert!(!result.failed);
        let mut seen = HashSet::new();
        for (item, &pos) in result.positions.iter().enumerate() {
            assert_ne!(pos, usize::MAX, "item {item} unplaced");
            assert!(seen.insert(pos), "position {pos} used twice");
            let label = labels[item] as usize;
            let lo = result.layout.b_base + result.layout.subarray_offset[label];
            let hi = lo + result.layout.subarray_len[label];
            assert!(pos >= lo && pos < hi, "item {item} outside its subarray");
        }
    }

    #[test]
    fn label_cursors_walk_each_subarray_once_and_then_report_it_exhausted() {
        let layout = McLayout {
            b_base: 10,
            b_len: 6,
            subarray_offset: vec![0, 4, 4],
            subarray_len: vec![4, 0, 2],
        };
        let labels = [2u64, 0, 2, 2, 1];
        let mut next = label_cursors(&labels, &layout);
        let got: Vec<_> = [0, 1, 2, 3, 4, 1].into_iter().map(&mut next).collect();
        // label 2 runs out after two cells, label 1 owns none
        assert_eq!(got, [Some(14), Some(10), Some(15), None, None, Some(11)]);
    }

    #[test]
    fn heavy_case_places_all_items() {
        let n = 1024usize;
        let num_labels = 4usize;
        let mut rng = SmallRng::seed_from_u64(3);
        let labels: Vec<u64> = (0..n)
            .map(|_| rng.gen_range(0..num_labels as u64))
            .collect();
        let mut counts = vec![0u64; num_labels];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        let mut pram = Pram::with_seed(4, 1);
        let result = heavy_multiple_compaction(&mut pram, &labels, &counts, false);
        check_valid(&result, &labels);
        // cells hold the item index that was placed there
        for (item, &pos) in result.positions.iter().enumerate() {
            assert_eq!(pram.memory().peek(pos), item as u64);
        }
    }

    #[test]
    fn light_case_places_all_items() {
        let n = 600usize;
        let num_labels = 100usize;
        let mut rng = SmallRng::seed_from_u64(8);
        let labels: Vec<u64> = (0..n)
            .map(|_| rng.gen_range(0..num_labels as u64))
            .collect();
        let mut counts = vec![0u64; num_labels];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        let mut pram = Pram::with_seed(4, 2);
        let result = light_multiple_compaction(&mut pram, &labels, &counts);
        check_valid(&result, &labels);
    }

    #[test]
    fn mixed_instance_uses_both_paths() {
        // two huge sets and many tiny ones
        let mut labels = vec![0u64; 700];
        labels.extend(std::iter::repeat_n(1, 500));
        for i in 0..200 {
            labels.push(2 + (i % 50));
        }
        let num_labels = 52;
        let mut counts = vec![0u64; num_labels];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        let mut pram = Pram::with_seed(4, 9);
        let result = multiple_compaction(&mut pram, &labels, &counts);
        check_valid(&result, &labels);
    }

    #[test]
    fn relaxed_variant_reports_overflow_instead_of_panicking() {
        // promise a count of 1 for a set that actually has 16 items
        let labels = vec![0u64; 16];
        let counts = vec![1u64];
        let mut pram = Pram::with_seed(4, 5);
        let result = heavy_multiple_compaction(&mut pram, &labels, &counts, true);
        assert!(result.failed, "overflow must be reported");
    }

    #[test]
    fn counts_may_overestimate_set_sizes() {
        let labels = vec![0, 0, 1, 1, 1, 3];
        let counts = vec![10u64, 10, 10, 10];
        let mut pram = Pram::with_seed(4, 6);
        let result = multiple_compaction(&mut pram, &labels, &counts);
        check_valid(&result, &labels);
    }

    #[test]
    fn empty_instance() {
        let mut pram = Pram::new(4);
        let result = multiple_compaction(&mut pram, &[], &[]);
        assert!(!result.failed);
        assert!(result.positions.is_empty());
    }

    #[test]
    fn work_is_near_linear_and_contention_modest() {
        let n = 4096usize;
        let num_labels = 64usize;
        let mut rng = SmallRng::seed_from_u64(10);
        let labels: Vec<u64> = (0..n)
            .map(|_| rng.gen_range(0..num_labels as u64))
            .collect();
        let mut counts = vec![0u64; num_labels];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        let mut pram = Pram::with_seed(4, 11);
        let result = multiple_compaction(&mut pram, &labels, &counts);
        check_valid(&result, &labels);
        let lg = ceil_lg(n as u64);
        assert!(
            pram.trace().max_contention() <= 6 * lg,
            "contention {} too high",
            pram.trace().max_contention()
        );
        assert!(pram.trace().work() <= 120 * n as u64);
    }
}
