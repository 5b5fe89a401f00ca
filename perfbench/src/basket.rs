//! The basket: ten registry algorithms with seeded inputs and validators
//! written against their *outputs*.
//!
//! Every expectation here is computed on the host from the input alone
//! (sorted keys, list positions, per-address request counts); no helper of
//! the crates under test is used to judge them, so a bug shared by an
//! algorithm and its own checker cannot pass.

use std::time::{Duration, Instant};

use qrqw_core::{
    emulate_fetch_add_step, integer_sort_crqw, load_balance_qrqw, multiple_compaction,
    random_cyclic_permutation_efficient, random_permutation_qrqw, sample_sort_qrqw, QrqwHashTable,
};
use qrqw_prims::{linear_compaction, list_rank};
use qrqw_sim::{Machine, EMPTY};

use crate::rng::{stream, KeyMap, SplitMix64};
use crate::spec::BASKET;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    PermutationQrqw,
    LinearCompaction,
    LoadBalanceQrqw,
    MultipleCompaction,
    Hashing,
    CyclicEfficient,
    IntegerSort,
    SampleSortQrqw,
    FetchAdd,
    ListRank,
}

/// Span names of the timed calls, `core.<algorithm>`, in [`Algo::ALL`] order.
const CALL_SPANS: [&str; 10] = [
    "core.permutation-qrqw",
    "core.linear-compaction",
    "core.load-balance-qrqw",
    "core.multiple-compaction",
    "core.hashing",
    "core.cyclic-efficient",
    "core.integer-sort",
    "core.sample-sort-qrqw",
    "core.fetch-add",
    "core.list-rank",
];

impl Algo {
    pub const ALL: [Algo; 10] = [
        Algo::PermutationQrqw,
        Algo::LinearCompaction,
        Algo::LoadBalanceQrqw,
        Algo::MultipleCompaction,
        Algo::Hashing,
        Algo::CyclicEfficient,
        Algo::IntegerSort,
        Algo::SampleSortQrqw,
        Algo::FetchAdd,
        Algo::ListRank,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        BASKET[self.index()]
    }

    /// Elements one call processes at nominal size `n`.  `hashing` and
    /// `sample-sort-qrqw` run at a quarter size: at full size they are
    /// 40 % and 25 % of a round and would turn the aggregate into a
    /// two-algorithm benchmark.
    pub fn size(self, n: usize) -> usize {
        match self {
            Algo::Hashing | Algo::SampleSortQrqw => n / 4,
            _ => n,
        }
    }
}

#[derive(Debug, PartialEq)]
enum Input {
    /// The algorithm takes only `n` (its randomness is the machine's).
    SizeOnly,
    LinearCompaction {
        cells: Vec<u64>,
        occupied: usize,
    },
    LoadBalance {
        loads: Vec<u64>,
        total: u64,
    },
    MultipleCompaction {
        labels: Vec<u64>,
        counts: Vec<u64>,
    },
    Hashing {
        keys: Vec<u64>,
        absent: Vec<u64>,
    },
    Sort {
        keys: Vec<u64>,
        /// `Some` for the integer sort.
        max_key: Option<u64>,
        sorted: Vec<u64>,
    },
    FetchAdd {
        /// `(counter index, delta)`; the machine address is `base + index`.
        requests: Vec<(usize, u64)>,
        per_counter: Vec<u64>,
    },
    ListRank {
        succ: Vec<u64>,
        rank: Vec<u64>,
    },
}

/// One algorithm with its input and host-computed expectation.
#[derive(Debug, PartialEq)]
pub struct Job {
    pub algo: Algo,
    /// Elements one call processes (the operations it is worth).
    pub n: usize,
    input: Input,
}

/// `count` distinct keys, and `count` more that are distinct from them.
fn distinct_keys(rng: &mut SplitMix64, count: usize) -> (Vec<u64>, Vec<u64>) {
    let map = KeyMap::new(rng);
    let present = (0..count as u64).map(|i| map.key(i)).collect();
    let absent = (count as u64..2 * count as u64)
        .map(|i| map.key(i))
        .collect();
    (present, absent)
}

impl Job {
    pub fn new(algo: Algo, nominal_n: usize, seed: u64) -> Job {
        let n = algo.size(nominal_n);
        let mut rng = stream(seed, 0x100 + algo.index() as u64);
        let input = match algo {
            Algo::PermutationQrqw | Algo::CyclicEfficient => Input::SizeOnly,
            Algo::LinearCompaction => {
                // Half full: one of every two adjacent cells, chosen by coin.
                let mut cells = vec![EMPTY; n];
                for pair in 0..n / 2 {
                    let at = 2 * pair + rng.below(2) as usize;
                    cells[at] = pair as u64 + 1;
                }
                Input::LinearCompaction {
                    cells,
                    occupied: n / 2,
                }
            }
            Algo::LoadBalanceQrqw => {
                // Skewed: one processor in 64 holds 64 tasks, the rest 0 or 1.
                let loads: Vec<u64> = (0..n)
                    .map(|_| if rng.below(64) == 0 { 64 } else { rng.below(2) })
                    .collect();
                let total = loads.iter().sum();
                Input::LoadBalance { loads, total }
            }
            Algo::MultipleCompaction => {
                // One heavy label (a third of the items) plus light ones.
                let num_labels = (n / 32).clamp(2, 64) as u64;
                let labels: Vec<u64> = (0..n)
                    .map(|_| {
                        if rng.below(3) == 0 {
                            0
                        } else {
                            rng.below(num_labels)
                        }
                    })
                    .collect();
                let mut counts = vec![0u64; num_labels as usize];
                for &l in &labels {
                    counts[l as usize] += 1;
                }
                Input::MultipleCompaction { labels, counts }
            }
            Algo::Hashing => {
                let (keys, absent) = distinct_keys(&mut rng, n);
                Input::Hashing { keys, absent }
            }
            Algo::SampleSortQrqw => {
                let (keys, _) = distinct_keys(&mut rng, n);
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                Input::Sort {
                    keys,
                    max_key: None,
                    sorted,
                }
            }
            Algo::IntegerSort => {
                let max_key = (n as u64 * 16).max(16);
                let keys: Vec<u64> = (0..n).map(|_| rng.below(max_key)).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                Input::Sort {
                    keys,
                    max_key: Some(max_key),
                    sorted,
                }
            }
            Algo::FetchAdd => {
                // Unit increments over a hot set of n/8 counters.
                let counters = (n / 8).max(1);
                let requests: Vec<(usize, u64)> = (0..n)
                    .map(|_| (rng.below(counters as u64) as usize, 1))
                    .collect();
                let mut per_counter = vec![0u64; counters];
                for &(c, _) in &requests {
                    per_counter[c] += 1;
                }
                Input::FetchAdd {
                    requests,
                    per_counter,
                }
            }
            Algo::ListRank => {
                // One chain visiting the nodes in a seeded random order.
                let mut order: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    order.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let mut succ = vec![EMPTY; n];
                let mut rank = vec![0u64; n];
                for (pos, &node) in order.iter().enumerate() {
                    if pos + 1 < n {
                        succ[node] = order[pos + 1] as u64;
                    }
                    rank[node] = (n - 1 - pos) as u64;
                }
                Input::ListRank { succ, rank }
            }
        };
        Job { algo, n, input }
    }
}

/// What one call cost and whether its output was right.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Wall time of the algorithm call alone (load, dump and validation
    /// are outside it).
    pub wall: Duration,
    pub valid: bool,
}

fn spanned<T>(t: &mut Tracer, name: &'static str, count: usize, f: impl FnOnce() -> T) -> T {
    let id = t.begin(name);
    let out = f();
    t.end(id, count as u64);
    out
}

fn timed<T>(t: &mut Tracer, job: &Job, f: impl FnOnce() -> T) -> (T, Duration) {
    let id = t.begin(CALL_SPANS[job.algo.index()]);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    t.end(id, job.n as u64);
    (out, wall)
}

/// `true` iff `order` holds every value of `0..len` exactly once.
fn is_permutation(order: &[u64]) -> bool {
    let mut seen = vec![false; order.len()];
    order.iter().all(|&v| {
        let fresh = (v as usize) < seen.len() && !seen[v as usize];
        if fresh {
            seen[v as usize] = true;
        }
        fresh
    })
}

/// `true` iff following `successor` from node 0 returns to node 0 after
/// exactly `n` hops and not before: the walk then passed `n` distinct
/// nodes (a repeat would loop without reaching 0), so `successor` is a
/// permutation with a single cycle.
fn is_single_cycle(successor: &[u64]) -> bool {
    let n = successor.len();
    let mut at = 0usize;
    for hop in 1..=n {
        at = match successor.get(at) {
            Some(&next) if (next as usize) < n => next as usize,
            _ => return false,
        };
        if at == 0 {
            return hop == n;
        }
    }
    n == 0
}

/// Runs `job` once on `m`: load, the timed call, dump, validate.  The
/// caller owns the machine's lifetime (fresh per call, or warm and
/// released back to its base afterwards).
pub fn run<M: Machine>(job: &Job, m: &mut M, t: &mut Tracer) -> Outcome {
    let n = job.n;
    match &job.input {
        Input::SizeOnly => match job.algo {
            Algo::PermutationQrqw => {
                let (out, wall) = timed(t, job, || random_permutation_qrqw(m, n));
                let valid = spanned(t, "validate", n, || {
                    out.order.len() == n && is_permutation(&out.order)
                });
                Outcome { wall, valid }
            }
            _ => {
                let (out, wall) = timed(t, job, || random_cyclic_permutation_efficient(m, n));
                let valid = spanned(t, "validate", n, || {
                    out.successor.len() == n && is_single_cycle(&out.successor)
                });
                Outcome { wall, valid }
            }
        },
        Input::LinearCompaction { cells, occupied } => {
            let dst_size = (4 * occupied).max(4);
            let (src, dst) = spanned(t, "load", n, || {
                let src = m.alloc(n.max(1));
                m.load(src, cells);
                (src, m.alloc(dst_size))
            });
            let (out, wall) = timed(t, job, || linear_compaction(m, src, n, dst, dst_size));
            let placed = spanned(t, "dump", dst_size, || m.dump(dst, dst_size));
            let valid = spanned(t, "validate", n, || {
                let mut taken = vec![false; n];
                out.placements.len() == *occupied
                    && out.placements.iter().all(|&(item, offset)| {
                        let ok = item < n
                            && cells[item] != EMPTY
                            && !taken[item]
                            && offset < dst_size
                            && placed[offset] == item as u64;
                        if ok {
                            taken[item] = true;
                        }
                        ok
                    })
                    && placed.iter().filter(|&&v| v != EMPTY).count() == *occupied
            });
            Outcome { wall, valid }
        }
        Input::LoadBalance { loads, total } => {
            let (out, wall) = timed(t, job, || load_balance_qrqw(m, loads));
            let valid = spanned(t, "validate", n, || {
                // Every task of every origin covered exactly once: per
                // origin, the blocks sorted by start must tile 0..load.
                let mut by_origin: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
                let mut max_load = 0u64;
                for blocks in &out.assignment {
                    let mut held = 0u64;
                    for b in blocks {
                        if b.origin >= n {
                            return false;
                        }
                        by_origin[b.origin].push((b.start, b.len));
                        held += b.len;
                    }
                    max_load = max_load.max(held);
                }
                let tiled = by_origin.iter_mut().zip(loads).all(|(blocks, &load)| {
                    blocks.sort_unstable();
                    let mut next = 0u64;
                    blocks.iter().all(|&(start, len)| {
                        let ok = start == next;
                        next += len;
                        ok
                    }) && next == load
                });
                tiled
                    && max_load == out.max_final_load
                    && max_load <= 64 * (1 + total / n.max(1) as u64)
            });
            Outcome { wall, valid }
        }
        Input::MultipleCompaction { labels, counts } => {
            let (out, wall) = timed(t, job, || multiple_compaction(m, labels, counts));
            let valid = spanned(t, "validate", n, || {
                let mut cells: Vec<usize> = out.positions.clone();
                cells.sort_unstable();
                cells.dedup();
                !out.failed
                    && cells.len() == n
                    && out.positions.iter().zip(labels).all(|(&pos, &label)| {
                        let lo = out.layout.b_base + out.layout.subarray_offset[label as usize];
                        pos >= lo && pos < lo + out.layout.subarray_len[label as usize]
                    })
            });
            Outcome { wall, valid }
        }
        Input::Hashing { keys, absent } => {
            let ((hits, misses), wall) = timed(t, job, || {
                let table = QrqwHashTable::build(m, keys);
                (table.lookup_batch(m, keys), table.lookup_batch(m, absent))
            });
            let valid = spanned(t, "validate", n, || {
                hits.len() == n
                    && misses.len() == n
                    && hits.iter().all(|&h| h)
                    && misses.iter().all(|&h| !h)
            });
            Outcome { wall, valid }
        }
        Input::Sort {
            keys,
            max_key,
            sorted,
        } => {
            let (got, wall) = timed(t, job, || match max_key {
                Some(max_key) => integer_sort_crqw(m, keys, *max_key),
                None => sample_sort_qrqw(m, keys),
            });
            let valid = spanned(t, "validate", n, || got == *sorted);
            Outcome { wall, valid }
        }
        Input::FetchAdd {
            requests,
            per_counter,
        } => {
            let (base, absolute) = spanned(t, "load", n, || {
                let base = m.alloc(per_counter.len());
                let absolute: Vec<(usize, u64)> =
                    requests.iter().map(|&(c, d)| (base + c, d)).collect();
                (base, absolute)
            });
            let (olds, wall) = timed(t, job, || emulate_fetch_add_step(m, &absolute));
            let finals = spanned(t, "dump", per_counter.len(), || {
                m.dump(base, per_counter.len())
            });
            let valid = spanned(t, "validate", n, || {
                // Unit increments: the old values seen at a counter are
                // exactly 0..count in some order, and it ends at count.
                let mut first = vec![0usize; per_counter.len() + 1];
                for (c, &count) in per_counter.iter().enumerate() {
                    first[c + 1] = first[c] + count as usize;
                }
                let mut seen = vec![false; n];
                olds.len() == n
                    && requests.iter().zip(&olds).all(|(&(c, _), &old)| {
                        let ok = old < per_counter[c] && !seen[first[c] + old as usize];
                        if ok {
                            seen[first[c] + old as usize] = true;
                        }
                        ok
                    })
                    && finals
                        .iter()
                        .zip(per_counter)
                        .all(|(&got, &count)| got == count || (count == 0 && got == EMPTY))
            });
            Outcome { wall, valid }
        }
        Input::ListRank { succ, rank } => {
            let (succ_base, rank_base) = spanned(t, "load", n, || {
                let succ_base = m.alloc(n.max(1));
                let rank_base = m.alloc(n.max(1));
                m.load(succ_base, succ);
                (succ_base, rank_base)
            });
            let ((), wall) = timed(t, job, || list_rank(m, succ_base, n, rank_base));
            let got = spanned(t, "dump", n, || m.dump(rank_base, n));
            let valid = spanned(t, "validate", n, || got == *rank);
            Outcome { wall, valid }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        for algo in Algo::ALL {
            let job = Job::new(algo, 1 << 10, 7);
            assert_eq!(job, Job::new(algo, 1 << 10, 7), "{}", algo.name());
            if job.input != Input::SizeOnly {
                assert_ne!(job, Job::new(algo, 1 << 10, 8), "{}", algo.name());
            }
        }
    }

    #[test]
    fn every_algorithm_validates_on_the_simulator() {
        let mut t = Tracer::new(false);
        for algo in Algo::ALL {
            let job = Job::new(algo, 1 << 9, 3);
            let mut m = Pram::with_seed(16, 5);
            assert!(run(&job, &mut m, &mut t).valid, "{}", algo.name());
        }
    }

    #[test]
    fn validators_reject_wrong_outputs() {
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3, 1]));
        assert!(is_single_cycle(&[1, 2, 0]));
        assert!(!is_single_cycle(&[1, 0, 2]), "two cycles");
        assert!(!is_single_cycle(&[0, 2, 1]), "fixed point at 0");
    }

    #[test]
    fn quarter_sizes_apply_to_the_two_dear_algorithms_only() {
        assert_eq!(Algo::Hashing.size(4096), 1024);
        assert_eq!(Algo::SampleSortQrqw.size(4096), 1024);
        assert_eq!(Algo::ListRank.size(4096), 4096);
        for (algo, name) in Algo::ALL.iter().zip(BASKET) {
            assert_eq!(algo.name(), name);
            assert_eq!(CALL_SPANS[algo.index()], format!("core.{name}"));
        }
    }
}
