//! The backend-generic parity harness.
//!
//! Two patterns validate a `Machine` backend:
//!
//! 1. **Lockstep with the simulator** for trait-level edge shapes — tiny
//!    and odd sizes, the forced Las-Vegas fallback, raw exclusive claims,
//!    sequential steps, scan and global-OR.  Each runs through every
//!    `Lockstep<Pram, _>` pair of the backend (`tests/common/lockstep.rs`),
//!    which compares the two machines after every step.  The registry-wide
//!    sweep is in `tests/determinism.rs`.
//! 2. **Semantic validity** on the backend alone, for the algorithms that
//!    race through occupy claims: linear compaction, load balancing,
//!    multiple compaction, hashing and the sorts must pass the registry's
//!    validators (`Algorithm::run`).  A Lockstep resync makes the machine
//!    under test partly the simulator, so these never run through one.
//!
//! [`parity_suite!`] instantiates both as one `#[test]` per function for
//! each named [`Backend`].

use qrqw_bench::{Algorithm, Backend, Subject};
use qrqw_suite::algos::{
    emulate_fetch_add_step, is_cyclic, is_permutation, random_cyclic_permutation_efficient,
    random_cyclic_permutation_fast, random_permutation_dart_scan, random_permutation_qrqw,
    random_permutation_sorting_erew,
};
use qrqw_suite::prims::listrank::NIL;
use qrqw_suite::prims::{list_rank, pack, radix_sort_packed, unpack_key};
use qrqw_suite::sim::{ClaimMode, Machine, Pram, EMPTY};

use super::lockstep::{each_machine, each_pair, pairs};

// ---------------------------------------------------------------------------
// Pattern 1: lockstep with the simulator.
// ---------------------------------------------------------------------------

/// All three §5 random-permutation algorithms at tiny and odd sizes.
pub fn permutations_match_the_reference(backend: Backend) {
    for n in [1usize, 2, 77] {
        for seed in [0u64, 7, 41] {
            each_pair!(pairs(backend), seed, |m| {
                let orders = [
                    random_permutation_qrqw(&mut m, n).order,
                    random_permutation_dart_scan(&mut m, n).order,
                    random_permutation_sorting_erew(&mut m, n).order,
                ];
                assert!(orders.iter().all(|order| is_permutation(order)));
            });
        }
    }
}

/// Both cyclic-permutation generators (exclusive claims + deterministic
/// linking) at small sizes.
pub fn cyclic_permutations_match_the_reference(backend: Backend) {
    for n in [2usize, 5, 120] {
        for seed in [0u64, 9, 23] {
            each_pair!(pairs(backend), seed, |m| {
                let fast = random_cyclic_permutation_fast(&mut m, n).successor;
                let efficient = random_cyclic_permutation_efficient(&mut m, n).successor;
                assert!(is_cyclic(&fast) && is_cyclic(&efficient));
            });
        }
    }
}

/// The fully deterministic primitives on instances the registry does not
/// build: a stable packed radix sort with duplicate keys, list ranking over
/// a scrambled chain, and Fetch&Add over a small hot address set.
pub fn deterministic_prims_match_the_reference(backend: Backend) {
    let words: Vec<u64> = (0..700u64).map(|i| pack((i * 131) % 257, i)).collect();
    let mut sorted = words.clone();
    sorted.sort_by_key(|&w| unpack_key(w));
    let n = 513usize;
    let mut order: Vec<usize> = (0..n).collect();
    for i in 1..n {
        order.swap(i, (i * 7919) % (i + 1));
    }
    let mut succ = vec![NIL; n];
    for w in order.windows(2) {
        succ[w[0]] = w[1] as u64;
    }
    each_pair!(pairs(backend), 1, |m| {
        let base = m.alloc(words.len());
        m.load(base, &words);
        radix_sort_packed(&mut m, base, words.len(), 16);
        assert_eq!(m.dump(base, words.len()), sorted, "not the stable sort");
        let (sb, rb) = (m.alloc(n), m.alloc(n));
        m.load(sb, &succ);
        list_rank(&mut m, sb, n, rb);
        let ranks = m.dump(rb, n);
        assert!((0..n).all(|j| ranks[order[j]] == (n - 1 - j) as u64));
    });
    // The Fetch&Add step reaches `propagate_nonempty_forward`, whose
    // rule-3 steps a Lockstep resyncs: the old values, the cells and the
    // step count are compared between lone runs.
    let requests: Vec<(usize, u64)> = (0..200)
        .map(|i| ((i * i) % 13, (i % 7) as u64 + 1))
        .collect();
    fn run<M: Machine>(m: &mut M, requests: &[(usize, u64)]) -> (Vec<u64>, Vec<u64>, u64) {
        let old = emulate_fetch_add_step(m, requests);
        (old, m.dump(0, 13), m.steps_executed())
    }
    let want = run(&mut Pram::with_seed(16, 1), &requests);
    each_machine!(pairs(backend), 1, |pair, m| {
        assert_eq!(run(&mut m, &requests), want, "fetch&add alone on {pair:?}");
    });
}

/// An adversarial seed forces the QRQW dart thrower into its sequential
/// Las-Vegas clean-up at tiny `n` (2974 is the only one below 3000); the
/// backend must walk the identical `seq_step` path.
pub fn forced_las_vegas_fallback_matches_the_reference(backend: Backend) {
    each_pair!(pairs(backend), 2974, |m| {
        let out = random_permutation_qrqw(&mut m, 4);
        assert!(out.fallback_used, "seed 2974 no longer forces the fallback");
        assert!(is_permutation(&out.order));
    });
}

/// The claim counters are compared at every claim — and the paper's core
/// §5 effect (fresh geometric subarrays collide less than re-throwing into
/// one arena) must show up in them.
pub fn claim_counters_are_in_lockstep_with_the_reference(backend: Backend) {
    each_pair!(pairs(backend), 3, |m| {
        let _ = random_permutation_qrqw(&mut m, 2048);
        let q = m.cost_report().contended_claims;
        let _ = random_permutation_dart_scan(&mut m, 2048);
        let s = m.cost_report().contended_claims - q;
        assert!(q < s, "fresh subarrays must collide less ({q} vs {s})");
    });
}

/// Raw exclusive-claim attempts: same outcomes, same memory image.
pub fn exclusive_claims_agree_cell_by_cell(backend: Backend) {
    let attempts: Vec<(u64, usize)> = (0..200u64)
        .map(|i| (i + 1, (i as usize * 7) % 64))
        .collect();
    each_pair!(pairs(backend), 0, |m| {
        let _ = m.claim(&attempts, ClaimMode::Exclusive);
        // contested cells really are restored
        assert!(m.dump(0, 64).contains(&EMPTY));
    });
}

/// The sequential-step contract: read-after-own-write returns the fresh
/// value, and the random stream matches processor 0's.
pub fn seq_step_sees_same_step_writes(backend: Backend) {
    each_pair!(pairs(backend), 44, |m| {
        let base = m.alloc(4);
        let observed = m.seq_step(|ctx| {
            ctx.write(base, 1);
            let v = ctx.read(base);
            ctx.write(base + 1, v + 1);
            ctx.read(base + 1)
        });
        assert_eq!(observed, 2, "seq_step must see its own writes");
        let _ = m.seq_step(|ctx| ctx.random_index(1 << 20));
    });
}

/// Backend-contract rule 3's arbitration: the lowest processor id wins a
/// cell, and among that processor's writes to it the last in program order
/// lands — what a native thread does, and what the model backends' walk
/// delivers.  A processor re-writing its own cell is not contention.
pub fn repeated_writes_by_one_processor_land_in_program_order(backend: Backend) {
    each_machine!(pairs(backend), 0, |pair, m| {
        let b = m.alloc(64);
        m.par_for(64, |p, ctx| {
            ctx.write(b + p, 7);
            ctx.write(b + p, 3);
            ctx.write(b + p, 5);
        });
        assert_eq!(m.dump(b, 64), vec![5; 64], "{pair:?}");
        if let Some(contention) = m.cost_report().max_contention {
            assert_eq!(contention, 1, "own re-writes are not write contention");
        }
    });
}

/// The built-in scan and global-OR primitives.
pub fn scan_and_global_or_match_the_reference(backend: Backend) {
    let vals: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 5).collect();
    each_pair!(pairs(backend), 0, |m| {
        m.ensure_memory(vals.len());
        m.load(0, &vals);
        assert_eq!(m.scan_step(0, vals.len()), vals.iter().sum::<u64>());
        assert!(m.global_or_step(0, vals.len()));
    });
}

/// Same seed, same output, run after run — and different seeds differ —
/// on the backend's pair with the most threads.
pub fn outputs_are_seed_stable(backend: Backend) {
    for n in [256usize, 3000] {
        let run = |seed: u64| {
            let mut order = Vec::new();
            each_machine!([*pairs(backend).last().unwrap()], seed, |_pair, m| {
                order = random_permutation_qrqw(&mut m, n).order;
            });
            order
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}

// ---------------------------------------------------------------------------
// Pattern 2: semantic validity for the occupy-claim algorithms.
// ---------------------------------------------------------------------------

/// Runs each of `members` at size `n` on a fresh `backend` machine seeded
/// `seed` and requires the registry's own validator (`Algorithm::run_on`)
/// to pass.
fn validates(backend: Backend, members: &[Algorithm], n: usize, seed: u64) {
    for algo in members {
        let valid = Subject::Algorithm(*algo).run(backend, n, seed).valid;
        assert!(valid, "{} invalid at n={n}, seed {seed}", algo.name());
    }
}

/// Linear compaction places every item injectively, whatever occupy-claim
/// arbitration the backend uses.
pub fn linear_compaction_is_valid(backend: Backend) {
    validates(backend, &[Algorithm::LinearCompaction], 1024, 11);
}

/// Load balancing covers the load vector exactly and respects the §3 final
/// load bound, on both the QRQW and EREW routes.
pub fn load_balancing_is_valid(backend: Backend) {
    validates(backend, &[Algorithm::LoadBalanceQrqw], 512, 4);
    validates(backend, &[Algorithm::LoadBalanceErew], 512, 5);
}

/// Multiple compaction puts every item in a private cell of its own
/// label's subarray.
pub fn multiple_compaction_is_valid(backend: Backend) {
    validates(backend, &[Algorithm::MultipleCompaction], 900, 5);
}

/// The hash table answers membership exactly: every inserted key found,
/// every probe rejected.
pub fn hashing_answers_membership_exactly(backend: Backend) {
    for (n, seed) in [(40usize, 3u64), (300, 7), (900, 1)] {
        validates(backend, &[Algorithm::Hashing], n, seed);
    }
}

/// The §7 sorts' placement phases race through occupy claims, but a
/// multiset has exactly one sorted order, so the outputs must equal the
/// std-sort reference bit for bit.
pub fn sorts_produce_the_one_sorted_output(backend: Backend) {
    use Algorithm::*;
    let sorts = [
        SampleSortQrqw,
        SampleSortCrqw,
        DistributiveSort,
        IntegerSort,
    ];
    validates(backend, &sorts, 1200, 2);
}

/// Instantiates the whole parity battery once per `name: backend` entry:
/// one `#[test]` per pattern function, in a module named `name`.  It also
/// records the entries' backends in `SUITE_BACKENDS`, which the drift guard
/// pins to `Backend::ALL`.
macro_rules! parity_suite {
    ($($name:ident: $backend:expr),* $(,)?) => {
        /// The backends a parity suite is instantiated for.
        const SUITE_BACKENDS: &[Backend] = &[$($backend),*];
        $(crate::common::parity::parity_suite!(@suite $name, $backend);)*
    };
    (@suite $name:ident, $backend:expr) => {
        mod $name {
            use super::*;

            /// The suite is recorded for the drift guard, and the machines
            /// it runs are the backend it is named for.
            #[test]
            fn suite_instantiation_is_recorded_for_the_drift_guard() {
                use crate::common::lockstep::{each_machine, pairs};
                assert!(super::SUITE_BACKENDS.contains(&$backend));
                each_machine!(pairs($backend), 0, |_pair, m| {
                    assert_eq!(m.backend(), $backend.name());
                });
            }

            crate::common::parity::parity_suite!(@tests $backend;
                permutations_match_the_reference,
                cyclic_permutations_match_the_reference,
                deterministic_prims_match_the_reference,
                forced_las_vegas_fallback_matches_the_reference,
                claim_counters_are_in_lockstep_with_the_reference,
                exclusive_claims_agree_cell_by_cell,
                seq_step_sees_same_step_writes,
                scan_and_global_or_match_the_reference,
                repeated_writes_by_one_processor_land_in_program_order,
                outputs_are_seed_stable,
                linear_compaction_is_valid,
                load_balancing_is_valid,
                multiple_compaction_is_valid,
                hashing_answers_membership_exactly,
                sorts_produce_the_one_sorted_output);
        }
    };
    (@tests $arg:expr; $($test:ident),*) => {
        $(
            #[test]
            fn $test() {
                crate::common::parity::$test($arg);
            }
        )*
    };
}
pub(crate) use parity_suite;
