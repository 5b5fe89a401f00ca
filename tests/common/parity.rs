//! The backend-generic parity harness.
//!
//! PR 2/PR 3 established a two-pattern recipe for validating a `Machine`
//! backend, originally hand-instantiated for the native machine in
//! `tests/backends.rs`:
//!
//! 1. **Bit-identical output** for every algorithm built only on the
//!    deterministic facilities of the backend contract — shared
//!    per-`(seed, step, proc)` random streams, lockstep step counters, and
//!    deterministic *exclusive* claims: the three random permutations, both
//!    cyclic permutations, list ranking, the stable/radix sorts and
//!    Fetch&Add emulation must match the simulator reference exactly.
//! 2. **Semantic validity** for algorithms that race through *occupy*-mode
//!    claims, whose winner is backend-defined: linear compaction, load
//!    balancing, multiple compaction, hashing builds, and the sorts'
//!    placement phases are checked against their semantic contract on the
//!    backend itself (for the sorts the *output* is still bit-identical —
//!    a multiset has one sorted order).
//!
//! This module is those two patterns as generic functions over
//! `M: Machine`, plus the [`parity_suite!`] macro that instantiates the
//! whole battery as one `#[test]` per pattern for a named backend.  A
//! backend is a constructor `Fn(mem_size, seed) -> M`, so adding one is one
//! `parity_suite!(name, constructor)` line (plus its entry in the
//! instantiation list the drift-guard test checks).

use std::collections::HashSet;

use qrqw_suite::algos::{
    emulate_fetch_add_step, is_cyclic, is_permutation, load_balance_erew, load_balance_qrqw,
    multiple_compaction, random_cyclic_permutation_efficient, random_cyclic_permutation_fast,
    random_permutation_dart_scan, random_permutation_qrqw, random_permutation_sorting_erew,
    sample_sort_crqw, sample_sort_qrqw, sort_uniform_keys, McResult, QrqwHashTable,
};
use qrqw_suite::prims::listrank::NIL;
use qrqw_suite::prims::{linear_compaction, list_rank, pack, radix_sort_packed, unpack_key};
use qrqw_suite::sim::{ClaimMode, Machine, Pram, EMPTY};

/// Deterministic distinct keys below `2^31 − 1` — the same generator the
/// `Algorithm` registry validators use, so the parity tests and the
/// harness exercise identical workloads.
pub fn scattered_keys(n: usize, offset: usize) -> Vec<u64> {
    qrqw_bench::Algorithm::scattered_keys(n, offset)
}

// ---------------------------------------------------------------------------
// Pattern 1: bit-identical output against the simulator reference.
// ---------------------------------------------------------------------------

/// All three §5 random-permutation algorithms produce the simulator's exact
/// output on the backend under test, over a size/seed sweep.
pub fn permutations_match_the_reference<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    for n in [1usize, 2, 77, 500] {
        for seed in [0u64, 7, 41] {
            let mut reference = Pram::with_seed(16, seed);
            let mut m = mk(16, seed);
            let a = random_permutation_qrqw(&mut reference, n);
            let b = random_permutation_qrqw(&mut m, n);
            assert!(is_permutation(&a.order));
            assert_eq!(
                a.order, b.order,
                "qrqw dart thrower diverged (n={n}, seed={seed})"
            );
            assert_eq!(a.rounds, b.rounds);

            let mut reference = Pram::with_seed(16, seed);
            let mut m = mk(16, seed);
            let a = random_permutation_dart_scan(&mut reference, n);
            let b = random_permutation_dart_scan(&mut m, n);
            assert!(is_permutation(&a.order));
            assert_eq!(a.order, b.order, "dart+scan diverged (n={n}, seed={seed})");

            let mut reference = Pram::with_seed(16, seed);
            let mut m = mk(16, seed);
            let a = random_permutation_sorting_erew(&mut reference, n);
            let b = random_permutation_sorting_erew(&mut m, n);
            assert!(is_permutation(&a.order));
            assert_eq!(
                a.order, b.order,
                "sorting baseline diverged (n={n}, seed={seed})"
            );
        }
    }
}

/// Both cyclic-permutation generators (exclusive claims + deterministic
/// linking) match the reference bit for bit, including the round count and
/// the step/claim counters.
pub fn cyclic_permutations_match_the_reference<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    for n in [2usize, 5, 120, 700] {
        for seed in [0u64, 9, 23] {
            let mut reference = Pram::with_seed(16, seed);
            let mut m = mk(16, seed);
            let a = random_cyclic_permutation_fast(&mut reference, n);
            let b = random_cyclic_permutation_fast(&mut m, n);
            assert!(is_permutation(&a.successor) && is_cyclic(&a.successor));
            assert_eq!(
                a.successor, b.successor,
                "fast diverged (n={n}, seed={seed})"
            );
            assert_eq!(a.rounds, b.rounds);
            let (rs, rm) = (reference.cost_report(), m.cost_report());
            assert_eq!(rs.steps, rm.steps, "step counters out of lockstep");
            assert_eq!(rs.claim_attempts, rm.claim_attempts);
            assert_eq!(rs.contended_claims, rm.contended_claims);

            let mut reference = Pram::with_seed(16, seed);
            let mut m = mk(16, seed);
            let a = random_cyclic_permutation_efficient(&mut reference, n);
            let b = random_cyclic_permutation_efficient(&mut m, n);
            assert!(is_cyclic(&a.successor));
            assert_eq!(
                a.successor, b.successor,
                "efficient diverged (n={n}, seed={seed})"
            );
            assert_eq!(reference.cost_report().steps, m.cost_report().steps);
        }
    }
}

/// The fully deterministic primitives — stable packed radix sort, list
/// ranking, Fetch&Add emulation — leave identical memory images on the
/// backend under test and the reference.
pub fn deterministic_prims_match_the_reference<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    // Stable radix sort of packed (key, value) words.
    let n = 700usize;
    let words: Vec<u64> = (0..n as u64).map(|i| pack((i * 131) % 257, i)).collect();
    let mut reference = Pram::with_seed(16, 0);
    let base = reference.alloc(n);
    Machine::load(&mut reference, base, &words);
    radix_sort_packed(&mut reference, base, n, 16);
    let a = Machine::dump(&reference, base, n);

    let mut m = mk(16, 0);
    let base = m.alloc(n);
    m.load(base, &words);
    radix_sort_packed(&mut m, base, n, 16);
    let b = m.dump(base, n);

    assert_eq!(a, b, "radix sort diverged");
    let mut expect = words;
    expect.sort_by_key(|&w| unpack_key(w));
    assert_eq!(a, expect, "radix sort is not the stable sort of the input");
    assert_eq!(reference.steps_executed(), m.steps_executed());

    // List ranking over a scrambled chain.
    let n = 513usize;
    let order: Vec<usize> = {
        let mut v: Vec<usize> = (0..n).collect();
        for i in 1..n {
            v.swap(i, (i * 7919) % (i + 1));
        }
        v
    };
    let mut succ = vec![NIL; n];
    for w in order.windows(2) {
        succ[w[0]] = w[1] as u64;
    }
    let mut reference = Pram::with_seed(16, 0);
    let sb = reference.alloc(n);
    let rb = reference.alloc(n);
    Machine::load(&mut reference, sb, &succ);
    list_rank(&mut reference, sb, n, rb);
    let a = Machine::dump(&reference, rb, n);

    let mut m = mk(16, 0);
    let sb = m.alloc(n);
    let rb = m.alloc(n);
    m.load(sb, &succ);
    list_rank(&mut m, sb, n, rb);
    let b = m.dump(rb, n);

    assert_eq!(a, b, "list ranking diverged");
    for (j, &node) in order.iter().enumerate() {
        assert_eq!(a[node], (n - 1 - j) as u64);
    }

    // One emulated Fetch&Add step: the deterministic stable-sort reduction
    // makes even the per-request old values exact.
    let requests: Vec<(usize, u64)> = (0..200)
        .map(|i| ((i * i) % 13, (i % 7) as u64 + 1))
        .collect();
    let mut reference = Pram::with_seed(64, 1);
    let a = emulate_fetch_add_step(&mut reference, &requests);
    let mut m = mk(64, 1);
    let b = emulate_fetch_add_step(&mut m, &requests);
    assert_eq!(a, b, "fetch&add old values diverged");
    for addr in 0..13 {
        assert_eq!(Machine::peek(&reference, addr), m.peek(addr), "cell {addr}");
    }
    assert_eq!(reference.cost_report().steps, m.cost_report().steps);
}

/// An adversarial seed forces the QRQW dart thrower into its sequential
/// Las-Vegas clean-up at tiny `n`; the backend must walk the identical
/// `seq_step` path and emit the identical permutation.
pub fn forced_las_vegas_fallback_matches_the_reference<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    let n = 4usize;
    let seed = (0..3000u64)
        .find(|&seed| {
            let mut pram = Pram::with_seed(16, seed);
            random_permutation_qrqw(&mut pram, n).fallback_used
        })
        .expect(
            "an adversarial seed below 3000 forces the fallback (2974 did at the time of writing)",
        );

    let mut reference = Pram::with_seed(16, seed);
    let mut m = mk(16, seed);
    let a = random_permutation_qrqw(&mut reference, n);
    let b = random_permutation_qrqw(&mut m, n);
    assert!(
        a.fallback_used && b.fallback_used,
        "both must take the clean-up path"
    );
    assert!(is_permutation(&a.order));
    assert_eq!(a.order, b.order, "fallback output diverged (seed={seed})");
    assert_eq!(reference.cost_report().steps, m.cost_report().steps);
}

/// Exclusive-claim contention is deterministic, so the backend's contention
/// measure must equal the simulator's collision count — and the paper's
/// core §5 effect (fresh geometric subarrays collide less than re-throwing
/// into one arena) must show up in it.
pub fn claim_counters_are_in_lockstep_with_the_reference<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    let n = 2048usize;
    let mut reference = Pram::with_seed(16, 3);
    let mut m = mk(16, 3);
    let _ = random_permutation_qrqw(&mut reference, n);
    let _ = random_permutation_qrqw(&mut m, n);
    let rs = reference.cost_report();
    let rm = m.cost_report();
    assert_eq!(rs.claim_attempts, rm.claim_attempts);
    assert_eq!(rs.contended_claims, rm.contended_claims);
    assert_eq!(rs.steps, rm.steps, "step counters must advance in lockstep");

    let mut scan = mk(16, 3);
    let _ = random_permutation_dart_scan(&mut scan, n);
    let q = rm.contended_claims;
    let s = scan.cost_report().contended_claims;
    assert!(
        q < s,
        "larger fresh subarrays must reduce claim contention ({q} vs {s})"
    );
}

/// Direct trait-level parity: the same exclusive-claim attempts produce the
/// same outcomes and the same memory image as the reference.
pub fn exclusive_claims_agree_cell_by_cell<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    let attempts: Vec<(u64, usize)> = (0..200u64)
        .map(|i| (i + 1, (i as usize * 7) % 64))
        .collect();
    let mut reference = Pram::with_seed(16, 0);
    let mut m = mk(16, 0);
    let a = Machine::claim(&mut reference, &attempts, ClaimMode::Exclusive);
    let b = m.claim(&attempts, ClaimMode::Exclusive);
    assert_eq!(a, b);
    for addr in 0..64 {
        assert_eq!(Machine::peek(&reference, addr), m.peek(addr), "cell {addr}");
    }
    // contested cells really are restored
    assert!((0..64).any(|addr| m.peek(addr) == EMPTY));
}

/// The sequential-step contract: read-after-own-write returns the fresh
/// value, the step index advances by one, and the random stream matches
/// processor 0's.
pub fn seq_step_sees_same_step_writes<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    fn drive<M: Machine>(m: &mut M) -> (u64, u64, usize) {
        let base = m.alloc(4);
        let observed = m.seq_step(|ctx| {
            ctx.write(base, 1);
            let v = ctx.read(base);
            ctx.write(base + 1, v + 1);
            ctx.read(base + 1)
        });
        let draw = m.seq_step(|ctx| ctx.random_index(1 << 20));
        (observed, m.steps_executed(), draw)
    }
    let mut reference = Pram::with_seed(16, 44);
    let mut m = mk(16, 44);
    let a = drive(&mut reference);
    let b = drive(&mut m);
    assert_eq!(a.0, 2, "seq_step must see its own writes");
    assert_eq!(a, b);
}

/// Backend-contract rule 3's arbitration: the lowest processor id wins a
/// cell, and among that processor's writes to it the last in program order
/// lands — what a native thread does, and what the model backends' walk
/// delivers.  A processor re-writing its own cell is not contention.
pub fn repeated_writes_by_one_processor_land_in_program_order<M: Machine>(
    mk: impl Fn(usize, u64) -> M,
) {
    let mut m = mk(16, 0);
    let b = m.alloc(64);
    m.par_for(64, |p, ctx| {
        ctx.write(b + p, 7);
        ctx.write(b + p, 3);
        ctx.write(b + p, 5);
    });
    assert_eq!(m.dump(b, 64), vec![5; 64], "{}", m.backend());
    if let Some(contention) = m.cost_report().max_contention {
        assert_eq!(contention, 1, "own re-writes are not write contention");
    }
}

/// The built-in scan and global-OR primitives return the reference's
/// results and leave the same memory behind.
pub fn scan_and_global_or_match_the_reference<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    let vals: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 5).collect();
    let mut reference = Pram::with_seed(16, 0);
    let mut m = mk(16, 0);
    Machine::ensure_memory(&mut reference, vals.len());
    m.ensure_memory(vals.len());
    Machine::load(&mut reference, 0, &vals);
    m.load(0, &vals);
    assert_eq!(
        Machine::scan_step(&mut reference, 0, vals.len()),
        m.scan_step(0, vals.len())
    );
    assert_eq!(
        Machine::dump(&reference, 0, vals.len()),
        m.dump(0, vals.len())
    );
    assert_eq!(
        Machine::global_or_step(&mut reference, 0, vals.len()),
        m.global_or_step(0, vals.len())
    );
}

/// Same seed, same output, run after run — and different seeds differ.
pub fn outputs_are_seed_stable<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    for n in [256usize, 3000] {
        let run = |seed: u64| {
            let mut m = mk(16, seed);
            random_permutation_qrqw(&mut m, n).order
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}

// ---------------------------------------------------------------------------
// Pattern 2: semantic validity for the occupy-claim algorithms.
// ---------------------------------------------------------------------------

/// Linear compaction places every item injectively, whatever occupy-claim
/// arbitration the backend uses.
pub fn linear_compaction_is_valid<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    let n = 1024usize;
    let k = n / 2;
    let mut m = mk(16, 11);
    let src = m.alloc(n);
    for i in (0..n).step_by(2) {
        m.poke(src + i, i as u64 + 1);
    }
    let dst = m.alloc(4 * k);
    let placements = linear_compaction(&mut m, src, n, dst, 4 * k).placements;
    assert_eq!(placements.len(), k);
    let sources: HashSet<usize> = placements.iter().map(|&(s, _)| s).collect();
    assert_eq!(sources, (0..n).step_by(2).collect::<HashSet<_>>());
    let dests: HashSet<usize> = placements.iter().map(|&(_, d)| d).collect();
    assert_eq!(dests.len(), k, "destinations must be distinct");
}

/// Load balancing covers the load vector exactly and respects the §3 final
/// load bound, on both the QRQW and EREW routes.
pub fn load_balancing_is_valid<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    let n = 512usize;
    let loads: Vec<u64> = (0..n)
        .map(|i| if i % 64 == 0 { 128 } else { (i % 2) as u64 })
        .collect();
    let total: u64 = loads.iter().sum();
    let bound = 64 * (1 + total / n as u64);

    let mut m = mk(16, 4);
    let r = load_balance_qrqw(&mut m, &loads);
    assert!(r.covers_exactly(&loads));
    assert!(r.max_final_load <= bound, "final load {}", r.max_final_load);

    let mut m = mk(16, 5);
    let r = load_balance_erew(&mut m, &loads);
    assert!(r.covers_exactly(&loads));
}

/// Multiple compaction puts every item in a private cell of its own
/// label's subarray.
pub fn multiple_compaction_is_valid<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    let n = 900usize;
    let num_labels = 24usize;
    let labels: Vec<u64> = (0..n)
        .map(|i| {
            if i % 3 == 0 {
                0
            } else {
                (i % num_labels) as u64
            }
        })
        .collect();
    let mut counts = vec![0u64; num_labels];
    for &l in &labels {
        counts[l as usize] += 1;
    }

    fn check(res: &McResult, labels: &[u64]) {
        assert!(!res.failed, "run reported failure");
        let mut seen = HashSet::new();
        for (item, &pos) in res.positions.iter().enumerate() {
            assert_ne!(pos, usize::MAX, "item {item} unplaced");
            assert!(seen.insert(pos), "position {pos} reused");
            let label = labels[item] as usize;
            let lo = res.layout.b_base + res.layout.subarray_offset[label];
            let hi = lo + res.layout.subarray_len[label];
            assert!(pos >= lo && pos < hi, "item {item} outside its subarray");
        }
    }

    let mut m = mk(16, 5);
    check(&multiple_compaction(&mut m, &labels, &counts), &labels);
}

/// The hash table answers membership exactly: every inserted key found,
/// every probe rejected.
pub fn hashing_answers_membership_exactly<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    for (n, seed) in [(40usize, 3u64), (300, 7), (900, 1)] {
        let keys = scattered_keys(n, 0);
        let probes = scattered_keys(n, n);
        let mut m = mk(16, seed);
        let table = QrqwHashTable::build(&mut m, &keys);
        assert!(table.lookup_batch(&mut m, &keys).iter().all(|&h| h));
        assert!(table.lookup_batch(&mut m, &probes).iter().all(|&h| !h));
    }
}

/// The §7 sorts' placement phases race through occupy claims, but a
/// multiset has exactly one sorted order, so the outputs must equal the
/// std-sort reference bit for bit.
pub fn sorts_produce_the_one_sorted_output<M: Machine>(mk: impl Fn(usize, u64) -> M) {
    let n = 1200usize;
    let keys = scattered_keys(n, 0);
    let mut expect = keys.clone();
    expect.sort_unstable();

    let mut m = mk(16, 2);
    assert_eq!(sample_sort_qrqw(&mut m, &keys), expect, "sample-sort-qrqw");
    let mut m = mk(16, 3);
    assert_eq!(sample_sort_crqw(&mut m, &keys), expect, "sample-sort-crqw");
    let mut m = mk(16, 4);
    assert_eq!(
        sort_uniform_keys(&mut m, &keys),
        expect,
        "distributive sort"
    );

    let max_key = (n as u64) * 8;
    let small: Vec<u64> = keys.iter().map(|&k| k % max_key).collect();
    let mut expect_small = small.clone();
    expect_small.sort_unstable();
    let mut m = mk(16, 5);
    assert_eq!(
        qrqw_suite::algos::integer_sort_crqw(&mut m, &small, max_key),
        expect_small,
        "integer sort"
    );
}

/// Instantiates the whole parity battery for one backend: one `#[test]`
/// per pattern function, in a module named after the backend.  The first
/// test pins the instantiation to the drift-guard list at the crate root
/// (`PARITY_SUITE_BACKENDS`), so a backend registered in `qrqw-bench`
/// without a `parity_suite!` line fails the build.
macro_rules! parity_suite {
    ($backend:ident, $mk:expr) => {
        mod $backend {
            use qrqw_suite::sim::Machine;

            #[test]
            fn suite_instantiation_is_recorded_for_the_drift_guard() {
                let m = ($mk)(1, 0);
                assert!(
                    crate::PARITY_SUITE_BACKENDS.contains(&m.backend()),
                    "backend {:?} runs a parity suite but is missing from PARITY_SUITE_BACKENDS",
                    m.backend()
                );
            }

            #[test]
            fn permutations_match_the_reference() {
                crate::common::parity::permutations_match_the_reference($mk);
            }

            #[test]
            fn cyclic_permutations_match_the_reference() {
                crate::common::parity::cyclic_permutations_match_the_reference($mk);
            }

            #[test]
            fn deterministic_prims_match_the_reference() {
                crate::common::parity::deterministic_prims_match_the_reference($mk);
            }

            #[test]
            fn forced_las_vegas_fallback_matches_the_reference() {
                crate::common::parity::forced_las_vegas_fallback_matches_the_reference($mk);
            }

            #[test]
            fn claim_counters_are_in_lockstep_with_the_reference() {
                crate::common::parity::claim_counters_are_in_lockstep_with_the_reference($mk);
            }

            #[test]
            fn exclusive_claims_agree_cell_by_cell() {
                crate::common::parity::exclusive_claims_agree_cell_by_cell($mk);
            }

            #[test]
            fn seq_step_sees_same_step_writes() {
                crate::common::parity::seq_step_sees_same_step_writes($mk);
            }

            #[test]
            fn repeated_writes_by_one_processor_land_in_program_order() {
                crate::common::parity::repeated_writes_by_one_processor_land_in_program_order($mk);
            }

            #[test]
            fn scan_and_global_or_match_the_reference() {
                crate::common::parity::scan_and_global_or_match_the_reference($mk);
            }

            #[test]
            fn outputs_are_seed_stable() {
                crate::common::parity::outputs_are_seed_stable($mk);
            }

            #[test]
            fn linear_compaction_is_valid() {
                crate::common::parity::linear_compaction_is_valid($mk);
            }

            #[test]
            fn load_balancing_is_valid() {
                crate::common::parity::load_balancing_is_valid($mk);
            }

            #[test]
            fn multiple_compaction_is_valid() {
                crate::common::parity::multiple_compaction_is_valid($mk);
            }

            #[test]
            fn hashing_answers_membership_exactly() {
                crate::common::parity::hashing_answers_membership_exactly($mk);
            }

            #[test]
            fn sorts_produce_the_one_sorted_output() {
                crate::common::parity::sorts_produce_the_one_sorted_output($mk);
            }
        }
    };
}
pub(crate) use parity_suite;
