//! The parity suite: each clause of the determinism contract
//! (ARCHITECTURE.md) is one function below, which `parity_suite!` turns
//! into one `#[test]` per registered backend, run on that backend's
//! Lockstep pairs (`tests/common/lockstep.rs`).  Together the instances
//! cover every pair of `pairs_of(Backend::ALL)`.
//!
//! Each asserts what every machine returns directly, and goes through
//! `Lockstep<Pram, _>` only where a step-by-step comparison adds
//! something, since Lockstep compares `B`'s ops and memory but not the
//! values its `par_map` returns.  The machine calls are rows of the
//! machine-call table and the registry members are swept in
//! `tests/determinism.rs`.  Adding a backend to `qrqw_bench::Backend::ALL`
//! fails the build until `lockstep::pairs` gives it pairs, and fails the
//! drift guard below until it has a `parity_suite!` entry here.

mod common;

use common::lockstep::{each_machine, each_pair, pairs_of};
use qrqw_bench::Backend;
use qrqw_suite::algos::{
    is_cyclic, is_permutation, random_cyclic_permutation_efficient, random_cyclic_permutation_fast,
    random_permutation_dart_scan, random_permutation_qrqw, random_permutation_sorting_erew,
};
use qrqw_suite::sim::{Machine, MachineProc, Pram, EMPTY};

/// Clause 5: a sequential step's reads see its own same-step writes, and
/// it advances the step index by one and draws processor 0's stream, as a
/// one-processor parallel step at the same index does on the simulator.
fn seq_step_sees_same_step_writes(backend: Backend) {
    let draws = |ctx: &mut dyn MachineProc| [ctx.random_index(1 << 20), ctx.random_index(1 << 20)];
    let mut reference = Pram::with_seed(16, 44);
    reference.par_for(1, |_, _| {});
    let want = reference.par_map(1, |_, ctx| draws(ctx))[0];
    each_machine!(pairs_of([backend]), 44, |pair, m| {
        let base = m.alloc(4);
        let observed = m.seq_step(|ctx| {
            ctx.write(base, 41);
            let fresh = ctx.read(base);
            ctx.write(base, fresh + 1);
            ctx.read(base)
        });
        let after = (observed, m.peek(base), m.steps_executed());
        assert_eq!(after, (42, 42, 1), "{pair:?}: (read, cell, steps)");
        let drawn = m.seq_step(draws);
        assert_eq!((drawn, m.steps_executed()), (want, 2), "{pair:?}: draws");
    });
}

/// `par_map` returns one value per processor, in processor order, and
/// advances the step index by one.  5000 processors is past the pool's
/// 2048-item inline cutoff, so the pooled pairs return through chunks.
fn par_map_returns_in_processor_order_and_advances_one_step(backend: Backend) {
    let procs = 5000;
    each_machine!(pairs_of([backend]), 0, |pair, m| {
        let base = m.alloc(procs);
        let out = m.par_map(procs, |p, ctx| {
            ctx.write(base + p, p as u64);
            2 * p
        });
        let misplaced = (0..procs).find(|&p| out.get(p) != Some(&(2 * p)));
        assert_eq!((out.len(), misplaced), (procs, None), "{pair:?}: output");
        assert_eq!(m.steps_executed(), 1, "{pair:?}: steps");
        let cells = m.dump(base, procs);
        assert!((0..procs).all(|p| cells[p] == p as u64), "{pair:?}: cells");
    });
}

/// Clause 6, second half: among one processor's writes to its own cell,
/// the last in program order lands, and re-writing a cell is not
/// contention.  (The first half, lowest-id arbitration of a write race, is
/// a promise only the model makes: a race breaks rule 3.)
fn repeated_writes_by_one_processor_land_in_program_order(backend: Backend) {
    let procs = 3000;
    each_machine!(pairs_of([backend]), 0, |pair, m| {
        let base = m.alloc(procs);
        m.par_for(procs, |p, ctx| {
            ctx.write(base + p, 7);
            ctx.write(base + p, 3);
            ctx.write(base + p, 5);
        });
        assert!(m.dump(base, procs).iter().all(|&v| v == 5), "{pair:?}");
        if let Some(contention) = m.cost_report().max_contention {
            assert_eq!(contention, 1, "{pair:?}: own re-writes are not contention");
        }
    });
}

/// Allocation is a stack whose cells come back `EMPTY`, and
/// `ensure_memory` moves its top.
fn alloc_and_release_behave_like_a_stack(backend: Backend) {
    each_machine!(pairs_of([backend]), 0, |pair, m| {
        let a = m.alloc(4);
        let b = m.alloc(2);
        assert_eq!((a, b, m.heap_top()), (16, 20, 22), "{pair:?}");
        m.load(b, &[1, 2]);
        m.release_to(b);
        let c = m.alloc(3);
        assert_eq!(c, 20, "{pair:?}");
        assert_eq!(m.dump(c, 3), vec![EMPTY; 3], "{pair:?}: reused cells");
        m.release_to(a);
        assert_eq!(m.heap_top(), 16, "{pair:?}");
        m.ensure_memory(32);
        assert_eq!(m.alloc(1), 32, "{pair:?}");
    });
}

/// Same seed, same output, run after run, and another seed differs: a
/// random permutation at an inline size and at a pooled one.
fn outputs_are_seed_stable(backend: Backend) {
    for pair in pairs_of([backend]) {
        for n in [256usize, 3000] {
            let run = |seed: u64| {
                let mut order = Vec::new();
                each_machine!([pair], seed, |_pair, m| {
                    order = random_permutation_qrqw(&mut m, n).order;
                });
                order
            };
            let first = run(5);
            assert_eq!(run(5), first, "{pair:?} n={n}");
            assert_ne!(run(6), first, "{pair:?} n={n}: seeds 5 and 6");
        }
    }
}

/// Edge shapes step by step against the simulator: the three §5 random
/// permutations at tiny and odd sizes.
fn permutations_match_the_reference(backend: Backend) {
    for n in [1usize, 2, 77] {
        for seed in [0u64, 7, 41] {
            each_pair!(pairs_of([backend]), seed, |m| {
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
/// linking) at small sizes, step by step against the simulator.
fn cyclic_permutations_match_the_reference(backend: Backend) {
    for n in [2usize, 5, 120] {
        for seed in [0u64, 9, 23] {
            each_pair!(pairs_of([backend]), seed, |m| {
                let fast = random_cyclic_permutation_fast(&mut m, n).successor;
                let efficient = random_cyclic_permutation_efficient(&mut m, n).successor;
                assert!(is_cyclic(&fast) && is_cyclic(&efficient));
            });
        }
    }
}

/// An adversarial seed forces the QRQW dart thrower into its sequential
/// Las-Vegas clean-up at tiny `n` (2974 is the only one below 3000); the
/// backend must walk the identical `seq_step` path.
fn forced_las_vegas_fallback_matches_the_reference(backend: Backend) {
    each_pair!(pairs_of([backend]), 2974, |m| {
        let out = random_permutation_qrqw(&mut m, 4);
        assert!(out.fallback_used, "seed 2974 no longer forces the fallback");
        assert!(is_permutation(&out.order));
    });
}

/// Instantiates every clause once per `name: backend` entry: one `#[test]`
/// per clause function, in a module named `name`.  It also records the
/// entries' backends in `SUITE_BACKENDS`, which the drift guard pins to
/// `Backend::ALL`.
macro_rules! parity_suite {
    ($($name:ident: $backend:expr),* $(,)?) => {
        /// The backends a parity suite is instantiated for.
        const SUITE_BACKENDS: &[Backend] = &[$($backend),*];
        $(parity_suite!(@suite $name, $backend);)*
    };
    (@suite $name:ident, $backend:expr) => {
        mod $name {
            use super::*;

            /// The suite is recorded for the drift guard, and every pair
            /// it runs builds the backend it is named for.
            #[test]
            fn suite_instantiation_is_recorded_for_the_drift_guard() {
                assert!(SUITE_BACKENDS.contains(&$backend));
                each_machine!(pairs_of([$backend]), 0, |pair, m| {
                    assert_eq!(m.backend(), $backend.name(), "{pair:?}");
                });
            }

            parity_suite!(@tests $backend;
                seq_step_sees_same_step_writes,
                par_map_returns_in_processor_order_and_advances_one_step,
                repeated_writes_by_one_processor_land_in_program_order,
                alloc_and_release_behave_like_a_stack,
                outputs_are_seed_stable,
                permutations_match_the_reference,
                cyclic_permutations_match_the_reference,
                forced_las_vegas_fallback_matches_the_reference);
        }
    };
    (@tests $arg:expr; $($test:ident),*) => {
        $(
            #[test]
            fn $test() {
                super::$test($arg);
            }
        )*
    };
}

parity_suite!(
    sim: Backend::Sim,
    native: Backend::Native,
    native_steal: Backend::NativeSteal,
);

#[test]
fn parity_suite_covers_every_registered_backend() {
    assert_eq!(SUITE_BACKENDS, Backend::ALL, "add a parity_suite! entry");
}
