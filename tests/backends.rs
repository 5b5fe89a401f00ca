//! Cross-backend parity and determinism tests for the `Machine` API.
//!
//! The backend contract (see `qrqw_sim::machine`) promises that every
//! backend draws identical per-`(seed, step, proc)` random streams and that
//! exclusive claims resolve deterministically, so algorithms built only on
//! those facilities must produce *bit-identical* outputs everywhere, while
//! occupy-based algorithms promise semantic validity.  Those two test
//! patterns live as generic functions in `tests/common/parity.rs`; this
//! file instantiates the whole battery once per backend — the simulator
//! (self-parity: the suite's reference is the simulator itself), the native
//! machine under both chunk schedules (chunked and work-stealing), and the
//! batch-message BSP machine.  A backend is a constructor value; adding one
//! is one `parity_suite!` line plus its name in [`PARITY_SUITE_BACKENDS`].

mod common;

use common::parity::parity_suite;
use qrqw_suite::bsp::BspMachine;
use qrqw_suite::exec::{NativeMachine, Schedule, StepPool};
use qrqw_suite::sim::{Machine, Pram};

/// Backends the parity suite is instantiated for below.  The drift-guard
/// test pins this list to `qrqw_bench::Backend::ALL`, so registering a
/// backend in the bench registry without giving it a `parity_suite!`
/// instantiation fails the build.
pub const PARITY_SUITE_BACKENDS: &[&str] = &["sim", "native", "native-steal", "bsp"];

fn native_steal(mem_size: usize, seed: u64) -> NativeMachine {
    NativeMachine::with_pool(
        mem_size,
        seed,
        StepPool::from_env().with_schedule(Schedule::Stealing),
    )
}

parity_suite!(sim, qrqw_suite::sim::Pram::with_seed);
parity_suite!(native, qrqw_suite::exec::NativeMachine::with_seed);
parity_suite!(native_steal, crate::native_steal);
parity_suite!(bsp, qrqw_suite::bsp::BspMachine::with_seed);

#[test]
fn parity_suite_covers_every_registered_backend() {
    let registered: Vec<&str> = qrqw_bench::Backend::ALL.iter().map(|b| b.name()).collect();
    assert_eq!(
        PARITY_SUITE_BACKENDS, registered,
        "backend registry and parity-suite instantiations drifted apart — \
         add a parity_suite!(name, constructor) line for the new backend"
    );
}

#[test]
fn contention_totals_agree_across_all_backends() {
    // Exclusive-claim contention is deterministic, and occupy totals are
    // too (each contested cell has exactly one winner), so every backend's
    // counters must coincide for the same seed even where the occupy
    // winners differ.
    use qrqw_suite::algos::random_permutation_qrqw;

    fn totals<M: Machine>(mut m: M) -> (u64, u64, u64) {
        let _ = random_permutation_qrqw(&mut m, 2048);
        let r = m.cost_report();
        (r.claim_attempts, r.contended_claims, r.steps)
    }

    let sim = totals(Pram::with_seed(16, 3));
    assert_eq!(
        sim,
        totals(NativeMachine::with_seed(16, 3)),
        "sim vs native counters diverged"
    );
    assert_eq!(
        sim,
        totals(native_steal(16, 3)),
        "sim vs native-steal counters diverged"
    );
    assert_eq!(
        sim,
        totals(BspMachine::with_seed(16, 3)),
        "sim vs bsp counters diverged"
    );
}
