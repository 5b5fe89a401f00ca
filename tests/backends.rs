//! The parity suite (`tests/common/parity.rs`) instantiated once per
//! registered backend; the simulator's Lockstep pairs are a plain `Pram`
//! against a BSP-costed one walking at 1, 2 and 5 threads.  Adding a
//! backend to `qrqw_bench::Backend::ALL` fails the build
//! until `lockstep::pairs` gives it pairs, and fails the drift guard below
//! until it has a `parity_suite!` entry here.

mod common;

use common::lockstep::pairs;
use common::parity::parity_suite;
use qrqw_bench::Backend;
use qrqw_suite::sim::Machine;

parity_suite!(
    sim: Backend::Sim,
    native: Backend::Native,
    native_steal: Backend::NativeSteal,
);

#[test]
fn parity_suite_covers_every_registered_backend() {
    assert_eq!(SUITE_BACKENDS, Backend::ALL, "add a parity_suite! entry");
    for backend in Backend::ALL {
        assert!(!pairs(backend).is_empty(), "{backend:?} has no pairs");
    }
}
