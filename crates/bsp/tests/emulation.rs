//! Crate-level integration check: a full paper algorithm re-executes the
//! simulator's exact trajectory on the BSP backend, and the measured
//! emulation stays within the Theorem 1.1 formula bound.  The BSP machine
//! is a `Pram` whose steps route through the router, so its queues and
//! measured cost are its own trace read as queues — equal to an independent
//! simulator run's charge exactly when the two trajectories agree, which is
//! what this checks; the bound itself cannot fail until cells are hashed to
//! components and supersteps charged `w + g·h + L`.

use qrqw_bsp::BspMachine;
use qrqw_core::{is_permutation, random_permutation_qrqw};
use qrqw_sim::{CostModel, Machine, Pram};

#[test]
fn permutation_is_bit_identical_and_measured_cost_stays_under_the_bound() {
    for (n, seed) in [(500usize, 7u64), (2048, 3)] {
        let mut sim = Pram::with_seed(16, seed);
        let mut bsp = BspMachine::with_seed(16, seed);
        let a = random_permutation_qrqw(&mut sim, n);
        let b = random_permutation_qrqw(&mut bsp, n);
        assert!(is_permutation(&a.order));
        assert_eq!(
            a.order, b.order,
            "bsp diverged from sim (n={n} seed={seed})"
        );
        assert_eq!(sim.steps_executed(), Machine::steps_executed(&bsp));

        // The BSP backend's measured cost must agree with the simulator's
        // exact QRQW trace time, and the realized queues must never exceed
        // what the trace charged per step.
        let cost = bsp.cost_report().bsp.unwrap();
        assert_eq!(
            cost.measured_cost,
            sim.trace().time(CostModel::Qrqw),
            "formula sides diverged (n={n} seed={seed})"
        );
        let charged = sim.trace().contention_profile();
        let measured = bsp.queue_profile();
        assert_eq!(measured.len(), charged.len());
        for (i, (&q, &k)) in measured.iter().zip(&charged).enumerate() {
            assert!(q <= k, "step {i}: realized queue {q} > charged {k}");
        }
        assert!(cost.measured_cost <= cost.predicted_cost);
    }
}
