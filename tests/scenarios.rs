//! Cross-backend parity for every registered churn scenario.
//!
//! The scenario driver (`qrqw_bench::scenario`) promises that one churn
//! trace — skewed or adversarial keys, mixed insert/delete/lookup epochs,
//! live table state carried throughout — produces **bit-identical**
//! observables on every backend at every thread count: the end-state
//! digest (sorted live keys + raw counter region), the synchronous step
//! count, the claim counters, and the per-epoch contention totals.  This
//! is the `parity_suite!` contract extended from one-shot algorithms to
//! stateful multi-epoch workloads, and it is what entitles `perf_report
//! --scenario` to arm the sim-vs-native drift guard on every cell.

use qrqw_bench::scenario::{Scenario, ScenarioRun};
use qrqw_bench::Backend;

const N: usize = 128;
const SEED: u64 = 21;
/// Pool sizes every backend runs at: sequential, smallest chunked, odd
/// oversubscribed.
const THREADS: [Option<usize>; 3] = [Some(1), Some(2), Some(5)];

fn reference(scenario: &Scenario) -> ScenarioRun {
    let run = scenario.run(Backend::Sim, N, SEED, None);
    assert!(run.valid, "{} invalid on the simulator", scenario.name);
    run
}

fn assert_matches_reference(want: &ScenarioRun, got: &ScenarioRun, label: &str) {
    assert!(got.valid, "{label}: run invalid");
    assert_eq!(
        got.outcome.digest, want.outcome.digest,
        "{label}: digest diverged"
    );
    assert_eq!(
        got.report.steps, want.report.steps,
        "{label}: step count diverged"
    );
    assert_eq!(
        got.report.claim_attempts, want.report.claim_attempts,
        "{label}: claim attempts diverged"
    );
    assert_eq!(
        got.report.contended_claims, want.report.contended_claims,
        "{label}: contention total diverged"
    );
    assert_eq!(
        got.outcome.epoch_contention, want.outcome.epoch_contention,
        "{label}: per-epoch contention diverged"
    );
    assert_eq!(
        got.outcome.hot_fraction.to_bits(),
        want.outcome.hot_fraction.to_bits(),
        "{label}: measured skew diverged"
    );
}

#[test]
fn every_registered_scenario_is_bit_identical_across_all_backends_and_threads() {
    for scenario in Scenario::registry() {
        let want = reference(&scenario);
        for backend in Backend::ALL {
            for threads in THREADS {
                let got = scenario.run(backend, N, SEED, threads);
                assert_eq!(got.backend, backend.name());
                assert_eq!(got.report.backend, backend.name());
                let label = format!("{}/{}/{threads:?}", scenario.name, backend.name());
                assert_matches_reference(&want, &got, &label);
            }
        }
    }
}

#[test]
fn delete_reinsert_digest_regression_pins_tombstone_behavior() {
    // A delete-only-then-reinsert cycle at 1:1:0 churn: every epoch flips
    // roughly half the keyspace, so tombstone writes and purge rebuilds
    // dominate.  The digest must still be bit-identical everywhere, and
    // the key set must match the host model exactly (pinned implicitly by
    // `valid`, which cross-checks live_keys against the model).
    let scenario = Scenario::parse("uniform/1:1:0/8").expect("spec parses");
    let want = reference(&scenario);
    assert!(
        want.report.claim_attempts > 0,
        "churn must actually exercise claims"
    );
    for backend in Backend::ALL {
        for threads in THREADS {
            let got = scenario.run(backend, N, SEED, threads);
            assert_matches_reference(&want, &got, &format!("{}/{threads:?}", backend.name()));
        }
    }
}

#[test]
fn scenario_contention_orders_by_skew_on_the_simulator() {
    // The whole point of the axis: more skew, more collision per claim.
    // The right measure is the claim-collision *rate* (contended claims
    // over claim attempts): skew shrinks the distinct-key batches (fewer
    // attempts) while concentrating them on shared probe chains (more
    // collisions).  At n=256, seed 5 this reads uniform ≈ 1.4%,
    // zipf ≈ 4.6%, adversarial ≈ 42%.
    let rate = |name: &str| {
        let run = Scenario::parse(name)
            .unwrap()
            .run(Backend::Sim, 256, 5, None);
        assert!(run.valid);
        run.report.contended_claims as f64 / (run.report.claim_attempts as f64).max(1.0)
    };
    let uniform = rate("uniform-churn");
    let zipf = rate("zipf-hot");
    let adversarial = rate("adversarial-collide");
    assert!(
        zipf > uniform,
        "zipf collision rate {zipf} must exceed uniform {uniform}"
    );
    assert!(
        adversarial > zipf,
        "adversarial collision rate {adversarial} must exceed zipf {zipf}"
    );

    // The degenerate all-same-key scenario is maximal *skew* but nets
    // every epoch's churn down to (at most) one touched key — near-zero
    // claim traffic is the correct, pinned behavior, and the measured
    // hot fraction records the skew instead.
    let run = Scenario::parse("all-same-key")
        .unwrap()
        .run(Backend::Sim, 256, 5, None);
    assert!(run.valid);
    assert!((run.outcome.hot_fraction - 1.0).abs() < 1e-12);
    assert!(run.report.claim_attempts <= run.outcome.epoch_contention.len() as u64);
}
