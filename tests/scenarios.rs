//! Every registered churn scenario through `Lockstep<Pram, _>` on every
//! native and simulator pair: one churn trace (skewed keys, mixed epochs, live
//! table state, each epoch one service batch) must re-execute step for step
//! on every backend at every thread count.  No step of a scenario breaks
//! rule 3 (the counter batches' forward fill is one machine call, which
//! Lockstep forwards), and each also runs alone on every pair against a
//! lone simulator run.

mod common;

use common::lockstep::{each_machine, each_pair, pairs_of};
use qrqw_bench::scenario::{ChurnOutcome, Scenario};
use qrqw_bench::{Backend, Subject};
use qrqw_suite::sim::{Machine, Pram};

const N: usize = 128;
const SEED: u64 = 21;
const PAIRS: [Backend; 3] = [Backend::Native, Backend::NativeSteal, Backend::Sim];

/// A lone run of `scenario`: its outcome (end-state digest, per-epoch
/// contention, measured skew) and its step and claim totals.
fn lone<M: Machine>(m: &mut M, scenario: &Scenario) -> (ChurnOutcome, [u64; 3]) {
    let outcome = scenario.run_churn(m, N, SEED);
    let r = m.cost_report();
    (outcome, [r.steps, r.claim_attempts, r.contended_claims])
}

/// Runs `scenario` through every pair: the run validates against the host
/// model and no step breaks rule 3, so no pair resyncs.  Every pair's
/// machine also runs the scenario alone and must match a lone simulator
/// run.  Returns the simulator's claim attempts.
fn lockstep(scenario: &Scenario) -> u64 {
    let want = lone(&mut Pram::with_seed(16, SEED), scenario);
    each_machine!(pairs_of(PAIRS), SEED, |pair, b| {
        let got = lone(&mut b, scenario);
        assert!(got == want, "{} alone on {pair:?}", scenario.name);
    });
    let mut claims = 0;
    each_pair!(pairs_of(PAIRS), SEED, |m| {
        let label = format!("{} on {}", scenario.name, m.backend());
        let valid = scenario.run_churn(&mut m, N, SEED).valid;
        assert!(valid, "{label}: invalid");
        assert_eq!(m.rule3_steps(), 0, "{label}: rule-3 steps");
        claims = m.cost_report().claim_attempts;
    });
    claims
}

#[test]
fn every_registered_scenario_is_bit_identical_across_all_backends_and_threads() {
    let names = [
        "uniform-churn",
        "zipf-hot",
        "power-law-churn",
        "all-same-key",
        "adversarial-collide",
    ];
    let registry = Scenario::registry();
    assert_eq!(registry.len(), names.len());
    // One thread per scenario: the sweep is the longest test in the file.
    std::thread::scope(|threads| {
        for (scenario, name) in registry.iter().zip(names) {
            assert_eq!(scenario.name, name);
            threads.spawn(move || lockstep(scenario));
        }
    });
}

#[test]
fn delete_reinsert_digest_regression_pins_tombstone_behavior() {
    // A delete-only-then-reinsert cycle at 1:1:0 churn: every epoch flips
    // roughly half the keyspace, so tombstone writes and purge rebuilds
    // dominate.  `valid` cross-checks the live keys against the host model.
    let scenario = Scenario::parse("uniform/1:1:0/8").expect("spec parses");
    let claims = lockstep(&scenario);
    assert!(claims > 0, "churn must actually exercise claims");
}

#[test]
fn scenario_contention_orders_by_skew_on_the_simulator() {
    // The whole point of the axis: more skew, more collision per claim.
    // The right measure is the claim-collision *rate* (contended claims
    // over claim attempts): skew shrinks the distinct-key batches (fewer
    // attempts) while concentrating them on shared probe chains (more
    // collisions).  At n=256, seed 5 this reads uniform ≈ 1.4%,
    // zipf ≈ 4.6%, adversarial ≈ 42%.
    let run =
        |name: &str| Subject::Scenario(Scenario::parse(name).unwrap()).run(Backend::Sim, 256, 5);
    let rate = |name: &str| {
        let run = run(name);
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
    let run = run("all-same-key");
    let outcome = run.churn.expect("a scenario run carries its churn outcome");
    assert!(run.valid);
    assert!((outcome.hot_fraction - 1.0).abs() < 1e-12);
    assert!(run.report.claim_attempts <= outcome.epoch_contention.len() as u64);
}
