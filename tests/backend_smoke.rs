//! Registry/backend drift guard: every [`Algorithm::ALL`] variant must run
//! and validate once on *every* [`Backend::ALL`] backend at small problem
//! sizes — both lists are enumerated programmatically, so adding a variant
//! without porting it, porting one without registering it, or registering
//! a backend that breaks any single variant fails this build with the
//! offending (variant, backend) pair in the message.
//!
//! This is the tier-1 twin of the CI `perf_report` smoke step; the
//! companion guard in `tests/common/lockstep.rs` (`pairs`) additionally
//! fails the build when a registered backend lacks Lockstep pairs.

use qrqw_bench::{Algorithm, Backend, Subject};

#[test]
fn every_registry_variant_runs_and_validates_on_every_backend() {
    for n in [64usize, 257] {
        for algo in Algorithm::ALL {
            for backend in Backend::ALL {
                let run = Subject::Algorithm(algo).run(backend, n, 11, None);
                assert!(
                    run.valid,
                    "{} produced an invalid output on {} at n={n}",
                    algo.name(),
                    backend.name()
                );
                assert_eq!(run.backend, backend.name());
            }
        }
    }
}

#[test]
fn registry_names_are_stable_and_parse_round_trips() {
    for algo in Algorithm::ALL {
        assert_eq!(Algorithm::parse(algo.name()), Some(algo), "{}", algo.name());
    }
    for backend in Backend::ALL {
        assert_eq!(
            Backend::parse(backend.name()),
            Some(backend),
            "{}",
            backend.name()
        );
    }
    assert!(
        Algorithm::ALL.len() >= 13,
        "the port promised ≥ 13 variants"
    );
    assert!(
        Backend::ALL.len() >= 3,
        "sim, native and bsp must stay registered"
    );
}

#[test]
fn exclusive_claim_algorithms_report_identical_cost_counters_on_every_backend() {
    // Lockstep proves the machines agree step by step.  This checks the
    // harness entry point `Algorithm::run`, which builds each backend's
    // machine itself: its step and claim counters are what `perf_report`'s
    // drift guard compares.
    use Algorithm::*;
    let exclusive = [
        PermutationQrqw,
        PermutationDartScan,
        CyclicFast,
        CyclicEfficient,
        ListRank,
        FetchAdd,
    ];
    for algo in exclusive {
        let counters: Vec<_> = Backend::ALL
            .map(|backend| {
                let run = Subject::Algorithm(algo).run(backend, 200, 7, None);
                assert!(run.valid, "{} on {}", algo.name(), backend.name());
                let r = run.report;
                (r.steps, r.claim_attempts, r.contended_claims)
            })
            .into();
        assert!(
            counters.windows(2).all(|w| w[0] == w[1]),
            "{}: {counters:?}",
            algo.name()
        );
    }
}

#[test]
fn only_the_bsp_backend_fills_the_bsp_cost_section() {
    for backend in Backend::ALL {
        let run = Subject::Algorithm(Algorithm::ListRank).run(backend, 64, 1, None);
        assert_eq!(
            run.report.bsp.is_some(),
            backend == Backend::Bsp,
            "{} report has the wrong BSP-section shape",
            backend.name()
        );
    }
}
