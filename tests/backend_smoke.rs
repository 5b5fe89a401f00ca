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
        "sim and both native schedules must stay registered"
    );
}

#[test]
fn every_sim_run_carries_the_model_and_bsp_sections_and_no_native_run_does() {
    for backend in Backend::ALL {
        let r = Subject::Algorithm(Algorithm::ListRank)
            .run(backend, 64, 1, None)
            .report;
        let sections = [
            r.work.is_some(),
            r.max_contention.is_some(),
            r.time_qrqw.is_some(),
            r.bsp.is_some(),
        ];
        let sim = backend == Backend::Sim;
        assert_eq!(sections, [sim; 4], "{} report sections", backend.name());
    }
}
