//! Theorem 1.1 conformance: the BSP backend's emulation against what the
//! cost model *charged* for the same execution.
//!
//! Theorem 1.1 is the paper's portability claim — a QRQW PRAM step whose
//! maximum contention is `k` costs a BSP-style emulation only an additive
//! `k` (the realized per-cell message queues drain one message per cycle),
//! so a whole algorithm of QRQW time `t` emulates in `O(t · lg p)` on
//! `p/lg p` components.  The simulator charges that by formula; the
//! `BspMachine` routes the message batches.  These tests run every registry
//! variant on both machines with the same seed (the router's
//! processor-order arbitration makes the two runs the same trajectory) and
//! assert, step for step:
//!
//! * the realized max queue never exceeds the contention the simulator's
//!   trace charged for that step (measured ≤ charged), and
//! * the accumulated measured cost lands exactly on the simulator's QRQW
//!   time and therefore under the `t · ⌈lg p⌉` predicted bound.
//!
//! What these checks can and cannot catch: `BspMachine` is a `Pram` whose
//! step walk reports to the router, so its queues *are* its own trace's
//! contention and `measured_cost` *is* that trace's QRQW time, by
//! construction.  Comparing with an independent `Pram` run checks that the
//! two re-execute one trajectory, and the bound check is `t ≤ t · ⌈lg p⌉`.
//! A measurement that could break the bound needs cells hashed to
//! components and each superstep charged `w + g·h + L`.  The router's own
//! counts — supersteps, messages, the heaviest h-relation — are pinned
//! exactly below.

use qrqw_bench::Algorithm;
use qrqw_suite::bsp::BspMachine;
use qrqw_suite::sim::{bsp_emulation_time, CostModel, Machine, Pram};

/// Runs one registry variant on both machines and returns
/// `(sim, bsp)` after the run, so each assertion site can interrogate the
/// trace and the measured profile.
fn run_pair(algo: Algorithm, n: usize, seed: u64) -> (Pram, BspMachine) {
    let mut sim = Pram::with_seed(16, seed);
    let (sim_valid, _) = algo.run_on(&mut sim, n);
    let mut bsp = BspMachine::with_seed(16, seed);
    let (bsp_valid, _) = algo.run_on(&mut bsp, n);
    assert!(sim_valid, "{} invalid on sim at n={n}", algo.name());
    assert!(bsp_valid, "{} invalid on bsp at n={n}", algo.name());
    (sim, bsp)
}

#[test]
fn measured_per_step_contention_never_exceeds_the_charged_contention() {
    for n in [64usize, 257] {
        for algo in Algorithm::ALL {
            let (sim, bsp) = run_pair(algo, n, 11);
            let charged = sim.trace().contention_profile();
            let measured = bsp.queue_profile();
            assert_eq!(
                measured.len(),
                charged.len(),
                "{}: step counts diverged at n={n}",
                algo.name()
            );
            for (i, (&q, &k)) in measured.iter().zip(&charged).enumerate() {
                assert!(
                    q <= k,
                    "{}: step {i} realized queue {q} > charged contention {k} (n={n})",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn measured_total_cost_equals_the_charged_qrqw_time_and_respects_the_bound() {
    // The conformance is tight, not just one-sided: the router's combining
    // makes the realized queue coincide with the Definition 2.1 contention,
    // so the measured emulation cost must land *exactly* on the simulator's
    // QRQW time — and hence a factor ⌈lg p⌉ under the Theorem 1.1 bound.
    for algo in Algorithm::ALL {
        let (sim, bsp) = run_pair(algo, 257, 11);
        let t_qrqw = sim.trace().time(CostModel::Qrqw);
        let cost = bsp.cost_report().bsp.expect("bsp cost section");
        assert_eq!(
            cost.measured_cost,
            t_qrqw,
            "{}: measured emulation cost diverged from the charged QRQW time",
            algo.name()
        );
        assert_eq!(
            cost.predicted_cost,
            bsp_emulation_time(t_qrqw, cost.components),
            "{}: predicted bound must be the Theorem 1.1 formula",
            algo.name()
        );
        assert!(
            cost.measured_cost <= cost.predicted_cost,
            "{}: measured {} exceeded the predicted bound {}",
            algo.name(),
            cost.measured_cost,
            cost.predicted_cost
        );
    }
}

#[test]
fn claim_and_step_counters_stay_in_lockstep_with_the_simulator() {
    // The emulation must not skip or add protocol steps: step indices and
    // claim counters agree for every variant, occupy-based ones included
    // (the router's lowest-id arbitration is the simulator's).
    for algo in Algorithm::ALL {
        let (sim, bsp) = run_pair(algo, 128, 7);
        let (rs, rb) = (sim.cost_report(), bsp.cost_report());
        assert_eq!(rs.steps, rb.steps, "{}: steps diverged", algo.name());
        assert_eq!(
            rs.claim_attempts,
            rb.claim_attempts,
            "{}: claim attempts diverged",
            algo.name()
        );
        assert_eq!(
            rs.contended_claims,
            rb.contended_claims,
            "{}: contended claims diverged",
            algo.name()
        );
    }
}

#[test]
fn the_additive_claim_shows_up_in_the_profile_of_a_contended_step() {
    // Direct illustration of "additive in k": a single step in which k
    // processors write one cell is measured as one queue of length k — not
    // k supersteps, not a k-fold message blow-up.
    let k = 500usize;
    let mut bsp = BspMachine::with_seed(16, 0);
    bsp.ensure_memory(8);
    bsp.par_for(k, |p, ctx| ctx.write(0, p as u64));
    assert_eq!(bsp.queue_profile(), &[k as u64]);
    let cost = bsp.cost_report().bsp.unwrap();
    assert_eq!(cost.measured_cost, k as u64, "one step costs max(m, k) = k");
    assert_eq!(
        cost.messages, k as u64,
        "k writers send exactly k messages — the queue is additive, \
         not multiplicative"
    );
    assert_eq!(cost.supersteps, 1);
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn bsp_costs_are_pinned_at_every_thread_count() {
    // Every count the BSP backend reports, for five registry members at
    // n = 257 and seed 11: supersteps, messages, max queue, max h, measured
    // cost, predicted cost, queue-profile digest, steps, claim attempts,
    // contended claims.  Read off the machine as it stood before its memory
    // and step loop were folded into `Pram`; the fold must not move one.
    #[rustfmt::skip]
    const PINS: [(&str, [u64; 10]); 5] = [
        ("permutation-qrqw",  [56, 9518, 4, 8, 66, 660, 11817106295901674309, 31, 414, 157]),
        ("hashing",           [68, 10556, 4, 10, 124, 1240, 11543125333534476263, 38, 197, 23]),
        ("sample-sort-qrqw",  [141, 52745, 1, 3, 92, 920, 7191353660525489028, 47, 0, 0]),
        ("load-balance-qrqw", [23, 2127, 1, 2, 14, 140, 5885718554116463749, 13, 5, 0]),
        ("list-rank",         [30, 12605, 1, 2, 38, 380, 17915376804715743845, 20, 0, 0]),
    ];
    for threads in [1, 2] {
        for (name, want) in PINS {
            let algo = Algorithm::parse(name).expect(name);
            let mut bsp = BspMachine::with_threads(16, 11, threads);
            let (valid, _) = algo.run_on(&mut bsp, 257);
            assert!(valid, "{name} invalid on {threads} threads");
            let report = bsp.cost_report();
            let cost = report.bsp.expect("bsp cost section");
            let got = [
                cost.supersteps,
                cost.messages,
                cost.max_queue,
                cost.max_h_relation,
                cost.measured_cost,
                cost.predicted_cost,
                fnv1a(&bsp.queue_profile()),
                report.steps,
                report.claim_attempts,
                report.contended_claims,
            ];
            assert_eq!(got, want, "{name} on {threads} threads");
        }
    }
}

#[test]
fn skewed_churn_scenarios_stay_measured_below_charged() {
    // Theorem 1.1 conformance must not be a uniform-input artifact: the
    // skewed and adversarial churn scenarios concentrate claims on shared
    // probe chains, which is exactly where a router bug would let a
    // realized queue outrun the charged contention.  Same contract as the
    // registry variants, step for step, plus digest parity between the
    // two machines.
    for spec in ["zipf-hot", "power-law-churn", "adversarial-collide"] {
        let scenario = qrqw_bench::scenario::Scenario::parse(spec).expect(spec);
        let mut sim = Pram::with_seed(16, 31);
        let want = scenario.run_churn(&mut sim, 96, 31);
        assert!(want.valid, "{spec} invalid on sim");
        let mut bsp = BspMachine::with_seed(16, 31);
        let got = scenario.run_churn(&mut bsp, 96, 31);
        assert!(got.valid, "{spec} invalid on bsp");
        assert_eq!(got.digest, want.digest, "{spec}: digest diverged");

        let charged = sim.trace().contention_profile();
        let measured = bsp.queue_profile();
        assert_eq!(
            measured.len(),
            charged.len(),
            "{spec}: step counts diverged"
        );
        for (i, (&q, &k)) in measured.iter().zip(&charged).enumerate() {
            assert!(
                q <= k,
                "{spec}: step {i} realized queue {q} > charged contention {k}"
            );
        }
        let t_qrqw = sim.trace().time(CostModel::Qrqw);
        let cost = bsp.cost_report().bsp.expect("bsp cost section");
        assert_eq!(
            cost.measured_cost, t_qrqw,
            "{spec}: measured emulation cost diverged from the charged QRQW time"
        );
        assert!(
            cost.measured_cost <= cost.predicted_cost,
            "{spec}: measured {} exceeded the predicted bound {}",
            cost.measured_cost,
            cost.predicted_cost
        );
    }
}
