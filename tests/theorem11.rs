//! Theorem 1.1 conformance: the BSP machine's emulation against what the
//! cost model *charged* for the same execution.
//!
//! Theorem 1.1 is the paper's portability claim — a QRQW PRAM step whose
//! maximum contention is `k` costs a BSP-style emulation only an additive
//! `k` (the realized per-cell message queues drain one message per cycle),
//! so a whole algorithm of QRQW time `t` emulates in `O(t · lg p)` on
//! `p/lg p` components.  The simulator charges that by formula; a `Pram`
//! built with `Pram::with_bsp` also counts the message batches its steps
//! route.  These tests run every registry variant on a plain and a
//! BSP-costed simulator with the same seed (the walk's processor-order
//! arbitration makes the two runs the same trajectory) and assert, step for
//! step:
//!
//! * the realized max queue never exceeds the contention the plain run's
//!   trace charged for that step (measured ≤ charged), and
//! * the accumulated measured cost lands exactly on the plain run's QRQW
//!   time and therefore under the `t · ⌈lg p⌉` predicted bound.
//!
//! What these checks can and cannot catch: the BSP machine's queues *are*
//! its own trace's contention and `measured_cost` *is* that trace's QRQW
//! time, by construction.  Comparing with an independent plain run checks
//! that the two re-execute one trajectory, and the bound check is
//! `t ≤ t · ⌈lg p⌉`.  A measurement that could break the bound needs cells
//! hashed to components and each superstep charged `w + g·h + L`.  The BSP
//! counts of the walk — supersteps, messages, the heaviest h-relation — are
//! pinned exactly below, at 1, 2 and 5 threads.

use qrqw_bench::Algorithm;
use qrqw_suite::algos::{is_permutation, random_permutation_qrqw};
use qrqw_suite::exec::StepPool;
use qrqw_suite::sim::{bsp_emulation_time, CostModel, Machine, Pram};

/// A BSP-costed simulator on the environment's thread count.
fn bsp_machine(seed: u64) -> Pram {
    Pram::with_bsp(16, seed, StepPool::from_env().threads())
}

/// Runs one registry variant on both machines and returns
/// `(sim, bsp)` after the run, so each assertion site can interrogate the
/// trace and the measured profile.
fn run_pair(algo: Algorithm, n: usize, seed: u64) -> (Pram, Pram) {
    let mut sim = Pram::with_seed(16, seed);
    let (sim_valid, _) = algo.run_on(&mut sim, n);
    let mut bsp = bsp_machine(seed);
    let (bsp_valid, _) = algo.run_on(&mut bsp, n);
    assert!(sim_valid, "{} invalid on sim at n={n}", algo.name());
    assert!(bsp_valid, "{} invalid on bsp at n={n}", algo.name());
    (sim, bsp)
}

/// Asserts that `bsp`'s realized queues stay under what `sim`'s trace
/// charged, step for step, and that its measured cost is `sim`'s QRQW time,
/// under the Theorem 1.1 bound.
fn assert_measured_within_charged(sim: &Pram, bsp: &Pram, label: &str) {
    let charged = sim.trace().contention_profile();
    let measured = bsp.trace().queue_profile();
    assert_eq!(
        measured.len(),
        charged.len(),
        "{label}: step counts diverged"
    );
    for (i, (&q, &k)) in measured.iter().zip(&charged).enumerate() {
        assert!(
            q <= k,
            "{label}: step {i} realized queue {q} > charged contention {k}"
        );
    }
    let t_qrqw = sim.trace().time(CostModel::Qrqw);
    let cost = bsp.cost_report().bsp.expect("bsp cost section");
    assert_eq!(
        cost.measured_cost, t_qrqw,
        "{label}: measured emulation cost diverged from the charged QRQW time"
    );
    assert_eq!(
        cost.predicted_cost,
        bsp_emulation_time(t_qrqw, cost.components),
        "{label}: predicted bound must be the Theorem 1.1 formula"
    );
    assert!(
        cost.measured_cost <= cost.predicted_cost,
        "{label}: measured {} exceeded the predicted bound {}",
        cost.measured_cost,
        cost.predicted_cost
    );
}

#[test]
fn measured_per_step_contention_never_exceeds_the_charged_contention() {
    // The conformance is tight, not just one-sided: the walk's combining
    // makes the realized queue coincide with the Definition 2.1 contention,
    // so the measured emulation cost must land *exactly* on the simulator's
    // QRQW time — and hence a factor ⌈lg p⌉ under the Theorem 1.1 bound.
    for n in [64usize, 257] {
        for algo in Algorithm::ALL {
            let (sim, bsp) = run_pair(algo, n, 11);
            assert_measured_within_charged(&sim, &bsp, &format!("{} n={n}", algo.name()));
        }
    }
}

#[test]
fn measured_total_cost_equals_the_charged_qrqw_time_and_respects_the_bound() {
    // The permutation at sizes off the registry grid, its output compared
    // bit for bit besides the costs.
    for (n, seed) in [(500usize, 7u64), (2048, 3)] {
        let mut sim = Pram::with_seed(16, seed);
        let mut bsp = bsp_machine(seed);
        let a = random_permutation_qrqw(&mut sim, n);
        let b = random_permutation_qrqw(&mut bsp, n);
        assert!(is_permutation(&a.order));
        assert_eq!(
            a.order, b.order,
            "bsp diverged from sim (n={n} seed={seed})"
        );
        assert_eq!(sim.steps_executed(), bsp.steps_executed());
        assert_measured_within_charged(&sim, &bsp, &format!("n={n} seed={seed}"));
    }
}

#[test]
fn the_additive_claim_shows_up_in_the_profile_of_a_contended_step() {
    // Direct illustration of "additive in k": a single step in which k
    // processors write one cell is measured as one queue of length k — not
    // k supersteps, not a k-fold message blow-up.
    let k = 500usize;
    let mut bsp = bsp_machine(0);
    bsp.ensure_memory(8);
    bsp.par_for(k, |p, ctx| ctx.write(0, p as u64));
    assert_eq!(bsp.trace().queue_profile(), &[k as u64]);
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
    // Every count the BSP section reports, for five registry members at
    // n = 257 and seed 11: supersteps, messages, max queue, max h, measured
    // cost, predicted cost, queue-profile digest, steps, claim attempts,
    // contended claims.  Read off the BSP machine as it stood before its
    // memory, step loop and router were folded into `Pram`; no fold may move
    // one, at any thread count.
    #[rustfmt::skip]
    const PINS: [(&str, [u64; 10]); 5] = [
        ("permutation-qrqw",  [56, 9518, 4, 8, 66, 660, 11817106295901674309, 31, 414, 157]),
        ("hashing",           [68, 10556, 4, 10, 124, 1240, 11543125333534476263, 38, 197, 23]),
        ("sample-sort-qrqw",  [141, 52745, 1, 3, 92, 920, 7191353660525489028, 47, 0, 0]),
        ("load-balance-qrqw", [23, 2127, 1, 2, 14, 140, 5885718554116463749, 13, 5, 0]),
        ("list-rank",         [30, 12605, 1, 2, 38, 380, 17915376804715743845, 20, 0, 0]),
    ];
    for threads in [1, 2, 5] {
        for (name, want) in PINS {
            let algo = Algorithm::parse(name).expect(name);
            let mut bsp = Pram::with_bsp(16, 11, threads);
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
                fnv1a(&bsp.trace().queue_profile()),
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
        let mut bsp = bsp_machine(31);
        let got = scenario.run_churn(&mut bsp, 96, 31);
        assert!(got.valid, "{spec} invalid on bsp");
        assert_eq!(got.digest, want.digest, "{spec}: digest diverged");
        assert_measured_within_charged(&sim, &bsp, spec);
    }
}
