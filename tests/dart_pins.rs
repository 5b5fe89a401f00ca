//! Exact pins for the six public entry points that reach the four callers
//! of the team dart-throwing round (`qrqw_prims::TeamDarts`).
//!
//! The expected rows were read off the four hand-written `throw → claim →
//! settle → shrink` loops this engine replaced (`cyclic.rs::place_items`,
//! `multiple_compaction.rs::place_by_dart_throwing` / `::place_values`,
//! `prims/compaction.rs::linear_compaction`), run on `Pram` at the commit
//! before the refactor: same outcome, same rounds, same steps, same charges
//! and same claim totals, to the digit.  The native machine must produce
//! the same outcomes and counters at 2 threads under both schedules.

use qrqw_suite::algos::{
    heavy_multiple_compaction, integer_sort_crqw, multiple_compaction,
    random_cyclic_permutation_efficient, random_cyclic_permutation_fast,
};
use qrqw_suite::exec::{NativeMachine, Schedule, StepPool};
use qrqw_suite::prims::{linear_compaction, TeamDarts};
use qrqw_suite::sim::{ClaimMode, CostModel, Machine, Pram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the bytes of a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `n` labels drawn uniformly from `0..num_labels`, with their exact counts.
fn random_labels(n: usize, num_labels: u64, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels: Vec<u64> = (0..n).map(|_| rng.gen_range(0..num_labels)).collect();
    let mut counts = vec![0u64; num_labels as usize];
    for &l in &labels {
        counts[l as usize] += 1;
    }
    (labels, counts)
}

/// One seeded input of one entry point: `(machine seed, run)`, where `run`
/// returns `(FNV digest of the outcome, rounds)`.
type Case<M> = (&'static str, u64, Run<M>);
type Run<M> = Box<dyn Fn(&mut M) -> (u64, u64)>;

fn linear_case<M: Machine>(n: usize, every: usize) -> Run<M> {
    Box::new(move |m| {
        let src = m.alloc(n);
        let k = n.div_ceil(every);
        for i in (0..n).step_by(every) {
            m.poke(src + i, 1000 + i as u64);
        }
        let dst = m.alloc(4 * k);
        let out = linear_compaction(m, src, n, dst, 4 * k);
        assert_eq!(out.placements.len(), k);
        let digest = fnv(out
            .placements
            .iter()
            .flat_map(|&(item, off)| [item as u64, off as u64])
            .chain([out.fallback_used as u64]));
        (digest, out.rounds)
    })
}

fn mc_digest(positions: &[usize], failed: bool) -> u64 {
    fnv(positions.iter().map(|&p| p as u64).chain([failed as u64]))
}

fn heavy_case<M: Machine>(labels: Vec<u64>, counts: Vec<u64>, relaxed: bool) -> Run<M> {
    Box::new(move |m| {
        let res = heavy_multiple_compaction(m, &labels, &counts, relaxed);
        assert_eq!(res.failed, relaxed, "only the under-promised case fails");
        (mc_digest(&res.positions, res.failed), res.rounds)
    })
}

fn mixed_case<M: Machine>(big: [usize; 2], tiny: usize) -> Run<M> {
    // two huge sets and many tiny ones: both the heavy and the light path
    let mut labels = vec![0u64; big[0]];
    labels.extend(std::iter::repeat_n(1, big[1]));
    labels.extend((0..tiny as u64).map(|i| 2 + i % 50));
    let mut counts = vec![0u64; 52];
    for &l in &labels {
        counts[l as usize] += 1;
    }
    Box::new(move |m| {
        let res = multiple_compaction(m, &labels, &counts);
        assert!(!res.failed);
        (mc_digest(&res.positions, res.failed), res.rounds)
    })
}

fn cyclic_case<M: Machine>(n: usize, fast: bool) -> Run<M> {
    Box::new(move |m| {
        let out = if fast {
            random_cyclic_permutation_fast(m, n)
        } else {
            random_cyclic_permutation_efficient(m, n)
        };
        let digest = fnv(out
            .successor
            .iter()
            .copied()
            .chain([out.fallback_used as u64]));
        (digest, out.rounds)
    })
}

fn integer_sort_case<M: Machine>(n: usize, seed: u64) -> Run<M> {
    let max_key = 8 * n as u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..max_key)).collect();
    Box::new(move |m| {
        let sorted = integer_sort_crqw(m, &keys, max_key);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        (fnv(sorted), 0)
    })
}

fn cases<M: Machine>() -> Vec<Case<M>> {
    let (heavy_a, counts_a) = random_labels(1024, 4, 3);
    let (heavy_b, counts_b) = random_labels(3000, 7, 12);
    vec![
        ("linear-compaction/256-every-4", 11, linear_case(256, 4)),
        ("linear-compaction/4096-every-2", 3, linear_case(4096, 2)),
        ("linear-compaction/1000-every-1", 29, linear_case(1000, 1)),
        ("mc-heavy/1024x4", 1, heavy_case(heavy_a, counts_a, false)),
        ("mc-heavy/3000x7", 6, heavy_case(heavy_b, counts_b, false)),
        // a count of 1 promised for a set of 16: the round cap expires, the
        // per-label clean-up fills the 4-cell subarray and reports the rest
        (
            "mc-heavy/under-promised",
            5,
            heavy_case(vec![0; 16], vec![1], true),
        ),
        ("mc-mixed/700+500+200", 9, mixed_case([700, 500], 200)),
        ("mc-mixed/2000+300+450", 4, mixed_case([2000, 300], 450)),
        ("mc-mixed/150+150+50", 17, mixed_case([150, 150], 50)),
        ("cyclic-fast/400", 0, cyclic_case(400, true)),
        ("cyclic-fast/2048", 21, cyclic_case(2048, true)),
        ("cyclic-fast/3", 2, cyclic_case(3, true)),
        ("cyclic-efficient/600", 11, cyclic_case(600, false)),
        ("cyclic-efficient/4096", 8, cyclic_case(4096, false)),
        ("cyclic-efficient/5", 13, cyclic_case(5, false)),
        ("integer-sort/1024", 1, integer_sort_case(1024, 40)),
        ("integer-sort/4096", 2, integer_sort_case(4096, 41)),
        ("integer-sort/300", 3, integer_sort_case(300, 42)),
    ]
}

/// `(digest, rounds, steps, claim attempts, contended claims)` — what every
/// backend reports.
type Counters = (u64, u64, u64, u64, u64);

fn counters<M: Machine>(m: &mut M, run: &dyn Fn(&mut M) -> (u64, u64)) -> Counters {
    let (digest, rounds) = run(m);
    let report = m.cost_report();
    (
        digest,
        rounds,
        m.steps_executed(),
        report.claim_attempts,
        report.contended_claims,
    )
}

/// `(digest, rounds, steps, time(Qrqw), work, max contention, claim
/// attempts, contended claims)` per case, in `cases()` order.
const PINNED: [[u64; 8]; 18] = [
    [0xdbc22e4a97682e14, 3, 19, 22, 685, 2, 70, 3],
    [0xfecfb14748c2d621, 3, 19, 31, 18929, 4, 2464, 251],
    [0x124f39ca797f5118, 4, 25, 37, 8504, 4, 1241, 131],
    [0x52e752ea37dd352e, 3, 23, 36, 7566, 3, 1244, 136],
    [0xddc31d4425c5435d, 3, 25, 40, 21769, 3, 3598, 368],
    [0xad642b66ef800584, 12, 65, 360, 3227, 44, 16, 12],
    [0xec9035f057b489b5, 3, 89, 593, 19998, 3, 1444, 151],
    [0x9f04ef1a863acff4, 3, 93, 721, 41558, 4, 2794, 305],
    [0x65eb618a13a69ff5, 3, 85, 282, 8135, 3, 377, 43],
    [0x7a6fa7d8a9a8fad5, 3, 34, 107, 16692, 6, 1766, 1054],
    [0xc7f5940dc4e299ad, 2, 28, 115, 101688, 7, 10255, 5737],
    [0x5478b009256889e6, 1, 12, 32, 70, 3, 6, 3],
    [0x355965ca0de31e85, 3, 37, 96, 16476, 3, 826, 143],
    [0x180bb4ccfc996f71, 3, 39, 111, 112492, 3, 5654, 971],
    [0x82af7a0dbbd99e81, 1, 14, 31, 130, 1, 5, 0],
    [0x1713d5bd64e38c30, 0, 73, 1343, 81917, 4, 1346, 113],
    [0x7e58a79164cd45c5, 0, 86, 1420, 298582, 4, 5554, 536],
    [0xc406485b81cc8e7a, 0, 69, 1325, 28212, 3, 390, 30],
];

#[test]
fn the_six_entry_points_are_pinned_to_the_hand_written_rounds() {
    for ((name, seed, run), want) in cases::<Pram>().iter().zip(&PINNED) {
        let mut pram = Pram::with_seed(4, *seed);
        let (digest, rounds, steps, attempts, contended) = counters(&mut pram, run);
        let trace = pram.trace();
        let (time, work) = (trace.time(CostModel::Qrqw), trace.work());
        let max_contention = trace.max_contention();
        assert_eq!(
            &[
                digest,
                rounds,
                steps,
                time,
                work,
                max_contention,
                attempts,
                contended
            ],
            want,
            "{name}"
        );
    }
}

#[test]
fn native_machines_reproduce_the_pinned_outcomes_at_two_threads() {
    for schedule in Schedule::ALL {
        for ((name, seed, run), pin) in cases::<NativeMachine>().iter().zip(&PINNED) {
            let pool = StepPool::with_threads(2).with_schedule(schedule);
            let mut native = NativeMachine::with_pool(4, *seed, pool);
            assert_eq!(
                counters(&mut native, run),
                (pin[0], pin[1], pin[2], pin[6], pin[7]),
                "{name} on {}",
                schedule.name()
            );
        }
    }
}

/// Drives the engine directly where no algorithm takes it: 1024 items in 8
/// labels whose subarrays hold 512 cells between them, two rounds of 4096
/// darts (so a 2-thread pool chunks the throw and the settle), then the
/// clean-up — through per-label cursors, which run dry, or through one
/// shared cursor over the whole array, which does too.
fn overfull_run<M: Machine>(m: &mut M, shared_cursor: bool) -> (u64, u64) {
    const ITEMS: usize = 1024;
    const LABELS: usize = 8;
    const SUB: usize = 64;
    let base = m.alloc(LABELS * SUB);
    let mut cell_of = vec![None; ITEMS];
    let mut darts = TeamDarts::new((0..ITEMS).collect(), ITEMS, ClaimMode::Occupy);
    for q in [4, 8] {
        assert!(darts.live().len() * q >= 4096);
        darts.throw(m, q, |item, ctx| {
            base + (item % LABELS) * SUB + ctx.random_index(SUB)
        });
        darts.settle(
            m,
            1,
            |item| item as u64,
            |item, addr| cell_of[item] = Some(addr),
        );
    }
    let rounds = darts.rounds();
    let steps = m.steps_executed();
    let mut walk = base..base + LABELS * SUB;
    let mut cursors = [0usize; LABELS];
    let leftovers = darts.finish(
        m,
        |item| {
            if shared_cursor {
                return walk.next();
            }
            let cur = &mut cursors[item % LABELS];
            (*cur < SUB).then(|| {
                *cur += 1;
                base + (item % LABELS) * SUB + *cur - 1
            })
        },
        |item| item as u64,
    );
    assert_eq!(m.steps_executed(), steps + 1, "one sequential step");
    for (item, spot) in leftovers {
        assert!(cell_of[item].is_none(), "item {item} placed twice");
        cell_of[item] = spot;
    }
    // Every cell is taken exactly once, by the item it holds; the other
    // 512 items were told their subarray is exhausted.
    let cells = m.dump(base, LABELS * SUB);
    let mut holders: Vec<u64> = cells.clone();
    holders.sort_unstable();
    holders.dedup();
    assert_eq!(holders.len(), LABELS * SUB);
    for (item, spot) in cell_of.iter().enumerate() {
        if let Some(addr) = spot {
            assert_eq!(cells[addr - base], item as u64);
            assert!(shared_cursor || (addr - base) / SUB == item % LABELS);
        }
    }
    assert_eq!(cell_of.iter().flatten().count(), LABELS * SUB);
    (fnv(cells), rounds)
}

#[test]
fn an_overfull_engine_run_is_identical_on_the_simulator_and_chunked_native_pools() {
    for shared_cursor in [false, true] {
        let want = counters(&mut Pram::with_seed(4, 77), &|m: &mut Pram| {
            overfull_run(m, shared_cursor)
        });
        for schedule in Schedule::ALL {
            // `QRQW_THREADS` sizes this pool: CI runs the file at 2.
            let pool = StepPool::from_env().with_schedule(schedule);
            let mut native = NativeMachine::with_pool(4, 77, pool);
            let got = counters(&mut native, &|m: &mut NativeMachine| {
                overfull_run(m, shared_cursor)
            });
            assert_eq!(got, want, "{}", schedule.name());
        }
    }
}
