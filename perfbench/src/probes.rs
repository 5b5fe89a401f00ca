//! Primitive probes for the traced run: one layer's public function at a
//! time, on fixed shapes, reported as the typical of a few repetitions.
//! Also the harness's own host probes (memory latency, bandwidth, condvar
//! ping-pong), so a reader can tell a busy host from a slow commit.

use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use qrqw_exec::{MachineSnapshot, NativeMachine, PersistentMachine, Schedule};
use qrqw_sim::{ClaimMode, Machine};

use crate::machines::pool;
use crate::rng::stream;
use crate::stats::typical;

/// Typical wall of `reps` runs of `f`, in ns.
fn typical_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    typical(&samples)
}

/// `(name, value)` pairs of the `pool.*` metrics: empty-body dispatches
/// over 100 k cells on the harness's 2-thread pool.
pub fn pool_probes() -> Vec<(String, f64)> {
    const CELLS: usize = 100_000;
    const PER_SAMPLE: usize = 200;
    let mut out = Vec::new();
    for schedule in Schedule::ALL {
        let p = pool(schedule);
        let single = typical_ns(20, || {
            for _ in 0..PER_SAMPLE {
                p.dispatch(CELLS, 1, |lo, hi| {
                    black_box((lo, hi));
                });
            }
        });
        let fused = typical_ns(20, || {
            for _ in 0..PER_SAMPLE {
                p.dispatch_fused(CELLS, 1, 3, |pass, lo, hi| {
                    black_box((pass, lo, hi));
                });
            }
        });
        out.push((
            format!("pool.dispatch_ns.{}", schedule.name()),
            single / PER_SAMPLE as f64,
        ));
        out.push((
            format!("pool.fused3_ns.{}", schedule.name()),
            fused / PER_SAMPLE as f64,
        ));
    }
    out
}

const BIG: usize = 1 << 20;
const SMALL_STEP: usize = 1 << 12;
const ATTEMPTS: usize = 1 << 18;
const REPS: usize = 5;

/// The `exec.machine.*` metrics: `Machine` trait calls on a 2^20-cell
/// `NativeMachine` under the chunked 2-thread pool.
pub fn machine_probes(seed: u64) -> Vec<(String, f64)> {
    let mut rng = stream(seed, 0x300);
    let mut m = NativeMachine::with_pool(16, seed, pool(Schedule::Chunked));
    let data = m.alloc(BIG);
    let aux = m.alloc(BIG);
    let ones = vec![1u64; BIG];
    m.load(data, &ones);
    let mut out = Vec::new();
    let mut push = |name: &str, ns: f64, per: usize| {
        out.push((format!("exec.machine.{name}"), ns / per as f64));
    };

    let bump = |m: &mut NativeMachine, len: usize| {
        m.par_for(len, |i, ctx| {
            let v = ctx.read(data + i);
            ctx.write(data + i, v.wrapping_add(1));
        })
    };
    push(
        "par_for_ns_per_cell",
        typical_ns(REPS, || bump(&mut m, BIG)),
        BIG,
    );
    let per_sample = 50;
    push(
        "par_for_step_ns",
        typical_ns(20, || {
            for _ in 0..per_sample {
                bump(&mut m, SMALL_STEP);
            }
        }),
        per_sample,
    );

    // Claims: 2^18 darts into a region twice as large (some collide), and
    // the same darts into 64 hot cells.
    let region = 2 * ATTEMPTS;
    let spread: Vec<(u64, usize)> = (0..ATTEMPTS)
        .map(|i| (i as u64 + 1, aux + rng.below(region as u64) as usize))
        .collect();
    let hot: Vec<(u64, usize)> = (0..ATTEMPTS)
        .map(|i| (i as u64 + 1, aux + rng.below(64) as usize))
        .collect();
    for (name, attempts, mode) in [
        ("claim_excl_ns_per_attempt", &spread, ClaimMode::Exclusive),
        ("claim_occupy_ns_per_attempt", &spread, ClaimMode::Occupy),
        ("claim_hot_ns_per_attempt", &hot, ClaimMode::Occupy),
    ] {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                m.clear_region(aux, region);
                let start = Instant::now();
                black_box(m.claim(attempts, mode));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        push(name, typical(&samples), ATTEMPTS);
    }

    // The scan is in place: reload outside the clock so sums never wrap.
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            m.load(data, &ones);
            let start = Instant::now();
            black_box(m.scan_step(data, BIG));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    push("scan_ns_per_cell", typical(&samples), BIG);

    let half: Vec<u64> = (0..BIG)
        .map(|i| {
            if i % 2 == 0 {
                i as u64
            } else {
                qrqw_sim::EMPTY
            }
        })
        .collect();
    m.load(data, &half);
    push(
        "compact_ns_per_cell",
        typical_ns(REPS, || {
            black_box(m.compact_step(data, BIG, aux));
        }),
        BIG,
    );

    let zeros = vec![0u64; BIG];
    m.load(data, &zeros);
    push(
        "global_or_ns_per_cell",
        typical_ns(REPS, || {
            black_box(m.global_or_step(data, BIG));
        }),
        BIG,
    );

    let index: Vec<u64> = (0..BIG).map(|_| rng.below(BIG as u64)).collect();
    m.load(aux, &index);
    let sink = m.alloc(BIG);
    push(
        "gather_ns_per_cell",
        typical_ns(REPS, || {
            m.par_for(BIG, |i, ctx| {
                let at = ctx.read(aux + i) as usize;
                let v = ctx.read(data + at);
                ctx.write(sink + i, v);
            })
        }),
        BIG,
    );
    out
}

/// The timed `exec.arena.*` metrics: growth (construction of a 2^20-cell
/// machine: shard allocation plus EMPTY fill), bulk load and bulk dump.
pub fn arena_probes() -> Vec<(String, f64)> {
    let grow: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let m = NativeMachine::with_pool(BIG, 0, pool(Schedule::Chunked));
            let ns = start.elapsed().as_nanos() as f64;
            drop(black_box(m));
            ns
        })
        .collect();
    let mut m = NativeMachine::with_pool(BIG, 0, pool(Schedule::Chunked));
    let values: Vec<u64> = (0..BIG as u64).collect();
    let load = typical_ns(REPS, || m.load(0, &values));
    let dump = typical_ns(REPS, || {
        black_box(m.dump(0, BIG));
    });
    vec![
        (
            "exec.arena.grow_ns_per_cell".into(),
            typical(&grow) / BIG as f64,
        ),
        ("exec.arena.load_ns_per_cell".into(), load / BIG as f64),
        ("exec.arena.dump_ns_per_cell".into(), dump / BIG as f64),
    ]
}

/// The `exec.handle.*` metrics: checkpoint and rollback of 2^20 live cells
/// on the server's single-thread pool shape.
pub fn handle_probes() -> Vec<(String, f64)> {
    let single = qrqw_exec::StepPool::with_threads(1)
        .with_schedule(Schedule::Chunked)
        .with_fused(true);
    let mut pm = PersistentMachine::with_pool(BIG, 0, single);
    let values: Vec<u64> = (0..BIG as u64).collect();
    pm.machine().load(0, &values);
    let mut snap = MachineSnapshot::default();
    pm.snapshot_into(&mut snap);
    let snapshot = typical_ns(REPS, || pm.snapshot_into(&mut snap));
    let restore = typical_ns(REPS, || pm.restore(&snap));
    vec![
        (
            "exec.handle.snapshot_ns_per_cell".into(),
            snapshot / BIG as f64,
        ),
        (
            "exec.handle.restore_ns_per_cell".into(),
            restore / BIG as f64,
        ),
    ]
}

/// The `bench.host.*` metrics, about two thirds of a second each.
pub fn host_probes(seed: u64) -> Vec<(String, f64)> {
    vec![
        ("bench.host.chase_ns".into(), chase_ns(seed)),
        ("bench.host.sweep_gbs".into(), sweep_gbs()),
        ("bench.host.futex_us".into(), futex_us()),
    ]
}

/// Dependent loads around one random cycle through 16 MiB: memory latency.
fn chase_ns(seed: u64) -> f64 {
    const SLOTS: usize = 1 << 22;
    const HOPS: usize = 1 << 20;
    let mut rng = stream(seed, 0x301);
    // Sattolo's algorithm: a uniformly random single cycle.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    for i in (1..SLOTS).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let mut at = 0u32;
    let ns = typical_ns(4, || {
        for _ in 0..HOPS {
            at = next[at as usize];
        }
        black_box(at);
    });
    ns / HOPS as f64
}

/// Sequential read of 64 MiB: memory bandwidth, GB/s.
fn sweep_gbs() -> f64 {
    const WORDS: usize = 1 << 23;
    let data: Vec<u64> = (0..WORDS as u64).collect();
    let ns = typical_ns(8, || {
        black_box(data.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
    });
    (WORDS * 8) as f64 / ns
}

/// Round trip of a mutex + condvar hand-off between two threads: what a
/// parked pool worker or a blocked client costs to wake.
fn futex_us() -> f64 {
    const TRIPS: usize = 10_000;
    let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
    let echo = Arc::clone(&pair);
    let total = 4 * TRIPS as u64;
    let worker = std::thread::spawn(move || {
        let (lock, cv) = &*echo;
        let mut turn = lock.lock().expect("probe mutex");
        // Odd values are the worker's to answer.
        while *turn < 2 * total {
            if *turn % 2 == 1 {
                *turn += 1;
                cv.notify_one();
            } else {
                turn = cv.wait(turn).expect("probe mutex");
            }
        }
    });
    let (lock, cv) = &*pair;
    let ns = typical_ns(4, || {
        let mut turn = lock.lock().expect("probe mutex");
        for _ in 0..TRIPS {
            *turn += 1;
            cv.notify_one();
            while *turn % 2 == 1 {
                turn = cv.wait(turn).expect("probe mutex");
            }
        }
    });
    worker.join().expect("probe thread");
    ns / TRIPS as f64 / 1e3
}
