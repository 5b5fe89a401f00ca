//! Batch-vs-oneshot parity: the satellite that pins the service's
//! partition-invariance contract.
//!
//! A fixed request trace is (a) applied as **one** [`ServiceState`] batch
//! and (b) drained through a live [`Server`] under several batching
//! policies and machine thread counts.  Because replies are
//! trace-deterministic (see `qrqw_serve::state`), every configuration must
//! produce the identical response sequence, and the final [`StateDigest`]s
//! must be equal — which compares the counter region **bit-identically**
//! (raw dump, untouched cells still `EMPTY`), the task pool exactly, and
//! the hash table as its canonical sorted key set.  Hash *placement* cells
//! are the one observable allowed to differ (occupy-claim winners are
//! backend-defined), which is exactly why the digest canonicalizes them.

use qrqw_exec::StepPool;
use qrqw_serve::{
    BatchPolicy, Fault, Request, Response, Server, ServiceConfig, ServiceState, StateDigest,
    MAX_KEY,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn config() -> ServiceConfig {
    ServiceConfig {
        seed: 11,
        num_counters: 8,
        hash_capacity: 64, // small: the trace forces growth mid-stream
    }
}

/// A deterministic mixed trace: duplicate-heavy hash churn (inserts,
/// deletes, lookups over a small hot keyspace), hot counters, submit/steal
/// churn, invalid requests and injected (non-panic) faults.
fn trace(len: usize, seed: u64) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..13u64) {
            0..=2 => Request::HashInsert {
                key: rng.gen_range(0..300u64),
            },
            3..=4 => Request::HashLookup {
                key: rng.gen_range(0..300u64),
            },
            5 => Request::HashContains {
                key: rng.gen_range(0..300u64),
            },
            12 => Request::HashDelete {
                key: rng.gen_range(0..300u64),
            },
            6..=7 => Request::CounterAdd {
                counter: rng.gen_range(0..8u64) as usize,
                delta: rng.gen_range(1..10u64),
            },
            8 => Request::CounterRead {
                counter: rng.gen_range(0..8u64) as usize,
            },
            9 => Request::TaskSubmit {
                payload: rng.gen_range(0..1000u64),
            },
            10 => Request::TaskSteal,
            _ => match rng.gen_range(0..3u64) {
                0 => Request::HashInsert { key: MAX_KEY + 17 }, // out of range
                1 => Request::CounterAdd {
                    counter: 99,
                    delta: 1,
                },
                _ => Request::Fault(Fault::Error),
            },
        })
        .collect()
}

/// The whole trace as one batch on a directly-owned state.
fn oneshot(requests: &[Request], threads: usize) -> (Vec<Response>, StateDigest) {
    let mut state = ServiceState::with_pool(config(), StepPool::with_threads(threads));
    let (responses, _) = state.apply_batch(requests);
    (responses, state.digest())
}

/// The same trace drained through a live server: one submitter thread
/// preserves trace order in the queue, batch boundaries fall wherever the
/// policy cuts them.
fn served(requests: &[Request], batch_max: usize, threads: usize) -> (Vec<Response>, StateDigest) {
    let server = Server::spawn_with_pool(
        config(),
        BatchPolicy::with_max_batch(batch_max),
        StepPool::with_threads(threads),
    );
    let handle = server.handle();
    let tickets: Vec<_> = requests.iter().map(|&r| handle.submit(r)).collect();
    let responses: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
    let (state, stats) = server.shutdown();
    assert_eq!(stats.requests, requests.len() as u64);
    assert!(stats.max_batch <= batch_max as u64, "policy cap violated");
    (responses, state.digest())
}

#[test]
fn every_batching_policy_matches_the_oneshot_reference() {
    let requests = trace(600, 42);
    let (want_resp, want_digest) = oneshot(&requests, 2);
    for batch_max in [1usize, 7, 64, 600] {
        let (resp, digest) = served(&requests, batch_max, 2);
        assert_eq!(
            resp, want_resp,
            "responses diverged at batch_max={batch_max}"
        );
        assert_eq!(
            digest, want_digest,
            "digest diverged at batch_max={batch_max}"
        );
    }
}

#[test]
fn thread_count_does_not_change_observables() {
    let requests = trace(400, 7);
    let (resp_1t, digest_1t) = oneshot(&requests, 1);
    let (resp_2t, digest_2t) = oneshot(&requests, 2);
    assert_eq!(resp_1t, resp_2t);
    assert_eq!(digest_1t, digest_2t);
    let (resp_srv, digest_srv) = served(&requests, 32, 1);
    assert_eq!(resp_srv, resp_1t);
    assert_eq!(digest_srv, digest_1t);
}

#[test]
fn recovery_parity_after_injected_panics_at_random_positions() {
    // The recovery-parity property: sprinkle `Fault::Panic` requests into a
    // mixed trace at seeded-random positions, drain it through live servers
    // across batch caps × thread counts, and the observables must equal the
    // oneshot application of the trace **with the panics removed** — bit
    // for bit in the counter region.  Rollback + bisection replay must make
    // a poisoned request literally indistinguishable from one that was
    // never submitted (apart from its own `RequestPanicked` reply).
    let mut requests = trace(500, 99);
    let mut rng = SmallRng::seed_from_u64(1234);
    let mut panic_at = std::collections::BTreeSet::new();
    while panic_at.len() < 12 {
        panic_at.insert(rng.gen_range(0..requests.len()));
    }
    for &i in &panic_at {
        requests[i] = Request::Fault(Fault::Panic);
    }
    let innocent: Vec<Request> = requests
        .iter()
        .copied()
        .filter(|r| *r != Request::Fault(Fault::Panic))
        .collect();
    let (want_resp, want_digest) = oneshot(&innocent, 2);
    for threads in [1usize, 2] {
        for batch_max in [1usize, 7, 64, 600] {
            let server = Server::spawn_with_pool(
                config(),
                BatchPolicy::with_max_batch(batch_max),
                StepPool::with_threads(threads),
            );
            let handle = server.handle();
            let tickets: Vec<_> = requests.iter().map(|&r| handle.submit(r)).collect();
            let responses: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
            let (state, stats) = server.shutdown();
            // Exactly the injected panics were isolated; nothing else.
            assert_eq!(
                stats.isolated_panics,
                panic_at.len() as u64,
                "batch_max={batch_max} threads={threads}"
            );
            let mut innocent_resp = Vec::with_capacity(innocent.len());
            for (i, resp) in responses.into_iter().enumerate() {
                if panic_at.contains(&i) {
                    assert_eq!(
                        resp,
                        Err(qrqw_serve::ServiceError::RequestPanicked),
                        "panic at {i} got a non-panic reply (batch_max={batch_max})"
                    );
                } else {
                    innocent_resp.push(resp);
                }
            }
            assert_eq!(
                innocent_resp, want_resp,
                "innocent responses diverged at batch_max={batch_max} threads={threads}"
            );
            assert_eq!(
                state.digest(),
                want_digest,
                "digest diverged at batch_max={batch_max} threads={threads}"
            );
        }
    }
}

#[test]
fn counter_region_is_bit_identical_including_untouched_cells() {
    // Only counters 0 and 2 are touched: 1 and 3..8 must still read as the
    // machine's EMPTY in *both* digests — the raw-dump comparison is what
    // makes the parity claim about machine memory, not just about replies.
    let requests = vec![
        Request::CounterAdd {
            counter: 0,
            delta: 3,
        },
        Request::CounterRead { counter: 2 },
        Request::CounterAdd {
            counter: 0,
            delta: 4,
        },
    ];
    let (_, want) = oneshot(&requests, 2);
    let (_, got) = served(&requests, 1, 2);
    assert_eq!(got.counters, want.counters);
    assert_eq!(got.counters[0], 7);
    assert_eq!(got.counters[2], 0, "a read materializes its cell");
    assert_eq!(got.counters[1], qrqw_sim::EMPTY);
}

#[test]
fn delete_reinsert_churn_is_digest_identical_across_batch_boundaries() {
    // The tombstone regression pin: a delete-heavy cyclic churn trace
    // (every key is inserted, deleted, and reinserted repeatedly) must be
    // partition-invariant even though different batch cuts materialize
    // completely different tombstone histories on the machine — batch_max=1
    // writes a real tombstone for every delete, while one big batch nets
    // insert-delete pairs away into no machine op at all.
    let mut requests = Vec::new();
    for round in 0..6u64 {
        for key in 0..40u64 {
            requests.push(Request::HashInsert { key });
            if (key + round) % 3 != 0 {
                requests.push(Request::HashDelete { key });
            }
            requests.push(Request::HashLookup { key });
        }
    }
    let (want_resp, want_digest) = oneshot(&requests, 2);
    for batch_max in [1usize, 7, 64, requests.len()] {
        let (resp, digest) = served(&requests, batch_max, 2);
        assert_eq!(resp, want_resp, "replies diverged at batch_max={batch_max}");
        assert_eq!(
            digest, want_digest,
            "digest diverged at batch_max={batch_max}"
        );
    }
}

#[test]
fn sustained_deletes_purge_tombstones_via_growth() {
    // Long-running churn must not accumulate tombstones without bound: the
    // table's growth/purge rebuilds keep them bounded by a quarter of the
    // capacity (see `qrqw_core::open_table`).
    let mut state = ServiceState::with_pool(config(), StepPool::with_threads(2));
    for round in 0..20u64 {
        let batch: Vec<Request> = (0..50u64)
            .flat_map(|k| {
                let key = round * 50 + k;
                [Request::HashInsert { key }, Request::HashDelete { key }]
            })
            .chain((0..5u64).map(|k| Request::HashInsert {
                key: 10_000 + round * 5 + k,
            }))
            .collect();
        // Apply insert/delete pairs in separate batches so the deletes
        // issue real machine tombstone writes rather than netting away.
        for chunk in batch.chunks(50) {
            let _ = state.apply_batch(chunk);
        }
        assert!(
            4 * state.hash_tombstones() <= state.hash_capacity(),
            "tombstone load invariant broken at round {round}: {} tombstones, cap {}",
            state.hash_tombstones(),
            state.hash_capacity()
        );
    }
    assert_eq!(state.hash_len(), 100);
}
