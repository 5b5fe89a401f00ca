//! Tier-1 smoke of the serving layer (`qrqw-serve`), so the root
//! `cargo test -q` covers it: batch-vs-oneshot parity through a live
//! server, one injected-panic recovery, and a checkpoint/restore digest
//! round-trip on a state whose arena spans several shards.  The seeded
//! conformance test against a sequential oracle is
//! `crates/serve/tests/conformance.rs`.

use qrqw_exec::{StepPool, SHARD_CELLS};
use qrqw_serve::{
    BatchPolicy, Fault, Reply, Request, Response, Server, ServiceCheckpoint, ServiceConfig,
    ServiceError, ServiceState, StateDigest,
};

fn config() -> ServiceConfig {
    ServiceConfig {
        seed: 5,
        num_counters: 8,
        hash_capacity: 64, // small: the trace forces growth and purges
    }
}

/// A deterministic mixed trace over a small hot keyspace.
fn trace(len: u64) -> Vec<Request> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (op, arg) = ((x >> 33) % 10, (x >> 40) % 120);
            match op {
                0..=2 => Request::HashInsert { key: arg },
                3 => Request::HashDelete { key: arg },
                4 | 5 => Request::HashLookup { key: arg },
                6 => Request::CounterAdd {
                    counter: (arg % 8) as usize,
                    delta: arg + 1,
                },
                7 => Request::CounterRead {
                    counter: (arg % 8) as usize,
                },
                8 => Request::TaskSubmit { payload: arg },
                _ => Request::TaskSteal,
            }
        })
        .collect()
}

fn oneshot(requests: &[Request]) -> (Vec<Response>, StateDigest) {
    let mut state = ServiceState::with_pool(config(), StepPool::with_threads(2));
    let (responses, _) = state.apply_batch(requests);
    (responses, state.digest())
}

fn served(requests: &[Request], batch_max: usize) -> (Vec<Response>, StateDigest, u64) {
    let server = Server::spawn_with_pool(
        config(),
        BatchPolicy::with_max_batch(batch_max),
        StepPool::with_threads(2),
    );
    let handle = server.handle();
    let tickets: Vec<_> = requests.iter().map(|&r| handle.submit(r)).collect();
    let responses = tickets.into_iter().map(|t| t.wait()).collect();
    let (state, stats) = server.shutdown();
    (responses, state.digest(), stats.isolated_panics)
}

#[test]
fn batched_serving_matches_the_oneshot_reference() {
    let requests = trace(500);
    let (want_resp, want_digest) = oneshot(&requests);
    for batch_max in [1, 7, requests.len()] {
        let (resp, digest, _) = served(&requests, batch_max);
        assert_eq!(resp, want_resp, "responses diverged at cap {batch_max}");
        assert_eq!(digest, want_digest, "digest diverged at cap {batch_max}");
    }
}

#[test]
fn an_injected_panic_fails_only_itself() {
    let innocent = trace(200);
    let mut poisoned = innocent.clone();
    poisoned.insert(77, Request::Fault(Fault::Panic));
    let (want_resp, want_digest) = oneshot(&innocent);
    let (mut resp, digest, isolated) = served(&poisoned, 64);
    assert_eq!(resp.remove(77), Err(ServiceError::RequestPanicked));
    assert_eq!(isolated, 1);
    assert_eq!(resp, want_resp, "an innocent request saw the poison");
    assert_eq!(digest, want_digest);
}

#[test]
fn checkpoint_restore_round_trips_the_digest_on_a_multi_shard_state() {
    // The counter bank alone spans two shards; hash growth appends more.
    let config = ServiceConfig {
        num_counters: SHARD_CELLS + 1000,
        ..config()
    };
    let mut state = ServiceState::with_pool(config, StepPool::with_threads(2));
    let _ = state.apply_batch(&trace(300));
    assert!(state.arena_stats().shards >= 2);
    let mut ck = ServiceCheckpoint::default();
    let full = state.checkpoint_into(&mut ck);
    assert!(full > SHARD_CELLS, "the first checkpoint copies the prefix");
    let before = state.digest();

    // Writes in both shards, hash growth, task churn — then roll back.
    let mut churn: Vec<Request> = (1000..1400)
        .map(|key| Request::HashInsert { key })
        .collect();
    churn.extend([0, SHARD_CELLS + 999].map(|counter| Request::CounterAdd { counter, delta: 3 }));
    churn.extend([Request::TaskSteal, Request::TaskSubmit { payload: 1 }]);
    let _ = state.apply_batch(&churn);
    assert_ne!(state.digest(), before);
    state.restore(&ck);
    assert_eq!(state.digest(), before, "restore must be digest-identical");

    // The checkpoint is warm now: the next one is proportional to the batch.
    let (resp, _) = state.apply_batch(&[Request::CounterAdd {
        counter: SHARD_CELLS + 999,
        delta: 3,
    }]);
    assert_eq!(
        resp[0],
        Ok(Reply::Counter(0)),
        "the rolled-back add is gone"
    );
    let warm = state.checkpoint_into(&mut ck);
    assert!(
        warm > 0 && warm < full / 16,
        "warm checkpoint copied {warm}"
    );
}
