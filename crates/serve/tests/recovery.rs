//! Fault-tolerance integration tests: deadlines and repeated poisonings —
//! the paths `tests/shutdown.rs` (graceful) and `tests/parity.rs`
//! (determinism) do not cover.  Tests that need a fixed batch shape
//! (abnormal batcher death, the queue bound, the ticket timeout) queue
//! their requests before a batcher exists, so they live next to the
//! handle in `src/server.rs`.

use std::time::Duration;

use qrqw_exec::StepPool;
use qrqw_serve::{BatchPolicy, Fault, Reply, Request, Server, ServiceConfig, ServiceError};

fn spawn(policy: BatchPolicy) -> Server {
    Server::spawn_with_pool(
        ServiceConfig {
            seed: 11,
            num_counters: 4,
            hash_capacity: 64,
        },
        policy,
        StepPool::with_threads(2),
    )
}

/// Generous bound for waits that must complete: long enough for any CI
/// machine, short enough that a wedged ticket fails the test rather than
/// hanging it.
const WEDGE: Duration = Duration::from_secs(30);

#[test]
fn an_expired_deadline_is_answered_without_touching_the_machine() {
    // A zero deadline is stale by the time any batcher applies any batch.
    let server = spawn(BatchPolicy::with_max_batch(8));
    let handle = server.handle();
    let expired = handle.submit_with_deadline(Request::HashInsert { key: 1 }, Duration::ZERO);
    let fresh = handle.submit_with_deadline(Request::HashInsert { key: 2 }, WEDGE);
    let unbounded = handle.submit(Request::HashInsert { key: 3 });
    assert_eq!(
        expired.wait_timeout(WEDGE),
        Some(Err(ServiceError::DeadlineExceeded))
    );
    assert_eq!(fresh.wait_timeout(WEDGE), Some(Ok(Reply::Inserted(true))));
    assert_eq!(
        unbounded.wait_timeout(WEDGE),
        Some(Ok(Reply::Inserted(true)))
    );
    let (state, stats) = server.shutdown();
    assert_eq!(stats.deadline_shed, 1);
    // Only the undecayed requests reached the machine: the expired
    // insert's key is absent from the digest.
    assert_eq!(state.digest().hash_keys, vec![2, 3]);
    assert_eq!(stats.requests, 2);
}

#[test]
fn recovery_keeps_serving_after_repeated_poisonings() {
    // Several poisoned batches in sequence: each is rolled back, bisected,
    // and the server keeps answering with correct state throughout.  The
    // insert and the poison may share a batch or not; either way only the
    // poison fails.
    let server = spawn(BatchPolicy::with_max_batch(4));
    let handle = server.handle();
    let mut expected_keys = Vec::new();
    for round in 0..3u64 {
        let key = 100 + round;
        let a = handle.submit(Request::HashInsert { key });
        let p = handle.submit(Request::Fault(Fault::Panic));
        assert_eq!(a.wait(), Ok(Reply::Inserted(true)));
        assert_eq!(p.wait(), Err(ServiceError::RequestPanicked));
        expected_keys.push(key);
    }
    let (state, stats) = server.shutdown();
    assert_eq!(stats.isolated_panics, 3);
    assert!(stats.panicked_batches >= 3);
    assert!(stats.snapshots >= stats.batches);
    assert_eq!(state.digest().hash_keys, expected_keys);
}
