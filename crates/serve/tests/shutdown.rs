//! Graceful shutdown and error-path behaviour: the batcher must survive
//! client disconnects and poisoned requests, and a draining shutdown must
//! answer everything already submitted.  (The single-batch fault tests,
//! which need their requests to share one batch, live in `src/server.rs`.)

use qrqw_exec::StepPool;
use qrqw_serve::{BatchPolicy, Fault, Reply, Request, Server, ServiceConfig, ServiceError};

fn spawn(batch_max: usize) -> Server {
    Server::spawn_with_pool(
        ServiceConfig {
            seed: 3,
            num_counters: 8,
            hash_capacity: 64,
        },
        BatchPolicy::with_max_batch(batch_max),
        StepPool::with_threads(2),
    )
}

#[test]
fn dropped_tickets_do_not_wedge_the_batcher() {
    let server = spawn(4);
    let handle = server.handle();
    // Clients that disconnect mid-batch: submit and immediately drop the
    // ticket.  The batcher completes into the abandoned slots harmlessly.
    for key in 0..20u64 {
        drop(handle.submit(Request::HashInsert { key }));
    }
    // The server is still serving.
    assert_eq!(
        handle.call(Request::HashLookup { key: 5 }),
        Ok(Reply::Found(true))
    );
    let (state, stats) = server.shutdown();
    assert_eq!(stats.requests, 21);
    assert_eq!(stats.panicked_batches, 0);
    assert_eq!(state.digest().hash_keys, (0..20).collect::<Vec<u64>>());
}

#[test]
fn shutdown_drains_and_answers_everything_already_submitted() {
    // A tiny batch cap: whatever the batcher has not reached when the
    // shutdown arrives, the drain must apply and answer.
    let server = spawn(2);
    let handle = server.handle();
    let tickets: Vec<_> = (0..30u64)
        .map(|key| handle.submit(Request::HashInsert { key }))
        .collect();
    let (state, stats) = server.shutdown();
    for (key, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(
            ticket.wait(),
            Ok(Reply::Inserted(true)),
            "request {key} was not answered by the drain"
        );
    }
    assert_eq!(stats.requests, 30);
    assert_eq!(state.digest().hash_keys, (0..30).collect::<Vec<u64>>());
    // New submissions after shutdown resolve immediately with the error.
    assert_eq!(
        handle.call(Request::TaskSteal),
        Err(ServiceError::ShuttingDown)
    );
}

#[test]
fn a_panic_during_the_drain_does_not_stop_the_drain() {
    let server = spawn(3);
    let handle = server.handle();
    let mut tickets = Vec::new();
    for key in 0..5u64 {
        tickets.push(handle.submit(Request::HashInsert { key }));
    }
    tickets.push(handle.submit(Request::Fault(Fault::Panic)));
    for key in 5..10u64 {
        tickets.push(handle.submit(Request::HashInsert { key }));
    }
    let (state, stats) = server.shutdown();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    // Every ticket resolved: the drain survived the poisoned batch.
    assert_eq!(responses.len(), 11);
    assert!(stats.panicked_batches >= 1);
    assert_eq!(stats.isolated_panics, 1);
    let ok = responses
        .iter()
        .filter(|r| **r == Ok(Reply::Inserted(true)))
        .count();
    let poisoned = responses
        .iter()
        .filter(|r| **r == Err(ServiceError::RequestPanicked))
        .count();
    // Bisection replay isolates the fault exactly: all 10 inserts succeed,
    // only the poison itself fails.
    assert_eq!(ok, 10, "an innocent insert was lost: {responses:?}");
    assert_eq!(poisoned, 1, "only the poison may fail: {responses:?}");
    assert_eq!(state.digest().hash_keys, (0..10).collect::<Vec<u64>>());
}
