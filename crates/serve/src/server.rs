//! [`Server`]: spawn/submit/shutdown around the batcher runtime.
//!
//! A [`Server`] owns the batcher thread; any number of [`ServiceHandle`]
//! clones (one per client thread, typically) push requests onto its one
//! shared submission queue and wait on [`Ticket`]s.  [`Server::shutdown`]
//! closes the queue and drains it — every already-submitted request is
//! applied and answered — and returns the final [`ServiceState`] (so tests
//! can digest it) plus the cumulative [`ServiceStats`].
//!
//! Admission control sits at the submit edge: under the queue's lock a
//! submit counts outstanding requests (admitted, not yet taken into a
//! batch) against [`BatchPolicy::queue_max`] and sheds an over-bound one
//! immediately with [`ServiceError::Overloaded`] — the shed request is
//! never enqueued and definitely did not take effect.  The batcher
//! releases a batch's admission in one step when it cuts the batch.
//! Per-request deadlines ([`ServiceHandle::submit_with_deadline`]) are
//! stamped here and enforced by the batcher when it reaches the request.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qrqw_exec::StepPool;

use crate::metrics::ServiceStats;
use crate::policy::BatchPolicy;
#[cfg(doc)]
use crate::request::ServiceError;
use crate::request::{Request, Response};
use crate::runtime::{run_batcher, Envelope, ResponseSlot, SubmissionQueue, Ticket};
use crate::state::{ServiceConfig, ServiceState};

/// A clonable client endpoint of a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    /// The submission queue, with the admission and shed counters beside
    /// it.
    queue: Arc<SubmissionQueue>,
}

impl ServiceHandle {
    /// A handle enforcing `policy`'s admission bounds on a new queue.
    fn new(policy: &BatchPolicy) -> ServiceHandle {
        ServiceHandle {
            queue: Arc::new(SubmissionQueue::new(policy.queue_max)),
        }
    }

    /// Submits one request; returns immediately with a [`Ticket`] for the
    /// response.  The request never expires in the queue.  After shutdown
    /// the ticket resolves at once to [`ServiceError::ShuttingDown`]; past
    /// the queue bound it resolves at once to [`ServiceError::Overloaded`].
    pub fn submit(&self, request: Request) -> Ticket {
        self.submit_inner(request, None)
    }

    /// Submits one request with a deadline.  If the batcher does not reach
    /// the request within `timeout` of now, it is answered
    /// [`ServiceError::DeadlineExceeded`] without touching the machine.
    /// A `timeout` too large to add to the present instant sets no
    /// deadline: the request is treated as a plain [`ServiceHandle::submit`].
    pub fn submit_with_deadline(&self, request: Request, timeout: Duration) -> Ticket {
        self.submit_inner(request, Some(timeout))
    }

    fn submit_inner(&self, request: Request, timeout: Option<Duration>) -> Ticket {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        // A timeout past the clock's range is no deadline at all.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        self.queue.push(Envelope::new(request, slot, deadline));
        ticket
    }

    /// Submits one request and blocks for its response.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Requests currently outstanding: admitted, and not yet taken into a
    /// batch.  A client holding its reply never sees its own request here.
    pub fn outstanding(&self) -> usize {
        self.queue.outstanding()
    }
}

/// A running batched service: one batcher thread owning a persistent
/// machine, fed by a submission queue.
#[derive(Debug)]
pub struct Server {
    handle: ServiceHandle,
    join: Option<JoinHandle<(ServiceState, ServiceStats)>>,
}

impl Server {
    /// Spawns a server whose machine dispatches on `pool`
    /// (`StepPool::from_env()` for the `QRQW_THREADS` default).
    pub fn spawn_with_pool(config: ServiceConfig, policy: BatchPolicy, pool: StepPool) -> Server {
        Self::spawn_with_state(ServiceState::with_pool(config, pool), policy)
    }

    /// Spawns a server over an already-populated state (e.g. one preloaded
    /// by direct [`ServiceState::apply_batch`] calls), so the returned
    /// stats cover served traffic only.
    pub fn spawn_with_state(state: ServiceState, policy: BatchPolicy) -> Server {
        let policy = policy.normalized();
        let handle = ServiceHandle::new(&policy);
        let queue = Arc::clone(&handle.queue);
        let join = std::thread::Builder::new()
            .name("qrqw-serve-batcher".into())
            .spawn(move || run_batcher(state, policy, queue))
            .expect("failed to spawn the batcher thread");
        Server {
            handle,
            join: Some(join),
        }
    }

    /// A new client endpoint.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Graceful shutdown: stop accepting, drain and answer everything
    /// already submitted, and return the final state and stats.
    ///
    /// # Panics
    ///
    /// If the batcher thread died abnormally (e.g. an injected
    /// [`crate::request::Fault::Crash`]) — callers expecting that use
    /// `drop` instead.
    pub fn shutdown(mut self) -> (ServiceState, ServiceStats) {
        self.handle.queue.close();
        let (state, mut stats) = self
            .join
            .take()
            .expect("server already shut down")
            .join()
            .expect("batcher thread panicked outside a batch");
        stats.overload_shed = self.handle.queue.shed();
        (state, stats)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.handle.queue.close();
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Fault, Reply, ServiceError};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Barrier;

    fn config() -> ServiceConfig {
        ServiceConfig {
            num_counters: 4,
            hash_capacity: 64,
            seed: 7,
        }
    }

    fn tiny() -> Server {
        Server::spawn_with_pool(
            config(),
            BatchPolicy::with_max_batch(4),
            StepPool::with_threads(2),
        )
    }

    /// A handle whose queue has no batcher yet: submits pile up in it, in
    /// order, until the returned `start` spawns one over them — so the
    /// test, not the scheduler, decides what the first batch holds.
    fn parked(policy: BatchPolicy) -> (ServiceHandle, impl FnOnce() -> Server) {
        let policy = policy.normalized();
        let handle = ServiceHandle::new(&policy);
        let server_handle = handle.clone();
        let start = move || {
            let state = ServiceState::with_pool(config(), StepPool::with_threads(2));
            let queue = Arc::clone(&server_handle.queue);
            Server {
                handle: server_handle,
                join: Some(std::thread::spawn(move || {
                    run_batcher(state, policy, queue)
                })),
            }
        };
        (handle, start)
    }

    /// Generous bound for waits that must complete: long enough for any CI
    /// machine, short enough that a wedged ticket fails the test rather
    /// than hanging it.
    const WEDGE: Duration = Duration::from_secs(30);

    #[test]
    fn idle_batcher_blocks_and_performs_zero_snapshots() {
        let server = Server::spawn_with_pool(
            config(),
            BatchPolicy::with_max_batch(4),
            StepPool::with_threads(1),
        );
        // Time passes with no traffic; an idle batcher must stay parked,
        // not spin through empty batches and checkpoints.
        std::thread::sleep(Duration::from_millis(50));
        let (_state, stats) = server.shutdown();
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn concurrent_clients_each_get_their_own_response() {
        let server = tiny();
        let threads: Vec<_> = (0..4)
            .map(|c| {
                let h = server.handle();
                std::thread::spawn(move || {
                    let first = h.call(Request::CounterAdd {
                        counter: c % 2,
                        delta: 1,
                    });
                    let second = h.call(Request::CounterAdd {
                        counter: c % 2,
                        delta: 1,
                    });
                    (first, second)
                })
            })
            .collect();
        let mut olds = [Vec::new(), Vec::new()];
        for (c, t) in threads.into_iter().enumerate() {
            let (a, b) = t.join().unwrap();
            for r in [a, b] {
                match r {
                    Ok(Reply::Counter(v)) => olds[c % 2].push(v),
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        // Each counter was fetch-added 4 times: the observed old values are
        // exactly {0, 1, 2, 3} in some arrival order.
        for per_counter in &mut olds {
            per_counter.sort_unstable();
            assert_eq!(per_counter, &[0, 1, 2, 3]);
        }
        let (state, _) = server.shutdown();
        let d = state.digest();
        assert_eq!(d.counters[0], 4);
        assert_eq!(d.counters[1], 4);
    }

    #[test]
    fn a_crashed_batcher_answers_every_outstanding_ticket() {
        // The crash request and its twenty companions are all queued
        // before the batcher starts, so they ride one batch and the
        // batcher dies holding every one of them.
        let (handle, start) = parked(BatchPolicy::with_max_batch(64));
        let mut tickets = Vec::new();
        for key in 0..10u64 {
            tickets.push(handle.submit(Request::HashInsert { key }));
        }
        let crash = handle.submit(Request::Fault(Fault::Crash));
        for key in 10..20u64 {
            tickets.push(handle.submit(Request::HashInsert { key }));
        }
        // The thread dies abnormally; shutdown() would propagate the panic,
        // so drop the server (its Drop ignores the join error).
        drop(start());
        // Every ticket resolves to the exit guard's answer — no client
        // wedges on the dead server, and none got a real reply.
        assert_eq!(
            crash.wait_timeout(WEDGE),
            Some(Err(ServiceError::ServerGone)),
            "the crash ticket wedged or got a bogus reply"
        );
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                ticket.wait_timeout(WEDGE),
                Some(Err(ServiceError::ServerGone)),
                "ticket {i} wedged or was answered by a crashed batch"
            );
        }
        // Every admitted request was released exactly once: the crashed
        // batch when it was cut, the rest by the exit guard.
        assert_eq!(handle.outstanding(), 0);
        // Late submits resolve immediately too, and hold no admission slot.
        assert_eq!(
            handle.call(Request::TaskSteal),
            Err(ServiceError::ShuttingDown)
        );
        assert_eq!(handle.outstanding(), 0);
    }

    #[test]
    fn the_queue_bound_sheds_submits_past_the_limit() {
        // queue_max 2 and no batcher yet: both admitted requests are still
        // outstanding when the 3rd..6th submits arrive, so all four are
        // shed on the spot.
        let (handle, start) = parked(BatchPolicy::with_max_batch(100).queue_max(2));
        let admitted: Vec<_> = (0..2u64)
            .map(|key| handle.submit(Request::HashInsert { key }))
            .collect();
        for key in 2..6u64 {
            assert_eq!(
                handle.submit(Request::HashInsert { key }).try_wait(),
                Some(Err(ServiceError::Overloaded)),
                "over-bound submit {key} was not shed"
            );
        }
        let server = start();
        for ticket in admitted {
            assert_eq!(ticket.wait_timeout(WEDGE), Some(Ok(Reply::Inserted(true))));
        }
        let (state, stats) = server.shutdown();
        assert_eq!(stats.overload_shed, 4);
        assert_eq!((stats.batches, stats.max_batch, stats.requests), (1, 2, 2));
        // Shed requests definitely did not take effect.
        assert_eq!(state.digest().hash_keys, vec![0, 1]);
    }

    #[test]
    fn wait_timeout_expires_before_any_batcher_then_delivers() {
        // No batcher yet, so nothing can answer within the client's
        // patience: the first wait times out, the ticket stays live, and a
        // later wait delivers the real response once a batcher applies it.
        let (handle, start) = parked(BatchPolicy::with_max_batch(100));
        let ticket = handle.submit(Request::CounterAdd {
            counter: 0,
            delta: 5,
        });
        assert_eq!(ticket.wait_timeout(Duration::from_millis(10)), None);
        let server = start();
        assert_eq!(ticket.wait_timeout(WEDGE), Some(Ok(Reply::Counter(0))));
        let (state, _) = server.shutdown();
        assert_eq!(state.digest().counters[0], 5);
    }

    #[test]
    fn a_deadline_past_the_clock_range_is_no_deadline() {
        // `now + Duration::MAX` overflows `Instant`: the submit must neither
        // panic nor shed the request, just never expire it.
        let server = tiny();
        let ticket = server.handle().submit_with_deadline(
            Request::CounterAdd {
                counter: 1,
                delta: 2,
            },
            Duration::MAX,
        );
        assert_eq!(ticket.wait_timeout(WEDGE), Some(Ok(Reply::Counter(0))));
        let (state, stats) = server.shutdown();
        assert_eq!((stats.requests, stats.deadline_shed), (1, 0));
        assert_eq!(state.digest().counters[1], 2);
    }

    #[test]
    fn an_injected_error_fails_only_its_own_request() {
        // All three are queued before the batcher starts, so they ride one
        // batch: the fault must not leak into its batch-mates.
        let (handle, start) = parked(BatchPolicy::with_max_batch(8));
        let a = handle.submit(Request::HashInsert { key: 1 });
        let b = handle.submit(Request::Fault(Fault::Error));
        let c = handle.submit(Request::HashInsert { key: 2 });
        let server = start();
        assert_eq!(a.wait(), Ok(Reply::Inserted(true)));
        assert_eq!(b.wait(), Err(ServiceError::Injected));
        assert_eq!(c.wait(), Ok(Reply::Inserted(true)));
        let (state, stats) = server.shutdown();
        assert_eq!((stats.batches, stats.max_batch), (1, 3));
        assert_eq!(stats.panicked_batches, 0);
        assert_eq!(state.digest().hash_keys, vec![1, 2]);
    }

    #[test]
    fn a_poisoned_batch_fails_only_the_poison_and_the_server_keeps_serving() {
        // All three ride one batch (queued before the batcher starts).
        let (handle, start) = parked(BatchPolicy::with_max_batch(8));
        let a = handle.submit(Request::HashInsert { key: 5 });
        let b = handle.submit(Request::Fault(Fault::Panic));
        let c = handle.submit(Request::CounterAdd {
            counter: 0,
            delta: 1,
        });
        let server = start();
        // The batch is rolled back and re-applied by bisection: only the
        // poison fails, its batch-mates get their real answers...
        assert_eq!(a.wait(), Ok(Reply::Inserted(true)));
        assert_eq!(b.wait(), Err(ServiceError::RequestPanicked));
        assert_eq!(c.wait(), Ok(Reply::Counter(0)));
        // ...and the batcher is alive and consistent afterwards.
        assert_eq!(
            handle.call(Request::HashInsert { key: 7 }),
            Ok(Reply::Inserted(true))
        );
        let (state, stats) = server.shutdown();
        assert_eq!((stats.batches, stats.max_batch), (2, 3));
        assert_eq!(stats.panicked_batches, 1);
        assert_eq!(stats.isolated_panics, 1);
        let digest = state.digest();
        // The innocents' effects survive; the panicked request's do not.
        assert_eq!(digest.hash_keys, vec![5, 7]);
        assert_eq!(digest.counters[0], 1);
    }

    #[test]
    fn submits_racing_a_shutdown_are_applied_or_refused_exactly_once() {
        // Four clients submit fetch-adds while `shutdown()` closes the
        // queue: a submit that got in before the close is drained and
        // applied, one after it is refused, and nothing is lost, applied
        // twice or left counted as outstanding.
        let add = Request::CounterAdd {
            counter: 0,
            delta: 1,
        };
        let mut rng = SmallRng::seed_from_u64(38);
        for round in 0..50 {
            let server = Server::spawn_with_pool(
                config(),
                BatchPolicy::with_max_batch(4),
                StepPool::with_threads(1),
            );
            let go = Arc::new(Barrier::new(5));
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    let (handle, go) = (server.handle(), Arc::clone(&go));
                    std::thread::spawn(move || {
                        go.wait();
                        (0..200).map(|_| handle.submit(add)).collect::<Vec<_>>()
                    })
                })
                .collect();
            // One fetch-add before the race, so the counter reads 1 plus
            // the applied racers, and their replies are 1, 2, ...
            let handle = server.handle();
            assert_eq!(handle.call(add), Ok(Reply::Counter(0)));
            go.wait();
            for _ in 0..rng.gen_range(0..20_000u32) {
                std::hint::spin_loop();
            }
            let (state, _) = server.shutdown();
            let mut olds = Vec::new();
            for ticket in clients.into_iter().flat_map(|c| c.join().unwrap()) {
                match ticket.wait_timeout(WEDGE) {
                    Some(Ok(Reply::Counter(old))) => olds.push(old),
                    Some(Err(ServiceError::ShuttingDown)) => {}
                    other => panic!("round {round}: a racing submit got {other:?}"),
                }
            }
            olds.sort_unstable();
            let applied = olds.len() as u64;
            assert_eq!(olds, (1..=applied).collect::<Vec<_>>(), "round {round}");
            assert_eq!(state.digest().counters[0], 1 + applied, "round {round}");
            assert_eq!(handle.outstanding(), 0, "round {round}");
        }
    }
}
