//! [`Server`]: spawn/submit/shutdown around the batcher runtime.
//!
//! A [`Server`] owns the batcher thread; any number of [`ServiceHandle`]
//! clones (one per client thread, typically) submit requests into its
//! queue and wait on [`Ticket`]s.  [`Server::shutdown`] drains the queue —
//! every already-submitted request is applied and answered — and returns
//! the final [`ServiceState`] (so tests can digest it) plus the cumulative
//! [`ServiceStats`].
//!
//! Admission control lives here, at the submit edge: the handle counts
//! outstanding requests (submitted, envelope not yet dropped) against
//! [`BatchPolicy::queue_max`] and sheds over-bound submits immediately
//! with [`ServiceError::Overloaded`] — the shed request is never enqueued
//! and definitely did not take effect.  Per-request deadlines
//! ([`ServiceHandle::submit_with_deadline`]) are stamped here and enforced
//! by the batcher when it reaches the request.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qrqw_exec::StepPool;

use crate::metrics::ServiceStats;
use crate::policy::BatchPolicy;
use crate::request::{Request, Response, ServiceError};
use crate::runtime::{run_batcher, Envelope, Msg, ResponseSlot, Ticket};
use crate::state::{ServiceConfig, ServiceState};

/// A clonable client endpoint of a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    tx: Sender<Msg>,
    closed: Arc<AtomicBool>,
    /// Outstanding requests: incremented at admission, decremented by the
    /// envelope's drop (whether answered, shed, or orphaned).
    depth: Arc<AtomicUsize>,
    /// Submits shed with [`ServiceError::Overloaded`]; folded into
    /// [`ServiceStats::overload_shed`] at shutdown.
    shed: Arc<AtomicU64>,
    queue_max: usize,
}

impl ServiceHandle {
    /// A handle enforcing `policy`'s admission bounds, and the queue it
    /// feeds (the batcher's end).
    fn with_queue(policy: &BatchPolicy) -> (ServiceHandle, Receiver<Msg>) {
        let (tx, rx) = channel();
        let handle = ServiceHandle {
            tx,
            closed: Arc::new(AtomicBool::new(false)),
            depth: Arc::new(AtomicUsize::new(0)),
            shed: Arc::new(AtomicU64::new(0)),
            queue_max: policy.queue_max,
        };
        (handle, rx)
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
        if self.closed.load(Ordering::Acquire) {
            slot.complete(Err(ServiceError::ShuttingDown));
            return ticket;
        }
        // Claim an admission slot before enqueueing; the envelope's drop
        // releases it, so "outstanding" spans queue + open batch +
        // in-flight application.
        if self.depth.fetch_add(1, Ordering::AcqRel) >= self.queue_max {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            slot.complete(Err(ServiceError::Overloaded));
            return ticket;
        }
        // A timeout past the clock's range is no deadline at all.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let env = Envelope::with_admission(
            request,
            Arc::clone(&slot),
            deadline,
            Arc::clone(&self.depth),
        );
        if let Err(send_err) = self.tx.send(Msg::Submit(env)) {
            // Racing a shutdown: recover the envelope and answer
            // ShuttingDown explicitly (its drop would otherwise claim
            // ServerGone, which is for abnormal death).
            let Msg::Submit(env) = send_err.0 else {
                unreachable!("submit sent a non-Submit message")
            };
            env.complete(Err(ServiceError::ShuttingDown));
        }
        ticket
    }

    /// Submits one request and blocks for its response.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Requests currently outstanding (submitted, not yet resolved).
    pub fn outstanding(&self) -> usize {
        self.depth.load(Ordering::Acquire)
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
        let (handle, rx) = ServiceHandle::with_queue(&policy);
        let join = std::thread::Builder::new()
            .name("qrqw-serve-batcher".into())
            .spawn(move || run_batcher(state, policy, rx))
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
        self.handle.closed.store(true, Ordering::Release);
        let _ = self.handle.tx.send(Msg::Shutdown);
        let (state, mut stats) = self
            .join
            .take()
            .expect("server already shut down")
            .join()
            .expect("batcher thread panicked outside a batch");
        stats.overload_shed = self.handle.shed.load(Ordering::Relaxed);
        (state, stats)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.handle.closed.store(true, Ordering::Release);
            let _ = self.handle.tx.send(Msg::Shutdown);
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Fault, Reply};

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
        let (handle, rx) = ServiceHandle::with_queue(&policy);
        let server_handle = handle.clone();
        let start = move || {
            let state = ServiceState::with_pool(config(), StepPool::with_threads(2));
            Server {
                handle: server_handle,
                join: Some(std::thread::spawn(move || run_batcher(state, policy, rx))),
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
        // Time passes with no traffic; an idle batcher must sit in `recv`,
        // not spin through empty batches and checkpoints.
        std::thread::sleep(Duration::from_millis(50));
        let (_state, stats) = server.shutdown();
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn round_trip_through_the_live_server() {
        let server = tiny();
        let h = server.handle();
        assert_eq!(
            h.call(Request::HashInsert { key: 42 }),
            Ok(Reply::Inserted(true))
        );
        assert_eq!(
            h.call(Request::HashLookup { key: 42 }),
            Ok(Reply::Found(true))
        );
        assert_eq!(
            h.call(Request::CounterAdd {
                counter: 0,
                delta: 3
            }),
            Ok(Reply::Counter(0))
        );
        assert_eq!(h.outstanding(), 0);
        let (state, stats) = server.shutdown();
        assert_eq!(stats.requests, 3);
        assert!(stats.batches >= 1);
        assert_eq!(stats.overload_shed, 0);
        assert_eq!(state.digest().hash_keys, vec![42]);
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
    fn submit_after_shutdown_resolves_immediately() {
        let server = tiny();
        let h = server.handle();
        let (_, _) = server.shutdown();
        assert_eq!(
            h.call(Request::HashInsert { key: 1 }),
            Err(ServiceError::ShuttingDown)
        );
        // A post-shutdown submit holds no admission slot.
        assert_eq!(h.outstanding(), 0);
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
        // Late submits resolve immediately too.
        assert_eq!(
            handle.call(Request::TaskSteal),
            Err(ServiceError::ShuttingDown)
        );
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
}
