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
//! ([`BatchPolicy::deadline`], or [`ServiceHandle::submit_with_deadline`])
//! are stamped here and enforced by the batcher when it reaches the
//! request.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
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
    deadline: Option<Duration>,
}

impl ServiceHandle {
    /// Submits one request; returns immediately with a [`Ticket`] for the
    /// response.  The policy's default deadline (if any) applies.  After
    /// shutdown the ticket resolves at once to
    /// [`ServiceError::ShuttingDown`]; past the queue bound it resolves at
    /// once to [`ServiceError::Overloaded`].
    pub fn submit(&self, request: Request) -> Ticket {
        self.submit_inner(request, self.deadline)
    }

    /// Submits one request with an explicit deadline, overriding the
    /// policy default.  If the batcher does not reach the request within
    /// `timeout` of now, it is answered [`ServiceError::DeadlineExceeded`]
    /// without touching the machine.
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
        let deadline = timeout.map(|t| Instant::now() + t);
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
    /// Spawns a server whose machine resolves its thread count from the
    /// environment (`QRQW_THREADS`).
    pub fn spawn(config: ServiceConfig, policy: BatchPolicy) -> Server {
        Self::spawn_with_pool(config, policy, StepPool::from_env())
    }

    /// Spawns a server with an explicit machine dispatch policy.
    pub fn spawn_with_pool(config: ServiceConfig, policy: BatchPolicy, pool: StepPool) -> Server {
        Self::spawn_with_state(ServiceState::with_pool(config, pool), policy)
    }

    /// Spawns a server over an already-populated state (e.g. one preloaded
    /// by direct [`ServiceState::apply_batch`] calls), so the returned
    /// stats cover served traffic only.
    pub fn spawn_with_state(state: ServiceState, policy: BatchPolicy) -> Server {
        let policy = policy.normalized();
        let (tx, rx) = channel();
        let join = std::thread::Builder::new()
            .name("qrqw-serve-batcher".into())
            .spawn(move || run_batcher(state, policy, rx))
            .expect("failed to spawn the batcher thread");
        Server {
            handle: ServiceHandle {
                tx,
                closed: Arc::new(AtomicBool::new(false)),
                depth: Arc::new(AtomicUsize::new(0)),
                shed: Arc::new(AtomicU64::new(0)),
                queue_max: policy.queue_max,
                deadline: policy.deadline,
            },
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
    use crate::request::Reply;

    fn tiny() -> Server {
        Server::spawn_with_pool(
            ServiceConfig {
                num_counters: 4,
                task_procs: 4,
                hash_capacity: 64,
                seed: 7,
            },
            BatchPolicy::with_max_batch(4),
            StepPool::with_threads(2),
        )
    }

    #[test]
    fn idle_batcher_blocks_and_performs_zero_snapshots() {
        use std::time::Duration;
        let linger = Duration::from_millis(5);
        let server = Server::spawn_with_pool(
            ServiceConfig {
                num_counters: 4,
                task_procs: 4,
                hash_capacity: 64,
                seed: 7,
            },
            BatchPolicy::with_max_batch(4).linger(linger),
            StepPool::with_threads(1),
        );
        // Many linger windows pass with no traffic; an idle batcher must
        // sit in `recv`, not spin through empty batches and checkpoints.
        std::thread::sleep(linger * 10);
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
}
