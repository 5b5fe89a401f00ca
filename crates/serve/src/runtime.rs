//! The serving runtime: submission queue, batcher loop, oneshot slots.
//!
//! No async runtime exists in this workspace (and none may be added), so
//! the service is built from `std` threads and channels:
//!
//! * clients submit over a shared [`std::sync::mpsc`] channel (the
//!   **submission queue**), bounded by the admission control in
//!   `server.rs` (see [`crate::BatchPolicy::queue_max`]);
//! * a single **batcher thread** owns the [`ServiceState`] and loops:
//!   block for the first request, take whatever is already queued behind
//!   it up to [`BatchPolicy::max_batch`] — never waiting for more (see
//!   [`crate::policy`] for why batches still fill under load) — apply the
//!   batch, complete every request's slot;
//! * each request carries an `Arc`'d **oneshot slot** (mutex + condvar);
//!   the client half is a [`Ticket`] that blocks on [`Ticket::wait`]
//!   (or bounds its own latency with [`Ticket::wait_timeout`]).
//!
//! # Failure containment
//!
//! Before applying a batch, the batcher syncs its one reusable
//! [`ServiceCheckpoint`] — the machine's dirty-page shadow plus the hash
//! geometry (see [`ServiceState::checkpoint_into`]) — which costs
//! O(cells the previous batch wrote), not O(resident state).  The batch
//! then runs under
//! [`std::panic::catch_unwind`].  If it panics
//! ([`crate::request::Fault::Panic`], or any future bug in decode), the
//! batcher **rolls the state back** to the checkpoint and re-applies the
//! batch by **bisection replay**: halves are re-applied in submission
//! order (trace determinism makes sub-batch replies identical to the
//! original batch's would-have-been replies), recursing on any half that
//! panics until each poisoned request stands alone (every level re-syncs
//! the same checkpoint buffer, so recovery never copies the resident state
//! either).  The poisoned
//! request(s) are answered [`ServiceError::RequestPanicked`] — and
//! *definitely did not* take effect — while every innocent request in the
//! batch receives its real answer, exactly as if the poison had never been
//! submitted.  The `AssertUnwindSafe` is justified by the rollback: a
//! torn `&mut ServiceState` is never observed, because the only thing done
//! with it after a panic is restoring the checkpoint.
//!
//! A client that drops its [`Ticket`] (disconnects mid-batch) is harmless:
//! completion writes into the shared slot and nobody reads it; the batcher
//! never blocks on clients.
//!
//! # Admission control
//!
//! A request whose deadline (see `ServiceHandle::submit_with_deadline`)
//! has already expired when the batcher reaches it is answered
//! [`ServiceError::DeadlineExceeded`] without touching the machine — it is
//! not part of the applied trace.
//! Queue-bound shedding ([`ServiceError::Overloaded`]) happens earlier, at
//! submit time, in `server.rs`.
//!
//! # The exit guard
//!
//! If the batcher dies *outside* the containment above (abnormal death —
//! e.g. the injected [`crate::request::Fault::Crash`], which deliberately
//! panics before the checkpoint), every `Envelope` still alive (in the
//! dying batch, or queued behind it) is dropped during unwinding, and
//! `Envelope`'s `Drop` completes its slot with
//! [`ServiceError::ServerGone`].  No [`Ticket::wait`] ever wedges on a
//! dead server.
//!
//! # Shutdown
//!
//! A shutdown message (`Msg::Shutdown`) makes the batcher drain the queue
//! — every request
//! already submitted is applied (in policy-sized batches) and answered —
//! then exit, returning the final state and cumulative stats to whoever
//! joins it (see `server.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qrqw_exec::BatchCost;

use crate::metrics::ServiceStats;
use crate::policy::BatchPolicy;
use crate::request::{Fault, Request, Response, ServiceError};
use crate::state::{ServiceCheckpoint, ServiceState};

/// Completion state of a slot: the response (until the client takes it)
/// and a latch recording that *some* completion happened, so late
/// completers (e.g. the exit guard) can tell a consumed slot from a
/// never-completed one.
#[derive(Debug, Default)]
struct SlotState {
    response: Option<Response>,
    completed: bool,
}

/// One-shot completion slot shared between a request's [`Ticket`] and the
/// batcher.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    inner: Mutex<SlotState>,
    ready: Condvar,
}

impl ResponseSlot {
    /// First completion wins; later calls (including the exit guard's
    /// `ServerGone`) are no-ops even after the client consumed the value.
    pub(crate) fn complete(&self, response: Response) {
        let mut slot = self.inner.lock().unwrap();
        if !slot.completed {
            slot.completed = true;
            slot.response = Some(response);
            self.ready.notify_all();
        }
    }
}

/// The client half of a submitted request: blocks until the batcher
/// completes the request's slot.  Dropping a ticket abandons the response
/// without affecting the server.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    pub(crate) fn new(slot: Arc<ResponseSlot>) -> Self {
        Ticket { slot }
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> Response {
        let mut guard = self.slot.inner.lock().unwrap();
        loop {
            if let Some(resp) = guard.response.take() {
                return resp;
            }
            guard = self.slot.ready.wait(guard).unwrap();
        }
    }

    /// Blocks for at most `timeout`: `Some` with the response if it
    /// arrived in time, `None` on timeout.  The ticket stays live — a
    /// client can time out, do something else, and wait again; the
    /// response is not lost.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Response> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.slot.inner.lock().unwrap();
        loop {
            if let Some(resp) = guard.response.take() {
                return Some(resp);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            guard = self.slot.ready.wait_timeout(guard, left).unwrap().0;
        }
    }

    /// Non-blocking poll; `Some` once the batch carrying this request has
    /// been applied.
    pub fn try_wait(&self) -> Option<Response> {
        self.slot.inner.lock().unwrap().response.take()
    }
}

/// A request travelling the submission queue with its completion slot, its
/// (optional) deadline, and its slot in the bounded queue.
///
/// The `Drop` impl is the **exit guard**: an envelope that dies unanswered
/// — the batcher panicked outside containment and unwinding dropped the
/// batch and the queue — resolves its client to
/// [`ServiceError::ServerGone`] instead of wedging [`Ticket::wait`]
/// forever.  On the normal path the slot was already completed, so the
/// guard is a no-op; either way the envelope releases the admission slot
/// it holds in the bounded queue.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub(crate) request: Request,
    slot: Arc<ResponseSlot>,
    deadline: Option<Instant>,
    depth: Option<Arc<AtomicUsize>>,
}

impl Envelope {
    #[cfg(test)]
    pub(crate) fn new(request: Request, slot: Arc<ResponseSlot>) -> Self {
        Envelope {
            request,
            slot,
            deadline: None,
            depth: None,
        }
    }

    pub(crate) fn with_admission(
        request: Request,
        slot: Arc<ResponseSlot>,
        deadline: Option<Instant>,
        depth: Arc<AtomicUsize>,
    ) -> Self {
        Envelope {
            request,
            slot,
            deadline,
            depth: Some(depth),
        }
    }

    /// Answers the request and releases its admission slot.  The release
    /// happens *before* the slot completion: a client that has its reply
    /// in hand must never observe its own request still counted as
    /// outstanding (the reply delivery synchronizes through the slot's
    /// mutex, so the decrement is visible to the woken client).
    pub(crate) fn complete(mut self, response: Response) {
        if let Some(depth) = self.depth.take() {
            depth.fetch_sub(1, Ordering::AcqRel);
        }
        self.slot.complete(response);
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

impl Drop for Envelope {
    fn drop(&mut self) {
        if let Some(depth) = self.depth.take() {
            depth.fetch_sub(1, Ordering::AcqRel);
        }
        self.slot.complete(Err(ServiceError::ServerGone));
    }
}

/// Submission-queue message.
#[derive(Debug)]
pub(crate) enum Msg {
    /// A client request.
    Submit(Envelope),
    /// Drain the queue, answer everything, and exit.
    Shutdown,
}

/// Runs the batcher loop to completion.  Returns the final state and the
/// cumulative stats; called on the dedicated batcher thread.
pub(crate) fn run_batcher(
    mut state: ServiceState,
    policy: BatchPolicy,
    rx: Receiver<Msg>,
) -> (ServiceState, ServiceStats) {
    let policy = policy.normalized();
    let mut stats = ServiceStats::default();
    // Reused across batches: the pre-batch checkpoint buffer.  Its first
    // sync is the one full copy of the state; take it here so no request
    // pays for it (and the stats count per-batch checkpoints only).
    let mut ckpt = ServiceCheckpoint::default();
    state.checkpoint_into(&mut ckpt);
    // After a shutdown the batcher stops blocking and drains: it takes
    // cap-sized batches from what is queued until the queue is empty.
    let mut draining = false;
    loop {
        let mut batch = Vec::new();
        if !draining {
            // Block for the batch's first request.
            match rx.recv() {
                Ok(Msg::Submit(env)) => batch.push(env),
                Ok(Msg::Shutdown) | Err(_) => draining = true,
            }
        }
        // Take what is already queued, without waiting for more: the batch
        // closes when the queue is empty, the cap is reached, or a shutdown
        // arrives.
        while batch.len() < policy.max_batch {
            match rx.try_recv() {
                Ok(Msg::Submit(env)) => batch.push(env),
                Ok(Msg::Shutdown) if draining => {}
                Ok(Msg::Shutdown) | Err(TryRecvError::Disconnected) => {
                    draining = true;
                    break;
                }
                Err(TryRecvError::Empty) => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        apply_and_complete(&mut state, &mut stats, &mut ckpt, batch);
    }
    (state, stats)
}

/// Applies one batch — checkpoint, apply under panic containment, roll
/// back and bisect on panic — and completes every slot.
fn apply_and_complete(
    state: &mut ServiceState,
    stats: &mut ServiceStats,
    ckpt: &mut ServiceCheckpoint,
    batch: Vec<Envelope>,
) {
    // An injected crash kills the batcher thread *outside* the containment
    // below: it simulates abnormal server death, not a poisoned batch.
    // Unwinding drops this batch's envelopes and (when the thread closure
    // unwinds) the queue's — every exit guard answers `ServerGone`.
    if batch
        .iter()
        .any(|env| env.request == Request::Fault(Fault::Crash))
    {
        panic!("qrqw-serve: injected batcher crash");
    }
    // Deadline admission: expired requests are answered without touching
    // the machine and are not part of the applied trace.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for env in batch {
        if env.expired(now) {
            stats.deadline_shed += 1;
            env.complete(Err(ServiceError::DeadlineExceeded));
        } else {
            live.push(env);
        }
    }
    if live.is_empty() {
        return;
    }
    let requests: Vec<Request> = live.iter().map(|env| env.request).collect();
    // Checkpoint first: the rollback substrate that turns "may or may not
    // have taken effect" into "definitely not".
    let snap_start = Instant::now();
    stats.snapshot_cells += state.checkpoint_into(ckpt) as u64;
    stats.snapshots += 1;
    stats.snapshot_wall += snap_start.elapsed();
    match catch_unwind(AssertUnwindSafe(|| state.apply_batch(&requests))) {
        Ok((responses, cost)) => {
            stats.record_batch(live.len(), cost);
            debug_assert_eq!(responses.len(), live.len());
            for (env, resp) in live.into_iter().zip(responses) {
                env.complete(resp);
            }
        }
        Err(_) => {
            let recovery_start = Instant::now();
            stats.panicked_batches += 1;
            state.restore(ckpt);
            let mut responses = Vec::with_capacity(requests.len());
            let mut cost = BatchCost::default();
            isolate(state, stats, ckpt, &requests, &mut responses, &mut cost);
            debug_assert_eq!(responses.len(), live.len());
            stats.record_batch(live.len(), cost);
            stats.recovery_wall += recovery_start.elapsed();
            for (env, resp) in live.into_iter().zip(responses) {
                env.complete(resp);
            }
        }
    }
}

/// Bisection replay.  Precondition: applying `requests` as one batch
/// panicked, and the state has been rolled back to just before that
/// attempt.  Splits the batch in submission order — trace determinism
/// makes sub-batch replies identical to the original batch's
/// would-have-been replies — recursing on any half that panics, until each
/// poisoned request stands alone and is answered
/// [`ServiceError::RequestPanicked`].  Every innocent request's response
/// and effect are exactly those of the trace with the poison removed.
///
/// `ckpt` is the batcher's one checkpoint buffer: in sync with the state on
/// entry (it was just restored), so every re-sync below copies only what
/// the previous half wrote.  A recursion supersedes the caller's checkpoint,
/// which is fine — the caller never restores it again, it moves on to the
/// next half and syncs anew.
fn isolate(
    state: &mut ServiceState,
    stats: &mut ServiceStats,
    ckpt: &mut ServiceCheckpoint,
    requests: &[Request],
    responses: &mut Vec<Response>,
    cost: &mut BatchCost,
) {
    if requests.len() == 1 {
        stats.isolated_panics += 1;
        responses.push(Err(ServiceError::RequestPanicked));
        return;
    }
    let mid = requests.len() / 2;
    for half in [&requests[..mid], &requests[mid..]] {
        state.checkpoint_into(ckpt);
        match catch_unwind(AssertUnwindSafe(|| state.apply_batch(half))) {
            Ok((resp, c)) => {
                *cost += c;
                responses.extend(resp);
            }
            Err(_) => {
                state.restore(ckpt);
                isolate(state, stats, ckpt, half, responses, cost);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_returns_a_completed_response() {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        assert!(ticket.try_wait().is_none());
        slot.complete(Err(ServiceError::Injected));
        assert_eq!(ticket.wait(), Err(ServiceError::Injected));
    }

    #[test]
    fn first_completion_wins() {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.complete(Err(ServiceError::Injected));
        slot.complete(Err(ServiceError::ShuttingDown));
        assert_eq!(ticket.wait(), Err(ServiceError::Injected));
    }

    #[test]
    fn ticket_wait_blocks_until_completion() {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let completer = Arc::clone(&slot);
        let t = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        completer.complete(Err(ServiceError::Injected));
        assert_eq!(t.join().unwrap(), Err(ServiceError::Injected));
    }

    #[test]
    fn wait_timeout_times_out_then_still_receives() {
        // Timeout-then-complete ordering: an expired wait does not consume
        // or poison the slot; a later completion still reaches the client.
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let started = Instant::now();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(20)), None);
        assert!(started.elapsed() >= Duration::from_millis(20));
        slot.complete(Err(ServiceError::Injected));
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(5)),
            Some(Err(ServiceError::Injected))
        );
    }

    #[test]
    fn wait_timeout_returns_immediately_when_already_complete() {
        // Complete-then-wait ordering: no blocking, even with a zero
        // timeout.
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.complete(Err(ServiceError::Injected));
        assert_eq!(
            ticket.wait_timeout(Duration::ZERO),
            Some(Err(ServiceError::Injected))
        );
        // Consumed: a second wait times out rather than double-delivering.
        assert_eq!(ticket.wait_timeout(Duration::ZERO), None);
    }

    #[test]
    fn dropped_envelope_answers_server_gone() {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let env = Envelope::new(Request::TaskSteal, Arc::clone(&slot));
        drop(env);
        assert_eq!(ticket.wait(), Err(ServiceError::ServerGone));
    }

    #[test]
    fn exit_guard_does_not_override_a_real_completion() {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let env = Envelope::new(Request::TaskSteal, Arc::clone(&slot));
        // `complete` consumes the envelope, so the exit guard fires right
        // behind the real answer: the completed latch must block it from
        // overwriting the slot with ServerGone.
        env.complete(Ok(crate::request::Reply::TaskStolen(None)));
        assert_eq!(
            ticket.try_wait(),
            Some(Ok(crate::request::Reply::TaskStolen(None)))
        );
        // A late guard-style completion on the consumed slot is also inert.
        slot.complete(Err(ServiceError::ServerGone));
        assert_eq!(ticket.try_wait(), None);
    }

    #[test]
    fn envelope_completion_releases_its_admission_slot_before_replying() {
        let depth = Arc::new(AtomicUsize::new(1));
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let env = Envelope::with_admission(
            Request::TaskSteal,
            Arc::clone(&slot),
            None,
            Arc::clone(&depth),
        );
        env.complete(Err(ServiceError::Injected));
        // The client holds the reply; its request must no longer count as
        // outstanding.
        assert_eq!(ticket.wait(), Err(ServiceError::Injected));
        assert_eq!(depth.load(Ordering::Acquire), 0);
    }

    #[test]
    fn envelope_drop_releases_its_admission_slot() {
        let depth = Arc::new(AtomicUsize::new(1));
        let slot = Arc::new(ResponseSlot::default());
        let env = Envelope::with_admission(
            Request::TaskSteal,
            Arc::clone(&slot),
            None,
            Arc::clone(&depth),
        );
        drop(env);
        assert_eq!(depth.load(Ordering::Acquire), 0);
    }

    #[test]
    fn a_batch_is_what_the_queue_holds_up_to_max_batch() {
        use crate::request::Reply;
        use crate::state::ServiceConfig;
        use qrqw_exec::StepPool;
        use std::sync::mpsc::{channel, Sender};
        use std::thread::spawn;

        // Every request is a fetch-add on counter 0, so the replies are
        // 0, 1, 2, ... exactly when they follow submission order.
        fn submit(tx: &Sender<Msg>) -> Ticket {
            let slot = Arc::new(ResponseSlot::default());
            let ticket = Ticket::new(Arc::clone(&slot));
            let add = Request::CounterAdd {
                counter: 0,
                delta: 1,
            };
            tx.send(Msg::Submit(Envelope::new(add, slot))).unwrap();
            ticket
        }
        fn replies(tickets: Vec<Ticket>, from: u64) {
            for (i, ticket) in (from..).zip(tickets) {
                assert_eq!(ticket.wait(), Ok(Reply::Counter(i)));
            }
        }
        let policy = BatchPolicy::with_max_batch(4);
        let start = |state, rx| spawn(move || run_batcher(state, policy, rx));
        let state = ServiceState::with_pool(
            ServiceConfig {
                num_counters: 4,
                hash_capacity: 64,
                seed: 7,
            },
            StepPool::with_threads(1),
        );

        // Ten requests queued before the batcher starts: two full batches,
        // then the last two close the third when the queue runs empty.
        let (tx, rx) = channel();
        let tickets: Vec<_> = (0..10).map(|_| submit(&tx)).collect();
        let batcher = start(state, rx);
        replies(tickets, 0);
        drop(tx);
        let (state, stats) = batcher.join().unwrap();
        assert_eq!((stats.batches, stats.max_batch, stats.requests), (3, 4, 10));

        // An idle batcher blocks in `recv`; a request sent to it is a batch
        // of its own, answered without waiting for company.
        let (tx, rx) = channel();
        let batcher = start(state, rx);
        assert_eq!(submit(&tx).wait(), Ok(Reply::Counter(10)));
        tx.send(Msg::Shutdown).unwrap();
        let (state, stats) = batcher.join().unwrap();
        assert_eq!((stats.batches, stats.max_batch, stats.requests), (1, 1, 1));

        // A `Shutdown` queued behind two requests ends their fill; the five
        // behind it are drained in cap-sized batches: 2 | 4 + 1.
        let (tx, rx) = channel();
        let mut tickets: Vec<_> = (0..2).map(|_| submit(&tx)).collect();
        tx.send(Msg::Shutdown).unwrap();
        tickets.extend((0..5).map(|_| submit(&tx)));
        let (state, stats) = start(state, rx).join().unwrap();
        replies(tickets, 11);
        assert_eq!((stats.batches, stats.max_batch, stats.requests), (3, 4, 7));
        assert_eq!(state.digest().counters[0], 18);
    }
}
