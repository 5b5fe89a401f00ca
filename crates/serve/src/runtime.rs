//! The serving runtime: submission queue, batcher loop, oneshot slots.
//!
//! No async runtime exists in this workspace (and none may be added), so
//! the service is built from `std` threads, mutexes and condvars:
//!
//! * clients push onto one shared `SubmissionQueue` — a mutex over a
//!   FIFO with a `closed` and a `parked` flag — bounded by admission
//!   control under its lock (see [`crate::BatchPolicy::queue_max`]); a
//!   push signals the queue's condvar only when the batcher is parked;
//! * a single **batcher thread** owns the [`ServiceState`] and loops: it
//!   swaps the whole queue out under the lock into a local backlog, cuts
//!   batches of at most [`BatchPolicy::max_batch`] from that, tops the
//!   backlog up from the queue when it runs dry, and closes a batch the
//!   moment nothing is queued — never waiting for more (see
//!   [`crate::policy`] for why batches still fill under load) — then
//!   applies the batch and completes every request's slot.  It parks only
//!   when the queue, the backlog and the batch are all empty;
//! * each request carries an `Arc`'d **oneshot slot**: a ready flag, and
//!   a mutex + condvar that the completion signals only when a client is
//!   parked on it; the client half is a [`Ticket`] that blocks on
//!   [`Ticket::wait`] (or bounds its own latency with
//!   [`Ticket::wait_timeout`], or polls the flag with [`Ticket::try_wait`]).
//!
//! The batcher meets the submitters once per batch, not once per request:
//! one lock to swap the queue out, and one `fetch_sub` that releases the
//! whole batch's admission before any of its replies.
//!
//! # Failure containment
//!
//! Before applying a batch, the batcher syncs its one reusable
//! [`ServiceCheckpoint`] — the machine's dirty-page shadow plus the hash
//! geometry (see [`ServiceState::checkpoint_into`]) — which costs
//! O(cells the previous batch wrote), not O(resident state).  The batch
//! then runs under
//! [`std::panic::catch_unwind`].  If it panics
//! ([`crate::request::Fault::Panic`] in decode,
//! [`crate::request::Fault::LatePanic`] after the machine steps, or any
//! future bug), the
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
//! submit time, under the submission queue's lock.
//!
//! # The exit guard
//!
//! If the batcher dies *outside* the containment above (abnormal death —
//! e.g. the injected [`crate::request::Fault::Crash`], which deliberately
//! panics before the checkpoint), the dying batch's envelopes are dropped
//! during unwinding, and the batcher's end of the queue — a guard
//! `run_batcher` owns — closes the queue, releases the admission of
//! everything still queued or in its backlog, and drops those envelopes
//! too.  `Envelope`'s `Drop` completes its slot with
//! [`ServiceError::ServerGone`], so no [`Ticket::wait`] ever wedges on a
//! dead server, and a submit after the crash is refused at once.
//!
//! # Shutdown
//!
//! `SubmissionQueue::close` refuses every later submit, and the batcher
//! drains what is already queued — every request already submitted is
//! applied (in policy-sized batches) and answered — until the queue is
//! closed and empty, then exits, returning the final state and cumulative
//! stats to whoever joins it (see `server.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use qrqw_exec::BatchCost;

use crate::metrics::ServiceStats;
use crate::policy::BatchPolicy;
use crate::request::{Fault, Request, Response, ServiceError};
use crate::state::{ServiceCheckpoint, ServiceState};

/// Completion state of a slot: the response (until the client takes it)
/// and the clients blocked on the condvar for it.
#[derive(Debug, Default)]
struct SlotState {
    response: Option<Response>,
    /// Clients parked on `ready`: a completion signals it only when this
    /// is non-zero.
    waiters: usize,
}

/// One-shot completion slot shared between a request's [`Ticket`] and the
/// batcher.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    inner: Mutex<SlotState>,
    ready: Condvar,
    /// Set (Release, under `inner`) when the response is stored, and never
    /// cleared, so late completers (e.g. the exit guard) can tell a
    /// consumed slot from a never-completed one without the lock, and a
    /// poll reads this word alone until the response is there.
    done: AtomicBool,
}

impl ResponseSlot {
    /// First completion wins; later calls (including the exit guard's
    /// `ServerGone`) are no-ops even after the client consumed the value.
    /// Only a client parked in [`Ticket::wait`] or [`Ticket::wait_timeout`]
    /// is signalled: answering a request nobody blocks on never enters the
    /// kernel.
    pub(crate) fn complete(&self, response: Response) {
        if self.done.load(Ordering::Acquire) {
            return;
        }
        let mut slot = self.inner.lock().unwrap();
        // `done` is only stored under this lock, so here it is exact.
        if self.done.load(Ordering::Relaxed) {
            return;
        }
        slot.response = Some(response);
        self.done.store(true, Ordering::Release);
        // `waiters` is counted under this lock, so a client either is
        // counted here (and signalled) or re-checks `response` after the
        // store above.
        if slot.waiters > 0 {
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
        self.wait_until(None)
            .expect("a wait without a deadline returns only with the response")
    }

    /// Blocks for at most `timeout`: `Some` with the response if it
    /// arrived in time, `None` on timeout.  The ticket stays live — a
    /// client can time out, do something else, and wait again; the
    /// response is not lost.  A `timeout` too large to add to the present
    /// instant blocks until the response arrives.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Response> {
        self.wait_until(Instant::now().checked_add(timeout))
    }

    /// Non-blocking poll; `Some` once the batch carrying this request has
    /// been applied.  Until then it reads the slot's ready flag alone, so a
    /// spinning client neither takes the lock nor writes the cache line
    /// the batcher is about to complete.
    pub fn try_wait(&self) -> Option<Response> {
        if !self.slot.done.load(Ordering::Acquire) {
            return None;
        }
        self.slot.inner.lock().unwrap().response.take()
    }

    /// The blocking loop behind [`Ticket::wait`] (`deadline` `None`) and
    /// [`Ticket::wait_timeout`]: the client counts itself in `waiters`
    /// around every condvar wait, so the completion knows to signal it.
    fn wait_until(&self, deadline: Option<Instant>) -> Option<Response> {
        let mut guard = self.slot.inner.lock().unwrap();
        loop {
            if let Some(resp) = guard.response.take() {
                return Some(resp);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return None;
            }
            guard.waiters += 1;
            guard = match left {
                None => self.slot.ready.wait(guard).unwrap(),
                Some(left) => self.slot.ready.wait_timeout(guard, left).unwrap().0,
            };
            guard.waiters -= 1;
        }
    }
}

/// A request travelling the submission queue with its completion slot and
/// its (optional) deadline.
///
/// The `Drop` impl is the **exit guard**: an envelope that dies unanswered
/// — the batcher panicked outside containment and unwinding dropped the
/// batch, or the queue's guard dropped what was still queued — resolves
/// its client to [`ServiceError::ServerGone`] instead of wedging
/// [`Ticket::wait`] forever.  On the normal path the slot was already
/// completed, so the guard is a no-op.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub(crate) request: Request,
    slot: Arc<ResponseSlot>,
    deadline: Option<Instant>,
}

impl Envelope {
    pub(crate) fn new(
        request: Request,
        slot: Arc<ResponseSlot>,
        deadline: Option<Instant>,
    ) -> Self {
        Envelope {
            request,
            slot,
            deadline,
        }
    }

    /// Answers the request.
    pub(crate) fn complete(self, response: Response) {
        self.slot.complete(response);
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

impl Drop for Envelope {
    fn drop(&mut self) {
        self.slot.complete(Err(ServiceError::ServerGone));
    }
}

/// What the submission queue's mutex guards.
#[derive(Debug, Default)]
struct QueueState {
    /// Admitted requests the batcher has not taken yet, in submission
    /// order.
    queued: VecDeque<Envelope>,
    /// Set by [`SubmissionQueue::close`] or the batcher's exit guard: every
    /// later push is refused.
    closed: bool,
    /// The batcher waits on `ready`: a push or a close signals the condvar
    /// only when this is set, and clears it.
    parked: bool,
}

/// The queue every [`crate::ServiceHandle`] clone shares with the batcher,
/// and the admission counters beside it.
#[derive(Debug)]
pub(crate) struct SubmissionQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// Admitted requests not yet taken into a batch: counted under the
    /// lock at admission, released by the batcher once per batch before
    /// any of its replies, or by the exit guard for what it drops.
    depth: AtomicUsize,
    /// Submits shed with [`ServiceError::Overloaded`].
    shed: AtomicU64,
    /// The bound on `depth` ([`BatchPolicy::queue_max`]).
    queue_max: usize,
}

impl SubmissionQueue {
    pub(crate) fn new(queue_max: usize) -> Self {
        SubmissionQueue {
            state: Mutex::default(),
            ready: Condvar::new(),
            depth: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            queue_max,
        }
    }

    /// The queue's state.  Every critical section leaves it whole, so a
    /// lock poisoned by a panic elsewhere on a holder's thread is ignored
    /// (and the exit guard can close the queue while unwinding).
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `env`, or answers it at once: [`ServiceError::ShuttingDown`]
    /// once the queue is closed, [`ServiceError::Overloaded`] (counted in
    /// the shed counter) when `queue_max` requests are already outstanding.
    /// A refused request holds no admission slot.
    pub(crate) fn push(&self, env: Envelope) {
        let mut state = self.lock();
        let refused = if state.closed {
            ServiceError::ShuttingDown
        } else if self.depth.load(Ordering::Acquire) >= self.queue_max {
            // Admission only grows under this lock, so the check is exact.
            self.shed.fetch_add(1, Ordering::Relaxed);
            ServiceError::Overloaded
        } else {
            self.depth.fetch_add(1, Ordering::AcqRel);
            state.queued.push_back(env);
            self.unlock_waking(state);
            return;
        };
        drop(state);
        env.complete(Err(refused));
    }

    /// Refuses every later push and wakes a parked batcher to drain what is
    /// already queued.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.unlock_waking(state);
    }

    /// Unlocks `state`, and signals the batcher if it is parked (clearing
    /// the flag, so one park costs one signal).
    fn unlock_waking(&self, mut state: MutexGuard<'_, QueueState>) {
        let parked = std::mem::take(&mut state.parked);
        drop(state);
        if parked {
            self.ready.notify_one();
        }
    }

    /// Admitted requests not yet taken into a batch.
    pub(crate) fn outstanding(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Submits shed with [`ServiceError::Overloaded`] so far.
    pub(crate) fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// The batcher's end of the [`SubmissionQueue`]: the backlog it cuts
/// batches from, and the queue's **exit guard**.  Dropping it — after the
/// drain, or while unwinding from a crash — closes the queue, releases the
/// admission of everything still queued or in the backlog, and drops those
/// envelopes, which answers their tickets [`ServiceError::ServerGone`].
struct Intake<'q> {
    queue: &'q SubmissionQueue,
    /// Requests taken from the queue in one swap and not yet cut into a
    /// batch, in submission order.
    backlog: VecDeque<Envelope>,
}

impl<'q> Intake<'q> {
    fn new(queue: &'q SubmissionQueue) -> Self {
        Intake {
            queue,
            backlog: VecDeque::new(),
        }
    }

    /// The next batch, in submission order: the backlog, topped up from
    /// the queue whenever it runs dry, up to `max_batch` requests, and
    /// closed the moment nothing is queued.  Parks only while the queue,
    /// the backlog and the batch are all empty; `None` once the queue is
    /// closed and empty.  The batch's admission is released before it is
    /// returned, so before any of its replies (the slot's `done` flag is
    /// stored with Release after this, and read with Acquire).
    fn next_batch(&mut self, max_batch: usize) -> Option<Vec<Envelope>> {
        let mut batch = Vec::new();
        'fill: while batch.len() < max_batch {
            if self.backlog.is_empty() {
                let mut state = self.queue.lock();
                while state.queued.is_empty() {
                    if !batch.is_empty() || state.closed {
                        break 'fill;
                    }
                    state.parked = true;
                    state = self
                        .queue
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                // O(1) under the lock: the queue gets the empty backlog's
                // buffer, and keeps its capacity across batches.
                std::mem::swap(&mut state.queued, &mut self.backlog);
            }
            let take = (max_batch - batch.len()).min(self.backlog.len());
            batch.extend(self.backlog.drain(..take));
        }
        if batch.is_empty() {
            return None;
        }
        self.queue.depth.fetch_sub(batch.len(), Ordering::AcqRel);
        Some(batch)
    }
}

impl Drop for Intake<'_> {
    fn drop(&mut self) {
        let queued = {
            let mut state = self.queue.lock();
            state.closed = true;
            std::mem::take(&mut state.queued)
        };
        let dropped = queued.len() + self.backlog.len();
        self.queue.depth.fetch_sub(dropped, Ordering::AcqRel);
        drop(queued);
        self.backlog.clear();
    }
}

/// Runs the batcher loop to completion: batches until the queue is closed
/// and drained.  Returns the final state and the cumulative stats; called
/// on the dedicated batcher thread.
pub(crate) fn run_batcher(
    mut state: ServiceState,
    policy: BatchPolicy,
    queue: Arc<SubmissionQueue>,
) -> (ServiceState, ServiceStats) {
    let policy = policy.normalized();
    let mut stats = ServiceStats::default();
    // Reused across batches: the pre-batch checkpoint buffer.  Its first
    // sync is the one full copy of the state; take it here so no request
    // pays for it (and the stats count per-batch checkpoints only).
    let mut ckpt = ServiceCheckpoint::default();
    state.checkpoint_into(&mut ckpt);
    let mut intake = Intake::new(&queue);
    while let Some(batch) = intake.next_batch(policy.max_batch) {
        apply_and_complete(&mut state, &mut stats, &mut ckpt, batch);
    }
    (state, stats)
}

/// Applies one batch — checkpoint, then [`apply`] under panic containment
/// — and completes every slot.
fn apply_and_complete(
    state: &mut ServiceState,
    stats: &mut ServiceStats,
    ckpt: &mut ServiceCheckpoint,
    batch: Vec<Envelope>,
) {
    // An injected crash kills the batcher thread *outside* the containment
    // below: it simulates abnormal server death, not a poisoned batch.
    // Unwinding drops this batch's envelopes, then `run_batcher`'s intake
    // guard drops the rest of the queue — every envelope answers
    // `ServerGone`.
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
    let (responses, cost, recovery_start) = apply(state, stats, ckpt, &requests);
    stats.record_batch(live.len(), cost);
    if let Some(start) = recovery_start {
        stats.panicked_batches += 1;
        stats.recovery_wall += start.elapsed();
    }
    debug_assert_eq!(responses.len(), live.len());
    for (env, resp) in live.into_iter().zip(responses) {
        env.complete(resp);
    }
}

/// Applies `requests` as one batch to `state`, whose checkpoint `ckpt` is
/// in sync with it: one response per request in order, what the applied
/// requests cost, and, if the batch panicked, when its recovery began.
///
/// On a panic the state is rolled back.  A lone request is then answered
/// [`ServiceError::RequestPanicked`]; a longer batch is split in
/// submission order and each half applied the same way, after the
/// checkpoint is re-synced to the state that half starts from (copying
/// only what the previous half wrote).  A half's own recovery moves `ckpt`
/// on, which is safe because nothing here restores it again.  Trace
/// determinism makes a half's replies those the whole batch would have
/// given, so every innocent request's response and effect are exactly
/// those of the trace with the poison removed.
fn apply(
    state: &mut ServiceState,
    stats: &mut ServiceStats,
    ckpt: &mut ServiceCheckpoint,
    requests: &[Request],
) -> (Vec<Response>, BatchCost, Option<Instant>) {
    if let Ok((responses, cost)) = catch_unwind(AssertUnwindSafe(|| state.apply_batch(requests))) {
        return (responses, cost, None);
    }
    let recovery_start = Instant::now();
    state.restore(ckpt);
    let mut responses = Vec::with_capacity(requests.len());
    let mut cost = BatchCost::default();
    if let [_] = requests {
        stats.isolated_panics += 1;
        responses.push(Err(ServiceError::RequestPanicked));
    } else {
        let mid = requests.len() / 2;
        for half in [&requests[..mid], &requests[mid..]] {
            state.checkpoint_into(ckpt);
            let (half_responses, half_cost, _) = apply(state, stats, ckpt, half);
            responses.extend(half_responses);
            cost += half_cost;
        }
    }
    (responses, cost, Some(recovery_start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Reply;
    use crate::state::ServiceConfig;
    use qrqw_exec::StepPool;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::hint::black_box;
    use std::sync::{mpsc, Barrier};
    use std::thread::JoinHandle;

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

    /// Generous bound for waits that must complete (as in `server.rs`): a
    /// lost wakeup fails the test rather than hanging it.
    const WEDGE: Duration = Duration::from_secs(30);

    /// Returns once a client is parked on `slot`'s condvar: counted in
    /// `waiters` under the lock it released by starting its wait.
    fn until_parked(slot: &ResponseSlot) {
        let started = Instant::now();
        while slot.inner.lock().unwrap().waiters == 0 {
            assert!(started.elapsed() < WEDGE, "the client never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn wait_timeout_past_the_clock_range_blocks_until_completion() {
        // `now + Duration::MAX` overflows `Instant`: such a wait has no
        // deadline.  On a completed ticket it returns at once...
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.complete(Err(ServiceError::Injected));
        assert_eq!(
            ticket.wait_timeout(Duration::MAX),
            Some(Err(ServiceError::Injected))
        );

        // ...and on a pending one it parks until the completion wakes it.
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let (tx, rx) = mpsc::channel();
        let client = std::thread::spawn(move || tx.send(ticket.wait_timeout(Duration::MAX)));
        until_parked(&slot);
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Empty));
        slot.complete(Err(ServiceError::Injected));
        assert_eq!(
            rx.recv_timeout(WEDGE),
            Ok(Some(Err(ServiceError::Injected)))
        );
        client.join().unwrap().unwrap();
    }

    #[test]
    fn a_blocked_waiter_is_always_woken() {
        // The completion signals only a counted waiter, so a client that
        // checks the slot just before the response lands must still be
        // counted before the completer looks.  Each round releases both
        // sides together and spins the completer a random 0-200 iterations,
        // so the completion lands before, during and after the client's
        // check-and-park.
        let (tickets, to_client) = mpsc::channel::<Ticket>();
        let (replies, from_client) = mpsc::channel();
        let go = Arc::new(Barrier::new(2));
        let client = {
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                for ticket in to_client {
                    go.wait();
                    replies.send(ticket.wait()).unwrap();
                }
            })
        };
        let mut rng = SmallRng::seed_from_u64(37);
        for round in 0..2000u64 {
            let slot = Arc::new(ResponseSlot::default());
            tickets.send(Ticket::new(Arc::clone(&slot))).unwrap();
            go.wait();
            for _ in 0..rng.gen_range(0..201u32) {
                std::hint::spin_loop();
            }
            slot.complete(Ok(Reply::Counter(round)));
            assert_eq!(
                from_client.recv_timeout(WEDGE),
                Ok(Ok(Reply::Counter(round))),
                "round {round}: the blocked client was never woken"
            );
        }
        drop(tickets);
        client.join().unwrap();
    }

    #[test]
    fn a_timed_out_waiter_leaves_no_stale_count_for_a_blocked_one() {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        assert_eq!(ticket.wait_timeout(Duration::from_millis(10)), None);
        assert_eq!(slot.inner.lock().unwrap().waiters, 0);
        // A second client parks on the same slot; the later completion
        // must count it and wake it.
        let (tx, rx) = mpsc::channel();
        let client = std::thread::spawn(move || tx.send(ticket.wait()));
        until_parked(&slot);
        slot.complete(Err(ServiceError::Injected));
        assert_eq!(rx.recv_timeout(WEDGE), Ok(Err(ServiceError::Injected)));
        client.join().unwrap().unwrap();
        assert_eq!(slot.inner.lock().unwrap().waiters, 0);
    }

    #[test]
    fn a_racing_poll_sees_the_response_exactly_once() {
        // A poller spins on `try_wait` while another thread completes the
        // slot and then fires the exit guard's late `ServerGone`: the poll
        // yields the real response once, and nothing after it.
        for round in 0..500u64 {
            let slot = Arc::new(ResponseSlot::default());
            let ticket = Ticket::new(Arc::clone(&slot));
            let go = Arc::new(Barrier::new(2));
            let completer = {
                let go = Arc::clone(&go);
                std::thread::spawn(move || {
                    go.wait();
                    slot.complete(Ok(Reply::Counter(round)));
                    slot.complete(Err(ServiceError::ServerGone));
                })
            };
            go.wait();
            let started = Instant::now();
            let response = loop {
                if let Some(response) = ticket.try_wait() {
                    break response;
                }
                assert!(started.elapsed() < WEDGE, "round {round}: never answered");
                std::hint::spin_loop();
            };
            assert_eq!(response, Ok(Reply::Counter(round)));
            completer.join().unwrap();
            assert_eq!(ticket.try_wait(), None, "round {round}: delivered twice");
        }
    }

    #[test]
    fn dropped_envelope_answers_server_gone() {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let env = Envelope::new(Request::TaskSteal, Arc::clone(&slot), None);
        drop(env);
        assert_eq!(ticket.wait(), Err(ServiceError::ServerGone));
    }

    #[test]
    fn exit_guard_does_not_override_a_real_completion() {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let env = Envelope::new(Request::TaskSteal, Arc::clone(&slot), None);
        // `complete` consumes the envelope, so the exit guard fires right
        // behind the real answer: the done flag must block it from
        // overwriting the slot with ServerGone.
        env.complete(Ok(Reply::TaskStolen(None)));
        assert_eq!(ticket.try_wait(), Some(Ok(Reply::TaskStolen(None))));
        // A late guard-style completion on the consumed slot is also inert.
        slot.complete(Err(ServiceError::ServerGone));
        assert_eq!(ticket.try_wait(), None);
    }

    /// Pushes a fetch-add of 1 on counter 0, so the replies are 0, 1, 2,
    /// ... exactly when they follow submission order.
    fn push_add(queue: &SubmissionQueue) -> Ticket {
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket::new(Arc::clone(&slot));
        let add = Request::CounterAdd {
            counter: 0,
            delta: 1,
        };
        queue.push(Envelope::new(add, slot, None));
        ticket
    }

    /// A batcher over `queue`, on a fresh one-thread state.
    fn start(
        queue: &Arc<SubmissionQueue>,
        max_batch: usize,
    ) -> JoinHandle<(ServiceState, ServiceStats)> {
        let queue = Arc::clone(queue);
        let state = ServiceState::with_pool(
            ServiceConfig {
                num_counters: 4,
                hash_capacity: 64,
                seed: 7,
            },
            StepPool::with_threads(1),
        );
        std::thread::spawn(move || {
            run_batcher(state, BatchPolicy::with_max_batch(max_batch), queue)
        })
    }

    /// Returns once the batcher is parked on `queue`'s condvar.
    fn until_batcher_parked(queue: &SubmissionQueue) {
        let started = Instant::now();
        while !queue.lock().parked {
            assert!(started.elapsed() < WEDGE, "the batcher never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_batch_is_what_the_queue_holds_up_to_max_batch() {
        fn replies(tickets: Vec<Ticket>) -> Vec<Response> {
            tickets.into_iter().map(Ticket::wait).collect()
        }
        fn counters(n: u64) -> Vec<Response> {
            (0..n).map(|old| Ok(Reply::Counter(old))).collect()
        }

        // Ten requests queued before the batcher starts: two full batches,
        // then the last two close the third when the queue runs empty.
        let queue = Arc::new(SubmissionQueue::new(usize::MAX));
        let tickets: Vec<_> = (0..10).map(|_| push_add(&queue)).collect();
        let batcher = start(&queue, 4);
        assert_eq!(replies(tickets), counters(10));
        queue.close();
        let (_, stats) = batcher.join().unwrap();
        assert_eq!((stats.batches, stats.max_batch, stats.requests), (3, 4, 10));

        // An idle batcher parks; a request pushed to it is a batch of its
        // own, answered without waiting for company.
        let queue = Arc::new(SubmissionQueue::new(usize::MAX));
        let batcher = start(&queue, 4);
        until_batcher_parked(&queue);
        assert_eq!(
            push_add(&queue).wait_timeout(WEDGE),
            Some(Ok(Reply::Counter(0)))
        );
        queue.close();
        let (_, stats) = batcher.join().unwrap();
        assert_eq!((stats.batches, stats.max_batch, stats.requests), (1, 1, 1));

        // A close with seven queued: the drain answers all seven, in
        // cap-sized batches, 4 | 3.
        let queue = Arc::new(SubmissionQueue::new(usize::MAX));
        let tickets: Vec<_> = (0..7).map(|_| push_add(&queue)).collect();
        queue.close();
        let (state, stats) = start(&queue, 4).join().unwrap();
        assert_eq!(replies(tickets), counters(7));
        assert_eq!((stats.batches, stats.max_batch, stats.requests), (2, 4, 7));
        assert_eq!(state.digest().counters[0], 7);
        assert_eq!(queue.outstanding(), 0);
    }

    #[test]
    fn a_poller_holding_its_reply_never_sees_its_request_outstanding() {
        // Admission is released once per batch, before the batch's first
        // reply: a lone client that has its last reply in hand must read
        // zero outstanding, every time.
        let queue = Arc::new(SubmissionQueue::new(usize::MAX));
        let batcher = start(&queue, 2);
        for round in 0..500u64 {
            let tickets: Vec<_> = (0..3).map(|_| push_add(&queue)).collect();
            let last = &tickets[2];
            let started = Instant::now();
            let response = loop {
                if let Some(response) = last.try_wait() {
                    break response;
                }
                assert!(started.elapsed() < WEDGE, "round {round}: never answered");
                std::hint::spin_loop();
            };
            assert_eq!(response, Ok(Reply::Counter(3 * round + 2)));
            assert_eq!(
                queue.outstanding(),
                0,
                "round {round}: a reply arrived before its admission was released"
            );
        }
        queue.close();
        assert_eq!(batcher.join().unwrap().1.requests, 1500);
    }

    #[test]
    fn the_exit_guard_releases_exactly_what_it_drops() {
        let queue = SubmissionQueue::new(usize::MAX);
        let tickets: Vec<_> = (0..10).map(|_| push_add(&queue)).collect();
        let mut intake = Intake::new(&queue);
        // The cut releases the batch's four; six wait in the backlog.
        let batch = intake.next_batch(4).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!((intake.backlog.len(), queue.outstanding()), (6, 6));
        let late: Vec<_> = (0..3).map(|_| push_add(&queue)).collect();
        assert_eq!(queue.outstanding(), 9);
        // The guard drops the backlog's six and the queue's three, and
        // releases exactly those.
        drop(intake);
        assert_eq!(queue.outstanding(), 0);
        for ticket in tickets[4..].iter().chain(&late) {
            assert_eq!(ticket.try_wait(), Some(Err(ServiceError::ServerGone)));
        }
        // The cut batch is not the guard's to answer.
        assert!(tickets[..4]
            .iter()
            .all(|ticket| ticket.try_wait().is_none()));
        // The queue is closed: a later push is refused and holds no slot.
        assert_eq!(
            push_add(&queue).try_wait(),
            Some(Err(ServiceError::ShuttingDown))
        );
        assert_eq!(queue.outstanding(), 0);
        drop(batch);
        for ticket in &tickets[..4] {
            assert_eq!(ticket.try_wait(), Some(Err(ServiceError::ServerGone)));
        }
        assert_eq!(queue.outstanding(), 0);
    }

    #[test]
    fn a_parked_batcher_is_always_woken() {
        // A push signals the condvar only when the batcher is parked, so a
        // push that lands while the batcher heads for its wait must still
        // find it flagged.  Each round's reply sends the batcher back
        // towards its park; the next push follows after a random 0-200
        // iteration spin, landing before, during and after it.
        let queue = Arc::new(SubmissionQueue::new(usize::MAX));
        let batcher = start(&queue, 4);
        let mut rng = SmallRng::seed_from_u64(38);
        for round in 0..2000u64 {
            for _ in 0..rng.gen_range(0..201u32) {
                std::hint::spin_loop();
            }
            assert_eq!(
                push_add(&queue).wait_timeout(WEDGE),
                Some(Ok(Reply::Counter(round))),
                "round {round}: the parked batcher was never woken"
            );
        }
        queue.close();
        assert_eq!(batcher.join().unwrap().1.requests, 2000);
    }

    /// The reply-cost gate: answering a request nobody waits on — the
    /// batcher's `complete`, the exit guard's second `complete` behind it,
    /// the client's `try_wait` — must stay within five lock/unlock pairs
    /// on uncontended mutexes.  Reads 2.1–2.4 on the 2-vCPU reference box
    /// with the flag and waiter count, as is and pinned; a completion that
    /// signals the condvar whether or not anyone waits pays a futex
    /// syscall per reply and read 14–17.  Both sides touch fresh memory per request, as the
    /// batcher does, and alternate, so a change of the host's speed meets
    /// both.  A timing test, so `#[ignore]`d; CI runs it in release, as is
    /// and pinned to one CPU:
    ///
    /// ```text
    /// cargo test --release -p qrqw-serve --lib -- --ignored --nocapture reply_cost
    /// taskset -c 0 cargo test --release -p qrqw-serve --lib -- --ignored --nocapture reply_cost
    /// ```
    #[test]
    #[ignore = "timing guard: run with --release -- --ignored"]
    fn reply_cost_stays_within_five_uncontended_lock_pairs() {
        if cfg!(debug_assertions) {
            panic!("the ratio is only meaningful in an optimized build: pass --release");
        }
        const SLOTS: usize = 1 << 14;
        let ns_per = |started: Instant| started.elapsed().as_secs_f64() * 1e9 / SLOTS as f64;
        let (mut reply, mut lock) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..7 {
            let tickets: Vec<Ticket> = (0..SLOTS).map(|_| Ticket::new(Arc::default())).collect();
            let started = Instant::now();
            for ticket in black_box(&tickets[..]) {
                ticket.slot.complete(Err(ServiceError::Injected));
                ticket.slot.complete(Err(ServiceError::ServerGone));
                assert_eq!(ticket.try_wait(), Some(Err(ServiceError::Injected)));
            }
            reply = reply.min(ns_per(started));

            let mutexes: Vec<Mutex<u64>> = (0..SLOTS).map(|_| Mutex::new(0)).collect();
            let started = Instant::now();
            for mutex in black_box(&mutexes[..]) {
                *mutex.lock().unwrap() += 1;
            }
            lock = lock.min(ns_per(started));
        }
        let ratio = reply / lock;
        println!("reply cost: {reply:.1} ns per request, lock pair {lock:.1} ns, ratio {ratio:.2}");
        assert!(
            ratio <= 5.0,
            "answering an unwaited request costs {ratio:.1}x an uncontended lock pair \
             (limit 5): does every completion signal the condvar again?"
        );
    }
}
