//! The service's request/response vocabulary.
//!
//! Three workloads; the first two are backed by a paper algorithm running
//! on the shared persistent machine:
//!
//! * **hash** — set membership over 31-bit keys (§6 hashing: inserts are
//!   occupy-mode cell claims along a per-key probe sequence, lookups are
//!   one parallel probe step);
//! * **counter** — named counters (§7.3: a batch of adds/reads is one
//!   emulated Fetch&Add step, Lemma 7.5);
//! * **task** — a FIFO task pool kept on the host: submits and steals run
//!   no machine step and cost nothing in a batch's machine cost.
//!
//! Every request receives exactly one [`Response`].  The reply semantics
//! are **trace-deterministic**: what a request observes depends only on
//! the requests that preceded it in submission order, never on how the
//! batcher happened to cut batches (see `crates/serve/tests/conformance.rs`,
//! which checks this against a sequential oracle).

/// Upper bound (exclusive) for hash-workload keys: the field size of the
/// §6 hash functions.  Re-exported from `qrqw_core::hashing::HASH_PRIME`.
pub const MAX_KEY: u64 = qrqw_core::hashing::HASH_PRIME;

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Insert `key` into the hash set.  Replies [`Reply::Inserted`] with
    /// `true` iff no earlier request had inserted the key.
    HashInsert {
        /// The key to insert; must be `< MAX_KEY`.
        key: u64,
    },
    /// Membership query.  Replies [`Reply::Found`]: `true` iff some earlier
    /// request inserted the key.
    HashLookup {
        /// The key to look up; must be `< MAX_KEY`.
        key: u64,
    },
    /// Alias of [`Request::HashLookup`] kept as a distinct wire operation
    /// (some clients phrase membership as `contains`); identical semantics.
    HashContains {
        /// The key to test; must be `< MAX_KEY`.
        key: u64,
    },
    /// Remove `key` from the hash set.  Replies [`Reply::Removed`] with
    /// `true` iff the key was present at this point of the trace (i.e. some
    /// earlier insert is not yet cancelled by an earlier delete).  The
    /// machine-resident table tombstones the key's cell and purges
    /// tombstones on growth (see `qrqw_core::open_table`).
    HashDelete {
        /// The key to remove; must be `< MAX_KEY`.
        key: u64,
    },
    /// Atomically add `delta` to counter `counter`.  Replies
    /// [`Reply::Counter`] with the value the counter held just before this
    /// request's addition (Fetch&Add semantics).
    ///
    /// A counter holds at most `u64::MAX - 1` (`u64::MAX` is the machine's
    /// `EMPTY`, an untouched cell).  An add whose `delta` is `>= 2^32`, or
    /// whose result would pass `u64::MAX - 1` at its trace position, is
    /// refused with [`ServiceError::CounterOverflow`] and has no effect, in
    /// every build and under every batch cut.  The 2^32 bound keeps a
    /// batch's delta total below 2^63 inside the Fetch&Add step; the
    /// ceiling is judged from one host read of the pre-batch cell of each
    /// counter the batch adds to, which runs no machine step.
    CounterAdd {
        /// Counter index; must be below the service's counter count.
        counter: usize,
        /// Amount to add; must be below 2^32.
        delta: u64,
    },
    /// Read counter `counter` (a zero-delta Fetch&Add).  Replies
    /// [`Reply::Counter`] with the sum of all earlier adds.
    CounterRead {
        /// Counter index; must be below the service's counter count.
        counter: usize,
    },
    /// Submit a task.  Replies [`Reply::TaskQueued`] with the task's
    /// globally unique FIFO sequence number.
    TaskSubmit {
        /// Opaque task payload.
        payload: u64,
    },
    /// Steal (pop) the oldest pending task.  Replies [`Reply::TaskStolen`]
    /// with `Some((seq, payload))`, or `None` if no task submitted by an
    /// earlier request is still pending.
    TaskSteal,
    /// Fault injection, for the error-path tests: the service must survive
    /// these without wedging the batcher thread.
    Fault(Fault),
}

/// Kinds of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The request itself fails with [`ServiceError::Injected`]; the rest
    /// of its batch is unaffected.
    Error,
    /// Batch application panics while this request is being decoded.  The
    /// batcher rolls the service back to its pre-batch checkpoint and
    /// replays the batch by bisection, so *only this request* fails — with
    /// [`ServiceError::RequestPanicked`] — every innocent request in the
    /// batch gets its real answer, and no effect of the panicked attempt
    /// survives.  (Direct `apply_batch` callers see the panic itself.)
    Panic,
    /// Like [`Fault::Panic`], but batch application panics after the
    /// batch's machine steps and host mutations have run, so only the
    /// batcher's rollback to the pre-batch checkpoint undoes them.
    LatePanic,
    /// The batcher thread dies abnormally — outside its panic containment,
    /// with no rollback.  This simulates a crashed server rather than a
    /// poisoned request: every outstanding request, including this one,
    /// resolves to [`ServiceError::ServerGone`] via the envelope exit
    /// guard instead of wedging its client.
    Crash,
}

/// The payload of a successful response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// Hash insert: `true` iff the key was newly inserted.
    Inserted(bool),
    /// Hash delete: `true` iff the key was present and is now removed.
    Removed(bool),
    /// Hash lookup / contains verdict.
    Found(bool),
    /// Counter value observed just before this request's (possibly zero)
    /// addition.
    Counter(u64),
    /// Task submitted; carries its FIFO sequence number.
    TaskQueued(u64),
    /// Steal outcome: the oldest pending `(seq, payload)`, if any.
    TaskStolen(Option<(u64, u64)>),
}

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// Hash key is `>= MAX_KEY`.
    KeyOutOfRange(u64),
    /// Counter index is out of range for the service's configuration.
    UnknownCounter(usize),
    /// A [`Request::CounterAdd`] on this counter was refused: its delta is
    /// `>= 2^32`, or the sum would pass `u64::MAX - 1`.  The add did not
    /// take effect.
    CounterOverflow(usize),
    /// The request was a [`Fault::Error`] injection.
    Injected,
    /// This request made batch application panic.  The batcher restored
    /// the pre-batch checkpoint and replayed the batch by bisection, so
    /// the request **definitely did not** take effect — and every other
    /// request in its batch got its real answer.
    RequestPanicked,
    /// Shed at admission: the service already holds
    /// [`crate::BatchPolicy::queue_max`] outstanding requests.  The request
    /// was never enqueued and definitely did not take effect.
    Overloaded,
    /// The request's deadline expired before its batch was applied; it was
    /// answered without touching the machine and definitely did not take
    /// effect.
    DeadlineExceeded,
    /// The batcher thread died before applying this request (abnormal
    /// server death).  The request did not take effect; the envelope exit
    /// guard resolves the ticket instead of wedging the client forever.
    ServerGone,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::KeyOutOfRange(k) => write!(f, "key {k} is >= 2^31 - 1"),
            ServiceError::UnknownCounter(c) => write!(f, "counter {c} does not exist"),
            ServiceError::CounterOverflow(c) => {
                write!(
                    f,
                    "add to counter {c} refused: delta >= 2^32 or sum > 2^64 - 2"
                )
            }
            ServiceError::Injected => write!(f, "injected fault"),
            ServiceError::RequestPanicked => {
                write!(f, "request panicked mid-application and was rolled back")
            }
            ServiceError::Overloaded => write!(f, "submission queue is full, request shed"),
            ServiceError::DeadlineExceeded => write!(f, "deadline expired before the batch ran"),
            ServiceError::ServerGone => write!(f, "batcher thread died before answering"),
            ServiceError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a client gets back for one request.
pub type Response = Result<Reply, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_a_reason() {
        let s = ServiceError::KeyOutOfRange(7).to_string();
        assert!(s.contains('7'));
        assert!(!ServiceError::ShuttingDown.to_string().is_empty());
    }
}
