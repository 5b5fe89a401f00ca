//! The batching policy: when does the batcher close a batch, and what may
//! enter the queue at all?
//!
//! One batching knob.  The batcher parks until something is queued, then
//! takes whatever is queued — never waiting for more — up to:
//!
//! * **max batch size** — the bound on work per step.  Under load the
//!   queue refills while a batch is applied, so batches fill to the cap
//!   and amortize the per-step protocol (and, per the QRQW thesis, spread
//!   contention over more parallel slots); under light load a batch is
//!   the one or few requests that arrived, answered at once.  Batch size
//!   follows the load, not a timer.
//!
//! One admission knob, the overload story:
//!
//! * **queue bound** — at most this many requests may be outstanding
//!   (admitted and not yet taken into a batch) at once; a submit past the
//!   bound is shed immediately with [`crate::ServiceError::Overloaded`]
//!   instead of growing the queue without limit.
//!
//! Deadlines are per request, not policy:
//! [`crate::ServiceHandle::submit_with_deadline`] stamps one, and the
//! batcher answers a request it reaches after its deadline with
//! [`crate::ServiceError::DeadlineExceeded`] without touching the machine.

/// Default [`BatchPolicy::max_batch`].
pub const DEFAULT_BATCH_MAX: usize = 256;

/// When the batcher closes a batch: at `max_batch` requests, or as soon as
/// the queue is empty — plus the admission bounds the handles enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch (≥ 1; 0 is clamped to 1).
    pub max_batch: usize,
    /// Maximum outstanding requests (admitted, not yet taken into a
    /// batch) before submits are shed with
    /// [`crate::ServiceError::Overloaded`].
    /// `usize::MAX` (the default) means unbounded.
    pub queue_max: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: DEFAULT_BATCH_MAX,
            queue_max: usize::MAX,
        }
    }
}

impl BatchPolicy {
    /// A policy with the given batch cap and unbounded admission.
    pub fn with_max_batch(max_batch: usize) -> Self {
        BatchPolicy {
            max_batch: max_batch.max(1),
            ..Default::default()
        }
    }

    /// Builder: bounds the outstanding-request count (admission control).
    pub fn queue_max(mut self, queue_max: usize) -> Self {
        self.queue_max = queue_max.max(1);
        self
    }

    /// The policy with `max_batch` and `queue_max` clamped to at least 1,
    /// as the batcher uses it.
    pub fn normalized(self) -> Self {
        BatchPolicy {
            max_batch: self.max_batch.max(1),
            queue_max: self.queue_max.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = BatchPolicy::default();
        assert!(p.max_batch >= 1);
        assert_eq!(p.queue_max, usize::MAX);
    }

    #[test]
    fn zero_max_batch_is_clamped() {
        assert_eq!(BatchPolicy::with_max_batch(0).max_batch, 1);
        let p = BatchPolicy {
            max_batch: 0,
            queue_max: 0,
        }
        .normalized();
        assert_eq!(p.max_batch, 1);
        assert_eq!(p.queue_max, 1);
    }

    #[test]
    fn builder_sets_the_queue_bound() {
        let p = BatchPolicy::with_max_batch(8).queue_max(128);
        assert_eq!(p.max_batch, 8);
        assert_eq!(p.queue_max, 128);
        assert_eq!(BatchPolicy::default().queue_max(0).queue_max, 1);
    }
}
