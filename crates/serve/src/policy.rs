//! The batching policy: when does the batcher close a batch, and what may
//! enter the queue at all?
//!
//! One batching knob.  The batcher blocks for a batch's first request,
//! then takes whatever is already queued behind it — never waiting for
//! more — up to:
//!
//! * **max batch size** — the bound on work per step.  Under load the
//!   queue refills while a batch is applied, so batches fill to the cap
//!   and amortize the per-step protocol (and, per the QRQW thesis, spread
//!   contention over more parallel slots); under light load a batch is
//!   the one or few requests that arrived, answered at once.  Batch size
//!   follows the load, not a timer.
//!
//! Two admission knobs, the overload story:
//!
//! * **queue bound** — at most this many requests may be outstanding
//!   (queued or riding the open batch) at once; a submit past the bound is
//!   shed immediately with [`crate::ServiceError::Overloaded`] instead of
//!   growing the queue without limit.
//! * **deadline** — the default per-request deadline: a request the
//!   batcher reaches after its deadline is answered
//!   [`crate::ServiceError::DeadlineExceeded`] without touching the
//!   machine ([`crate::ServiceHandle::submit_with_deadline`] overrides it
//!   per request).
//!
//! All three have environment overrides (`QRQW_BATCH_MAX`,
//! `QRQW_QUEUE_MAX`, `QRQW_DEADLINE_US`), documented
//! alongside `QRQW_THREADS` in `ARCHITECTURE.md` and the README knob
//! table.

use std::time::Duration;

/// Environment variable overriding [`BatchPolicy::max_batch`].
pub const BATCH_MAX_ENV: &str = "QRQW_BATCH_MAX";

/// Environment variable overriding [`BatchPolicy::queue_max`] (requests;
/// unset means unbounded).
pub const QUEUE_MAX_ENV: &str = "QRQW_QUEUE_MAX";

/// Environment variable overriding [`BatchPolicy::deadline`] (microseconds;
/// unset means no deadline).
pub const DEADLINE_US_ENV: &str = "QRQW_DEADLINE_US";

/// Default [`BatchPolicy::max_batch`].
pub const DEFAULT_BATCH_MAX: usize = 256;

/// When the batcher closes a batch: at `max_batch` requests, or as soon as
/// the queue is empty — plus the admission bounds the handles enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch (≥ 1; 0 is clamped to 1).
    pub max_batch: usize,
    /// Maximum outstanding requests (queued or in the open batch) before
    /// submits are shed with [`crate::ServiceError::Overloaded`].
    /// `usize::MAX` (the default) means unbounded.
    pub queue_max: usize,
    /// Default per-request deadline, measured from submission.  `None`
    /// (the default) means requests never expire in the queue.
    pub deadline: Option<Duration>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: DEFAULT_BATCH_MAX,
            queue_max: usize::MAX,
            deadline: None,
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

    /// Builder: sets the default per-request deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Resolves the policy from the environment: `QRQW_BATCH_MAX`
    /// (requests), `QRQW_QUEUE_MAX` (outstanding requests) and
    /// `QRQW_DEADLINE_US` (microseconds), falling back to the defaults
    /// when unset.
    ///
    /// A *set but invalid* value is a configuration error and panics with
    /// the offending variable and value, rather than being silently
    /// replaced — a typo'd `QRQW_BATCH_MAX` that falls back to the default
    /// batch cap looks exactly like a perf regression, and nobody debugs
    /// the environment first.  `QRQW_BATCH_MAX=0` is rejected too (the
    /// batcher needs at least one request per batch), as is
    /// `QRQW_QUEUE_MAX=0` (a queue that admits nothing serves nothing —
    /// unset the variable for an unbounded queue) and `QRQW_DEADLINE_US=0`
    /// (it would expire every request on arrival — unset it for no
    /// deadline).
    ///
    /// # Panics
    ///
    /// If any variable is set to an unparseable value, or `QRQW_BATCH_MAX`,
    /// `QRQW_QUEUE_MAX`, or `QRQW_DEADLINE_US` is set to `0`.
    pub fn from_env() -> Self {
        match Self::from_env_values(
            std::env::var(BATCH_MAX_ENV).ok().as_deref(),
            std::env::var(QUEUE_MAX_ENV).ok().as_deref(),
            std::env::var(DEADLINE_US_ENV).ok().as_deref(),
        ) {
            Ok(policy) => policy,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// The value-level core of [`BatchPolicy::from_env`]: the arguments are
    /// the raw values of `QRQW_BATCH_MAX` / `QRQW_QUEUE_MAX` /
    /// `QRQW_DEADLINE_US` (`None` = unset).  Split out
    /// so the rejection rules are testable without racing on
    /// process-global environment state.
    pub fn from_env_values(
        batch: Option<&str>,
        queue: Option<&str>,
        deadline: Option<&str>,
    ) -> Result<Self, String> {
        let mut policy = BatchPolicy::default();
        if let Some(raw) = batch {
            let v: usize = raw
                .trim()
                .parse()
                .map_err(|_| format!("invalid {BATCH_MAX_ENV}={raw:?}: expected a positive integer (requests per batch)"))?;
            if v == 0 {
                return Err(format!(
                    "invalid {BATCH_MAX_ENV}=0: a batch must hold at least one request"
                ));
            }
            policy.max_batch = v;
        }
        if let Some(raw) = queue {
            let v: usize = raw.trim().parse().map_err(|_| {
                format!("invalid {QUEUE_MAX_ENV}={raw:?}: expected a positive integer (max outstanding requests)")
            })?;
            if v == 0 {
                return Err(format!(
                    "invalid {QUEUE_MAX_ENV}=0: a queue that admits nothing serves nothing; \
                     unset the variable for an unbounded queue"
                ));
            }
            policy.queue_max = v;
        }
        if let Some(raw) = deadline {
            let v: u64 = raw.trim().parse().map_err(|_| {
                format!("invalid {DEADLINE_US_ENV}={raw:?}: expected microseconds as a positive integer")
            })?;
            if v == 0 {
                return Err(format!(
                    "invalid {DEADLINE_US_ENV}=0: a zero deadline expires every request on \
                     arrival; unset the variable for no deadline"
                ));
            }
            policy.deadline = Some(Duration::from_micros(v));
        }
        Ok(policy)
    }

    /// The policy with `max_batch` and `queue_max` clamped to at least 1,
    /// as the batcher uses it.
    pub fn normalized(self) -> Self {
        BatchPolicy {
            max_batch: self.max_batch.max(1),
            queue_max: self.queue_max.max(1),
            ..self
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
        assert_eq!(p.deadline, None);
    }

    #[test]
    fn zero_max_batch_is_clamped() {
        assert_eq!(BatchPolicy::with_max_batch(0).max_batch, 1);
        let p = BatchPolicy {
            max_batch: 0,
            queue_max: 0,
            ..Default::default()
        }
        .normalized();
        assert_eq!(p.max_batch, 1);
        assert_eq!(p.queue_max, 1);
    }

    #[test]
    fn env_values_resolve_or_reject_loudly() {
        // Unset → defaults.
        assert_eq!(
            BatchPolicy::from_env_values(None, None, None).unwrap(),
            BatchPolicy::default()
        );
        // Valid overrides (whitespace tolerated).
        let p = BatchPolicy::from_env_values(Some(" 64 "), Some("4096"), Some("2000")).unwrap();
        assert_eq!(p.max_batch, 64);
        assert_eq!(p.queue_max, 4096);
        assert_eq!(p.deadline, Some(Duration::from_micros(2000)));
        // Zero bounds and unparseable values are configuration errors, not
        // silent fallbacks.
        let err = BatchPolicy::from_env_values(Some("0"), None, None).unwrap_err();
        assert!(err.contains("QRQW_BATCH_MAX=0"), "unhelpful error: {err}");
        let err = BatchPolicy::from_env_values(Some("lots"), None, None).unwrap_err();
        assert!(err.contains("QRQW_BATCH_MAX"), "unhelpful error: {err}");
        let err = BatchPolicy::from_env_values(None, Some("0"), None).unwrap_err();
        assert!(err.contains("QRQW_QUEUE_MAX=0"), "unhelpful error: {err}");
        let err = BatchPolicy::from_env_values(None, Some("many"), None).unwrap_err();
        assert!(err.contains("QRQW_QUEUE_MAX"), "unhelpful error: {err}");
        let err = BatchPolicy::from_env_values(None, None, Some("0")).unwrap_err();
        assert!(err.contains("QRQW_DEADLINE_US=0"), "unhelpful error: {err}");
        let err = BatchPolicy::from_env_values(None, None, Some("soon")).unwrap_err();
        assert!(err.contains("QRQW_DEADLINE_US"), "unhelpful error: {err}");
    }

    #[test]
    fn builder_sets_queue_and_deadline() {
        let p = BatchPolicy::with_max_batch(8)
            .queue_max(128)
            .deadline(Duration::from_millis(50));
        assert_eq!(p.max_batch, 8);
        assert_eq!(p.queue_max, 128);
        assert_eq!(p.deadline, Some(Duration::from_millis(50)));
        assert_eq!(BatchPolicy::default().queue_max(0).queue_max, 1);
    }
}
