//! Contention instrumentation for the native executor.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counts claim attempts and failures across threads.
///
/// On the QRQW PRAM the cost of a step is the maximum number of processors
/// queued on one cell; natively the observable analogue is how often a
/// compare-and-swap loses.  The counter is cheap (relaxed increments) and is
/// reported alongside wall-clock times by the Table II harness.
#[derive(Debug, Default)]
pub struct ContentionCounter {
    attempts: AtomicU64,
    failures: AtomicU64,
}

impl ContentionCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a batch of `attempts` claim attempts, `failures` of which
    /// failed — two atomic adds total, so a claim pass can aggregate its
    /// bookkeeping per chunk instead of paying per-attempt increments.
    #[inline]
    pub fn add(&self, attempts: u64, failures: u64) {
        debug_assert!(failures <= attempts);
        if attempts > 0 {
            self.attempts.fetch_add(attempts, Ordering::Relaxed);
        }
        if failures > 0 {
            self.failures.fetch_add(failures, Ordering::Relaxed);
        }
    }

    /// Total claim attempts recorded.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Total failed attempts recorded.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Overwrites both totals.  Used by snapshot restore to roll the
    /// instrumentation back in lockstep with the machine state, together
    /// with `steps_executed`.
    pub fn store(&self, attempts: u64, failures: u64) {
        debug_assert!(failures <= attempts);
        self.attempts.store(attempts, Ordering::Relaxed);
        self.failures.store(failures, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_attempts_and_failures() {
        let c = ContentionCounter::new();
        assert_eq!((c.attempts(), c.failures()), (0, 0));
        c.add(1, 0);
        c.add(2, 2);
        assert_eq!(c.attempts(), 3);
        assert_eq!(c.failures(), 2);
    }

    #[test]
    fn is_safe_to_share_across_threads() {
        let c = ContentionCounter::new();
        crate::StepPool::with_threads(4).dispatch(10_000, 1, |lo, hi| {
            (lo..hi).for_each(|i| c.add(1, (i % 4 == 0) as u64));
        });
        assert_eq!(c.attempts(), 10_000);
        assert_eq!(c.failures(), 2_500);
    }
}
