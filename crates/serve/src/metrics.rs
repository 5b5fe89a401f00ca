//! Latency histogram and service-level statistics.
//!
//! [`Histogram`] is an HDR-style log-linear histogram over `u64` values
//! (the harness records nanoseconds): values below [`Histogram::PRECISE`]
//! are counted exactly, one bucket per value; above that, each power-of-two
//! octave is split into [`Histogram::PRECISE`]`/2` linear sub-buckets, so
//! the relative quantization error is bounded by `2/PRECISE` everywhere.
//! That gives exact percentiles on small known inputs (what the unit smoke
//! asserts) and bounded error on real latency distributions, with O(1)
//! recording and no allocation after construction.

use std::time::Duration;

use qrqw_exec::BatchCost;

/// Log-linear histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

/// Number of low values recorded exactly (must be a power of two).
const PRECISE: u64 = 2048;
/// Sub-buckets per octave above the precise range (`PRECISE / 2`).
const SUB: u64 = PRECISE / 2;
/// Octaves above the precise range needed to cover all of `u64`.
const OCTAVES: usize = 54;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Values below this are recorded exactly (their own bucket).
    pub const PRECISE: u64 = PRECISE;

    /// Creates an empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; PRECISE as usize + OCTAVES * SUB as usize],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < PRECISE {
            return value as usize;
        }
        // Value has bit length `bits` ≥ 12; shifting by `bits - 11` puts it
        // in `[SUB, 2·SUB)`; octave 0 is the first above the precise range.
        let bits = 64 - value.leading_zeros() as u64;
        let octave = bits - PRECISE.trailing_zeros() as u64; // ≥ 1
        let sub = (value >> octave) - SUB;
        (PRECISE + (octave - 1) * SUB + sub) as usize
    }

    /// The largest value that maps to the same bucket as `index` — the
    /// value percentiles report, so a reported percentile is always an
    /// upper bound on the true one within the bucket's width.
    fn value_of(index: usize) -> u64 {
        let index = index as u64;
        if index < PRECISE {
            return index;
        }
        let octave = (index - PRECISE) / SUB + 1;
        let sub = (index - PRECISE) % SUB;
        // The very top bucket's upper bound exceeds u64: saturate.
        let upper = ((sub + SUB + 1) as u128) << octave;
        u64::try_from(upper - 1).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Records a [`Duration`] in nanoseconds (saturating).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample, or `None` when empty.  The internal
    /// tracker starts at `u64::MAX`; exposing that (or a fake `0`) for an
    /// empty histogram would be indistinguishable from a real extreme
    /// sample, so emptiness is explicit.
    pub fn min(&self) -> Option<u64> {
        (self.total != 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total != 0).then_some(self.max)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the smallest bucket such that at
    /// least `⌈q · count⌉` samples are ≤ its upper bound.  Exact for values
    /// below [`Histogram::PRECISE`]; otherwise an upper bound within the
    /// bucket's `2/PRECISE` relative width.  Returns `None` on an empty
    /// histogram — like [`Histogram::min`]/[`Histogram::max`], a fabricated
    /// `0` would be indistinguishable from a real zero-latency sample, so
    /// emptiness is explicit.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::value_of(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

/// Cumulative service statistics, maintained by the batcher and returned
/// by `Server::shutdown`.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Batches applied.
    pub batches: u64,
    /// Requests served (every one received a response).
    pub requests: u64,
    /// Largest batch applied.
    pub max_batch: u64,
    /// Machine steps executed by batch application.
    pub steps: u64,
    /// Claim attempts issued by batch application.
    pub claim_attempts: u64,
    /// Claim attempts that lost to a same-step collision.
    pub contended_claims: u64,
    /// Total wall time spent inside batch application.
    pub apply_wall: Duration,
    /// Batches that panicked mid-application, were rolled back to their
    /// pre-batch checkpoint, and were re-applied by bisection.
    pub panicked_batches: u64,
    /// Requests isolated by bisection replay and answered
    /// [`crate::ServiceError::RequestPanicked`].
    pub isolated_panics: u64,
    /// Requests whose deadline expired in the queue, answered
    /// [`crate::ServiceError::DeadlineExceeded`] without touching the
    /// machine.
    pub deadline_shed: u64,
    /// Requests shed at admission with
    /// [`crate::ServiceError::Overloaded`] (counted by the handles; folded
    /// in at shutdown).
    pub overload_shed: u64,
    /// Pre-batch checkpoints taken (one per applied batch).
    pub snapshots: u64,
    /// Total wall time spent taking pre-batch checkpoints — the price of
    /// the rollback guarantee, measured so `service_report` can report it.
    pub snapshot_wall: Duration,
    /// Machine cells those checkpoints copied.  Proportional to what the
    /// batches wrote, not to the resident state: only the first checkpoint
    /// of a server copies the whole live prefix.
    pub snapshot_cells: u64,
    /// Total wall time spent in rollback + bisection replay after panics.
    pub recovery_wall: Duration,
}

impl ServiceStats {
    /// Mean requests per batch (0 when no batch ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Mean contended claims per batch — the service-level analogue of the
    /// per-step contention charge.
    pub fn contention_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.contended_claims as f64 / self.batches as f64
        }
    }

    /// Mean checkpoint cost per applied batch (zero when none were taken).
    pub fn mean_snapshot(&self) -> Duration {
        if self.snapshots == 0 {
            Duration::ZERO
        } else {
            self.snapshot_wall.div_f64(self.snapshots as f64)
        }
    }

    /// Mean machine cells copied per checkpoint (0 when none were taken).
    pub fn mean_snapshot_cells(&self) -> f64 {
        if self.snapshots == 0 {
            0.0
        } else {
            self.snapshot_cells as f64 / self.snapshots as f64
        }
    }

    /// Mean recovery latency per rolled-back batch — restore plus bisection
    /// replay (zero when nothing panicked).
    pub fn mean_recovery(&self) -> Duration {
        if self.panicked_batches == 0 {
            Duration::ZERO
        } else {
            self.recovery_wall.div_f64(self.panicked_batches as f64)
        }
    }

    /// Folds one applied batch into the totals.
    pub fn record_batch(&mut self, batch_len: usize, cost: BatchCost) {
        self.batches += 1;
        self.requests += batch_len as u64;
        self.max_batch = self.max_batch.max(batch_len as u64);
        self.steps += cost.steps;
        self.claim_attempts += cost.claim_attempts;
        self.contended_claims += cost.contended_claims;
        self.apply_wall += cost.wall;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_small_known_inputs() {
        // The histogram satellite: fixed inputs, exact extraction.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.value_at_quantile(0.50), Some(500));
        assert_eq!(h.value_at_quantile(0.99), Some(990));
        assert_eq!(h.value_at_quantile(0.999), Some(999));
        assert_eq!(h.value_at_quantile(1.0), Some(1000));
        assert_eq!(h.value_at_quantile(0.0), Some(1));
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn large_values_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for &v in &[1_000_000u64, 5_000_000, 123_456_789, u64::MAX / 2] {
            h.record(v);
            let got = h.value_at_quantile(1.0).expect("non-empty histogram");
            assert!(got >= v, "reported percentile must be an upper bound");
            assert!(
                (got - v) as f64 <= v as f64 * (2.0 / Histogram::PRECISE as f64),
                "relative error too large: {v} -> {got}"
            );
        }
    }

    #[test]
    fn bucket_mapping_round_trips_at_boundaries() {
        for v in [0, 1, 2046, 2047, 2048, 2049, 4095, 4096, 1 << 20, u64::MAX] {
            let idx = Histogram::index_of(v);
            let upper = Histogram::value_of(idx);
            assert!(upper >= v, "upper bound {upper} below value {v}");
            if v < Histogram::PRECISE {
                assert_eq!(upper, v, "precise range must be exact");
            } else {
                assert_eq!(
                    Histogram::index_of(upper),
                    idx,
                    "upper bound must stay in its own bucket ({v})"
                );
            }
        }
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            whole.record(v * 3);
        }
        for v in 0..500u64 {
            b.record(v * 7 + 1);
            whole.record(v * 7 + 1);
        }
        a.merge(&b);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.value_at_quantile(q), whole.value_at_quantile(q));
        }
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn empty_histogram_reports_no_percentiles_and_no_extremes() {
        // The empty-snapshot satellite: before any sample, min is
        // internally u64::MAX — none of that may leak, and a percentile
        // must not fabricate a `0` sample either.  The mean stays defined
        // as 0; min/max and every quantile are None.
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), None);
        }
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        // Merging an empty histogram into an empty histogram stays empty.
        let mut a = Histogram::new();
        a.merge(&h);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        assert_eq!(a.value_at_quantile(0.5), None);
        // One sample flips all three in lockstep.
        a.record(42);
        assert_eq!(
            (a.min(), a.max(), a.value_at_quantile(1.0)),
            (Some(42), Some(42), Some(42))
        );
    }

    #[test]
    fn stats_fold_batches() {
        let mut s = ServiceStats::default();
        s.record_batch(
            10,
            BatchCost {
                steps: 4,
                claim_attempts: 20,
                contended_claims: 6,
                wall: Duration::from_micros(50),
            },
        );
        s.record_batch(
            30,
            BatchCost {
                steps: 8,
                claim_attempts: 0,
                contended_claims: 0,
                wall: Duration::from_micros(10),
            },
        );
        assert_eq!(s.batches, 2);
        assert_eq!(s.requests, 40);
        assert_eq!(s.max_batch, 30);
        assert!((s.mean_batch() - 20.0).abs() < 1e-9);
        assert!((s.contention_per_batch() - 3.0).abs() < 1e-9);
        assert_eq!(s.apply_wall, Duration::from_micros(60));
    }
}
