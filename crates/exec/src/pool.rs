//! Step dispatch policy for the native backend.
//!
//! [`StepPool`] decides *how* a machine step fans out over the persistent
//! worker pool (`rayon::pool`): how many threads participate, which
//! [`Schedule`] assigns chunks to them, how the index space is chunked, and
//! when a step is small enough to run inline on the calling thread.  The
//! pool threads themselves are process-wide: between steps they poll for
//! the next one for a few tens of microseconds and then park, so
//! back-to-back steps hand off without a kernel wakeup, and a
//! `NativeMachine` never spawns threads on the step path.
//!
//! The thread count is configurable per machine (builder) and per process
//! (the `QRQW_THREADS` environment variable), mirroring how the Section 5.2
//! MasPar experiment swept machine sizes; the schedule is a value of the
//! policy, chosen only by [`StepPool::with_schedule`].  Determinism depends
//! on neither choice: chunk boundaries are a pure function of the dispatch
//! shape under both schedules, and boundaries only decide which thread
//! computes an index, never what is computed for it.
//!
//! Multi-pass steps (the claim protocol, scan, compact) go through
//! [`StepPool::dispatch_fused`]: all passes share one pool dispatch with a
//! lightweight barrier between them; [`StepPool::dispatch`] is its one-pass
//! case.  The environment override is validated loudly — a set-but-invalid
//! `QRQW_THREADS` panics at pool construction instead of silently running a
//! different configuration.

/// Environment variable overriding the native backend's thread count.
/// Must be a positive integer when set; anything else (including `0`)
/// makes pool construction panic — a mistyped override must never
/// silently benchmark the wrong configuration.
pub const THREADS_ENV: &str = "QRQW_THREADS";

/// Below this many items a step runs inline: pool dispatch costs more than
/// it saves on tiny steps.
const INLINE_CUTOFF: usize = 2048;

/// Chunks are at least this long (pre-alignment), so oversubscribed thread
/// counts cannot shred a step into cache-hostile slivers.
const MIN_CHUNK: usize = 512;

/// Chunks handed out per participating thread: > 1 gives dynamic load
/// balance when chunk costs are skewed (e.g. contended CAS ranges).
const CHUNKS_PER_THREAD: usize = 4;

pub(crate) use rayon::pool::SendPtr;
use rayon::pool::MAX_FUSED_PASSES;

/// How a dispatched step's chunks are assigned to pool threads.
///
/// Either schedule produces **bit-identical machine behaviour**: chunk
/// boundaries are a pure function of the dispatch shape, every write is
/// keyed by index, and per-processor RNG streams are keyed by
/// `(seed, step, proc)` — so the assignment of chunks to threads is
/// unobservable (pinned by `tests/determinism.rs` and the skew-adversarial
/// suite in `tests/schedule_skew.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One shared chunk counter per pass; every idle thread claims the next
    /// chunk with a `fetch_add`.
    #[default]
    Chunked,
    /// Work-stealing in the work-assisting style: chunks are
    /// pre-partitioned into one contiguous range per thread (an atomic
    /// `(lo, hi)` split index each), and threads whose range drains assist
    /// on others' remaining chunks by CAS-splitting the victim's range in
    /// half.  Wins when per-chunk costs are skewed — e.g. a claim round
    /// whose collisions all land in one range.
    Stealing,
}

impl Schedule {
    /// Every schedule, in the order the harnesses report them.
    pub const ALL: [Schedule; 2] = [Schedule::Chunked, Schedule::Stealing];

    /// Stable lowercase name (`"chunked"` / `"stealing"`).
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Chunked => "chunked",
            Schedule::Stealing => "stealing",
        }
    }
}

/// The thread count a raw `QRQW_THREADS` value selects: `None` when unset
/// (callers fall back to host parallelism), an error when set but not a
/// positive integer.
fn threads_from_env_value(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(t) if t > 0 => Ok(Some(t)),
            _ => Err(format!(
                "invalid {THREADS_ENV}={v:?}: expected a positive integer"
            )),
        },
    }
}

/// Per-machine dispatch policy over the process-wide worker pool.
#[derive(Debug, Clone)]
pub struct StepPool {
    threads: usize,
    schedule: Schedule,
}

impl StepPool {
    /// Policy with an explicit thread count (clamped to at least 1; the
    /// process-wide pool additionally clamps to
    /// [`rayon::pool::MAX_POOL_THREADS`]) and the default
    /// [`Schedule::Chunked`].
    pub fn with_threads(threads: usize) -> Self {
        StepPool {
            threads: threads.clamp(1, rayon::pool::MAX_POOL_THREADS),
            schedule: Schedule::Chunked,
        }
    }

    /// Default policy: thread count from `QRQW_THREADS` (host parallelism
    /// when unset), [`Schedule::Chunked`].
    ///
    /// # Panics
    ///
    /// If `QRQW_THREADS` is set to an invalid value — a mistyped override
    /// must never silently benchmark the wrong configuration.
    pub fn from_env() -> Self {
        let raw = std::env::var(THREADS_ENV).ok();
        let threads = threads_from_env_value(raw.as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or_else(rayon::current_num_threads);
        StepPool::with_threads(threads)
    }

    /// This policy with the given [`Schedule`] — the one place a schedule
    /// is chosen.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Source-compatibility shim for the benchmark harness, which still
    /// spells `.with_fused(true)`: multi-pass steps always run as one pool
    /// dispatch, so `true` is the only value there is.  Goes with the next
    /// `benchmark` PR.
    #[doc(hidden)]
    pub fn with_fused(self, fused: bool) -> Self {
        assert!(fused, "the one-dispatch-per-pass arm no longer exists");
        self
    }

    /// Number of threads (including the caller) a dispatched step uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk→thread assignment discipline this policy dispatches with.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Runs `f(lo, hi)` over `[0, len)` in contiguous chunks whose
    /// boundaries are multiples of `align` (last chunk excepted), on the
    /// worker pool under this policy's [`Schedule`].  Blocks until all
    /// chunks finish.  Small or single-threaded dispatches run inline as
    /// one chunk.  This is the one-pass [`StepPool::dispatch_fused`].
    pub fn dispatch<F>(&self, len: usize, align: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        self.dispatch_fused(len, align, 1, |_, lo, hi| f(lo, hi));
    }

    /// Runs a group of `passes` passes over `[0, len)` as **one** pool
    /// dispatch per [`MAX_FUSED_PASSES`] passes: pass `p` calls
    /// `f(p, lo, hi)` for every chunk, and pass `p + 1` starts only after
    /// every chunk of pass `p` finished, with its writes visible (see
    /// `rayon::pool::dispatch`).  The inline cutoff and the chunk
    /// boundaries are decided once per group and are a pure function of
    /// `(len, align, threads)`, so every pass sees the boundaries `passes`
    /// separate [`StepPool::dispatch`] calls would have seen — grouping
    /// only removes the per-pass pool wakeup.
    pub fn dispatch_fused<F>(&self, len: usize, align: usize, passes: usize, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        if len == 0 {
            return;
        }
        if self.threads <= 1 || len <= INLINE_CUTOFF.max(align) {
            for pass in 0..passes {
                f(pass, 0, len);
            }
            return;
        }
        let raw = len
            .div_ceil(self.threads * CHUNKS_PER_THREAD)
            .max(MIN_CHUNK);
        let chunk = raw.div_ceil(align) * align;
        let stealing = self.schedule == Schedule::Stealing;
        for first in (0..passes).step_by(MAX_FUSED_PASSES) {
            let group = (passes - first).min(MAX_FUSED_PASSES);
            rayon::pool::dispatch(len, chunk, self.threads, stealing, group, |pass, lo, hi| {
                f(first + pass, lo, hi)
            });
        }
    }
}

impl Default for StepPool {
    fn default() -> Self {
        StepPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn explicit_thread_count_is_clamped_to_at_least_one() {
        assert_eq!(StepPool::with_threads(0).threads(), 1);
        assert_eq!(StepPool::with_threads(3).threads(), 3);
    }

    #[test]
    fn dispatch_respects_alignment_under_both_schedules() {
        for schedule in Schedule::ALL {
            let pool = StepPool::with_threads(4).with_schedule(schedule);
            let ranges = Mutex::new(Vec::new());
            let len = 100_000;
            pool.dispatch(len, 64, |lo, hi| {
                ranges.lock().unwrap().push((lo, hi));
            });
            let mut ranges = ranges.into_inner().unwrap();
            ranges.sort_unstable();
            let mut expect = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo % 64, 0, "[{schedule:?}] chunk start {lo} not 64-aligned");
                assert_eq!(lo, expect, "[{schedule:?}]");
                expect = hi;
            }
            assert_eq!(expect, len);
            assert!(
                ranges.len() > 1,
                "[{schedule:?}] a 100k dispatch on 4 threads must chunk"
            );
        }
    }

    #[test]
    fn both_schedules_produce_identical_chunk_boundaries() {
        let boundaries = |schedule: Schedule| {
            let pool = StepPool::with_threads(5).with_schedule(schedule);
            let ranges = Mutex::new(Vec::new());
            pool.dispatch(250_000, 8, |lo, hi| ranges.lock().unwrap().push((lo, hi)));
            let mut ranges = ranges.into_inner().unwrap();
            ranges.sort_unstable();
            ranges
        };
        assert_eq!(
            boundaries(Schedule::Chunked),
            boundaries(Schedule::Stealing)
        );
    }

    #[test]
    fn small_dispatch_runs_inline_as_one_chunk() {
        // A short dispatch on any pool, and any dispatch on a 1-thread
        // pool, whose schedule is therefore never read.
        let long = 4 * INLINE_CUTOFF + 1;
        for schedule in Schedule::ALL {
            for (threads, len) in [(8, 100), (1, long)] {
                let pool = StepPool::with_threads(threads).with_schedule(schedule);
                let ranges = Mutex::new(Vec::new());
                pool.dispatch(len, 1, |lo, hi| ranges.lock().unwrap().push((lo, hi)));
                assert_eq!(*ranges.lock().unwrap(), vec![(0, len)]);
            }
        }
    }

    #[test]
    fn schedule_names_are_distinct_and_the_default_is_chunked() {
        assert_eq!(Schedule::Chunked.name(), "chunked");
        assert_eq!(Schedule::Stealing.name(), "stealing");
        assert_eq!(Schedule::default(), Schedule::Chunked);
        assert_eq!(StepPool::with_threads(3).schedule(), Schedule::Chunked);
    }

    #[test]
    fn unset_env_values_select_the_defaults() {
        assert_eq!(threads_from_env_value(None), Ok(None));
    }

    #[test]
    fn valid_env_values_are_accepted() {
        assert_eq!(threads_from_env_value(Some(" 8 ")), Ok(Some(8)));
    }

    #[test]
    fn invalid_env_values_are_rejected_loudly_with_the_variable_name() {
        for bad in ["zero", "-1", "", "1.5"] {
            let threads = threads_from_env_value(Some(bad)).unwrap_err();
            assert!(threads.contains(THREADS_ENV), "{threads}");
        }
        let zero = threads_from_env_value(Some("0")).unwrap_err();
        assert!(zero.contains(THREADS_ENV), "{zero}");
    }

    #[test]
    fn fused_dispatch_covers_every_pass_with_identical_boundaries() {
        for schedule in Schedule::ALL {
            let pool = StepPool::with_threads(4).with_schedule(schedule);
            let single_ranges = {
                let seen = Mutex::new(Vec::new());
                pool.dispatch(100_000, 64, |lo, hi| seen.lock().unwrap().push((lo, hi)));
                let mut r = seen.into_inner().unwrap();
                r.sort_unstable();
                r
            };
            // More passes than one pool dispatch takes: the group runs as
            // successive dispatches, still one pass after another.
            let passes = MAX_FUSED_PASSES + 2;
            let seen = Mutex::new(Vec::new());
            pool.dispatch_fused(100_000, 64, passes, |pass, lo, hi| {
                seen.lock().unwrap().push((pass, lo, hi));
            });
            let seen = seen.into_inner().unwrap();
            assert!(
                seen.windows(2).all(|w| w[0].0 <= w[1].0),
                "{schedule:?}: a pass began before the previous one ended"
            );
            for pass in 0..passes {
                let mut ranges: Vec<_> = seen
                    .iter()
                    .filter(|c| c.0 == pass)
                    .map(|c| (c.1, c.2))
                    .collect();
                ranges.sort_unstable();
                assert_eq!(ranges, single_ranges, "{schedule:?} pass={pass}");
            }
        }
    }

    #[test]
    fn small_fused_dispatch_runs_inline_in_pass_order() {
        let pool = StepPool::with_threads(8);
        let trace = Mutex::new(Vec::new());
        pool.dispatch_fused(100, 1, 3, |pass, lo, hi| {
            trace.lock().unwrap().push((pass, lo, hi));
        });
        assert_eq!(
            *trace.lock().unwrap(),
            vec![(0, 0, 100), (1, 0, 100), (2, 0, 100)]
        );
    }
}
