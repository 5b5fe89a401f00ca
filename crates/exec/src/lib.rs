//! # qrqw-exec — the native shared-memory `Machine` backend
//!
//! Section 5.2 of the paper compares its random-permutation algorithms on a
//! 16,384-processor MasPar MP-1 (Table II).  Neither that machine nor the
//! later Cray J90 exists here, so this crate substitutes a modern
//! shared-memory multicore: [`NativeMachine`] implements the
//! [`qrqw_sim::Machine`] backend API with an [`std::sync::atomic::AtomicU64`]
//! arena and a persistent worker pool, and threads contending on atomic
//! cells play the role of the MasPar router queues.
//!
//! The algorithms themselves live in `qrqw-core`, written once against the
//! `Machine` trait; running `qrqw_core::random_permutation_qrqw` (or linear
//! compaction, or load balancing, …) on a [`NativeMachine`] *is* the native
//! execution — there is no second copy of any algorithm in this crate.
//! [`ContentionCounter`] records failed claim attempts, the native
//! observable analogue of the QRQW contention charge, and
//! [`qrqw_sim::Machine::cost_report`] reports wall-clock time next to it.
//!
//! Execution is pooled and allocation-free on the step path: [`pool::StepPool`]
//! dispatches every step as contiguous chunks to persistent, parked worker
//! threads (spawned once per process), and the machine keeps reusable
//! scratch for its claim bitsets and scan offsets — see the module docs of
//! [`machine`].  Thread count comes from [`NativeMachine::with_threads`] or
//! the `QRQW_THREADS` environment variable.
//!
//! Shared memory itself is a sharded arena ([`arena`]): independently
//! allocated, cache-line-aligned segments of [`arena::SHARD_CELLS`] cells
//! each, mapped by shift+mask.  Growth appends shards without moving
//! existing cells, so huge-n runs (2^27 cells and beyond) never pay a
//! realloc copy or a transient 2× memory footprint.
//!
//! Chunks reach threads under one of two [`pool::Schedule`]s — `Chunked`
//! (one shared claim counter) or `Stealing` (per-worker ranges with
//! work-assisting steal-half splits, for skewed per-chunk costs) — a value
//! of the machine's [`StepPool`], set by [`StepPool::with_schedule`] and
//! handed to [`NativeMachine::with_pool`]; the
//! bench registry's `native` / `native-steal` name the two values.  Both
//! schedules run identical chunk boundaries, so they are bit-identical in
//! every observable (see `ARCHITECTURE.md`, "The determinism contract").

#![deny(missing_docs)]

pub mod arena;
pub mod contention;
pub mod handle;
pub mod machine;
pub mod pool;

pub use arena::{ArenaStats, PAGE_CELLS, SHARD_CELLS};
pub use contention::ContentionCounter;
pub use handle::{BatchCost, MachineSnapshot, PersistentMachine};
pub use machine::NativeMachine;
pub use pool::{Schedule, StepPool};
