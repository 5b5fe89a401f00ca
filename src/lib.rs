//! Umbrella crate for the QRQW PRAM reproduction workspace.
//!
//! Re-exports the four library crates so the examples and integration tests
//! (and downstream users who just want everything) can depend on a single
//! package:
//!
//! * [`sim`] — the QRQW PRAM simulator, the cost models, and the
//!   [`sim::Machine`] backend trait; a [`sim::Pram::with_bsp`] simulator
//!   also counts its run as the batch-message BSP emulation of Theorem 1.1
//!   instead of formula-charging it,
//! * [`prims`] — parallel primitives (prefix sums, broadcasting, claiming,
//!   compaction, list ranking, integer/bitonic sorts), generic over the
//!   backend,
//! * [`algos`] — the paper's algorithms and their baselines, every one
//!   generic over [`sim::Machine`]: load balancing, multiple compaction,
//!   random (cyclic) permutation, hashing, the three sorts, Fetch&Add
//!   emulation, the fat-tree,
//! * [`exec`] — the native pooled-threads/atomics backend ([`exec::NativeMachine`])
//!   for wall-clock Table II runs.

pub use qrqw_core as algos;
pub use qrqw_exec as exec;
pub use qrqw_prims as prims;
pub use qrqw_sim as sim;
