//! # qrqw-prims — parallel building blocks over the `Machine` backend API
//!
//! This crate provides the primitive parallel routines that the paper's
//! algorithms (crate `qrqw-core`) are built from.  Every routine is generic
//! over [`qrqw_sim::Machine`], expressed as a sequence of synchronous steps:
//! on the simulator backend ([`qrqw_sim::Pram`]) its time, work and
//! contention are measured exactly; on the native backend
//! (`qrqw_exec::NativeMachine`) the same source runs on real threads.
//!
//! * [`prefix`] — work-optimal EREW prefix sums (Blelloch up/down sweep),
//!   the `Θ(lg n)`-time tool behind the EREW baselines of Table I.
//! * [`broadcast`] — bulk value duplication (the paper's "replace a
//!   program variable with k copies" technique, Section 1.2) and the
//!   segmented forward broadcast, the machine calls `Machine::duplicate`
//!   and `Machine::fill_forward`: `O(lg k)` doubling steps for `k` copies
//!   and `⌈lg n⌉` Hillis–Steele rounds on the simulator.
//! * [`reduce`] — binary-tree global OR.
//! * [`listrank`] — list ranking (Section 3), the machine call
//!   `Machine::list_rank`: pointer jumping on the simulator.
//! * [`claim`] — the "write, read, write, read" cell-claiming protocol of
//!   Section 5.1, in both *exclusive* (all colliders fail) and *occupy*
//!   (arbitration winner succeeds) flavours, and [`TeamDarts`], the one team
//!   dart-throwing round (throw → claim → settle → shrink) every
//!   randomized placement of Sections 4–5 is a caller of.
//! * [`compaction`] — the compaction and linear-compaction problems
//!   (Section 4 preliminaries): an EREW prefix-sums compaction and a
//!   low-contention dart-throwing linear compaction with log-star team
//!   doubling.
//! * [`intsort`] — the stable small-range integer sort of Fact 4.3 and a
//!   general LSD radix sort for packed (key, payload) words.
//! * [`bitonic`] — Batcher's bitonic sorting network as an EREW PRAM
//!   algorithm (the MasPar system sort used by the sorting-based
//!   random-permutation baseline of Section 5.2).

#![deny(missing_docs)]

pub mod bitonic;
pub mod broadcast;
pub mod claim;
pub mod compaction;
pub mod intsort;
pub mod listrank;
pub mod prefix;
pub mod reduce;
pub mod util;

pub use bitonic::bitonic_sort;
pub use broadcast::{duplicate_values, propagate_nonempty_forward};
pub use claim::{ClaimMode, TeamDarts};
pub use compaction::{compact_erew, linear_compaction, LinearCompactionOutcome};
pub use intsort::{radix_sort_packed, stable_sort_small_range};
pub use listrank::list_rank;
pub use prefix::{prefix_sums_exclusive, prefix_sums_inclusive};
pub use reduce::global_or;
pub use util::{pack, unpack_key, unpack_payload};
