//! # qrqw-bsp — a batch-message BSP backend that *measures* Theorem 1.1
//!
//! Theorem 1.1 of the paper is its portability claim: a QRQW PRAM
//! algorithm running in time `t` can be emulated on a `p/lg p`-component
//! standard BSP machine in `O(t · lg p)` time, because a step whose maximum
//! contention is `k` costs the emulation only an *additive* `k` (the
//! realized message queues drain one message per cycle) rather than a
//! multiplicative penalty.  The simulator charges that bound by formula
//! ([`qrqw_sim::bsp_emulation_time`]); this crate **executes** the
//! emulation and measures it.
//!
//! [`BspMachine`] is the third [`qrqw_sim::Machine`] backend: every step
//! runs as BSP supersteps in which virtual processors buffer their
//! read/write/claim requests as messages, and a routing phase
//! ([`router`]) delivers them in batches keyed by destination cell.
//! Contention is *observed* — the realized max queue length per superstep —
//! instead of charged, and [`qrqw_sim::Machine::cost_report`] returns both
//! the measured superstep/message/queue totals and the Theorem 1.1
//! predicted bound side by side ([`qrqw_sim::BspCost`]), which is what the
//! `perf_report` harness prints as measured-vs-predicted.
//!
//! Because the router's processor-order delivery *is* the simulator's
//! write arbitration (both run [`qrqw_sim::StepScratch::finish`]), every
//! algorithm in the repository runs bit-identically on `BspMachine` and on
//! the simulator for the same seed — so the measured queues can be compared
//! step-for-step against the charged contention (`tests/theorem11.rs` pins
//! measured ≤ charged for the whole registry).

#![deny(missing_docs)]

pub mod machine;
pub mod router;

pub use machine::{BspMachine, COMPONENTS_ENV, DEFAULT_COMPONENTS};
