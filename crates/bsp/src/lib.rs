//! # qrqw-bsp — a batch-message BSP backend for Theorem 1.1
//!
//! Theorem 1.1 of the paper is its portability claim: a QRQW PRAM
//! algorithm running in time `t` can be emulated on a `p/lg p`-component
//! standard BSP machine in `O(t · lg p)` time, because a step whose maximum
//! contention is `k` costs the emulation only an *additive* `k` (the
//! realized message queues drain one message per cycle) rather than a
//! multiplicative penalty.  The simulator charges that bound by formula
//! ([`qrqw_sim::bsp_emulation_time`]); this crate routes the emulation's
//! messages.
//!
//! [`BspMachine`] is the third [`qrqw_sim::Machine`] backend: a
//! [`qrqw_sim::Pram`] whose every parallel step runs as BSP supersteps, in
//! which virtual processors buffer their read/write/claim requests as
//! messages and a routing phase ([`router`]) delivers them in batches keyed
//! by destination cell.  The router is a sink on the simulator's own step
//! walk ([`qrqw_sim::Pram::par_map_into`]); the machine has no memory,
//! allocator or step loop of its own.  [`qrqw_sim::Machine::cost_report`]
//! returns the `Pram`'s report with the router's superstep/message/
//! h-relation counts and the queue totals next to the Theorem 1.1 predicted
//! bound ([`qrqw_sim::BspCost`]) in place of its model-side fields, which
//! is what the `perf_report` harness prints as measured-vs-predicted.
//!
//! What is and is not measured: the router's processor-order delivery *is*
//! the simulator's write arbitration, and its longest per-cell queue *is*
//! the simulator's contention, so every algorithm runs bit-identically on
//! `BspMachine` and on the simulator for the same seed, and
//! `measured_cost` equals the trace's QRQW time by construction.
//! `tests/theorem11.rs` pins that agreement against an independent
//! simulator run.  A cost that could exceed the bound needs cells hashed to
//! components and each superstep charged `w + g·h + L`; that is not built
//! yet.

#![deny(missing_docs)]

pub mod machine;
pub mod router;

pub use machine::{BspMachine, DEFAULT_COMPONENTS};
