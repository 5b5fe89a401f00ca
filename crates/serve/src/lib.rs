//! # qrqw-serve — batched request serving on a persistent QRQW machine
//!
//! Everything else in this workspace is a one-shot harness: build a
//! machine, run one algorithm over a pre-materialized input, read the cost
//! report.  This crate closes the loop the paper's model actually
//! describes — *concurrent* accesses arriving independently and being
//! served in bulk-synchronous steps: a QRQW step processes whatever
//! requests have queued up, and the step's cost is its contention.  Here
//! that becomes a long-running service:
//!
//! * clients submit **individual** requests (hash-set inserts/lookups,
//!   counter fetch-adds, task submit/steal) through a [`ServiceHandle`];
//! * a batcher thread takes the submission queue a batch at a time —
//!   whatever is queued, up to [`BatchPolicy::max_batch`] — and drives each
//!   batch as machine steps on one persistent
//!   [`qrqw_exec::NativeMachine`] whose state lives across batches — so
//!   batch size follows the load, as a QRQW step serves whatever has
//!   queued up;
//! * each client blocks on a [`Ticket`] until its batch completes.
//!
//! The batch is the h-relation of the QRQW story: batch size is the
//! request load of a step, and the batch's contended claims are its
//! contention charge ([`ServiceStats::contention_per_batch`]).  The
//! throughput/latency trade of batching — bigger batches amortize the
//! step protocol, smaller ones answer sooner — is exactly what
//! `service_report` / `BENCH_service.json` in `crates/bench` measure.
//!
//! Replies are trace-deterministic (see [`state`]): what a request
//! observes depends only on submission order, never on batch boundaries,
//! so draining any trace through the server leaves the same observable
//! state as applying it as one batch (`tests/conformance.rs`).  The batch
//! engine, [`ServiceCore`], is generic over any `Machine`; the server runs
//! it inside [`ServiceState`] on the native machine, and `crates/bench`'s
//! churn scenarios run it on every backend, one epoch per batch.
//!
//! The service is **fault tolerant** (see [`runtime`]): every batch is
//! applied against a pre-batch [`ServiceCheckpoint`], a panicking batch is
//! rolled back and re-applied by bisection so only the poisoned request
//! fails ([`ServiceError::RequestPanicked`]), admission control bounds the
//! queue ([`BatchPolicy::queue_max`] / [`ServiceError::Overloaded`]) and
//! enforces per-request deadlines, and an exit guard on the queue and
//! every envelope guarantees no [`Ticket::wait`] ever wedges on a dead
//! batcher
//! ([`ServiceError::ServerGone`]).  `service_report` in `crates/bench`
//! drives all of this under a seeded fault plan and writes
//! `BENCH_chaos.json`.

#![deny(missing_docs)]

pub mod metrics;
pub mod policy;
pub mod request;
pub mod runtime;
pub mod server;
pub mod state;

pub use metrics::{Histogram, ServiceStats};
pub use policy::BatchPolicy;
pub use request::{Fault, Reply, Request, Response, ServiceError, MAX_KEY};
pub use runtime::Ticket;
pub use server::{Server, ServiceHandle};
pub use state::{ServiceCheckpoint, ServiceConfig, ServiceCore, ServiceState, StateDigest};
