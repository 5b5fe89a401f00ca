//! # qrqw-sim — a Queue-Read Queue-Write PRAM simulation substrate
//!
//! This crate implements the machine model underlying Gibbons, Matias and
//! Ramachandran, *"Efficient Low-Contention Parallel Algorithms"*
//! (SPAA 1994 / JCSS 1996): the **QRQW PRAM** and its relatives.
//!
//! A QRQW PRAM step consists of a read substep, a compute substep and a
//! write substep.  Concurrent reads and writes to the same shared-memory
//! location are *permitted*, but they are serviced one at a time, so the
//! time cost of a step is
//!
//! ```text
//! cost(step) = max(m, κ)
//! ```
//!
//! where `m` is the maximum number of operations issued by any single
//! processor in the step and `κ` is the *maximum contention*: the largest
//! number of processors reading any one location, or writing any one
//! location, during the step (Definitions 2.1–2.3 of the paper).
//!
//! The simulator executes algorithms written in the *work–time
//! presentation*: a sequence of synchronous steps, each of which may involve
//! any number of virtual processors.  Every step is measured exactly, and a
//! [`Trace`] accumulates per-step statistics from which the running time
//! under any of the supported cost models ([`CostModel`]) can be derived,
//! along with the total work, the Brent-scheduled `p`-processor time
//! (Theorem 2.3) and the BSP emulation cost (Theorem 1.1).
//!
//! ## Quick example
//!
//! ```
//! use qrqw_sim::{CostModel, Machine, Pram};
//!
//! // n processors each increment their own cell: an EREW-legal step.
//! let n = 1024;
//! let mut pram = Pram::new(n);
//! pram.load(0, &vec![0u64; n]);
//! pram.par_for(n, |p, ctx| {
//!     let v = ctx.read(p);
//!     ctx.write(p, v + 1);
//! });
//! assert_eq!(pram.peek(n - 1), 1);
//! assert_eq!(pram.trace().violations(CostModel::Erew), 0);
//! assert_eq!(pram.trace().time(CostModel::Qrqw), 1);
//!
//! // all n processors read location 0: contention n under the queue rule.
//! pram.par_for(n, |_p, ctx| {
//!     let _ = ctx.read(0);
//! });
//! assert_eq!(pram.trace().step_stats()[1].max_read_contention, n as u64);
//! assert_eq!(pram.trace().time(CostModel::Qrqw), 1 + n as u64);
//! // ... while a CRCW machine would charge a single unit of time.
//! assert_eq!(pram.trace().time(CostModel::Crcw), 2);
//! ```
//!
//! ## Crate layout
//!
//! * [`machine`] — the [`Machine`] backend trait: the work–time presentation
//!   as an API, implemented by [`Pram`] here and by the native
//!   pooled-threads/atomics machine in `qrqw-exec`, so each algorithm is written once
//!   and runs on either substrate.  It is the only way to drive a [`Pram`].
//! * [`memory`] — the flat shared memory and the `EMPTY` sentinel.
//! * [`step`] — the per-processor context of a simulated step and its
//!   accounting walk.
//! * [`stats`] — [`StepStats`] and [`Trace`].
//! * [`model`] — the [`CostModel`] enumeration and per-step cost functions.
//! * [`pram`] — the [`Pram`] driver tying everything together, and its
//!   [`Machine`] implementation.  [`Pram::with_bsp`] builds one that also
//!   runs as the batch-message BSP machine of Theorem 1.1, counting the
//!   supersteps, messages and h-relations of each step's walk next to the
//!   predicted bound ([`BspCost`]).
//! * [`rng`] — deterministic per-(seed, step, processor) random streams.
//! * [`schedule`] — the BSP emulation charge of Theorem 1.1 and the integer
//!   logarithms (`lg`, `√lg`, `lg lg`, `lg*`) of the paper's bounds.

#![deny(missing_docs)]

mod bsp;
pub mod machine;
pub mod memory;
pub mod model;
pub mod pram;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod step;

pub use machine::{claim_by_steps, BspCost, ClaimMode, CostReport, Machine, MachineProc};
pub use memory::EMPTY;
pub use model::CostModel;
pub use pram::Pram;
pub use rng::proc_rng;
pub use schedule::bsp_emulation_time;
pub use stats::{StepStats, Trace};
