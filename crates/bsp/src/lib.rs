//! # qrqw-bsp — the benchmark harness's name for the BSP machine
//!
//! The batch-message BSP machine of Theorem 1.1 is a [`qrqw_sim::Pram`]
//! built with [`qrqw_sim::Pram::with_bsp`]: its step walk counts supersteps,
//! messages and h-relations next to the predicted bound.  This crate keeps
//! only the constructor path the `perfbench` harness compiles against; the
//! benchmark change that moves the harness to `Pram::with_bsp` deletes it.

#![deny(missing_docs)]

use qrqw_sim::Pram;

/// The BSP machine's constructor under the name `perfbench` calls it by.
#[derive(Debug)]
pub struct BspMachine;

impl BspMachine {
    /// [`Pram::with_bsp`]`(mem_size, seed, threads)`.
    pub fn with_threads(mem_size: usize, seed: u64, threads: usize) -> Pram {
        Pram::with_bsp(mem_size, seed, threads)
    }
}
