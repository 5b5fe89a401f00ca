//! # qrqw-core — the paper's low-contention parallel algorithms
//!
//! This crate implements every algorithm of Gibbons, Matias and
//! Ramachandran, *"Efficient Low-Contention Parallel Algorithms"*, on top of
//! the QRQW PRAM simulator (`qrqw-sim`) and its primitive toolbox
//! (`qrqw-prims`), together with the EREW/CRCW baselines the paper compares
//! against:
//!
//! | Paper section | Module |
//! |---|---|
//! | §3 load balancing (+ EREW prefix-sums baseline) | [`load_balancing`] |
//! | §3.3 L-spawning automatic processor allocation | [`spawning`] |
//! | §4 multiple compaction (heavy / light / relaxed) | [`multiple_compaction()`] |
//! | §5.1.1 random permutation + §5.2 experiment algorithms | [`permutation`] |
//! | §5.1.2–5.1.3 random *cyclic* permutation, Fig. 1 utilities | [`cyclic`] |
//! | §6 parallel hashing (R-class functions, two-level table) | [`hashing`] |
//! | §7.1 sorting from U(0,1) | [`distributive`] |
//! | §7.2 general sorting (sample sort + binary-search fat-tree) | [`sample_sort`], [`fat_tree`] |
//! | §7.3 integer sorting and Fetch&Add emulation | [`integer_sort`], [`fetch_add`] |
//!
//! Every public routine is generic over the [`qrqw_sim::Machine`] backend
//! trait: the same algorithm source runs on the exact-cost simulator
//! ([`qrqw_sim::Pram`]) — where its time under any PRAM cost model, its work,
//! and its contention profile can be read off the trace afterwards — and on
//! the native threads/atomics machine (`qrqw_exec::NativeMachine`) for wall
//! clock.  That is how the Table I / Table II harnesses and the
//! `Algorithm` registry in `qrqw-bench` are built; the cross-backend
//! parity suite in `tests/backends.rs` pins the exact contract each
//! algorithm keeps (bit-identical output for exclusive-claim and
//! deterministic routines, semantic validity for occupy-based ones).

#![deny(missing_docs)]

pub mod cyclic;
pub mod distributive;
pub mod fat_tree;
pub mod fetch_add;
pub mod hashing;
pub mod integer_sort;
pub mod load_balancing;
pub mod multiple_compaction;
pub mod open_table;
pub mod permutation;
pub mod sample_sort;
pub mod spawning;

pub use cyclic::{
    cycle_representation, is_cyclic, random_cyclic_permutation_efficient,
    random_cyclic_permutation_fast,
};
pub use distributive::sort_uniform_keys;
pub use fat_tree::FatTree;
pub use fetch_add::emulate_fetch_add_step;
pub use hashing::QrqwHashTable;
pub use integer_sort::integer_sort_crqw;
pub use load_balancing::{load_balance_erew, load_balance_qrqw, LoadBalanceResult, TaskBlock};
pub use multiple_compaction::{
    heavy_multiple_compaction, light_multiple_compaction, multiple_compaction, McLayout, McResult,
};
pub use open_table::{OpenTable, TableGeometry, TOMBSTONE};
pub use permutation::{
    is_permutation, random_permutation_dart_scan, random_permutation_qrqw,
    random_permutation_sorting_erew, PermutationOutcome,
};
pub use sample_sort::{sample_sort_crqw, sample_sort_qrqw};
pub use spawning::{run_l_spawning, SpawningReport};
