//! Helpers shared by the test crates that declare `mod common;` (each uses
//! a subset): the differential `Lockstep` machine and the machine-call
//! table.
#![allow(dead_code, unused_macros, unused_imports)]

pub mod kernels;
pub mod lockstep;
