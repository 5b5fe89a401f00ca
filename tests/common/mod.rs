//! Helpers shared by the test crates that declare `mod common;` (each uses
//! a subset): the differential `Lockstep` machine and the parity harness.
#![allow(dead_code, unused_macros, unused_imports)]

pub mod lockstep;
pub mod parity;
