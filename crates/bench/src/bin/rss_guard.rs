//! `rss_guard` — asserts that arena growth does not spike resident memory.
//!
//! The sharded arena's whole point is that `NativeMachine::grow` appends
//! shards without copying live cells, so peak RSS during a staged growth
//! stays at the steady-state footprint.  The old monolithic `Vec` realloc
//! briefly held old + new copies: a doubling growth showed a peak around
//! 1.5× the final footprint.  This probe measures exactly that, from the
//! kernel's own accounting:
//!
//! 1. read `VmRSS` / `VmHWM` from `/proc/self/status` before any arena
//!    exists;
//! 2. grow a [`NativeMachine`] to `CELLS` in `STAGES` doublings
//!    (every fresh cell is written — the EMPTY fill — so pages are
//!    committed);
//! 3. re-read, and compare the growth's peak delta against its steady
//!    delta.  A ratio above `MAX_RATIO` fails the run.
//!
//! It takes no arguments (any argument exits 2):
//!
//! ```text
//! cargo run --release -p qrqw-bench --bin rss_guard
//! ```
//!
//! On systems without `/proc/self/status` (or without the fields) the
//! probe prints a note and exits 0 — it guards Linux CI, not every host.

use qrqw_exec::NativeMachine;
use qrqw_sim::Machine;

/// The grown arena: 2^24 cells, 128 MiB.
const CELLS: usize = 1 << 24;
/// Doublings from `CELLS >> STAGES` up to `CELLS`.
const STAGES: u32 = 8;
/// Bound on the growth's peak resident delta over its steady one.
const MAX_RATIO: f64 = 1.10;

/// Reads one `kB` field (e.g. `VmHWM`) from `/proc/self/status`.
fn status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn snapshot() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    Some((status_kb(&text, "VmRSS:")?, status_kb(&text, "VmHWM:")?))
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: rss_guard (it takes no arguments)");
        std::process::exit(2);
    }
    let Some((rss0, hwm0)) = snapshot() else {
        println!("rss_guard: /proc/self/status unavailable; skipping");
        return;
    };
    if hwm0 > rss0 + (rss0 / 4) {
        // Startup already spiked well above the current footprint; the
        // growth peak would hide under it and the guard would pass
        // vacuously.  This process does nothing before the probe, so
        // treat it as a broken measurement rather than a green one.
        eprintln!(
            "rss_guard: pre-growth high-water {hwm0} kB dwarfs RSS {rss0} kB; cannot measure"
        );
        std::process::exit(2);
    }

    // Staged doubling growth: the worst case for a realloc-based arena
    // (every stage copies everything so far), a no-op pattern for the
    // sharded one.
    let first = CELLS >> STAGES;
    let mut m = NativeMachine::with_seed(first, 0);
    let mut size = first;
    while size < CELLS {
        size *= 2;
        m.ensure_memory(size);
    }
    assert_eq!(m.arena_stats().cells, CELLS);

    let Some((rss1, hwm1)) = snapshot() else {
        println!("rss_guard: /proc/self/status vanished mid-run; skipping");
        return;
    };
    let steady = rss1.saturating_sub(rss0);
    let peak = hwm1.saturating_sub(rss0).max(steady);
    if steady == 0 {
        eprintln!("rss_guard: growth of {CELLS} cells left RSS unchanged; cannot measure");
        std::process::exit(2);
    }
    let ratio = peak as f64 / steady as f64;
    println!(
        "rss_guard: {CELLS} cells in {STAGES} stages ({} shards): steady +{steady} kB, \
         peak +{peak} kB, peak/steady {ratio:.3} (limit {MAX_RATIO:.3})",
        m.arena_stats().shards,
    );
    if ratio > MAX_RATIO {
        eprintln!(
            "rss_guard: FAIL — growth transiently used {ratio:.3}x its steady footprint \
             (limit {MAX_RATIO:.3}); the arena is copying live cells again"
        );
        std::process::exit(1);
    }
    println!("rss_guard: OK — growth appends without copying");
}
