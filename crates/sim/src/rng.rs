//! Deterministic per-processor randomness.
//!
//! Every virtual processor in every step gets its own random stream derived
//! from `(master seed, step index, processor id)` via a SplitMix64-style
//! mixer.  This makes simulated executions fully reproducible (and
//! insensitive to the order in which the worker pool schedules the virtual
//! processors), while still giving the independent random choices the
//! paper's "Las Vegas" analyses assume.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the deterministic random generator for processor `proc` in step
/// `step` of a run seeded with `seed`.
///
/// `#[inline]`: every backend's `random_index` calls this per drawing
/// processor from step closures monomorphised in downstream crates, which
/// build without LTO.
#[inline]
pub fn proc_rng(seed: u64, step: u64, proc: u64) -> SmallRng {
    let s0 = mix64(seed ^ mix64(step));
    let s1 = mix64(s0 ^ mix64(proc.wrapping_add(0xA5A5_A5A5_A5A5_A5A5)));
    SmallRng::seed_from_u64(s1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_coordinates_give_same_stream() {
        let mut a = proc_rng(1, 2, 3);
        let mut b = proc_rng(1, 2, 3);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_processors_give_different_streams() {
        let mut a = proc_rng(1, 2, 3);
        let mut b = proc_rng(1, 2, 4);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_steps_give_different_streams() {
        let mut a = proc_rng(1, 2, 3);
        let mut b = proc_rng(1, 3, 3);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn mix64_is_not_identity_and_spreads_small_inputs() {
        let outs: Vec<u64> = (0..64u64).map(mix64).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "small inputs must not collide");
    }
}
