//! SplitMix64: the package's only source of input randomness.  Every
//! generator derives from `--seed` through it, so the same seed gives the
//! same bytes on every host and toolchain.

/// Steele–Lea–Flood SplitMix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias is below 2^-40 for
    /// every bound this package uses).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent stream for `(seed, lane)`: one generator per purpose, so
/// adding a draw to one never shifts another.
pub fn stream(seed: u64, lane: u64) -> SplitMix64 {
    let mut s = SplitMix64::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    SplitMix64::new(s.next_u64())
}

/// Field size of the §6 hash functions (2^31 − 1): every key stays below it.
pub const KEY_PRIME: u64 = qrqw_core::hashing::HASH_PRIME;

/// A seeded injective map from ids to keys below [`KEY_PRIME`]:
/// `id ↦ (id + offset + 1)·mult` is a bijection modulo a prime, so
/// distinct ids (below `KEY_PRIME / 2`) give distinct keys.
#[derive(Debug, Clone, Copy)]
pub struct KeyMap {
    mult: u64,
    offset: u64,
}

impl KeyMap {
    pub fn new(rng: &mut SplitMix64) -> KeyMap {
        KeyMap {
            mult: 2 + rng.below(KEY_PRIME - 2),
            offset: rng.below(KEY_PRIME / 2),
        }
    }

    pub fn key(&self, id: u64) -> u64 {
        ((id + self.offset + 1) % KEY_PRIME) * self.mult % KEY_PRIME
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_splitmix64_vectors() {
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(s.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn key_maps_are_injective_and_in_range() {
        let map = KeyMap::new(&mut stream(4, 4));
        let mut keys: Vec<u64> = (0..10_000).map(|id| map.key(id)).collect();
        assert!(keys.iter().all(|&k| k < KEY_PRIME));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn streams_are_deterministic_independent_and_in_range() {
        let draw = |seed, lane| -> Vec<u64> {
            let mut s = stream(seed, lane);
            (0..8).map(|_| s.below(1000)).collect()
        };
        assert_eq!(draw(5, 1), draw(5, 1));
        assert_ne!(draw(5, 1), draw(5, 2));
        assert_ne!(draw(5, 1), draw(6, 1));
        assert!(draw(9, 9).iter().all(|&v| v < 1000));
        let mut s = stream(1, 1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&s.unit())));
    }
}
