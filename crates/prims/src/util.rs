//! Word-packing helpers.
//!
//! Shared-memory cells are single `u64` words.  Several algorithms need to
//! carry a `(key, payload)` pair per cell — e.g. "a key together with the
//! index of the item it came from" — exactly as one would on a real PRAM
//! where a cell holds `O(lg n)` bits.  We pack the key into the high 32 bits
//! and the payload into the low 32 bits, so that sorting packed words by
//! numeric value sorts by key with ties broken by payload (which keeps
//! radix/bitonic sorts stable with respect to original positions when the
//! payload is the original index).

/// Number of bits reserved for the payload (low half of the word).
pub const PAYLOAD_BITS: u32 = 32;

/// Packs `key` (at most 31 bits for safe headroom below [`qrqw_sim::EMPTY`])
/// and `payload` (at most 32 bits) into one word.
pub fn pack(key: u64, payload: u64) -> u64 {
    debug_assert!(key < (1 << 31), "packed key must fit in 31 bits");
    debug_assert!(payload < (1 << PAYLOAD_BITS), "payload must fit in 32 bits");
    (key << PAYLOAD_BITS) | payload
}

/// Extracts the key from a packed word.
pub fn unpack_key(word: u64) -> u64 {
    word >> PAYLOAD_BITS
}

/// Extracts the payload from a packed word.
pub fn unpack_payload(word: u64) -> u64 {
    word & ((1 << PAYLOAD_BITS) - 1)
}

/// The smallest power of two `≥ x` (and `≥ 1`).
pub fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        let w = pack(12345, 678);
        assert_eq!(unpack_key(w), 12345);
        assert_eq!(unpack_payload(w), 678);
    }

    #[test]
    fn packed_order_is_key_major_payload_minor() {
        assert!(pack(1, 999) < pack(2, 0));
        assert!(pack(5, 1) < pack(5, 2));
    }

    #[test]
    fn packed_values_stay_below_empty_sentinel() {
        assert!(pack((1 << 31) - 1, (1 << 32) - 1) < qrqw_sim::EMPTY);
    }

    #[test]
    fn small_helpers() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(8), 8);
    }
}
