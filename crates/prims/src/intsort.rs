//! Stable small-range integer sorting (Fact 4.3) and LSD radix sort.
//!
//! Fact 4.3 of the paper: *the EREW PRAM can stably sort `n` integers in the
//! range `[1..lg^c n]` in `O(lg n)` time and linear work.*  The proof sorts
//! by one `lg n`-sized digit per pass using per-group counting, a prefix-sums
//! computation over the count matrix `N[key, group]`, and a ranked copy-out;
//! that pass (with a configurable bucket count) is one machine call,
//! [`Machine::counting_pass`], and [`radix_sort_packed`] composes passes
//! into a general least-significant-digit radix sort for packed
//! `(key, payload)` words.
//!
//! Cells hold packed words (see [`crate::util::pack`]): the key in the high
//! 32 bits, an arbitrary payload (usually the original index) in the low 32
//! bits.

use qrqw_sim::Machine;

use crate::util::unpack_key;

/// Stably sorts the packed words of `[base, base+n)` by their (full) key
/// field, assuming every key is below `num_keys`.
///
/// For `num_keys ≤ lg^c n` this is exactly the Fact 4.3 routine (applied in
/// `⌈lg num_keys / lg g⌉` digit passes of `g = max(lg n, 256)` buckets
/// each); the total time is `O(lg n)` per pass with linear work.
pub fn stable_sort_small_range<M: Machine>(m: &mut M, base: usize, n: usize, num_keys: usize) {
    if n <= 1 || num_keys <= 1 {
        return;
    }
    let digit_buckets = qrqw_sim::schedule::ceil_lg(n.max(4) as u64).clamp(256, 1 << 12) as usize;
    if num_keys <= digit_buckets {
        m.counting_pass(base, n, num_keys, unpack_key);
        return;
    }
    let key_bits = 64 - (num_keys as u64 - 1).leading_zeros();
    radix_sort_packed(m, base, n, key_bits as usize);
}

/// Stable LSD radix sort of packed words by the low `key_bits` bits of
/// their key field; `O(key_bits / 8)` counting passes of 256 buckets each.
pub fn radix_sort_packed<M: Machine>(m: &mut M, base: usize, n: usize, key_bits: usize) {
    if n <= 1 || key_bits == 0 {
        return;
    }
    let digit_bits = 8usize;
    let passes = key_bits.div_ceil(digit_bits);
    for t in 0..passes {
        let shift = t * digit_bits;
        m.counting_pass(base, n, 1 << digit_bits, move |w| {
            (unpack_key(w) >> shift) & 0xFF
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{pack, unpack_payload};
    use qrqw_sim::{CostModel, Pram};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn load_pairs(pram: &mut Pram, pairs: &[(u64, u64)]) {
        let words: Vec<u64> = pairs.iter().map(|&(k, p)| pack(k, p)).collect();
        pram.ensure_memory(words.len());
        pram.memory_mut().load(0, &words);
    }

    fn read_pairs(pram: &Pram, n: usize) -> Vec<(u64, u64)> {
        pram.memory()
            .dump(0, n)
            .into_iter()
            .map(|w| (unpack_key(w), unpack_payload(w)))
            .collect()
    }

    #[test]
    fn small_range_sort_matches_stable_reference() {
        let mut rng = SmallRng::seed_from_u64(5);
        let pairs: Vec<(u64, u64)> = (0..300).map(|i| (rng.gen_range(0..16), i)).collect();
        let mut pram = Pram::new(1);
        load_pairs(&mut pram, &pairs);
        stable_sort_small_range(&mut pram, 0, pairs.len(), 16);
        let mut expect = pairs.clone();
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        assert_eq!(read_pairs(&pram, pairs.len()), expect);
        assert_eq!(pram.trace().violations(CostModel::Erew), 0);
    }

    #[test]
    fn radix_sort_handles_large_keys() {
        let mut rng = SmallRng::seed_from_u64(17);
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (rng.gen_range(0..1_000_000), i)).collect();
        let mut pram = Pram::new(1);
        load_pairs(&mut pram, &pairs);
        radix_sort_packed(&mut pram, 0, pairs.len(), 20);
        let mut expect = pairs.clone();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(read_pairs(&pram, pairs.len()), expect);
    }

    #[test]
    fn sort_is_stable_across_digit_boundaries() {
        // keys chosen so that several share low digits but differ in high ones
        let pairs: Vec<(u64, u64)> =
            vec![(0x201, 0), (0x101, 1), (0x201, 2), (0x001, 3), (0x101, 4)];
        let mut pram = Pram::new(1);
        load_pairs(&mut pram, &pairs);
        radix_sort_packed(&mut pram, 0, pairs.len(), 12);
        assert_eq!(
            read_pairs(&pram, pairs.len()),
            vec![(0x001, 3), (0x101, 1), (0x101, 4), (0x201, 0), (0x201, 2)]
        );
    }

    #[test]
    fn linear_work_and_logarithmic_time_per_pass() {
        let n = 4096usize;
        let mut rng = SmallRng::seed_from_u64(2);
        let pairs: Vec<(u64, u64)> = (0..n as u64).map(|i| (rng.gen_range(0..12), i)).collect();
        let mut pram = Pram::new(1);
        load_pairs(&mut pram, &pairs);
        stable_sort_small_range(&mut pram, 0, n, 12);
        let work = pram.trace().work();
        assert!(work <= 40 * n as u64, "work {work} should be linear");
        let t = pram.trace().time(CostModel::Qrqw);
        // group size is max(lg n, 256) here, so time is O(g)
        assert!(t <= 4 * 256 + 200, "time {t} unexpectedly high");
    }

    #[test]
    fn degenerate_inputs_are_noops() {
        let mut pram = Pram::new(4);
        stable_sort_small_range(&mut pram, 0, 0, 10);
        stable_sort_small_range(&mut pram, 0, 1, 10);
        radix_sort_packed(&mut pram, 0, 1, 8);
        assert_eq!(pram.trace().num_steps(), 0);
    }

    #[test]
    fn single_bucket_input_preserves_order() {
        let pairs: Vec<(u64, u64)> = (0..50).map(|i| (7, i)).collect();
        let mut pram = Pram::new(1);
        load_pairs(&mut pram, &pairs);
        pram.counting_pass(0, 50, 8, unpack_key);
        assert_eq!(read_pairs(&pram, 50), pairs);
    }
}
