//! Integer sorting on the CRQW PRAM (Section 7.3).
//!
//! Sorts `n` integers in the range `[0, n·lg^c n)` in `O(lg n)` time and
//! linear work w.h.p. (Theorem 7.4), following the Rajasekaran–Reif
//! structure: the *main phase* sorts the keys by their `lg(n / lg³ n)` least
//! significant bits — sample the input, estimate per-label counts, and move
//! every key into its label's subarray with relaxed heavy multiple
//! compaction — and the *finishing phase* stably sorts the result by the
//! remaining high bits with the small-range EREW sort of Fact 4.3.
//!
//! The concurrent-read capability of the CRQW model is only needed in the
//! step where every key reads its label's count and subarray pointer
//! (step 5 of the paper's listing); the implementation performs those reads
//! directly, so under the QRQW metric the same trace shows the higher
//! contention the paper predicts — a contrast the ablation bench reports.

use crate::multiple_compaction::{build_layout, place_values};
use qrqw_prims::{compact_erew, pack, stable_sort_small_range, unpack_payload};
use qrqw_sim::schedule::ceil_lg;
use qrqw_sim::Machine;

/// Sorts `keys`, each below `max_key ≤ n · lg^c n` for a small constant `c`
/// (asserted loosely), returning the sorted sequence.
pub fn integer_sort_crqw<M: Machine>(m: &mut M, keys: &[u64], max_key: u64) -> Vec<u64> {
    let n = keys.len();
    if n <= 1 {
        return keys.to_vec();
    }
    assert!(
        keys.iter().all(|&k| k < max_key.max(1)),
        "keys must be < max_key"
    );
    let lg = ceil_lg(n as u64).max(1);
    assert!(
        max_key <= (n as u64).saturating_mul(lg * lg * lg * lg).max(16),
        "integer sorting expects keys in [0, n·polylog n)"
    );

    // Number of low-bit labels: D ≈ n / lg³ n, rounded to a power of two.
    let d_bits = {
        let target = (n as u64 / (lg * lg * lg).max(1)).max(2);
        ceil_lg(target)
    };
    let d = 1u64 << d_bits;

    // --- Steps 1–3: sample n / lg² n keys and derive per-label count
    // estimates count_j = β·lg² n·max(N_j, lg n) (the paper's overestimate).
    let sample_size = (n / (lg * lg) as usize).max(16).min(n);
    let samples: Vec<u64> = m.par_map(sample_size, |i, ctx| {
        ctx.compute(1);
        let _ = ctx.random_index(n);
        keys[(i * 7919 + ctx.random_index(n)) % n]
    });
    let mut sample_counts = vec![0u64; d as usize];
    for &k in &samples {
        sample_counts[(k & (d - 1)) as usize] += 1;
    }
    let beta = (n as u64).div_ceil(sample_size as u64);
    let counts: Vec<u64> = sample_counts
        .iter()
        .map(|&nj| beta * nj.max(lg) + lg)
        .collect();

    // --- Steps 4–6: build the output layout and place every key into its
    // label's subarray with relaxed heavy multiple compaction.  The keys'
    // *values* are written so the subarrays can be finished in place.
    let labels: Vec<u64> = keys.iter().map(|&k| k & (d - 1)).collect();
    let layout = build_layout(m, &counts);
    if !place_values(m, keys, &labels, &layout) {
        // count estimate failed (w.h.p. never): fall back to a full-width
        // radix sort, which is still linear work.
        return radix_fallback(m, keys, max_key);
    }

    // --- Step 7: compact B to size n.  The subarrays appear in label order,
    // so the result is sorted by the low bits.
    let packed = m.alloc(layout.b_len.max(1));
    let cnt = compact_erew(m, layout.b_base, layout.b_len, packed);
    assert_eq!(cnt as usize, n);

    // --- Finishing phase: stable small-range sort on the high bits
    // (Fact 4.3).
    let sorted = sort_high_bits(m, packed, n, d_bits, max_key);
    m.release_to(packed);
    sorted
}

/// The bits a packed word's key carries (see [`pack`]).
const KEY_BITS: u64 = 31;

/// Stably sorts the `n` values at `[base, base+n)`, already in order of
/// their low `d_bits` bits, by the rest (all below `max_key`), and returns
/// them.
fn sort_high_bits<M: Machine>(
    m: &mut M,
    base: usize,
    n: usize,
    d_bits: u64,
    max_key: u64,
) -> Vec<u64> {
    let high_range = (max_key >> d_bits) + 1;
    if high_range > 1 << KEY_BITS {
        // The high part outgrows a packed key: sort by all of it.
        sort_wide(m, base, n, ceil_lg(high_range) as usize, |v| v >> d_bits);
        return m.dump(base, n);
    }
    // Pack (high bits, low bits) and sort stably.
    m.par_for(n, |i, ctx| {
        let v = ctx.read(base + i);
        ctx.write(
            base + i,
            pack(v >> d_bits, v & ((1u64 << d_bits.min(32)) - 1)),
        );
    });
    stable_sort_small_range(m, base, n, high_range as usize);
    m.dump(base, n)
        .into_iter()
        .map(|w| (qrqw_prims::unpack_key(w) << d_bits) | unpack_payload(w))
        .collect()
}

/// Stably sorts the `n` values at `[base, base+n)` by the low `key_bits`
/// bits of `key(value)`, [`KEY_BITS`] at a time from the least
/// significant: each digit is radix-sorted as packed `(digit, index)`
/// words, and the values follow their indices.
fn sort_wide<M: Machine>(
    m: &mut M,
    base: usize,
    n: usize,
    key_bits: usize,
    key: impl Fn(u64) -> u64 + Sync,
) {
    let words = m.alloc(n);
    let moved = m.alloc(n);
    let digit_mask = (1u64 << KEY_BITS) - 1;
    for shift in (0..key_bits).step_by(KEY_BITS as usize) {
        let bits = (key_bits - shift).min(KEY_BITS as usize);
        m.par_for(n, |i, ctx| {
            let digit = (key(ctx.read(base + i)) >> shift) & digit_mask;
            ctx.write(words + i, pack(digit, i as u64));
        });
        qrqw_prims::radix_sort_packed(m, words, n, bits);
        // Each value is read by the one processor that holds its index.
        m.par_for(n, |j, ctx| {
            let i = unpack_payload(ctx.read(words + j)) as usize;
            let v = ctx.read(base + i);
            ctx.write(moved + j, v);
        });
        m.par_for(n, |j, ctx| {
            let v = ctx.read(moved + j);
            ctx.write(base + j, v);
        });
    }
    m.release_to(words);
}

fn radix_fallback<M: Machine>(m: &mut M, keys: &[u64], max_key: u64) -> Vec<u64> {
    let n = keys.len();
    let base = m.alloc(n);
    let bits = ceil_lg(max_key.max(2));
    if bits > KEY_BITS {
        m.load(base, keys);
        sort_wide(m, base, n, bits as usize, |k| k);
        let out = m.dump(base, n);
        m.release_to(base);
        return out;
    }
    let words: Vec<u64> = keys.iter().map(|&k| pack(k, 0)).collect();
    m.load(base, &words);
    qrqw_prims::radix_sort_packed(m, base, n, bits as usize);
    let out: Vec<u64> = m
        .dump(base, n)
        .into_iter()
        .map(qrqw_prims::unpack_key)
        .collect();
    m.release_to(base);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sorts_random_integers_in_range() {
        let n = 4000usize;
        let max_key = (n as u64) * 16;
        let mut rng = SmallRng::seed_from_u64(1);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..max_key)).collect();
        let mut pram = Pram::with_seed(4, 2);
        let got = integer_sort_crqw(&mut pram, &keys, max_key);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn sorts_skewed_integers() {
        let n = 1500usize;
        let max_key = (n as u64) * 4;
        let keys: Vec<u64> = (0..n as u64).map(|i| (i * i) % 17).collect();
        let mut pram = Pram::with_seed(4, 3);
        let got = integer_sort_crqw(&mut pram, &keys, max_key);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn tiny_inputs() {
        let mut pram = Pram::with_seed(4, 5);
        assert_eq!(integer_sort_crqw(&mut pram, &[], 10), Vec::<u64>::new());
        assert_eq!(integer_sort_crqw(&mut pram, &[3], 10), vec![3]);
        assert_eq!(integer_sort_crqw(&mut pram, &[3, 1, 2], 10), vec![1, 2, 3]);
    }

    #[test]
    fn the_fallback_sorts_keys_above_the_packed_key_width() {
        let keys = [5 << 32, 3, 1 << 35, 7];
        let mut pram = Pram::with_seed(4, 7);
        let got = radix_fallback(&mut pram, &keys, 1 << 36);
        assert_eq!(got, vec![3, 7, 5 << 32, 1 << 35]);
        assert_eq!(pram.heap_top(), 4, "scratch released");
    }

    #[test]
    fn the_finishing_phase_sorts_high_parts_above_the_packed_key_width() {
        // In order of the low 4 bits; the high parts need 36 bits.
        let vals = [(9 << 36) | 1, (3 << 4) | 1, (1 << 39) | 2, (9 << 36) | 3, 3];
        let mut pram = Pram::with_seed(4, 8);
        let base = pram.alloc(vals.len());
        pram.memory_mut().load(base, &vals);
        let got = sort_high_bits(&mut pram, base, vals.len(), 4, 1 << 40);
        let mut expect = vals.to_vec();
        expect.sort_by_key(|v| v >> 4); // stable: low bits stay in order
        assert_eq!(got, expect);
    }

    #[test]
    fn work_is_near_linear() {
        let n = 8192usize;
        let max_key = (n as u64) * 8;
        let mut rng = SmallRng::seed_from_u64(4);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..max_key)).collect();
        let mut pram = Pram::with_seed(4, 6);
        let got = integer_sort_crqw(&mut pram, &keys, max_key);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            pram.trace().work() <= 200 * n as u64,
            "work {} not near-linear",
            pram.trace().work()
        );
    }
}
