//! Parallel hashing (Section 6).
//!
//! Builds a linear-size hash table for a set `S` of `n` distinct keys in
//! `O(lg n)` time and linear work w.h.p. on the QRQW PRAM, and answers `n`
//! membership queries in `O(lg n / lg lg n)` time (Theorem 6.1).
//!
//! The construction follows Gil–Matias oblivious execution, adapted as in
//! the paper:
//!
//! 1. The first-level function is drawn from the
//!    Dietzfelbinger–Meyer-auf-der-Heide class
//!    `R = { h(x) = (g(x) + a_{f(x)}) mod n }` with `k = Θ(n^{3/7})`
//!    displacement parameters `a_j`, because its buckets are
//!    `O(lg n / lg lg n)`-bounded w.h.p. (Fact 6.3) — polynomial hash
//!    functions alone would give polynomially large buckets.
//! 2. Each `a_j` is **duplicated** into `Θ(n/k)` copies (Lemma 6.4); during
//!    evaluation every key reads a *random copy* of `a_{f(x)}`, so the
//!    contention of the evaluation step is `O(lg n / lg lg n)` w.h.p. — the
//!    paper's duplication technique, exercised with real accounted reads.
//! 3. `O(lg lg n)` oblivious iterations follow: blocks of geometrically
//!    growing size are allocated, every still-active bucket claims a random
//!    block (occupy-mode claim) and tries to map its keys injectively into
//!    it with a random linear hash function, recording the block and the
//!    function on success.
//!
//! Lookups recompute the first-level function (same duplicated reads), read
//! the bucket's directory entry and probe one cell of its block.

use qrqw_prims::{duplicate_values, ClaimMode};
use qrqw_sim::schedule::lg_lg;
use qrqw_sim::{Machine, EMPTY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The Mersenne prime `2^31 - 1`, the field size `q` for all hash-function
/// arithmetic (keys must be below it).
pub const HASH_PRIME: u64 = (1 << 31) - 1;

/// A degree-`d` polynomial hash function `x ↦ ((Σ aᵢ xⁱ) mod q) mod range`.
#[derive(Debug, Clone)]
pub struct PolyHash {
    coeffs: Vec<u64>,
    range: u64,
}

impl PolyHash {
    /// Draws a random polynomial of degree `degree` mapping into `range`.
    pub fn random(rng: &mut SmallRng, degree: usize, range: u64) -> Self {
        PolyHash {
            coeffs: (0..=degree).map(|_| rng.gen_range(0..HASH_PRIME)).collect(),
            range: range.max(1),
        }
    }

    /// Evaluates the polynomial (Horner) — `degree + 1` arithmetic ops.
    ///
    /// `x` may be any `u64` (lookups take arbitrary queries): it is reduced
    /// mod `q` once, after which every operand is below `2^31` and Horner
    /// runs in `u64` — `acc·x + c < 2^62 + 2^31`.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        let x = x % HASH_PRIME;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = (acc * x + c) % HASH_PRIME;
        }
        acc % self.range
    }

    /// Number of arithmetic operations one evaluation charges.
    #[inline]
    pub fn cost(&self) -> u64 {
        self.coeffs.len() as u64
    }
}

/// The secondary (per-bucket) linear hash `((sa·x + sb) mod q) mod size`,
/// the cell of key `x` inside its bucket's block.  `sa, sb < q`; `x` may be
/// any `u64` and is reduced mod `q` first, so the product stays below
/// `2^62` in `u64`.
#[inline]
fn linear_hash(sa: u64, sb: u64, x: u64, size: u64) -> usize {
    debug_assert!(sa < HASH_PRIME && sb < HASH_PRIME);
    ((sa * (x % HASH_PRIME) + sb) % HASH_PRIME % size) as usize
}

/// A two-level hash table built by the QRQW algorithm of Theorem 6.1.
#[derive(Debug)]
pub struct QrqwHashTable {
    n: usize,
    k: usize,
    copies: usize,
    /// Region holding the duplicated displacement parameters `a_j`.
    a_region: usize,
    f: PolyHash,
    g: PolyHash,
    /// Directory region: 3 cells per bucket (block base, secondary a,
    /// secondary b); `EMPTY` block base means the bucket is empty.
    directory: usize,
    /// Per-bucket block size (host mirror of what the directory describes).
    block_size: Vec<u64>,
    /// Build statistics.
    pub iterations: u64,
    /// Whether any bucket needed the sequential Las-Vegas clean-up.
    pub fallback_used: bool,
}

impl QrqwHashTable {
    /// First-level bucket of key `x`, *without* accounting (host-side use
    /// only; the accounted evaluation happens inside build/lookup steps).
    fn bucket_of<M: Machine>(&self, m: &M, x: u64) -> usize {
        let j = self.f.eval(x) as usize;
        let a = m.peek(self.a_region + j * self.copies);
        ((self.g.eval(x) + a) % self.n as u64) as usize
    }

    /// Builds a hash table for the distinct keys `keys` (all `< 2^31 - 1`)
    /// on any [`Machine`] backend.  Host-side random draws (the hash
    /// functions themselves) come from a `SmallRng` seeded by the machine
    /// seed, so two backends with the same seed build with the same hash
    /// functions, and the occupy-mode block claims go to the lowest claimant
    /// index on every backend (the determinism contract's claim rule, pinned
    /// by `tests/determinism.rs`), so the same seed takes the same build
    /// trajectory everywhere: the same buckets win the same blocks in the
    /// same iterations, with the same step count and contention totals.
    /// Only the residue in blocks a failed iteration abandoned may differ —
    /// two keys colliding inside a block are plain racing writes.
    pub fn build<M: Machine>(m: &mut M, keys: &[u64]) -> QrqwHashTable {
        let n = keys.len().max(1);
        assert!(
            keys.iter().all(|&k| k < HASH_PRIME),
            "keys must be < 2^31-1"
        );
        let mut rng = SmallRng::seed_from_u64(m.seed() ^ 0x9A17);

        // --- Step 1: draw h ∈ R and duplicate its parameters (Lemma 6.4).
        let k = ((n as f64).powf(3.0 / 7.0).ceil() as usize).max(1);
        let copies = (4 * n).div_ceil(k).max(1);
        let f = PolyHash::random(&mut rng, 7, k as u64);
        let g = PolyHash::random(&mut rng, 11, n as u64);
        let a_src = m.alloc(k);
        let a_vals: Vec<u64> = (0..k).map(|_| rng.gen_range(0..n as u64)).collect();
        m.par_for(k, |j, ctx| {
            ctx.compute(1);
            ctx.write(a_src + j, a_vals[j]);
        });
        let a_region = m.alloc(k * copies);
        duplicate_values(m, a_src, k, a_region, copies);

        let directory = m.alloc(3 * n);
        let mut table = QrqwHashTable {
            n,
            k,
            copies,
            a_region,
            f,
            g,
            directory,
            block_size: vec![0; n],
            iterations: 0,
            fallback_used: false,
        };
        if keys.is_empty() {
            return table;
        }

        // Accounted evaluation of h on every key: each key reads a random
        // copy of a_{f(x)} — the low-contention evaluation of Lemma 6.4.
        let buckets = table.eval_batch(m, keys);

        // Group keys by bucket (host mirror of the processors' private
        // knowledge of their own bucket).
        let mut bucket_keys: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (i, &b) in buckets.iter().enumerate() {
            bucket_keys[b].push(keys[i]);
        }
        let mut active: Vec<usize> = (0..n).filter(|&b| !bucket_keys[b].is_empty()).collect();

        // --- Oblivious iterations (allocation + hashing).
        let t_star = 2 * lg_lg(n as u64) + 6;
        let mut iter = 0u64;
        while !active.is_empty() && iter < t_star {
            iter += 1;
            let x_t = 1usize << (iter + 2).min(12); // block size (capped)
            let m_t = ((2 * n) >> (2 * (iter as usize - 1)).min(24)).max(64); // number of blocks
            let blocks = m.alloc(m_t * (x_t + 1)); // +1 header cell per block

            // Allocation substep: every active bucket claims a random block.
            let active_ref = &active;
            let picks: Vec<usize> = m.par_map(active_ref.len(), |_b, ctx| ctx.random_index(m_t));
            let attempts: Vec<(u64, usize)> = active
                .iter()
                .zip(&picks)
                .map(|(&b, &blk)| (b as u64 + 1, blocks + blk * (x_t + 1)))
                .collect();
            let won = m.claim(&attempts, ClaimMode::Occupy);

            // Hashing substep: claimed buckets try a random linear function.
            let mut sec: Vec<(u64, u64)> = Vec::with_capacity(active.len());
            for _ in 0..active.len() {
                sec.push((rng.gen_range(1..HASH_PRIME), rng.gen_range(0..HASH_PRIME)));
            }
            // Each key of a claimed bucket writes itself into the block and
            // reads back; collisions are detected exactly as in Section 5.1.
            let mut writes: Vec<(u64, usize)> = Vec::new(); // (key, cell)
            let mut write_owner: Vec<usize> = Vec::new(); // active-slot per write
            for (slot, &b) in active.iter().enumerate() {
                if !won[slot] {
                    continue;
                }
                let (sa, sb) = sec[slot];
                let body = attempts[slot].1 + 1;
                for &key in &bucket_keys[b] {
                    let pos = linear_hash(sa, sb, key, x_t as u64);
                    writes.push((key, body + pos));
                    write_owner.push(slot);
                }
            }
            let writes_ref = &writes;
            m.par_for(writes_ref.len(), |w, ctx| {
                ctx.compute(2);
                ctx.write(writes_ref[w].1, writes_ref[w].0);
            });
            let ok: Vec<bool> = m.par_map(writes_ref.len(), |w, ctx| {
                ctx.read(writes_ref[w].1) == writes_ref[w].0
            });
            // Aggregate per bucket (the per-bucket OR the paper charges at
            // contention ≤ bucket size).
            let mut bucket_ok: Vec<bool> = vec![true; active.len()];
            for (w, &slot) in write_owner.iter().enumerate() {
                bucket_ok[slot] &= ok[w];
            }
            m.par_for(writes_ref.len(), |w, ctx| {
                // model the failure-flag write of each key
                let _ = w;
                ctx.compute(1);
            });

            // Successful buckets record their directory entry.
            let mut dir_writes: Vec<(usize, u64, u64, u64)> = Vec::new();
            let mut still = Vec::new();
            for (slot, &b) in active.iter().enumerate() {
                if won[slot] && bucket_ok[slot] {
                    let (sa, sb) = sec[slot];
                    dir_writes.push((b, (attempts[slot].1 + 1) as u64, sa, sb));
                    table.block_size[b] = x_t as u64;
                } else {
                    still.push(b);
                }
            }
            let dir_ref = &dir_writes;
            let dir_base = directory;
            m.par_for(dir_ref.len(), |d, ctx| {
                let (b, base, sa, sb) = dir_ref[d];
                ctx.write(dir_base + 3 * b, base);
                ctx.write(dir_base + 3 * b + 1, sa);
                ctx.write(dir_base + 3 * b + 2, sb);
            });
            active = still;
        }
        table.iterations = iter;

        // Las-Vegas clean-up: any bucket still unserved gets a private
        // quadratic-size block built sequentially (FKS second level).
        if !active.is_empty() {
            table.fallback_used = true;
            for &b in &active {
                let keys_b = bucket_keys[b].clone();
                let size = (keys_b.len() * keys_b.len() * 2).max(4);
                let block = m.alloc(size + 1);
                let mut placed = None;
                for _try in 0..64 {
                    let sa = rng.gen_range(1..HASH_PRIME);
                    let sb = rng.gen_range(0..HASH_PRIME);
                    let mut cells: Vec<usize> = keys_b
                        .iter()
                        .map(|&key| linear_hash(sa, sb, key, size as u64))
                        .collect();
                    cells.sort_unstable();
                    cells.dedup();
                    if cells.len() == keys_b.len() {
                        placed = Some((sa, sb));
                        break;
                    }
                }
                let (sa, sb) = placed.expect("quadratic block admits a perfect linear hash");
                let keys_ref = &keys_b;
                m.par_for(keys_ref.len(), |i, ctx| {
                    let key = keys_ref[i];
                    let pos = linear_hash(sa, sb, key, size as u64);
                    ctx.write(block + 1 + pos, key);
                    ctx.compute(2);
                });
                m.par_for(1, |_p, ctx| {
                    ctx.write(dir_base_of(directory, b), (block + 1) as u64);
                    ctx.write(dir_base_of(directory, b) + 1, sa);
                    ctx.write(dir_base_of(directory, b) + 2, sb);
                });
                table.block_size[b] = size as u64;
            }
        }
        table
    }

    /// Accounted batch evaluation of the first-level function: every key
    /// reads a random copy of its `a_{f(x)}` parameter (Lemma 6.4).
    fn eval_batch<M: Machine>(&self, m: &mut M, keys: &[u64]) -> Vec<usize> {
        let f = self.f.clone();
        let g = self.g.clone();
        let (copies, a_region, n) = (self.copies, self.a_region, self.n);
        m.par_map(keys.len(), |i, ctx| {
            let x = keys[i];
            ctx.compute(f.cost() + g.cost());
            let j = f.eval(x) as usize;
            let r = ctx.random_index(copies);
            let a = ctx.read(a_region + j * copies + r);
            ((g.eval(x) + a) % n as u64) as usize
        })
    }

    /// Answers `queries.len()` membership queries in parallel, returning
    /// `true` for each query key present in the table.
    pub fn lookup_batch<M: Machine>(&self, m: &mut M, queries: &[u64]) -> Vec<bool> {
        if queries.is_empty() {
            return Vec::new();
        }
        let buckets = self.eval_batch(m, queries);
        let directory = self.directory;
        let block_size = &self.block_size;
        m.par_map(queries.len(), |i, ctx| {
            let b = buckets[i];
            let base = ctx.read(directory + 3 * b);
            if base == EMPTY {
                return false;
            }
            let sa = ctx.read(directory + 3 * b + 1);
            let sb = ctx.read(directory + 3 * b + 2);
            let size = block_size[b].max(1);
            let x = queries[i];
            ctx.compute(2);
            ctx.read(base as usize + linear_hash(sa, sb, x, size)) == x
        })
    }

    /// Host-side membership check (no accounting), for validation in tests.
    pub fn contains<M: Machine>(&self, m: &M, x: u64) -> bool {
        let b = self.bucket_of(m, x);
        let base = m.peek(self.directory + 3 * b);
        if base == EMPTY {
            return false;
        }
        let sa = m.peek(self.directory + 3 * b + 1);
        let sb = m.peek(self.directory + 3 * b + 2);
        let size = self.block_size[b].max(1);
        m.peek(base as usize + linear_hash(sa, sb, x, size)) == x
    }

    /// Number of first-level displacement parameters (`k = Θ(n^{3/7})`).
    pub fn displacement_parameters(&self) -> usize {
        self.k
    }
}

fn dir_base_of(directory: usize, bucket: usize) -> usize {
    directory + 3 * bucket
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::schedule::ceil_lg;
    use qrqw_sim::{CostModel, Pram};

    fn distinct_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = std::collections::HashSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..HASH_PRIME));
        }
        set.into_iter().collect()
    }

    /// The `u128` forms the `u64` arithmetic replaced, kept as references.
    fn poly_u128(coeffs: &[u64], range: u64, x: u64) -> u64 {
        let mut acc: u128 = 0;
        for &c in coeffs.iter().rev() {
            acc = (acc * (x as u128) + c as u128) % HASH_PRIME as u128;
        }
        (acc as u64) % range
    }

    fn linear_u128(sa: u64, sb: u64, x: u64, size: u64) -> usize {
        (((sa as u128 * x as u128 + sb as u128) % HASH_PRIME as u128) % size as u128) as usize
    }

    #[test]
    fn u64_hash_arithmetic_equals_the_u128_reference() {
        let mut rng = SmallRng::seed_from_u64(0xA71);
        // Lookups accept arbitrary queries: cover the field's edge and
        // values far past it besides ordinary keys.
        let mut xs = vec![
            0,
            1,
            HASH_PRIME - 1,
            HASH_PRIME,
            HASH_PRIME + 1,
            (1 << 33) + 7,
            u64::MAX,
        ];
        xs.extend((0..200).map(|_| rng.gen_range(0..1u64 << 31)));
        for _ in 0..50 {
            let range = match rng.gen_range(0..3) {
                0 => 1,
                1 => rng.gen_range(1..1 << 20),
                _ => rng.gen_range(1..u64::MAX),
            };
            for degree in [0, 1, 7, 11] {
                let mut h = PolyHash::random(&mut rng, degree, range);
                if degree == 1 {
                    // the worst case for the u64 product
                    h.coeffs = vec![HASH_PRIME - 1; 2];
                }
                for &x in &xs {
                    assert_eq!(h.eval(x), poly_u128(&h.coeffs, h.range, x), "x = {x}");
                }
            }
            let sa = [1, HASH_PRIME - 1, rng.gen_range(1..HASH_PRIME)][rng.gen_range(0..3usize)];
            let sb = [0, HASH_PRIME - 1, rng.gen_range(0..HASH_PRIME)][rng.gen_range(0..3usize)];
            for &x in &xs {
                assert_eq!(
                    linear_hash(sa, sb, x, range),
                    linear_u128(sa, sb, x, range),
                    "x = {x}"
                );
            }
        }
    }

    #[test]
    fn build_and_lookup_positive_and_negative() {
        let keys = distinct_keys(500, 3);
        let mut pram = Pram::with_seed(4, 5);
        let table = QrqwHashTable::build(&mut pram, &keys);
        let hits = table.lookup_batch(&mut pram, &keys);
        assert!(hits.iter().all(|&h| h), "every stored key must be found");

        let others: Vec<u64> = distinct_keys(500, 77)
            .into_iter()
            .filter(|k| !keys.contains(k))
            .collect();
        let misses = table.lookup_batch(&mut pram, &others);
        assert!(misses.iter().all(|&h| !h), "absent keys must not be found");
    }

    #[test]
    fn host_side_contains_agrees_with_lookup() {
        let keys = distinct_keys(128, 9);
        let mut pram = Pram::with_seed(4, 6);
        let table = QrqwHashTable::build(&mut pram, &keys);
        for &k in keys.iter().take(20) {
            assert!(table.contains(&pram, k));
        }
        assert!(!table.contains(&pram, HASH_PRIME - 1));
    }

    #[test]
    fn contention_of_evaluation_is_sublogarithmic_ish() {
        let n = 4096;
        let keys = distinct_keys(n, 13);
        let mut pram = Pram::with_seed(4, 7);
        let table = QrqwHashTable::build(&mut pram, &keys);
        let _ = pram.take_trace();
        let _ = table.lookup_batch(&mut pram, &keys);
        let lg = ceil_lg(n as u64);
        assert!(
            pram.trace().max_contention() <= 3 * lg,
            "lookup contention {} too high (duplication should bound it by O(lg n / lg lg n))",
            pram.trace().max_contention()
        );
        // the CRCW time is a small constant (dominated by the polynomial
        // evaluation's arithmetic, not by contention)
        assert!(pram.trace().time(CostModel::Crcw) <= 64);
    }

    #[test]
    fn build_work_is_near_linear() {
        let n = 2048;
        let keys = distinct_keys(n, 21);
        let mut pram = Pram::with_seed(4, 8);
        let _ = QrqwHashTable::build(&mut pram, &keys);
        assert!(
            pram.trace().work() <= 200 * n as u64,
            "build work {} not near-linear",
            pram.trace().work()
        );
    }

    #[test]
    fn empty_and_single_key_tables() {
        let mut pram = Pram::with_seed(4, 1);
        let table = QrqwHashTable::build(&mut pram, &[]);
        assert!(table.lookup_batch(&mut pram, &[]).is_empty());
        assert_eq!(table.lookup_batch(&mut pram, &[42]), vec![false]);

        let table = QrqwHashTable::build(&mut pram, &[42]);
        assert_eq!(table.lookup_batch(&mut pram, &[42, 43]), vec![true, false]);
    }

    #[test]
    fn duplicate_displacement_parameters_exist() {
        let keys = distinct_keys(1000, 2);
        let mut pram = Pram::with_seed(4, 3);
        let table = QrqwHashTable::build(&mut pram, &keys);
        assert!(table.displacement_parameters() >= 1);
        assert!(table.displacement_parameters() < keys.len());
    }
}
