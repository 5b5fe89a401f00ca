//! Key distributions and samplers shared by every workload generator.
//!
//! The service load harness (`service.rs`) and the scenario subsystem
//! (`scenario.rs`) both draw keys from the same [`KeySampler`], so "zipf"
//! means exactly one thing across the whole bench crate.  Skew is the
//! point: QRQW contention charging is only interesting when the key stream
//! concentrates — uniform input (the only regime the paper's Table II
//! measures) is the *low*-contention case, and these distributions open the
//! rest of the axis up to the crafted worst case.
//!
//! Distribution names parse **loudly**: an unknown name is an error
//! carrying the valid vocabulary, never a silent default — the same
//! contract as `QRQW_THREADS` parsing.

use qrqw_core::hashing::HASH_PRIME;
use qrqw_core::open_table::probe_home;
use rand::rngs::SmallRng;
use rand::Rng;

/// Key distribution of generated traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over the keyspace: the paper's Table II regime, and the
    /// low-contention baseline.
    Uniform,
    /// Zipf with exponent `s` over the keyspace: rank-`i` key has weight
    /// `1/(i+1)^s`, so a few hot keys absorb most of the traffic — the
    /// skewed regime the QRQW model charges for.  `"zipf"` parses as
    /// `s = 1`; `"zipf:1.5"` parameterizes the exponent.
    Zipf(f64),
    /// Discrete power-law with CDF `F(k) = ((k+1)/n)^(1/4)`: even heavier
    /// head than Zipf(1) — the single hottest key carries an analytic
    /// `(1/n)^(1/4)` of all traffic.
    PowerLaw,
    /// Every request uses key 0: maximum possible contention, the
    /// degenerate adversary.
    AllSame,
    /// Crafted-collision adversary: a small pool of keys sieved so that
    /// they share the same [`probe_home`] cell (at the reference capacity
    /// of 1024), forcing every insert batch into colliding probe chains
    /// regardless of how the traffic is spread.
    Adversarial,
}

impl KeyDist {
    /// Parses a distribution name.  Unknown names are an error carrying
    /// the valid vocabulary — never a silent default.
    pub fn parse(s: &str) -> Result<KeyDist, String> {
        match s {
            "uniform" => Ok(KeyDist::Uniform),
            "zipf" => Ok(KeyDist::Zipf(1.0)),
            "power-law" => Ok(KeyDist::PowerLaw),
            "all-same" => Ok(KeyDist::AllSame),
            "adversarial" => Ok(KeyDist::Adversarial),
            other => {
                if let Some(exp) = other.strip_prefix("zipf:") {
                    let s: f64 = exp.parse().map_err(|_| {
                        format!("invalid zipf exponent {exp:?} (want a positive number)")
                    })?;
                    if !s.is_finite() || s <= 0.0 {
                        return Err(format!(
                            "invalid zipf exponent {exp:?} (want a finite number > 0)"
                        ));
                    }
                    Ok(KeyDist::Zipf(s))
                } else {
                    Err(format!(
                        "unknown key distribution {other:?} \
                         (valid: uniform, zipf, zipf:<s>, power-law, all-same, adversarial)"
                    ))
                }
            }
        }
    }

    /// Short family name (stable across exponents, so JSON schemas keyed
    /// on it stay comparable).
    pub fn name(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipf(_) => "zipf",
            KeyDist::PowerLaw => "power-law",
            KeyDist::AllSame => "all-same",
            KeyDist::Adversarial => "adversarial",
        }
    }

    /// Full label including parameters (round-trips through [`parse`]).
    ///
    /// [`parse`]: KeyDist::parse
    pub fn label(self) -> String {
        match self {
            KeyDist::Zipf(s) => format!("zipf:{s}"),
            d => d.name().to_string(),
        }
    }
}

/// Reference table capacity the [`KeyDist::Adversarial`] pool collides at.
const ADVERSARIAL_CAP: usize = 1024;

/// Precomputed sampler over `[0, n)` for a [`KeyDist`].
pub struct KeySampler {
    /// CDF over ranks; empty for distributions that don't need one.
    cdf: Vec<f64>,
    /// Explicit key pool ([`KeyDist::Adversarial`] only; ranks map through
    /// it instead of being keys themselves).
    pool: Vec<u64>,
    n: u64,
}

impl KeySampler {
    /// Builds the sampler for `dist` over the keyspace `[0, n)` (`n` is
    /// clamped to at least 1).
    pub fn new(dist: KeyDist, n: usize) -> Self {
        let n = n.max(1);
        let mut pool = Vec::new();
        let cdf = match dist {
            KeyDist::Uniform | KeyDist::AllSame => Vec::new(),
            KeyDist::Zipf(s) => {
                let mut cdf = Vec::with_capacity(n);
                let mut acc = 0.0;
                for i in 0..n {
                    acc += 1.0 / ((i + 1) as f64).powf(s);
                    cdf.push(acc);
                }
                let total = acc;
                for v in &mut cdf {
                    *v /= total;
                }
                cdf
            }
            KeyDist::PowerLaw => {
                let gamma = 0.25;
                (0..n)
                    .map(|k| (((k + 1) as f64) / n as f64).powf(gamma))
                    .collect()
            }
            KeyDist::Adversarial => {
                // Sieve keys whose first probe cell collides at the
                // reference capacity; a pool of min(16, n) is enough to
                // keep every insert batch on one probe chain.
                let want = n.min(16);
                let mut k = 0u64;
                while pool.len() < want {
                    if probe_home(k, ADVERSARIAL_CAP) == 0 {
                        pool.push(k);
                    }
                    k += 1;
                    assert!(k < HASH_PRIME, "adversarial sieve exhausted the field");
                }
                Vec::new()
            }
        };
        let all_same = dist == KeyDist::AllSame;
        KeySampler {
            cdf,
            pool,
            n: if all_same { 1 } else { n as u64 },
        }
    }

    /// Draws one key.  Deterministic given the rng stream: the sampler
    /// itself holds no mutable state.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        if !self.pool.is_empty() {
            return self.pool[rng.gen_range(0..self.pool.len() as u64) as usize];
        }
        if self.cdf.is_empty() {
            if self.n == 1 {
                return 0;
            }
            return rng.gen_range(0..self.n);
        }
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }

    /// The rank CDF, for the property tests (empty when the distribution
    /// needs none: uniform, all-same, adversarial).
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// The explicit key pool of the adversarial distribution (empty
    /// otherwise).
    pub fn pool(&self) -> &[u64] {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn parse_round_trips_and_rejects_loudly() {
        for name in [
            "uniform",
            "zipf",
            "zipf:1.5",
            "power-law",
            "all-same",
            "adversarial",
        ] {
            let d = KeyDist::parse(name).expect(name);
            assert_eq!(KeyDist::parse(&d.label()), Ok(d), "label round-trip {name}");
        }
        for bad in [
            "", "zipfian", "zipf:", "zipf:nan", "zipf:-1", "zipf:0", "Uniform",
        ] {
            let err = KeyDist::parse(bad).expect_err(bad);
            assert!(
                err.contains("invalid") || err.contains("unknown"),
                "error for {bad:?} must be loud: {err}"
            );
        }
    }

    #[test]
    fn adversarial_pool_collides_on_the_home_cell() {
        let s = KeySampler::new(KeyDist::Adversarial, 4096);
        assert_eq!(s.pool().len(), 16);
        for &k in s.pool() {
            assert_eq!(probe_home(k, ADVERSARIAL_CAP), 0);
            assert!(k < HASH_PRIME);
        }
    }

    #[test]
    fn all_same_always_draws_zero() {
        let s = KeySampler::new(KeyDist::AllSame, 4096);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }
}
