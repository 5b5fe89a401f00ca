//! The scenario subsystem: parameterized multi-epoch churn workloads.
//!
//! A [`Scenario`] is a workload parameter block — key distribution
//! ([`KeyDist`]), an insert:delete:lookup churn ratio, and an epoch count —
//! and [`Scenario::run_churn`] is the multi-epoch driver that executes it
//! on any [`Machine`] backend.  Every epoch is **one service batch**,
//! applied by the same [`ServiceCore`] the `qrqw-serve` server runs: mixed
//! hash inserts, deletes and lookups (deletes tombstone cells, growth
//! rebuilds purge them), then one counter add per counter slot (one
//! emulated Fetch&Add step).  Lookups are answered at their trace
//! position, and every reply is checked against a host model.  One §3 QRQW
//! load-balancing pass over the epoch's key-traffic histogram follows each
//! batch, with **machine state carried between epochs**, unlike the
//! one-shot registry algorithms.
//!
//! The driver is deterministic by construction: the operation trace
//! depends only on `(scenario, n, seed)`, machine operations are issued
//! in host trace order (occupy-claim winners are the lowest claimant
//! index on every backend), and rebuild triggers depend only on host-side
//! counters.  One churn trace therefore produces **bit-identical**
//! digests, step counts, and per-epoch contention totals on sim, native
//! and native-steal machines at any thread count — which is what
//! `tests/scenarios.rs` pins and what `perf_report`'s drift guard
//! ([`crate::BackendRun::agrees_with`]) checks on every `--scenario` cell.
//!
//! Alongside the digest, the driver measures the *skew* the distribution
//! actually produced ([`ChurnOutcome::hot_fraction`]) so the committed
//! `BENCH_workloads.json` can record contention as a function of skew —
//! the axis the paper's uniform-input Table II never opened.

use std::collections::{HashMap, HashSet};

use qrqw_core::load_balance_qrqw;
use qrqw_serve::{Reply, Request, ServiceConfig, ServiceCore, StateDigest};
use qrqw_sim::Machine;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::workload::{KeyDist, KeySampler};

/// One scenario: a named workload parameter block.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry name, or the spec string a custom scenario parsed from.
    pub name: String,
    /// Key distribution the trace draws from.
    pub dist: KeyDist,
    /// Relative insert : delete : lookup weights of the hash traffic (not
    /// all zero; their sum fits in a `u32`).
    pub churn: [u32; 3],
    /// Epochs the driver runs (state carries across them).
    pub epochs: usize,
}

impl Scenario {
    /// The registered sweep set: one scenario per distribution family,
    /// covering the whole skew axis from uniform to the crafted adversary.
    pub fn registry() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "uniform-churn".into(),
                dist: KeyDist::Uniform,
                churn: [2, 1, 2],
                epochs: 6,
            },
            Scenario {
                name: "zipf-hot".into(),
                dist: KeyDist::Zipf(1.2),
                churn: [3, 1, 4],
                epochs: 6,
            },
            Scenario {
                name: "power-law-churn".into(),
                dist: KeyDist::PowerLaw,
                churn: [2, 1, 2],
                epochs: 6,
            },
            Scenario {
                name: "all-same-key".into(),
                dist: KeyDist::AllSame,
                churn: [1, 1, 2],
                epochs: 4,
            },
            Scenario {
                name: "adversarial-collide".into(),
                dist: KeyDist::Adversarial,
                churn: [3, 1, 2],
                epochs: 6,
            },
        ]
    }

    /// Parses one scenario: a registry name, or a custom spec
    /// `<dist>/<ins>:<del>:<look>/<epochs>` (e.g. `zipf:1.5/3:1:4/8`).
    /// Unknown names are an error carrying the vocabulary — never a
    /// silent default.
    pub fn parse(spec: &str) -> Result<Scenario, String> {
        if let Some(s) = Self::registry().into_iter().find(|s| s.name == spec) {
            return Ok(s);
        }
        let parts: Vec<&str> = spec.split('/').collect();
        if parts.len() != 3 {
            let names: Vec<String> = Self::registry().into_iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown scenario {spec:?} (valid: {}, or <dist>/<ins>:<del>:<look>/<epochs>)",
                names.join(", ")
            ));
        }
        let dist = KeyDist::parse(parts[0])?;
        let ratio: Vec<&str> = parts[1].split(':').collect();
        if ratio.len() != 3 {
            return Err(format!(
                "bad churn ratio {:?} (want <ins>:<del>:<look>)",
                parts[1]
            ));
        }
        let mut churn = [0u32; 3];
        for (slot, r) in churn.iter_mut().zip(&ratio) {
            *slot = r
                .parse()
                .map_err(|_| format!("bad churn weight {r:?} in {spec:?}"))?;
        }
        if churn.iter().all(|&w| w == 0) {
            return Err(format!(
                "churn ratio in {spec:?} must have a nonzero weight"
            ));
        }
        if churn
            .iter()
            .try_fold(0u32, |sum, &w| sum.checked_add(w))
            .is_none()
        {
            return Err(format!(
                "churn weights in {spec:?} must sum to at most {}",
                u32::MAX
            ));
        }
        let epochs: usize = parts[2]
            .parse()
            .map_err(|_| format!("bad epoch count {:?} in {spec:?}", parts[2]))?;
        if epochs == 0 {
            return Err(format!("epoch count in {spec:?} must be >= 1"));
        }
        Ok(Scenario {
            name: spec.to_string(),
            dist,
            churn,
            epochs,
        })
    }

    /// Parses a comma-separated scenario set; `"all"` selects the whole
    /// registry.
    pub fn parse_set(spec: &str) -> Result<Vec<Scenario>, String> {
        if spec == "all" {
            return Ok(Self::registry());
        }
        spec.split(',').map(|s| Self::parse(s.trim())).collect()
    }

    /// The churn ratio as its spec form (`"2:1:2"`).
    pub fn churn_label(&self) -> String {
        format!("{}:{}:{}", self.churn[0], self.churn[1], self.churn[2])
    }

    /// Runs the multi-epoch churn driver on `m` (see the module docs) and
    /// returns the outcome.  `seed` feeds the trace generator — callers
    /// must pass the same seed the machine was built with to make
    /// cross-backend runs comparable.
    pub fn run_churn<M: Machine>(&self, m: &mut M, n: usize, seed: u64) -> ChurnOutcome {
        let ops_per_epoch = n.max(16);
        let num_counters = (n / 4).max(4);
        let balance_procs = (n / 16).max(4);
        let sampler = KeySampler::new(self.dist, n.max(16));
        // Start the table small relative to the epoch volume so growth
        // rebuilds (and their tombstone purges) actually fire mid-run.
        let config = ServiceConfig {
            seed,
            num_counters,
            hash_capacity: (ops_per_epoch / 4).max(1),
        };
        let mut core = ServiceCore::new(m, &config);

        let mut valid = true;
        let mut model: HashSet<u64> = HashSet::new();
        let mut counter_model: Vec<u64> = vec![0; num_counters];
        let mut key_traffic: HashMap<u64, u64> = HashMap::new();
        let mut ops = 0u64;
        let mut epoch_contention = Vec::with_capacity(self.epochs);
        let [ins, del, _] = self.churn;
        let total_weight = u64::from(self.churn.iter().sum::<u32>());

        for epoch in 0..self.epochs {
            let contended_before = m.cost_report().contended_claims;
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9));

            // ---- The epoch is one service batch: the hash traffic, then
            // one counter add per counter slot (together one Fetch&Add
            // step, Lemma 7.5), keys drawn from the same distribution.
            let mut batch: Vec<Request> = (0..ops_per_epoch)
                .map(|_| {
                    let key = sampler.sample(&mut rng);
                    *key_traffic.entry(key).or_default() += 1;
                    match rng.gen_range(0..total_weight) as u32 {
                        roll if roll < ins => Request::HashInsert { key },
                        roll if roll < ins + del => Request::HashDelete { key },
                        _ => Request::HashLookup { key },
                    }
                })
                .collect();
            batch.extend((0..num_counters).map(|_| Request::CounterAdd {
                counter: (sampler.sample(&mut rng) % num_counters as u64) as usize,
                delta: rng.gen_range(1..4u64),
            }));
            ops += batch.len() as u64;

            // Every reply against the host model, walked in trace order.
            let replies = core.apply_batch(m, &batch);
            for (req, reply) in batch.iter().zip(&replies) {
                let want = match *req {
                    Request::HashInsert { key } => Reply::Inserted(model.insert(key)),
                    Request::HashDelete { key } => Reply::Removed(model.remove(&key)),
                    Request::HashLookup { key } => Reply::Found(model.contains(&key)),
                    Request::CounterAdd { counter, delta } => {
                        counter_model[counter] += delta;
                        Reply::Counter(counter_model[counter] - delta)
                    }
                    _ => unreachable!("the trace holds no other request"),
                };
                valid &= *reply == Ok(want);
            }

            // ---- Rebalance the epoch's key traffic across virtual
            // processors with the §3 QRQW load balancer.
            let mut loads = vec![0u64; balance_procs];
            for (&key, &count) in &key_traffic {
                loads[(key % balance_procs as u64) as usize] += count;
            }
            let res = load_balance_qrqw(m, &loads);
            valid &= res.covers_exactly(&loads);

            epoch_contention.push(m.cost_report().contended_claims - contended_before);
        }

        // ---- Digest + final cross-check against the host model.
        let digest = core.digest(m);
        let mut want: Vec<u64> = model.into_iter().collect();
        want.sort_unstable();
        valid &= digest.hash_keys == want;
        let hash_ops = (ops_per_epoch * self.epochs) as f64;
        let hot = key_traffic.values().copied().max().unwrap_or(0);
        ChurnOutcome {
            valid,
            digest,
            ops,
            hot_fraction: hot as f64 / hash_ops.max(1.0),
            epoch_contention,
        }
    }
}

/// Everything one churn run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// All in-run validations passed (every reply against the host
    /// model, balance coverage, final key-set cross-check).
    pub valid: bool,
    /// Canonical end state (sorted live keys, raw counter region).
    pub digest: StateDigest,
    /// Total requests driven through the machine (hash + Fetch&Add).
    pub ops: u64,
    /// Fraction of hash traffic that hit the single hottest key — the
    /// measured skew the report plots contention against.
    pub hot_fraction: f64,
    /// Contended claims accrued in each epoch (bit-identical across
    /// backends; the drift guard compares the whole vector).
    pub epoch_contention: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;

    #[test]
    fn registry_names_parse_back_to_themselves() {
        for s in Scenario::registry() {
            assert_eq!(Scenario::parse(&s.name), Ok(s.clone()), "{}", s.name);
        }
        assert_eq!(Scenario::parse_set("all").unwrap(), Scenario::registry());
    }

    #[test]
    fn custom_specs_parse_and_bad_ones_reject_loudly() {
        let s = Scenario::parse("zipf:1.5/3:1:4/8").unwrap();
        assert_eq!(s.dist, KeyDist::Zipf(1.5));
        assert_eq!(s.churn, [3, 1, 4]);
        assert_eq!(s.epochs, 8);
        for bad in [
            "nope",
            "uniform/1:1/4",
            "uniform/1:1:x/4",
            "uniform/0:0:0/4",
            "uniform/1:1:1/0",
            "zipfian/1:1:1/4",
            "uniform/4294967295:1:0/4",
        ] {
            let err = Scenario::parse(bad).expect_err(bad);
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn churn_driver_validates_on_the_simulator() {
        for scenario in Scenario::registry() {
            let mut m = Pram::with_seed(16, 7);
            let outcome = scenario.run_churn(&mut m, 64, 7);
            assert!(outcome.valid, "{} invalid on sim", scenario.name);
            assert_eq!(outcome.epoch_contention.len(), scenario.epochs);
            assert!(outcome.digest.hash_keys.windows(2).all(|w| w[0] < w[1]));
            assert!(outcome.hot_fraction > 0.0 && outcome.hot_fraction <= 1.0);
        }
    }

    #[test]
    fn skewed_scenarios_measure_more_skew_than_uniform() {
        let run = |name: &str| {
            let scenario = Scenario::parse(name).unwrap();
            let mut m = Pram::with_seed(16, 3);
            scenario.run_churn(&mut m, 256, 3).hot_fraction
        };
        let uniform = run("uniform-churn");
        let zipf = run("zipf-hot");
        let all_same = run("all-same-key");
        assert!(
            zipf > uniform,
            "zipf {zipf} must out-skew uniform {uniform}"
        );
        assert!((all_same - 1.0).abs() < 1e-9, "all-same is total skew");
    }
}
