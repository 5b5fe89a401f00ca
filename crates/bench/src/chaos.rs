//! Deterministic chaos harness for the fault-tolerant service layer.
//!
//! This module is the engine of the `chaos_bench` binary (committed
//! `BENCH_chaos.json`): it drives a live [`Server`] with a **single**
//! submitter thread (so submission order — the thing trace determinism is
//! defined over — is itself deterministic) while a seeded [`FaultPlan`]
//! sprinkles injected panics, injected errors, and submitter stalls into
//! the request stream, then checks the recovery machinery end to end:
//!
//! * **no wedged tickets** — every submission resolves within a generous
//!   timeout, even though batches panicked along the way;
//! * **exact poison isolation** — precisely the injected-panic positions
//!   are answered [`ServiceError::RequestPanicked`] and
//!   `stats.isolated_panics` agrees;
//! * **recovery parity** — replaying only the *applied* requests (every
//!   response that was not shed or rolled back) oneshot on a fresh
//!   [`ServiceState`] reproduces the served response sequence and a
//!   bit-identical [`StateDigest`](qrqw_serve::StateDigest) — a faulty
//!   request is indistinguishable
//!   from one never submitted.
//!
//! Alongside the validators it measures what fault tolerance costs:
//! goodput (served requests per second), shed/failed counts, per-batch
//! snapshot overhead, and mean recovery (rollback + bisection replay)
//! latency per panicked batch.

use std::time::{Duration, Instant};

use qrqw_exec::StepPool;
use qrqw_serve::{
    BatchPolicy, Fault, Histogram, Request, Response, Server, ServiceConfig, ServiceError,
    ServiceState, ServiceStats,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::Json;
use crate::service::{
    classify, generate, submit_windowed, Class, KeyDist, KeySampler, ServiceWorkload,
};

/// A seeded fault-injection plan: per-10,000-request rates for each fault
/// kind, drawn independently per submission from one RNG stream, so a plan
/// plus a workload seed is a fully reproducible chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Injected [`Fault::Panic`] requests per 10,000 submissions.
    pub panic_per_10k: u32,
    /// Injected [`Fault::Error`] requests per 10,000 submissions.
    pub error_per_10k: u32,
    /// Submitter stalls per 10,000 submissions (jitters batch boundaries,
    /// which trace determinism says must not matter).
    pub delay_per_10k: u32,
    /// Length of one submitter stall.
    pub delay: Duration,
    /// Seed of the fault stream (independent of the workload seed).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            panic_per_10k: 0,
            error_per_10k: 0,
            delay_per_10k: 0,
            delay: Duration::from_micros(200),
            seed: 0xFA17,
        }
    }
}

/// Shape of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Request mix of the non-fault traffic.
    pub workload: ServiceWorkload,
    /// Total submissions (faults included).
    pub requests: usize,
    /// Pipelining window the single submitter keeps in flight.
    pub window: usize,
    /// Keyspace of the generated traffic.
    pub keyspace: usize,
    /// Hash keys preloaded (from [`RESIDENT_KEY_BASE`] up, disjoint from
    /// the traffic's keyspace) before the server starts: the resident-state
    /// axis.  Checkpoint and recovery cost must not depend on it.
    pub resident_keys: usize,
    /// Workload-generator seed.
    pub seed: u64,
}

/// First preloaded key of the resident-state axis.
pub const RESIDENT_KEY_BASE: u64 = 1 << 24;

/// Everything one chaos run produced.
#[derive(Debug)]
pub struct ChaosSummary {
    /// Workload name.
    pub workload: &'static str,
    /// The plan that drove the run.
    pub plan: FaultPlan,
    /// Batch cap the server ran under.
    pub batch_max: usize,
    /// Hash keys resident before the first request.
    pub resident_keys: u64,
    /// Total submissions.
    pub requests: u64,
    /// Requests that got a real reply.
    pub served: u64,
    /// Requests refused at the admission edge.
    pub shed: u64,
    /// Requests that reached application and failed (injected errors,
    /// isolated panics).
    pub failed: u64,
    /// Tickets that did not resolve within the wedge timeout (must be 0).
    pub wedged: u64,
    /// `Fault::Panic` requests the plan injected.
    pub injected_panics: u64,
    /// Submitter stalls the plan injected.
    pub injected_delays: u64,
    /// Wall time, first submit to last response.
    pub wall: Duration,
    /// Submit→response latencies (nanoseconds).
    pub latency: Histogram,
    /// The server's cumulative stats.
    pub stats: ServiceStats,
    /// Validator findings (empty = clean).
    pub validation_errors: Vec<String>,
}

impl ChaosSummary {
    /// Served requests per second of wall time — throughput net of
    /// shedding and faults, the availability headline.
    pub fn goodput_per_s(&self) -> f64 {
        self.served as f64 / self.wall.as_secs_f64().max(f64::EPSILON)
    }

    /// True when every validator passed.
    pub fn valid(&self) -> bool {
        self.validation_errors.is_empty()
    }

    /// The run as one `BENCH_chaos.json` entry.
    pub fn to_json(&self) -> Json {
        let us = |d: Duration| Json::float(d.as_secs_f64() * 1e6, 3);
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("panic_per_10k", Json::Int(self.plan.panic_per_10k as u64)),
            ("error_per_10k", Json::Int(self.plan.error_per_10k as u64)),
            ("delay_per_10k", Json::Int(self.plan.delay_per_10k as u64)),
            ("batch_max", Json::Int(self.batch_max as u64)),
            ("resident_keys", Json::Int(self.resident_keys)),
            ("requests", Json::Int(self.requests)),
            ("served", Json::Int(self.served)),
            ("shed", Json::Int(self.shed)),
            ("failed", Json::Int(self.failed)),
            ("wedged", Json::Int(self.wedged)),
            ("injected_panics", Json::Int(self.injected_panics)),
            ("isolated_panics", Json::Int(self.stats.isolated_panics)),
            ("panicked_batches", Json::Int(self.stats.panicked_batches)),
            ("batches", Json::Int(self.stats.batches)),
            ("snapshots", Json::Int(self.stats.snapshots)),
            ("snapshot_us_per_batch", us(self.stats.mean_snapshot())),
            (
                "snapshot_cells_per_batch",
                Json::float(self.stats.mean_snapshot_cells(), 1),
            ),
            ("mean_recovery_us", us(self.stats.mean_recovery())),
            ("goodput_per_s", Json::float(self.goodput_per_s(), 1)),
            (
                // None (no completed request recorded a latency) renders
                // as JSON null via the non-finite float rule.
                "p99_us",
                Json::float(
                    self.latency
                        .value_at_quantile(0.99)
                        .map_or(f64::NAN, |v| v as f64 / 1e3),
                    3,
                ),
            ),
            ("wall_ms", Json::float(self.wall.as_secs_f64() * 1e3, 3)),
            ("valid", Json::Bool(self.valid())),
        ])
    }

    /// One human-readable summary line.
    pub fn print_row(&self) {
        println!(
            "{:<8} resident {:>7}  panic {:>4}/10k  {:>9.0} goodput/s  served {:<6} shed {:<4} \
             failed {:<5} wedged {:<2} recovery {:>8.1}us  snapshot {:>7.1}us {:>7.0} cells/batch  \
             valid={}",
            self.workload,
            self.resident_keys,
            self.plan.panic_per_10k,
            self.goodput_per_s(),
            self.served,
            self.shed,
            self.failed,
            self.wedged,
            self.stats.mean_recovery().as_secs_f64() * 1e6,
            self.stats.mean_snapshot().as_secs_f64() * 1e6,
            self.stats.mean_snapshot_cells(),
            self.valid(),
        );
    }
}

/// What the fault stream decided for one submission slot.
enum Slot {
    Normal,
    Panic,
    Error,
    Delay,
}

fn draw(plan: &FaultPlan, rng: &mut SmallRng) -> Slot {
    let roll = rng.gen_range(0..10_000u64) as u32;
    if roll < plan.panic_per_10k {
        Slot::Panic
    } else if roll < plan.panic_per_10k + plan.error_per_10k {
        Slot::Error
    } else if roll < plan.panic_per_10k + plan.error_per_10k + plan.delay_per_10k {
        Slot::Delay
    } else {
        Slot::Normal
    }
}

/// Drives one chaos run and validates it (see the module docs for the
/// three validated properties).
pub fn run_chaos(
    config: ServiceConfig,
    policy: BatchPolicy,
    threads: usize,
    plan: FaultPlan,
    spec: &ChaosSpec,
) -> ChaosSummary {
    // The resident state, preloaded as one direct batch on the server's
    // state and (below) on the reference's: not part of the served trace.
    let preload: Vec<Request> = (0..spec.resident_keys as u64)
        .map(|k| Request::HashInsert {
            key: RESIDENT_KEY_BASE + k,
        })
        .collect();
    let mut state = ServiceState::with_pool(config, StepPool::with_threads(threads));
    let _ = state.apply_batch(&preload);
    let server = Server::spawn_with_state(state, policy);
    let handle = server.handle();
    let sampler = KeySampler::new(KeyDist::Zipf(1.0), spec.keyspace);
    let mut workload_rng = SmallRng::seed_from_u64(spec.seed);
    let mut fault_rng = SmallRng::seed_from_u64(plan.seed);

    let mut requests: Vec<Request> = Vec::with_capacity(spec.requests);
    let mut responses: Vec<Option<Response>> = Vec::with_capacity(spec.requests);
    let mut latency = Histogram::default();
    let mut injected_panics = 0u64;
    let mut injected_delays = 0u64;

    let started = Instant::now();
    submit_windowed(
        &handle,
        spec.requests,
        spec.window,
        || match draw(&plan, &mut fault_rng) {
            Slot::Panic => {
                injected_panics += 1;
                Request::Fault(Fault::Panic)
            }
            Slot::Error => Request::Fault(Fault::Error),
            Slot::Delay => {
                injected_delays += 1;
                std::thread::sleep(plan.delay);
                generate(
                    spec.workload,
                    &sampler,
                    config.num_counters,
                    &mut workload_rng,
                )
            }
            Slot::Normal => generate(
                spec.workload,
                &sampler,
                config.num_counters,
                &mut workload_rng,
            ),
        },
        |request, outcome| {
            requests.push(request);
            responses.push(outcome.map(|(response, took)| {
                latency.record_duration(took);
                response
            }));
        },
    );
    let wall = started.elapsed();
    let (state, stats) = server.shutdown();

    // --- Validators -----------------------------------------------------
    let mut errors = Vec::new();
    let wedged = responses.iter().filter(|r| r.is_none()).count() as u64;
    if wedged > 0 {
        errors.push(format!("{wedged} tickets never resolved (wedge timeout)"));
    }
    let mut served = 0u64;
    let mut shed = 0u64;
    let mut failed = 0u64;
    let mut applied = Vec::with_capacity(spec.requests);
    let mut applied_responses = Vec::with_capacity(spec.requests);
    for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
        let Some(response) = response else { continue };
        let (class, was_applied) = classify(response);
        match class {
            Class::Served => served += 1,
            Class::Shed => shed += 1,
            Class::Failed => failed += 1,
        }
        let is_panic_request = *request == Request::Fault(Fault::Panic);
        let is_panic_reply = *response == Err(ServiceError::RequestPanicked);
        if is_panic_request && !is_panic_reply {
            errors.push(format!(
                "injected panic at position {i} was answered {response:?}, \
                 not RequestPanicked"
            ));
        }
        if is_panic_reply && !is_panic_request {
            errors.push(format!(
                "innocent request at position {i} ({request:?}) was answered RequestPanicked"
            ));
        }
        if was_applied {
            applied.push(*request);
            applied_responses.push(*response);
        }
    }
    if stats.isolated_panics != injected_panics {
        errors.push(format!(
            "{} panics were injected but {} were isolated",
            injected_panics, stats.isolated_panics
        ));
    }
    // Recovery parity: the applied subset, replayed oneshot, must
    // reproduce both the served replies and the machine state bit for bit.
    let mut reference = ServiceState::with_pool(config, StepPool::with_threads(threads));
    let _ = reference.apply_batch(&preload);
    let (want_responses, _) = reference.apply_batch(&applied);
    if want_responses != applied_responses {
        let diverged = want_responses
            .iter()
            .zip(&applied_responses)
            .position(|(a, b)| a != b);
        errors.push(format!(
            "served replies diverge from the oneshot replay of the applied \
             subset (first divergence at applied index {diverged:?})"
        ));
    }
    if reference.digest() != state.digest() {
        errors
            .push("final digest differs from the oneshot replay of the applied subset".to_string());
    }

    ChaosSummary {
        workload: spec.workload.name(),
        plan,
        batch_max: policy.max_batch,
        resident_keys: spec.resident_keys as u64,
        requests: spec.requests as u64,
        served,
        shed,
        failed,
        wedged,
        injected_panics,
        injected_delays,
        wall,
        latency,
        stats,
        validation_errors: errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::sweep_json;

    #[test]
    fn a_quiet_plan_validates_and_serves_everything() {
        let summary = run_chaos(
            ServiceConfig {
                seed: 5,
                num_counters: 8,
                hash_capacity: 64,
            },
            BatchPolicy::with_max_batch(16),
            2,
            FaultPlan::default(),
            &ChaosSpec {
                workload: ServiceWorkload::Mix,
                requests: 200,
                window: 16,
                keyspace: 64,
                resident_keys: 0,
                seed: 5,
            },
        );
        assert!(summary.valid(), "{:?}", summary.validation_errors);
        assert_eq!(summary.served, 200);
        assert_eq!(summary.wedged, 0);
        assert_eq!(summary.stats.panicked_batches, 0);
    }

    #[test]
    fn a_hostile_plan_still_validates_with_exact_isolation() {
        let plan = FaultPlan {
            panic_per_10k: 500,
            error_per_10k: 200,
            delay_per_10k: 0,
            ..FaultPlan::default()
        };
        let summary = run_chaos(
            ServiceConfig {
                seed: 9,
                num_counters: 8,
                hash_capacity: 64,
            },
            BatchPolicy::with_max_batch(32),
            2,
            plan,
            &ChaosSpec {
                workload: ServiceWorkload::Hash,
                requests: 400,
                window: 32,
                keyspace: 64,
                resident_keys: 300,
                seed: 9,
            },
        );
        assert!(summary.valid(), "{:?}", summary.validation_errors);
        assert!(summary.injected_panics > 0, "the plan must actually fire");
        assert_eq!(summary.stats.isolated_panics, summary.injected_panics);
        assert_eq!(
            summary.served + summary.failed,
            summary.requests,
            "nothing is shed without admission bounds"
        );
    }

    #[test]
    fn chaos_json_entry_round_trips() {
        let summary = run_chaos(
            ServiceConfig {
                seed: 3,
                num_counters: 4,
                hash_capacity: 64,
            },
            BatchPolicy::with_max_batch(8),
            1,
            FaultPlan {
                panic_per_10k: 300,
                ..FaultPlan::default()
            },
            &ChaosSpec {
                workload: ServiceWorkload::Counter,
                requests: 120,
                window: 8,
                keyspace: 32,
                resident_keys: 0,
                seed: 3,
            },
        );
        let doc = sweep_json("test", 3, 1, summary.valid(), vec![summary.to_json()]);
        let back = Json::parse(&doc.render()).expect("chaos report must parse");
        assert_eq!(back, doc);
    }
}
