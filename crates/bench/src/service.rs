//! Load generation and reporting for the `qrqw-serve` service layer.
//!
//! This module is the engine of the `service_report` binary (the committed
//! `BENCH_service.json` sweep): it spawns a [`Server`], drives it with N
//! concurrent closed-loop client threads (optionally with a pipelining
//! window so large batch caps can actually fill), folds every client's
//! latency histogram and reply bookkeeping together, validates the final
//! [`StateDigest`] against interleaving-invariant invariants, and renders
//! one [`Json`] summary per run through the same writer `perf_report`
//! uses.
//!
//! # The validator
//!
//! Client interleaving through the submission queue is nondeterministic,
//! so the validator checks exactly the properties that hold for *every*
//! interleaving (the service's trace-determinism makes them exact):
//!
//! * the machine hash table holds exactly the keys whose acknowledged
//!   `Inserted(true)` replies outnumber their acknowledged `Removed(true)`
//!   replies — by trace-determinism those acks strictly alternate per key,
//!   so the counts differ by 0 (absent) or 1 (present);
//! * the counter region sums to the total of acknowledged deltas;
//! * `next_seq` equals the number of acknowledged submits, and the
//!   pending-task count equals submits minus successful steals.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrqw_exec::StepPool;
use qrqw_serve::{
    BatchPolicy, Histogram, Reply, Request, Response, Server, ServiceConfig, ServiceError,
    ServiceHandle, ServiceStats, StateDigest, Ticket,
};
use qrqw_sim::EMPTY;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::Json;

/// Which request mix the generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceWorkload {
    /// Hash-set traffic: 40% insert, 40% lookup, 20% contains.
    Hash,
    /// Counter traffic: 80% fetch-add (delta 1–15), 20% read.
    Counter,
    /// Task-pool traffic: 55% submit, 45% steal.
    Task,
    /// Hash churn: 40% insert, 20% delete, 40% lookup over the same
    /// keyspace — sustained presence turnover, exercising tombstones and
    /// growth-time purges.  Not part of [`ServiceWorkload::ALL`], so the
    /// committed `BENCH_service.json` sweep's shape is unchanged.
    Churn,
    /// Uniform mix of hash/counter/task.
    Mix,
}

impl ServiceWorkload {
    /// The default sweep set of `service_report` (churn and the mix are
    /// opt-in through its `--workloads`).
    pub const ALL: [ServiceWorkload; 3] = [
        ServiceWorkload::Hash,
        ServiceWorkload::Counter,
        ServiceWorkload::Task,
    ];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceWorkload::Hash => "hash",
            ServiceWorkload::Counter => "counter",
            ServiceWorkload::Task => "task",
            ServiceWorkload::Churn => "churn",
            ServiceWorkload::Mix => "mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<ServiceWorkload> {
        match s {
            "hash" => Some(ServiceWorkload::Hash),
            "counter" => Some(ServiceWorkload::Counter),
            "task" => Some(ServiceWorkload::Task),
            "churn" => Some(ServiceWorkload::Churn),
            "mix" => Some(ServiceWorkload::Mix),
            _ => None,
        }
    }
}

pub use crate::workload::{KeyDist, KeySampler};

/// How long a ticket may take before a harness declares it wedged.  Far
/// beyond any legitimate batch latency; a wait this long means a lost
/// completion, which is exactly the bug class the exit guard exists to
/// kill.
const WEDGE: Duration = Duration::from_secs(30);

/// Availability class of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// A real reply.
    Served,
    /// Refused at the admission edge (queue bound, deadline, shutdown race,
    /// dead batcher) — loud, bounded, and by design.
    Shed,
    /// Reached application and failed (bad input, injected error,
    /// rolled-back panic).
    Failed,
}

/// Classifies one response: its availability [`Class`], and whether the
/// request was *applied* — answered by running it, as opposed to shedding
/// it or rolling it back.  Applied responses, injected errors and
/// invalid-input rejections included, are deterministic parts of the
/// trace: what a oneshot replay of the applied requests must reproduce.
pub(crate) fn classify(response: &Response) -> (Class, bool) {
    use ServiceError as E;
    match response {
        Ok(_) => (Class::Served, true),
        Err(E::KeyOutOfRange(_) | E::UnknownCounter(_) | E::Injected) => (Class::Failed, true),
        Err(E::RequestPanicked) => (Class::Failed, false),
        Err(E::Overloaded | E::DeadlineExceeded | E::ShuttingDown | E::ServerGone) => {
            (Class::Shed, false)
        }
    }
}

/// Submits `count` requests through `handle`, each drawn by `next()` just
/// before its submit, keeping up to `window` of them in flight.  Hands
/// every request to `settle` in submission order with its response and
/// submit→response latency, or with `None` when its ticket did not resolve
/// within [`WEDGE`].
pub(crate) fn submit_windowed(
    handle: &ServiceHandle,
    count: usize,
    window: usize,
    mut next: impl FnMut() -> Request,
    mut settle: impl FnMut(Request, Option<(Response, Duration)>),
) {
    let mut inflight: VecDeque<(Request, Instant, Ticket)> = VecDeque::new();
    let mut wait = |(request, at, ticket): (Request, Instant, Ticket)| {
        settle(
            request,
            ticket.wait_timeout(WEDGE).map(|resp| (resp, at.elapsed())),
        );
    };
    for _ in 0..count {
        let request = next();
        inflight.push_back((request, Instant::now(), handle.submit(request)));
        if inflight.len() >= window.max(1) {
            wait(inflight.pop_front().unwrap());
        }
    }
    inflight.into_iter().for_each(wait);
}

/// One load-generation run's shape.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Outstanding requests a client keeps in flight (1 = strict
    /// closed-loop; larger windows let big batch caps fill up).
    pub window: usize,
    /// Request mix.
    pub workload: ServiceWorkload,
    /// Key distribution.
    pub key_dist: KeyDist,
    /// Distinct keys / counters / payload values the generator draws from.
    pub keyspace: usize,
    /// Generator seed (each client derives its own stream from it).
    pub seed: u64,
}

/// Folded client-side bookkeeping of one run.
#[derive(Debug, Default)]
struct ClientOutcome {
    inserted: Vec<u64>,
    removed: Vec<u64>,
    delta_sum: u64,
    submits: u64,
    steals: u64,
    completed: u64,
    wedged: u64,
    errors: u64,
    served: u64,
    shed: u64,
    failed: u64,
    hist: Histogram,
}

impl ClientOutcome {
    fn absorb(&mut self, other: ClientOutcome) {
        self.inserted.extend(other.inserted);
        self.removed.extend(other.removed);
        self.delta_sum += other.delta_sum;
        self.submits += other.submits;
        self.steals += other.steals;
        self.completed += other.completed;
        self.wedged += other.wedged;
        self.errors += other.errors;
        self.served += other.served;
        self.shed += other.shed;
        self.failed += other.failed;
        self.hist.merge(&other.hist);
    }

    fn settle(&mut self, request: Request, outcome: Option<(Response, Duration)>) {
        let Some((response, latency)) = outcome else {
            self.wedged += 1;
            return;
        };
        self.hist.record_duration(latency);
        self.completed += 1;
        match classify(&response).0 {
            Class::Served => self.served += 1,
            Class::Shed => self.shed += 1,
            Class::Failed => self.failed += 1,
        }
        match (request, response) {
            (Request::HashInsert { key }, Ok(Reply::Inserted(true))) => self.inserted.push(key),
            (Request::HashDelete { key }, Ok(Reply::Removed(true))) => self.removed.push(key),
            (Request::CounterAdd { delta, .. }, Ok(Reply::Counter(_))) => {
                self.delta_sum += delta;
            }
            (Request::TaskSubmit { .. }, Ok(Reply::TaskQueued(_))) => self.submits += 1,
            (Request::TaskSteal, Ok(Reply::TaskStolen(Some(_)))) => self.steals += 1,
            (_, Ok(_)) => {}
            (_, Err(_)) => self.errors += 1,
        }
    }
}

pub(crate) fn generate(
    workload: ServiceWorkload,
    sampler: &KeySampler,
    num_counters: usize,
    rng: &mut SmallRng,
) -> Request {
    let workload = match workload {
        ServiceWorkload::Mix => {
            ServiceWorkload::ALL[rng.gen_range(0..ServiceWorkload::ALL.len() as u64) as usize]
        }
        w => w,
    };
    match workload {
        ServiceWorkload::Hash => {
            let key = sampler.sample(rng);
            match rng.gen_range(0..10u64) {
                0..=3 => Request::HashInsert { key },
                4..=7 => Request::HashLookup { key },
                _ => Request::HashContains { key },
            }
        }
        ServiceWorkload::Churn => {
            let key = sampler.sample(rng);
            match rng.gen_range(0..10u64) {
                0..=3 => Request::HashInsert { key },
                4..=5 => Request::HashDelete { key },
                _ => Request::HashLookup { key },
            }
        }
        ServiceWorkload::Counter => {
            let counter = (sampler.sample(rng) % num_counters.max(1) as u64) as usize;
            if rng.gen_range(0..5u64) == 0 {
                Request::CounterRead { counter }
            } else {
                Request::CounterAdd {
                    counter,
                    delta: rng.gen_range(1..16u64),
                }
            }
        }
        ServiceWorkload::Task => {
            if rng.gen_range(0..20u64) < 11 {
                Request::TaskSubmit {
                    payload: sampler.sample(rng),
                }
            } else {
                Request::TaskSteal
            }
        }
        ServiceWorkload::Mix => unreachable!("resolved above"),
    }
}

/// Everything one measured run produced, ready for reporting.
#[derive(Debug)]
pub struct RunSummary {
    /// Workload name.
    pub workload: &'static str,
    /// Key-distribution name.
    pub key_dist: &'static str,
    /// Batch cap the server ran under.
    pub batch_max: usize,
    /// Client threads.
    pub clients: usize,
    /// Requests completed (every submitted request resolves).
    pub completed: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests that got a real reply (availability numerator).
    pub served: u64,
    /// Requests refused at the admission edge (queue bound, deadline,
    /// shutdown race, dead batcher) — loud, bounded shedding by design.
    pub shed: u64,
    /// Requests that reached application and failed (bad input, injected
    /// error, rolled-back panic).
    pub failed: u64,
    /// Wall time of the whole run (first submit to last response).
    pub wall: Duration,
    /// Folded submit→response latency histogram (nanoseconds).
    pub latency: Histogram,
    /// The server's cumulative stats.
    pub stats: ServiceStats,
    /// Validator findings (empty = clean).
    pub validation_errors: Vec<String>,
}

impl RunSummary {
    /// Sustained throughput over the run's wall time.
    pub fn req_per_s(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(f64::EPSILON)
    }

    /// True when the validator found nothing.
    pub fn valid(&self) -> bool {
        self.validation_errors.is_empty()
    }

    /// The run as one `BENCH_service.json` entry.
    pub fn to_json(&self) -> Json {
        // None (an empty run recorded no latencies) renders as JSON null
        // via the non-finite float rule, never as a fabricated 0.
        let us = |q: f64| {
            Json::float(
                self.latency
                    .value_at_quantile(q)
                    .map_or(f64::NAN, |v| v as f64 / 1e3),
                3,
            )
        };
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("key_dist", Json::str(self.key_dist)),
            ("batch_max", Json::Int(self.batch_max as u64)),
            ("clients", Json::Int(self.clients as u64)),
            ("requests", Json::Int(self.completed)),
            ("errors", Json::Int(self.errors)),
            ("served", Json::Int(self.served)),
            ("shed", Json::Int(self.shed)),
            ("failed", Json::Int(self.failed)),
            ("wall_ms", Json::float(self.wall.as_secs_f64() * 1e3, 3)),
            ("req_per_s", Json::float(self.req_per_s(), 1)),
            ("p50_us", us(0.50)),
            ("p99_us", us(0.99)),
            ("p999_us", us(0.999)),
            ("mean_us", Json::float(self.latency.mean() / 1e3, 3)),
            ("batches", Json::Int(self.stats.batches)),
            ("mean_batch", Json::float(self.stats.mean_batch(), 2)),
            ("max_batch", Json::Int(self.stats.max_batch)),
            ("steps", Json::Int(self.stats.steps)),
            ("claim_attempts", Json::Int(self.stats.claim_attempts)),
            ("contended_claims", Json::Int(self.stats.contended_claims)),
            (
                "contention_per_batch",
                Json::float(self.stats.contention_per_batch(), 3),
            ),
            ("panicked_batches", Json::Int(self.stats.panicked_batches)),
            ("valid", Json::Bool(self.valid())),
        ])
    }

    /// One human-readable summary line.
    pub fn print_row(&self) {
        println!(
            "{:<8} {:<8} batch_max {:<6} {:>9.0} req/s  p50 {:>8.1}us  p99 {:>8.1}us  \
             p999 {:>8.1}us  mean batch {:>7.1}  contention/batch {:>7.2}  valid={}",
            self.workload,
            self.key_dist,
            self.batch_max,
            self.req_per_s(),
            self.latency
                .value_at_quantile(0.50)
                .map_or(f64::NAN, |v| v as f64 / 1e3),
            self.latency
                .value_at_quantile(0.99)
                .map_or(f64::NAN, |v| v as f64 / 1e3),
            self.latency
                .value_at_quantile(0.999)
                .map_or(f64::NAN, |v| v as f64 / 1e3),
            self.stats.mean_batch(),
            self.stats.contention_per_batch(),
            self.valid(),
        );
    }
}

/// Checks the final digest against the run's acknowledged replies (see the
/// module docs for why exactly these properties are interleaving-proof).
fn validate_digest(digest: &StateDigest, agg: &ClientOutcome) -> Vec<String> {
    let mut errors = Vec::new();
    if agg.wedged > 0 {
        errors.push(format!(
            "{} tickets never resolved (wedge timeout)",
            agg.wedged
        ));
    }
    // Per-key presence accounting.  Trace-determinism makes acknowledged
    // `Inserted(true)` / `Removed(true)` replies for one key strictly
    // alternate (starting with an insert), so for every key the acked
    // insert count either equals the acked remove count (key absent) or
    // exceeds it by exactly one (key present) — under *any* client
    // interleaving.  With no deletes in the trace this degenerates to the
    // old uniqueness check: at most one `Inserted(true)` per key.
    let mut flips: std::collections::BTreeMap<u64, (u64, u64)> = std::collections::BTreeMap::new();
    for &k in &agg.inserted {
        flips.entry(k).or_default().0 += 1;
    }
    for &k in &agg.removed {
        flips.entry(k).or_default().1 += 1;
    }
    let mut expect_present: Vec<u64> = Vec::new();
    for (&k, &(ins, rem)) in &flips {
        if rem > ins || ins > rem + 1 {
            errors.push(format!(
                "key {k}: {ins} acked inserts vs {rem} acked removes cannot alternate"
            ));
        } else if ins == rem + 1 {
            expect_present.push(k);
        }
    }
    if digest.hash_keys != expect_present {
        errors.push(format!(
            "hash table holds {} keys but acked insert/remove flips leave {}",
            digest.hash_keys.len(),
            expect_present.len()
        ));
    }
    let counter_sum: u64 = digest.counters.iter().filter(|&&v| v != EMPTY).sum();
    if counter_sum != agg.delta_sum {
        errors.push(format!(
            "counters sum to {counter_sum} but clients were acknowledged {} of delta",
            agg.delta_sum
        ));
    }
    if digest.next_seq != agg.submits {
        errors.push(format!(
            "next task seq is {} but {} submits were acknowledged",
            digest.next_seq, agg.submits
        ));
    }
    let expect_pending = agg.submits.saturating_sub(agg.steals);
    if digest.pending_tasks.len() as u64 != expect_pending {
        errors.push(format!(
            "{} tasks pending but submits-steals = {expect_pending}",
            digest.pending_tasks.len()
        ));
    }
    errors
}

/// Spawns a server, drives it with `spec`'s client fleet, shuts it down,
/// validates the final state, and returns the folded summary.
pub fn run_service_load(
    config: ServiceConfig,
    policy: BatchPolicy,
    threads: Option<usize>,
    spec: &LoadSpec,
) -> RunSummary {
    let pool = threads.map_or_else(StepPool::from_env, StepPool::with_threads);
    let server = Server::spawn_with_pool(config, policy, pool);
    let sampler = Arc::new(KeySampler::new(spec.key_dist, spec.keyspace));
    let started = Instant::now();
    let workers: Vec<_> = (0..spec.clients.max(1))
        .map(|client| {
            let handle = server.handle();
            let sampler = Arc::clone(&sampler);
            let spec = *spec;
            let num_counters = config.num_counters;
            std::thread::spawn(move || {
                let mut rng =
                    SmallRng::seed_from_u64(spec.seed ^ (client as u64).wrapping_mul(0x9E37));
                let mut outcome = ClientOutcome::default();
                submit_windowed(
                    &handle,
                    spec.requests_per_client,
                    spec.window,
                    || generate(spec.workload, &sampler, num_counters, &mut rng),
                    |request, response| outcome.settle(request, response),
                );
                outcome
            })
        })
        .collect();
    let mut agg = ClientOutcome::default();
    for worker in workers {
        agg.absorb(worker.join().expect("client thread panicked"));
    }
    let wall = started.elapsed();
    let (state, stats) = server.shutdown();
    let validation_errors = validate_digest(&state.digest(), &agg);
    RunSummary {
        workload: spec.workload.name(),
        key_dist: spec.key_dist.name(),
        batch_max: policy.max_batch,
        clients: spec.clients.max(1),
        completed: agg.completed,
        errors: agg.errors,
        served: agg.served,
        shed: agg.shed,
        failed: agg.failed,
        wall,
        latency: agg.hist,
        stats,
        validation_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_response_has_one_class_and_applied_flag() {
        use ServiceError as E;
        let cases = [
            (Ok(Reply::Found(true)), Class::Served, true),
            (
                Err(E::KeyOutOfRange(qrqw_serve::MAX_KEY)),
                Class::Failed,
                true,
            ),
            (Err(E::UnknownCounter(9)), Class::Failed, true),
            (Err(E::Injected), Class::Failed, true),
            (Err(E::RequestPanicked), Class::Failed, false),
            (Err(E::Overloaded), Class::Shed, false),
            (Err(E::DeadlineExceeded), Class::Shed, false),
            (Err(E::ServerGone), Class::Shed, false),
            (Err(E::ShuttingDown), Class::Shed, false),
        ];
        for (response, class, applied) in cases {
            assert_eq!(classify(&response), (class, applied), "{response:?}");
        }
    }
}
