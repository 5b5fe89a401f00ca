//! Load generation and reporting for the `qrqw-serve` service layer.
//!
//! This module is the engine of the `service_report` binary, which writes
//! both committed service artifacts: the batch-cap sweep
//! (`BENCH_service.json`) and the fault sweep (`BENCH_chaos.json`).
//! [`run_service_load`] preloads [`LoadSpec::resident_keys`] hash keys,
//! spawns a [`Server`] over that state, drives it with N concurrent client
//! threads (optionally with a pipelining window so large batch caps can
//! actually fill) while each client's own seeded [`FaultPlan`] stream
//! sprinkles injected panics, injected errors and submitter stalls into its
//! requests, folds every client's latency histogram and reply bookkeeping
//! together, validates the run, and renders one [`Json`] summary per run
//! through the same writer `perf_report` uses.
//!
//! # The validator
//!
//! Client interleaving through the submission queue is nondeterministic,
//! so every run is checked for exactly the properties that hold under
//! *every* interleaving (the service's trace-determinism makes them exact):
//!
//! * no ticket wedges: every submission resolves within a generous
//!   timeout, even though batches panicked along the way;
//! * every error reply is explained by the plan: a [`Fault::Panic`]
//!   request is answered [`ServiceError::RequestPanicked`] and nothing else
//!   is, a [`Fault::Error`] request is answered [`ServiceError::Injected`],
//!   no other request fails, and `stats.isolated_panics` equals the panics
//!   injected;
//! * no workload deletes, so by trace-determinism each key is acknowledged
//!   `Inserted(true)` at most once, and the machine hash table holds
//!   exactly the resident keys plus the keys so acknowledged;
//! * the counter region sums to the total of acknowledged deltas;
//! * `next_seq` equals the number of acknowledged submits, and the
//!   pending-task count equals submits minus successful steals.
//!
//! With exactly one client, submission order is itself the trace, so the
//! run is also replayed: the *applied* requests (every response that was
//! not shed or rolled back) applied oneshot on a fresh [`ServiceState`]
//! with the same preload must reproduce the applied replies and a
//! bit-identical [`StateDigest`] — a faulty request is indistinguishable
//! from one never submitted.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrqw_exec::StepPool;
use qrqw_serve::{
    BatchPolicy, Fault, Histogram, Reply, Request, Response, Server, ServiceConfig, ServiceError,
    ServiceHandle, ServiceState, ServiceStats, StateDigest, Ticket,
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
    /// Uniform mix of hash/counter/task.
    Mix,
}

impl ServiceWorkload {
    /// The default sweep set of `service_report` (the mix is opt-in
    /// through its `--workloads`).
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
            ServiceWorkload::Mix => "mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<ServiceWorkload> {
        match s {
            "hash" => Some(ServiceWorkload::Hash),
            "counter" => Some(ServiceWorkload::Counter),
            "task" => Some(ServiceWorkload::Task),
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

/// Length of one injected submitter stall.
const STALL: Duration = Duration::from_micros(200);

/// First preloaded key of the resident-state axis: far above any key the
/// generator draws, so resident keys and traffic keys never meet.
pub const RESIDENT_KEY_BASE: u64 = 1 << 24;

/// A fault-injection plan: per-10,000-request rates of each fault kind.
/// Every client draws its own faults from its own seeded stream, so a plan
/// plus a workload seed is a reproducible run.  The default plan is quiet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Injected [`Fault::Panic`] requests per 10,000 submissions.
    pub panic_per_10k: u32,
    /// Injected [`Fault::Error`] requests per 10,000 submissions.
    pub error_per_10k: u32,
    /// Submitter stalls of 200 µs per 10,000 submissions.  A stall delays
    /// only the client that draws it; it jitters batch boundaries, which
    /// trace determinism says must not matter.
    pub delay_per_10k: u32,
}

impl FaultPlan {
    /// Injected errors per 10,000 submissions of every faulty sweep row.
    pub const ERROR_TRICKLE: u32 = 25;
    /// Submitter stalls per 10,000 submissions of every faulty sweep row.
    pub const DELAY_TRICKLE: u32 = 5;

    /// The plan of a sweep row: quiet at panic rate 0, otherwise the panic
    /// rate plus a fixed trickle of the cheap faults (injected errors and
    /// stalls; panics are the expensive dimension).
    pub fn sweep(panic_per_10k: u32) -> FaultPlan {
        if panic_per_10k == 0 {
            return FaultPlan::default();
        }
        FaultPlan {
            panic_per_10k,
            error_per_10k: Self::ERROR_TRICKLE,
            delay_per_10k: Self::DELAY_TRICKLE,
        }
    }
}

/// Availability class of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
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
fn classify(response: &Response) -> (Class, bool) {
    use ServiceError as E;
    match response {
        Ok(_) => (Class::Served, true),
        Err(E::KeyOutOfRange(_) | E::UnknownCounter(_) | E::CounterOverflow(_) | E::Injected) => {
            (Class::Failed, true)
        }
        Err(E::RequestPanicked) => (Class::Failed, false),
        Err(E::Overloaded | E::DeadlineExceeded | E::ShuttingDown | E::ServerGone) => {
            (Class::Shed, false)
        }
    }
}

/// Whether the fault plan explains `response` to `request`: an injected
/// panic is rolled back, an injected error fails, everything else succeeds.
fn explained(request: Request, response: &Response) -> bool {
    match request {
        Request::Fault(Fault::Panic) => *response == Err(ServiceError::RequestPanicked),
        Request::Fault(Fault::Error) => *response == Err(ServiceError::Injected),
        _ => response.is_ok(),
    }
}

/// Submits `count` requests through `handle`, each drawn by `next()` just
/// before its submit, keeping up to `window` of them in flight.  Hands
/// every request to `settle` in submission order with its response and
/// submit→response latency, or with `None` when its ticket did not resolve
/// within [`WEDGE`].
fn submit_windowed(
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
    /// Concurrent client threads.  With exactly one, the run is also
    /// replayed oneshot (see the module docs).
    pub clients: usize,
    /// Requests each client submits (faults included).
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
    /// Faults injected into every client's stream.
    pub faults: FaultPlan,
    /// Hash keys preloaded (from [`RESIDENT_KEY_BASE`] up) before the
    /// server starts: the resident-state axis.  Checkpoint and recovery
    /// cost must not depend on it.
    pub resident_keys: usize,
    /// Generator seed (each client derives its workload and fault streams
    /// from it).
    pub seed: u64,
}

/// Folded client-side bookkeeping of one run.
#[derive(Debug, Default)]
struct ClientOutcome {
    inserted: Vec<u64>,
    delta_sum: u64,
    submits: u64,
    steals: u64,
    completed: u64,
    wedged: u64,
    errors: u64,
    served: u64,
    shed: u64,
    failed: u64,
    injected_panics: u64,
    /// Replies the fault plan does not explain.
    unexplained: Vec<String>,
    /// Applied requests with their responses, in settle order.
    applied: Vec<(Request, Response)>,
    hist: Histogram,
}

impl ClientOutcome {
    fn absorb(&mut self, other: ClientOutcome) {
        self.inserted.extend(other.inserted);
        self.delta_sum += other.delta_sum;
        self.submits += other.submits;
        self.steals += other.steals;
        self.completed += other.completed;
        self.wedged += other.wedged;
        self.errors += other.errors;
        self.served += other.served;
        self.shed += other.shed;
        self.failed += other.failed;
        self.injected_panics += other.injected_panics;
        self.unexplained.extend(other.unexplained);
        self.applied.extend(other.applied);
        self.hist.merge(&other.hist);
    }

    fn settle(&mut self, request: Request, outcome: Option<(Response, Duration)>) {
        if request == Request::Fault(Fault::Panic) {
            self.injected_panics += 1;
        }
        let Some((response, latency)) = outcome else {
            self.wedged += 1;
            return;
        };
        self.hist.record_duration(latency);
        self.completed += 1;
        let (class, applied) = classify(&response);
        match class {
            Class::Served => self.served += 1,
            Class::Shed => self.shed += 1,
            Class::Failed => self.failed += 1,
        }
        if applied {
            self.applied.push((request, response));
        }
        if !explained(request, &response) {
            self.unexplained
                .push(format!("{request:?} was answered {response:?}"));
        }
        match (request, response) {
            (Request::HashInsert { key }, Ok(Reply::Inserted(true))) => self.inserted.push(key),
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

fn generate(
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
    /// Hash keys resident before the first request.
    pub resident_keys: usize,
    /// The plan that injected the run's faults.
    pub faults: FaultPlan,
    /// Requests completed (every submitted request that did not wedge).
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
    /// Tickets that did not resolve within the wedge timeout (must be 0).
    pub wedged: u64,
    /// `Fault::Panic` requests the plan injected.
    pub injected_panics: u64,
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

    /// Served requests per second of wall time — throughput net of
    /// shedding and faults, the availability headline.
    pub fn goodput_per_s(&self) -> f64 {
        self.served as f64 / self.wall.as_secs_f64().max(f64::EPSILON)
    }

    /// True when the validator found nothing.
    pub fn valid(&self) -> bool {
        self.validation_errors.is_empty()
    }

    /// A latency quantile in microseconds; NaN (rendered as JSON null,
    /// never a fabricated 0) when the run recorded no latencies.
    fn quantile_us(&self, q: f64) -> f64 {
        self.latency
            .value_at_quantile(q)
            .map_or(f64::NAN, |v| v as f64 / 1e3)
    }

    /// The run as one entry of a `service_report` artifact.
    pub fn to_json(&self) -> Json {
        let us = |d: Duration| Json::float(d.as_secs_f64() * 1e6, 3);
        let int = |v: usize| Json::Int(v as u64);
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("key_dist", Json::str(self.key_dist)),
            ("batch_max", int(self.batch_max)),
            ("clients", int(self.clients)),
            ("resident_keys", int(self.resident_keys)),
            ("panic_per_10k", Json::Int(self.faults.panic_per_10k.into())),
            ("error_per_10k", Json::Int(self.faults.error_per_10k.into())),
            ("delay_per_10k", Json::Int(self.faults.delay_per_10k.into())),
            ("requests", Json::Int(self.completed)),
            ("errors", Json::Int(self.errors)),
            ("served", Json::Int(self.served)),
            ("shed", Json::Int(self.shed)),
            ("failed", Json::Int(self.failed)),
            ("wedged", Json::Int(self.wedged)),
            ("wall_ms", Json::float(self.wall.as_secs_f64() * 1e3, 3)),
            ("req_per_s", Json::float(self.req_per_s(), 1)),
            ("goodput_per_s", Json::float(self.goodput_per_s(), 1)),
            ("p50_us", Json::float(self.quantile_us(0.50), 3)),
            ("p99_us", Json::float(self.quantile_us(0.99), 3)),
            ("p999_us", Json::float(self.quantile_us(0.999), 3)),
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
            ("injected_panics", Json::Int(self.injected_panics)),
            ("isolated_panics", Json::Int(self.stats.isolated_panics)),
            ("snapshots", Json::Int(self.stats.snapshots)),
            ("snapshot_us_per_batch", us(self.stats.mean_snapshot())),
            (
                "snapshot_cells_per_batch",
                Json::float(self.stats.mean_snapshot_cells(), 1),
            ),
            ("mean_recovery_us", us(self.stats.mean_recovery())),
            ("valid", Json::Bool(self.valid())),
        ])
    }

    /// One human-readable summary line.
    pub fn print_row(&self) {
        println!(
            "{:<8} {:<8} batch_max {:<6} resident {:>7} panic {:>4}/10k {:>9.0} req/s \
             {:>9.0} goodput/s  p50 {:>8.1}us  p99 {:>8.1}us  mean batch {:>7.1}  \
             contention/batch {:>7.2}  recovery {:>8.1}us  snapshot {:>7.0} cells/batch  \
             wedged {}  valid={}",
            self.workload,
            self.key_dist,
            self.batch_max,
            self.resident_keys,
            self.faults.panic_per_10k,
            self.req_per_s(),
            self.goodput_per_s(),
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            self.stats.mean_batch(),
            self.stats.contention_per_batch(),
            self.stats.mean_recovery().as_secs_f64() * 1e6,
            self.stats.mean_snapshot_cells(),
            self.wedged,
            self.valid(),
        );
    }
}

/// Checks one run's folded replies against the fault plan and the final
/// digest (see the module docs for why exactly these properties are
/// interleaving-proof).
fn validate(
    agg: &ClientOutcome,
    resident_keys: usize,
    isolated_panics: u64,
    digest: &StateDigest,
) -> Vec<String> {
    let mut errors = Vec::new();
    if agg.wedged > 0 {
        errors.push(format!(
            "{} tickets never resolved (wedge timeout)",
            agg.wedged
        ));
    }
    if let Some(first) = agg.unexplained.first() {
        errors.push(format!(
            "{} replies the fault plan does not explain; first: {first}",
            agg.unexplained.len()
        ));
    }
    if isolated_panics != agg.injected_panics {
        errors.push(format!(
            "{} panics were injected but {isolated_panics} were isolated",
            agg.injected_panics
        ));
    }
    // Per-key presence accounting.  No workload deletes, so under *any*
    // client interleaving trace-determinism acknowledges at most one
    // `Inserted(true)` per key, and exactly those keys are present.
    let mut expect_present = agg.inserted.clone();
    expect_present.sort_unstable();
    if let Some(k) = expect_present.windows(2).find(|w| w[0] == w[1]) {
        errors.push(format!("key {}: acked Inserted(true) twice", k[0]));
    }
    expect_present.dedup();
    expect_present.extend(RESIDENT_KEY_BASE..RESIDENT_KEY_BASE + resident_keys as u64);
    if digest.hash_keys != expect_present {
        errors.push(format!(
            "hash table holds {} keys but the {resident_keys} resident keys and the acked \
             inserts make {}",
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

/// Preloads `spec`'s resident keys, spawns a server over that state,
/// drives it with `spec`'s client fleet, shuts it down, validates the run
/// (and, with one client, replays it oneshot), and returns the folded
/// summary.  The hash table starts at least four times the resident key
/// count, so no run straddles a capacity doubling — growth is the one
/// event that legitimately rewrites O(state) cells.
pub fn run_service_load(config: ServiceConfig, policy: BatchPolicy, spec: &LoadSpec) -> RunSummary {
    let config = ServiceConfig {
        hash_capacity: config.hash_capacity.max(4 * spec.resident_keys),
        ..config
    };
    // The resident state, one direct batch on the server's state and on
    // the replay's: not part of the served trace.
    let preload: Vec<Request> = (0..spec.resident_keys as u64)
        .map(|k| Request::HashInsert {
            key: RESIDENT_KEY_BASE + k,
        })
        .collect();
    let preloaded = || {
        let mut state = ServiceState::with_pool(config, StepPool::from_env());
        if !preload.is_empty() {
            let _ = state.apply_batch(&preload);
        }
        state
    };
    let server = Server::spawn_with_state(preloaded(), policy);
    let sampler = Arc::new(KeySampler::new(spec.key_dist, spec.keyspace));
    let clients = spec.clients.max(1);
    let started = Instant::now();
    let workers: Vec<_> = (0..clients as u64)
        .map(|client| {
            let handle = server.handle();
            let sampler = Arc::clone(&sampler);
            let spec = *spec;
            let num_counters = config.num_counters;
            std::thread::spawn(move || {
                let stream = client.wrapping_mul(0x9E37);
                let mut rng = SmallRng::seed_from_u64(spec.seed ^ stream);
                let mut fault_rng = SmallRng::seed_from_u64(spec.seed ^ 0xFA17 ^ stream);
                let FaultPlan {
                    panic_per_10k: panic,
                    error_per_10k: error,
                    delay_per_10k: delay,
                } = spec.faults;
                let mut outcome = ClientOutcome::default();
                submit_windowed(
                    &handle,
                    spec.requests_per_client,
                    spec.window,
                    || {
                        let roll = fault_rng.gen_range(0..10_000u64) as u32;
                        if roll < panic {
                            return Request::Fault(Fault::Panic);
                        }
                        if roll < panic + error {
                            return Request::Fault(Fault::Error);
                        }
                        if roll < panic + error + delay {
                            std::thread::sleep(STALL);
                        }
                        generate(spec.workload, &sampler, num_counters, &mut rng)
                    },
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
    let digest = state.digest();
    let mut validation_errors = validate(&agg, spec.resident_keys, stats.isolated_panics, &digest);
    if clients == 1 {
        // Recovery parity: the applied subset, replayed oneshot, must
        // reproduce both the served replies and the state bit for bit.
        let (requests, served): (Vec<Request>, Vec<Response>) =
            std::mem::take(&mut agg.applied).into_iter().unzip();
        let mut reference = preloaded();
        let (replayed, _) = reference.apply_batch(&requests);
        if replayed != served {
            let at = replayed.iter().zip(&served).position(|(a, b)| a != b);
            validation_errors.push(format!(
                "served replies diverge from the oneshot replay of the applied subset \
                 (first divergence at applied index {at:?})"
            ));
        }
        if reference.digest() != digest {
            validation_errors
                .push("final digest differs from the oneshot replay of the applied subset".into());
        }
    }
    RunSummary {
        workload: spec.workload.name(),
        key_dist: spec.key_dist.name(),
        batch_max: policy.max_batch,
        clients,
        resident_keys: spec.resident_keys,
        faults: spec.faults,
        completed: agg.completed,
        errors: agg.errors,
        served: agg.served,
        shed: agg.shed,
        failed: agg.failed,
        wedged: agg.wedged,
        injected_panics: agg.injected_panics,
        wall,
        latency: agg.hist,
        stats,
        validation_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> ServiceConfig {
        ServiceConfig {
            seed,
            num_counters: 8,
            hash_capacity: 64,
        }
    }

    fn spec(clients: usize, requests: usize, window: usize, workload: ServiceWorkload) -> LoadSpec {
        LoadSpec {
            clients,
            requests_per_client: requests,
            window,
            workload,
            key_dist: KeyDist::Zipf(1.0),
            keyspace: 64,
            faults: FaultPlan::default(),
            resident_keys: 0,
            seed: 5,
        }
    }

    /// A plan far above the sweep's rates, stalls included.
    const HOSTILE: FaultPlan = FaultPlan {
        panic_per_10k: 500,
        error_per_10k: 200,
        delay_per_10k: 50,
    };

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

    #[test]
    fn sweep_plans_are_quiet_at_rate_zero_and_carry_the_trickle_above_it() {
        assert_eq!(FaultPlan::sweep(0), FaultPlan::default());
        assert_eq!(
            FaultPlan::sweep(25),
            FaultPlan {
                panic_per_10k: 25,
                error_per_10k: FaultPlan::ERROR_TRICKLE,
                delay_per_10k: FaultPlan::DELAY_TRICKLE,
            }
        );
    }

    #[test]
    fn a_quiet_plan_validates_and_serves_everything() {
        let summary = run_service_load(
            config(5),
            BatchPolicy::with_max_batch(16),
            &spec(1, 200, 16, ServiceWorkload::Mix),
        );
        assert!(summary.valid(), "{:?}", summary.validation_errors);
        assert_eq!(summary.served, 200);
        assert_eq!(summary.wedged, 0);
        assert_eq!(summary.stats.panicked_batches, 0);
    }

    #[test]
    fn a_hostile_plan_still_validates_with_exact_isolation() {
        let summary = run_service_load(
            config(9),
            BatchPolicy::with_max_batch(32),
            &LoadSpec {
                faults: HOSTILE,
                resident_keys: 300,
                seed: 9,
                ..spec(1, 400, 32, ServiceWorkload::Hash)
            },
        );
        assert!(summary.valid(), "{:?}", summary.validation_errors);
        assert!(summary.injected_panics > 0, "the plan must actually fire");
        assert_eq!(summary.stats.isolated_panics, summary.injected_panics);
        assert_eq!(
            summary.served + summary.failed,
            400,
            "nothing is shed without admission bounds"
        );
    }

    #[test]
    fn a_hostile_plan_validates_with_three_clients_and_resident_keys() {
        let summary = run_service_load(
            config(3),
            BatchPolicy::with_max_batch(24),
            &LoadSpec {
                faults: HOSTILE,
                resident_keys: 500,
                seed: 3,
                ..spec(3, 300, 8, ServiceWorkload::Mix)
            },
        );
        assert!(summary.valid(), "{:?}", summary.validation_errors);
        assert!(summary.injected_panics > 0, "the plan must actually fire");
        assert_eq!(summary.stats.isolated_panics, summary.injected_panics);
        assert_eq!(summary.served + summary.failed, 900);
        assert!(summary.failed > summary.injected_panics, "errors fire too");
    }

    #[test]
    fn a_reply_the_plan_does_not_explain_is_a_finding() {
        let mut outcome = ClientOutcome::default();
        let reply = |response| Some((response, Duration::from_micros(1)));
        outcome.settle(
            Request::Fault(Fault::Error),
            reply(Err(ServiceError::Injected)),
        );
        let empty = StateDigest {
            hash_keys: Vec::new(),
            counters: Vec::new(),
            pending_tasks: Vec::new(),
            next_seq: 0,
        };
        assert_eq!(validate(&outcome, 0, 0, &empty), Vec::<String>::new());
        outcome.settle(
            Request::HashLookup { key: 7 },
            reply(Err(ServiceError::RequestPanicked)),
        );
        let findings = validate(&outcome, 0, 0, &empty);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("does not explain") && findings[0].contains("HashLookup"),
            "{findings:?}"
        );
    }
}
