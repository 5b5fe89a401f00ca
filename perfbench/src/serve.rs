//! The two serve workloads: `qrqw-serve` driven through its public handle
//! by one generator thread (this one), checked reply by reply against the
//! host [`Oracle`].
//!
//! A run is: set-up (spawn, preload, warm-up) → closed-loop capacity phase
//! → open-loop latency phase → shutdown and digest check.  The generator
//! never blocks: it spins on `Ticket::try_wait`, so generator + batcher are
//! the box's two cores and a parked generator never hides server speed.
//! Request counts are functions of `--seconds` alone.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use qrqw_exec::{Schedule, StepPool};
use qrqw_serve::{
    BatchPolicy, Reply, Request, Server, ServiceCheckpoint, ServiceConfig, ServiceHandle,
    ServiceState, ServiceStats, Ticket,
};

use crate::oracle::Oracle;
use crate::report::RunResult;
use crate::rng::{stream, KeyMap, SplitMix64};
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Keys of the churn mix (zipf:1 over them).
const CHURN_KEYS: u64 = 4096;
/// Keys preloaded by the resident mix, and its insert/delete side pool.
const RESIDENT_KEYS: u64 = 1 << 18;
const SIDE_KEYS: u64 = 1 << 16;
/// Pending tasks the churn mix hovers at.
const TASK_TARGET: usize = 1024;
/// Outstanding requests of the closed loop / cap of the open loop.
const CLOSED_WINDOW: usize = 1024;
const OPEN_CAP: usize = 4096;
const QUEUE_MAX: usize = 16384;
/// A reply later than this is a failed operation (and ends the phase).
const REPLY_LIMIT: Duration = Duration::from_secs(10);
/// Quarter-second windows of the open loop.
const WINDOWS_PER_SECOND: f64 = 4.0;
/// In a traced pass every this-many-th request gets `submit` and
/// `in_flight` spans (all of them would be 3 M spans a pass).
const SPAN_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Churn,
    Resident,
}

impl Mix {
    pub fn parse(workload: &str) -> Option<Mix> {
        match workload {
            "serve-churn" => Some(Mix::Churn),
            "serve-resident" => Some(Mix::Resident),
            _ => None,
        }
    }

    /// The frozen open-loop rate, requests per second.
    pub fn open_rate(self) -> f64 {
        match self {
            Mix::Churn => 150_000.0,
            Mix::Resident => 40_000.0,
        }
    }

    /// The seed capacity the closed-loop request count is frozen from
    /// (README, "Frozen load points").
    fn frozen_capacity(self) -> f64 {
        match self {
            Mix::Churn => 300_000.0,
            Mix::Resident => 140_000.0,
        }
    }

    /// Shares of `seconds` the closed-loop and the open-loop phase fill.
    /// The resident mix's six set-ups (2^18-key preload each) take about
    /// half a run, so its phases are the shorter ones.
    fn phase_shares(self) -> (f64, f64) {
        match self {
            Mix::Churn => (0.45, 0.4),
            Mix::Resident => (0.25, 0.2),
        }
    }

    /// Requests of the closed-loop phase: its share of `seconds` at the
    /// frozen capacity, a multiple of ten so the segments are equal.
    pub fn closed_requests(self, seconds: f64) -> usize {
        let (share, _) = self.phase_shares();
        (((share * seconds * self.frozen_capacity()) as usize) / 10).max(CLOSED_WINDOW) * 10
    }

    /// Requests of the open-loop phase: its share of `seconds` at the
    /// frozen rate, in whole quarter-second windows (at least two).
    pub fn open_requests(self, seconds: f64) -> usize {
        let (_, share) = self.phase_shares();
        let windows = ((share * seconds * WINDOWS_PER_SECOND).round() as usize).max(2);
        windows * self.per_window()
    }

    fn per_window(self) -> usize {
        (self.open_rate() / WINDOWS_PER_SECOND) as usize
    }

    /// Warm-up requests of a set-up (after the preload).
    fn warmup_requests(self) -> usize {
        match self {
            Mix::Churn => 400_000,
            Mix::Resident => 20_000,
        }
    }

    fn preload(self) -> u64 {
        match self {
            Mix::Churn => 0,
            Mix::Resident => RESIDENT_KEYS,
        }
    }
}

/// The seeded request stream of a mix, with the oracle that knows the
/// reply each request is owed.  The preload inserts come first.
#[derive(Debug)]
pub struct Gen {
    mix: Mix,
    rng: SplitMix64,
    oracle: Oracle,
    keys: KeyMap,
    /// Cumulative zipf:1 weights over the churn keys.
    zipf: Vec<f64>,
    preloaded: u64,
}

impl Gen {
    pub fn new(mix: Mix, seed: u64) -> Gen {
        let mut rng = stream(seed, 0x400);
        let keys = KeyMap::new(&mut rng);
        let mut acc = 0.0;
        let mut zipf: Vec<f64> = (0..CHURN_KEYS)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        zipf.iter_mut().for_each(|c| *c /= acc);
        Gen {
            mix,
            rng,
            oracle: Oracle::new(ServiceConfig::default().num_counters),
            keys,
            zipf,
            preloaded: 0,
        }
    }

    fn key(&self, id: u64) -> u64 {
        self.keys.key(id)
    }

    fn zipf_key(&mut self) -> u64 {
        let u = self.rng.unit();
        let rank = self.zipf.partition_point(|&c| c <= u) as u64;
        self.key(rank.min(CHURN_KEYS - 1))
    }

    fn request(&mut self) -> Request {
        if self.preloaded < self.mix.preload() {
            self.preloaded += 1;
            return Request::HashInsert {
                key: self.key(self.preloaded - 1),
            };
        }
        let roll = self.rng.below(100);
        let counters = ServiceConfig::default().num_counters as u64;
        match self.mix {
            // 30 insert / 15 delete / 15 lookup / 20 counter add / 20 task.
            Mix::Churn => match roll {
                0..30 => Request::HashInsert {
                    key: self.zipf_key(),
                },
                30..45 => Request::HashDelete {
                    key: self.zipf_key(),
                },
                45..60 => Request::HashLookup {
                    key: self.zipf_key(),
                },
                60..80 => Request::CounterAdd {
                    counter: self.rng.below(counters) as usize,
                    delta: 1 + self.rng.below(4),
                },
                _ if self.oracle.pending_tasks() < TASK_TARGET => Request::TaskSubmit {
                    payload: self.rng.next_u64() >> 1,
                },
                _ => Request::TaskSteal,
            },
            // 70 lookup resident / 10 insert + 5 delete side / 10 read / 5 add.
            Mix::Resident => {
                let resident = self.rng.below(RESIDENT_KEYS);
                let side = RESIDENT_KEYS + self.rng.below(SIDE_KEYS);
                match roll {
                    0..70 => Request::HashLookup {
                        key: self.key(resident),
                    },
                    70..80 => Request::HashInsert {
                        key: self.key(side),
                    },
                    80..85 => Request::HashDelete {
                        key: self.key(side),
                    },
                    85..95 => Request::CounterRead {
                        counter: self.rng.below(counters) as usize,
                    },
                    _ => Request::CounterAdd {
                        counter: self.rng.below(counters) as usize,
                        delta: 1 + self.rng.below(4),
                    },
                }
            }
        }
    }

    /// The next request and the reply it is owed.
    pub fn next(&mut self) -> (Request, Reply) {
        let request = self.request();
        let reply = self.oracle.apply(&request);
        (request, reply)
    }
}

fn config() -> ServiceConfig {
    ServiceConfig::default()
}

fn server_pool() -> StepPool {
    StepPool::with_threads(1)
        .with_schedule(Schedule::Chunked)
        .with_fused(true)
}

#[derive(Debug)]
struct InFlight {
    ticket: Ticket,
    expect: Reply,
    due: Instant,
    /// The sampled `submit` span and when it ended.
    span: Option<(SpanId, u64)>,
}

/// The generator's side of a running server.
#[derive(Debug)]
struct Client {
    handle: ServiceHandle,
    gen: Gen,
    queue: VecDeque<InFlight>,
    submitted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

/// What the open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenPhase {
    /// Due → reply visible, ns, in request order.
    lat_ns: Vec<u64>,
    /// Due → submitted, ns: how late the generator ran.
    late_ns: Vec<u64>,
    wall_s: f64,
}

impl Client {
    fn submit(&mut self, due: Instant, t: &mut Tracer) {
        let (request, expect) = self.gen.next();
        let sampled = t.enabled() && self.submitted.is_multiple_of(SPAN_EVERY);
        let (ticket, span) = if sampled {
            let id = t.begin("submit");
            let ticket = self.handle.submit(request);
            t.end(id, 1);
            (ticket, Some((id, t.now_ns())))
        } else {
            (self.handle.submit(request), None)
        };
        self.submitted += 1;
        self.queue.push_back(InFlight {
            ticket,
            expect,
            due,
            span,
        });
    }

    /// Takes the oldest request's reply if it is there; returns its due time.
    fn reap(&mut self, t: &mut Tracer) -> Option<Instant> {
        let response = self.queue.front()?.ticket.try_wait()?;
        let done = self.queue.pop_front().expect("front was just polled");
        if response != Ok(done.expect) {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures
                    .push(format!("expected {:?}, got {response:?}", done.expect));
            }
        }
        if let Some((id, start_ns)) = done.span {
            t.detached("in_flight", id, start_ns, t.now_ns());
        }
        Some(done.due)
    }

    /// Every outstanding request becomes a failure (a reply overran
    /// [`REPLY_LIMIT`]); the phase ends.
    fn abandon(&mut self, why: &str) {
        self.failed += self.queue.len() as u64;
        self.first_failures
            .push(format!("{why}: {} requests abandoned", self.queue.len()));
        self.queue.clear();
    }

    /// Blocks (spinning) for the oldest reply.  `false` on timeout.
    fn reap_blocking(&mut self, t: &mut Tracer) -> bool {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            if self.reap(t).is_some() {
                return true;
            }
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1 << 16) && start.elapsed() > REPLY_LIMIT {
                return false;
            }
        }
    }

    /// Closed loop: `n` requests, at most [`CLOSED_WINDOW`] outstanding.
    /// Returns the wall of each of the ten equal segments, by completion.
    fn closed_loop(&mut self, n: usize, t: &mut Tracer) -> Vec<f64> {
        let id = t.begin("closed_loop");
        let start = Instant::now();
        let mut marks = vec![start];
        let (mut submitted, mut completed) = (0usize, 0usize);
        while completed < n {
            while submitted < n && self.queue.len() < CLOSED_WINDOW {
                self.submit(start, t);
                submitted += 1;
            }
            if !self.reap_blocking(t) {
                self.abandon("closed loop: no reply within the limit");
                break;
            }
            completed += 1;
            while self.reap(t).is_some() {
                completed += 1;
            }
            while marks.len() <= 10 && completed >= marks.len() * n / 10 {
                marks.push(Instant::now());
            }
        }
        t.end(id, completed as u64);
        marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    /// Open loop: request `i` is due at `start + i / rate`; at most
    /// [`OPEN_CAP`] outstanding (a held-back request is still charged from
    /// its due time).
    fn open_loop(&mut self, n: usize, rate: f64, t: &mut Tracer) -> OpenPhase {
        let id = t.begin("open_loop");
        let mut phase = OpenPhase {
            lat_ns: Vec::with_capacity(n),
            late_ns: Vec::with_capacity(n),
            wall_s: 0.0,
        };
        let period_ns = 1e9 / rate;
        let start = Instant::now();
        let due_of = |i: usize| start + Duration::from_nanos((i as f64 * period_ns) as u64);
        let mut submitted = 0usize;
        let mut next_due = due_of(0);
        let mut reaped: Vec<Instant> = Vec::new();
        while phase.lat_ns.len() < n {
            let mut now = Instant::now();
            while submitted < n && next_due <= now && self.queue.len() < OPEN_CAP {
                phase.late_ns.push((now - next_due).as_nanos() as u64);
                self.submit(next_due, t);
                submitted += 1;
                next_due = due_of(submitted);
                now = Instant::now();
            }
            while let Some(due) = self.reap(t) {
                reaped.push(due);
            }
            if reaped.is_empty() {
                if let Some(oldest) = self.queue.front() {
                    if now.saturating_duration_since(oldest.due) > REPLY_LIMIT {
                        self.abandon("open loop: no reply within the limit");
                        break;
                    }
                }
                std::hint::spin_loop();
            } else {
                // The replies became visible no later than now.
                let seen = Instant::now();
                for due in reaped.drain(..) {
                    phase.lat_ns.push(charge(due, seen));
                }
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        t.end(id, phase.lat_ns.len() as u64);
        phase
    }
}

/// Latency of a request: from its **due** time, not from when the
/// generator got round to sending it.
fn charge(due: Instant, seen: Instant) -> u64 {
    seen.saturating_duration_since(due).as_nanos() as u64
}

impl OpenPhase {
    /// p50 of each quarter-second window (by due time), µs.
    fn window_p50s_us(&self, per_window: usize) -> Vec<f64> {
        self.lat_ns
            .chunks(per_window)
            .map(|w| {
                let w: Vec<f64> = w.iter().map(|&ns| ns as f64 / 1e3).collect();
                stats::median(&w)
            })
            .collect()
    }

    fn quantile_us(samples: &[u64], q: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let s: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e3).collect();
        stats::quantile(&s, q)
    }
}

/// A spawned, preloaded and warmed server with its generator.
#[derive(Debug)]
struct Live {
    mix: Mix,
    server: Server,
    client: Client,
    spawned: Instant,
    /// Wall of the set-up, seconds.
    setup_s: f64,
}

/// What is left of a server after shutdown.
#[derive(Debug)]
struct Finished {
    stats: ServiceStats,
    setup_s: f64,
    lifetime_s: f64,
    arena_cells: usize,
    submitted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Live {
    /// One complete set-up: spawn, preload through the handle, warm-up.
    fn setup(mix: Mix, seed: u64, t: &mut Tracer) -> Live {
        let id = t.begin("setup");
        let spawned = Instant::now();
        let server = Server::spawn_with_pool(
            config(),
            BatchPolicy::default().queue_max(QUEUE_MAX),
            server_pool(),
        );
        let mut client = Client {
            handle: server.handle(),
            gen: Gen::new(mix, seed),
            queue: VecDeque::with_capacity(OPEN_CAP),
            submitted: 0,
            failed: 0,
            first_failures: Vec::new(),
        };
        client.closed_loop(mix.preload() as usize + mix.warmup_requests(), t);
        t.end(id, client.submitted);
        Live {
            mix,
            server,
            client,
            spawned,
            setup_s: spawned.elapsed().as_secs_f64(),
        }
    }

    /// The measured part: capacity phase, then latency phase.
    fn phases(&mut self, seconds: f64, t: &mut Tracer) -> (Vec<f64>, OpenPhase) {
        let segments = self
            .client
            .closed_loop(self.mix.closed_requests(seconds), t);
        let open = self
            .client
            .open_loop(self.mix.open_requests(seconds), self.mix.open_rate(), t);
        (segments, open)
    }

    /// Shutdown, then the final digest against the oracle's.
    fn finish(self, t: &mut Tracer) -> Finished {
        let id = t.begin("shutdown");
        let (state, stats) = self.server.shutdown();
        let lifetime_s = self.spawned.elapsed().as_secs_f64();
        t.end(id, 1);
        let id = t.begin("validate");
        let mut failed = self.client.failed;
        let mut notes = self.client.first_failures;
        if state.digest() != self.client.gen.oracle.digest() {
            failed += 1;
            notes.push("final StateDigest differs from the oracle's".into());
        }
        let shed = stats.overload_shed + stats.deadline_shed;
        if shed > 0 || stats.panicked_batches > 0 {
            notes.push(format!(
                "server shed {shed} requests, {} batches panicked",
                stats.panicked_batches
            ));
        }
        t.end(id, 1);
        Finished {
            stats,
            setup_s: self.setup_s,
            lifetime_s,
            arena_cells: state.arena_stats().cells,
            submitted: self.client.submitted,
            failed,
            notes,
        }
    }
}

fn account(fin: &Finished, out: &mut RunResult) {
    out.attempted += fin.submitted;
    if fin.failed > 0 {
        out.fail(fin.failed, fin.notes.join("; "));
    }
}

/// Capacity: requests ÷ (10 × the median segment wall).
fn capacity(requests: usize, segments: &[f64]) -> f64 {
    requests as f64 / (10.0 * stats::median(segments))
}

/// The untraced run: one set-up whose server is measured, then
/// [`SETUP_CYCLES`](crate::machines::SETUP_CYCLES) timed set-up-plus-shutdown
/// cycles.
pub fn run_end_to_end(mix: Mix, seed: u64, seconds: f64) -> RunResult {
    let mut out = RunResult::default();
    let mut t = Tracer::new(false);
    let mut live = Live::setup(mix, seed, &mut t);
    out.note(format!("first (cold) set-up: {:.6} s", live.setup_s));
    let (segments, open) = live.phases(seconds, &mut t);
    let peak_rss_mib = crate::proc::peak_rss_mib();
    account(&live.finish(&mut t), &mut out);
    let mut setup_s = Vec::new();
    for _ in 0..crate::machines::SETUP_CYCLES {
        let start = Instant::now();
        let fin = Live::setup(mix, seed, &mut t).finish(&mut t);
        setup_s.push(start.elapsed().as_secs_f64());
        account(&fin, &mut out);
    }
    let requests = mix.closed_requests(seconds);
    let rates: Vec<f64> = segments
        .iter()
        .map(|s| requests as f64 / 10.0 / s)
        .collect();
    let windows = open.window_p50s_us(mix.per_window());
    let rounded = |v: &[f64]| -> String {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.0}")).collect();
        v.join(" ")
    };
    out.note(format!(
        "closed-loop segment rates, 1/s: {}",
        rounded(&rates)
    ));
    out.note(format!("open-loop window p50s, us: {}", rounded(&windows)));
    out.push_sampled("setup_s", stats::median(&setup_s), &setup_s);
    out.push_sampled("ops_per_s", capacity(requests, &segments), &rates);
    out.push_sampled("lat_us", stats::typical(&windows), &windows);
    out.push("peak_rss_mib", peak_rss_mib);
    out
}

/// One traced-run pass at `seconds`: set-up, both phases, shutdown.
fn pass(mix: Mix, seed: u64, seconds: f64, t: &mut Tracer) -> (f64, OpenPhase, Finished) {
    let root = t.begin("run");
    let mut live = Live::setup(mix, seed, t);
    let (segments, open) = live.phases(seconds, t);
    let fin = live.finish(t);
    t.end(root, fin.submitted);
    (capacity(mix.closed_requests(seconds), &segments), open, fin)
}

/// The traced run: the workload twice at a third of its length (spans
/// off, then on), the `ServiceState` replay, then the handle probes.
pub fn run_traced(mix: Mix, seed: u64, seconds: f64, t: &mut Tracer) -> RunResult {
    let mut out = RunResult::default();
    let third = seconds / 3.0;

    t.set_enabled(false);
    let cpu0 = crate::proc::cpu_ns();
    let ctx0 = crate::proc::ctx_switches();
    let (plain_rate, open, fin) = pass(mix, seed, third, t);
    let cpu = crate::proc::cpu_ns() - cpu0;
    let ctx = crate::proc::ctx_switches().saturating_sub(ctx0);
    account(&fin, &mut out);
    out.push("bench.setup_cold_s", fin.setup_s);
    out.push("proc.cpu_ns_per_op", cpu as f64 / fin.submitted as f64);
    out.push(
        "proc.ctx_switches_per_kop",
        ctx as f64 * 1e3 / fin.submitted as f64,
    );

    t.set_enabled(true);
    t.next_run();
    let (spanned_rate, _, spanned_fin) = pass(mix, seed, third, t);
    account(&spanned_fin, &mut out);
    out.push("bench.trace_overhead_ratio", plain_rate / spanned_rate);
    out.push("serve.server.submit_ns", t.report().mean_ns("submit"));

    let s = &fin.stats;
    let batches = s.batches.max(1) as f64;
    let busy_us_per_batch = (s.snapshot_wall + s.apply_wall).as_secs_f64() * 1e6 / batches;
    let lat_p50 = OpenPhase::quantile_us(&open.lat_ns, 0.5);
    out.push("serve.runtime.mean_batch", s.mean_batch());
    out.push("serve.runtime.batches", s.batches as f64);
    out.push(
        "serve.runtime.apply_share",
        s.apply_wall.as_secs_f64() / fin.lifetime_s,
    );
    out.push(
        "serve.runtime.snapshot_share",
        s.snapshot_wall.as_secs_f64() / fin.lifetime_s,
    );
    out.push("serve.runtime.wait_us", lat_p50 - busy_us_per_batch);
    out.push("serve.runtime.shed", s.overload_shed as f64);
    out.push("serve.runtime.deadline_shed", s.deadline_shed as f64);
    out.push("serve.runtime.panicked_batches", s.panicked_batches as f64);
    out.push("serve.client.lat_p50_us", lat_p50);
    out.push(
        "serve.client.lat_p90_us",
        OpenPhase::quantile_us(&open.lat_ns, 0.9),
    );
    out.push(
        "serve.client.lat_p99_us",
        OpenPhase::quantile_us(&open.lat_ns, 0.99),
    );
    out.push(
        "serve.client.late_p99_us",
        OpenPhase::quantile_us(&open.late_ns, 0.99),
    );
    out.push(
        "serve.client.achieved_over_target",
        open.lat_ns.len() as f64 / open.wall_s / mix.open_rate(),
    );
    out.push("exec.arena.heap_cells_end", fin.arena_cells as f64);

    replay(
        mix,
        seed,
        s.mean_batch().round().max(1.0) as usize,
        t,
        &mut out,
    );
    t.set_enabled(false);
    out.extend(crate::probes::handle_probes());
    out.extend(crate::probes::arena_probes());
    out
}

/// Requests the replay applies after the preload.
fn replay_requests(mix: Mix) -> usize {
    match mix {
        Mix::Churn => 300_000,
        Mix::Resident => 40_000,
    }
}

/// `serve.state.*`: the workload's own trace applied directly to a
/// `ServiceState` in batches of the server's mean realized size, with a
/// checkpoint before every batch and a rollback + re-apply every eighth.
fn replay(mix: Mix, seed: u64, batch: usize, t: &mut Tracer, out: &mut RunResult) {
    t.next_run();
    let root = t.begin("replay");
    let mut state = ServiceState::with_pool(config(), server_pool());
    let mut gen = Gen::new(mix, seed);
    let mut wrong = 0u64;
    let apply = |state: &mut ServiceState, gen: &mut Gen, len: usize, t: &mut Tracer| {
        let (requests, expect): (Vec<Request>, Vec<Reply>) = (0..len).map(|_| gen.next()).unzip();
        let id = t.begin("apply_batch");
        let start = Instant::now();
        let (responses, cost) = state.apply_batch(&requests);
        let wall = start.elapsed();
        t.end(id, len as u64);
        (requests, expect, responses, cost, wall)
    };
    let check = |responses: &[qrqw_serve::Response], expect: &[Reply]| -> u64 {
        responses
            .iter()
            .zip(expect)
            .filter(|(got, want)| **got != Ok(**want))
            .count() as u64
    };
    // Preload, untimed, in the policy's batch size.
    let id = t.begin("setup");
    let mut left = mix.preload() as usize;
    while left > 0 {
        let len = left.min(BatchPolicy::default().max_batch);
        let (_, expect, responses, _, _) = apply(&mut state, &mut gen, len, t);
        wrong += check(&responses, &expect);
        left -= len;
    }
    t.end(id, mix.preload());

    let mut ck = ServiceCheckpoint::default();
    let (mut ckpt_us, mut apply_us, mut restore_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steps, mut contended, mut applied) = (0u64, 0u64, 0usize);
    let batches = replay_requests(mix).div_ceil(batch);
    for b in 0..batches {
        let id = t.begin("checkpoint_into");
        let start = Instant::now();
        state.checkpoint_into(&mut ck);
        ckpt_us.push(start.elapsed().as_secs_f64() * 1e6);
        t.end(id, 1);
        let (requests, expect, responses, cost, wall) = apply(&mut state, &mut gen, batch, t);
        wrong += check(&responses, &expect);
        apply_us.push(wall.as_secs_f64() * 1e6);
        steps += cost.steps;
        contended += cost.contended_claims;
        applied += batch;
        if b % 8 == 7 {
            let id = t.begin("restore");
            let start = Instant::now();
            state.restore(&ck);
            restore_us.push(start.elapsed().as_secs_f64() * 1e6);
            t.end(id, 1);
            // The rolled-back batch must answer the same again.
            let id = t.begin("apply_batch");
            let (again, _) = state.apply_batch(&requests);
            t.end(id, batch as u64);
            wrong += check(&again, &expect);
        }
    }
    t.end(root, applied as u64);
    out.attempted += applied as u64;
    if wrong > 0 {
        out.fail(
            wrong,
            "ServiceState replay: replies differ from the oracle's",
        );
    }
    let apply_typical = stats::typical(&apply_us);
    out.push(
        "serve.state.checkpoint_us_per_batch",
        stats::typical(&ckpt_us),
    );
    out.push("serve.state.apply_us_per_batch", apply_typical);
    out.push(
        "serve.state.apply_ns_per_req",
        apply_typical * 1e3 / batch as f64,
    );
    out.push("serve.state.restore_us", stats::typical(&restore_us));
    out.push("serve.state.steps_per_batch", steps as f64 / batches as f64);
    out.push(
        "serve.state.contended_per_batch",
        contended as f64 / batches as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_held_back_request_is_charged_from_its_due_time() {
        // Due at t0, sent 3 ms late (the cap held it back), reply visible
        // 5 ms after t0: the request waited 5 ms, not 2.
        let t0 = Instant::now();
        let sent = t0 + Duration::from_millis(3);
        let seen = t0 + Duration::from_millis(5);
        assert_eq!(charge(t0, seen), 5_000_000);
        assert!(charge(t0, seen) > (seen - sent).as_nanos() as u64);
        // A reply seen before the due time (clock granularity) is 0, not a wrap.
        assert_eq!(charge(seen, t0), 0);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        for mix in [Mix::Churn, Mix::Resident] {
            let take = |seed: u64| -> Vec<(Request, Reply)> {
                let mut g = Gen::new(mix, seed);
                // Skip the preload: it is the same shape for every seed.
                g.preloaded = mix.preload();
                (0..2000).map(|_| g.next()).collect()
            };
            assert_eq!(take(5), take(5));
            assert_ne!(take(5), take(6));
        }
    }

    #[test]
    fn churn_holds_its_task_pool_near_the_target_and_keys_are_valid() {
        let mut g = Gen::new(Mix::Churn, 2);
        for _ in 0..50_000 {
            let (request, _) = g.next();
            if let Request::HashInsert { key }
            | Request::HashDelete { key }
            | Request::HashLookup { key } = request
            {
                assert!(key < qrqw_serve::MAX_KEY);
            }
        }
        let pending = g.oracle.pending_tasks();
        assert!(
            (TASK_TARGET - 1..=TASK_TARGET).contains(&pending),
            "{pending}"
        );
    }

    #[test]
    fn resident_preload_comes_first_and_is_distinct() {
        let mut g = Gen::new(Mix::Resident, 3);
        let mut keys: Vec<u64> = (0..RESIDENT_KEYS)
            .map(|_| match g.next() {
                (Request::HashInsert { key }, Reply::Inserted(true)) => key,
                other => panic!("preload must be fresh inserts, got {other:?}"),
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, RESIDENT_KEYS);
    }

    #[test]
    fn request_counts_depend_on_seconds_alone() {
        assert_eq!(Mix::Churn.open_requests(15.0), 24 * 37_500);
        assert_eq!(Mix::Resident.open_requests(15.0), 12 * 10_000);
        assert_eq!(Mix::Churn.closed_requests(15.0) % 10, 0);
        assert!(Mix::Churn.closed_requests(0.001) >= 10 * CLOSED_WINDOW);
    }

    #[test]
    fn a_small_server_run_matches_the_oracle() {
        let mut t = Tracer::new(false);
        let mut live = Live::setup(Mix::Churn, 1, &mut t);
        let (segments, open) = live.phases(0.02, &mut t);
        assert_eq!(segments.len(), 10);
        assert_eq!(open.lat_ns.len(), Mix::Churn.open_requests(0.02));
        let fin = live.finish(&mut t);
        assert_eq!(fin.failed, 0, "{:?}", fin.notes);
    }
}
