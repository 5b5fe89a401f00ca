//! Seeded conformance test of the service against one sequential oracle.
//!
//! The service's contract is trace determinism: a reply depends only on
//! the requests before it in submission order, never on where the batcher
//! cut the trace.  [`Oracle`] writes that meaning down — a hash set,
//! counters that stay `EMPTY` until touched, a FIFO task pool, the
//! invalid-input and injected-fault errors, and the counter-add bounds —
//! and each trace runs through three legs, each checked reply by reply and
//! by its final [`StateDigest`] against the oracle, never against another
//! leg:
//!
//! 1. a live [`Server`] with a random batch cap, thread count, queue bound
//!    or dropped tickets, zero and generous deadlines, and a shutdown
//!    before or after the replies are collected, whose stats must add up.
//!    Its injected panics fire in decode or after the batch's machine
//!    steps; the latter take effect unless the batcher rolls back;
//! 2. a [`ServiceState`] fed the panic-free subset under random cuts, with
//!    checkpoint/restore rewinds that re-apply under fresh cuts;
//! 3. a bare [`ServiceCore`] on the simulator, under cuts of its own.
//!
//! Two fixed traces run first with the live server at batch caps
//! {1, 7, 64, all}, then 300 generated ones.  A failing case prints its
//! seed.  The test also fails if the generator stops reaching a reply or
//! error variant, a table growth, a tombstone purge, a restore that
//! un-steals a task or a late panic on the live server.

use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

use qrqw_exec::StepPool;
use qrqw_serve::{
    BatchPolicy, Fault, Reply, Request as R, Response, Server, ServiceCheckpoint, ServiceConfig,
    ServiceCore, ServiceError as E, ServiceState, StateDigest, Ticket, MAX_KEY,
};
use qrqw_sim::{Machine, Pram, EMPTY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PANIC: R = R::Fault(Fault::Panic);
const LATE: R = R::Fault(Fault::LatePanic);

/// Whether `req` is an injected panic, before or after the machine steps.
fn is_panic(req: R) -> bool {
    req == PANIC || req == LATE
}

/// The counters every generated trace's service has.
const COUNTERS: usize = 8;

/// Long enough for any CI machine: a ticket still open after this is
/// wedged, and a deadline this far off never expires.
const WEDGE: Duration = Duration::from_secs(30);

/// What the run must reach: reply and error variants, and state events.
const PATHS: &str = "Ok:Inserted Ok:Removed Ok:Found Ok:Counter Ok:TaskQueued Ok:TaskStolen \
    Err:KeyOutOfRange Err:UnknownCounter Err:CounterOverflow Err:Injected Err:RequestPanicked \
    Err:Overloaded Err:DeadlineExceeded Err:ShuttingDown growth purge unsteal late-panic";

/// The sequential meaning of every request.
#[derive(Default)]
struct Oracle {
    keys: BTreeSet<u64>,
    /// `None` until touched; a read materializes 0.
    counters: Vec<Option<u64>>,
    tasks: VecDeque<(u64, u64)>,
    next_seq: u64,
}

impl Oracle {
    fn new(config: &ServiceConfig) -> Self {
        let counters = vec![None; config.num_counters];
        Oracle {
            counters,
            ..Default::default()
        }
    }

    fn apply(&mut self, req: R) -> Response {
        Ok(match req {
            R::HashInsert { key } | R::HashDelete { key } | R::HashLookup { key }
                if key >= MAX_KEY =>
            {
                return Err(E::KeyOutOfRange(key))
            }
            R::HashContains { key } if key >= MAX_KEY => return Err(E::KeyOutOfRange(key)),
            R::HashInsert { key } => Reply::Inserted(self.keys.insert(key)),
            R::HashDelete { key } => Reply::Removed(self.keys.remove(&key)),
            R::HashLookup { key } | R::HashContains { key } => {
                Reply::Found(self.keys.contains(&key))
            }
            R::CounterAdd { counter, .. } | R::CounterRead { counter }
                if counter >= self.counters.len() =>
            {
                return Err(E::UnknownCounter(counter))
            }
            R::CounterRead { counter } => Reply::Counter(*self.counters[counter].get_or_insert(0)),
            R::CounterAdd { counter, delta } => {
                let old = self.counters[counter].unwrap_or(0);
                match old.checked_add(delta) {
                    Some(new) if delta < 1 << 32 && new < u64::MAX => {
                        self.counters[counter] = Some(new);
                        Reply::Counter(old)
                    }
                    _ => return Err(E::CounterOverflow(counter)),
                }
            }
            R::TaskSubmit { payload } => {
                self.tasks.push_back((self.next_seq, payload));
                self.next_seq += 1;
                Reply::TaskQueued(self.next_seq - 1)
            }
            R::TaskSteal => Reply::TaskStolen(self.tasks.pop_front()),
            R::Fault(Fault::Error) => return Err(E::Injected),
            R::Fault(Fault::Panic | Fault::LatePanic) => return Err(E::RequestPanicked),
            R::Fault(Fault::Crash) => unreachable!("the generator draws no crash"),
        })
    }

    fn digest(&self) -> StateDigest {
        StateDigest {
            hash_keys: self.keys.iter().copied().collect(),
            counters: self.counters.iter().map(|c| c.unwrap_or(EMPTY)).collect(),
            pending_tasks: self.tasks.iter().copied().collect(),
            next_seq: self.next_seq,
        }
    }
}

fn add(counter: usize, delta: u64) -> R {
    R::CounterAdd { counter, delta }
}

/// A mixed trace over keys `0..keys` and counters `0..COUNTERS`: hash
/// churn, counter traffic, task submit/steal, out-of-range keys and
/// counters (the first one out of range, and one far out), injected
/// errors.  `wild` adds deletes, injected panics before and after the
/// machine steps, and deltas at and above 2^32.
fn trace(rng: &mut SmallRng, len: usize, keys: u64, wild: bool) -> Vec<R> {
    let key = |rng: &mut SmallRng| rng.gen_range(0..keys);
    let ctr = |rng: &mut SmallRng| rng.gen_range(0..COUNTERS);
    let ops = if wild { 17 } else { 13 };
    (0..len)
        .map(|_| match rng.gen_range(0..ops) {
            0..=2 => R::HashInsert { key: key(rng) },
            3..=4 => R::HashLookup { key: key(rng) },
            5 => R::HashContains { key: key(rng) },
            12 | 13 => R::HashDelete { key: key(rng) },
            6..=7 => add(ctr(rng), rng.gen_range(1..10u64)),
            8 => R::CounterRead { counter: ctr(rng) },
            9 => R::TaskSubmit {
                payload: rng.gen_range(0..1000u64),
            },
            10 => R::TaskSteal,
            11 => {
                let invalid = [
                    R::HashInsert { key: MAX_KEY },
                    R::HashInsert { key: MAX_KEY + 17 },
                    add(COUNTERS, 1),
                    add(99, 1),
                    R::Fault(Fault::Error),
                ];
                invalid[rng.gen_range(0..invalid.len())]
            }
            14 => PANIC,
            15 => LATE,
            _ => {
                let huge = [1 << 32, u64::MAX, (1 << 32) - 1, rng.gen::<u64>() | 1 << 32];
                add(ctr(rng), huge[rng.gen_range(0..4usize)])
            }
        })
        .collect()
}

/// How leg 1 submits one request.
#[derive(Clone, Copy, PartialEq, Debug)]
enum How {
    Plain,
    /// Deadline zero: answered `DeadlineExceeded`, unless shed first.
    Expired,
    /// Deadline `WEDGE`: never expires.
    Generous,
    /// Ticket dropped at once; the request is still applied.
    Dropped,
}

/// One seeded case's generator, and the paths the whole run reached.
struct Run {
    rng: SmallRng,
    reached: BTreeSet<String>,
}

impl Run {
    fn reply(&mut self, resp: &Response) {
        let debug = format!("{resp:?}");
        let head: Vec<&str> = debug.split(['(', ')']).take(2).collect();
        self.reached.insert(head.join(":"));
    }

    fn event(&mut self, path: &str, happened: bool) {
        self.reached.extend(happened.then(|| path.to_string()));
    }

    /// Runs `f` on a fresh generator seeded `seed`, naming the seed if it
    /// fails.
    fn case(&mut self, name: &str, seed: u64, f: impl FnOnce(&mut Self)) {
        self.rng = SmallRng::seed_from_u64(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| f(self))) {
            eprintln!("conformance FAILED: {name} seed={seed}");
            resume_unwind(panic);
        }
    }

    /// The end of the next batch from `pos`: 1-12 requests, now and then
    /// the rest of the trace.
    fn cut(&mut self, pos: usize, len: usize) -> usize {
        match self.rng.gen_range(0..10) {
            0 => len,
            _ => (pos + self.rng.gen_range(1..13usize)).min(len),
        }
    }

    /// All three legs on `trace`, leg 1 once per cap in `caps` (`None`
    /// draws its shape).
    fn check(&mut self, config: ServiceConfig, trace: &[R], caps: &[Option<usize>]) {
        let mut oracle = Oracle::new(&config);
        let (reqs, want): (Vec<R>, Vec<Response>) = trace
            .iter()
            .map(|&req| (req, oracle.apply(req)))
            .filter(|&(req, _)| !is_panic(req))
            .unzip();
        let digest = oracle.digest();

        // Leg 2: rewinds re-apply from the checkpoint's trace position.
        let mut s =
            ServiceState::with_pool(config, StepPool::with_threads(self.rng.gen_range(1..3)));
        let mut ck = ServiceCheckpoint::default();
        let (mut pos, mut mark) = (0, None);
        while pos < reqs.len() {
            if self.rng.gen_range(0..4) == 0 {
                s.checkpoint_into(&mut ck);
                mark = Some(pos);
            }
            let end = self.cut(pos, reqs.len());
            let (tombstones, capacity) = (s.hash_tombstones(), s.hash_capacity());
            let (resp, _) = s.apply_batch(&reqs[pos..end]);
            assert_eq!(resp, want[pos..end], "rewinding batch {pos}..{end}");
            assert!(4 * s.hash_tombstones() <= s.hash_capacity(), "tombstones");
            self.event("growth", s.hash_capacity() > capacity);
            self.event("purge", s.hash_tombstones() < tombstones);
            pos = end;
            if let Some(at) = mark.filter(|_| self.rng.gen_range(0..3) == 0) {
                let stolen = |r: &Response| matches!(r, Ok(Reply::TaskStolen(Some(_))));
                self.event("unsteal", want[at..pos].iter().any(stolen));
                s.restore(&ck);
                (pos, mark) = (at, None);
            }
        }
        assert_eq!(s.digest(), digest, "rewinding digest");

        // Leg 3: the same engine on the simulator.
        let mut pram = Pram::with_seed(16, config.seed);
        let mut core = ServiceCore::new(&mut pram, &config);
        let mut pos = 0;
        while pos < reqs.len() {
            let end = self.cut(pos, reqs.len());
            let resp = core.apply_batch(&mut pram, &reqs[pos..end]);
            assert_eq!(resp, want[pos..end], "sim batch {pos}..{end}");
            pos = end;
        }
        assert_eq!(core.digest(&pram), digest, "sim digest");

        for &cap in caps {
            self.live(config, trace, cap);
        }
    }

    /// Leg 1: `trace` through a live server from one submitter.  A given
    /// `cap` submits plainly on two threads and shuts down after the
    /// replies; `None` draws the whole shape.
    fn live(&mut self, config: ServiceConfig, trace: &[R], cap: Option<usize>) {
        let (n, drawn) = (trace.len(), cap.is_none());
        let rng = &mut self.rng;
        let cap = cap.unwrap_or_else(|| [1, n, rng.gen_range(1..n + 1)][rng.gen_range(0..3usize)]);
        let threads = if drawn { rng.gen_range(1..3) } else { 2 };
        let early = drawn && rng.gen_range(0..2) == 0;
        // 1: a bounded queue, 2: dropped tickets.  Never both: a bounded
        // queue may shed a dropped ticket's request unseen.
        let mode = if drawn { rng.gen_range(0..3) } else { 0 };
        let mut policy = BatchPolicy::with_max_batch(cap);
        if mode == 1 {
            policy = policy.queue_max(rng.gen_range(1..9));
        }
        let how: Vec<How> = (0..n)
            .map(|_| match rng.gen_range(0..8) {
                _ if !drawn => How::Plain,
                0 => How::Expired,
                1 => How::Generous,
                2 | 3 if mode == 2 => How::Dropped,
                _ => How::Plain,
            })
            .collect();

        let server = Server::spawn_with_pool(config, policy, StepPool::with_threads(threads));
        let handle = server.handle();
        let tickets: Vec<Option<Ticket>> = trace
            .iter()
            .zip(&how)
            .map(|(&req, how)| {
                let ticket = match how {
                    How::Expired => handle.submit_with_deadline(req, Duration::ZERO),
                    How::Generous => handle.submit_with_deadline(req, WEDGE),
                    _ => handle.submit(req),
                };
                (*how != How::Dropped).then_some(ticket)
            })
            .collect();
        // Shut down before or after collecting: either way every admitted
        // request is answered.
        let wait = |t: Option<Ticket>| t.map(|t| t.wait_timeout(WEDGE).expect("wedged ticket"));
        let (replies, (state, stats)): (Vec<_>, _) = if early {
            let done = server.shutdown();
            (tickets.into_iter().map(wait).collect(), done)
        } else {
            (tickets.into_iter().map(wait).collect(), server.shutdown())
        };
        let late = handle.call(R::TaskSteal);
        assert_eq!(late, Err(E::ShuttingDown));
        self.reply(&late);

        // The oracle applies, in submission order, every request not shed.
        let mut oracle = Oracle::new(&config);
        let (mut applied, mut panics, mut expired, mut overloaded) = (0, 0, 0, 0);
        for (i, ((&req, &how), got)) in trace.iter().zip(&how).zip(&replies).enumerate() {
            match got {
                Some(Err(E::Overloaded)) => {
                    assert_eq!(mode, 1, "request {i} shed by an unbounded queue");
                    overloaded += 1;
                }
                Some(Err(E::DeadlineExceeded)) => {
                    assert_eq!(how, How::Expired, "request {i} expired");
                    expired += 1;
                }
                _ => {
                    assert_ne!(how, How::Expired, "request {i} outlived a zero deadline");
                    let want = oracle.apply(req);
                    if let Some(got) = got {
                        assert_eq!(*got, want, "live reply {i} ({how:?} {req:?})");
                    }
                    applied += 1;
                    panics += u64::from(is_panic(req));
                    self.event("late-panic", req == LATE && got.is_some());
                }
            }
            got.iter().for_each(|got| self.reply(got));
        }
        assert_eq!(state.digest(), oracle.digest(), "live digest");
        assert_eq!(stats.requests, applied);
        assert_eq!(stats.deadline_shed, expired);
        assert_eq!(stats.overload_shed, overloaded);
        assert_eq!(stats.isolated_panics, panics);
        assert_eq!(stats.panicked_batches == 0, panics == 0);
        assert!(stats.panicked_batches <= panics);
        assert!(stats.max_batch <= cap as u64);
        assert_eq!(stats.snapshots, stats.batches);
    }
}

#[test]
fn every_reply_and_digest_matches_the_sequential_oracle() {
    // Injected panics are expected: keep their reports quiet.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        (!info.to_string().contains("injected panic")).then(|| report(info));
    }));
    let mut run = Run {
        rng: SmallRng::seed_from_u64(0),
        reached: BTreeSet::new(),
    };
    // The smallest table: it grows past 32 keys.
    let config = |seed| ServiceConfig {
        seed,
        num_counters: COUNTERS,
        hash_capacity: 64,
    };
    // A long mixed trace over 300 keys, and cyclic delete-reinsert churn
    // whose cuts write different tombstones.
    run.case("mixed", 42, |run| {
        let trace = trace(&mut SmallRng::seed_from_u64(42), 600, 300, false);
        run.check(config(11), &trace, &[1, 7, 64, 600].map(Some));
    });
    run.case("delete-reinsert", 6, |run| {
        let mut trace = Vec::new();
        for (round, key) in (0..6u64).flat_map(|r| (0..40u64).map(move |k| (r, k))) {
            trace.push(R::HashInsert { key });
            trace.extend(((key + round) % 3 != 0).then_some(R::HashDelete { key }));
            trace.push(R::HashLookup { key });
        }
        run.check(config(11), &trace, &[1, 7, 64, trace.len()].map(Some));
    });
    for seed in 0xC0F0_0000..0xC0F0_0000 + 300 {
        run.case("generated", seed, |run| {
            let rng = &mut run.rng;
            // A long trace over more keys grows the table and purges it.
            let (len, keys) = match rng.gen_range(0..10) {
                0 => (rng.gen_range(120..400), rng.gen_range(48..160)),
                _ => (rng.gen_range(1..120), rng.gen_range(4..48)),
            };
            let trace = trace(rng, len, keys, true);
            run.check(config(seed), &trace, &[None]);
        });
    }
    let missing: Vec<&str> = PATHS
        .split_whitespace()
        .filter(|path| !run.reached.contains(*path))
        .collect();
    assert!(
        missing.is_empty(),
        "never reached {missing:?}; reached {:?}",
        run.reached
    );
}
