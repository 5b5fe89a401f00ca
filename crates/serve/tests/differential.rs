//! Seeded differential test of the service's task pool against a host
//! FIFO oracle.
//!
//! Task requests are host-only operations on a journaled queue, so the
//! pool's whole logic is its submit / steal order and its rollback
//! journal.  Each case generates a random trace — mostly `TaskSubmit` /
//! `TaskSteal`, with hash and counter requests mixed in — cuts it into
//! batches at random points, and at random points takes a checkpoint and
//! later restores it, re-applying everything since under fresh cuts.
//! Every reply must equal the oracle's, and the final digest's task queue
//! and sequence counter must match it.
//!
//! Each case also applies the trace, under cuts of its own, to a bare
//! [`ServiceCore`] on the simulator (`Pram`, seeded like the native state):
//! the batch engine is machine-generic, so its replies must equal the
//! oracle's there too, and its final digest the native state's.  A failing
//! case prints its seed.

use std::collections::{HashSet, VecDeque};

use qrqw_exec::StepPool;
use qrqw_serve::{
    Reply, Request, Response, ServiceCheckpoint, ServiceConfig, ServiceCore, ServiceState,
};
use qrqw_sim::Pram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NUM_COUNTERS: usize = 4;

/// The sequential meaning of every request the trace contains.
#[derive(Default)]
struct Oracle {
    tasks: VecDeque<(u64, u64)>,
    next_seq: u64,
    keys: HashSet<u64>,
    counters: [u64; NUM_COUNTERS],
}

impl Oracle {
    fn apply(&mut self, req: &Request) -> Response {
        Ok(match *req {
            Request::TaskSubmit { payload } => {
                self.tasks.push_back((self.next_seq, payload));
                self.next_seq += 1;
                Reply::TaskQueued(self.next_seq - 1)
            }
            Request::TaskSteal => Reply::TaskStolen(self.tasks.pop_front()),
            Request::HashInsert { key } => Reply::Inserted(self.keys.insert(key)),
            Request::HashDelete { key } => Reply::Removed(self.keys.remove(&key)),
            Request::HashLookup { key } => Reply::Found(self.keys.contains(&key)),
            Request::CounterAdd { counter, delta } => {
                let old = self.counters[counter];
                self.counters[counter] += delta;
                Reply::Counter(old)
            }
            Request::CounterRead { counter } => Reply::Counter(self.counters[counter]),
            _ => unreachable!("the generator emits no other request"),
        })
    }
}

fn trace(rng: &mut SmallRng) -> Vec<Request> {
    let len = rng.gen_range(1..120);
    (0..len)
        .map(|_| match rng.gen_range(0..10) {
            0..=3 => Request::TaskSubmit {
                payload: rng.gen_range(0..1000),
            },
            4..=6 => Request::TaskSteal,
            7 => Request::HashInsert {
                key: rng.gen_range(0..16),
            },
            8 => match rng.gen_range(0..2) {
                0 => Request::HashDelete {
                    key: rng.gen_range(0..16),
                },
                _ => Request::HashLookup {
                    key: rng.gen_range(0..16),
                },
            },
            _ => match rng.gen_range(0..2) {
                0 => Request::CounterAdd {
                    counter: rng.gen_range(0..NUM_COUNTERS),
                    delta: rng.gen_range(1..100),
                },
                _ => Request::CounterRead {
                    counter: rng.gen_range(0..NUM_COUNTERS),
                },
            },
        })
        .collect()
}

fn case(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let trace = trace(&mut rng);
    let mut oracle = Oracle::default();
    let expected: Vec<Response> = trace.iter().map(|r| oracle.apply(r)).collect();

    let config = ServiceConfig {
        seed,
        num_counters: NUM_COUNTERS,
        hash_capacity: 16,
    };
    let mut s = ServiceState::with_pool(config, StepPool::with_threads(1));
    let mut ck = ServiceCheckpoint::default();
    // The trace position of the live checkpoint, until it is restored.
    let mut mark = None;
    let mut pos = 0;
    while pos < trace.len() {
        if rng.gen_range(0..4) == 0 {
            s.checkpoint_into(&mut ck);
            mark = Some(pos);
        }
        let end = (pos + rng.gen_range(1..13usize)).min(trace.len());
        let (resp, _) = s.apply_batch(&trace[pos..end]);
        assert_eq!(resp, expected[pos..end], "batch {pos}..{end}");
        pos = end;
        if let Some(at) = mark.filter(|_| rng.gen_range(0..3) == 0) {
            s.restore(&ck);
            (pos, mark) = (at, None);
        }
    }
    let digest = s.digest();
    assert_eq!(digest.pending_tasks, Vec::from(oracle.tasks));
    assert_eq!(digest.next_seq, oracle.next_seq);

    let mut pram = Pram::with_seed(16, seed);
    let mut core = ServiceCore::new(&mut pram, &config);
    let mut pos = 0;
    while pos < trace.len() {
        let end = (pos + rng.gen_range(1..13usize)).min(trace.len());
        let resp = core.apply_batch(&mut pram, &trace[pos..end]);
        assert_eq!(resp, expected[pos..end], "sim batch {pos}..{end}");
        pos = end;
    }
    assert_eq!(core.digest(&pram), digest, "sim digest");
}

#[test]
fn task_pool_matches_a_fifo_oracle_under_random_cuts_and_rewinds() {
    for i in 0..300 {
        let seed = 0x7A5C_0000 + i;
        if let Err(panic) = std::panic::catch_unwind(|| case(seed)) {
            eprintln!("differential FAILED: seed={seed}");
            std::panic::resume_unwind(panic);
        }
    }
}
