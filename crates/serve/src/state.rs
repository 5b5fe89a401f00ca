//! The service's live state and the batch-application step.
//!
//! [`ServiceCore`] is the batch engine, generic over any [`Machine`]: it
//! owns the three workload states living in (or indexed beside) the
//! machine's shared memory and borrows the machine per call:
//!
//! * a machine-resident **hash set** ([`qrqw_core::OpenTable`]: open
//!   addressing, double-hash probe sequences; inserts are occupy-mode
//!   `Machine::claim`s, so a batch of inserts is exactly the paper's
//!   low-contention cell-claiming step; deletes tombstone their cell, and
//!   growth rebuilds purge the tombstones);
//! * a machine-resident **counter bank** (a batch of adds/reads is one
//!   emulated Fetch&Add step, Lemma 7.5);
//! * a **task pool** (a host-side FIFO queue journaled for rollback; task
//!   requests run no machine step, so they cost nothing in
//!   [`BatchCost`] — a per-batch §3 rebalance could not drive steal
//!   order without making replies depend on where batches were cut).
//!
//! [`ServiceState`] is the live server's shell around it: a persistent
//! native machine plus a core, with checkpoint and restore.  The scenario
//! driver of `crates/bench` runs the same core on every backend, one churn
//! epoch per batch.
//!
//! The machine table is the only record of key presence — a batch reads
//! the pre-batch presence of its keys in the probe step it runs anyway — so
//! no host structure, and no [`ServiceCheckpoint`], grows with the keys.
//!
//! [`ServiceCore::apply_batch`] is the *only* way state advances, and it
//! is shared verbatim by the live server, the scenario driver and the
//! conformance test's direct legs: running a request trace through the
//! batcher under any batching policy must leave the same observable state
//! as applying the whole trace as one batch.
//!
//! # Batch semantics (the partition-invariance contract)
//!
//! Replies are **trace-deterministic**: each request observes exactly the
//! requests that precede it in submission order, regardless of where batch
//! boundaries fall.  Concretely, within a batch:
//!
//! * a hash lookup answers `true` iff the key is present *at its trace
//!   position*: some earlier request inserted it and no later-but-earlier
//!   request deleted it (earlier batch, or earlier position in this batch);
//! * a hash delete answers `true` iff the key was present at its trace
//!   position; insert-then-delete inside one batch nets to **no machine
//!   operation at all**, so machine work depends only on each batch's net
//!   key diff — which is what keeps partitions unobservable;
//! * a counter add/read observes the sum of all earlier deltas on its
//!   counter (the Fetch&Add serialization order within a batch is the
//!   batch order, because the emulation's radix sort is stable);
//! * a counter add is refused with [`ServiceError::CounterOverflow`], with
//!   no effect, when its delta is `>= 2^32` or its sum would pass
//!   `u64::MAX - 1` at its trace position.  The sum is judged on the host,
//!   from one `peek` of the pre-batch cell of each counter the batch adds
//!   to, plus the batch's earlier accepted adds, so the verdict is the same under every
//!   cut and in every build;
//! * a steal pops the globally oldest task that an earlier request
//!   submitted and no earlier request stole.
//!
//! The machine-visible *placement* of hash keys (which probe cell a key
//! won) is the one observable that may differ across batch partitions and
//! thread counts — occupy-claim winners are backend-defined — so
//! [`StateDigest`] canonicalizes the hash region to its sorted key set,
//! while the counter region is compared raw (bit-identical) and the task
//! pool by exact `(seq, payload)` content.

use std::collections::{HashMap, VecDeque};

use qrqw_core::{emulate_fetch_add_step, OpenTable, TableGeometry};
use qrqw_exec::{BatchCost, MachineSnapshot, PersistentMachine, StepPool};
use qrqw_sim::{Machine, EMPTY};

use crate::request::{Fault, Reply, Request, Response, ServiceError, MAX_KEY};

/// A counter add's delta must be below this: a batch of fewer than 2^31
/// requests then sums its deltas below 2^63.
const DELTA_LIMIT: u64 = 1 << 32;

/// The largest value a counter may hold: [`EMPTY`] marks an untouched cell.
const COUNTER_MAX: u64 = EMPTY - 1;

/// Sizing and seeding of a [`ServiceState`].  The task pool takes none: it
/// is a host-side queue that grows with its pending tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Machine seed (all host-side structures are deterministic; the seed
    /// only feeds the machine's RNG contract).
    pub seed: u64,
    /// Number of counters in the bank.
    pub num_counters: usize,
    /// Initial hash-table capacity (rounded up to a power of two; the
    /// table grows whenever it would exceed half full).
    pub hash_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 0,
            num_counters: 1024,
            hash_capacity: 4096,
        }
    }
}

/// Canonical observable state, for batch-vs-oneshot parity comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDigest {
    /// Sorted keys present in the machine-resident hash set.
    pub hash_keys: Vec<u64>,
    /// Raw dump of the counter region (untouched counters stay
    /// [`qrqw_sim::EMPTY`]).
    pub counters: Vec<u64>,
    /// Pending tasks, oldest first.
    pub pending_tasks: Vec<(u64, u64)>,
    /// Next task sequence number to be assigned.
    pub next_seq: u64,
}

/// The task pool's FIFO queue, with a journal of what changed since the
/// last checkpoint — enough to rewind without copying the queue.
#[derive(Debug, Default)]
struct TaskPool {
    /// Pending `(seq, payload)`, oldest first.
    pending: VecDeque<(u64, u64)>,
    next_seq: u64,
    /// Tasks submitted since the checkpoint (all at the back of `pending`,
    /// unless already stolen again).
    pushed: usize,
    /// Tasks stolen since the checkpoint, in steal order; `None` (nothing
    /// is journaled) until the first checkpoint.
    stolen: Option<Vec<(u64, u64)>>,
}

impl TaskPool {
    fn submit(&mut self, payload: u64) -> u64 {
        self.pending.push_back((self.next_seq, payload));
        self.pushed += 1;
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn steal(&mut self) -> Option<(u64, u64)> {
        let task = self.pending.pop_front();
        if let Some(journal) = &mut self.stolen {
            journal.extend(task);
        }
        task
    }

    /// Starts a new journal: the current queue is the checkpointed one.
    fn mark(&mut self) {
        self.pushed = 0;
        self.stolen.get_or_insert_default().clear();
    }

    /// Rewinds to the queue as of the last [`TaskPool::mark`]: un-steal
    /// (the stolen tasks were the front of checkpoint-queue ++ submissions),
    /// then drop the submissions off the back.
    fn rewind(&mut self) {
        if let Some(journal) = &mut self.stolen {
            for task in journal.drain(..).rev() {
                self.pending.push_front(task);
            }
        }
        self.pending.truncate(self.pending.len() - self.pushed);
        self.next_seq -= self.pushed as u64;
        self.pushed = 0;
    }
}

/// A checkpoint of a [`ServiceState`]: the machine's dirty-page shadow
/// plus the hash table's host-side geometry (the task pool journals its own
/// changes).  The batcher syncs one before each batch; restoring it rolls
/// the service back to exactly the pre-batch observable state, which lets a
/// panicked batch be re-applied by bisection with no trace of the failed
/// attempt.  Only the **latest** checkpoint of a state can be restored (any
/// number of `apply_batch` calls later, any number of times): taking
/// another supersedes it.  `Default` is an empty checkpoint suitable only
/// as a reusable buffer for [`ServiceState::checkpoint_into`].
#[derive(Debug, Default)]
pub struct ServiceCheckpoint {
    machine: MachineSnapshot,
    hash_geo: TableGeometry,
}

/// The key of a hash request, when it is in range.
fn valid_hash_key(req: &Request) -> Option<u64> {
    match *req {
        Request::HashInsert { key }
        | Request::HashDelete { key }
        | Request::HashLookup { key }
        | Request::HashContains { key } => Some(key).filter(|&k| k < MAX_KEY),
        _ => None,
    }
}

/// The machine-generic batch engine: the counter bank, the hash set and the
/// task pool, advanced one batch at a time on a machine borrowed per call.
/// Every call must pass the machine the core was built on.
#[derive(Debug)]
pub struct ServiceCore {
    num_counters: usize,
    counter_base: usize,
    /// The machine-resident hash set ([`OpenTable`]: double-hash probes,
    /// occupy-claim insert rounds, tombstone deletes, purge rebuilds).
    hash: OpenTable,
    tasks: TaskPool,
}

impl ServiceCore {
    /// Allocates the counter bank, then the hash table, on `m`.
    /// (`config.seed` is the machine's; the core draws no randomness.)
    pub fn new<M: Machine>(m: &mut M, config: &ServiceConfig) -> Self {
        ServiceCore {
            num_counters: config.num_counters,
            counter_base: m.alloc(config.num_counters.max(1)),
            hash: OpenTable::new(m, config.hash_capacity),
            tasks: TaskPool::default(),
        }
    }

    /// Applies one batch in submission order on `m` and returns one
    /// response per request.
    ///
    /// Panics if the batch contains a [`Fault::Panic`] request, before any
    /// machine step or host mutation, or a [`Fault::LatePanic`] request,
    /// after all of them (the server catches the unwind; direct callers
    /// see the panic).
    pub fn apply_batch<M: Machine>(&mut self, m: &mut M, batch: &[Request]) -> Vec<Response> {
        // With every accepted delta below 2^32, the Fetch&Add step's prefix
        // sums over the whole batch stay below 2^63.
        assert!(
            batch.len() < 1 << 31,
            "a batch holds fewer than 2^31 requests"
        );
        // ---- Pass 1 (host): the batch's distinct hash keys, in first-touch
        // order, and each hash request's index into them.  Injected decode
        // faults fire here, before any machine step or host mutation.
        let mut keys: Vec<u64> = Vec::new();
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut key_of: Vec<usize> = Vec::new();
        for req in batch {
            if let Some(key) = valid_hash_key(req) {
                key_of.push(*index.entry(key).or_insert_with(|| {
                    keys.push(key);
                    keys.len() - 1
                }));
            } else if let Request::Fault(fault @ (Fault::Panic | Fault::Crash)) = req {
                // The live batcher intercepts `Crash` before apply (it
                // kills the thread, not the batch); a direct caller sees
                // it as a decode panic like `Fault::Panic`.
                panic!("qrqw-serve: injected panic while decoding a batch ({fault:?})")
            }
        }

        // ---- Machine stage, fixed order: one probe step against the
        // pre-batch table here, then deletes, inserts and the Fetch&Add
        // step after pass 2.
        let pre = if keys.is_empty() {
            Vec::new()
        } else {
            self.hash.lookup(m, &keys)
        };

        // ---- Pass 2 (host, strictly in batch order): every reply except
        // the counter values, with `now[i]` the presence of `keys[i]` as of
        // the current trace position.
        let mut now = pre.clone();
        let mut key_of = key_of.into_iter();
        let mut next_key = || key_of.next().expect("pass 1 indexed every hash request");
        let mut responses: Vec<Response> = Vec::with_capacity(batch.len());
        // The Fetch&Add step's requests, and where in `responses` each
        // one's old value goes.
        let mut fadd_reqs: Vec<(usize, u64)> = Vec::new();
        let mut fadd_slots: Vec<usize> = Vec::new();
        let mut values: HashMap<usize, u64> = HashMap::new();
        let mut late_panic = false;
        for req in batch {
            let resp = match *req {
                Request::HashInsert { key }
                | Request::HashDelete { key }
                | Request::HashLookup { key }
                | Request::HashContains { key }
                    if key >= MAX_KEY =>
                {
                    Err(ServiceError::KeyOutOfRange(key))
                }
                Request::HashInsert { .. } => Ok(Reply::Inserted(!std::mem::replace(
                    &mut now[next_key()],
                    true,
                ))),
                Request::HashDelete { .. } => Ok(Reply::Removed(std::mem::replace(
                    &mut now[next_key()],
                    false,
                ))),
                Request::HashLookup { .. } | Request::HashContains { .. } => {
                    Ok(Reply::Found(now[next_key()]))
                }
                Request::CounterAdd { counter, .. } | Request::CounterRead { counter }
                    if counter >= self.num_counters =>
                {
                    Err(ServiceError::UnknownCounter(counter))
                }
                Request::CounterRead { counter } => {
                    // A read is a zero-delta Fetch&Add: it serializes with
                    // the batch's adds at its own batch position.
                    fadd_reqs.push((self.counter_base + counter, 0));
                    fadd_slots.push(responses.len());
                    Ok(Reply::Counter(0))
                }
                Request::CounterAdd { counter, delta } => {
                    // The counter's value at this trace position: its
                    // pre-batch cell (one host read per distinct counter
                    // added to) plus the batch's earlier accepted adds.
                    let value = values.entry(counter).or_insert_with(|| {
                        match m.peek(self.counter_base + counter) {
                            EMPTY => 0,
                            v => v,
                        }
                    });
                    if delta >= DELTA_LIMIT || delta > COUNTER_MAX - *value {
                        Err(ServiceError::CounterOverflow(counter))
                    } else {
                        *value += delta;
                        fadd_reqs.push((self.counter_base + counter, delta));
                        fadd_slots.push(responses.len());
                        Ok(Reply::Counter(0))
                    }
                }
                Request::TaskSubmit { payload } => {
                    Ok(Reply::TaskQueued(self.tasks.submit(payload)))
                }
                Request::TaskSteal => Ok(Reply::TaskStolen(self.tasks.steal())),
                Request::Fault(Fault::Error) => Err(ServiceError::Injected),
                Request::Fault(Fault::LatePanic) => {
                    // Never returned: the batch panics after its machine
                    // steps.
                    late_panic = true;
                    Err(ServiceError::RequestPanicked)
                }
                Request::Fault(_) => unreachable!("pass 1 panics on the other faults"),
            };
            responses.push(resp);
        }

        // The batch's *net* key diff, in first-touch order (a Vec, never
        // map iteration: occupy-claim winners are the lowest claimant
        // *index*, so the attempts vector must be ordered identically on
        // every backend and thread count).  A key whose presence ends where
        // it started (insert-then-delete, or delete-then-reinsert) needs no
        // machine operation at all, which is what keeps machine work a
        // function of the trace rather than of the batch partition.
        let net = |becomes: bool| -> Vec<u64> {
            (0..keys.len())
                .filter(|&i| now[i] == becomes && pre[i] != becomes)
                .map(|i| keys[i])
                .collect()
        };
        self.hash.remove_present(m, &net(false));
        self.hash.insert_new(m, &net(true));
        if !fadd_reqs.is_empty() {
            let olds = emulate_fetch_add_step(m, &fadd_reqs);
            for (slot, old) in fadd_slots.into_iter().zip(olds) {
                responses[slot] = Ok(Reply::Counter(old));
            }
        }
        if late_panic {
            panic!("qrqw-serve: injected panic after a batch's machine steps");
        }
        responses
    }

    /// The canonical observable state on `m` (see the module docs for what
    /// is compared bit-exactly vs. canonically).
    pub fn digest<M: Machine>(&self, m: &M) -> StateDigest {
        let mut hash_keys = self.hash.live_keys(m);
        hash_keys.sort_unstable();
        debug_assert_eq!(hash_keys.len(), self.hash.len());
        StateDigest {
            hash_keys,
            counters: m.dump(self.counter_base, self.num_counters.max(1)),
            pending_tasks: self.tasks.pending.iter().copied().collect(),
            next_seq: self.tasks.next_seq,
        }
    }
}

/// The live service state: a persistent native machine plus the
/// [`ServiceCore`] that lives on it, with checkpoint and restore.
#[derive(Debug)]
pub struct ServiceState {
    pm: PersistentMachine,
    core: ServiceCore,
}

impl ServiceState {
    /// Builds a fresh state on a machine that dispatches on `pool`.
    pub fn with_pool(config: ServiceConfig, pool: StepPool) -> Self {
        let mut pm = PersistentMachine::with_pool(16, config.seed, pool);
        let core = ServiceCore::new(pm.machine(), &config);
        ServiceState { pm, core }
    }

    /// Tombstoned cells currently in the hash table (deleted keys whose
    /// cells have not yet been purged by a rebuild).
    pub fn hash_tombstones(&self) -> usize {
        self.core.hash.tombstones()
    }

    /// Current hash-table capacity in cells.
    pub fn hash_capacity(&self) -> usize {
        self.core.hash.capacity()
    }

    /// Number of pending tasks.
    pub fn pending_tasks(&self) -> usize {
        self.core.tasks.pending.len()
    }

    /// Applies one batch ([`ServiceCore::apply_batch`]) and returns one
    /// response per request plus what the batch cost on the machine; the
    /// cost's wall time covers the host decode passes too.
    pub fn apply_batch(&mut self, batch: &[Request]) -> (Vec<Response>, BatchCost) {
        let ServiceState { pm, core } = self;
        pm.batch(|m| core.apply_batch(m, batch))
    }

    /// The canonical observable state (see the module docs for what is
    /// compared bit-exactly vs. canonically).
    pub fn digest(&self) -> StateDigest {
        self.core.digest(self.pm.machine_ref())
    }

    /// Brings `ck` up to date and makes it the state's latest checkpoint.
    /// Returns the machine cells copied: only the pages written since, when
    /// `ck` already was the latest; the whole live prefix for any other.
    pub fn checkpoint_into(&mut self, ck: &mut ServiceCheckpoint) -> usize {
        self.pm.snapshot_into(&mut ck.machine);
        ck.hash_geo = self.core.hash.geometry();
        self.core.tasks.mark();
        ck.machine.copied_cells()
    }

    /// Rolls the service back to `ck`: machine memory, allocator, step and
    /// contention counters, hash geometry, and the task pool all rewind,
    /// so the digest (and every subsequent reply) is exactly what it was
    /// at checkpoint time.  `ck` stays the latest checkpoint.
    ///
    /// # Panics
    ///
    /// If `ck` is not this state's latest checkpoint (the epoch rule): the
    /// task journal and the dirty map reach back no further.
    pub fn restore(&mut self, ck: &ServiceCheckpoint) {
        assert!(
            self.pm.machine_ref().is_current(&ck.machine),
            "ServiceState::restore: superseded checkpoint — the epoch rule: only the latest \
             checkpoint_into of this state can be restored"
        );
        self.pm.restore(&ck.machine);
        self.core.hash.restore_geometry(ck.hash_geo);
        self.core.tasks.rewind();
    }

    /// The shape of the machine's sharded arena.  A long-lived service
    /// grows its hash table and allocator live across batches; the arena
    /// appends shards without moving cells, so growth mid-service never
    /// pays a realloc copy or a transient 2× footprint.
    pub fn arena_stats(&self) -> qrqw_exec::ArenaStats {
        self.pm.arena_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::EMPTY;

    fn state() -> ServiceState {
        ServiceState::with_pool(
            ServiceConfig {
                num_counters: 8,
                hash_capacity: 64,
                seed: 1,
            },
            StepPool::with_threads(2),
        )
    }

    #[test]
    fn counter_adds_past_the_ceiling_or_the_delta_bound_are_refused() {
        use qrqw_sim::Pram;
        let config = ServiceConfig {
            num_counters: 4,
            hash_capacity: 16,
            seed: 1,
        };
        let core = || {
            let mut pram = Pram::with_seed(16, 1);
            let core = ServiceCore::new(&mut pram, &config);
            (pram, core)
        };
        let add = |counter, delta| Request::CounterAdd { counter, delta };
        let refused = |counter| Err(ServiceError::CounterOverflow(counter));

        let (mut pram, mut c) = core();
        pram.poke(c.counter_base, COUNTER_MAX - 2);
        let resp = c.apply_batch(&mut pram, &[add(0, 2), add(0, 1), add(0, 0)]);
        assert_eq!(
            resp,
            [
                Ok(Reply::Counter(COUNTER_MAX - 2)),
                refused(0),
                Ok(Reply::Counter(COUNTER_MAX))
            ]
        );
        // The next batch judges from the cell: still full.
        let resp = c.apply_batch(&mut pram, &[add(0, 1), Request::CounterRead { counter: 0 }]);
        assert_eq!(resp, [refused(0), Ok(Reply::Counter(COUNTER_MAX))]);
        // Deltas at or above 2^32 leave no trace, not even a materialized
        // cell.
        let before = c.digest(&pram);
        let resp = c.apply_batch(&mut pram, &[add(1, u64::MAX), add(2, DELTA_LIMIT)]);
        assert_eq!(resp, [refused(1), refused(2)]);
        assert_eq!(c.digest(&pram), before);
        assert_eq!(before.counters[1..3], [EMPTY, EMPTY]);

        // Two adds of 2^63 reply the same as one batch and as two.
        let big = [add(1, 1 << 63), add(2, 1 << 63)];
        let (mut one, mut c1) = core();
        let (mut two, mut c2) = core();
        let whole = c1.apply_batch(&mut one, &big);
        let mut split = c2.apply_batch(&mut two, &big[..1]);
        split.extend(c2.apply_batch(&mut two, &big[1..]));
        assert_eq!(whole, [refused(1), refused(2)]);
        assert_eq!(split, whole);
        assert_eq!(c1.digest(&one), c2.digest(&two));
    }

    #[test]
    fn task_requests_cost_nothing_on_the_machine() {
        let submit = |payload| Request::TaskSubmit { payload };
        let mut s = state();
        let mut ck = ServiceCheckpoint::default();
        s.checkpoint_into(&mut ck);
        // Steals from an empty pool, then traffic that leaves tasks pending.
        for batch in [
            vec![Request::TaskSteal, Request::TaskSteal],
            vec![submit(1), submit(2), submit(3), Request::TaskSteal],
            vec![Request::TaskSteal, submit(4)],
        ] {
            let (resp, cost) = s.apply_batch(&batch);
            assert!(resp.iter().all(Result::is_ok));
            assert_eq!(
                (cost.steps, cost.claim_attempts, cost.contended_claims),
                (0, 0, 0),
                "{batch:?}"
            );
            assert_eq!(s.checkpoint_into(&mut ck), 0, "no machine cell written");
        }
        assert_eq!(s.pending_tasks(), 2);

        // Mixed in, task requests add nothing to the hash and counter work.
        let mixed = vec![
            submit(5),
            Request::HashInsert { key: 3 },
            Request::TaskSteal,
            Request::CounterAdd {
                counter: 2,
                delta: 4,
            },
            Request::HashLookup { key: 9 },
            submit(6),
            Request::HashInsert { key: 9 },
            Request::CounterRead { counter: 2 },
            Request::TaskSteal,
        ];
        let machine_only: Vec<Request> = mixed
            .iter()
            .copied()
            .filter(|r| !matches!(r, Request::TaskSubmit { .. } | Request::TaskSteal))
            .collect();
        let (_, with_tasks) = state().apply_batch(&mixed);
        let (_, without) = state().apply_batch(&machine_only);
        assert!(with_tasks.steps > 0 && with_tasks.claim_attempts > 0);
        assert_eq!(
            (with_tasks.steps, with_tasks.claim_attempts),
            (without.steps, without.claim_attempts)
        );
    }

    #[test]
    fn growth_across_batches_spans_shards_and_keeps_oneshot_parity() {
        // A multi-shard service: the counter bank alone crosses a shard
        // boundary and ends just below the next one, so the hash table's
        // doubling growth across batches appends a third shard live.  The
        // digest must not care where batch boundaries fall even while the
        // arena is growing underneath the batches.
        let config = ServiceConfig {
            num_counters: 2 * qrqw_exec::SHARD_CELLS - 1500,
            hash_capacity: 64,
            seed: 1,
        };
        let trace: Vec<Request> = (0..300)
            .flat_map(|k| {
                [
                    Request::HashInsert { key: k * 3 },
                    Request::CounterAdd {
                        counter: (k as usize * 911) % config.num_counters,
                        delta: k + 1,
                    },
                ]
            })
            .collect();

        let mut oneshot = ServiceState::with_pool(config, StepPool::with_threads(2));
        let _ = oneshot.apply_batch(&trace);

        let mut batched = ServiceState::with_pool(config, StepPool::with_threads(2));
        let start_shards = batched.arena_stats().shards;
        assert!(start_shards >= 2, "counter bank must already span shards");
        for chunk in trace.chunks(37) {
            let _ = batched.apply_batch(chunk);
        }
        assert!(
            batched.arena_stats().shards > start_shards,
            "hash growth across batches must have appended shards"
        );
        assert_eq!(batched.digest(), oneshot.digest());
    }

    #[test]
    fn invalid_requests_fail_without_poisoning_the_batch() {
        let mut s = state();
        let (resp, _) = s.apply_batch(&[
            Request::HashInsert { key: MAX_KEY },
            Request::CounterAdd {
                counter: 99,
                delta: 1,
            },
            Request::Fault(Fault::Error),
            Request::HashInsert { key: 1 },
        ]);
        assert_eq!(resp[0], Err(ServiceError::KeyOutOfRange(MAX_KEY)));
        assert_eq!(resp[1], Err(ServiceError::UnknownCounter(99)));
        assert_eq!(resp[2], Err(ServiceError::Injected));
        assert_eq!(resp[3], Ok(Reply::Inserted(true)));
        assert_eq!(s.digest().hash_keys, vec![1]);
    }

    #[test]
    fn a_decode_panic_leaves_the_state_untouched_and_the_checkpoint_restorable() {
        // Decode faults fire in the first decode pass: before the probe
        // step and before the walk that mutates the task pool.  The batcher
        // still restores (a late panic or a future bug panics later), so
        // that must work too.
        let mut s = state();
        let _ = s.apply_batch(&[Request::HashInsert { key: 5 }]);
        let before = s.digest();
        let steps = s.pm.machine_ref().steps_executed();
        let mut ck = ServiceCheckpoint::default();
        s.checkpoint_into(&mut ck);
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.apply_batch(&[
                Request::TaskSubmit { payload: 5 },
                Request::HashInsert { key: 6 },
                Request::Fault(Fault::Panic),
            ])
        }));
        assert!(torn.is_err());
        assert_eq!(s.digest(), before, "nothing ran before the panic");
        assert_eq!(s.pm.machine_ref().steps_executed(), steps);
        s.restore(&ck);
        assert_eq!(s.digest(), before);
        // Replaying only the innocent requests observes a clean trace.
        let (resp, _) = s.apply_batch(&[
            Request::TaskSubmit { payload: 5 },
            Request::HashInsert { key: 6 },
        ]);
        assert_eq!(resp[0], Ok(Reply::TaskQueued(0)));
        assert_eq!(resp[1], Ok(Reply::Inserted(true)));
    }

    #[test]
    #[should_panic(expected = "epoch rule")]
    fn restoring_a_superseded_checkpoint_panics() {
        let mut s = state();
        let mut old = ServiceCheckpoint::default();
        s.checkpoint_into(&mut old);
        let _ = s.apply_batch(&[Request::TaskSubmit { payload: 1 }]);
        s.checkpoint_into(&mut ServiceCheckpoint::default());
        // The task journal only reaches back to the second checkpoint.
        s.restore(&old);
    }

    #[test]
    fn restore_rewinds_several_batches_completely_and_repeatedly() {
        let reqs = |r: std::ops::Range<u64>, f: fn(u64) -> Request| r.map(f).collect::<Vec<_>>();
        let insert = |key| Request::HashInsert { key };
        let delete = |key| Request::HashDelete { key };
        let add = |counter, delta| Request::CounterAdd { counter, delta };
        let submit = |payload| Request::TaskSubmit { payload };
        let observe = |s: &ServiceState| {
            let m = s.pm.machine_ref();
            (
                s.digest(),
                s.core.hash.geometry(),
                m.heap_top(),
                m.steps_executed(),
                m.contention().attempts(),
            )
        };

        let mut s = state(); // hash cap 64
                             // Resident state with every moving part populated: live keys, a
                             // purge behind it (so a spare region exists), fresh tombstones,
                             // counters, a task queue with a hole at the front.
        let _ = s.apply_batch(&reqs(0..20, insert));
        let _ = s.apply_batch(&reqs(0..17, delete));
        let _ = s.apply_batch(&reqs(17..19, delete));
        let _ = s.apply_batch(&[
            add(1, 5),
            submit(70),
            submit(71),
            submit(72),
            Request::TaskSteal,
        ]);
        assert!(s.core.hash.geometry().spare.is_some());
        assert_eq!(s.hash_tombstones(), 2);
        let mut ck = ServiceCheckpoint::default();
        s.checkpoint_into(&mut ck);
        let before = observe(&s);

        for round in 0..3u64 {
            // Growth (new region, the spare moves), a churn purge, steals
            // that drain the checkpointed queue and reach into the
            // submissions made since, counter traffic.
            let _ = s.apply_batch(&reqs(100..200, insert));
            let _ = s.apply_batch(&reqs(100..180, delete));
            let (resp, _) = s.apply_batch(&[
                Request::TaskSteal,
                Request::TaskSteal,
                submit(80 + round),
                Request::TaskSteal,
                Request::TaskSteal,
                submit(90),
                add(1, 7),
                add(3, round),
            ]);
            assert_eq!(resp[0], Ok(Reply::TaskStolen(Some((1, 71)))));
            assert_eq!(resp[3], Ok(Reply::TaskStolen(Some((3, 80 + round)))));
            assert_eq!(resp[4], Ok(Reply::TaskStolen(None)));
            assert_eq!(resp[5], Ok(Reply::TaskQueued(4)));
            assert_ne!(observe(&s), before);
            s.restore(&ck);
            assert_eq!(observe(&s), before, "round {round}");
        }
        // FIFO order and the sequence counter are the checkpoint's.
        let (resp, _) = s.apply_batch(&[
            Request::TaskSteal,
            submit(9),
            Request::CounterRead { counter: 1 },
        ]);
        assert_eq!(resp[0], Ok(Reply::TaskStolen(Some((1, 71)))));
        assert_eq!(resp[1], Ok(Reply::TaskQueued(3)));
        assert_eq!(resp[2], Ok(Reply::Counter(5)));
    }

    #[test]
    fn a_warm_checkpoint_copies_cells_proportional_to_the_batch() {
        // Just under 2^15 resident keys: the table region alone is 2^16
        // cells, with room for one more key before it doubles.
        let mut s = state();
        let keys: Vec<Request> = (0..(1 << 15) - 100)
            .map(|key| Request::HashInsert { key })
            .collect();
        let _ = s.apply_batch(&keys);
        let mut ck = ServiceCheckpoint::default();
        let full = s.checkpoint_into(&mut ck);
        assert!(full >= 1 << 16, "the first sync copies the live prefix");
        assert_eq!(s.checkpoint_into(&mut ck), 0, "nothing written since");
        let _ = s.apply_batch(&[
            Request::HashInsert { key: 1 << 20 },
            Request::HashLookup { key: 7 },
            Request::CounterAdd {
                counter: 2,
                delta: 1,
            },
        ]);
        let warm = s.checkpoint_into(&mut ck);
        assert!(
            warm > 0 && warm <= 8 * qrqw_exec::PAGE_CELLS,
            "a few pages, got {warm} cells"
        );
    }
}
