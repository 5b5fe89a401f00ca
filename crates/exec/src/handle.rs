//! [`PersistentMachine`]: a long-lived [`NativeMachine`] owner for batch
//! servers.
//!
//! The one-shot harnesses construct a machine, run one algorithm, and read
//! one cumulative [`Machine::cost_report`].  A request server is different:
//! it keeps a single machine alive across thousands of batches and needs
//! *per-batch* cost attribution — how many steps, claim attempts and
//! contended claims *this* batch added, and how long it took — because the
//! batch is the service's unit of work (the h-relation of the QRQW story).
//! [`PersistentMachine`] wraps the machine together with the counter marks
//! needed to turn the cumulative counters into per-batch deltas, so callers
//! get a [`BatchCost`] per [`PersistentMachine::batch`] scope without
//! re-deriving deltas by hand (and without a second contention counter).
//!
//! A batch server also needs *restartability*: a batch that panics
//! mid-application must not leave the machine in a half-applied state.
//! [`PersistentMachine::snapshot_into`] captures the machine's observable
//! state — the live cell prefix `[0, heap_top)` of the sharded arena plus
//! the heap/step/contention counters — and [`PersistentMachine::restore`]
//! rolls back to it, counters, marks, and (because random draws are a pure
//! function of `(seed, step_idx, proc)`) RNG streams included.  A reused
//! [`MachineSnapshot`] is a persistent *shadow* of the machine: the arena
//! tracks which pages were written since the shadow was last synced, so
//! the per-batch checkpoint and the rollback both cost O(cells the batch
//! wrote), not O(resident cells), and allocate nothing.  Only the latest
//! snapshot can be restored (the epoch rule): the dirty map reaches back
//! no further, and `restore` panics on any other.

use std::time::{Duration, Instant};

use qrqw_sim::Machine;

use crate::{NativeMachine, StepPool};

/// What one batch scope cost: the deltas of the machine's cumulative
/// counters across a [`PersistentMachine::batch`] call, plus its wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCost {
    /// Machine steps the batch executed.
    pub steps: u64,
    /// Claim attempts the batch issued.
    pub claim_attempts: u64,
    /// Claim attempts that lost their cell to a same-step collision — the
    /// realized contention of the batch.
    pub contended_claims: u64,
    /// Wall-clock time of the batch scope.
    pub wall: Duration,
}

impl std::ops::AddAssign for BatchCost {
    /// Folds another scope's cost into this one (durations and counters
    /// add) — how a bisection replay accumulates the cost of its
    /// sub-batches into one batch-level total.
    fn add_assign(&mut self, other: BatchCost) {
        self.steps += other.steps;
        self.claim_attempts += other.claim_attempts;
        self.contended_claims += other.contended_claims;
        self.wall += other.wall;
    }
}

/// A point-in-time copy of a [`NativeMachine`]'s observable state: the live
/// cell prefix `[0, heap_top)`, the allocation top, the step counter (which
/// pins the RNG streams), and the contention totals.
///
/// Filled by [`PersistentMachine::snapshot_into`]; consumed by
/// [`PersistentMachine::restore`].  `Default` is an empty snapshot, the
/// buffer the first `snapshot_into` fills with a full copy.
///
/// A snapshot is stamped with the identity of the machine it was taken
/// from and that machine's sync epoch.  Every `snapshot_into` bumps the
/// epoch, so at most one stamp — the latest — matches the machine.  Only a
/// buffer carrying it takes the dirty-pages-only path of `snapshot_into`
/// (any other buffer takes the full copy there), and only such a buffer
/// can be restored: `restore` panics on any other (the epoch rule).
#[derive(Debug, Clone, Default)]
pub struct MachineSnapshot {
    pub(crate) cells: Vec<u64>,
    pub(crate) machine_id: u64,
    pub(crate) epoch: u64,
    pub(crate) copied: usize,
    pub(crate) heap_top: usize,
    pub(crate) steps_executed: u64,
    pub(crate) attempts: u64,
    pub(crate) failures: u64,
}

impl MachineSnapshot {
    /// The allocation top at snapshot time — also the number of cells the
    /// snapshot holds, i.e. its memory footprint in `u64`s.
    pub fn heap_top(&self) -> usize {
        self.heap_top
    }

    /// The cell prefix `[0, heap_top)` the snapshot holds.
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Cells the last `snapshot_into` on this buffer copied: the whole
    /// prefix for a full copy, the dirty pages (plus heap growth) for an
    /// incremental sync, 0 when nothing was written in between.
    pub fn copied_cells(&self) -> usize {
        self.copied
    }

    /// The machine step counter at snapshot time.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }
}

/// A [`NativeMachine`] that lives across many batches, with per-batch cost
/// attribution.
///
/// ```
/// use qrqw_exec::{PersistentMachine, StepPool};
/// use qrqw_sim::Machine;
///
/// let mut pm = PersistentMachine::with_pool(64, 1, StepPool::from_env());
/// let (base, cost) = pm.batch(|m| m.alloc(16));
/// assert_eq!(base, 64);
/// assert_eq!(cost.steps, 0); // alloc is not a step
/// let ((), cost) = pm.batch(|m| m.par_for(16, |p, ctx| ctx.write(base + p, 7)));
/// assert_eq!(cost.steps, 1);
/// ```
#[derive(Debug)]
pub struct PersistentMachine {
    machine: NativeMachine,
    steps_mark: u64,
    attempts_mark: u64,
    failures_mark: u64,
}

impl PersistentMachine {
    /// Creates a machine with `mem_size` cells and the given seed that
    /// dispatches on `pool`.
    pub fn with_pool(mem_size: usize, seed: u64, pool: StepPool) -> Self {
        let machine = NativeMachine::with_pool(mem_size, seed, pool);
        PersistentMachine {
            steps_mark: machine.steps_executed(),
            attempts_mark: machine.contention().attempts(),
            failures_mark: machine.contention().failures(),
            machine,
        }
    }

    /// The wrapped machine, for direct (un-attributed) access.
    pub fn machine(&mut self) -> &mut NativeMachine {
        &mut self.machine
    }

    /// Read-only access to the wrapped machine.
    pub fn machine_ref(&self) -> &NativeMachine {
        &self.machine
    }

    /// The shape of the wrapped machine's sharded arena — how many cells
    /// are live and how many shards back them.  Growth across batches
    /// appends shards without moving cells, so callers can watch this to
    /// confirm a long-lived machine scales without realloc cliffs.
    pub fn arena_stats(&self) -> crate::arena::ArenaStats {
        self.machine.arena_stats()
    }

    /// Runs `f` against the machine and reports what it cost: the deltas of
    /// the step and contention counters across the call, plus wall time.
    pub fn batch<T>(&mut self, f: impl FnOnce(&mut NativeMachine) -> T) -> (T, BatchCost) {
        let start = Instant::now();
        let out = f(&mut self.machine);
        let wall = start.elapsed();
        let steps = self.machine.steps_executed();
        let attempts = self.machine.contention().attempts();
        let failures = self.machine.contention().failures();
        let cost = BatchCost {
            steps: steps - self.steps_mark,
            claim_attempts: attempts - self.attempts_mark,
            contended_claims: failures - self.failures_mark,
            wall,
        };
        self.steps_mark = steps;
        self.attempts_mark = attempts;
        self.failures_mark = failures;
        (out, cost)
    }

    /// Brings `snap` up to date with the machine — the per-batch
    /// checkpoint.  Copies only what was written since `snap` was last
    /// synced when `snap` is the latest snapshot, everything otherwise
    /// (see [`NativeMachine::snapshot_into`]).
    pub fn snapshot_into(&mut self, snap: &mut MachineSnapshot) {
        self.machine.snapshot_into(snap);
    }

    /// Rolls the machine back to `snap` and rewinds the batch marks to the
    /// snapshot's counters, so the next [`PersistentMachine::batch`]
    /// reports only post-restore work (a rolled-back batch costs nothing).
    ///
    /// # Panics
    ///
    /// If `snap` is not this machine's latest snapshot — the epoch rule
    /// (see [`NativeMachine::restore`]).
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        self.machine.restore(snap);
        self.steps_mark = snap.steps_executed;
        self.attempts_mark = snap.attempts;
        self.failures_mark = snap.failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::ClaimMode;

    #[test]
    fn batch_costs_are_deltas_not_cumulative_totals() {
        let mut pm = PersistentMachine::with_pool(64, 0, StepPool::with_threads(2));
        let (_, first) = pm.batch(|m| {
            m.claim(&[(1, 4), (2, 4), (3, 9)], ClaimMode::Exclusive);
        });
        assert_eq!(first.steps, 6);
        assert_eq!(first.claim_attempts, 3);
        assert_eq!(first.contended_claims, 2);
        // A second batch reports only its own cost, not the running totals.
        let (_, second) = pm.batch(|m| {
            m.claim(&[(5, 20)], ClaimMode::Occupy);
        });
        assert_eq!(second.steps, 3);
        assert_eq!(second.claim_attempts, 1);
        assert_eq!(second.contended_claims, 0);
        // The machine's own cumulative counters kept counting.
        assert_eq!(pm.machine_ref().contention().attempts(), 4);
    }

    #[test]
    fn state_persists_across_batches() {
        let mut pm = PersistentMachine::with_pool(8, 3, StepPool::from_env());
        let ((), _) = pm.batch(|m| m.poke(3, 41));
        let (v, cost) = pm.batch(|m| m.peek(3));
        assert_eq!(v, 41);
        assert_eq!(cost.steps, 0);
    }

    #[test]
    fn snapshot_restore_round_trips_memory_counters_and_marks() {
        let mut pm = PersistentMachine::with_pool(64, 0, StepPool::with_threads(2));
        let ((), _) = pm.batch(|m| {
            m.poke(5, 99);
            m.claim(&[(1, 4), (2, 4)], ClaimMode::Exclusive);
        });
        let mut snap = MachineSnapshot::default();
        pm.snapshot_into(&mut snap);
        assert_eq!(snap.heap_top(), 64);
        // Mutate heavily after the snapshot: memory, allocation, steps,
        // contention.
        let ((), _) = pm.batch(|m| {
            m.poke(5, 1);
            let base = m.alloc(32);
            m.poke(base + 7, 123);
            m.claim(&[(9, 10), (10, 10), (11, 10)], ClaimMode::Occupy);
        });
        pm.restore(&snap);
        let m = pm.machine_ref();
        assert_eq!(m.steps_executed(), snap.steps_executed());
        assert_eq!(m.heap_top(), 64);
        assert_eq!(m.peek(5), 99, "restored cell must hold the old value");
        assert_eq!(m.contention().attempts(), 2);
        assert_eq!(m.contention().failures(), 2);
        // A cell allocated only after the snapshot reads EMPTY again.
        let (v, cost) = pm.batch(|m| {
            let base = m.alloc(32);
            m.peek(base + 7)
        });
        assert_eq!(v, qrqw_sim::EMPTY, "post-snapshot writes must be gone");
        // The marks rewound with the restore: the rolled-back batch's
        // claims must not leak into the next delta.
        assert_eq!(cost.claim_attempts, 0);
        let (_, cost) = pm.batch(|m| {
            m.claim(&[(5, 20)], ClaimMode::Occupy);
        });
        assert_eq!(cost.claim_attempts, 1);
    }

    #[test]
    fn restore_rewinds_the_random_streams() {
        // RNG draws are a pure function of (seed, step_idx, proc):
        // restoring the step counter must replay the identical stream.
        let mut pm = PersistentMachine::with_pool(8, 42, StepPool::with_threads(2));
        let mut snap = MachineSnapshot::default();
        pm.snapshot_into(&mut snap);
        let (first, _) = pm.batch(|m| m.par_map(16, |_p, ctx| ctx.random_index(1 << 30)));
        let (_, _) = pm.batch(|m| m.par_map(16, |_p, ctx| ctx.random_index(1 << 30)));
        pm.restore(&snap);
        let (replay, _) = pm.batch(|m| m.par_map(16, |_p, ctx| ctx.random_index(1 << 30)));
        assert_eq!(first, replay);
    }

    #[test]
    fn snapshot_into_reuses_the_buffer_when_warm() {
        let mut pm = PersistentMachine::with_pool(4096, 0, StepPool::with_threads(2));
        let mut snap = MachineSnapshot::default();
        pm.snapshot_into(&mut snap);
        let warm = snap.cells.as_ptr() as usize;
        let ((), _) = pm.batch(|m| m.poke(100, 7));
        pm.snapshot_into(&mut snap);
        assert_eq!(
            snap.cells.as_ptr() as usize,
            warm,
            "a steady working set must not reallocate the snapshot buffer"
        );
        assert_eq!(snap.cells[100], 7);
    }

    #[test]
    fn batch_cost_add_assign_sums_every_field() {
        let mut a = BatchCost {
            steps: 1,
            claim_attempts: 2,
            contended_claims: 3,
            wall: Duration::from_micros(5),
        };
        a += BatchCost {
            steps: 10,
            claim_attempts: 20,
            contended_claims: 30,
            wall: Duration::from_micros(50),
        };
        assert_eq!(a.steps, 11);
        assert_eq!(a.claim_attempts, 22);
        assert_eq!(a.contended_claims, 33);
        assert_eq!(a.wall, Duration::from_micros(55));
    }
}
