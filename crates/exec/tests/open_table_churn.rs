//! Sustained same-capacity churn on a machine-resident [`OpenTable`] must
//! not leak arena: every tombstone purge after the first reuses the spare
//! region, so `heap_top` stays flat — on the simulator and on the native
//! machine alike, with identical allocator trajectories.

use qrqw_core::OpenTable;
use qrqw_exec::NativeMachine;
use qrqw_sim::{Machine, Pram};

/// Insert-then-delete rounds that each purge at capacity 64; returns
/// `heap_top` after every purge.
fn purge_tops<M: Machine>(m: &mut M) -> Vec<usize> {
    let mut t = OpenTable::new(m, 64);
    let mut tops = Vec::new();
    for round in 0..8u64 {
        let ks: Vec<u64> = (0..20).map(|k| round * 100 + k).collect();
        t.insert_new(m, &ks);
        // 20 tombstones > cap/4: the delete path purges in place.
        t.remove_present(m, &ks);
        assert_eq!((t.tombstones(), t.len(), t.capacity()), (0, 0, 64));
        tops.push(m.heap_top());
    }
    tops
}

#[test]
fn sustained_churn_keeps_heap_top_flat_on_pram_and_native() {
    let sim = purge_tops(&mut Pram::with_seed(16, 7));
    let native = purge_tops(&mut NativeMachine::with_threads(16, 7, 2));
    assert_eq!(sim, native, "allocator trajectories diverged");
    // The first purge allocates the second region; from then on the two
    // regions ping-pong.
    assert_eq!(sim[0], 16 + 64 + 64);
    assert!(sim.iter().all(|&t| t == sim[0]), "heap grew: {sim:?}");
}
