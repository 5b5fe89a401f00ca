//! Machine-resident open-addressing hash set with tombstone deletion.
//!
//! This is the churn-capable generalization of the insert-only table the
//! service layer grew in PR 6: a region of `cap` (power-of-two) cells in
//! machine shared memory, double-hash probe sequences, inserts by rounds of
//! occupy-mode [`Machine::claim`]s (a batch of inserts is exactly the
//! paper's low-contention cell-claiming step), lookups as one parallel
//! probe step — plus **deletion**.  A deleted key's cell is overwritten
//! with the [`TOMBSTONE`] sentinel rather than [`EMPTY`], which keeps every
//! other key's probe walk intact:
//!
//! * **lookups** stop only at [`EMPTY`]; a tombstoned cell is skipped, so
//!   keys placed past it are still found;
//! * **inserts** claim only [`EMPTY`] cells (the claim protocol's probe
//!   pass rejects any occupied cell, tombstones included), so a reinserted
//!   key lands on the first empty cell of its probe order — exactly where
//!   its own lookup walk terminates.
//!
//! The load invariant is `2 · (len + tombstones) ≤ cap` on entry to every
//! insert batch: tombstones count against the load factor because they
//! lengthen probe walks exactly like live keys.  [`OpenTable::insert_new`]
//! restores the invariant by **rebuilding** — re-inserting only the live
//! keys into a fresh (possibly larger) region, which is the growth-time
//! tombstone purge — and a delete-heavy workload triggers the same purge
//! once tombstones alone exceed a quarter of the capacity, so sustained
//! churn cannot degrade probes without bound.  The machine allocator is a
//! stack — a long-lived region cannot be freed from the middle — so the
//! region a rebuild leaves is kept as the table's one **spare**: the next
//! rebuild to that capacity clears and reuses it instead of allocating.
//! Same-capacity purges therefore ping-pong between two regions and
//! sustained churn holds `heap_top` flat; only growth abandons memory (the
//! spare of the outgrown capacity), geometrically bounded.
//!
//! Every operation is deterministic on every backend: occupy-claim winners
//! are the lowest claimant index everywhere (see `qrqw_sim::Machine::claim`),
//! and rebuild triggers depend only on host-side counters — so a churn
//! trace drives bit-identical table states across sim, native, stealing
//! and BSP machines, which is what `tests/scenarios.rs` pins.

use qrqw_sim::{ClaimMode, Machine, EMPTY};

/// Sentinel marking a deleted cell.  Distinct from [`EMPTY`] and from every
/// stored tag (keys are stored as `key + 1` and must stay below this).
pub const TOMBSTONE: u64 = EMPTY - 1;

/// First probe cell of `key` in a table of `cap` (power-of-two) cells.
pub fn probe_home(key: u64, cap: usize) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - cap.trailing_zeros())
}

/// Odd probe stride of `key` (coprime to the power-of-two capacity, so the
/// probe sequence visits every cell).
pub fn probe_stride(key: u64) -> u64 {
    (key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 33) | 1
}

/// The `r`-th probe cell of `key`.
pub fn probe_cell(key: u64, r: u64, cap: usize) -> usize {
    (probe_home(key, cap).wrapping_add(r.wrapping_mul(probe_stride(key))) & (cap as u64 - 1))
        as usize
}

/// The host-side geometry of an [`OpenTable`], for checkpoint/restore: the
/// machine region itself is snapshotted separately (it lives in machine
/// memory), but base/cap and the occupancy counters must rewind with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableGeometry {
    /// Base address of the live region.
    pub base: usize,
    /// Capacity in cells (a power of two).
    pub cap: usize,
    /// Live keys.
    pub len: usize,
    /// Tombstoned cells awaiting the next purge.
    pub tombstones: usize,
    /// `(base, cap)` of the region the last rebuild left, reusable by the
    /// next rebuild to that capacity.
    pub spare: Option<(usize, usize)>,
}

/// A machine-resident open-addressing hash set (see the module docs).
#[derive(Debug)]
pub struct OpenTable {
    /// Everything host-side: the live region, the occupancy counters and
    /// the spare region.
    geo: TableGeometry,
}

impl OpenTable {
    /// Allocates a fresh table of at least `capacity` cells (rounded up to
    /// a power of two, minimum 64).
    pub fn new<M: Machine>(m: &mut M, capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(64);
        OpenTable {
            geo: TableGeometry {
                base: m.alloc(cap),
                cap,
                ..TableGeometry::default()
            },
        }
    }

    /// Live keys currently present.
    pub fn len(&self) -> usize {
        self.geo.len
    }

    /// True when no key is present.
    pub fn is_empty(&self) -> bool {
        self.geo.len == 0
    }

    /// Current capacity in cells.
    pub fn capacity(&self) -> usize {
        self.geo.cap
    }

    /// Tombstoned cells not yet purged by a rebuild.
    pub fn tombstones(&self) -> usize {
        self.geo.tombstones
    }

    /// The current geometry, for checkpointing.
    pub fn geometry(&self) -> TableGeometry {
        self.geo
    }

    /// Rewinds the geometry to a checkpoint (the caller restores the
    /// machine memory the geometry points into).
    pub fn restore_geometry(&mut self, g: TableGeometry) {
        self.geo = g;
    }

    /// One parallel probe step answering membership for `keys` against the
    /// current table.  Tombstoned cells are skipped; only [`EMPTY`]
    /// terminates a walk.
    pub fn lookup<M: Machine>(&self, m: &mut M, keys: &[u64]) -> Vec<bool> {
        let (base, cap) = (self.geo.base, self.geo.cap);
        m.par_map(keys.len(), |i, ctx| {
            let key = keys[i];
            for r in 0..cap as u64 {
                let v = ctx.read(base + probe_cell(key, r, cap));
                if v == EMPTY {
                    return false;
                }
                if v == key + 1 {
                    return true;
                }
            }
            false
        })
    }

    /// Inserts `keys` (distinct, and absent from the table) by rounds of
    /// occupy-mode claims: every still-unplaced key claims the next cell of
    /// its probe sequence; losers and keys probing occupied or tombstoned
    /// cells advance.  Rebuilds (growing and purging tombstones) first if
    /// the load invariant would break.
    pub fn insert_new<M: Machine>(&mut self, m: &mut M, keys: &[u64]) {
        if keys.is_empty() {
            return;
        }
        debug_assert!(
            keys.iter().all(|&k| k + 1 < TOMBSTONE),
            "keys must leave room for the stored tag below TOMBSTONE"
        );
        self.reserve(m, keys.len());
        self.insert_rounds(m, keys);
        self.geo.len += keys.len();
    }

    /// Tombstones `keys` (distinct, and present in the table): one parallel
    /// probe step locates each key's cell, one exclusive-write step marks
    /// it.  Triggers a purge rebuild when tombstones pass a quarter of the
    /// capacity, so delete-heavy churn keeps probe walks short.
    ///
    /// # Panics
    ///
    /// If any key is absent — deletion of a missing key is a caller
    /// contract violation, exactly like duplicate insertion.
    pub fn remove_present<M: Machine>(&mut self, m: &mut M, keys: &[u64]) {
        if keys.is_empty() {
            return;
        }
        let (base, cap) = (self.geo.base, self.geo.cap);
        let cells: Vec<u64> = m.par_map(keys.len(), |i, ctx| {
            let key = keys[i];
            for r in 0..cap as u64 {
                let cell = probe_cell(key, r, cap);
                let v = ctx.read(base + cell);
                if v == EMPTY {
                    break;
                }
                if v == key + 1 {
                    return cell as u64;
                }
            }
            EMPTY
        });
        assert!(
            cells.iter().all(|&c| c != EMPTY),
            "remove_present: a key was absent from the table"
        );
        // Distinct keys occupy distinct cells, so the marking step is
        // exclusive-write (contention 1 per cell).
        m.par_for(keys.len(), |i, ctx| {
            ctx.write(base + cells[i] as usize, TOMBSTONE);
        });
        self.geo.len -= keys.len();
        self.geo.tombstones += keys.len();
        if 4 * self.geo.tombstones > self.geo.cap {
            self.rebuild(m, self.geo.cap);
        }
    }

    /// The live keys in the machine region (unsorted; tombstones excluded).
    pub fn live_keys<M: Machine>(&self, m: &M) -> Vec<u64> {
        m.dump(self.geo.base, self.geo.cap)
            .into_iter()
            .filter(|&v| v != EMPTY && v != TOMBSTONE)
            .map(|v| v - 1)
            .collect()
    }

    fn insert_rounds<M: Machine>(&self, m: &mut M, keys: &[u64]) {
        let (base, cap) = (self.geo.base, self.geo.cap);
        // (key, current probe index) of every still-unplaced key.
        let mut pending: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 0)).collect();
        let mut rounds = 0usize;
        while !pending.is_empty() {
            rounds += 1;
            assert!(
                rounds <= 2 * cap,
                "hash insert failed to place {} keys in {rounds} rounds (cap {cap})",
                pending.len()
            );
            let attempts: Vec<(u64, usize)> = pending
                .iter()
                .map(|&(k, r)| (k + 1, base + probe_cell(k, r, cap)))
                .collect();
            let won = m.claim(&attempts, ClaimMode::Occupy);
            let mut still = Vec::new();
            for (i, &(k, r)) in pending.iter().enumerate() {
                if !won[i] {
                    // Cell occupied (earlier key, a tombstone, or a
                    // same-round rival that won the claim): advance.
                    still.push((k, r + 1));
                }
            }
            pending = still;
        }
    }

    /// Restores the load invariant for `additional` more keys: rebuilds
    /// into a fresh region — doubling while needed, and always purging
    /// every tombstone — whenever live + tombstoned cells would pass half
    /// full.  A rebuild triggered by tombstones alone keeps the same
    /// capacity; the purge is the point.
    fn reserve<M: Machine>(&mut self, m: &mut M, additional: usize) {
        let g = self.geo;
        if 2 * (g.len + g.tombstones + additional) <= g.cap {
            return;
        }
        let mut new_cap = g.cap;
        while 2 * (g.len + additional) > new_cap {
            new_cap *= 2;
        }
        self.rebuild(m, new_cap);
    }

    /// Re-inserts the live keys into an empty region of `new_cap` cells,
    /// dropping every tombstone: the cleared spare when it has that
    /// capacity, a fresh allocation otherwise.  The region left behind
    /// becomes the spare.  (`clear_region` is un-accounted on every
    /// backend, like `alloc`'s own clearing.)
    fn rebuild<M: Machine>(&mut self, m: &mut M, new_cap: usize) {
        let live = self.live_keys(m);
        debug_assert_eq!(live.len(), self.geo.len, "occupancy counter drifted");
        let left = (self.geo.base, self.geo.cap);
        self.geo.base = match self.geo.spare {
            Some((base, cap)) if cap == new_cap => {
                m.clear_region(base, cap);
                base
            }
            _ => m.alloc(new_cap),
        };
        self.geo.cap = new_cap;
        self.geo.tombstones = 0;
        self.geo.spare = Some(left);
        self.insert_rounds(m, &live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;

    fn keys(range: std::ops::Range<u64>) -> Vec<u64> {
        range.map(|k| k.wrapping_mul(0x5DEE_CE66) % 5000).collect()
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut m = Pram::with_seed(16, 1);
        let mut t = OpenTable::new(&mut m, 64);
        let ks = keys(0..20);
        t.insert_new(&mut m, &ks);
        assert_eq!(t.len(), 20);
        assert!(t.lookup(&mut m, &ks).iter().all(|&f| f));
        let dead: Vec<u64> = ks.iter().copied().step_by(2).collect();
        t.remove_present(&mut m, &dead);
        assert_eq!(t.len(), 10);
        let found = t.lookup(&mut m, &ks);
        for (i, &f) in found.iter().enumerate() {
            assert_eq!(f, i % 2 == 1, "key index {i} after deleting evens");
        }
        let mut live = t.live_keys(&m);
        live.sort_unstable();
        let mut expect: Vec<u64> = ks.iter().copied().skip(1).step_by(2).collect();
        expect.sort_unstable();
        assert_eq!(live, expect);
    }

    #[test]
    fn reinsert_after_delete_is_found_again() {
        let mut m = Pram::with_seed(16, 2);
        let mut t = OpenTable::new(&mut m, 64);
        let ks = keys(0..16);
        t.insert_new(&mut m, &ks);
        t.remove_present(&mut m, &ks[..8]);
        t.insert_new(&mut m, &ks[..8]);
        assert_eq!(t.len(), 16);
        assert!(t.lookup(&mut m, &ks).iter().all(|&f| f));
    }

    #[test]
    fn growth_purges_tombstones() {
        let mut m = Pram::with_seed(16, 3);
        let mut t = OpenTable::new(&mut m, 64);
        let ks = keys(0..30);
        t.insert_new(&mut m, &ks);
        t.remove_present(&mut m, &ks[..10]);
        assert!(t.tombstones() > 0);
        // Force the load invariant past half full: the rebuild must both
        // grow and drop every tombstone.
        let more = keys(100..140);
        t.insert_new(&mut m, &more);
        assert_eq!(t.tombstones(), 0, "growth must purge tombstones");
        assert_eq!(t.len(), 60);
        assert!(t.lookup(&mut m, &more).iter().all(|&f| f));
        assert!(t.lookup(&mut m, &ks[10..]).iter().all(|&f| f));
        assert!(t.lookup(&mut m, &ks[..10]).iter().all(|&f| !f));
    }

    #[test]
    fn delete_heavy_churn_purges_without_growth() {
        let mut m = Pram::with_seed(16, 4);
        let mut t = OpenTable::new(&mut m, 64);
        let ks = keys(0..30);
        t.insert_new(&mut m, &ks);
        // Deleting past cap/4 = 16 tombstones must trigger the purge
        // rebuild on the delete path itself, keeping the same capacity.
        t.remove_present(&mut m, &ks[..20]);
        assert_eq!(t.tombstones(), 0, "delete-heavy churn must purge");
        assert_eq!(t.capacity(), 64);
        assert_eq!(t.len(), 10);
        assert!(t.lookup(&mut m, &ks[20..]).iter().all(|&f| f));
    }

    #[test]
    fn growth_keeps_the_outgrown_region_as_spare_then_settles() {
        let mut m = Pram::with_seed(16, 8);
        let mut t = OpenTable::new(&mut m, 64);
        let resident: Vec<u64> = (0..33).collect();
        t.insert_new(&mut m, &resident); // grows 64 → 128
        assert_eq!(t.capacity(), 128);
        assert_eq!(t.geometry().spare.map(|(_, cap)| cap), Some(64));
        // Each round leaves 31 tombstones, so from the second round on the
        // insert path purges at capacity 128.  The first purge cannot use
        // the 64-cell spare; every later one reuses the region its
        // predecessor left.
        let mut tops = Vec::new();
        for round in 0..4u64 {
            let ks: Vec<u64> = (0..31).map(|k| 10_000 + round * 100 + k).collect();
            t.insert_new(&mut m, &ks);
            t.remove_present(&mut m, &ks);
            assert_eq!((t.capacity(), t.tombstones()), (128, 31));
            tops.push(m.heap_top());
        }
        assert!(tops[1] > tops[0], "the first purge allocates");
        assert_eq!(tops[1..], [tops[1]; 3], "heap grew after the first purge");
        assert!(t.lookup(&mut m, &resident).iter().all(|&f| f));
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn removing_an_absent_key_panics() {
        let mut m = Pram::with_seed(16, 5);
        let mut t = OpenTable::new(&mut m, 64);
        t.insert_new(&mut m, &[1, 2, 3]);
        t.remove_present(&mut m, &[99]);
    }

    #[test]
    fn geometry_round_trips() {
        let mut m = Pram::with_seed(16, 6);
        let mut t = OpenTable::new(&mut m, 64);
        t.insert_new(&mut m, &[5, 6, 7]);
        t.remove_present(&mut m, &[5]);
        let g = t.geometry();
        let mut u = OpenTable::new(&mut m, 64);
        u.restore_geometry(g);
        assert_eq!(u.geometry(), g);
        assert_eq!(u.len(), 2);
        assert_eq!(u.tombstones(), 1);
    }
}
