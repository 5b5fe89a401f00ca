//! The shared memory of the simulated PRAM.
//!
//! Memory is a flat array of `u64` cells, private to [`crate::Pram`]: the
//! host loads and reads it through [`crate::Machine::load`],
//! [`crate::Machine::dump`], [`crate::Machine::peek`] and
//! [`crate::Machine::poke`], and processors reach it only inside a step.  The PRAM algorithms in this
//! repository follow the standard convention that a cell holds `O(lg n)`
//! bits, so a `u64` cell is always wide enough for the problem sizes we
//! simulate; where an algorithm needs to store a small tuple (e.g. an index
//! plus a flag) it packs the fields into one word, exactly as one would on a
//! real machine.

/// Sentinel value denoting an *empty* (never written / cleared) cell.
///
/// The paper's algorithms frequently test whether a cell has been claimed by
/// any processor; `EMPTY` plays the role of the conventional "null" value.
pub const EMPTY: u64 = u64::MAX;

/// A flat, word-addressed shared memory.
///
/// The memory itself carries no synchronisation: reads and writes are issued
/// by a step's processors, and the contention they induce is accounted for
/// by the step machinery ([`crate::step`]).
#[derive(Debug, Clone)]
pub(crate) struct SharedMemory {
    cells: Vec<u64>,
}

impl SharedMemory {
    /// Creates a memory with `size` cells, all initialised to [`EMPTY`].
    pub fn new(size: usize) -> Self {
        SharedMemory {
            cells: vec![EMPTY; size],
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Grows the memory to at least `size` cells (new cells are [`EMPTY`]).
    ///
    /// Several of the paper's algorithms allocate auxiliary arrays whose size
    /// depends on run-time quantities (e.g. the `Θ(n·2^√lg n)` dart-throwing
    /// array of Theorem 5.2); the driver uses this to extend the address
    /// space.  Growing never moves existing contents.
    pub fn ensure(&mut self, size: usize) {
        if self.cells.len() < size {
            self.cells.resize(size, EMPTY);
        }
    }

    /// Direct (un-accounted) read, for inspection by the test/bench harness.
    ///
    /// This does **not** go through the contention accounting and must not be
    /// used from inside an algorithm step.
    pub fn peek(&self, addr: usize) -> u64 {
        self.cells[addr]
    }

    /// Direct (un-accounted) write, for initialising inputs from the host.
    pub fn poke(&mut self, addr: usize, value: u64) {
        self.cells[addr] = value;
    }

    /// Copies a slice of host data into memory starting at `base`.
    pub fn load(&mut self, base: usize, values: &[u64]) {
        self.ensure(base + values.len());
        self.cells[base..base + values.len()].copy_from_slice(values);
    }

    /// Reads `len` cells starting at `base` into a host vector.
    pub fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        self.cells[base..base + len].to_vec()
    }

    /// Resets a region to [`EMPTY`] without accounting (host-side helper for
    /// reusing scratch space between independent phases of a harness).
    pub fn clear_region(&mut self, base: usize, len: usize) {
        self.ensure(base + len);
        self.cells[base..base + len].fill(EMPTY);
    }

    /// Immutable view of the whole memory (the read-substep snapshot, and
    /// the built-in global OR).
    pub(crate) fn as_slice(&self) -> &[u64] {
        &self.cells
    }

    /// Mutable view of the whole memory (the step accounting writes each
    /// address range's winning writes straight into it; the built-in scan
    /// rewrites its region in place).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_memory_is_empty_sentinel() {
        let m = SharedMemory::new(16);
        assert_eq!(m.len(), 16);
        assert!((0..16).all(|i| m.peek(i) == EMPTY));
    }

    #[test]
    fn load_within_the_memory_keeps_its_size() {
        let mut m = SharedMemory::new(8);
        m.load(0, &[7; 8]);
        assert_eq!(m.len(), 8);
        assert!((0..8).all(|i| m.peek(i) == 7));
    }

    #[test]
    fn load_and_dump_round_trip() {
        let mut m = SharedMemory::new(4);
        m.load(2, &[10, 11, 12]);
        assert_eq!(m.len(), 5);
        assert_eq!(m.dump(2, 3), vec![10, 11, 12]);
        assert_eq!(m.peek(0), EMPTY);
    }

    #[test]
    fn ensure_grows_without_clobbering() {
        let mut m = SharedMemory::new(2);
        m.poke(1, 42);
        m.ensure(10);
        assert_eq!(m.len(), 10);
        assert_eq!(m.peek(1), 42);
        assert_eq!(m.peek(9), EMPTY);
        // ensure with a smaller size is a no-op
        m.ensure(3);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn clear_region_resets_to_empty() {
        let mut m = SharedMemory::new(6);
        m.load(0, &[1; 6]);
        m.clear_region(2, 3);
        assert_eq!(m.dump(0, 6), vec![1, 1, EMPTY, EMPTY, EMPTY, 1]);
    }
}
