//! Emulating one step of a Fetch&Add PRAM on the CRQW PRAM (Section 7.3).
//!
//! The Fetch&Add PRAM lets any number of processors issue `fetch&add(x, v)`
//! to the same location in one step: the requests are serialised in some
//! order, each returns the value of `x` just before its own addition, and
//! `x` ends up incremented by the total.  Lemma 7.5 reduces emulating such a
//! step to integer sorting; combined with the CRQW integer sort this gives
//! Theorem 7.6.  The implementation follows that reduction: sort the
//! requests by target address, prefix-sum the increments within every
//! address run, let one representative per address perform the single real
//! read-modify-write, and broadcast the old value back along the run.

use qrqw_prims::{
    pack, prefix_sums_exclusive, propagate_nonempty_forward, radix_sort_packed, unpack_key,
    unpack_payload,
};
use qrqw_sim::schedule::ceil_lg;
use qrqw_sim::{Machine, EMPTY};

/// Executes one Fetch&Add step: request `i` atomically adds `requests[i].1`
/// to shared-memory address `requests[i].0` and receives the value that was
/// there just before its own addition (with requests to the same address
/// serialised in an arbitrary order).  Returns the per-request old values.
///
/// Addresses must be below `2^31` and the memory cells involved must hold
/// numeric values (an [`EMPTY`] cell counts as zero, matching an
/// uninitialised counter).
pub fn emulate_fetch_add_step<M: Machine>(m: &mut M, requests: &[(usize, u64)]) -> Vec<u64> {
    let n = requests.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        requests.iter().all(|&(a, _)| a < (1 << 31)),
        "addresses must be < 2^31"
    );
    if let Some(max_addr) = requests.iter().map(|&(a, _)| a).max() {
        m.ensure_memory(max_addr + 1);
    }

    // Sort the requests by address (the integer-sorting reduction).
    let words = m.alloc(n);
    m.par_for(n, |i, ctx| {
        ctx.compute(1);
        ctx.write(words + i, pack(requests[i].0 as u64, i as u64));
    });
    let addr_bits = ceil_lg(requests.iter().map(|&(a, _)| a as u64).max().unwrap_or(1) + 1).max(1);
    radix_sort_packed(m, words, n, addr_bits as usize);
    let sorted: Vec<(usize, usize)> = m
        .dump(words, n)
        .into_iter()
        .map(|w| (unpack_key(w) as usize, unpack_payload(w) as usize))
        .collect();

    // Exclusive prefix sums of the increments in sorted order.
    let incs = m.alloc(n);
    let sorted_ref = &sorted;
    m.par_for(n, |i, ctx| {
        ctx.write(incs + i, requests[sorted_ref[i].1].1);
    });
    prefix_sums_exclusive(m, incs, n);

    // Run boundaries: the first request of every address run remembers the
    // global prefix at the run start and performs the one real
    // read-modify-write of the target cell; both the run-start prefix and
    // the old cell value are then propagated along the run.
    let run_prefix = m.alloc(n);
    let old_vals = m.alloc(n);
    m.par_for(n, |i, ctx| {
        let (addr, _) = sorted_ref[i];
        let is_start = i == 0 || sorted_ref[i - 1].0 != addr;
        if is_start {
            let p = ctx.read(incs + i);
            ctx.write(run_prefix + i, p);
            let old = ctx.read(addr);
            ctx.write(old_vals + i, if old == EMPTY { 0 } else { old });
        }
    });
    propagate_nonempty_forward(m, run_prefix, n);
    propagate_nonempty_forward(m, old_vals, n);

    // Representatives write back old + run_total; every request computes its
    // own return value old + (prefix - run_start_prefix).
    let results: Vec<(usize, u64)> = m.par_map(n, |i, ctx| {
        let (addr, req) = sorted_ref[i];
        let my_prefix = ctx.read(incs + i);
        let start_prefix = ctx.read(run_prefix + i);
        let old = ctx.read(old_vals + i);
        ctx.compute(2);
        let is_last = i + 1 == sorted_ref.len() || sorted_ref[i + 1].0 != addr;
        if is_last {
            let run_total = my_prefix + requests[req].1 - start_prefix;
            ctx.write(addr, old + run_total);
        }
        (req, old + (my_prefix - start_prefix))
    });
    let mut out = vec![0u64; n];
    for (req, val) in results {
        out[req] = val;
    }
    m.release_to(words);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;
    use std::collections::HashMap;

    #[test]
    fn single_address_serialises_all_requests() {
        let mut pram = Pram::new(16);
        pram.poke(3, 100);
        let reqs: Vec<(usize, u64)> = (0..8).map(|i| (3usize, i + 1)).collect();
        let olds = emulate_fetch_add_step(&mut pram, &reqs);
        // the returned old values must be 100 plus a prefix of the increments
        // in *some* serialisation order; collectively they must be distinct
        // and consistent with the final cell value
        let total: u64 = reqs.iter().map(|&(_, v)| v).sum();
        assert_eq!(pram.peek(3), 100 + total);
        let mut sorted_olds = olds.clone();
        sorted_olds.sort_unstable();
        sorted_olds.dedup();
        assert_eq!(sorted_olds.len(), reqs.len(), "old values must be distinct");
        assert!(olds.iter().all(|&v| v >= 100 && v < 100 + total));
    }

    #[test]
    fn disjoint_addresses_behave_like_plain_adds() {
        let mut pram = Pram::new(64);
        let reqs: Vec<(usize, u64)> = (0..20).map(|i| (i, 5)).collect();
        let olds = emulate_fetch_add_step(&mut pram, &reqs);
        assert!(
            olds.iter().all(|&v| v == 0),
            "uninitialised cells read as zero"
        );
        for i in 0..20 {
            assert_eq!(pram.peek(i), 5);
        }
    }

    #[test]
    fn mixed_addresses_match_a_sequential_emulation() {
        let mut pram = Pram::with_seed(64, 3);
        let reqs: Vec<(usize, u64)> = vec![(5, 1), (9, 10), (5, 2), (9, 20), (5, 3), (2, 7)];
        let olds = emulate_fetch_add_step(&mut pram, &reqs);
        // final values equal the sums
        let mut totals: HashMap<usize, u64> = HashMap::new();
        for &(a, v) in &reqs {
            *totals.entry(a).or_default() += v;
        }
        for (&a, &t) in &totals {
            assert_eq!(pram.peek(a), t);
        }
        // per-address old values are exactly the prefix sums of that
        // address's increments in the serialisation order chosen
        for &addr in totals.keys() {
            let mut seen: Vec<(u64, u64)> = reqs
                .iter()
                .enumerate()
                .filter(|&(_, &(a, _))| a == addr)
                .map(|(i, &(_, v))| (olds[i], v))
                .collect();
            seen.sort_unstable();
            let mut acc = 0;
            for (old, v) in seen {
                assert_eq!(old, acc);
                acc += v;
            }
        }
    }

    #[test]
    fn prefix_sums_emulation_use_case() {
        // the paper's motivation: prefix sums in "one" Fetch&Add step
        let mut pram = Pram::new(8);
        let reqs: Vec<(usize, u64)> = (0..32).map(|_| (0usize, 1)).collect();
        let olds = emulate_fetch_add_step(&mut pram, &reqs);
        let mut ranks = olds.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..32).collect::<Vec<u64>>());
        assert_eq!(pram.peek(0), 32);
    }

    #[test]
    fn empty_request_set() {
        let mut pram = Pram::new(4);
        assert!(emulate_fetch_add_step(&mut pram, &[]).is_empty());
    }
}
