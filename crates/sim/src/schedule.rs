//! Machine-emulation cost and the integer logarithms of the paper's bounds.
//!
//! What is left of the *analytic* side of the paper's scheduling results is
//! what the tree calls: the BSP emulation charge of Theorem 1.1
//! ([`bsp_emulation_time`], the "predicted" column next to `qrqw-bsp`'s
//! measured cost) and the `lg`, `√lg`, `lg lg` and `lg*` terms the
//! algorithms size their teams, arenas and round caps with.  Brent's
//! principle (Theorem 2.3) is [`crate::Trace::brent_time`]; the *operational*
//! load-balancing algorithm behind Theorems 2.4 / 3.6 lives in
//! `qrqw-core::load_balancing`.

/// Emulation time of a `p`-processor QRQW PRAM algorithm running in time `t`
/// on a `(p / lg p)`-component standard BSP (Theorem 1.1): `O(t · lg p)`.
pub fn bsp_emulation_time(t: u64, p: u64) -> u64 {
    assert!(p > 1, "need at least two processors for the BSP emulation");
    let lg_p = (64 - (p - 1).leading_zeros()) as u64;
    t * lg_p.max(1)
}

/// `⌈lg x⌉` for `x ≥ 1` (0 for `x ≤ 1`), the integer log used throughout.
pub fn ceil_lg(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        (64 - (x - 1).leading_zeros()) as u64
    }
}

/// `⌊√(lg n)⌋·`-style term used in the paper's bounds: returns
/// `⌈√(ceil_lg(n))⌉`, the `√lg n` factor coming from linear compaction.
pub fn sqrt_lg(n: u64) -> u64 {
    (ceil_lg(n) as f64).sqrt().ceil() as u64
}

/// `⌈lg lg x⌉` (0 for `x ≤ 2`).
pub fn lg_lg(x: u64) -> u64 {
    ceil_lg(ceil_lg(x).max(1))
}

/// The iterated logarithm `lg* x`.
pub fn log_star(mut x: u64) -> u64 {
    let mut i = 0;
    while x > 2 {
        x = ceil_lg(x);
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_is_t_log_p() {
        assert_eq!(bsp_emulation_time(5, 1024), 50);
        assert_eq!(bsp_emulation_time(1, 2), 1);
    }

    #[test]
    fn integer_log_helpers() {
        assert_eq!(ceil_lg(1), 0);
        assert_eq!(ceil_lg(2), 1);
        assert_eq!(ceil_lg(3), 2);
        assert_eq!(ceil_lg(1024), 10);
        assert_eq!(ceil_lg(1025), 11);
        assert_eq!(sqrt_lg(1 << 16), 4);
        assert_eq!(lg_lg(1 << 16), 4);
        assert_eq!(log_star(2), 0);
        assert_eq!(log_star(16), 2);
        assert_eq!(log_star(65536), 3);
        assert_eq!(log_star(u64::MAX), 4);
    }
}
