//! Load balancing (Section 3): balance a skewed task distribution with the
//! QRQW dispersal algorithm and with the EREW prefix-sums baseline, sweeping
//! the maximum initial load L to exhibit the Ω(lg L) dependence the paper
//! proves (Theorem 3.2).
//!
//! Run with `cargo run --release --example load_balancing`.

use qrqw_suite::algos::{load_balance_erew, load_balance_qrqw};
use qrqw_suite::sim::{CostModel, Machine, Pram};

fn main() {
    let n = 4096usize;
    println!("Load balancing {n} processors (total tasks ~ n), sweeping the max initial load L\n");
    println!(
        "{:<8} {:>16} {:>16} {:>14} {:>14}",
        "L", "qrqw time", "erew time", "qrqw max load", "erew max load"
    );

    for &l in &[2u64, 8, 32, 128, 512, 2048] {
        let mut loads = vec![0u64; n];
        let heavy = (n as u64 / l).max(1) as usize;
        for item in loads.iter_mut().take(heavy) {
            *item = l;
        }

        let mut a = Pram::with_seed(16, 1);
        let qrqw = load_balance_qrqw(&mut a, &loads);
        assert!(qrqw.covers_exactly(&loads));

        let mut b = Pram::with_seed(16, 1);
        let erew = load_balance_erew(&mut b, &loads);
        assert!(erew.covers_exactly(&loads));

        println!(
            "{:<8} {:>16} {:>16} {:>14} {:>14}",
            l,
            a.trace().time(CostModel::Qrqw),
            b.trace().time(CostModel::Qrqw),
            qrqw.max_final_load,
            erew.max_final_load
        );
    }

    println!("\nThe qrqw column grows with L (the paper's Ω(lg L) lower bound is about");
    println!("exactly this dependence), while the prefix-sums baseline is flat in L but");
    println!("pays its Θ(lg n) on every input, however mild the imbalance.");
}
