//! Quickstart: simulate a QRQW PRAM step, compare cost models, and run one
//! of the paper's algorithms end to end.
//!
//! Run with `cargo run --example quickstart`.

use qrqw_suite::algos::{random_permutation_qrqw, random_permutation_sorting_erew};
use qrqw_suite::sim::{CostModel, Machine, Pram};

fn main() {
    // --- 1. The model: contention is what you pay for. ---------------------
    let n = 1024usize;
    let mut pram = Pram::new(n);

    // An EREW-friendly step: every processor touches its own cell.
    pram.par_for(n, |p, ctx| ctx.write(p, p as u64));
    // A hot-spot step: every processor reads location 0.
    pram.par_for(n, |_p, ctx| {
        let _ = ctx.read(0);
    });

    println!("Two steps, four cost models:");
    for model in [
        CostModel::Erew,
        CostModel::Qrqw,
        CostModel::Crqw,
        CostModel::Crcw,
    ] {
        println!(
            "  {:<6}  time = {:<6} (violations = {})",
            model.to_string(),
            pram.trace().time(model),
            pram.trace().violations(model)
        );
    }
    println!(
        "  -> the QRQW metric charges the hot spot its full contention ({}), the CRCW metric charges 1.\n",
        pram.trace().max_contention()
    );

    // --- 2. An algorithm from the paper: random permutation. ---------------
    let n = 4096usize;
    let mut qrqw = Pram::with_seed(16, 7);
    let out = random_permutation_qrqw(&mut qrqw, n);
    assert!(qrqw_suite::algos::is_permutation(&out.order));

    let mut erew = Pram::with_seed(16, 7);
    let _ = random_permutation_sorting_erew(&mut erew, n);

    println!("Random permutation of {n} items (simulated SIMD-QRQW time):");
    println!(
        "  qrqw dart-throwing   : time {:>6}   work {:>8}   max contention {}",
        qrqw.trace().time(CostModel::SimdQrqw),
        qrqw.trace().work(),
        qrqw.trace().max_contention()
    );
    println!(
        "  erew sorting-based   : time {:>6}   work {:>8}   max contention {}",
        erew.trace().time(CostModel::SimdQrqw),
        erew.trace().work(),
        erew.trace().max_contention()
    );
    println!(
        "  -> low-contention dart throwing beats the bitonic-sort baseline, Table II's effect."
    );
}
