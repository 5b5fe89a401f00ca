//! PRAM cost models.
//!
//! All models share the same *functional* semantics (arbitrary-winner
//! concurrent writes, reads see the state at the beginning of the step);
//! they differ only in how a step is charged and in which steps they
//! consider legal.  This mirrors Section 2 of the paper: the EREW, CREW,
//! QRQW, CRQW and CRCW PRAMs form a hierarchy
//! `EREW ≼ SIMD-QRQW ≼ QRQW ≼ CRQW ≼ CRCW` (Fact 2.1).

use crate::stats::StepStats;

/// The contention rule / cost metric under which a trace is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModel {
    /// Exclusive-read exclusive-write: any step with contention above one is
    /// a *violation*; the step cost is the maximum per-processor operation
    /// count.
    Erew,
    /// Concurrent-read exclusive-write: unlimited read contention, write
    /// contention above one is a violation.
    Crew,
    /// Queue-read queue-write (the paper's model): step cost is
    /// `max(m, κ)` where `κ` is the maximum read or write contention.
    Qrqw,
    /// Concurrent-read queue-write: reads are free of contention charges,
    /// step cost is `max(m, κ_w)` with `κ_w` the maximum write contention.
    Crqw,
    /// Concurrent-read concurrent-write (arbitrary winner): contention is
    /// never charged; step cost is the maximum per-processor operation count.
    Crcw,
    /// SIMD-QRQW: the QRQW metric restricted to steps in which every
    /// processor performs at most one read, one compute and one write
    /// (`m = 1`); suits lock-step SIMD machines such as the MasPar MP-1.
    /// Steps with `m > 1` are flagged as violations but still charged
    /// `max(m, κ)`.
    SimdQrqw,
    /// SIMD-QRQW augmented with a unit-time scan (prefix-sums) primitive,
    /// used in Section 5.2 of the paper to model the MasPar's built-in scan
    /// library routines.
    ScanSimdQrqw,
}

impl CostModel {
    /// All models, in increasing order of power (Fact 2.1, with the two
    /// exclusive models and the scan variant interleaved where natural).
    pub const ALL: [CostModel; 7] = [
        CostModel::Erew,
        CostModel::Crew,
        CostModel::SimdQrqw,
        CostModel::ScanSimdQrqw,
        CostModel::Qrqw,
        CostModel::Crqw,
        CostModel::Crcw,
    ];

    /// Short lower-case name matching the paper's typography (`erew`,
    /// `qrqw`, ...).
    pub fn name(self) -> &'static str {
        match self {
            CostModel::Erew => "erew",
            CostModel::Crew => "crew",
            CostModel::Qrqw => "qrqw",
            CostModel::Crqw => "crqw",
            CostModel::Crcw => "crcw",
            CostModel::SimdQrqw => "simd-qrqw",
            CostModel::ScanSimdQrqw => "scan-simd-qrqw",
        }
    }

    /// The time charged to one step under this model (Definition 2.3 and its
    /// variants).
    pub fn step_time(self, s: &StepStats) -> u64 {
        if s.active_procs == 0 {
            // A step with no operations has maximum contention "one" by the
            // corner-case convention of Definition 2.1, and zero work; we
            // charge nothing so that empty bookkeeping steps are free.
            return 0;
        }
        let m = s.max_ops_per_proc.max(1);
        let kappa_rw = s.max_read_contention.max(s.max_write_contention).max(1);
        let kappa_w = s.max_write_contention.max(1);
        if s.is_scan {
            // A whole-array scan step: unit time on the scan model, a
            // logarithmic-depth binary-tree computation everywhere else.
            return match self {
                CostModel::ScanSimdQrqw => 1,
                _ => (64 - (s.scan_width.max(2) - 1).leading_zeros()) as u64,
            };
        }
        match self {
            CostModel::Erew | CostModel::Crew | CostModel::Crcw => m,
            CostModel::Qrqw | CostModel::SimdQrqw | CostModel::ScanSimdQrqw => m.max(kappa_rw),
            CostModel::Crqw => m.max(kappa_w),
        }
    }

    /// Whether this step violates the model's legality constraints
    /// (contention rules for the exclusive models, the one-op-per-processor
    /// restriction for the SIMD models).
    pub fn step_violates(self, s: &StepStats) -> bool {
        if s.active_procs == 0 || s.is_scan {
            return false;
        }
        match self {
            CostModel::Erew => s.max_read_contention > 1 || s.max_write_contention > 1,
            CostModel::Crew => s.max_write_contention > 1,
            CostModel::SimdQrqw | CostModel::ScanSimdQrqw => s.max_ops_per_proc > 1,
            CostModel::Qrqw | CostModel::Crqw | CostModel::Crcw => false,
        }
    }
}

impl std::fmt::Display for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(reads: u64, writes: u64, m: u64, rk: u64, wk: u64) -> StepStats {
        StepStats {
            active_procs: 4,
            total_reads: reads,
            total_writes: writes,
            total_computes: 0,
            max_ops_per_proc: m,
            max_read_contention: rk,
            max_write_contention: wk,
            is_scan: false,
            scan_width: 0,
        }
    }

    #[test]
    fn qrqw_charges_max_of_ops_and_contention() {
        let s = stats(8, 8, 2, 5, 3);
        assert_eq!(CostModel::Qrqw.step_time(&s), 5);
        assert_eq!(CostModel::Crqw.step_time(&s), 3);
        assert_eq!(CostModel::Crcw.step_time(&s), 2);
        assert_eq!(CostModel::Erew.step_time(&s), 2);
    }

    #[test]
    fn exclusive_models_flag_violations() {
        let s = stats(8, 8, 1, 5, 1);
        assert!(CostModel::Erew.step_violates(&s));
        assert!(!CostModel::Crew.step_violates(&s));
        let s = stats(8, 8, 1, 1, 4);
        assert!(CostModel::Erew.step_violates(&s));
        assert!(CostModel::Crew.step_violates(&s));
        assert!(!CostModel::Qrqw.step_violates(&s));
    }

    #[test]
    fn simd_models_flag_multi_op_processors() {
        let s = stats(8, 8, 3, 1, 1);
        assert!(CostModel::SimdQrqw.step_violates(&s));
        assert!(!CostModel::Qrqw.step_violates(&s));
    }

    #[test]
    fn empty_step_costs_nothing() {
        let s = StepStats {
            active_procs: 0,
            ..stats(0, 0, 0, 0, 0)
        };
        for m in CostModel::ALL {
            assert_eq!(m.step_time(&s), 0);
            assert!(!m.step_violates(&s));
        }
    }

    #[test]
    fn scan_step_is_unit_on_scan_model_and_log_elsewhere() {
        let s = StepStats {
            active_procs: 1024,
            total_reads: 1024,
            total_writes: 1024,
            total_computes: 1024,
            max_ops_per_proc: 1,
            max_read_contention: 1,
            max_write_contention: 1,
            is_scan: true,
            scan_width: 1024,
        };
        assert_eq!(CostModel::ScanSimdQrqw.step_time(&s), 1);
        assert_eq!(CostModel::SimdQrqw.step_time(&s), 10);
        assert_eq!(CostModel::Erew.step_time(&s), 10);
    }

    #[test]
    fn model_names_match_paper() {
        assert_eq!(CostModel::Qrqw.to_string(), "qrqw");
        assert_eq!(CostModel::ScanSimdQrqw.to_string(), "scan-simd-qrqw");
        assert_eq!(CostModel::ALL.len(), 7);
    }
}
