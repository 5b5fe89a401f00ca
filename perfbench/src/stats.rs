//! The few statistics the benchmark reports, all nearest-rank: a reported
//! value is always one of the measured samples, never an interpolation.

/// Nearest-rank quantile of `samples` (`q` in `(0, 1]`): the smallest
/// sample with at least `q·n` samples at or below it.
///
/// NaN for an empty slice (a phase abandoned before its first window
/// completed): `RunResult::push` turns that into a failed operation, so
/// the run still ends with its result line.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The *typical* value of a cell's repetitions (or a phase's windows): the
/// nearest-rank lower decile.  This host's interference is one-sided and
/// episodic — a call is never faster than the quiet machine allows, and is
/// 1.3× slower for 0.2–2 s at a time — so the lower decile stays on the
/// quiet level as long as a tenth of the samples ran undisturbed, where a
/// median flips between two levels.
pub fn typical(samples: &[f64]) -> f64 {
    quantile(samples, 0.1)
}

/// Geometric mean; NaN for an empty slice, like [`quantile`].
pub fn geomean(samples: &[f64]) -> f64 {
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// `count, min / p90 / max` of a sample set, for the human-readable table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub p90: f64,
    pub max: f64,
}

pub fn summary(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    Some(Summary {
        count: samples.len(),
        min: quantile(samples, 1e-9),
        p90: quantile(samples, 0.9),
        max: quantile(samples, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.1), 1.0);
        assert_eq!(quantile(&s, 0.11), 2.0);
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        // 20 repetitions: the lower decile is the second smallest.
        let s: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(typical(&s), 2.0);
    }

    #[test]
    fn typical_ignores_stalled_samples_where_the_median_flips() {
        // A quiet level of 100 with ±1 jitter; an interference episode
        // multiplies a contiguous 60 % of the calls by 1.3.
        let quiet: Vec<f64> = (0..500).map(|i| 100.0 + (i % 3) as f64 - 1.0).collect();
        let mut stalled = quiet.clone();
        for v in &mut stalled[100..400] {
            *v *= 1.3;
        }
        assert!((typical(&stalled) - typical(&quiet)).abs() <= 1.0);
        assert!(median(&stalled) > 1.25 * median(&quiet));
    }

    #[test]
    fn typical_window_survives_stalled_windows() {
        // 24 quarter-second windows, a third of them inside an episode.
        let mut windows = vec![180.0; 24];
        for w in &mut windows[5..13] {
            *w = 260.0;
        }
        assert_eq!(typical(&windows), 180.0);
    }

    #[test]
    fn no_samples_read_nan_instead_of_panicking() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(typical(&[]).is_nan());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn geomean_weighs_every_cell_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Doubling the cheap cell moves it as much as doubling the dear one.
        let a = geomean(&[2.0, 100.0]);
        let b = geomean(&[1.0, 200.0]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn summary_reports_count_and_extremes() {
        let s = summary(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.count, s.min, s.max), (3, 1.0, 3.0));
        assert!(summary(&[]).is_none());
    }
}
