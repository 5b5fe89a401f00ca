//! What a run hands back and how it is printed: `#` lines for people,
//! then the driver's result object as the last line.

use crate::spec::MetricSpec;
use crate::stats::{summary, Summary};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// The samples the value was taken from, when there are any.
    pub samples: Option<Summary>,
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form `#` lines (what failed, the trace table, …).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.push_sampled(name, value, &[]);
    }

    /// A value that is not a finite number (no samples, a zero
    /// denominator) reads 0 and is one failed operation: the result line
    /// stays JSON and the run exits non-zero.
    pub fn push_sampled(&mut self, name: impl Into<String>, value: f64, samples: &[f64]) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            self.fail(1, format!("{name} is {value}, not a finite number"));
            0.0
        };
        self.metrics.push(Metric {
            name,
            value,
            samples: summary(samples),
        });
    }

    pub fn extend(&mut self, pairs: Vec<(String, f64)>) {
        for (name, value) in pairs {
            self.push(name, value);
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records `ops` failed operations with the reason.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.notes
            .push(format!("FAILED ({ops} ops): {}", why.into()));
    }

    fn value_of(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// JSON number with every digit (Rust's shortest round-trip form);
/// `push_sampled` has made every metric value finite.
fn number(v: f64) -> String {
    format!("{v:?}")
}

/// Prints the table and the result line.  `specs` fixes which metrics the
/// line carries and in which order; a per-layer metric the workload never
/// enters reads 0.  Returns whether the run is clean (`failed == 0`).
pub fn print(workload: &str, result: &RunResult, specs: &[MetricSpec]) -> bool {
    for note in &result.notes {
        println!("# {note}");
    }
    let mut fields = Vec::new();
    for spec in specs {
        let metric = result.value_of(&spec.name);
        assert!(
            metric.is_some() || spec.bound.is_none(),
            "end-to-end metric {} was not measured",
            spec.name
        );
        let value = metric.map_or(0.0, |m| m.value);
        let samples = metric.and_then(|m| m.samples).map_or(String::new(), |s| {
            format!(
                "  # {} samples, min/p90/max {}/{}/{}",
                s.count,
                number(s.min),
                number(s.p90),
                number(s.max)
            )
        });
        println!(
            "# {workload} {} {} {}{samples}",
            spec.name,
            number(value),
            spec.unit
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            spec.name,
            number(value),
            spec.unit
        ));
    }
    let correct = result.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        fields.join(", ")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_finite_value_reads_zero_and_fails_the_run() {
        let mut r = RunResult::default();
        r.push("ratio", 1.0 / 0.0);
        r.push_sampled("lat_us", crate::stats::typical(&[]), &[]);
        r.push("fine", 2.5);
        assert_eq!(r.failed, 2);
        let values: Vec<f64> = r.metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, [0.0, 0.0, 2.5]);
    }

    #[test]
    fn numbers_keep_every_digit_and_stay_json() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(1e-7), "1e-7");
    }
}
