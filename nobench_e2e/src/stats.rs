//! Sample summaries and the result line.

/// Median of `v` (mean of the two middle values for even counts).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p < 1) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples needed before p90 has at least ten samples beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// p90 of `v` (in time order), computed over consecutive blocks of at
/// least `P90_MIN_SAMPLES` samples; the median of the blocks' p90s. A burst
/// of outside load (a noisy neighbour, the host's disk) then moves one
/// block's figure rather than the run's, while a stall that recurs all
/// run long still shows in every block.
pub fn blocked_p90(v: &[f64]) -> f64 {
    let blocks = (v.len() / P90_MIN_SAMPLES).max(1);
    let size = v.len() / blocks;
    let p90s: Vec<f64> = (0..blocks)
        .map(|i| {
            let end = if i + 1 == blocks {
                v.len()
            } else {
                (i + 1) * size
            };
            percentile(&v[i * size..end], 0.9)
        })
        .collect();
    median(&p90s)
}

/// One reported metric with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Median of `v` as `name`.
    pub fn median(&mut self, name: &'static str, unit: &'static str, v: &[f64]) {
        self.push(name, unit, median(v), v.len());
    }

    /// p50 and (blocked) p90 of latency samples `v`, in time order, as
    /// `<class>_p50_ms` and `<class>_p90_ms`.
    pub fn latency(&mut self, p50: &'static str, p90: &'static str, v: &[f64]) {
        assert!(
            v.len() >= P90_MIN_SAMPLES,
            "{p90}: {} samples leave fewer than ten beyond p90",
            v.len()
        );
        self.push(p50, "ms", median(v), v.len());
        self.push(p90, "ms", blocked_p90(v), v.len());
    }

    /// A human-readable table: name, value, unit, sample count.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!(
                "  {:<34} {:>16.6} {:<12} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// The JSON object of all metrics: `{"name": {"value": v, "unit": u}, ...}`.
    pub fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn blocked_p90_ignores_a_burst_in_one_block() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        assert_eq!(blocked_p90(&v), 89.0);
        for x in &mut v[..40] {
            *x = 1000.0;
        }
        assert_eq!(blocked_p90(&v), 89.0);
        assert_eq!(percentile(&v, 0.9), 1000.0);
    }

    #[test]
    fn json_numbers_round_trip() {
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(0.125), "0.125");
        assert_eq!(json_num(1.0 / 3.0), "0.3333333333333333");
    }
}
