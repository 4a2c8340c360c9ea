//! Order statistics and the metric records a run reports.

use std::time::Duration;

/// A set of samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Adds a duration, in seconds.
    pub fn push_s(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// First quartile, median and third quartile, as Python's
    /// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
    /// method), so that the spread of a metric over runs reads the same
    /// here and wherever the benchmark's stability is judged. All three
    /// are the one value when there are fewer than two samples, 0 when
    /// there are none.
    pub fn quartiles(&self) -> (f64, f64, f64) {
        let d = self.sorted();
        let n = d.len();
        if n < 2 {
            let x = d.first().copied().unwrap_or(0.0);
            return (x, x, x);
        }
        let m = n + 1;
        let q = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
        };
        (q(1), q(2), q(3))
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quartiles().1
    }

    /// The nearest-rank `p`-th percentile (`p` in 0..=100): the value at
    /// least `p`% of the samples do not exceed.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, fixed by `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
    /// First and third quartile of the samples, when there are several.
    pub quartiles: Option<(f64, f64)>,
    /// Whether the metric is in `BENCHMARK.json` (and so in the result
    /// line); an ungated metric is only printed and saved.
    pub gated: bool,
}

impl Metric {
    /// A single value: a count, a ratio or one measurement.
    pub fn one(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: 1,
            quartiles: None,
            gated: true,
        }
    }

    /// The median of `s`, scaled by `scale` (e.g. 1e3 for s → ms).
    pub fn median(name: &str, unit: &'static str, s: &Samples, scale: f64) -> Metric {
        let (q1, median, q3) = s.quartiles();
        Metric {
            name: name.to_string(),
            unit,
            value: median * scale,
            samples: s.len(),
            quartiles: Some((q1 * scale, q3 * scale)),
            gated: true,
        }
    }

    /// The metric, printed and saved but left out of the result line.
    pub fn ungated(mut self) -> Metric {
        self.gated = false;
        self
    }

    /// The value with `samples` recorded beside it.
    pub fn with_samples(mut self, samples: usize) -> Metric {
        self.samples = samples;
        self
    }
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], in MiB (`VmHWM`); `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the `VmHWM` peak to the current resident size.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Samples((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(Samples(vec![4.0, 1.0, 2.0]).quartiles(), (1.0, 2.0, 4.0));
        assert_eq!(Samples(vec![4.0, 1.0, 3.0, 2.0]).median(), 2.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let s = Samples((1..=1000).map(f64::from).collect());
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.percentile(50.0), 500.0);
        assert_eq!(Samples(vec![3.0]).percentile(99.0), 3.0);
    }
}
