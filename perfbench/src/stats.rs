//! Order statistics for the benchmark's reports.
//!
//! Every timing is reported as a median plus the highest percentile the
//! sample supports: a percentile counts only when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a p99 needs 1000 samples and a
//! p95 needs 200. Percentiles use the nearest-rank definition, which always
//! returns a value that was actually measured.

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples: `ceil(p / 100 * n)`, clamped to `1..=n`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    // Integer arithmetic in hundredths of a percent keeps ranks exact
    // (p99 of 1000 samples is rank 990, not 991 after float rounding).
    let hundredths = (p * 100.0).round() as u128;
    let rank = (hundredths * n as u128).div_ceil(10_000) as usize;
    rank.clamp(1, n.max(1))
}

/// Whether `n` samples support percentile `p`: at least [`MIN_BEYOND`]
/// samples lie beyond its nearest rank.
pub fn supports(p: f64, n: usize) -> bool {
    n > 0 && n - nearest_rank(p, n) >= MIN_BEYOND
}

/// A sorted sample, queried by nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank percentile `p`, or `None` for an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[nearest_rank(p, self.sorted.len()) - 1])
    }

    /// The nearest-rank percentile `p`, or an error naming `what` when the
    /// sample is too small to support it.
    pub fn supported(&self, p: f64, what: &str) -> Result<f64, String> {
        if !supports(p, self.len()) {
            return Err(format!(
                "{what}: {} samples cannot support p{p} (needs {MIN_BEYOND} beyond it)",
                self.len()
            ));
        }
        self.percentile(p).ok_or_else(|| format!("{what}: no samples"))
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// The median of a small set of repeated measurements (set-up times).
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median().unwrap_or(f64::NAN)
}

/// Buckets `(time, value)` events into consecutive windows of `width`
/// starting at 0; events at or past the last whole window before `end` are
/// dropped, so every window covers the same length of time.
pub fn windows(events: impl Iterator<Item = (u64, f64)>, width: u64, end: u64) -> Vec<Vec<f64>> {
    let count = (end / width.max(1)) as usize;
    let mut buckets = vec![Vec::new(); count];
    for (time, value) in events {
        if let Some(bucket) = buckets.get_mut((time / width.max(1)) as usize) {
            bucket.push(value);
        }
    }
    buckets
}

/// The median over windows of a per-window statistic: the value of a
/// typical window, robust to a slow second on a shared machine. Windows
/// whose sample cannot support the statistic are skipped.
pub fn median_over(windows: &[Vec<f64>], stat: impl Fn(&Sample) -> Option<f64>) -> Option<f64> {
    let per_window: Vec<f64> =
        windows.iter().filter_map(|w| stat(&Sample::new(w.clone()))).collect();
    Sample::new(per_window).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(50.0, 1), 1);
        assert_eq!(nearest_rank(50.0, 2), 1);
        assert_eq!(nearest_rank(50.0, 3), 2);
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(99.0, 1001), 991);
        assert_eq!(nearest_rank(95.0, 200), 190);
        assert_eq!(nearest_rank(100.0, 7), 7);
        assert_eq!(nearest_rank(0.1, 7), 1);
    }

    #[test]
    fn percentiles_are_measured_values() {
        let sample = Sample::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(sample.median(), Some(50.0));
        assert_eq!(sample.percentile(90.0), Some(90.0));
        assert_eq!(sample.percentile(99.0), Some(99.0));
        assert_eq!(sample.percentile(99.5), Some(100.0));
        assert_eq!(Sample::new(vec![]).median(), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(99.0, 999));
        assert!(supports(99.0, 1000));
        assert!(!supports(95.0, 199));
        assert!(supports(95.0, 200));
        assert!(supports(50.0, 20));
        assert!(!supports(50.0, 19));
        assert!(!supports(50.0, 0));

        let small = Sample::new((0..999).map(f64::from).collect());
        assert!(small.supported(99.0, "x").is_err());
        let enough = Sample::new((0..1000).map(f64::from).collect());
        assert_eq!(enough.supported(99.0, "x"), Ok(989.0));
    }

    #[test]
    fn windows_cover_whole_intervals_only() {
        let events = (0..25u64).map(|t| (t, t as f64));
        let buckets = windows(events, 10, 25);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (0..10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(buckets[1].len(), 10);
        let p99 = median_over(&buckets, |s| s.supported(99.0, "w").ok());
        assert_eq!(p99, None, "ten samples per window cannot support a p99");
        assert_eq!(median_over(&buckets, Sample::median), Some(4.0));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
