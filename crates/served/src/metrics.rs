//! Service counters and the `BENCH_serve.json` artifact model.

use engine::json::JsonValue;
use engine::SharedCacheStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two in the latency histogram: a bucket spans
/// at most 1/8 of its lower bound, and values below 16 get a bucket each.
const SUB_BUCKET_BITS: u32 = 3;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Buckets covering every `u64`: exact buckets for `0..SUB_BUCKETS`, then
/// `SUB_BUCKETS` per power of two from `SUB_BUCKETS` up to `2^64`.
const LATENCY_BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS;

/// The histogram bucket holding `value`.
fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let shift = 63 - value.leading_zeros() - SUB_BUCKET_BITS;
    let sub = (value >> shift) as usize - SUB_BUCKETS;
    (shift as usize + 1) * SUB_BUCKETS + sub
}

/// The largest value that falls into `bucket`.
fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket < SUB_BUCKETS {
        return bucket as u64;
    }
    let shift = bucket / SUB_BUCKETS - 1;
    let lower = ((SUB_BUCKETS + bucket % SUB_BUCKETS) as u64) << shift;
    lower.saturating_add((1 << shift) - 1)
}

/// Process-wide service counters. All counters are statistics: they relax
/// ordering and never feed back into results.
#[derive(Debug)]
pub struct Metrics {
    /// Requests submitted to the queue (including ones refused at
    /// admission).
    requests: AtomicU64,
    /// Requests answered with a result row.
    ok: AtomicU64,
    /// Requests answered with a protocol or engine error.
    errors: AtomicU64,
    /// Requests refused because the queue was full or shutting down.
    overloaded: AtomicU64,
    /// Micro-batched engine calls made by workers.
    batches: AtomicU64,
    /// Requests answered through those calls.
    batched_requests: AtomicU64,
    /// Queue-to-answer latencies in microseconds, counted per log bucket
    /// (see [`bucket_of`]): fixed memory however many requests are answered.
    latency_counts: [AtomicU64; LATENCY_BUCKETS],
    /// The largest latency recorded, exactly.
    latency_max: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            requests: AtomicU64::default(),
            ok: AtomicU64::default(),
            errors: AtomicU64::default(),
            overloaded: AtomicU64::default(),
            batches: AtomicU64::default(),
            batched_requests: AtomicU64::default(),
            latency_counts: std::array::from_fn(|_| AtomicU64::default()),
            latency_max: AtomicU64::default(),
        }
    }
}

impl Metrics {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a submitted request.
    pub fn request(&self) {
        // ordering: Relaxed — statistics counter.
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an answered request and its latency.
    pub fn answered(&self, ok: bool, latency_micros: u64) {
        let counter = if ok { &self.ok } else { &self.errors };
        // ordering: Relaxed — statistics counter.
        counter.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — statistics counter.
        self.latency_counts[bucket_of(latency_micros)].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — statistics counter.
        self.latency_max.fetch_max(latency_micros, Ordering::Relaxed);
    }

    /// Counts a request refused as overloaded.
    pub fn overloaded(&self) {
        // ordering: Relaxed — statistics counter.
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one micro-batched engine call answering `requests` requests.
    pub fn batch(&self, requests: u64) {
        // ordering: Relaxed — statistics counter.
        self.batches.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — statistics counter.
        self.batched_requests.fetch_add(requests, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the counters.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        // ordering: Relaxed — statistics counters.
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests: read(&self.requests),
            ok: read(&self.ok),
            errors: read(&self.errors),
            overloaded: read(&self.overloaded),
            batches: read(&self.batches),
            batched_requests: read(&self.batched_requests),
            latency_counts: self.latency_counts.iter().map(read).collect(),
            latency_max: read(&self.latency_max),
        }
    }
}

/// A frozen view of the counters and the latency histogram, ready for
/// percentile queries and artifact rendering.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests submitted.
    pub requests: u64,
    /// Requests answered with a result row.
    pub ok: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests refused as overloaded.
    pub overloaded: u64,
    /// Micro-batched engine calls.
    pub batches: u64,
    /// Requests answered through those calls.
    pub batched_requests: u64,
    /// Queue-to-answer latency counts per log bucket (microseconds).
    pub latency_counts: Vec<u64>,
    /// The largest queue-to-answer latency recorded, in microseconds.
    pub latency_max: u64,
}

impl MetricsSnapshot {
    /// The nearest-rank percentile of the recorded latencies (`p` in
    /// `0..=100`) at bucket resolution: the upper bound of the bucket that
    /// holds the ranked sample, capped at the exact maximum. 0 with no
    /// samples.
    #[must_use]
    pub fn latency_percentile(&self, p: u64) -> u64 {
        let len: u64 = self.latency_counts.iter().sum();
        if len == 0 {
            return 0;
        }
        let rank = (p * len).div_ceil(100).clamp(1, len);
        let mut seen = 0;
        for (bucket, &count) in self.latency_counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper_bound(bucket).min(self.latency_max);
            }
        }
        self.latency_max
    }

    /// Renders the `serve-bench-v1` artifact document.
    #[must_use]
    pub fn to_bench_json(&self, throughput_rps: f64, cache: &SharedCacheStats) -> JsonValue {
        #[allow(clippy::cast_precision_loss)]
        let count = |value: u64| JsonValue::Number(value as f64);
        JsonValue::object(vec![
            ("schema", JsonValue::String("serve-bench-v1".to_owned())),
            ("requests", count(self.requests)),
            ("ok", count(self.ok)),
            ("errors", count(self.errors)),
            ("overloaded", count(self.overloaded)),
            ("throughput_rps", JsonValue::Number(throughput_rps)),
            (
                "latency_micros",
                JsonValue::object(vec![
                    ("p50", count(self.latency_percentile(50))),
                    ("p90", count(self.latency_percentile(90))),
                    ("p99", count(self.latency_percentile(99))),
                    ("max", count(self.latency_max)),
                ]),
            ),
            (
                "cache",
                JsonValue::object(vec![
                    ("systems", count(cache.systems as u64)),
                    ("hits", count(cache.hits)),
                    ("builds", count(cache.builds)),
                ]),
            ),
            ("batches", count(self.batches)),
            ("batched_requests", count(self.batched_requests)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let metrics = Metrics::new();
        for latency in [50, 10, 40, 30, 20] {
            metrics.answered(true, latency);
        }
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.latency_counts.len(), LATENCY_BUCKETS);
        assert_eq!(snapshot.latency_counts.iter().sum::<u64>(), 5);
        assert_eq!(snapshot.latency_max, 50);
        // Buckets: 10 is exact, 30 lies in 30..=31, 50 in 48..=51 (capped
        // at the exact maximum).
        assert_eq!(snapshot.latency_percentile(50), 31);
        assert_eq!(snapshot.latency_percentile(90), 50);
        assert_eq!(snapshot.latency_percentile(99), 50);
        assert_eq!(snapshot.latency_percentile(0), 10);
        assert_eq!(snapshot.latency_percentile(100), 50);
        let empty = MetricsSnapshot { latency_counts: vec![0; LATENCY_BUCKETS], ..snapshot };
        assert_eq!(empty.latency_percentile(50), 0);
    }

    #[test]
    fn buckets_tile_the_u64_range_within_an_eighth() {
        let mut values: Vec<u64> = (0..4096).collect();
        values.extend((12..64).flat_map(|bit| {
            let base = 1u64 << bit;
            [base - 1, base, base + 1, base + base / 3]
        }));
        values.push(u64::MAX);
        for value in values {
            let bucket = bucket_of(value);
            assert!(bucket < LATENCY_BUCKETS, "{value} overflows the histogram");
            let upper = bucket_upper_bound(bucket);
            let lower = if bucket == 0 { 0 } else { bucket_upper_bound(bucket - 1) + 1 };
            assert!(lower <= value && value <= upper, "{value} outside {lower}..={upper}");
            assert!(upper - lower <= lower / 8, "bucket {lower}..={upper} is too wide");
        }
        assert_eq!(bucket_upper_bound(LATENCY_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bench_document_carries_all_counters() {
        let metrics = Metrics::new();
        metrics.request();
        metrics.request();
        metrics.answered(true, 100);
        metrics.answered(false, 200);
        metrics.overloaded();
        metrics.batch(2);
        let snapshot = metrics.snapshot();
        let cache = SharedCacheStats { systems: 1, hits: 5, builds: 1 };
        let json = snapshot.to_bench_json(123.5, &cache).render().unwrap();
        assert!(json.contains("\"schema\":\"serve-bench-v1\""));
        assert!(json.contains("\"requests\":2"));
        assert!(json.contains("\"ok\":1"));
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\"overloaded\":1"));
        assert!(json.contains("\"throughput_rps\":123.5"));
        assert!(json.contains("\"builds\":1"));
        assert!(json.contains("\"batched_requests\":2"));
    }
}
