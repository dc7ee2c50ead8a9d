//! Typed metric registry: counters, gauges, and log2-bucketed histograms.

use std::collections::BTreeMap;

/// Number of log2 buckets in a [`Histogram`]. Bucket `b` counts samples
/// `v` with `floor(log2(v)) + 1 == b` (bucket 0 counts exact zeros), so
/// the full `u64` range fits.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram over unsigned integer samples.
///
/// Bucketing is exact and platform-independent (pure integer math), so a
/// histogram built from a deterministic sample stream is itself
/// deterministic. Summary statistics (`count`, `sum`, `min`, `max`) are
/// tracked alongside the buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts; see [`HISTOGRAM_BUCKETS`] for the layout.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (saturating).
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Bucket index for a sample value.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Record `n` identical samples at once (bulk import of a
    /// pre-binned distribution).
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = Self::bucket_of(value);
        if let Some(slot) = self.buckets.get_mut(b) {
            *slot += n;
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the log2 bucket holding the nearest-rank
    /// quantile `q` in `[0, 1]`: the tightest value `v` such that at
    /// least a `q` fraction of samples are `<= v`, given only the
    /// bucketed distribution (clamped to the exact recorded `max`).
    /// Returns 0 for an empty histogram. Deterministic, like the
    /// buckets it reads.
    pub fn percentile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                if b == 0 {
                    return 0;
                }
                // Bucket b spans [2^(b-1), 2^b - 1].
                let upper = (1u128 << b) - 1;
                return upper.min(self.max as u128) as u64;
            }
        }
        self.max
    }

    /// Fold another histogram into this one (elementwise bucket add).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The value payload of a metric entry.
///
/// The `Histogram` variant dominates the enum's size (its fixed bucket
/// array), but metrics are stored once per *name* in a registry and
/// never moved in bulk, so indirection would cost more than it saves.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonically accumulated unsigned count.
    Counter(u64),
    /// Point-in-time measurement; last write wins.
    Gauge(f64),
    /// Distribution of integer samples.
    Histogram(Histogram),
}

/// One named metric: a value plus its unit and determinism class.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Unit label, e.g. `"cycles"`, `"bytes"`, `"ratio"`.
    pub unit: &'static str,
    /// Diagnostic metrics depend on runtime scheduling (e.g. per-worker
    /// utilization) and are excluded from the deterministic report
    /// stream; see the crate docs.
    pub diagnostic: bool,
    /// The recorded value.
    pub value: MetricValue,
}

/// A name-ordered registry of [`Metric`]s.
///
/// Iteration order is the `BTreeMap` name order, so rendering a registry
/// is deterministic regardless of insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    entries: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, unit: &'static str, delta: u64) {
        self.counter_entry(name, unit, false, delta);
    }

    /// Diagnostic-class variant of [`Metrics::counter_add`].
    pub fn diagnostic_counter_add(&mut self, name: &str, unit: &'static str, delta: u64) {
        self.counter_entry(name, unit, true, delta);
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.entries.insert(
            name.to_string(),
            Metric { unit, diagnostic: false, value: MetricValue::Gauge(value) },
        );
    }

    /// Diagnostic-class variant of [`Metrics::gauge_set`].
    pub fn diagnostic_gauge_set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.entries.insert(
            name.to_string(),
            Metric { unit, diagnostic: true, value: MetricValue::Gauge(value) },
        );
    }

    /// Record `value` into the histogram `name`, creating it if needed.
    pub fn observe(&mut self, name: &str, unit: &'static str, value: u64) {
        self.observe_n(name, unit, value, 1);
    }

    /// Record `n` identical samples into the histogram `name`.
    pub fn observe_n(&mut self, name: &str, unit: &'static str, value: u64, n: u64) {
        let entry = self.entries.entry(name.to_string()).or_insert_with(|| Metric {
            unit,
            diagnostic: false,
            value: MetricValue::Histogram(Histogram::default()),
        });
        if let MetricValue::Histogram(h) = &mut entry.value {
            h.observe_n(value, n);
        }
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name)
    }

    /// Fold another registry into this one.
    ///
    /// Counters and histograms accumulate; gauges take `other`'s value.
    /// Worker shards record into private registries and the caller merges
    /// them in chunk-index order, which keeps the result independent of
    /// scheduling.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, metric) in other.entries.iter() {
            match self.entries.get_mut(name) {
                None => {
                    self.entries.insert(name.clone(), metric.clone());
                }
                Some(existing) => match (&mut existing.value, &metric.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += *b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (_, _) => *existing = metric.clone(),
                },
            }
        }
    }

    fn counter_entry(&mut self, name: &str, unit: &'static str, diagnostic: bool, delta: u64) {
        let entry = self.entries.entry(name.to_string()).or_insert_with(|| Metric {
            unit,
            diagnostic,
            value: MetricValue::Counter(0),
        });
        if let MetricValue::Counter(c) = &mut entry.value {
            *c += delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_covers_u64() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn percentile_upper_bound_brackets_the_distribution() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile_upper_bound(0.99), 0, "empty histogram");
        for v in 1..=100u64 {
            h.observe(v);
        }
        // Median rank 50 lands in bucket 6 ([32, 63]); p99 rank 99 in
        // bucket 7, clamped to the recorded max of 100.
        assert_eq!(h.percentile_upper_bound(0.5), 63);
        assert_eq!(h.percentile_upper_bound(0.99), 100);
        assert_eq!(h.percentile_upper_bound(0.0), 1);
        // Every quantile bound is sound: at least that fraction of
        // samples really is <= the bound.
        for q in [0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let bound = h.percentile_upper_bound(q);
            let covered = (1..=100u64).filter(|&v| v <= bound).count() as f64 / 100.0;
            assert!(covered + 1e-9 >= q, "q={q} bound={bound} covered={covered}");
        }

        let mut zeros = Histogram::default();
        zeros.observe_n(0, 10);
        assert_eq!(zeros.percentile_upper_bound(0.9), 0);
    }

    #[test]
    fn histogram_tracks_summary_stats() {
        let mut h = Histogram::default();
        for v in [3u64, 0, 9, 9, 1] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 22);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 9);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[4], 2); // the two nines
    }

    #[test]
    fn merge_accumulates_counters_and_histograms() {
        let mut a = Metrics::new();
        a.counter_add("noc.bytes", "bytes", 10);
        a.observe("samples", "samples", 4);
        let mut b = Metrics::new();
        b.counter_add("noc.bytes", "bytes", 5);
        b.observe("samples", "samples", 8);
        b.gauge_set("rate", "ratio", 0.5);
        a.merge(&b);
        assert_eq!(a.get("noc.bytes").map(|m| m.value.clone()), Some(MetricValue::Counter(15)));
        match a.get("samples").map(|m| &m.value) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 12);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(a.get("rate").map(|m| m.value.clone()), Some(MetricValue::Gauge(0.5)));
    }

    #[test]
    fn merge_order_of_disjoint_shards_is_immaterial() {
        let mut s1 = Metrics::new();
        s1.counter_add("a", "n", 1);
        let mut s2 = Metrics::new();
        s2.counter_add("b", "n", 2);
        let mut fwd = Metrics::new();
        fwd.merge(&s1);
        fwd.merge(&s2);
        let mut rev = Metrics::new();
        rev.merge(&s2);
        rev.merge(&s1);
        assert_eq!(fwd, rev);
    }
}
