//! Metric values: counters, gauges and power-of-two-bucket histograms,
//! and the key-sorted [`MetricsSnapshot`] that carries them.
//!
//! Nothing here stores a running total. The fabric renders a snapshot
//! from its components when its report is built, under **stable metric
//! keys** (see README §Observability for the key table). The only metric
//! state it keeps as the cycles pass is the per-cycle samples, the
//! occupancy histograms and the admission-stall counts, which its sampler
//! takes in O(1) for any number of identical cycles
//! ([`Histogram::observe_n`]); a fabric snapshot saves those samples and
//! no rendered metric. Entries are sorted by key, which makes every
//! rendering of the same run byte-identical.

use apir_util::snap::{self, Snap};
use apir_util::Json;

/// Histogram over `u64` observations with fixed power-of-two buckets:
/// bucket 0 counts observations equal to 0, bucket `k` (k ≥ 1) counts
/// observations in `[2^(k-1), 2^k)`. 65 buckets cover the whole `u64`
/// range, so observation never saturates or re-buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    saturated: bool,
}

/// Number of power-of-two buckets (value 0 plus one per bit of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 65;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            saturated: false,
        }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (`2^k - 1`; bucket 0 ⇒ 0).
    pub fn bucket_bound(k: usize) -> u64 {
        if k == 0 {
            0
        } else if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `n` identical observations in O(1).
    ///
    /// Exactly equivalent to calling [`Histogram::observe`] `n` times:
    /// the sum saturates at `u64::MAX` either way, and both paths set
    /// [`Histogram::saturated`] when the true sum no longer fits. Used by
    /// the event-wheel scheduler to replay per-cycle observations for a
    /// skipped quiescent stretch.
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        match v.checked_mul(n).and_then(|vn| self.sum.checked_add(vn)) {
            Some(s) => self.sum = s,
            None => {
                self.sum = u64::MAX;
                self.saturated = true;
            }
        }
        self.max = self.max.max(v);
    }

    /// Total observations (always equals the sum of all buckets).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating; see [`Histogram::saturated`]).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True once the sum has clamped at `u64::MAX`: [`Histogram::sum`]
    /// and [`Histogram::mean`] are lower bounds from that point on, and
    /// renderers should say so instead of printing a plausible-looking
    /// wrong number.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (Self::bucket_bound(k), n))
    }
}

/// One metric's value in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Instantaneous gauge.
    Gauge(f64),
    /// Histogram (cloned).
    Histogram(Histogram),
}

/// A point-in-time copy of every metric, sorted by key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// All `(key, value)` entries, sorted by key.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Looks up one metric by key (binary search — entries are sorted).
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by key, if present and a counter.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by key, if present and a gauge.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by key, if present and a histogram.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        match self.get(key)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// Collects entries in any order and sorts them by key.
///
/// # Panics
///
/// Panics if two entries share a key (keys are an API).
impl FromIterator<(String, MetricValue)> for MetricsSnapshot {
    fn from_iter<I: IntoIterator<Item = (String, MetricValue)>>(iter: I) -> Self {
        let mut entries: Vec<_> = iter.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("metric key `{}` rendered twice", w[0].0);
        }
        MetricsSnapshot { entries }
    }
}

/// A histogram saves as `[buckets, count, sum, max, saturated]`, its
/// trailing empty buckets trimmed.
impl Snap for Histogram {
    fn save(&self) -> Json {
        let used = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |k| k + 1);
        Json::Arr(vec![
            self.buckets[..used].save(),
            self.count.save(),
            self.sum.save(),
            self.max.save(),
            self.saturated.save(),
        ])
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        let p = snap::items_n(j, 5)?;
        let mut buckets: Vec<u64> = Vec::new();
        snap::load_at(&mut buckets, p, 0)?;
        if buckets.len() > HISTOGRAM_BUCKETS {
            return Err(format!(
                "[0]: {} buckets, at most {HISTOGRAM_BUCKETS}",
                buckets.len()
            ));
        }
        buckets.resize(HISTOGRAM_BUCKETS, 0);
        self.buckets = buckets;
        snap::load_at(&mut self.count, p, 1)?;
        snap::load_at(&mut self.sum, p, 2)?;
        snap::load_at(&mut self.max, p, 3)?;
        snap::load_at(&mut self.saturated, p, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(entries: Vec<(&str, MetricValue)>) -> MetricsSnapshot {
        let entries = entries.into_iter();
        entries.map(|(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn collected_entries_sort_by_key() {
        let snap = snapshot(vec![
            ("z.count", MetricValue::Counter(5)),
            ("a.gauge", MetricValue::Gauge(1.5)),
            ("m.hist", MetricValue::Histogram(Histogram::new())),
        ]);
        assert_eq!(snap.counter("z.count"), Some(5));
        assert_eq!(snap.gauge("a.gauge"), Some(1.5));
        assert_eq!(snap.histogram("m.hist").unwrap().count(), 0);
        assert_eq!(snap.counter("a.gauge"), None, "kinds are typed");
        let keys: Vec<&str> = snap.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a.gauge", "m.hist", "z.count"]);
    }

    #[test]
    #[should_panic(expected = "rendered twice")]
    fn duplicate_keys_panic() {
        snapshot(vec![
            ("dup", MetricValue::Counter(0)),
            ("dup", MetricValue::Gauge(0.0)),
        ]);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(2), 3);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_totals_match_observations() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.nonzero_buckets().map(|(_, n)| n).sum::<u64>(), 7);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.mean() > 0.0);
        let empty = Histogram::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.nonzero_buckets().count(), 0);
    }

    #[test]
    fn observe_n_equals_n_sequential_observes() {
        let mut bulk = Histogram::new();
        let mut seq = Histogram::new();
        for (v, n) in [(0u64, 3u64), (7, 1), (7, 10), (1 << 40, 5), (u64::MAX, 2)] {
            bulk.observe_n(v, n);
            for _ in 0..n {
                seq.observe(v);
            }
        }
        assert_eq!(bulk, seq);
        assert!(bulk.saturated(), "u64::MAX twice must clamp the sum");
        // n == 0 is a no-op.
        let before = bulk.clone();
        bulk.observe_n(123, 0);
        assert_eq!(bulk, before);
    }

    #[test]
    fn saturation_is_sticky_and_flagged() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        assert!(!h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        h.observe(1);
        assert!(h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        h.observe(0);
        assert!(h.saturated(), "saturation never clears");
        let snap = snapshot(vec![("sat", MetricValue::Histogram(h))]);
        let snap_h = snap.histogram("sat").unwrap();
        assert!(snap_h.saturated(), "flag survives the snapshot");
    }

    #[test]
    fn empty_histogram_snapshot_has_finite_mean() {
        // Never observed: the count == 0 path must yield 0.0, never NaN
        // (NaN is not valid JSON and would poison the deterministic
        // report rendering downstream).
        let snap = snapshot(vec![(
            "never.observed",
            MetricValue::Histogram(Histogram::new()),
        )]);
        let h = snap.histogram("never.observed").unwrap();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.mean().is_finite());
        assert!(!h.saturated());
    }
}
