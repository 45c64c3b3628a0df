//! A zero-dependency metrics registry: named counters, gauges, and
//! power-of-two-bucket histograms.
//!
//! The fabric keeps one [`MetricsRegistry`] behind **stable metric keys**
//! (see README §Observability for the key table). Its components do not
//! report into it: they keep plain running totals and gauges, and the
//! fabric reads them into the registry only when the registry is read (a
//! pause, a checkpoint, the report). Only per-cycle samples, the
//! occupancy histograms and the admission-stall counts, are recorded as
//! the cycles pass, by one fabric sampler in O(1) for any number of
//! identical cycles ([`MetricsRegistry::observe_n`]). Registration returns typed
//! handles ([`CounterId`], [`GaugeId`], [`HistogramId`]) so an update is
//! a plain `Vec` index store, never a map lookup. Snapshots iterate keys
//! in sorted order, which makes every rendering of the same run
//! byte-identical.

use apir_util::snap::{self, Snap};
use apir_util::Json;
use std::collections::BTreeMap;

/// Handle to a registered counter (monotone `u64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (instantaneous `f64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

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

enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
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

/// The registry: `register_*` once (cold path), update through the typed
/// handle (hot path), snapshot at the end of the run.
#[derive(Default)]
pub struct MetricsRegistry {
    index: BTreeMap<String, usize>,
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, key: &str, m: Metric) -> usize {
        assert!(
            !self.index.contains_key(key),
            "metric key `{key}` registered twice"
        );
        let id = self.metrics.len();
        self.index.insert(key.to_string(), id);
        self.metrics.push(m);
        id
    }

    /// Registers a counter under a stable key.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered (keys are an API).
    pub fn counter(&mut self, key: &str) -> CounterId {
        CounterId(self.register(key, Metric::Counter(0)))
    }

    /// Registers a gauge under a stable key.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key.
    pub fn gauge(&mut self, key: &str) -> GaugeId {
        GaugeId(self.register(key, Metric::Gauge(0.0)))
    }

    /// Registers a histogram under a stable key.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key.
    pub fn histogram(&mut self, key: &str) -> HistogramId {
        HistogramId(self.register(key, Metric::Histogram(Histogram::new())))
    }

    /// Increments a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        match &mut self.metrics[id.0] {
            Metric::Counter(v) => *v += by,
            _ => unreachable!("typed handle"),
        }
    }

    /// Sets a counter to an absolute value (for components that keep
    /// their own running totals and sync them into the registry).
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        match &mut self.metrics[id.0] {
            Metric::Counter(v) => *v = value,
            _ => unreachable!("typed handle"),
        }
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        match &mut self.metrics[id.0] {
            Metric::Gauge(v) => *v = value,
            _ => unreachable!("typed handle"),
        }
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        match &mut self.metrics[id.0] {
            Metric::Histogram(h) => h.observe(value),
            _ => unreachable!("typed handle"),
        }
    }

    /// Records `n` identical histogram observations in O(1) (see
    /// [`Histogram::observe_n`]).
    pub fn observe_n(&mut self, id: HistogramId, value: u64, n: u64) {
        match &mut self.metrics[id.0] {
            Metric::Histogram(h) => h.observe_n(value, n),
            _ => unreachable!("typed handle"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Immutable snapshot, keys in sorted (byte) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .index
                .iter()
                .map(|(k, &i)| {
                    let v = match &self.metrics[i] {
                        Metric::Counter(v) => MetricValue::Counter(*v),
                        Metric::Gauge(v) => MetricValue::Gauge(*v),
                        Metric::Histogram(h) => MetricValue::Histogram(h.clone()),
                    };
                    (k.clone(), v)
                })
                .collect(),
        }
    }
}

/// The registry snapshots as one entry per metric, in key order: a
/// counter is `[key, 0, value]`, a gauge `[key, 1, bits]` and a histogram
/// `[key, 2, buckets, count, sum, max, saturated]` with trailing empty
/// buckets trimmed. Keys and kinds are structure, rebuilt by
/// registration, so a load must list exactly the registered metrics.
impl Snap for MetricsRegistry {
    fn save(&self) -> Json {
        let entry = |key: &String, m: &Metric| {
            let mut e = vec![Json::str(key.as_str())];
            match m {
                Metric::Counter(v) => e.extend([Json::U64(0), v.save()]),
                Metric::Gauge(g) => e.extend([Json::U64(1), g.save()]),
                Metric::Histogram(h) => {
                    let used = h.buckets.iter().rposition(|&n| n > 0).map_or(0, |k| k + 1);
                    e.extend([
                        Json::U64(2),
                        h.buckets[..used].save(),
                        h.count.save(),
                        h.sum.save(),
                        h.max.save(),
                        h.saturated.save(),
                    ]);
                }
            }
            Json::Arr(e)
        };
        Json::Arr(
            self.index
                .iter()
                .map(|(k, &i)| entry(k, &self.metrics[i]))
                .collect(),
        )
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        let a = snap::items_n(j, self.metrics.len())?;
        for (n, ((key, &i), e)) in self.index.iter().zip(a).enumerate() {
            load_metric(&mut self.metrics[i], key, e)
                .map_err(|e| snap::nest(format_args!("[{n}]"), e))?;
        }
        Ok(())
    }
}

/// Loads one registry entry into the metric registered under `key`.
fn load_metric(m: &mut Metric, key: &str, e: &Json) -> Result<(), String> {
    let (code, arity) = match m {
        Metric::Counter(_) => (0, 3),
        Metric::Gauge(_) => (1, 3),
        Metric::Histogram(_) => (2, 7),
    };
    let p = snap::items(e)?;
    if p.len() != arity || p[0].as_str() != Some(key) || p[1].as_u64() != Some(code) {
        return Err(format!(
            "expected [\"{key}\", {code}, ...] with {arity} elements"
        ));
    }
    match m {
        Metric::Counter(v) => snap::load_at(v, p, 2),
        Metric::Gauge(g) => snap::load_at(g, p, 2),
        Metric::Histogram(h) => {
            let mut buckets: Vec<u64> = Vec::new();
            snap::load_at(&mut buckets, p, 2)?;
            if buckets.len() > HISTOGRAM_BUCKETS {
                return Err(format!(
                    "[2]: {} buckets, at most {HISTOGRAM_BUCKETS}",
                    buckets.len()
                ));
            }
            buckets.resize(HISTOGRAM_BUCKETS, 0);
            h.buckets = buckets;
            snap::load_at(&mut h.count, p, 3)?;
            snap::load_at(&mut h.sum, p, 4)?;
            snap::load_at(&mut h.max, p, 5)?;
            snap::load_at(&mut h.saturated, p, 6)
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_update_the_right_metric() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("z.count");
        let g = m.gauge("a.gauge");
        let h = m.histogram("m.hist");
        m.inc(c, 2);
        m.inc(c, 3);
        m.set_gauge(g, 1.5);
        m.observe(h, 7);
        let snap = m.snapshot();
        assert_eq!(snap.counter("z.count"), Some(5));
        assert_eq!(snap.gauge("a.gauge"), Some(1.5));
        assert_eq!(snap.histogram("m.hist").unwrap().count(), 1);
        // Sorted order regardless of registration order.
        let keys: Vec<&str> = snap.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a.gauge", "m.hist", "z.count"]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_keys_panic() {
        let mut m = MetricsRegistry::new();
        m.counter("dup");
        m.gauge("dup");
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
        let snap_h = {
            let mut m = MetricsRegistry::new();
            let id = m.histogram("sat");
            m.observe_n(id, u64::MAX, 3);
            m.snapshot().histogram("sat").unwrap().clone()
        };
        assert!(snap_h.saturated(), "flag survives the snapshot clone");
    }

    #[test]
    fn empty_histogram_snapshot_has_finite_mean() {
        // Registered but never observed: the count == 0 path must yield
        // 0.0, never NaN (NaN is not valid JSON and would poison the
        // deterministic report rendering downstream).
        let mut m = MetricsRegistry::new();
        m.histogram("never.observed");
        let snap = m.snapshot();
        let h = snap.histogram("never.observed").unwrap();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.mean().is_finite());
        assert!(!h.saturated());
    }

    #[test]
    fn set_counter_syncs_absolute_values() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("synced");
        m.set_counter(c, 41);
        m.set_counter(c, 42);
        assert_eq!(m.snapshot().counter("synced"), Some(42));
    }
}
