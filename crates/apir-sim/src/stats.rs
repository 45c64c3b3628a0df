//! Activity statistics: busy/stall/idle accounting per component.
//!
//! Figure 10 of the paper plots the *pipeline utilization rate*: "the
//! average number of active (neither stall nor idle) primitive operations
//! throughout the execution over total number of primitive operations for
//! all pipelines instantiated on FPGA". [`ActivityTracker`] records the
//! per-cycle state of one primitive operation; [`UtilizationSummary`]
//! aggregates trackers into that exact metric.
//!
//! Stalls are further attributed to a [`StallCause`] — the paper's
//! Figure 9 discussion attributes the utilization gap to specific
//! structural hazards (QPI bandwidth, outstanding misses, full queues);
//! the taxonomy here lets every report answer *why* a stage stalled,
//! not just that it did. The invariant `sum(stall_by) == stall` holds
//! by construction: every stall-recording path names a cause.

use apir_util::{Json, Snap};

/// Per-cycle state of one component.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Activity {
    /// Performed useful work this cycle.
    Busy,
    /// Had work but could not proceed (downstream full, waiting memory...).
    Stall,
    /// Had no work.
    #[default]
    Idle,
}

/// Why a component stalled on a given cycle. One cause per stalled
/// cycle; the dotted metric keys use [`StallCause::key`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallCause {
    /// The downstream latch / consumer stage would not accept the value.
    DownstreamFull = 0,
    /// A task queue had no bank with free (unreserved) capacity.
    QueueFull,
    /// Only the recirculation reserve margin was left in the queue.
    ReserveFull,
    /// The out-of-order station (MSHR analogue) had no free slot.
    MshrFull,
    /// Memory-link bandwidth credits (or the request channel) exhausted.
    Bandwidth,
    /// Waiting on an outstanding memory/extern response to return.
    MissOutstanding,
    /// A rendezvous entry is parked waiting for its partner.
    RendezvousParked,
    /// All live rule lanes are occupied.
    LaneBusy,
    /// Rule lanes are masked by a fault and the rest are occupied.
    LaneMasked,
    /// The shared rule bus would not accept another emission.
    BusFull,
}

impl StallCause {
    /// All causes, in stable declaration order (array index order of
    /// [`ActivityTracker::stall_by`]).
    pub const ALL: [StallCause; 10] = [
        StallCause::DownstreamFull,
        StallCause::QueueFull,
        StallCause::ReserveFull,
        StallCause::MshrFull,
        StallCause::Bandwidth,
        StallCause::MissOutstanding,
        StallCause::RendezvousParked,
        StallCause::LaneBusy,
        StallCause::LaneMasked,
        StallCause::BusFull,
    ];

    /// Number of causes (length of [`ActivityTracker::stall_by`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case key segment used in dotted metric keys
    /// (`<comp>.stall.<cause>`) and JSON exports.
    pub fn key(self) -> &'static str {
        match self {
            StallCause::DownstreamFull => "downstream_full",
            StallCause::QueueFull => "queue_full",
            StallCause::ReserveFull => "reserve_full",
            StallCause::MshrFull => "mshr_full",
            StallCause::Bandwidth => "bandwidth",
            StallCause::MissOutstanding => "miss_outstanding",
            StallCause::RendezvousParked => "rendezvous_parked",
            StallCause::LaneBusy => "lane_busy",
            StallCause::LaneMasked => "lane_masked",
            StallCause::BusFull => "bus_full",
        }
    }
}

/// Both enums snapshot as their declaration-order code.
macro_rules! snap_code {
    ($t:ty, $all:expr) => {
        impl Snap for $t {
            fn save(&self) -> Json {
                Json::U64(*self as u64)
            }

            fn load(&mut self, j: &Json) -> Result<(), String> {
                let mut code = 0usize;
                code.load(j)?;
                let all = $all;
                *self = *all
                    .get(code)
                    .ok_or_else(|| format!("code {code} is not one of the {} states", all.len()))?;
                Ok(())
            }
        }
    };
}
snap_code!(Activity, [Activity::Busy, Activity::Stall, Activity::Idle]);
snap_code!(StallCause, StallCause::ALL);

/// Accumulated activity of one component.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivityTracker {
    /// Cycles spent busy.
    pub busy: u64,
    /// Cycles spent stalled.
    pub stall: u64,
    /// Cycles spent idle.
    pub idle: u64,
    /// Stalled cycles attributed per [`StallCause`], indexed by the
    /// cause's declaration order. `sum(stall_by) == stall` always.
    pub stall_by: [u64; StallCause::COUNT],
}

/// A tracker snapshots as one flat array, `[busy, stall, idle,
/// stall_by...]`.
impl Snap for ActivityTracker {
    fn save(&self) -> Json {
        let Self {
            busy,
            stall,
            idle,
            stall_by,
        } = self;
        Json::Arr(
            [busy, stall, idle]
                .into_iter()
                .chain(stall_by)
                .map(Snap::save)
                .collect(),
        )
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        let mut v = [0u64; 3 + StallCause::COUNT];
        v.load(j)?;
        [self.busy, self.stall, self.idle] = [v[0], v[1], v[2]];
        self.stall_by.copy_from_slice(&v[3..]);
        Ok(())
    }
}

impl ActivityTracker {
    /// Creates a zeroed tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cycle. Stalls recorded through this cause-less entry
    /// point are attributed to [`StallCause::DownstreamFull`] (the
    /// generic backpressure cause) so the partition invariant holds;
    /// prefer [`ActivityTracker::record_stall_n`] where the cause is known.
    pub fn record(&mut self, a: Activity) {
        self.record_n(a, 1);
    }

    /// Records `n` cycles in one state in O(1), as if [`record`] ran `n`
    /// times.
    ///
    /// [`record`]: ActivityTracker::record
    pub fn record_n(&mut self, a: Activity, n: u64) {
        match a {
            Activity::Busy => self.busy += n,
            Activity::Stall => self.record_stall_n(StallCause::DownstreamFull, n),
            Activity::Idle => self.idle += n,
        }
    }

    /// Records `n` stalled cycles attributed to `cause` in O(1), such as
    /// a whole stall run at its end.
    pub fn record_stall_n(&mut self, cause: StallCause, n: u64) {
        self.stall += n;
        self.stall_by[cause as usize] += n;
    }

    /// `(cause, cycles)` pairs in stable declaration order.
    pub fn stall_causes(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(|&c| (c, self.stall_by[c as usize]))
    }

    /// Total recorded cycles.
    pub fn total(&self) -> u64 {
        self.busy + self.stall + self.idle
    }

    /// Fraction of cycles spent busy.
    pub fn utilization(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.busy as f64 / self.total() as f64
        }
    }
}

/// Aggregate over many primitive-operation trackers.
#[derive(Clone, Debug, Default)]
pub struct UtilizationSummary {
    trackers: Vec<(String, ActivityTracker)>,
}

impl UtilizationSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named tracker.
    pub fn add(&mut self, name: impl Into<String>, t: ActivityTracker) {
        self.trackers.push((name.into(), t));
    }

    /// Number of primitive operations tracked.
    pub fn count(&self) -> usize {
        self.trackers.len()
    }

    /// The paper's pipeline utilization rate: average busy fraction across
    /// all primitive operations.
    pub fn pipeline_utilization(&self) -> f64 {
        if self.trackers.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.trackers.iter().map(|(_, t)| t.utilization()).sum();
        sum / self.trackers.len() as f64
    }

    /// The trackers summed: busy, stall and idle cycles and the stall
    /// cycles of each cause, over every primitive operation.
    pub fn totals(&self) -> ActivityTracker {
        let mut sum = ActivityTracker::new();
        for (_, t) in &self.trackers {
            sum.busy += t.busy;
            sum.stall += t.stall;
            sum.idle += t.idle;
            for (acc, c) in sum.stall_by.iter_mut().zip(t.stall_by) {
                *acc += c;
            }
        }
        sum
    }

    /// Per-component `(name, busy, stall, idle)` rows for reports.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &ActivityTracker)> {
        self.trackers.iter().map(|(n, t)| (n.as_str(), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accumulates() {
        let mut t = ActivityTracker::new();
        t.record(Activity::Busy);
        t.record(Activity::Busy);
        t.record(Activity::Stall);
        t.record(Activity::Idle);
        assert_eq!(t.total(), 4);
        assert!((t.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut bulk = ActivityTracker::new();
        let mut seq = ActivityTracker::new();
        for (a, n) in [(Activity::Busy, 2u64), (Activity::Stall, 7), (Activity::Idle, 0)] {
            bulk.record_n(a, n);
            for _ in 0..n {
                seq.record(a);
            }
        }
        assert_eq!(bulk, seq);
        assert_eq!(bulk.total(), 9);
    }

    #[test]
    fn empty_tracker_utilization_is_zero() {
        assert_eq!(ActivityTracker::new().utilization(), 0.0);
        assert_eq!(UtilizationSummary::new().pipeline_utilization(), 0.0);
    }

    #[test]
    fn summary_averages_components() {
        let mut s = UtilizationSummary::new();
        let mut a = ActivityTracker::new();
        let mut b = ActivityTracker::new();
        for _ in 0..10 {
            a.record(Activity::Busy); // 100%
            b.record(Activity::Idle); // 0%
        }
        s.add("a", a);
        s.add("b", b);
        assert!((s.pipeline_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(s.count(), 2);
        assert_eq!(s.rows().count(), 2);
    }

    #[test]
    fn totals_sum_every_tracker() {
        let mut a = ActivityTracker::new();
        a.record_n(Activity::Busy, 2);
        a.record_stall_n(StallCause::QueueFull, 3);
        let mut b = ActivityTracker::new();
        b.record_n(Activity::Idle, 4);
        b.record_stall_n(StallCause::QueueFull, 1);
        b.record_stall_n(StallCause::Bandwidth, 1);
        let mut s = UtilizationSummary::new();
        s.add("a", a);
        s.add("b", b);
        let t = s.totals();
        assert_eq!((t.busy, t.stall, t.idle), (2, 5, 4));
        assert_eq!(t.stall_by[StallCause::QueueFull as usize], 4);
        assert_eq!(t.stall_by[StallCause::Bandwidth as usize], 1);
        assert_eq!(UtilizationSummary::new().totals(), ActivityTracker::new());
    }

    #[test]
    fn zero_cycle_run_has_no_utilization() {
        // A fabric that quiesces before any stage ever records: every
        // divide-by-zero guard must hold.
        let t = ActivityTracker::new();
        assert_eq!(t.total(), 0);
        assert_eq!(t.utilization(), 0.0);
        let mut s = UtilizationSummary::new();
        s.add("untouched", t);
        assert_eq!(s.pipeline_utilization(), 0.0);
        assert!(s.pipeline_utilization().is_finite());
    }

    #[test]
    fn all_idle_tracker_is_zero_not_nan() {
        let mut t = ActivityTracker::new();
        for _ in 0..100 {
            t.record(Activity::Idle);
        }
        assert_eq!(t.total(), 100);
        assert_eq!(t.utilization(), 0.0);
        let mut s = UtilizationSummary::new();
        s.add("idle", t);
        assert_eq!(s.pipeline_utilization(), 0.0);
    }

    #[test]
    fn summary_over_zero_trackers_is_zero() {
        let s = UtilizationSummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.pipeline_utilization(), 0.0);
        assert!(s.pipeline_utilization().is_finite());
        assert_eq!(s.rows().count(), 0);
    }

    #[test]
    fn mixed_zero_and_nonzero_trackers_average_cleanly() {
        // One tracker never ran (total 0): it must contribute 0, not NaN,
        // to the average.
        let mut s = UtilizationSummary::new();
        let mut busy = ActivityTracker::new();
        busy.record(Activity::Busy);
        s.add("busy", busy);
        s.add("never-ran", ActivityTracker::new());
        assert!((s.pipeline_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stall_causes_partition_stall() {
        let mut t = ActivityTracker::new();
        t.record_stall_n(StallCause::MshrFull, 1);
        t.record_stall_n(StallCause::Bandwidth, 5);
        t.record(Activity::Stall); // cause-less entry point → DownstreamFull
        t.record(Activity::Busy);
        assert_eq!(t.stall, 7);
        assert_eq!(t.stall_by.iter().sum::<u64>(), t.stall);
        let by_cause: Vec<_> = t.stall_causes().filter(|&(_, n)| n > 0).collect();
        let want = [
            (StallCause::DownstreamFull, 1),
            (StallCause::MshrFull, 1),
            (StallCause::Bandwidth, 5),
        ];
        assert_eq!(by_cause, want);
        assert_eq!(t.total(), 8);
    }

    #[test]
    fn stall_cause_keys_are_stable_and_unique() {
        let keys: Vec<&str> = StallCause::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), StallCause::COUNT);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate cause key");
        // Array indexing matches declaration order.
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn stall_cause_iterator_matches_array() {
        let mut t = ActivityTracker::new();
        t.record_stall_n(StallCause::LaneMasked, 3);
        let pairs: Vec<(StallCause, u64)> = t.stall_causes().collect();
        assert_eq!(pairs.len(), StallCause::COUNT);
        assert!(pairs.contains(&(StallCause::LaneMasked, 3)));
        assert_eq!(pairs.iter().map(|&(_, n)| n).sum::<u64>(), t.stall);
    }
}
