//! Windowed activity timelines: *when* the fabric was busy, not just
//! how much in total.
//!
//! A [`TimelineSample`] holds running totals the fabric's components
//! already keep: busy, stall and idle stage-cycles, retirements, cache
//! hits and misses, link bytes. Window `k` of a [`TimelineRecorder`]
//! covers cycles `k·window + 1 ..= (k + 1)·window`. On its last cycle
//! the fabric passes the totals to [`TimelineRecorder::close`], and the
//! window records their growth since the previous window end, the only
//! totals the recorder keeps; [`TimelineRecorder::finish`] closes the
//! partial last window. The newest `capacity` windows stay in a bounded
//! ring (older ones are evicted and counted in `dropped`). A quiescent
//! jump of the event wheel stops on every window end it crosses, so
//! dense and wheel schedules give byte-identical timelines.

use apir_util::snap_fields;
use std::collections::VecDeque;

/// Running totals of monotone fabric counters, or their difference over
/// a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineSample {
    /// Stage-cycles spent busy.
    pub busy: u64,
    /// Stage-cycles spent stalled.
    pub stall: u64,
    /// Stage-cycles spent idle.
    pub idle: u64,
    /// Tasks retired.
    pub retired: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Bytes transferred over the memory link.
    pub qpi_bytes: u64,
}
snap_fields!(TimelineSample [
    busy,
    stall,
    idle,
    retired,
    hits,
    misses,
    qpi_bytes,
]);

impl TimelineSample {
    /// Field-wise `self - prev`, or an error naming the first field of
    /// `prev` above its value here, at its position in the saved array.
    fn delta_from(&self, prev: &TimelineSample) -> Result<TimelineSample, String> {
        let d = |i: usize, name: &str, now: u64, then: u64| {
            now.checked_sub(then)
                .ok_or_else(|| format!("[{i}]: {name} {then} is above the total {now}"))
        };
        Ok(TimelineSample {
            busy: d(0, "busy", self.busy, prev.busy)?,
            stall: d(1, "stall", self.stall, prev.stall)?,
            idle: d(2, "idle", self.idle, prev.idle)?,
            retired: d(3, "retired", self.retired, prev.retired)?,
            hits: d(4, "hits", self.hits, prev.hits)?,
            misses: d(5, "misses", self.misses, prev.misses)?,
            qpi_bytes: d(6, "qpi_bytes", self.qpi_bytes, prev.qpi_bytes)?,
        })
    }
}

/// One closed window: `cycles` consecutive cycles starting at
/// simulation cycle `start` (1-based), with the totals' growth across
/// them. The final window of a run may be partial (`cycles < window`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineWindow {
    /// First simulation cycle covered (cycles are 1-based).
    pub start: u64,
    /// Number of cycles covered.
    pub cycles: u64,
    /// Growth of each total over the covered cycles.
    pub sample: TimelineSample,
}
snap_fields!(TimelineWindow [
    start,
    cycles,
    sample,
]);

/// The finished timeline attached to a report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Configured cycles per window.
    pub window: u64,
    /// Windows evicted from the ring (oldest first).
    pub dropped: u64,
    /// Retained windows, oldest first.
    pub windows: Vec<TimelineWindow>,
}

/// Closes windows of `window` cycles from the totals at their last
/// cycle and keeps the newest `capacity` of them.
///
/// The default recorder has a zero window: it is a placeholder for a
/// snapshot load, which rejects it.
#[derive(Clone, Debug, Default)]
pub struct TimelineRecorder {
    window: u64,
    capacity: usize,
    /// The totals at the last window end (zero before the first).
    start: TimelineSample,
    ring: VecDeque<TimelineWindow>,
    dropped: u64,
}
snap_fields!(TimelineRecorder {
    start,
    dropped,
    ring,
    window: skip,
    capacity: skip,
} check Self::fits);

impl TimelineRecorder {
    /// Creates a recorder with `window` cycles per window (must be > 0)
    /// and a ring of at most `capacity` windows (clamped to ≥ 1).
    pub fn new(window: u64, capacity: usize) -> Self {
        assert!(window > 0, "timeline window must be positive");
        Self {
            window,
            capacity: capacity.max(1),
            start: TimelineSample::default(),
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A loaded snapshot must fit the ring.
    fn fits(&self) -> Result<(), String> {
        if self.ring.len() > self.capacity {
            return Err(format!(
                ".ring: {} windows, capacity {}",
                self.ring.len(),
                self.capacity
            ));
        }
        Ok(())
    }

    /// Checks loaded totals at the last window end against the `totals`
    /// now, from which the next close subtracts them.
    pub fn check_start(&self, totals: &TimelineSample) -> Result<(), String> {
        totals
            .delta_from(&self.start)
            .map(|_| ())
            .map_err(|e| format!(".start{e}"))
    }

    /// Does cycle `now` end a window?
    pub fn ends_window(&self, now: u64) -> bool {
        now.is_multiple_of(self.window)
    }

    /// The first cycle after `now` that ends a window.
    pub fn next_end(&self, now: u64) -> u64 {
        (now / self.window + 1).saturating_mul(self.window)
    }

    /// Closes the window of the cycles since the last window end, given
    /// the `totals` at its last cycle `now`.
    pub fn close(&mut self, now: u64, totals: &TimelineSample) {
        let cycles = (now - 1) % self.window + 1;
        let sample = totals
            .delta_from(&self.start)
            .expect("the totals never fall");
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TimelineWindow {
            start: now - cycles + 1,
            cycles,
            sample,
        });
        self.start = *totals;
    }

    /// Closes the partial last window of a run that ended at cycle `now`
    /// with `totals`, unless `now` ends a window itself, and returns the
    /// finished timeline.
    pub fn finish(mut self, now: u64, totals: &TimelineSample) -> Timeline {
        if !self.ends_window(now) {
            self.close(now, totals);
        }
        Timeline {
            window: self.window,
            dropped: self.dropped,
            windows: self.ring.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The totals after `cycles` cycles that each add `busy` busy
    /// stage-cycles and `retired` retirements.
    fn totals(cycles: u64, busy: u64, retired: u64) -> TimelineSample {
        TimelineSample {
            busy: busy * cycles,
            retired: retired * cycles,
            ..TimelineSample::default()
        }
    }

    /// Runs `cycles` cycles of constant growth, closing every window end.
    fn run(r: &mut TimelineRecorder, cycles: u64) {
        for now in 1..=cycles {
            if r.ends_window(now) {
                r.close(now, &totals(now, 2, 1));
            }
        }
    }

    #[test]
    fn windows_close_on_boundaries_and_final_partial_closes() {
        let mut r = TimelineRecorder::new(4, 16);
        run(&mut r, 10);
        let t = r.finish(10, &totals(10, 2, 1));
        assert_eq!(t.window, 4);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.windows.len(), 3);
        assert_eq!(t.windows[0].start, 1);
        assert_eq!(t.windows[0].cycles, 4);
        assert_eq!(t.windows[0].sample.busy, 8);
        assert_eq!(t.windows[1].start, 5);
        assert_eq!(t.windows[2].start, 9);
        assert_eq!(t.windows[2].cycles, 2); // partial tail
        assert_eq!(t.windows[2].sample.retired, 2);
    }

    #[test]
    fn a_run_ending_on_a_window_end_has_no_partial_window() {
        let mut r = TimelineRecorder::new(4, 16);
        run(&mut r, 8);
        let t = r.finish(8, &totals(8, 2, 1));
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[1].start, 5);
        assert_eq!(t.windows[1].cycles, 4);
    }

    #[test]
    fn window_ends_are_the_multiples_of_the_window() {
        let r = TimelineRecorder::new(7, 4);
        assert!(r.ends_window(0) && r.ends_window(14) && !r.ends_window(15));
        assert_eq!(r.next_end(0), 7);
        assert_eq!(r.next_end(13), 14);
        assert_eq!(r.next_end(14), 21);
        assert_eq!(r.next_end(u64::MAX - 1), u64::MAX);
    }

    #[test]
    fn ring_drops_oldest_windows() {
        let mut r = TimelineRecorder::new(2, 3);
        run(&mut r, 10);
        let t = r.finish(10, &totals(10, 2, 1));
        assert_eq!(t.dropped, 2);
        assert_eq!(t.windows.len(), 3);
        // Oldest retained window starts after the two evicted ones.
        assert_eq!(t.windows[0].start, 5);
        assert_eq!(t.windows[2].start, 9);
    }

    #[test]
    fn empty_recorder_finishes_empty() {
        let t = TimelineRecorder::new(8, 4).finish(0, &TimelineSample::default());
        assert_eq!(t.windows.len(), 0);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = TimelineRecorder::new(1, 0);
        run(&mut r, 2);
        let t = r.finish(2, &totals(2, 1, 0));
        assert_eq!(t.windows.len(), 1);
        assert_eq!(t.dropped, 1);
    }

    #[test]
    fn a_start_above_the_totals_is_located() {
        let mut r = TimelineRecorder::new(4, 4);
        r.close(
            4,
            &TimelineSample {
                idle: 5,
                ..TimelineSample::default()
            },
        );
        let now = TimelineSample {
            busy: 9,
            idle: 3,
            ..TimelineSample::default()
        };
        assert_eq!(
            r.check_start(&now).unwrap_err(),
            ".start[2]: idle 5 is above the total 3"
        );
        let later = TimelineSample { idle: 5, ..now };
        assert_eq!(r.check_start(&later), Ok(()));
    }
}
