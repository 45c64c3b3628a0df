//! Windowed activity timelines: *when* the fabric was busy, not just
//! how much in total.
//!
//! [`TimelineRecorder`] accumulates per-cycle metric deltas and closes a
//! window every `window` cycles, keeping the most recent `capacity`
//! windows in a bounded ring (older windows are evicted and counted in
//! `dropped`). The recorder is fed one [`TimelineSample`] of deltas per
//! simulated cycle; the event-wheel scheduler replays a skipped
//! quiescent stretch through [`TimelineRecorder::observe_n`] — during
//! quiescence the per-cycle delta is constant (no busy work, no
//! retirements, no memory traffic), so `n` identical cycles are folded
//! in `O(n / window)` chunk steps, the same trick as
//! `Histogram::observe_n`. Dense and wheel schedules therefore produce
//! byte-identical timelines.

use apir_util::snap_fields;
use std::collections::VecDeque;

/// Metric deltas accumulated over one or more cycles. Each field is a
/// non-negative delta of a monotone fabric counter.
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
    /// Adds `other` scaled by `n` (field-wise `self += other * n`).
    pub fn add_scaled(&mut self, other: &TimelineSample, n: u64) {
        self.busy += other.busy * n;
        self.stall += other.stall * n;
        self.idle += other.idle * n;
        self.retired += other.retired * n;
        self.hits += other.hits * n;
        self.misses += other.misses * n;
        self.qpi_bytes += other.qpi_bytes * n;
    }

    /// Field-wise `self - prev` (caller guarantees monotonicity).
    pub fn delta_from(&self, prev: &TimelineSample) -> TimelineSample {
        TimelineSample {
            busy: self.busy - prev.busy,
            stall: self.stall - prev.stall,
            idle: self.idle - prev.idle,
            retired: self.retired - prev.retired,
            hits: self.hits - prev.hits,
            misses: self.misses - prev.misses,
            qpi_bytes: self.qpi_bytes - prev.qpi_bytes,
        }
    }
}

/// One closed window: `cycles` consecutive cycles starting at
/// simulation cycle `start` (1-based), with the deltas accumulated
/// across them. The final window of a run may be partial
/// (`cycles < window`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineWindow {
    /// First simulation cycle covered (cycles are 1-based).
    pub start: u64,
    /// Number of cycles covered.
    pub cycles: u64,
    /// Deltas accumulated over the covered cycles.
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

/// Accumulates per-cycle deltas into windows of `window` cycles, keeping
/// the newest `capacity` windows.
///
/// The default recorder has a zero window: it is a placeholder for a
/// snapshot load, which rejects it.
#[derive(Clone, Debug, Default)]
pub struct TimelineRecorder {
    window: u64,
    capacity: usize,
    cur: TimelineSample,
    cur_len: u64,
    cur_start: u64,
    ring: VecDeque<TimelineWindow>,
    dropped: u64,
}
snap_fields!(TimelineRecorder {
    cur,
    cur_len,
    cur_start,
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
            cur: TimelineSample::default(),
            cur_len: 0,
            cur_start: 1,
            ring: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A loaded snapshot must fit the ring, and its open window must
    /// still be open: a full one would have been closed already.
    fn fits(&self) -> Result<(), String> {
        if self.ring.len() > self.capacity {
            return Err(format!(
                ".ring: {} windows, capacity {}",
                self.ring.len(),
                self.capacity
            ));
        }
        if self.cur_len >= self.window {
            return Err(format!(
                ".cur_len: {} cycles fill the {}-cycle window",
                self.cur_len, self.window
            ));
        }
        Ok(())
    }

    /// Folds one cycle's deltas.
    pub fn observe(&mut self, s: &TimelineSample) {
        self.observe_n(s, 1);
    }

    /// Folds `n` consecutive cycles that each carry the identical delta
    /// `s`, in O(n / window) window steps rather than O(n) cycle steps.
    pub fn observe_n(&mut self, s: &TimelineSample, mut n: u64) {
        while n > 0 {
            let room = self.window - self.cur_len;
            let chunk = n.min(room);
            self.cur.add_scaled(s, chunk);
            self.cur_len += chunk;
            n -= chunk;
            if self.cur_len == self.window {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        if self.cur_len == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TimelineWindow {
            start: self.cur_start,
            cycles: self.cur_len,
            sample: self.cur,
        });
        self.cur_start += self.cur_len;
        self.cur = TimelineSample::default();
        self.cur_len = 0;
    }

    /// Flushes the partial final window and returns the finished timeline.
    pub fn finish(mut self) -> Timeline {
        self.flush();
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

    fn sample(busy: u64, retired: u64) -> TimelineSample {
        TimelineSample {
            busy,
            retired,
            ..TimelineSample::default()
        }
    }

    #[test]
    fn windows_close_on_boundaries_and_final_partial_flushes() {
        let mut r = TimelineRecorder::new(4, 16);
        for _ in 0..10 {
            r.observe(&sample(2, 1));
        }
        let t = r.finish();
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
    fn observe_n_equals_n_observes() {
        let s = TimelineSample {
            busy: 1,
            stall: 3,
            idle: 2,
            retired: 0,
            hits: 5,
            misses: 1,
            qpi_bytes: 64,
        };
        let mut bulk = TimelineRecorder::new(7, 8);
        let mut seq = TimelineRecorder::new(7, 8);
        bulk.observe_n(&s, 23);
        for _ in 0..23 {
            seq.observe(&s);
        }
        assert_eq!(bulk.finish(), seq.finish());
    }

    #[test]
    fn ring_drops_oldest_windows() {
        let mut r = TimelineRecorder::new(2, 3);
        for i in 0..10u64 {
            r.observe(&sample(i, 0));
        }
        let t = r.finish();
        assert_eq!(t.dropped, 2);
        assert_eq!(t.windows.len(), 3);
        // Oldest retained window starts after the two evicted ones.
        assert_eq!(t.windows[0].start, 5);
        assert_eq!(t.windows[2].start, 9);
    }

    #[test]
    fn empty_recorder_finishes_empty() {
        let t = TimelineRecorder::new(8, 4).finish();
        assert_eq!(t.windows.len(), 0);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn observe_n_spanning_many_windows_matches_chunked() {
        let s = sample(0, 1);
        let mut r = TimelineRecorder::new(3, 100);
        r.observe(&s); // offset the window phase
        r.observe_n(&s, 16);
        let t = r.finish();
        assert_eq!(t.windows.iter().map(|w| w.cycles).sum::<u64>(), 17);
        assert_eq!(t.windows.iter().map(|w| w.sample.retired).sum::<u64>(), 17);
        assert_eq!(t.windows.len(), 6);
        assert_eq!(t.windows.last().unwrap().cycles, 17 % 3);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = TimelineRecorder::new(1, 0);
        r.observe(&sample(1, 0));
        r.observe(&sample(1, 0));
        let t = r.finish();
        assert_eq!(t.windows.len(), 1);
        assert_eq!(t.dropped, 1);
    }
}
