//! Latency modeling: in-order delay lines and out-of-order stations.

use crate::Cycle;
use apir_util::snap_fields;
use std::collections::VecDeque;

/// A fixed-latency, in-order pipe: an element pushed at cycle *t* becomes
/// poppable at cycle *t + latency*. Models fully pipelined fixed-latency
/// paths (cache hit pipelines, the event bus, arithmetic cores).
///
/// # Example
///
/// ```
/// use apir_sim::delay::DelayLine;
/// let mut d = DelayLine::new(3);
/// d.push(0, "x");
/// assert!(d.pop_ready(2).is_none());
/// assert_eq!(d.pop_ready(3), Some("x"));
/// ```
#[derive(Clone, Debug)]
pub struct DelayLine<T> {
    latency: Cycle,
    /// `(ready cycle, element)`, sorted by ready cycle. A snapshot keeps
    /// the absolute ready cycles, so a restore never re-derives them.
    q: VecDeque<(Cycle, T)>,
}
snap_fields!(DelayLine<T>(
    q,
    latency: skip,
) check Self::in_ready_order);

impl<T> DelayLine<T> {
    /// Creates a delay line with the given latency in cycles.
    pub fn new(latency: Cycle) -> Self {
        DelayLine {
            latency,
            q: VecDeque::new(),
        }
    }

    /// Inserts an element at cycle `now`.
    pub fn push(&mut self, now: Cycle, v: T) {
        self.push_extra(now, 0, v);
    }

    /// Inserts an element with an extra latency on top of the base.
    pub fn push_extra(&mut self, now: Cycle, extra: Cycle, v: T) {
        // Keep the queue sorted by ready time: the base latency is constant
        // and `now` is monotone, but extra latencies could reorder entries.
        // Stable insertion after equal ready times preserves FIFO order, so
        // an element ready no earlier than the back goes to the back, which
        // is where every fixed-latency push lands.
        let ready = now + self.latency + extra;
        if self.q.back().is_none_or(|(r, _)| *r <= ready) {
            self.q.push_back((ready, v));
        } else {
            let pos = self.q.partition_point(|(r, _)| *r <= ready);
            self.q.insert(pos, (ready, v));
        }
    }

    /// Pops the oldest element whose latency has elapsed by `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.q.front().is_some_and(|(r, _)| *r <= now) {
            self.q.pop_front().map(|(_, v)| v)
        } else {
            None
        }
    }

    /// Ready cycle of the next element to emerge, if any — the cycle at
    /// which [`DelayLine::pop_ready`] would first return it. Event-wheel
    /// wake-time source: a fabric with nothing else to do can jump
    /// straight to this cycle.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.q.front().map(|(r, _)| *r)
    }

    /// Elements in flight.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Is the pipe empty?
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Iterates over the elements in flight, in ready order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter().map(|(_, v)| v)
    }

    /// [`DelayLine::pop_ready`] only looks at the front, so a loaded
    /// snapshot must keep the entries sorted by ready cycle.
    fn in_ready_order(&self) -> Result<(), String> {
        match (1..self.q.len()).find(|&i| self.q[i - 1].0 > self.q[i].0) {
            Some(i) => Err(format!(
                "[{i}]: ready cycle {} is earlier than the {} before it",
                self.q[i].0,
                self.q[i - 1].0
            )),
            None => Ok(()),
        }
    }
}

/// A tag-matched waiting station with bounded occupancy: entries enter with
/// a tag, complete in any order when their tag is signalled, and leave
/// through [`OutOfOrderStation::take_ready`].
///
/// This is the matching logic the paper pays for at load/store units and
/// rendezvous points ("out-of-order operations incur resource overheads on
/// FPGAs since they require large matching logics"), which is why its
/// `capacity` is small and everything else stays in-order.
///
/// The default station has no slots: it is a placeholder for a snapshot
/// load, which the owning pipeline rejects.
#[derive(Clone, Debug, Default)]
pub struct OutOfOrderStation<T> {
    cap: usize,
    /// `(tag, payload, ready, completion word, insertion cycle)` in slot
    /// order, which matters: [`OutOfOrderStation::take_ready`] removes
    /// the oldest ready slot.
    entries: Vec<(u64, T, bool, u64, Cycle)>,
    /// Number of entries with the ready flag set, so a station with
    /// nothing to hand out answers in O(1).
    ready: usize,
    /// A lower bound on the insertion cycle of every waiting entry, so
    /// [`OutOfOrderStation::timeout_one`] answers in O(1) until its
    /// cutoff passes the bound.
    waiting_floor: Cycle,
}
// `ready` and `waiting_floor` are derived from `entries`: never saved,
// recomputed on load.
snap_fields!(OutOfOrderStation<T>(
    entries,
    cap: skip,
    ready: skip,
    waiting_floor: skip,
) check Self::loaded);

impl<T> OutOfOrderStation<T> {
    /// Creates a station with `cap` slots.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "station capacity must be positive");
        OutOfOrderStation {
            cap,
            entries: Vec::with_capacity(cap),
            ready: 0,
            waiting_floor: Cycle::MAX,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the station empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries still waiting for their completion or a bounce.
    pub fn waiting(&self) -> usize {
        self.entries.len() - self.ready
    }

    /// Is there a free slot?
    pub fn can_insert(&self) -> bool {
        self.entries.len() < self.cap
    }

    /// Inserts an entry stamped with the current cycle (enables
    /// [`OutOfOrderStation::timeout_one`]).
    ///
    /// # Panics
    ///
    /// Panics when full; check [`OutOfOrderStation::can_insert`] first.
    pub fn insert_at(&mut self, tag: u64, payload: T, now: Cycle) {
        assert!(self.can_insert(), "insert into full station");
        self.entries.push((tag, payload, false, 0, now));
        self.waiting_floor = self.waiting_floor.min(now);
    }

    /// Bounces the oldest still-waiting entry inserted before `cutoff`:
    /// marks it ready with completion word 0 and returns its tag (so the
    /// caller can cancel whatever it was waiting on). At most one per
    /// call — one bounce port per cycle.
    pub fn timeout_one(&mut self, cutoff: Cycle) -> Option<u64> {
        if cutoff <= self.waiting_floor {
            return None;
        }
        // The oldest waiting entry (the first one on a tie) is also the
        // oldest of those inserted before `cutoff`, if any are; either
        // way no waiting entry is older, so it sets the floor.
        let Some(e) = self.entries.iter_mut().filter(|e| !e.2).min_by_key(|e| e.4) else {
            self.waiting_floor = Cycle::MAX;
            return None;
        };
        self.waiting_floor = e.4;
        if e.4 >= cutoff {
            return None;
        }
        e.2 = true;
        e.3 = 0;
        self.ready += 1;
        Some(e.0)
    }

    /// Insertion cycle of the oldest still-waiting entry, if any. With
    /// the [`OutOfOrderStation::timeout_one`] contract (`insert < cutoff`
    /// bounces), the first cycle at which a bounce can fire is
    /// `oldest_waiting_insert + timeout + 1` — the event-wheel wake time
    /// for a station whose occupants are all waiting.
    pub fn oldest_waiting_insert(&self) -> Option<Cycle> {
        self.entries.iter().filter(|e| !e.2).map(|e| e.4).min()
    }

    /// Marks the entry with `tag` complete, attaching a completion word
    /// (e.g. the loaded value or a rule's return). Returns `true` if an
    /// entry matched.
    pub fn complete(&mut self, tag: u64, word: u64) -> bool {
        for e in &mut self.entries {
            if e.0 == tag && !e.2 {
                e.2 = true;
                e.3 = word;
                self.ready += 1;
                return true;
            }
        }
        false
    }

    /// Removes and returns the oldest ready entry as `(payload, word)`.
    pub fn take_ready(&mut self) -> Option<(T, u64)> {
        if self.ready == 0 {
            return None;
        }
        let idx = self
            .entries
            .iter()
            .position(|e| e.2)
            .expect("the ready count matches the ready flags");
        let (_, payload, _, word, _) = self.entries.remove(idx);
        self.ready -= 1;
        Some((payload, word))
    }

    /// Iterates over every payload (waiting or ready).
    pub fn iter_all(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|e| &e.1)
    }

    /// A loaded snapshot must fit the slots the receiver was built with.
    /// The derived fields are recomputed from the loaded entries: the
    /// receiver's own values describe whatever it held before.
    fn loaded(&mut self) -> Result<(), String> {
        if self.entries.len() > self.cap {
            return Err(format!(
                "holds {} entries, capacity {}",
                self.entries.len(),
                self.cap
            ));
        }
        self.ready = self.entries.iter().filter(|e| e.2).count();
        self.waiting_floor = self.oldest_waiting_insert().unwrap_or(Cycle::MAX);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_util::snap::Snap;

    #[test]
    fn delay_line_is_in_order() {
        let mut d = DelayLine::new(2);
        d.push(0, 'a');
        d.push(1, 'b');
        assert_eq!(d.pop_ready(1), None);
        assert_eq!(d.pop_ready(2), Some('a'));
        assert_eq!(d.pop_ready(2), None);
        assert_eq!(d.pop_ready(3), Some('b'));
        assert!(d.is_empty());
    }

    #[test]
    fn extra_latency_keeps_ready_order() {
        let mut d = DelayLine::new(1);
        d.push_extra(0, 10, 'a'); // ready at 11
        d.push(1, 'b'); // ready at 2
        assert_eq!(d.pop_ready(2), Some('b'));
        assert_eq!(d.pop_ready(10), None);
        assert_eq!(d.pop_ready(11), Some('a'));
    }

    #[test]
    fn pushes_pop_in_the_order_of_a_sorted_insertion() {
        // The reference inserts every element after the ones ready no
        // later than it, at the place a binary search finds.
        let mut d = DelayLine::new(3);
        let mut reference: Vec<(Cycle, usize)> = Vec::new();
        let extras = [0, 5, 0, 0, 2, 9, 0, 1, 0, 0, 4, 0, 0];
        for (v, &extra) in extras.iter().cycle().take(60).enumerate() {
            // Two pushes a cycle, so equal ready cycles meet.
            let now = v as Cycle / 2;
            if extra == 0 {
                d.push(now, v);
            } else {
                d.push_extra(now, extra, v);
            }
            let ready = now + 3 + extra;
            let pos = reference.partition_point(|(r, _)| *r <= ready);
            reference.insert(pos, (ready, v));
        }
        let mut popped = Vec::new();
        for now in 0..50 {
            while let Some(v) = d.pop_ready(now) {
                popped.push((now, v));
            }
        }
        assert_eq!(popped, reference);
        assert!(d.is_empty());
    }

    #[test]
    fn station_completes_out_of_order() {
        let mut s = OutOfOrderStation::new(4);
        s.insert_at(10, "first", 0);
        s.insert_at(20, "second", 0);
        assert!(s.take_ready().is_none());
        assert!(s.complete(20, 99));
        let (p, w) = s.take_ready().unwrap();
        assert_eq!((p, w), ("second", 99));
        assert!(!s.complete(20, 0)); // already gone
        assert!(s.complete(10, 5));
        assert_eq!(s.take_ready().unwrap(), ("first", 5));
    }

    #[test]
    fn next_ready_tracks_the_front() {
        let mut d = DelayLine::new(2);
        assert_eq!(d.next_ready(), None);
        d.push_extra(0, 10, 'a'); // ready at 12
        d.push(1, 'b'); // ready at 3
        assert_eq!(d.next_ready(), Some(3));
        assert_eq!(d.pop_ready(3), Some('b'));
        assert_eq!(d.next_ready(), Some(12));
        assert_eq!(d.pop_ready(12), Some('a'));
        assert_eq!(d.next_ready(), None);
    }

    #[test]
    fn oldest_waiting_insert_predicts_timeout_one() {
        let mut s = OutOfOrderStation::new(4);
        assert_eq!(s.oldest_waiting_insert(), None);
        s.insert_at(1, 'a', 10);
        s.insert_at(2, 'b', 5);
        assert_eq!(s.oldest_waiting_insert(), Some(5));
        // Ready entries no longer wait, so they drop out of the minimum.
        s.complete(2, 0);
        assert_eq!(s.oldest_waiting_insert(), Some(10));
        // The predicted first bounce cycle is insert + timeout + 1.
        let timeout: Cycle = 3;
        let wake: Cycle = 10 + timeout + 1;
        assert_eq!(s.timeout_one((wake - 1).saturating_sub(timeout)), None);
        assert_eq!(s.timeout_one(wake.saturating_sub(timeout)), Some(1));
    }

    #[test]
    fn station_capacity_enforced() {
        let mut s = OutOfOrderStation::new(1);
        s.insert_at(1, (), 0);
        assert!(!s.can_insert());
        s.complete(1, 0);
        s.take_ready();
        assert!(s.can_insert());
    }

    #[test]
    fn duplicate_tags_complete_one_at_a_time() {
        let mut s = OutOfOrderStation::new(4);
        s.insert_at(7, 'x', 0);
        s.insert_at(7, 'y', 0);
        assert!(s.complete(7, 1));
        assert_eq!(s.take_ready().unwrap(), ('x', 1));
        assert!(s.complete(7, 2));
        assert_eq!(s.take_ready().unwrap(), ('y', 2));
    }

    /// The ready count and waiting floor match the entries they derive
    /// from.
    fn assert_derived<T>(s: &OutOfOrderStation<T>) {
        assert_eq!(s.ready, s.entries.iter().filter(|e| e.2).count());
        let oldest = s.oldest_waiting_insert();
        assert!(oldest.is_none_or(|c| s.waiting_floor <= c));
    }

    #[test]
    fn ready_count_follows_completions_timeouts_and_takes() {
        let mut s = OutOfOrderStation::new(4);
        s.insert_at(7, 'a', 1);
        s.insert_at(7, 'b', 2);
        s.insert_at(9, 'c', 3);
        assert_derived(&s);
        assert_eq!(s.waiting(), 3);
        assert_eq!(s.take_ready(), None);
        // Duplicate tags complete one entry per signal, oldest first.
        assert!(s.complete(7, 10));
        assert_eq!(s.ready, 1);
        assert!(s.complete(7, 11));
        assert_eq!(s.ready, 2);
        assert!(!s.complete(7, 12));
        assert_eq!(s.ready, 2);
        assert_derived(&s);
        // Nothing waits long enough to bounce, then `c` does.
        assert_eq!(s.timeout_one(3), None);
        assert_eq!(s.timeout_one(4), Some(9));
        assert_eq!(s.ready, 3);
        assert_eq!(s.timeout_one(10), None);
        assert_derived(&s);
        assert_eq!((s.len(), s.waiting()), (3, 0));
        assert_eq!(s.take_ready(), Some(('a', 10)));
        assert_eq!(s.take_ready(), Some(('b', 11)));
        assert_eq!(s.take_ready(), Some(('c', 0)));
        assert_eq!(s.ready, 0);
        assert_eq!(s.take_ready(), None);
        assert_derived(&s);
    }

    #[test]
    fn timeout_one_bounces_the_oldest_waiting_entry_first() {
        let mut s = OutOfOrderStation::new(4);
        s.insert_at(1, 'a', 8);
        s.insert_at(2, 'b', 5);
        s.insert_at(3, 'c', 5);
        assert_eq!(s.timeout_one(6), Some(2));
        assert_eq!(s.timeout_one(6), Some(3));
        assert_eq!(s.timeout_one(6), None);
        s.insert_at(4, 'd', 6);
        assert_eq!(s.timeout_one(7), Some(4));
        assert_eq!(s.timeout_one(9), Some(1));
        assert_derived(&s);
    }

    #[test]
    fn a_loaded_station_recounts_what_it_derives() {
        // An entry completed while the next latch was full: ready, but
        // not yet taken. Another is still waiting.
        let mut src = OutOfOrderStation::new(4);
        src.insert_at(1, 10u64, 5);
        src.insert_at(2, 20u64, 6);
        assert!(src.complete(2, 99));
        let doc = src.save();
        // Only the entries are saved.
        assert_eq!(doc, src.entries.save());

        // A fresh receiver and one whose counts describe other entries
        // must both hand out the ready entry and bounce the waiting one.
        let mut stale = OutOfOrderStation::new(4);
        stale.insert_at(3, 30u64, 100);
        stale.insert_at(4, 40u64, 100);
        assert!(stale.complete(3, 1));
        assert!(stale.complete(4, 1));
        for mut s in [OutOfOrderStation::new(4), stale] {
            s.load(&doc).unwrap();
            assert_derived(&s);
            assert_eq!(s.take_ready(), Some((20, 99)));
            assert_eq!(s.take_ready(), None);
            assert_eq!(s.timeout_one(6), Some(1));
            assert_eq!(s.take_ready(), Some((10, 0)));
        }
    }
}
