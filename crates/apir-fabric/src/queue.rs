//! Multi-bank task queues with a wavefront-style allocator.
//!
//! Section 5.2: "a multi-bank queue with customizable number of
//! input/output ports is provided. A wavefront allocator is used between
//! input ports and pipelines to ensure load balance among banks. [...] An
//! index indicating the well-order is assigned to each task when it is
//! pushed." We model the allocator as rotating-priority selection over
//! banks (what a wavefront allocator converges to under uniform load).

use crate::types::TaskToken;
use apir_core::spec::TaskSetKind;
use apir_core::IndexTuple;
use apir_sim::fifo::Fifo;
use apir_sim::stats::StallCause;
use apir_util::snap_fields;

/// One task set's multi-bank queue.
#[derive(Clone, Debug)]
pub struct TaskQueue {
    kind: TaskSetKind,
    level: usize,
    banks: Box<[Fifo<TaskToken>]>,
    counter: u64,
    push_rr: usize,
    pop_rr: usize,
    pushed_total: u64,
    peak: usize,
    /// Slots usable only by recirculation (`push_fixed`): tokens already
    /// inside the pipelines must always be able to requeue, or a full
    /// queue deadlocks against a full pipeline.
    reserve: usize,
    /// Entries in the unmasked banks. Derived: recomputed on load.
    capacity: usize,
    /// Entries per bank (fixed at construction; needed to recompute the
    /// capacity when a bank fault masks one out).
    per_bank: usize,
    /// Banks masked out by injected hard faults; the allocator and the
    /// pop rotation skip them, and they are always empty.
    masked: Box<[bool]>,
    /// Tokens in all banks, visible and staged. Derived: recounted on
    /// load.
    len: usize,
    /// Tokens a pop can take this cycle. Derived: recounted on load.
    visible: usize,
}
snap_fields!(TaskQueue {
    banks,
    counter,
    push_rr,
    pop_rr,
    pushed_total,
    peak,
    masked,
    kind: skip,
    level: skip,
    reserve: skip,
    capacity: skip,
    per_bank: skip,
    len: skip,
    visible: skip,
} check Self::loaded);

impl TaskQueue {
    /// Creates a queue with `banks` banks sharing `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `capacity < banks`.
    pub fn new(kind: TaskSetKind, level: usize, banks: usize, capacity: usize) -> Self {
        assert!(banks > 0, "queue needs at least one bank");
        assert!(capacity >= banks, "capacity below bank count");
        let per = capacity / banks;
        TaskQueue {
            kind,
            level,
            banks: (0..banks).map(|_| Fifo::new(per)).collect(),
            counter: 0,
            push_rr: 0,
            pop_rr: 0,
            pushed_total: 0,
            peak: 0,
            reserve: 0,
            capacity: per * banks,
            per_bank: per,
            masked: vec![false; banks].into(),
            len: 0,
            visible: 0,
        }
    }

    /// Reserves `slots` (clamped to half the capacity) for recirculation
    /// pushes; ordinary activations stall earlier.
    pub fn set_reserve(&mut self, slots: usize) {
        self.reserve = slots.min(self.capacity / 2);
    }

    /// Entries currently queued (visible + staged).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Can one more ordinary task be pushed this cycle (leaving the
    /// recirculation reserve free)?
    pub fn can_push(&self) -> bool {
        self.len + self.reserve < self.capacity
            && self
                .banks
                .iter()
                .zip(&self.masked)
                .any(|(b, &m)| !m && b.can_push())
    }

    /// Can a recirculated task be pushed this cycle?
    pub fn can_push_reserved(&self) -> bool {
        self.banks
            .iter()
            .zip(&self.masked)
            .any(|(b, &m)| !m && b.can_push())
    }

    /// Banks still in service (not masked by an injected fault).
    pub fn live_banks(&self) -> usize {
        self.masked.iter().filter(|&&m| !m).count()
    }

    /// Masks out one live bank (an injected hard fault), draining its
    /// contents for the caller to respill onto the survivors. The pick is
    /// taken modulo the live-bank count. Refuses (returns `None`) when
    /// masking would drop below half the banks or leave too little
    /// capacity for the recirculation reserve — graceful degradation must
    /// never become a self-inflicted deadlock.
    pub fn mask_bank(&mut self, pick: u64) -> Option<Vec<TaskToken>> {
        let live: Vec<usize> = (0..self.banks.len()).filter(|&i| !self.masked[i]).collect();
        if live.len() * 2 <= self.banks.len() {
            return None;
        }
        if self.per_bank * (live.len() - 1) <= 2 * self.reserve {
            return None;
        }
        let victim = live[(pick % live.len() as u64) as usize];
        self.masked[victim] = true;
        self.capacity = self.per_bank * (live.len() - 1);
        self.visible -= self.banks[victim].visible();
        let drained = self.banks[victim].drain_all();
        self.len -= drained.len();
        Some(drained)
    }

    /// Peak occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total tasks ever pushed.
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Pushes a task created by a parent with index `parent`, assigning
    /// the child's well-order index per the task set kind (Figure 5).
    /// Returns the assigned token, or `None` when all banks are full.
    pub fn push_child(
        &mut self,
        parent: IndexTuple,
        seq: u64,
        fields: [u64; apir_core::MAX_FIELDS],
    ) -> Option<TaskToken> {
        let ord = match self.kind {
            TaskSetKind::ForEach => {
                // The counter value is only consumed on success; peek it.
                self.counter
            }
            TaskSetKind::ForAll => 0,
        };
        let token = TaskToken {
            index: parent.child(self.level, ord),
            seq,
            fields,
        };
        if self.push_token(token) {
            if self.kind == TaskSetKind::ForEach {
                self.counter += 1;
            }
            Some(token)
        } else {
            None
        }
    }

    /// Pushes a task with a pre-assigned index (requeue / recirculation).
    /// Returns `false` when full.
    #[must_use]
    pub fn push_fixed(&mut self, token: TaskToken) -> bool {
        self.push_token(token)
    }

    fn push_token(&mut self, token: TaskToken) -> bool {
        let n = self.banks.len();
        for k in 0..n {
            let b = (self.push_rr + k) % n;
            if !self.masked[b] && self.banks[b].try_push(token) {
                self.push_rr = (b + 1) % n;
                self.pushed_total += 1;
                self.len += 1;
                self.peak = self.peak.max(self.len);
                return true;
            }
        }
        false
    }

    /// Iterates over every queued token, bank by bank.
    pub fn iter(&self) -> impl Iterator<Item = &TaskToken> {
        self.banks.iter().flat_map(Fifo::iter)
    }

    /// Tasks a pop can take this cycle (pushes become visible at the
    /// end-of-cycle commit).
    pub fn visible(&self) -> usize {
        self.visible
    }

    /// Pops the next task, rotating across banks; O(1) when no task is
    /// visible yet.
    pub fn pop(&mut self) -> Option<TaskToken> {
        if self.visible == 0 {
            return None;
        }
        let n = self.banks.len();
        for k in 0..n {
            let b = (self.pop_rr + k) % n;
            if self.masked[b] {
                continue;
            }
            if let Some(t) = self.banks[b].pop() {
                self.pop_rr = (b + 1) % n;
                self.visible -= 1;
                self.len -= 1;
                return Some(t);
            }
        }
        None
    }

    /// Why an ordinary push would be refused now, if it would:
    /// `QueueFull` when no bank has room, `ReserveFull` when only the
    /// recirculation reserve is left.
    pub fn admission_stall(&self) -> Option<StallCause> {
        if self.can_push() {
            None
        } else if self.can_push_reserved() {
            Some(StallCause::ReserveFull)
        } else {
            Some(StallCause::QueueFull)
        }
    }

    /// End-of-cycle commit of the banks that staged a push.
    pub fn commit(&mut self) {
        if self.visible == self.len {
            return;
        }
        for b in &mut self.banks {
            b.commit();
        }
        self.visible = self.len;
    }

    /// Checks a loaded snapshot (see [`TaskQueue::consistent`]) and
    /// recounts the derived totals.
    fn loaded(&mut self) -> Result<(), String> {
        self.consistent()?;
        self.capacity = self.per_bank * self.live_banks();
        self.len = self.banks.iter().map(Fifo::len).sum();
        self.visible = self.banks.iter().map(Fifo::visible).sum();
        Ok(())
    }

    /// A loaded snapshot must keep the rotations in range and the masked
    /// banks empty.
    fn consistent(&self) -> Result<(), String> {
        let n = self.banks.len();
        for (key, rr) in [("push_rr", self.push_rr), ("pop_rr", self.pop_rr)] {
            if rr >= n {
                return Err(format!(".{key}: bank {rr} out of range ({n} banks)"));
            }
        }
        let full = |(b, &m): (&Fifo<TaskToken>, &bool)| m && !b.is_empty();
        if let Some(b) = self.banks.iter().zip(&self.masked).position(full) {
            return Err(format!(".banks[{b}]: a masked bank holds tasks"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::to_fields;
    use apir_util::snap::Snap;

    fn q(kind: TaskSetKind) -> TaskQueue {
        TaskQueue::new(kind, 1, 4, 16)
    }

    #[test]
    fn for_each_assigns_increasing_indices() {
        let mut q = q(TaskSetKind::ForEach);
        let a = q.push_child(IndexTuple::ROOT, 1, to_fields(&[5])).unwrap();
        let b = q.push_child(IndexTuple::ROOT, 2, to_fields(&[6])).unwrap();
        assert!(a.index < b.index);
        assert_eq!(a.index.component(1), 0);
        assert_eq!(b.index.component(1), 1);
    }

    #[test]
    fn for_all_shares_parent_order() {
        let mut q = TaskQueue::new(TaskSetKind::ForAll, 2, 2, 8);
        let parent = IndexTuple::new(&[3]);
        let a = q.push_child(parent, 1, to_fields(&[0])).unwrap();
        let b = q.push_child(parent, 2, to_fields(&[1])).unwrap();
        assert_eq!(a.index, b.index);
        assert_eq!(a.index.component(1), 3);
        assert_eq!(a.index.component(2), 0);
    }

    #[test]
    fn pop_round_robins_after_commit() {
        let mut q = q(TaskSetKind::ForEach);
        for i in 0..6 {
            q.push_child(IndexTuple::ROOT, i, to_fields(&[i])).unwrap();
        }
        assert!(q.pop().is_none()); // staged only
        q.commit();
        let mut seen = Vec::new();
        while let Some(t) = q.pop() {
            seen.push(t.fields[0]);
        }
        assert_eq!(seen.len(), 6);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn full_queue_rejects_and_counter_unchanged() {
        let mut q = TaskQueue::new(TaskSetKind::ForEach, 1, 1, 2);
        assert!(q.push_child(IndexTuple::ROOT, 1, to_fields(&[0])).is_some());
        assert!(q.push_child(IndexTuple::ROOT, 2, to_fields(&[1])).is_some());
        assert!(q.push_child(IndexTuple::ROOT, 3, to_fields(&[2])).is_none());
        q.commit();
        q.pop();
        // Counter did not advance for the failed push.
        let t = q.push_child(IndexTuple::ROOT, 4, to_fields(&[3])).unwrap();
        assert_eq!(t.index.component(1), 2);
    }

    #[test]
    fn bank_mask_drains_and_degrades() {
        let mut q = q(TaskSetKind::ForEach);
        for i in 0..8 {
            q.push_child(IndexTuple::ROOT, i, to_fields(&[i])).unwrap();
        }
        q.commit();
        let drained = q.mask_bank(0).expect("first mask allowed");
        assert_eq!(q.live_banks(), 3);
        assert_eq!(q.len() + drained.len(), 8, "nothing lost by the drain");
        for t in drained {
            assert!(q.push_fixed(t), "survivors absorb the respill");
        }
        q.commit();
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 8);
        // Degradation stops at half the banks.
        assert!(q.mask_bank(1).is_some());
        assert_eq!(q.live_banks(), 2);
        assert!(q.mask_bank(2).is_none(), "refuses to go below half");
    }

    #[test]
    fn bank_mask_respects_reserve() {
        let mut q = TaskQueue::new(TaskSetKind::ForEach, 1, 2, 8);
        q.set_reserve(4); // clamped to capacity/2 = 4
                          // Masking one of two banks would leave 4 slots <= 2 * reserve.
        assert!(q.mask_bank(0).is_none());
        assert_eq!(q.live_banks(), 2);
    }

    #[test]
    fn admission_stall_tells_a_full_queue_from_a_full_margin() {
        let mut q = TaskQueue::new(TaskSetKind::ForEach, 1, 1, 4);
        q.set_reserve(2);
        assert_eq!(q.admission_stall(), None);
        for i in 0..2 {
            q.push_child(IndexTuple::ROOT, i, to_fields(&[i])).unwrap();
        }
        assert!(!q.can_push() && q.can_push_reserved());
        assert_eq!(q.admission_stall(), Some(StallCause::ReserveFull));
        for i in 2..4 {
            assert!(q.push_fixed(TaskToken {
                index: IndexTuple::new(&[i]),
                seq: i,
                fields: to_fields(&[i]),
            }));
        }
        assert_eq!(q.admission_stall(), Some(StallCause::QueueFull));
    }

    /// The derived counts must equal a recount of the banks.
    fn assert_counts(q: &TaskQueue) {
        let len = q.banks.iter().map(Fifo::len).sum();
        let visible = q.banks.iter().map(Fifo::visible).sum();
        assert_eq!((q.len, q.visible), (len, visible));
        assert_eq!(q.iter().count(), len);
    }

    #[test]
    fn derived_counts_follow_push_commit_pop_mask_and_load() {
        let mut q = q(TaskSetKind::ForEach);
        for i in 0..6 {
            q.push_child(IndexTuple::ROOT, i, to_fields(&[i])).unwrap();
            assert_counts(&q);
        }
        assert_eq!((q.len(), q.visible), (6, 0));
        assert!(q.pop().is_none(), "staged tasks are not visible");
        q.commit();
        assert_counts(&q);
        assert_eq!(q.visible, 6);
        q.pop().unwrap();
        q.push_child(IndexTuple::ROOT, 6, to_fields(&[6])).unwrap();
        assert_counts(&q);
        assert_eq!((q.len(), q.visible), (6, 5));
        let drained = q.mask_bank(0).expect("first mask allowed");
        assert_counts(&q);
        assert_eq!(q.len(), 6 - drained.len());
        q.commit();
        assert_counts(&q);
        // A loaded queue that holds committed tasks pops at once.
        let mut back = TaskQueue::new(TaskSetKind::ForEach, 1, 4, 16);
        back.load(&q.save()).unwrap();
        assert_counts(&back);
        assert_eq!((back.len(), back.visible), (q.len(), q.visible));
        assert_eq!(
            back.capacity, q.capacity,
            "the masked bank's slots are gone"
        );
        assert!(back.pop().is_some());
        assert_counts(&back);
    }

    #[test]
    fn a_loaded_masked_bank_must_be_empty() {
        let mut q = q(TaskSetKind::ForEach);
        q.push_child(IndexTuple::ROOT, 0, to_fields(&[0])).unwrap();
        let bank = q.banks.iter().position(|b| !b.is_empty()).unwrap();
        q.masked[bank] = true;
        let mut back = TaskQueue::new(TaskSetKind::ForEach, 1, 4, 16);
        let err = back.load(&q.save()).unwrap_err();
        assert!(err.contains("a masked bank holds tasks"), "{err}");
    }
}
