//! Bounded FIFOs with registered pushes.
//!
//! Pipeline stages on FPGA communicate through dual-port FIFOs whose write
//! side is registered: a word pushed in cycle *n* becomes visible to the
//! reader in cycle *n+1*. [`Fifo`] models this with a *staged* buffer that
//! is moved into the visible queue by [`Fifo::commit`], which the owning
//! component calls at the end of every cycle. Determinism therefore does
//! not depend on the order components are ticked within a cycle.

use apir_util::snap_fields;
use std::collections::VecDeque;

/// A bounded FIFO with next-cycle-visible pushes.
///
/// # Example
///
/// ```
/// use apir_sim::fifo::Fifo;
/// let mut f: Fifo<u32> = Fifo::new(2);
/// assert!(f.try_push(7));
/// assert!(f.pop().is_none()); // not visible this cycle
/// f.commit();
/// assert_eq!(f.pop(), Some(7));
/// ```
#[derive(Clone, Debug)]
pub struct Fifo<T> {
    cap: usize,
    q: VecDeque<T>,
    staged: VecDeque<T>,
}
snap_fields!(Fifo<T> {
    q => "v",
    staged => "s",
    cap: skip,
} check Self::fits);

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `cap` elements (visible + staged).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "fifo capacity must be positive");
        Fifo {
            cap,
            q: VecDeque::with_capacity(cap),
            staged: VecDeque::new(),
        }
    }

    /// Total occupancy including staged elements.
    pub fn len(&self) -> usize {
        self.q.len() + self.staged.len()
    }

    /// Is the FIFO (including staged pushes) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of currently *visible* (poppable) elements.
    pub fn visible(&self) -> usize {
        self.q.len()
    }

    /// Can another element be pushed this cycle?
    pub fn can_push(&self) -> bool {
        self.len() < self.cap
    }

    /// How many more elements can be pushed this cycle.
    pub fn free(&self) -> usize {
        self.cap - self.len()
    }

    /// Stages a push; returns `false` (dropping nothing) when full.
    #[must_use]
    pub fn try_push(&mut self, v: T) -> bool {
        if self.can_push() {
            self.staged.push_back(v);
            true
        } else {
            false
        }
    }

    /// Stages a push.
    ///
    /// # Panics
    ///
    /// Panics when the FIFO is full; use [`Fifo::try_push`] after checking
    /// [`Fifo::can_push`] in normal stall-capable components.
    pub fn push(&mut self, v: T) {
        assert!(self.can_push(), "push into full fifo");
        self.staged.push_back(v);
    }

    /// Pops the oldest visible element (takes effect immediately, modeling
    /// a combinational read-enable).
    pub fn pop(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    /// End-of-cycle: makes staged pushes visible.
    pub fn commit(&mut self) {
        if !self.staged.is_empty() {
            self.q.append(&mut self.staged);
        }
    }

    /// Drains every element (visible and staged); used when squashing.
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out: Vec<T> = self.q.drain(..).collect();
        out.extend(self.staged.drain(..));
        out
    }

    /// Iterates over every element, oldest first: the visible ones,
    /// then those staged this cycle.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter().chain(&self.staged)
    }

    /// A loaded snapshot must fit the capacity the receiver was built
    /// with.
    fn fits(&self) -> Result<(), String> {
        if self.len() > self.cap {
            return Err(format!(
                "holds {} elements, capacity {}",
                self.len(),
                self.cap
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_visible_after_commit() {
        let mut f = Fifo::new(4);
        f.push(1);
        f.push(2);
        assert_eq!(f.visible(), 0);
        assert_eq!(f.len(), 2);
        f.commit();
        assert_eq!(f.visible(), 2);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn capacity_counts_staged() {
        let mut f = Fifo::new(2);
        assert!(f.try_push(1));
        assert_eq!(f.free(), 1);
        assert!(f.try_push(2));
        assert!(!f.try_push(3));
        assert!(!f.can_push());
        assert_eq!(f.free(), 0);
        f.commit();
        assert!(!f.can_push());
        f.pop();
        assert!(f.can_push());
        assert_eq!(f.free(), 1);
    }

    #[test]
    #[should_panic(expected = "full fifo")]
    fn push_full_panics() {
        let mut f = Fifo::new(1);
        f.push(1);
        f.push(2);
    }

    #[test]
    fn fifo_order_preserved_across_commits() {
        let mut f = Fifo::new(8);
        f.push(1);
        f.commit();
        f.push(2);
        f.push(3);
        f.commit();
        let drained: Vec<i32> = std::iter::from_fn(|| f.pop()).collect();
        assert_eq!(drained, vec![1, 2, 3]);
    }

    #[test]
    fn commit_with_nothing_staged_changes_nothing() {
        let mut f = Fifo::new(4);
        f.commit();
        assert!(f.is_empty());
        f.push(1);
        f.commit();
        f.commit();
        assert_eq!((f.visible(), f.len()), (1, 1));
        assert_eq!(f.iter().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(f.pop(), Some(1));
        f.commit();
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn drain_all_includes_staged() {
        let mut f = Fifo::new(4);
        f.push(1);
        f.commit();
        f.push(2);
        assert_eq!(f.drain_all(), vec![1, 2]);
        assert!(f.is_empty());
    }
}
