//! Well-order index tuples for tasks.
//!
//! Section 4.1 of the paper defines a well-order on the task domain: given
//! nested or juxtaposed loops, each task is indexed with an M-tuple of
//! non-negative integers. Loops are arranged from left (outermost /
//! earliest) to right, with left components having higher weight — i.e. the
//! order is lexicographic. `for-each` loops assign a fresh counter value at
//! their level, `for-all` loops assign `0` so that all iterations share the
//! same order (Figure 5).

use crate::MAX_DEPTH;
use apir_util::{Json, Snap};
use std::cmp::Ordering;
use std::fmt;

/// A lexicographically ordered task index of up to [`MAX_DEPTH`] levels.
///
/// The tuple is padded with zeros beyond `depth`; two tuples compare by the
/// full padded array, which matches the paper's scheme where indexes from
/// preceding loops are inherited and lower levels default to zero.
///
/// # Example
///
/// ```
/// use apir_core::IndexTuple;
/// let parent = IndexTuple::new(&[3]);
/// let child = parent.child(2, 7); // for-each child at level 2
/// assert!(parent < child);
/// assert_eq!(child.component(1), 3);
/// assert_eq!(child.component(2), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct IndexTuple {
    comps: [u64; MAX_DEPTH],
    depth: u8,
}

impl IndexTuple {
    /// The index of the virtual root task (empty tuple, minimum of the
    /// order). Host-seeded tasks are children of the root.
    pub const ROOT: IndexTuple = IndexTuple {
        comps: [0; MAX_DEPTH],
        depth: 0,
    };

    /// Creates an index tuple from explicit components.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_DEPTH`] components are given.
    pub fn new(comps: &[u64]) -> Self {
        assert!(
            comps.len() <= MAX_DEPTH,
            "index tuple deeper than MAX_DEPTH"
        );
        let mut c = [0u64; MAX_DEPTH];
        c[..comps.len()].copy_from_slice(comps);
        IndexTuple {
            comps: c,
            depth: comps.len() as u8,
        }
    }

    /// Number of levels that carry meaningful components.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Component at 1-based `level`; zero beyond the depth.
    ///
    /// # Panics
    ///
    /// Panics if `level` is `0` or exceeds [`MAX_DEPTH`].
    pub fn component(&self, level: usize) -> u64 {
        assert!((1..=MAX_DEPTH).contains(&level), "level out of range");
        self.comps[level - 1]
    }

    /// Derives a child index at 1-based `level`: components above `level`
    /// are inherited from `self` (padded with zeros if `self` is shallower),
    /// the component at `level` is `ord` (a `for-each` counter value, or `0`
    /// for a `for-all` task set), and lower levels are zero.
    ///
    /// # Panics
    ///
    /// Panics if `level` is `0` or exceeds [`MAX_DEPTH`].
    pub fn child(&self, level: usize, ord: u64) -> Self {
        assert!((1..=MAX_DEPTH).contains(&level), "level out of range");
        let mut c = [0u64; MAX_DEPTH];
        c[..level - 1].copy_from_slice(&self.comps[..level - 1]);
        c[level - 1] = ord;
        IndexTuple {
            comps: c,
            depth: level as u8,
        }
    }

    /// Returns the raw (padded) component array.
    pub fn as_array(&self) -> [u64; MAX_DEPTH] {
        self.comps
    }
}

/// A snapshot keeps only the significant components. The derived
/// equality compares depth as well, and [`IndexTuple::new`] sets the
/// depth from the component count, which round-trips because unused
/// components are always zero.
impl Snap for IndexTuple {
    fn save(&self) -> Json {
        self.comps[..self.depth as usize].save()
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        let mut comps: Vec<u64> = Vec::new();
        comps.load(j)?;
        if comps.len() > MAX_DEPTH {
            return Err(format!("index depth {} exceeds {MAX_DEPTH}", comps.len()));
        }
        *self = IndexTuple::new(&comps);
        Ok(())
    }
}

impl PartialOrd for IndexTuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexTuple {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic over the zero-padded array: left components weigh
        // more, missing components behave as zero.
        self.comps.cmp(&other.comps)
    }
}

impl fmt::Debug for IndexTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for l in 0..self.depth as usize {
            if l > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.comps[l])?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for IndexTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trip_preserves_depth() {
        for comps in [&[][..], &[3][..], &[3, 0][..], &[1, 2, 3, 4][..]] {
            let i = IndexTuple::new(comps);
            let mut back = IndexTuple::ROOT;
            back.load(&i.save()).unwrap();
            assert_eq!(back, i, "depth must survive: {comps:?}");
        }
        let too_deep = Json::arr((0..=MAX_DEPTH as u64).map(Json::U64));
        assert!(IndexTuple::default().load(&too_deep).is_err());
    }

    #[test]
    fn root_is_minimum() {
        let r = IndexTuple::ROOT;
        assert!(r <= IndexTuple::new(&[0]));
        assert!(r <= IndexTuple::new(&[5, 2]));
    }

    #[test]
    fn lexicographic_order() {
        let a = IndexTuple::new(&[1, 9, 9]);
        let b = IndexTuple::new(&[2, 0, 0]);
        assert!(a < b);
        let c = IndexTuple::new(&[1, 9, 8]);
        assert!(c < a);
    }

    #[test]
    fn for_all_children_share_order() {
        let p = IndexTuple::new(&[4]);
        let a = p.child(2, 0);
        let b = p.child(2, 0);
        assert_eq!(a.cmp(&b), Ordering::Equal);
    }

    #[test]
    fn child_inherits_prefix() {
        let p = IndexTuple::new(&[3, 7]);
        let c = p.child(3, 11);
        assert_eq!(c.component(1), 3);
        assert_eq!(c.component(2), 7);
        assert_eq!(c.component(3), 11);
        assert_eq!(c.depth(), 3);
        // Child at a *shallower* level truncates the prefix.
        let s = p.child(1, 9);
        assert_eq!(s.as_array(), [9, 0, 0, 0]);
    }

    #[test]
    fn padded_comparison_matches_paper() {
        // {iu} vs {iu, iv}: the parent {iu} equals the prefix, and the
        // padded zero makes {iu} <= {iu, iv} for any iv >= 0.
        let tu = IndexTuple::new(&[5]);
        let tv = IndexTuple::new(&[5, 0]);
        assert_eq!(tu.cmp(&tv), Ordering::Equal);
        let tv1 = IndexTuple::new(&[5, 1]);
        assert!(tu < tv1);
    }

    #[test]
    fn display_formats_components() {
        let t = IndexTuple::new(&[1, 2]);
        assert_eq!(format!("{t}"), "{1,2}");
        assert_eq!(format!("{}", IndexTuple::ROOT), "{}");
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn zero_level_panics() {
        IndexTuple::ROOT.child(0, 1);
    }
}
