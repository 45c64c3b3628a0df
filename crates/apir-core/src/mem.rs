//! Region-based memory image shared by all execution engines.
//!
//! A specification declares named *regions* (arrays of 64-bit words) —
//! think of them as the data structures the application allocates in the
//! shared CPU–FPGA address space. Every engine (sequential interpreter,
//! software runtime, fabric simulator) operates on a [`MemImage`], so the
//! final memory state of any engine can be compared word-for-word against
//! the golden model.
//!
//! Regions have fixed capacities; a flat address space is laid out at
//! program load (`base[r] + offset`) so the fabric's cache model can index
//! by machine address.

use crate::spec::RegionId;
use apir_util::snap_fields;
use std::fmt;

/// Uniform read/write access to region memory.
///
/// Implemented by [`MemImage`] and by engine-specific wrappers (e.g. the
/// fabric's speculative store view). Extern IP cores are written against
/// this trait so the same closure runs identically in every engine.
pub trait MemAccess {
    /// Reads the word at `region[offset]`.
    ///
    /// # Panics
    ///
    /// Panics if the offset is outside the region capacity.
    fn read(&self, region: RegionId, offset: u64) -> u64;

    /// Writes the word at `region[offset]`.
    ///
    /// # Panics
    ///
    /// Panics if the offset is outside the region capacity.
    fn write(&mut self, region: RegionId, offset: u64, value: u64);

    /// Reads an `f64` stored as raw bits.
    fn read_f64(&self, region: RegionId, offset: u64) -> f64 {
        f64::from_bits(self.read(region, offset))
    }

    /// Writes an `f64` as raw bits.
    fn write_f64(&mut self, region: RegionId, offset: u64, value: f64) {
        self.write(region, offset, value.to_bits());
    }
}

/// The concrete memory image: one fixed-capacity word array per region.
/// A snapshot holds every region's words; the layout comes from the
/// program input, so a load must match it exactly.
#[derive(Clone, PartialEq, Eq)]
pub struct MemImage {
    regions: Box<[Box<[u64]>]>,
    names: Vec<String>,
}
snap_fields!(MemImage(
    regions,
    names: skip,
));

impl MemImage {
    /// Creates an image from region `(name, capacity)` declarations,
    /// zero-initialized.
    pub fn new(decls: &[(String, usize)]) -> Self {
        MemImage {
            regions: decls
                .iter()
                .map(|(_, cap)| vec![0u64; *cap].into())
                .collect(),
            names: decls.iter().map(|(n, _)| n.clone()).collect(),
        }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Capacity (in words) of a region.
    pub fn capacity(&self, region: RegionId) -> usize {
        self.regions[region.0].len()
    }

    /// Name of a region.
    pub fn name(&self, region: RegionId) -> &str {
        &self.names[region.0]
    }

    /// Borrows a whole region as a word slice.
    pub fn region(&self, region: RegionId) -> &[u64] {
        &self.regions[region.0]
    }

    /// Mutably borrows a whole region (bulk seeding).
    pub fn region_mut(&mut self, region: RegionId) -> &mut [u64] {
        &mut self.regions[region.0]
    }

    /// Copies `words` into the region starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit.
    pub fn fill(&mut self, region: RegionId, offset: usize, words: &[u64]) {
        self.regions[region.0][offset..offset + words.len()].copy_from_slice(words);
    }

    /// Flat base machine addresses (in words) for each region, for engines
    /// that need a single address space (the cache model). Regions are laid
    /// out back-to-back, 64-byte-line aligned.
    pub fn flat_bases(&self) -> Vec<u64> {
        let mut bases = Vec::with_capacity(self.regions.len());
        let mut next = 0u64;
        for r in &self.regions {
            bases.push(next);
            let words = r.len() as u64;
            // Align each region to a cache line (8 words) boundary.
            next += (words + 7) & !7;
        }
        bases
    }

    /// Total flat footprint in words.
    pub fn flat_words(&self) -> u64 {
        self.flat_bases().last().copied().unwrap_or(0)
            + self
                .regions
                .last()
                .map(|r| ((r.len() as u64) + 7) & !7)
                .unwrap_or(0)
    }

    /// Word-for-word difference report against another image (first few
    /// mismatches), used by verification tests.
    pub fn diff(&self, other: &MemImage, max: usize) -> Vec<String> {
        let mut out = Vec::new();
        for (r, (a, b)) in self.regions.iter().zip(other.regions.iter()).enumerate() {
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                if x != y {
                    out.push(format!("region {}[{}]: {} != {}", self.names[r], i, x, y));
                    if out.len() >= max {
                        return out;
                    }
                }
            }
        }
        out
    }
}

impl MemAccess for MemImage {
    fn read(&self, region: RegionId, offset: u64) -> u64 {
        let r = &self.regions[region.0];
        match r.get(offset as usize) {
            Some(v) => *v,
            None => panic!(
                "read out of bounds: region {}[{}] (capacity {})",
                self.names[region.0],
                offset,
                r.len()
            ),
        }
    }

    fn write(&mut self, region: RegionId, offset: u64, value: u64) {
        let name = &self.names[region.0];
        let r = &mut self.regions[region.0];
        let len = r.len();
        match r.get_mut(offset as usize) {
            Some(v) => *v = value,
            None => panic!(
                "write out of bounds: region {}[{}] (capacity {})",
                name, offset, len
            ),
        }
    }
}

impl fmt::Debug for MemImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("MemImage");
        for (i, r) in self.regions.iter().enumerate() {
            d.field(&self.names[i], &format_args!("[{} words]", r.len()));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> MemImage {
        MemImage::new(&[("a".into(), 10), ("b".into(), 20)])
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = img();
        m.write(RegionId(0), 3, 42);
        assert_eq!(m.read(RegionId(0), 3), 42);
        assert_eq!(m.read(RegionId(1), 3), 0);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = img();
        m.write_f64(RegionId(1), 0, 3.5);
        assert_eq!(m.read_f64(RegionId(1), 0), 3.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        img().read(RegionId(0), 10);
    }

    #[test]
    fn flat_layout_is_line_aligned() {
        let m = img();
        let bases = m.flat_bases();
        assert_eq!(bases[0], 0);
        assert_eq!(bases[1] % 8, 0);
        assert!(bases[1] >= 10);
        assert!(m.flat_words() >= 30);
    }

    #[test]
    fn diff_reports_mismatches() {
        let mut a = img();
        let b = img();
        a.write(RegionId(0), 1, 7);
        let d = a.diff(&b, 10);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("a[1]"));
        assert!(a.diff(&a.clone(), 10).is_empty());
    }
}
