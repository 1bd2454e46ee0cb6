//! Cache geometry: size / line size / associativity and the derived
//! address decomposition (offset, index, tag).

use crate::addr::{Address, BlockAddr};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors raised when constructing an invalid [`Geometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeometryError {
    /// The total cache size in bytes is zero or not a multiple of
    /// `line_bytes * associativity`.
    SizeNotDivisible {
        /// Requested total size in bytes.
        size_bytes: usize,
        /// Requested line size in bytes.
        line_bytes: usize,
        /// Requested associativity.
        associativity: usize,
    },
    /// The line size is zero or not a power of two.
    LineNotPowerOfTwo(usize),
    /// The associativity is zero.
    ZeroAssociativity,
    /// The derived number of sets is not a power of two.
    ///
    /// Non-power-of-two set counts are supported via
    /// [`Geometry::with_sets`] (used by the paper's 9-way / 10-way
    /// comparison caches, which keep 1024 sets); this error is only
    /// raised by [`Geometry::new`], which derives the set count from the
    /// total size.
    SetsNotPowerOfTwo(usize),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::SizeNotDivisible {
                size_bytes,
                line_bytes,
                associativity,
            } => write!(
                f,
                "cache size {size_bytes} B is not a positive multiple of \
                 line size {line_bytes} B x associativity {associativity}"
            ),
            GeometryError::LineNotPowerOfTwo(n) => {
                write!(f, "line size {n} B is not a power of two")
            }
            GeometryError::ZeroAssociativity => write!(f, "associativity must be at least 1"),
            GeometryError::SetsNotPowerOfTwo(n) => {
                write!(f, "derived set count {n} is not a power of two")
            }
        }
    }
}

impl Error for GeometryError {}

/// A validated cache geometry.
///
/// A geometry fixes the line size, associativity and number of sets, and
/// provides the address decomposition used by every cache structure:
///
/// ```text
///  byte address:  | tag | set index | line offset |
/// ```
///
/// The set index is taken from the *block* address (byte address shifted by
/// the line-offset bits). When the set count is not a power of two (the
/// paper's 576 KB 9-way and 640 KB 10-way comparison points keep 1024 sets,
/// so this only arises in user configurations), indexing falls back to a
/// modulo operation and the tag keeps all remaining bits.
///
/// ```
/// use cache_sim::{Address, Geometry};
///
/// // The paper's L2: 512 KB, 64 B lines, 8-way => 1024 sets.
/// let g = Geometry::new(512 * 1024, 64, 8).unwrap();
/// assert_eq!(g.num_sets(), 1024);
/// let block = g.block_of(Address::new(0x12_3456));
/// assert_eq!(g.set_index(block), (0x12_3456 >> 6) % 1024);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    line_bytes: usize,
    associativity: usize,
    num_sets: usize,
    offset_bits: u32,
    /// `Some(bits)` when `num_sets` is a power of two, `None` for modulo
    /// indexing.
    index_bits: Option<u32>,
}

impl Geometry {
    /// Creates a geometry from total data size, line size and associativity.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if the line size is not a power of two,
    /// the associativity is zero, the size is not divisible by
    /// `line_bytes * associativity`, or the derived set count is not a
    /// power of two (use [`Geometry::with_sets`] for odd organisations).
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        associativity: usize,
    ) -> Result<Self, GeometryError> {
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(GeometryError::LineNotPowerOfTwo(line_bytes));
        }
        if associativity == 0 {
            return Err(GeometryError::ZeroAssociativity);
        }
        let way_bytes = line_bytes * associativity;
        if size_bytes == 0 || !size_bytes.is_multiple_of(way_bytes) {
            return Err(GeometryError::SizeNotDivisible {
                size_bytes,
                line_bytes,
                associativity,
            });
        }
        let num_sets = size_bytes / way_bytes;
        if !num_sets.is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo(num_sets));
        }
        Ok(Self::build(line_bytes, associativity, num_sets))
    }

    /// Creates a geometry directly from a set count and associativity.
    ///
    /// Unlike [`Geometry::new`], the set count does not have to be a power
    /// of two; non-power-of-two set counts use modulo indexing. This is how
    /// the 9-way (576 KB) and 10-way (640 KB) comparison caches of the
    /// paper's Figure 6 are expressed while keeping 1024 sets:
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if the line size is not a power of two
    /// or the associativity or set count is zero.
    ///
    /// ```
    /// use cache_sim::Geometry;
    /// let g = Geometry::with_sets(1024, 64, 10).unwrap();
    /// assert_eq!(g.size_bytes(), 640 * 1024);
    /// ```
    pub fn with_sets(
        num_sets: usize,
        line_bytes: usize,
        associativity: usize,
    ) -> Result<Self, GeometryError> {
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(GeometryError::LineNotPowerOfTwo(line_bytes));
        }
        if associativity == 0 {
            return Err(GeometryError::ZeroAssociativity);
        }
        if num_sets == 0 {
            return Err(GeometryError::SizeNotDivisible {
                size_bytes: 0,
                line_bytes,
                associativity,
            });
        }
        Ok(Self::build(line_bytes, associativity, num_sets))
    }

    fn build(line_bytes: usize, associativity: usize, num_sets: usize) -> Self {
        Geometry {
            line_bytes,
            associativity,
            num_sets,
            offset_bits: line_bytes.trailing_zeros(),
            index_bits: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
        }
    }

    /// Total data capacity in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.line_bytes * self.associativity * self.num_sets
    }

    /// Cache line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of ways per set.
    #[inline]
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Number of line-offset bits (`log2(line_bytes)`).
    #[inline]
    pub fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Number of set-index bits, or `None` when the set count is not a
    /// power of two (modulo indexing).
    #[inline]
    pub fn index_bits(&self) -> Option<u32> {
        self.index_bits
    }

    /// Converts a byte address to its block (line) address.
    #[inline]
    pub fn block_of(&self, addr: Address) -> BlockAddr {
        BlockAddr::new(addr.raw() >> self.offset_bits)
    }

    /// The set a block maps to.
    #[inline]
    pub fn set_index(&self, block: BlockAddr) -> usize {
        match self.index_bits {
            Some(bits) => (block.raw() & ((1u64 << bits) - 1)) as usize,
            None => (block.raw() % self.num_sets as u64) as usize,
        }
    }

    /// The tag of a block (the block address with the index bits removed).
    ///
    /// With modulo indexing the full block address is used as the tag,
    /// which is always sufficient to disambiguate.
    #[inline]
    pub fn tag(&self, block: BlockAddr) -> u64 {
        match self.index_bits {
            Some(bits) => block.raw() >> bits,
            None => block.raw(),
        }
    }

    /// Reconstructs a block address from a (tag, set) pair.
    ///
    /// Inverse of ([`Geometry::tag`], [`Geometry::set_index`]) for
    /// power-of-two set counts; with modulo indexing the tag *is* the block
    /// address.
    #[inline]
    pub fn block_from_parts(&self, tag: u64, set: usize) -> BlockAddr {
        match self.index_bits {
            Some(bits) => BlockAddr::new((tag << bits) | set as u64),
            None => BlockAddr::new(tag),
        }
    }

    /// Number of tag bits assuming `pa_bits` of physical address
    /// (the paper's storage arithmetic uses 40-bit physical addresses).
    pub fn tag_bits(&self, pa_bits: u32) -> u32 {
        let used = self.offset_bits + self.index_bits.unwrap_or(0);
        pa_bits.saturating_sub(used)
    }
}

impl fmt::Debug for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Geometry({} KB: {} sets x {} ways x {} B lines)",
            self.size_bytes() / 1024,
            self.num_sets,
            self.associativity,
            self.line_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_geometry() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        assert_eq!(g.num_sets(), 1024);
        assert_eq!(g.offset_bits(), 6);
        assert_eq!(g.index_bits(), Some(10));
        assert_eq!(g.size_bytes(), 512 * 1024);
        // Paper: 40-bit PA => 24-bit tags.
        assert_eq!(g.tag_bits(40), 24);
    }

    #[test]
    fn paper_l1_geometry() {
        let g = Geometry::new(16 * 1024, 64, 4).unwrap();
        assert_eq!(g.num_sets(), 64);
    }

    #[test]
    fn decompose_recompose() {
        let g = Geometry::new(512 * 1024, 64, 8).unwrap();
        for raw in [0u64, 0x3f, 0x40, 0xdead_beef, u64::from(u32::MAX)] {
            let b = g.block_of(Address::new(raw));
            let (t, s) = (g.tag(b), g.set_index(b));
            assert_eq!(g.block_from_parts(t, s), b, "raw={raw:#x}");
        }
    }

    #[test]
    fn nine_way_with_sets() {
        let g = Geometry::with_sets(1024, 64, 9).unwrap();
        assert_eq!(g.size_bytes(), 576 * 1024);
        assert_eq!(g.num_sets(), 1024);
        let b = g.block_of(Address::new(0xabcdef));
        assert_eq!(g.block_from_parts(g.tag(b), g.set_index(b)), b);
    }

    #[test]
    fn modulo_indexing_roundtrip() {
        let g = Geometry::with_sets(3, 64, 2).unwrap();
        assert!(g.index_bits().is_none());
        for raw in 0..1000u64 {
            let b = g.block_of(Address::new(raw * 64));
            assert!(g.set_index(b) < 3);
            assert_eq!(g.block_from_parts(g.tag(b), g.set_index(b)), b);
        }
    }

    #[test]
    fn rejects_bad_line() {
        assert_eq!(
            Geometry::new(1024, 48, 2),
            Err(GeometryError::LineNotPowerOfTwo(48))
        );
        assert_eq!(
            Geometry::new(1024, 0, 2),
            Err(GeometryError::LineNotPowerOfTwo(0))
        );
    }

    #[test]
    fn rejects_zero_assoc() {
        assert_eq!(
            Geometry::new(1024, 64, 0),
            Err(GeometryError::ZeroAssociativity)
        );
        assert_eq!(
            Geometry::with_sets(16, 64, 0),
            Err(GeometryError::ZeroAssociativity)
        );
    }

    #[test]
    fn rejects_indivisible_size() {
        assert!(matches!(
            Geometry::new(1000, 64, 2),
            Err(GeometryError::SizeNotDivisible { .. })
        ));
    }

    #[test]
    fn rejects_non_pow2_sets_in_new() {
        // 3 sets derived from size.
        assert_eq!(
            Geometry::new(3 * 64 * 2, 64, 2),
            Err(GeometryError::SetsNotPowerOfTwo(3))
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = Geometry::new(1000, 64, 2).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("1000"), "{msg}");
        assert!(msg.contains("64"), "{msg}");
    }

    #[test]
    fn fully_associative_geometry() {
        let g = Geometry::new(4096, 64, 64).unwrap();
        assert_eq!(g.num_sets(), 1);
        assert_eq!(g.set_index(g.block_of(Address::new(0xffff))), 0);
    }

    #[test]
    fn direct_mapped_geometry() {
        let g = Geometry::new(4096, 64, 1).unwrap();
        assert_eq!(g.num_sets(), 64);
    }
}
