//! Words, cache blocks, data types and approximability metadata.
//!
//! APPROX-NoC operates on cache blocks that are sequences of 4-byte words
//! (Figure 3 of the paper shows a 24 B block of six 4 B words; the full-system
//! evaluation uses 64 B lines of sixteen words). A block here is at most one
//! such line, [`BLOCK_WORDS`] words; a shorter block is a partial line. A
//! block carries metadata — whether it is safe to approximate and the data
//! type of its words — which the paper assumes travels with the access
//! request for the block.

use std::fmt;

use crate::line::{Entry, Line, Meta};
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Words in one 64-byte cache line, the unit the NIs move (§5.4). A
/// [`CacheBlock`] holds at most this many words, in place, and an
/// [`EncodedBlock`](crate::codec::EncodedBlock) as many codes.
pub const BLOCK_WORDS: usize = 16;

/// Size of one data word in bytes. APPROX-NoC matches and encodes 4-byte
/// words, both for the static frequent-pattern table and the dictionary.
pub const WORD_BYTES: usize = 4;

/// Size of one data word in bits.
pub const WORD_BITS: u32 = 32;

/// Identifier of a network node (a router/NI endpoint).
///
/// Dictionary-based codecs keep per-destination encoded-index vectors and
/// per-source valid bits, so node identity is part of the codec interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the node id as a `usize`, for indexing per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The id as a `u16` (see [`Snap`]'s `u16` impl).
impl Snap for NodeId {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        u16::load(r).map(NodeId)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u16)
    }
}

crate::snap_record! {
    /// The data type of the words of a cache block.
    ///
    /// The AVCL handles integers natively; for IEEE-754 single-precision
    /// floats it approximates only the mantissa field, reusing the integer
    /// approximate logic (Figure 4). The paper conservatively compresses only
    /// blocks whose words all share one data type, because per-word type
    /// metadata would be too expensive.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum DataType {
        /// 32-bit two's-complement integers.
        #[default]
        Int,
        /// IEEE-754 single-precision floating point.
        F32,
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::F32 => write!(f, "f32"),
        }
    }
}

/// A cache block waiting to be transmitted: a sequence of 4-byte words plus
/// the metadata the approximation engine checks before engaging (Figure 2).
///
/// A block is one 64-byte line: up to [`BLOCK_WORDS`] words, in place (68
/// bytes in all), so a block allocates nothing.
#[derive(Clone, PartialEq)]
pub struct CacheBlock(Line<u32>);

impl CacheBlock {
    /// The value a codec's fresh local line of words holds in every slot.
    pub const FILL: u32 = <u32 as Entry>::FILL;

    /// Creates a block from raw words.
    ///
    /// # Panics
    ///
    /// If `words` holds more than [`BLOCK_WORDS`] words.
    ///
    /// # Examples
    ///
    /// ```
    /// use anoc_core::data::{CacheBlock, DataType};
    /// let block = CacheBlock::new(vec![1, 2, 3, 4], DataType::Int, true);
    /// assert_eq!(block.len(), 4);
    /// assert_eq!(block.size_bytes(), 16);
    /// ```
    pub fn new(words: Vec<u32>, dtype: DataType, approximable: bool) -> Self {
        CacheBlock(Line::collect(words, Meta::new(dtype, approximable)))
    }

    /// Creates a block of the first `len` (at most [`BLOCK_WORDS`]) words of
    /// `line`, moved in whole: the constructor for blocks made a line at a
    /// time.
    #[inline]
    pub fn from_line(
        line: [u32; BLOCK_WORDS],
        len: usize,
        dtype: DataType,
        approximable: bool,
    ) -> Self {
        CacheBlock(Line::prefix(line, len, Meta::new(dtype, approximable)))
    }

    /// Creates a block with no words yet, to [`push`](Self::push) them into.
    pub fn empty(dtype: DataType, approximable: bool) -> Self {
        CacheBlock(Line::new(Meta::new(dtype, approximable)))
    }

    /// Creates an integer block that is *not* approximable (must be delivered
    /// bit-exactly).
    ///
    /// # Panics
    ///
    /// If `words` holds more than [`BLOCK_WORDS`] words.
    pub fn precise(words: Vec<u32>) -> Self {
        CacheBlock::new(words, DataType::Int, false)
    }

    /// Creates a block from `f32` values, marked approximable.
    ///
    /// # Panics
    ///
    /// If `values` holds more than [`BLOCK_WORDS`] values.
    ///
    /// ```
    /// use anoc_core::data::CacheBlock;
    /// let block = CacheBlock::from_f32(&[1.5, -2.25]);
    /// assert_eq!(block.as_f32(), vec![1.5, -2.25]);
    /// ```
    pub fn from_f32(values: &[f32]) -> Self {
        let bits = values.iter().map(|v| v.to_bits());
        CacheBlock(Line::collect(bits, Meta::new(DataType::F32, true)))
    }

    /// Creates a block from `i32` values, marked approximable.
    ///
    /// # Panics
    ///
    /// If `values` holds more than [`BLOCK_WORDS`] values.
    pub fn from_i32(values: &[i32]) -> Self {
        let words = values.iter().map(|v| *v as u32);
        CacheBlock(Line::collect(words, Meta::new(DataType::Int, true)))
    }

    /// Appends a word.
    ///
    /// # Panics
    ///
    /// If the block already holds [`BLOCK_WORDS`] words.
    #[inline]
    pub fn push(&mut self, word: u32) {
        self.0.push(word);
    }

    /// The words of the block.
    #[inline]
    pub fn words(&self) -> &[u32] {
        self.0.as_slice()
    }

    /// Mutable access to the words of the block.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u32] {
        self.0.as_mut_slice()
    }

    /// Number of words in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().len()
    }

    /// Whether the block holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().is_empty()
    }

    /// Size of the (uncompressed) block in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.len() * WORD_BYTES
    }

    /// Size of the (uncompressed) block in bits.
    #[inline]
    pub fn size_bits(&self) -> u64 {
        self.len() as u64 * WORD_BITS as u64
    }

    /// The data type shared by all words of the block.
    #[inline]
    pub fn dtype(&self) -> DataType {
        self.0.meta().dtype
    }

    /// Whether the compiler/programmer annotated this block as safe to
    /// approximate. Non-approximable blocks bypass the VAXX engine entirely.
    #[inline]
    pub fn is_approximable(&self) -> bool {
        self.0.meta().approximable
    }

    /// Overrides the approximable flag, returning the modified block.
    #[must_use]
    pub fn with_approximable(mut self, approximable: bool) -> Self {
        self.0.meta_mut().approximable = approximable;
        self
    }

    /// Overrides the data type and the approximable flag, returning the
    /// modified block.
    #[must_use]
    pub fn with_meta(mut self, dtype: DataType, approximable: bool) -> Self {
        *self.0.meta_mut() = Meta::new(dtype, approximable);
        self
    }

    /// Interprets the words as `f32` values.
    pub fn as_f32(&self) -> Vec<f32> {
        self.words().iter().map(|w| f32::from_bits(*w)).collect()
    }

    /// Interprets the words as `i32` values.
    pub fn as_i32(&self) -> Vec<i32> {
        self.words().iter().map(|w| *w as i32).collect()
    }
}

/// The words as a list, then the data type and the flag.
impl Snap for CacheBlock {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Line::load(r).map(CacheBlock)
    }
}

/// Appends the words in order.
///
/// # Panics
///
/// If the block would hold more than [`BLOCK_WORDS`] words.
impl Extend<u32> for CacheBlock {
    #[inline]
    fn extend<I: IntoIterator<Item = u32>>(&mut self, words: I) {
        self.0.extend(words);
    }
}

/// Prints the words, the data type and the flag.
impl fmt::Debug for CacheBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheBlock")
            .field("words", &self.words())
            .field("dtype", &self.dtype())
            .field("approximable", &self.is_approximable())
            .finish()
    }
}

impl fmt::Display for CacheBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheBlock[{} x {} words{}]",
            self.len(),
            self.dtype(),
            if self.is_approximable() {
                ", approx"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_roundtrips_f32() {
        let vals = [0.0f32, 1.5, -3.25, f32::MIN_POSITIVE];
        let block = CacheBlock::from_f32(&vals);
        assert_eq!(block.as_f32(), vals);
        assert_eq!(block.dtype(), DataType::F32);
        assert!(block.is_approximable());
    }

    #[test]
    fn block_roundtrips_i32() {
        let vals = [0i32, -1, i32::MAX, i32::MIN, 42];
        let block = CacheBlock::from_i32(&vals);
        assert_eq!(block.as_i32(), vals);
    }

    #[test]
    fn precise_block_is_not_approximable() {
        let block = CacheBlock::precise(vec![1, 2, 3]);
        assert!(!block.is_approximable());
        assert!(block.with_approximable(true).is_approximable());
    }

    #[test]
    fn sizes() {
        let block = CacheBlock::from_i32(&[0; 16]);
        assert_eq!(block.size_bytes(), 64);
        assert_eq!(block.size_bits(), 512);
        assert!(!block.is_empty());
        assert!(CacheBlock::precise(vec![]).is_empty());
    }

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(7);
        assert_eq!(n.to_string(), "n7");
        assert_eq!(n.index(), 7);
        assert_eq!(NodeId::from(7usize), NodeId::from(7u16));
    }
}
