//! Inline storage for the words or codes of one cache line.
//!
//! The NIs move fixed 64-byte lines (Table 1 of the paper): sixteen 4-byte
//! words, which no codec turns into more than sixteen codes. A [`Line`]
//! keeps up to [`BLOCK_WORDS`] entries in place, beside the block's metadata,
//! so making, encoding and decoding a line allocates nothing. A line holds
//! no more: the constructors assert the capacity, and a snapshot that
//! declares a longer line is refused.

use crate::data::{DataType, BLOCK_WORDS};
use crate::snap::{load_list, save_list, Snap, SnapError, SnapReader, SnapWriter};

/// An entry a line can hold; `FILL` occupies its unused slots.
pub(crate) trait Entry: Copy {
    /// The value of a slot past the line's length.
    const FILL: Self;
}

impl Entry for u32 {
    const FILL: u32 = 0;
}

crate::snap_record! {
    /// The metadata a block carries beside its entries.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Meta {
        pub(crate) dtype: DataType,
        pub(crate) approximable: bool,
    }
}

impl Meta {
    pub(crate) fn new(dtype: DataType, approximable: bool) -> Self {
        Meta {
            dtype,
            approximable,
        }
    }
}

/// Up to [`BLOCK_WORDS`] entries in place. The metadata and the length sit
/// in the array's alignment padding, so a line of 4-byte words takes 68
/// bytes and one of 8-byte codes 132.
#[derive(Clone)]
pub(crate) struct Line<T: Entry> {
    meta: Meta,
    len: u8,
    items: [T; BLOCK_WORDS],
}

impl<T: Entry> Line<T> {
    /// An empty line.
    pub(crate) fn new(meta: Meta) -> Self {
        Line {
            meta,
            len: 0,
            items: [T::FILL; BLOCK_WORDS],
        }
    }

    /// A line holding `items`, in order.
    ///
    /// # Panics
    ///
    /// If there are more than [`BLOCK_WORDS`] items.
    pub(crate) fn collect(
        items: impl IntoIterator<Item = T, IntoIter: ExactSizeIterator>,
        meta: Meta,
    ) -> Self {
        let mut iter = items.into_iter();
        let len = iter.len();
        assert!(len <= BLOCK_WORDS, "a line holds {BLOCK_WORDS} entries");
        Line {
            meta,
            len: len as u8,
            items: std::array::from_fn(|_| iter.next().unwrap_or(T::FILL)),
        }
    }

    /// The first `len` entries of `items`, moved in whole. A `len` past
    /// [`BLOCK_WORDS`] is taken as [`BLOCK_WORDS`].
    #[inline]
    pub(crate) fn prefix(items: [T; BLOCK_WORDS], len: usize, meta: Meta) -> Self {
        debug_assert!(len <= BLOCK_WORDS, "a line holds {BLOCK_WORDS} entries");
        Line {
            meta,
            len: len.min(BLOCK_WORDS) as u8,
            items,
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// If the line already holds [`BLOCK_WORDS`] entries.
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        self.items[usize::from(self.len)] = item;
        self.len += 1;
    }

    /// Appends every item of `iter`, with the length kept in a local, so a
    /// line's worth of items costs no more than a slice copy.
    ///
    /// # Panics
    ///
    /// If the items overrun [`BLOCK_WORDS`] entries.
    #[inline]
    pub(crate) fn extend(&mut self, iter: impl IntoIterator<Item = T>) {
        let mut iter = iter.into_iter();
        let mut n = usize::from(self.len);
        for slot in self.items.iter_mut().skip(n) {
            let Some(item) = iter.next() else { break };
            *slot = item;
            n += 1;
        }
        self.len = n as u8;
        assert!(iter.next().is_none(), "a line holds {BLOCK_WORDS} entries");
    }

    /// The entries, in order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }

    /// The entries, mutably; the length stays fixed.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..usize::from(self.len)]
    }

    /// The block's metadata.
    #[inline]
    pub(crate) fn meta(&self) -> Meta {
        self.meta
    }

    /// The block's metadata, mutably.
    #[inline]
    pub(crate) fn meta_mut(&mut self) -> &mut Meta {
        &mut self.meta
    }
}

/// The entries as a list, then the metadata. A list longer than
/// [`BLOCK_WORDS`] is refused as `Invalid("block length")` before any entry
/// is read.
impl<T: Entry + Snap> Snap for Line<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_list(w, self.as_slice());
        self.meta.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut line = Line::new(Meta::new(DataType::Int, false));
        load_list(r, BLOCK_WORDS, "block length", |x| line.push(x))?;
        line.meta = Meta::load(r)?;
        Ok(line)
    }
}

/// Equal when the entries and the metadata are: the slots past the line's
/// length take no part.
impl<T: Entry + PartialEq> PartialEq for Line<T> {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta && self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: Meta = Meta {
        dtype: DataType::Int,
        approximable: true,
    };

    #[test]
    fn equality_ignores_the_unused_slots() {
        let mut a = Line::collect([1u32, 2, 3], META);
        let b = Line::collect([1u32, 2, 3], META);
        a.items[BLOCK_WORDS - 1] = 7;
        assert!(a == b);
        a.meta_mut().approximable = false;
        assert!(a != b);
    }
}
