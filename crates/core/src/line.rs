//! Inline storage for the words or codes of one cache line.
//!
//! The NIs move fixed 64-byte lines (Table 1 of the paper): sixteen 4-byte
//! words, which no codec turns into more than sixteen codes. A [`Line`]
//! keeps up to [`BLOCK_WORDS`] entries in place, beside the block's metadata,
//! so making, encoding and decoding a line allocates nothing. Longer
//! sequences (cachesim lines of another size, tests) spill to the heap. The
//! form depends on the length alone: a line holds at most [`BLOCK_WORDS`]
//! entries exactly when it is inline.

use crate::data::{DataType, BLOCK_WORDS};
use crate::snap::{load_list, save_list, Snap, SnapError, SnapReader, SnapWriter};

/// An entry a line can hold inline; `FILL` occupies its unused slots.
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

/// Up to [`BLOCK_WORDS`] entries in place, or a longer list on the heap.
/// The metadata sits inside each variant, in the inline form's padding, so a
/// line of 4-byte words takes 72 bytes and one of 8-byte codes 136. The
/// `u8` tag lays each variant out in declaration order, so the metadata has
/// one offset in both and reading it needs no branch.
#[derive(Clone)]
#[repr(u8)]
pub(crate) enum Line<T: Entry> {
    Inline {
        meta: Meta,
        len: u8,
        items: [T; BLOCK_WORDS],
    },
    Spilled {
        meta: Meta,
        items: Vec<T>,
    },
}

impl<T: Entry> Line<T> {
    /// An empty line.
    pub(crate) fn new(meta: Meta) -> Self {
        Line::Inline {
            len: 0,
            meta,
            items: [T::FILL; BLOCK_WORDS],
        }
    }

    /// A line holding the items of `iter`, in order.
    pub(crate) fn collect(mut iter: impl ExactSizeIterator<Item = T>, meta: Meta) -> Self {
        if iter.len() > BLOCK_WORDS {
            return Line::Spilled {
                meta,
                items: iter.collect(),
            };
        }
        let len = iter.len() as u8;
        Line::Inline {
            len,
            meta,
            items: std::array::from_fn(|_| iter.next().unwrap_or(T::FILL)),
        }
    }

    /// A line taking over `items`: kept as it is when it spills, copied in
    /// place (and freed) otherwise.
    pub(crate) fn from_vec(items: Vec<T>, meta: Meta) -> Self {
        if items.len() > BLOCK_WORDS {
            Line::Spilled { meta, items }
        } else {
            Line::collect(items.into_iter(), meta)
        }
    }

    /// The first `len` entries of `items`, moved in whole. A `len` past
    /// [`BLOCK_WORDS`] is taken as [`BLOCK_WORDS`].
    #[inline]
    pub(crate) fn prefix(items: [T; BLOCK_WORDS], len: usize, meta: Meta) -> Self {
        debug_assert!(len <= BLOCK_WORDS, "a line holds {BLOCK_WORDS} entries");
        Line::Inline {
            len: len.min(BLOCK_WORDS) as u8,
            meta,
            items,
        }
    }

    /// Appends `item`, spilling to the heap when the line outgrows
    /// [`BLOCK_WORDS`].
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        if let Line::Inline { len, items, .. } = self {
            if let Some(slot) = items.get_mut(usize::from(*len)) {
                *slot = item;
                *len += 1;
                return;
            }
        }
        self.push_spilled(item);
    }

    /// Appends every item of `iter`. The inline part is filled with the
    /// length kept in a local, so a line's worth of items costs no more than
    /// a slice copy; only items past [`BLOCK_WORDS`] go through the spill.
    #[inline]
    pub(crate) fn extend(&mut self, iter: impl IntoIterator<Item = T>) {
        let mut iter = iter.into_iter();
        if let Line::Inline { len, items, .. } = self {
            let mut n = usize::from(*len);
            for slot in items.iter_mut().skip(n) {
                let Some(item) = iter.next() else { break };
                *slot = item;
                n += 1;
            }
            *len = n as u8;
        }
        for item in iter {
            self.push(item);
        }
    }

    /// [`push`](Self::push) past the inline capacity: out of line, so the
    /// inline path stays a compare and a store.
    #[cold]
    #[inline(never)]
    fn push_spilled(&mut self, item: T) {
        match self {
            Line::Inline { meta, items, .. } => {
                let meta = *meta;
                let mut spilled = Vec::with_capacity(2 * BLOCK_WORDS);
                spilled.extend_from_slice(items);
                spilled.push(item);
                *self = Line::Spilled {
                    meta,
                    items: spilled,
                };
            }
            Line::Spilled { items, .. } => items.push(item),
        }
    }

    /// The entries, in order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Line::Inline { len, items, .. } => &items[..usize::from(*len)],
            Line::Spilled { items, .. } => items,
        }
    }

    /// The entries, mutably; the length stays fixed.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Line::Inline { len, items, .. } => &mut items[..usize::from(*len)],
            Line::Spilled { items, .. } => items,
        }
    }

    /// The block's metadata.
    #[inline]
    pub(crate) fn meta(&self) -> Meta {
        match self {
            Line::Inline { meta, .. } | Line::Spilled { meta, .. } => *meta,
        }
    }

    /// The block's metadata, mutably.
    #[inline]
    pub(crate) fn meta_mut(&mut self) -> &mut Meta {
        match self {
            Line::Inline { meta, .. } | Line::Spilled { meta, .. } => meta,
        }
    }
}

/// The longest line a snapshot may declare.
const MAX_SNAPSHOT_LEN: usize = 1 << 16;

/// The entries as a list, then the metadata. A load pushes entries one at a
/// time, so a line that fits stays inline.
impl<T: Entry + Snap> Snap for Line<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_list(w, self.as_slice());
        self.meta().save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut line = Line::new(Meta::new(DataType::Int, false));
        load_list(r, MAX_SNAPSHOT_LEN, "block length", |x| line.push(x))?;
        *line.meta_mut() = Meta::load(r)?;
        Ok(line)
    }
}

/// Equal when the entries and the metadata are: the slots past an inline
/// line's length take no part.
impl<T: Entry + PartialEq> PartialEq for Line<T> {
    fn eq(&self, other: &Self) -> bool {
        self.meta() == other.meta() && self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: Meta = Meta {
        dtype: DataType::Int,
        approximable: true,
    };

    fn is_inline(line: &Line<u32>) -> bool {
        matches!(line, Line::Inline { .. })
    }

    #[test]
    fn the_form_follows_the_length() {
        let mut line = Line::new(META);
        for n in 0..40u32 {
            assert_eq!(is_inline(&line), line.as_slice().len() <= BLOCK_WORDS);
            line.push(n);
        }
        assert_eq!(line.as_slice(), (0..40).collect::<Vec<u32>>());
        // An extend that crosses the capacity fills the inline slots first.
        let mut line = Line::collect(0..10u32, META);
        line.extend(10..30);
        assert!(!is_inline(&line));
        assert_eq!(line.as_slice(), (0..30).collect::<Vec<u32>>());
        for n in 0..40 {
            let items: Vec<u32> = (0..n).collect();
            let inline = n as usize <= BLOCK_WORDS;
            assert_eq!(is_inline(&Line::from_vec(items.clone(), META)), inline);
            assert_eq!(
                is_inline(&Line::collect(items.iter().copied(), META)),
                inline
            );
        }
    }

    #[test]
    fn equality_ignores_the_unused_slots() {
        let mut a = Line::collect([1u32, 2, 3].into_iter(), META);
        let b = Line::collect([1u32, 2, 3].into_iter(), META);
        if let Line::Inline { items, .. } = &mut a {
            items[BLOCK_WORDS - 1] = 7;
        }
        assert!(a == b);
        a.meta_mut().approximable = false;
        assert!(a != b);
    }
}
