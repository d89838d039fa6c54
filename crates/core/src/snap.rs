//! Little-endian binary serialization for simulator snapshots.
//!
//! The snapshot format (DESIGN.md §11) is a flat, versioned byte stream:
//! every multi-byte integer is written little-endian regardless of host
//! byte order, floats travel as the raw bits of their IEEE-754
//! representation, and lists are length-prefixed. [`SnapWriter`] and
//! [`SnapReader`] are the primitives; keeping them this small is what makes
//! the endian-stability argument auditable. Reads are total: a truncated or
//! malformed stream yields a typed [`SnapError`], never a panic.
//!
//! [`Snap`] gives each type one encoding, written once: the primitives,
//! `Option`, lists and pairs here, and every record whose load only reads
//! its fields back through [`snap_record!`](crate::snap_record), which
//! derives both directions from the record's declaration. A load that must
//! check a value against the simulator's geometry stays hand-written, but
//! reads and writes its values through these impls.

use std::fmt;

/// A typed failure while reading a snapshot stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the expected field.
    Truncated,
    /// A field decoded to a value the target struct cannot hold.
    Invalid(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot stream truncated"),
            SnapError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends little-endian primitives to a growing byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, yielding the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the on-disk width is host-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes an `f64` as the bits of its IEEE-754 representation, so the
    /// round trip is bit-exact (including NaN payloads and signed zeros).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes raw bytes verbatim (the caller is responsible for framing).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Reads little-endian primitives from a byte slice, tracking position.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the whole stream has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` stored as a `u64`, rejecting values the host cannot
    /// index with.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Invalid("usize overflow"))
    }

    /// Reads a bool stored as one byte; any value other than 0/1 is invalid.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid("bool byte")),
        }
    }

    /// Reads an `f64` stored as IEEE-754 bits.
    pub fn f64_bits(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }
}

/// A value with one snapshot encoding: [`load`](Self::load) reads back
/// exactly what [`save`](Self::save) writes.
pub trait Snap: Sized {
    /// Writes the value to a snapshot.
    fn save(&self, w: &mut SnapWriter);
    /// Reads a value written by [`save`](Self::save).
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Primitives whose writer and reader methods share the type's name.
macro_rules! primitive {
    ($($ty:ident),*) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$ty(*self);
            }

            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$ty()
            }
        }
    )*};
}

primitive!(u8, u32, u64, usize, bool);

/// The bits of its IEEE-754 representation.
impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.f64_bits(*self);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f64_bits()
    }
}

/// A `u32`, rejected above `u16::MAX`.
impl Snap for u16 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(u32::from(*self));
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        u16::try_from(r.u32()?).map_err(|_| SnapError::Invalid("u16 overflow"))
    }
}

/// The bits of its two's-complement representation, as a `u32`.
impl Snap for i32 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(*self as u32);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u32()? as i32)
    }
}

/// A presence flag, then the value if present.
impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

/// Both values, in order.
impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

/// The longest [`Vec`] a snapshot may declare.
const MAX_LIST: usize = 1 << 24;

/// A list (see [`save_list`]) of at most 2^24 values.
impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_list(w, self);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut v = Vec::new();
        load_list(r, MAX_LIST, "list length", |x| v.push(x))?;
        Ok(v)
    }
}

/// Writes `items` as a list: their count as a `usize`, then each in order.
pub fn save_list<T: Snap>(w: &mut SnapWriter, items: &[T]) {
    w.usize(items.len());
    items.iter().for_each(|x| x.save(w));
}

/// Reads a list written by [`save_list`], handing each value to `push`. A
/// count above `max` fails as `what` before any value is read, so a corrupt
/// count allocates nothing in proportion to it.
pub fn load_list<T: Snap>(
    r: &mut SnapReader<'_>,
    max: usize,
    what: &'static str,
    mut push: impl FnMut(T),
) -> Result<(), SnapError> {
    let n = r.usize()?;
    if n > max {
        return Err(SnapError::Invalid(what));
    }
    for _ in 0..n {
        push(T::load(r)?);
    }
    Ok(())
}

/// Declares a record — a struct, or an enum whose variants are units or
/// carry named fields — and derives its [`Snap`] impl from the declaration:
/// a struct is its fields in declaration order; an enum is its variant's
/// declaration index as a `u8` tag, then that variant's fields in order.
/// The declaration is the only field list, so the blob cannot drift from
/// it, and a record's field order is part of the snapshot format.
///
/// ```
/// use anoc_core::snap::{Snap, SnapReader, SnapWriter};
///
/// anoc_core::snap_record! {
///     /// A shape.
///     #[derive(Debug, PartialEq)]
///     pub enum Shape {
///         /// Tag 0: no fields.
///         Dot,
///         /// Tag 1, then the side.
///         Square { side: u32 },
///     }
/// }
///
/// let mut w = SnapWriter::new();
/// Shape::Square { side: 7 }.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, [1, 7, 0, 0, 0]);
/// let back = Shape::load(&mut SnapReader::new(&bytes));
/// assert_eq!(back, Ok(Shape::Square { side: 7 }));
/// ```
#[macro_export]
macro_rules! snap_record {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fattr:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$fattr])* $fvis $field: $ty,)*
        }

        impl $crate::snap::Snap for $name {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap::Snap::save(&self.$field, w);)*
            }

            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                // Struct-literal fields evaluate in source order.
                Ok(Self { $($field: $crate::snap::Snap::load(r)?,)* })
            }
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vattr:meta])* $variant:ident
                $({ $($(#[$fattr:meta])* $field:ident: $ty:ty),* $(,)? })?),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$vattr])* $variant $({ $($(#[$fattr])* $field: $ty,)* })?,)*
        }

        const _: () = {
            /// The tags: declaration indices.
            #[repr(u8)]
            enum Tag {
                $($variant,)*
            }

            impl $crate::snap::Snap for $name {
                fn save(&self, w: &mut $crate::snap::SnapWriter) {
                    match self {
                        $(Self::$variant $({ $($field,)* })? => {
                            w.u8(Tag::$variant as u8);
                            $($($crate::snap::Snap::save($field, w);)*)?
                        })*
                    }
                }

                fn load(
                    r: &mut $crate::snap::SnapReader<'_>,
                ) -> Result<Self, $crate::snap::SnapError> {
                    let tag = r.u8()?;
                    $(if tag == Tag::$variant as u8 {
                        return Ok(Self::$variant
                            $({ $($field: $crate::snap::Snap::load(r)?,)* })?);
                    })*
                    Err($crate::snap::SnapError::Invalid(concat!(
                        stringify!($name),
                        " tag"
                    )))
                }
            }
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.usize(12345);
        w.bool(true);
        w.bool(false);
        w.f64_bits(-0.0);
        w.f64_bits(f64::NAN);
        w.bytes(b"tail");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 3));
        assert_eq!(r.usize(), Ok(12345));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.f64_bits().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.f64_bits().map(f64::is_nan), Ok(true));
        assert_eq!(r.bytes(4), Ok(&b"tail"[..]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn layout_is_little_endian() {
        let mut w = SnapWriter::new();
        w.u32(0x0102_0304);
        assert_eq!(w.into_bytes(), vec![4, 3, 2, 1]);
    }

    #[test]
    fn truncation_is_typed_not_panicking() {
        let mut r = SnapReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(SnapError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.bytes(2), Err(SnapError::Truncated));
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(r.bool(), Err(SnapError::Invalid(_))));
        let mut w = SnapWriter::new();
        assert!(w.is_empty());
        w.u64(u64::MAX);
        assert_eq!(w.len(), 8);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.usize().or(Ok::<usize, SnapError>(0)).is_ok());
        let err = SnapError::Invalid("x");
        assert!(err.to_string().contains("invalid"));
        assert!(SnapError::Truncated.to_string().contains("truncated"));
    }

    fn bytes_of(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn impls_write_their_documented_widths() {
        assert_eq!(bytes_of(&0x1234u16), [0x34, 0x12, 0, 0]);
        assert_eq!(bytes_of(&-2i32), [0xfe, 0xff, 0xff, 0xff]);
        assert_eq!(bytes_of(&Some(5u8)), [1, 5]);
        assert_eq!(bytes_of(&None::<u8>), [0]);
        assert_eq!(bytes_of(&vec![(1u8, true)]), [1, 0, 0, 0, 0, 0, 0, 0, 1, 1]);
        let bytes = bytes_of(&vec![Some(-7i32), None]);
        let back = Vec::<Option<i32>>::load(&mut SnapReader::new(&bytes));
        assert_eq!(back, Ok(vec![Some(-7), None]));
    }

    #[test]
    fn out_of_range_values_are_typed_errors() {
        let wide = bytes_of(&(u32::from(u16::MAX) + 1));
        assert!(matches!(
            u16::load(&mut SnapReader::new(&wide)),
            Err(SnapError::Invalid(_))
        ));
        // A count past the cap fails before any element is read.
        let long = bytes_of(&(MAX_LIST + 1));
        let err = Vec::<u8>::load(&mut SnapReader::new(&long));
        assert_eq!(err, Err(SnapError::Invalid("list length")));
        let short = bytes_of(&MAX_LIST);
        let err = Vec::<u8>::load(&mut SnapReader::new(&short));
        assert_eq!(err, Err(SnapError::Truncated));
    }
}
