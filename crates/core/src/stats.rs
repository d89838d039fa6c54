//! One written field order per stats record.
//!
//! [`stats_record!`](crate::stats_record) declares a record and derives from
//! its declaration everything that walks its fields: the `[u64; N]` view of
//! its `u64` counters (which the text cache payload writes), the snapshot
//! `save_state`/`load_state`, and `merge` for a record of counters alone. A
//! field that is not a `u64` — a nested record or an accumulator — takes part
//! through [`StatField`]. No serializer restates a record's field list, so
//! adding a counter is one line.

use crate::snap::{SnapError, SnapReader, SnapWriter};

/// A field of a stats record: a `u64` counter, a nested record or an
/// accumulator. Records snapshot field by field through it.
pub trait StatField: Sized {
    /// Writes the field to a snapshot.
    fn save(&self, w: &mut SnapWriter);
    /// Reads a field written by [`save`](Self::save).
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl StatField for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

/// Declares a stats record: a struct of `pub` fields whose `u64` fields are
/// counters. Declaration order is the only field order. The macro adds
///
/// * `COUNTERS`, `counters()` and `from_counters()`: the `u64` fields as a
///   `[u64; COUNTERS]` array in declaration order, and back (every other
///   field at its default);
/// * `save_state` and `load_state`, which visit every field in declaration
///   order through [`StatField`];
/// * a [`StatField`] impl, so a record can nest in another;
/// * `merge`, which adds up the counters, when every field is a counter.
///
/// ```
/// anoc_core::stats_record! {
///     /// Two counters and a nested record.
///     #[derive(Debug, Clone, Copy, Default, PartialEq)]
///     pub struct Example {
///         /// First counter.
///         pub hits: u64,
///         /// Nested record.
///         pub encode: anoc_core::EncodeStats,
///         /// Second counter.
///         pub misses: u64,
///     }
/// }
/// let e = Example::from_counters([1, 2]);
/// assert_eq!((e.hits, e.misses), (1, 2));
/// assert_eq!(e.counters(), [1, 2]);
/// ```
#[macro_export]
macro_rules! stats_record {
    ($(#[$attr:meta])* pub struct $name:ident { $($body:tt)* }) => {
        $crate::stats_record!(@split [$(#[$attr])* pub struct $name] [] [] [] [] $($body)*);
    };
    // A `u64` field is a counter.
    (@split $head:tt [$($decl:tt)*] [$($field:ident)*] [$($counter:ident)*] $other:tt
        $(#[$fattr:meta])* pub $f:ident: u64, $($rest:tt)*) => {
        $crate::stats_record!(@split $head [$($decl)* $(#[$fattr])* pub $f: u64,]
            [$($field)* $f] [$($counter)* $f] $other $($rest)*);
    };
    // Any other field is a nested record or an accumulator.
    (@split $head:tt [$($decl:tt)*] [$($field:ident)*] $counters:tt [$($other:ident)*]
        $(#[$fattr:meta])* pub $f:ident: $ty:ty, $($rest:tt)*) => {
        $crate::stats_record!(@split $head [$($decl)* $(#[$fattr])* pub $f: $ty,]
            [$($field)* $f] $counters [$($other)* $f] $($rest)*);
    };
    // A record of counters alone also merges.
    (@split [$(#[$attr:meta])* pub struct $name:ident] $decl:tt $fields:tt
        [$($counter:ident)*] []) => {
        $crate::stats_record!(@emit [$(#[$attr])* pub struct $name] $decl $fields
            [$($counter)*]);

        impl $name {
            /// Adds `other`'s counters into this record.
            pub fn merge(&mut self, other: &Self) {
                $(self.$counter += other.$counter;)*
            }
        }
    };
    (@split $head:tt $decl:tt $fields:tt $counters:tt $other:tt) => {
        $crate::stats_record!(@emit $head $decl $fields $counters);
    };
    (@emit [$(#[$attr:meta])* pub struct $name:ident] [$($decl:tt)*]
        [$($field:ident)*] [$($counter:ident)*]) => {
        $(#[$attr])*
        pub struct $name {
            $($decl)*
        }

        impl $name {
            /// Number of `u64` counters.
            pub const COUNTERS: usize = [$(stringify!($counter)),*].len();

            /// The `u64` counters in declaration order.
            pub fn counters(&self) -> [u64; Self::COUNTERS] {
                [$(self.$counter),*]
            }

            /// A record holding `counters` in declaration order, with every
            /// other field at its default.
            #[allow(clippy::needless_update)]
            pub fn from_counters(counters: [u64; Self::COUNTERS]) -> Self {
                let [$($counter),*] = counters;
                Self {
                    $($counter,)*
                    ..Default::default()
                }
            }

            /// Writes every field to a snapshot, in declaration order.
            pub fn save_state(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::stats::StatField::save(&self.$field, w);)*
            }

            /// Reads a record written by [`save_state`](Self::save_state).
            pub fn load_state(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                $(let $field = $crate::stats::StatField::load(r)?;)*
                Ok(Self { $($field),* })
            }
        }

        impl $crate::stats::StatField for $name {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                self.save_state(w);
            }

            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Self::load_state(r)
            }
        }
    };
}
