//! One written field order per stats record.
//!
//! [`stats_record!`](crate::stats_record) declares a record and derives from
//! its declaration everything that walks its fields: the `[u64; N]` view of
//! its `u64` counters (which the text cache payload writes), the snapshot
//! encoding (through [`snap_record!`](crate::snap_record)), and `merge` for a
//! record of counters alone. A field that is not a `u64` — a nested record
//! or an accumulator — snapshots through its own [`Snap`](crate::snap::Snap)
//! impl. No serializer restates a record's field list, so adding a counter
//! is one line.

// A stats-accumulation path: a counter narrowed by an `as` cast loses
// high-traffic runs silently (DESIGN.md §6, C003).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

/// Declares a stats record: a struct of `pub` fields whose `u64` fields are
/// counters. Declaration order is the only field order. The macro adds
///
/// * `COUNTERS`, `counters()` and `from_counters()`: the `u64` fields as a
///   `[u64; COUNTERS]` array in declaration order, and back (every other
///   field at its default);
/// * a [`Snap`](crate::snap::Snap) impl, which visits every field in
///   declaration order, so a record snapshots and nests in another;
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
        $crate::stats_record!(@split [$(#[$attr])* pub struct $name] [] [] [] $($body)*);
    };
    // A `u64` field is a counter.
    (@split $head:tt [$($decl:tt)*] [$($counter:ident)*] $other:tt
        $(#[$fattr:meta])* pub $f:ident: u64, $($rest:tt)*) => {
        $crate::stats_record!(@split $head [$($decl)* $(#[$fattr])* pub $f: u64,]
            [$($counter)* $f] $other $($rest)*);
    };
    // Any other field is a nested record or an accumulator.
    (@split $head:tt [$($decl:tt)*] $counters:tt [$($other:ident)*]
        $(#[$fattr:meta])* pub $f:ident: $ty:ty, $($rest:tt)*) => {
        $crate::stats_record!(@split $head [$($decl)* $(#[$fattr])* pub $f: $ty,]
            $counters [$($other)* $f] $($rest)*);
    };
    // A record of counters alone also merges.
    (@split [$(#[$attr:meta])* pub struct $name:ident] $decl:tt [$($counter:ident)*] []) => {
        $crate::stats_record!(@emit [$(#[$attr])* pub struct $name] $decl [$($counter)*]);

        impl $name {
            /// Adds `other`'s counters into this record.
            pub fn merge(&mut self, other: &Self) {
                $(self.$counter += other.$counter;)*
            }
        }
    };
    (@split $head:tt $decl:tt $counters:tt $other:tt) => {
        $crate::stats_record!(@emit $head $decl $counters);
    };
    (@emit [$(#[$attr:meta])* pub struct $name:ident] [$($decl:tt)*]
        [$($counter:ident)*]) => {
        $crate::snap_record! {
            $(#[$attr])*
            pub struct $name {
                $($decl)*
            }
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
            #[allow(
                clippy::needless_update,
                reason = "records whose every field is a counter leave nothing to default"
            )]
            pub fn from_counters(counters: [u64; Self::COUNTERS]) -> Self {
                let [$($counter),*] = counters;
                Self {
                    $($counter,)*
                    ..Default::default()
                }
            }
        }
    };
}
