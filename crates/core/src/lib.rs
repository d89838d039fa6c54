//! # anoc-core
//!
//! Core data model and the **VAXX** approximate value compute logic (AVCL) of
//! the APPROX-NoC framework (Boyapati et al., ISCA 2017).
//!
//! This crate is dependency-free and hosts everything the rest of the
//! workspace shares:
//!
//! * [`data`] — words, cache blocks, data types and approximability metadata;
//! * [`threshold`] — the error-threshold abstraction (`e%` → shift bits);
//! * [`avcl`] — the Approximate Value Compute Logic: error ranges, don't-care
//!   masks, integer and float-mantissa approximation;
//! * [`codec`] — the `BlockEncoder`/`BlockDecoder` traits every compression
//!   mechanism implements, plus the encoded network representation;
//! * [`metrics`] — error/quality/compression accumulators;
//! * [`rng`] — a tiny deterministic PCG random number generator so that whole
//!   simulations are pure functions of a `u64` seed;
//! * [`snap`] — endian-stable binary primitives for simulator snapshots;
//! * [`stats`] — [`stats_record!`], which gives each stats record one
//!   written field order for its counters, snapshot and merge.
//!
//! ## Example
//!
//! Approximate a word within a 10% error threshold:
//!
//! ```
//! use anoc_core::avcl::Avcl;
//! use anoc_core::data::DataType;
//! use anoc_core::threshold::ErrorThreshold;
//!
//! let t = ErrorThreshold::from_percent(10).unwrap();
//! let avcl = Avcl::new(t);
//! let pattern = avcl.approx_pattern(1000, DataType::Int);
//! // 1000 with a 10% threshold tolerates an error range of 1000 >> 4 = 62,
//! // so the low 5 bits become don't-cares (2^5 - 1 = 31 <= 62).
//! assert_eq!(pattern.dont_care_bits(), 5);
//! assert!(pattern.matches(1000 ^ 0b11111));
//! assert!(!pattern.matches(2000));
//! ```

#![warn(missing_docs)]
// Sim-critical crate (DESIGN.md §6): no wall clock or hash-ordered
// collection anywhere (lists in clippy.toml), and no panics, exact float
// comparisons or console output outside `#[cfg(test)]` code.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod avcl;
pub mod codec;
pub mod control;
pub mod data;
mod line;
pub mod metrics;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod threshold;

pub use avcl::{ApproxPattern, Avcl, MaskPolicy};
pub use codec::{BlockDecoder, BlockEncoder, EncodeStats, EncodedBlock, Notification, WordCode};
pub use control::QualityController;
pub use data::{CacheBlock, DataType, NodeId, BLOCK_WORDS, WORD_BYTES};
pub use threshold::ErrorThreshold;
