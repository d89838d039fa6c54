//! # anoc-compression
//!
//! NoC data-compression mechanisms and their VAXX approximate variants, as
//! evaluated in APPROX-NoC (ISCA 2017):
//!
//! * [`fpc`] — the static frequent-pattern table (Figure 5) with masked
//!   approximate matching (Figure 6);
//! * [`fp`] — the FP-COMP and FP-VAXX block codecs (§4.1);
//! * [`dictionary`] — encoder/decoder pattern-matching tables with the
//!   install/invalidate notification protocol (Figures 7–8);
//! * [`di`] — the DI-COMP and DI-VAXX block codecs (§4.2);
//! * [`bd`] — BD-COMP and BD-VAXX base-delta codecs (the plug-and-play
//!   extension over Zhan et al.'s cited mechanism);
//! * [`lz`] — the LZ-VAXX streaming approximate-LZ codec: cross-word
//!   back-references within a cache block, confirmed word-by-word against
//!   AVCL don't-care patterns;
//! * [`adaptive`] — Jin et al.'s on/off compression controller, wrappable
//!   around any encoder;
//! * [`cam`] — CAM/TCAM throughput, energy and area models (§4.3, §5.5).
//!
//! All codecs implement the [`anoc_core::codec::BlockEncoder`] /
//! [`anoc_core::codec::BlockDecoder`] traits, so the NI can host any of them
//! interchangeably — the "plug and play" property of the VAXX engine.
//!
//! ## Example
//!
//! ```
//! use anoc_compression::fp::{FpDecoder, FpEncoder};
//! use anoc_core::avcl::Avcl;
//! use anoc_core::codec::{BlockDecoder, BlockEncoder};
//! use anoc_core::data::{CacheBlock, NodeId};
//! use anoc_core::threshold::ErrorThreshold;
//!
//! let avcl = Avcl::new(ErrorThreshold::from_percent(10)?);
//! let mut encoder = FpEncoder::fp_vaxx(avcl);
//! let mut decoder = FpDecoder::new();
//!
//! let block = CacheBlock::from_i32(&[0, 0, 120, -7, 30_000, 65_543, 0, 0]);
//! let encoded = encoder.encode(&block, NodeId(1));
//! assert!(encoded.payload_bits() < block.size_bits() as u32);
//!
//! let decoded = decoder.decode(&encoded, NodeId(0)).block;
//! assert_eq!(decoded.len(), block.len());
//! # Ok::<(), anoc_core::threshold::ThresholdError>(())
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

pub mod adaptive;
pub mod bd;
pub mod cam;
pub mod di;
pub mod dictionary;
pub mod fp;
pub mod fpc;
pub mod lz;

pub use adaptive::AdaptiveEncoder;
pub use bd::{BdDecoder, BdEncoder};
pub use di::{DiConfig, DiDecoder, DiEncoder};
pub use fp::{FpDecoder, FpEncoder};
pub use lz::{LzDecoder, LzEncoder};
