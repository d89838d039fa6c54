//! # anoc-apps
//!
//! Approximable application models for the APPROX-NoC output-quality study
//! (§5.4 and Figures 16–17):
//!
//! * [`transport`] — the value path of a block crossing the network (precise
//!   identity vs a real VAXX codec pair);
//! * [`cachesim`] — the 16-core private-L1 cache simulator that pulls every
//!   miss through the transport, as the paper's Pin tool does;
//! * [`kernel`] — the kernel interface and evaluation helper;
//! * [`graph`] — R-MAT generation + Brandes betweenness centrality (the
//!   SSCA2 substrate);
//! * one module per benchmark: [`blackscholes`], [`bodytrack`], [`canneal`],
//!   [`fluidanimate`], [`streamcluster`], [`swaptions`], [`x264`], [`ssca2`].
//!
//! ## Example
//!
//! ```
//! use anoc_apps::blackscholes::Blackscholes;
//! use anoc_apps::kernel::evaluate;
//! use anoc_apps::transport::ApproxTransport;
//! use anoc_core::threshold::ErrorThreshold;
//!
//! let kernel = Blackscholes::new(64, 1);
//! let mut transport = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10)?);
//! let (_precise, _approx, error) = evaluate(&kernel, &mut transport);
//! assert!(error < 0.3);
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

pub mod blackscholes;
pub mod bodytrack;
pub mod cachesim;
pub mod canneal;
pub mod fluidanimate;
pub mod graph;
pub mod kernel;
pub mod ssca2;
pub mod streamcluster;
pub mod swaptions;
pub mod transport;
pub mod x264;

pub use kernel::{evaluate, ApproxKernel};
pub use transport::{ApproxTransport, BlockTransport, PreciseTransport};

/// All eight kernels with small default sizes, in the paper's plotting order
/// (blackscholes, bodytrack, canneal, fluidanimate, streamcluster,
/// swaptions, x264, ssca2).
pub fn default_kernels() -> Vec<Box<dyn ApproxKernel>> {
    vec![
        Box::new(blackscholes::Blackscholes::default()),
        Box::new(bodytrack::Bodytrack::default()),
        Box::new(canneal::Canneal::default()),
        Box::new(fluidanimate::Fluidanimate::default()),
        Box::new(streamcluster::Streamcluster::default()),
        Box::new(swaptions::Swaptions::default()),
        Box::new(x264::X264::default()),
        Box::new(ssca2::Ssca2::default()),
    ]
}
