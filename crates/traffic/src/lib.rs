//! # anoc-traffic
//!
//! Traffic generation for the APPROX-NoC evaluation:
//!
//! * [`pattern`] — synthetic destination patterns (Uniform Random,
//!   Transpose, ... — §5.2.2);
//! * [`datamodel`] — per-benchmark data-value models standing in for the
//!   paper's gem5/PARSEC/SSCA2 communication traces (see DESIGN.md's
//!   substitution table);
//! * [`generator`] — benchmark-shaped and rate-swept synthetic traffic
//!   sources;
//! * [`trace`] — data pools and record/replay traces so every mechanism sees
//!   identical offered traffic.
//!
//! ## Example
//!
//! ```
//! use anoc_traffic::{Benchmark, BenchmarkTraffic, TrafficSource};
//!
//! let mut source = BenchmarkTraffic::new(Benchmark::Ssca2, 32, 0.75, 42);
//! let mut injections = Vec::new();
//! for cycle in 0..100 {
//!     source.tick(cycle, &mut injections);
//! }
//! assert!(!injections.is_empty());
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

pub mod datamodel;
pub mod generator;
pub mod pattern;
pub mod trace;

pub use datamodel::{Benchmark, DataModel, Profile, BLOCK_WORDS};
pub use generator::{BenchmarkTraffic, Injection, SyntheticTraffic, TrafficSource};
pub use pattern::DestPattern;
pub use trace::{DataPool, Trace, TraceReplay};
