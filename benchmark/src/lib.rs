//! # anoc-benchmark
//!
//! End-to-end and per-layer benchmark of the APPROX-NoC simulator. Four
//! workloads drive the public API of `anoc-traffic`, `anoc-core`'s codecs,
//! `anoc-noc`, `anoc-exec` and `anoc-harness`; each run measures host time
//! with tracing off, checks every output it can, and optionally interleaves
//! traced repeats whose spans split the time by layer. See `README.md` for
//! the workloads, the metric glossary and the recipes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod json;
pub mod mirror;
pub mod report;
pub mod spec;
pub mod summary;
pub mod trace;
pub mod workloads;
