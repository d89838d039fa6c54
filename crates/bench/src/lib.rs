//! # anoc-bench
//!
//! Microbenchmarks of the simulator's hot paths (`benches/micro.rs`) and
//! the design-choice ablations DESIGN.md §5 cites (`benches/ablations.rs`).
//! The paper's tables and figures are regenerated by `anoc run <target>`,
//! and end-to-end throughput is measured by the `anoc-benchmark` harness.

#![warn(missing_docs)]
