//! # approx-noc
//!
//! A production-quality Rust reproduction of **APPROX-NoC: A Data
//! Approximation Framework for Network-On-Chip Architectures** (Boyapati,
//! Huang, Majumder, Yum, Kim — ISCA 2017).
//!
//! This façade crate re-exports the whole workspace:
//!
//! * [`core`] — data model, error thresholds and the VAXX approximate value
//!   compute logic (AVCL);
//! * [`compression`] — FP-COMP / DI-COMP NoC compression and their FP-VAXX /
//!   DI-VAXX approximate variants;
//! * [`noc`] — the cycle-accurate wormhole NoC simulator;
//! * [`traffic`] — synthetic traffic patterns and benchmark data-value models;
//! * [`apps`] — approximable application mini-kernels, the cache simulator
//!   and output-quality metrics;
//! * [`harness`] — experiment runners regenerating every table and figure of
//!   the paper.
//!
//! ## Quickstart
//!
//! ```
//! use approx_noc::harness::runner::try_run_benchmark;
//! use approx_noc::harness::{Mechanism, SystemConfig};
//! use approx_noc::traffic::Benchmark;
//!
//! let config = SystemConfig::default().with_sim_cycles(20_000);
//! let result = try_run_benchmark(Benchmark::Blackscholes, Mechanism::FpVaxx, &config, 1)
//!     .expect("no watchdog or bound-checker abort");
//! assert!(result.avg_packet_latency() > 0.0);
//! ```

pub use anoc_apps as apps;
pub use anoc_compression as compression;
pub use anoc_core as core;
pub use anoc_harness as harness;
pub use anoc_noc as noc;
pub use anoc_traffic as traffic;
