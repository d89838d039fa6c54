//! # anoc-harness
//!
//! The experiment harness that regenerates every table and figure of
//! APPROX-NoC (ISCA 2017):
//!
//! * [`config`] — [`SystemConfig`] (Table 1 defaults) and the five
//!   [`Mechanism`]s under comparison;
//! * [`runner`] — the generic traffic → NoC → statistics driver: one
//!   [`runner::run`] over a [`runner::RunSpec`];
//! * [`experiments`] — one runner per figure (`fig9` … `fig17`) producing
//!   the same rows/series the paper reports, each with its [`table::Table`];
//! * [`table`] — the one table type behind every `anoc run` target, with a
//!   text, a CSV and a JSON writer;
//! * [`campaign`] — the bridge to the `anoc-exec` parallel engine: cell
//!   content keys, the result-cache codec and the process-wide
//!   [`campaign::ExecContext`] every figure runner executes on;
//! * [`cli`] — the unified `anoc` command line (`anoc run fig9`,
//!   `anoc cache clear`, …) that the root binary delegates to;
//! * [`persist`] — bit-exact text serialization of [`RunResult`] for the
//!   on-disk result cache;
//! * [`power`] — the event-count dynamic power model and the §5.5 area
//!   accounting.
//!
//! ## Example
//!
//! ```
//! use anoc_harness::runner::{run, Codecs, RunSpec, SnapshotPolicy, Traffic};
//! use anoc_harness::{Mechanism, SystemConfig};
//! use anoc_traffic::Benchmark;
//!
//! let config = SystemConfig::paper().with_sim_cycles(2_000);
//! let outcome = run(RunSpec {
//!     traffic: Traffic::Benchmark {
//!         benchmark: Benchmark::X264,
//!         seed: 7,
//!         snapshots: SnapshotPolicy::cold(),
//!     },
//!     codecs: Codecs::Standard(Mechanism::FpVaxx),
//!     config: &config,
//! })
//! .expect("no watchdog or bound-checker abort");
//! assert!(outcome.result.data_quality() > 0.9);
//! assert!(!outcome.staged.forked, "a cold policy never forks");
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod config;
pub mod experiments;
pub mod persist;
pub mod power;
pub mod runner;
pub mod table;

pub use campaign::ExecContext;
pub use config::{Mechanism, SystemConfig};
pub use power::{AreaModel, EnergyModel};
pub use runner::RunResult;
