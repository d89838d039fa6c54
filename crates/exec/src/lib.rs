//! # anoc-exec
//!
//! The parallel experiment-execution engine of the APPROX-NoC workspace.
//!
//! Every simulation cell the harness runs is a pure function of its inputs
//! (`SystemConfig`, mechanism, benchmark, seed — DESIGN.md §6), which makes
//! figure campaigns embarrassingly parallel. This crate supplies the
//! machinery, with no dependencies beyond `std`:
//!
//! * [`pool`] — a channel-based [`ThreadPool`] sized from
//!   `std::thread::available_parallelism`, honouring the `ANOC_THREADS`
//!   override;
//! * [`campaign`] — a [`JobSpec`] planner that executes
//!   jobs in parallel and merges results deterministically in plan order,
//!   so parallel output is bit-identical to a serial run;
//! * [`store`] — one on-disk keyed store: digest-named files that keep the
//!   full key in one text frame, written through a temp file and a rename.
//!   Two typed views share it: the [`ResultCache`] holds
//!   text results keyed by the job's canonical key, each written as its cell
//!   finishes, so warm re-runs skip simulation entirely and a killed
//!   campaign restarts from the cells it completed; the [`SnapshotStore`]
//!   holds post-warmup simulator states, so sweep cells sharing a warmup
//!   fork from one snapshot instead of replaying it;
//! * [`progress`] — live queued/running/done + ETA reporting on stderr.
//!
//! ## Example
//!
//! ```
//! use anoc_exec::campaign::{run_campaign, CampaignOptions, JobSpec};
//! use anoc_exec::pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let jobs: Vec<JobSpec<u64>> = (0..16)
//!     .map(|i| JobSpec::new(format!("square/{i}"), format!("square v1 n={i}"), move || i * i))
//!     .collect();
//! let (results, report) = run_campaign(&pool, None, jobs, &CampaignOptions::quiet(), None);
//! assert_eq!(results[7], 49); // plan order, regardless of completion order
//! assert_eq!(report.executed, 16);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod hash;
pub mod pool;
pub mod progress;
pub mod store;

pub use campaign::{
    run_campaign, run_campaign_checked, CampaignOptions, CampaignOutcome, CampaignReport,
    CellError, CellFailure, JobSpec, ResultCodec, WarmupSpec,
};
pub use pool::ThreadPool;
pub use store::{default_cache_dir, default_snapshot_dir, ResultCache, SnapshotStore};
