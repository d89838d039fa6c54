//! # anoc-noc
//!
//! A cycle-accurate network-on-chip simulator: wormhole switching,
//! credit-based virtual-channel flow control, three-stage routers, XY routing
//! on (concentrated) 2D meshes, and network interfaces hosting pluggable
//! APPROX-NoC block codecs.
//!
//! This is the substrate the paper evaluates on ("a cycle accurate, in house
//! NoC simulator", §5.1), rebuilt from the parameters of Table 1.
//!
//! ## Example
//!
//! ```
//! use anoc_noc::{NocConfig, NocSim, NodeCodec};
//! use anoc_core::data::{CacheBlock, NodeId};
//!
//! let config = NocConfig::paper_4x4_cmesh();
//! let codecs = (0..config.num_nodes()).map(|_| NodeCodec::baseline()).collect();
//! let mut sim = NocSim::new(config, codecs);
//!
//! sim.enqueue_data(NodeId(0), NodeId(31), CacheBlock::from_i32(&[42; 16]));
//! assert!(sim.drain(1_000));
//! let delivered = sim.drain_delivered();
//! assert_eq!(delivered[0].block.as_ref().unwrap().as_i32(), vec![42; 16]);
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

pub mod config;
pub mod faults;
pub mod histogram;
mod network;
pub mod ni;
pub mod packet;
pub mod router;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod topology;

pub use config::NocConfig;
pub use faults::{FaultPlan, FaultStats, LossPlan, SimError};
pub use histogram::LatencyHistogram;
pub use ni::NodeCodec;
pub use packet::{Delivered, PacketId, PacketKind};
pub use sim::NocSim;
pub use snapshot::{SnapshotError, SNAPSHOT_VERSION};
pub use stats::{ActivityReport, NetStats};
pub use topology::{Direction, Mesh};
