//! # semcom-edge
//!
//! Discrete-event edge/cloud simulation substrate for the `semcom`
//! reproduction of *"Semantic Communications, Semantic Edge Computing, and
//! Semantic Caching"* (Yu & Zhao, ICDCS 2023).
//!
//! The paper argues that mobile devices lack the "computing power and
//! storage capabilities" semantic codecs need (§I) and that edge servers
//! should run and cache the KBs. This crate quantifies that argument:
//!
//! * [`engine::Sim`] — a minimal deterministic discrete-event engine;
//! * [`Topology`] — device/edge/cloud compute rates and link
//!   bandwidth/latency parameters with 5G-flavored defaults;
//! * [`placement`] — closed-form latency breakdowns for running the codec
//!   on-device, at the edge, or in the cloud (experiment F5);
//! * [`FleetSim`] — the event-driven workload replay: Poisson arrivals
//!   drawn from a constant-memory stream, per-edge FIFO service queues,
//!   one [`semcom_cache::ModelCache`] per edge, cloud model fetches on
//!   miss, request [`Assignment`], batching, link adaptation and offload.
//!   One edge gives experiment F4's latency rows; several expose the
//!   cache-locality vs load-balance tradeoff (experiment F12). What a run
//!   varies beyond its config is a [`RunOptions`] value;
//! * [`orchestrator`] — [`ShardedFleetSim`] runs that same replay loop
//!   once per shard on `semcom-par` workers, scaling it to a million
//!   users (experiment F13);
//! * [`LatencySummary`] — mean/percentile aggregation, plus the
//!   bounded-memory [`LatencyHist`] selected by [`RunOptions::hist`].
//!
//! # Example
//!
//! ```
//! use semcom_edge::{Topology, placement::{message_latency, Placement, MessageCost}};
//!
//! let topo = Topology::default();
//! let cost = MessageCost::default();
//! let edge = message_latency(&topo, Placement::Edge, &cost, true, 400_000);
//! let cloud = message_latency(&topo, Placement::CloudOnly, &cost, true, 400_000);
//! assert!(edge.total() < cloud.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fleet;
mod metrics;
mod topology;

pub mod engine;
pub mod orchestrator;
pub mod placement;

pub use fleet::{
    Assignment, BatchServer, ConfigError, FleetAdapt, FleetConfig, FleetReport, FleetRun, FleetSim,
    OffloadConfig, RunOptions, ShardStats,
};
pub use metrics::{LatencyHist, LatencySummary};
pub use orchestrator::{
    merge_reports, FleetScaleReport, SessionPlacement, ShardPlan, ShardedFleetConfig,
    ShardedFleetSim,
};
pub use topology::{ComputeNode, Link, Topology};
