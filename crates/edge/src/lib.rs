//! # oovr-edge
//!
//! A deterministic *split-rendering* tier over the OO-VR reproduction:
//! the paper's NUMA argument — keep object work local, pay for the link
//! only when you must — extended one level up the hierarchy. A thin VR
//! client (display + ATW reprojection only) tethers to an edge server
//! over a bandwidth/latency-constrained, lossy network; the edge server
//! runs the existing `oovr-serve` EDF pipeline and streams encoded
//! frames down the link.
//!
//! Everything runs in simulated cycles; no wall clock is ever read, so a
//! `(scheme, workload, config)` tuple replays bit-identically (pinned by
//! `prop_edge`). The pieces:
//!
//! * [`link`] — the [`NetworkLink`]: an `oovr-mem` [`BandwidthServer`]
//!   (serialization + queueing) plus fixed propagation latency and
//!   seeded per-window loss, both compiled from the same
//!   `oovr_gpu::fault` plans the cluster tier uses
//!   ([`FaultPlan::server_schedule`]).
//! * [`sim`] — [`simulate_edge`]: the edge server runs the `oovr-serve`
//!   scheduler core with the link byte budget as its pre-compute gate
//!   (a second admission budget beside Eq. 3), encodes every rendered
//!   frame per pixel, frames transit the link in encode-completion
//!   order, and the client
//!   either presents the fresh frame, presents it late, covers the vsync
//!   by ATW-reprojecting the last delivered frame
//!   ([`warp_cycles_for_pixels`]), or goes dark past the staleness cap.
//! * [`qos`] — motion-to-photon latency (pose sample → photon,
//!   p50/p99/p99.9) and an [`AggregateQos`] view that degenerates
//!   bit-exactly to local-only serving when the link is ideal.
//! * [`chaos`] — the `figures -- edge` latency ladder and
//!   scenario×severity link-chaos tables, plus the [`edge_slos`]
//!   catalogue gated by `figures -- health`.
//!
//! [`BandwidthServer`]: oovr_mem::BandwidthServer
//! [`FaultPlan::server_schedule`]: oovr_gpu::FaultPlan::server_schedule
//! [`warp_cycles_for_pixels`]: oovr_frameworks::atw::warp_cycles_for_pixels
//! [`AggregateQos`]: oovr_serve::AggregateQos
//! [`NetworkLink`]: link::NetworkLink

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod link;
pub mod qos;
pub mod sim;

pub use chaos::{
    edge_chaos_cell, edge_chaos_table, edge_health_table, edge_ladder, edge_ladder_table,
    edge_nominal_mtp_target, edge_scenario_table, edge_slos, meter_edge, EdgeChaosCell,
    EdgeHealthCell, EDGE_FAULT_MISS_BUDGET, EDGE_FAULT_MTP_VSYNCS, EDGE_NOMINAL_MISS_BUDGET,
    EDGE_REPROJECT_BUDGET, EDGE_SEVERITIES,
};
pub use link::{LinkConfig, NetworkLink};
pub use qos::{edge_qos, MotionToPhoton};
pub use sim::{
    simulate_edge, simulate_edge_metered, Display, EdgeConfig, EdgeFrame, EdgeOutcome, EdgeSession,
};
