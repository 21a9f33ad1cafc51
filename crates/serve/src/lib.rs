//! # oovr-serve
//!
//! A deterministic multi-session VR *serving* layer over the OO-VR
//! reproduction: the cloud-rendering question the paper's single-app
//! evaluation stops short of — how many concurrent VR sessions can one
//! future 4-GPM NUMA multi-GPU board hold at 90 Hz, and how much does the
//! OO-VR framework raise that number?
//!
//! Everything runs in simulated time (cycles at the 1 GHz Table 2 clock);
//! no wall clock is ever read, so every run replays bit-identically from
//! its seed. The pieces:
//!
//! * [`pose`] — seeded head-pose trajectories; each session is a
//!   pose-driven frame stream, one view transform per 90 Hz frame.
//! * [`stream`] — per-session frame-cost streams measured once on the
//!   deterministic executor (OO-VR sessions pay PA on their cold frame,
//!   then replay the steady state) and memoized process-wide. The
//!   `OOVR+temporal` scheme additionally carries a per-object
//!   [`oovr::temporal::TemporalProfile`] so warm frames are priced by the
//!   session's head-pose delta (reused objects pay ATW warp cycles
//!   instead of a re-render).
//! * [`admission`] — admission control from the paper's Eq. 3 predictor:
//!   a session enters only if the predicted aggregate steady demand fits
//!   inside one vsync interval with headroom. The live-session ledger is
//!   a fixed-demand [`Budget`], which the edge tier reuses for its link
//!   bytes.
//! * [`scheduler`] — the EDF vsync scheduler multiplexing admitted
//!   sessions onto the single 4-GPM renderer (the workspace's only EDF
//!   loop; the edge tier calls its core, [`schedule`]), with stale-frame drops,
//!   `ResilienceConfig`-driven load shedding, and full session-lifecycle
//!   tracing through `oovr-trace`.
//! * [`qos`] — per-session and aggregate p50/p99/p99.9 frame latency,
//!   missed-vsync rate, drops, sheds, and goodput.
//! * [`capacity`] — the steady-state capacity probe behind the
//!   `figures -- serve` table (`results/serve.csv`).
//! * [`router`] — the cluster session router: pluggable placement
//!   (least-loaded, workload-affinity packing, rendezvous consistent
//!   hashing) and the retry/failover/migration/shed robustness knobs.
//! * [`cluster`] — N EDF servers behind the router, with server-level
//!   `FaultPlan`s (a server index plays the GPM role): admission retry
//!   with capped backoff, failover off dead servers, overload migration
//!   with an anti-ping-pong guard, and cluster-wide quality shedding.
//! * [`chaos`] — the `figures -- cluster` capacity tables and the
//!   `figures -- chaos` (scenario × severity × policy) goodput sweep.
//!
//! ```
//! use oovr_scene::benchmarks;
//! use oovr_serve::{capacity, ServeConfig, ServeScheme};
//!
//! let spec = benchmarks::hl2_640().scaled(0.05);
//! let gpu = oovr_gpu::GpuConfig::default();
//! let cfg = ServeConfig::default();
//! let base = capacity(ServeScheme::Baseline, &spec, &gpu, &cfg);
//! let oovr = capacity(ServeScheme::OoVr, &spec, &gpu, &cfg);
//! assert!(oovr > base);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod capacity;
pub mod chaos;
pub mod cluster;
pub mod metrics;
pub mod pose;
pub mod qos;
pub mod router;
pub mod scheduler;
pub mod stream;

pub use admission::{calibrate, calibrate_discounted, Budget, DEFAULT_HEADROOM};
pub use capacity::{capacity, capacity_table, MISS_BUDGET};
pub use chaos::{chaos_table, cluster_policy_table, cluster_scale_table, ChaosCell};
pub use cluster::{
    cluster_capacity, simulate_cluster, simulate_cluster_metered, ClusterConfig, ClusterOutcome,
    ClusterSession,
};
pub use metrics::{
    cluster_slos, health_cell, health_table, meter_cluster, meter_serve, metrics_table, serve_slos,
    HealthCell, FAULT_MISS_BUDGET, NOMINAL_MISS_BUDGET, SERVE_MISS_BUDGET, SHED_TIME_BUDGET,
};
pub use oovr_gpu::VSYNC_90HZ_CYCLES;
pub use pose::{session_trajectory, Pose, PoseTrajectory};
pub use qos::{aggregate_qos, percentile, session_qos, AggregateQos, SessionQos};
pub use router::{Placement, Router, ServerView};
pub use scheduler::{
    record_in_cycle_order, schedule, simulate, simulate_metered, FrameRecord, Reject, ServeConfig,
    ServeOutcome, SessionOutcome, LINK_REASON,
};
pub use stream::{
    cost_stream, serve_cache_stats, ServeCacheStats, ServeScheme, SessionCostStream,
    MEASURED_FRAMES,
};
