//! Value-level pins for the cluster tier under every placement policy.
//!
//! `golden_metrics` and the benchmark's simulation digest pin only
//! least-loaded cluster runs, so a change to affinity packing or
//! rendezvous hashing would trip neither. These tests hash (SHA-256 over
//! the `Debug` text, which prints every field and every `f64` at
//! round-trip precision):
//!
//! * [`cluster_capacity`] for every [`Placement`] × N ∈ {1, 2, 4, 8}, over
//!   a two-stream mix plus an OO-VR+temporal entry, with a nonzero
//!   cross-stream tax;
//! * [`simulate_cluster`] outcomes for every [`Placement`] × {resilient,
//!   baseline router} × {no fault, link-down, gpm-throttle}.
//!
//! They also check that the pinned runs retry, fail over, migrate and
//! evict, and that affinity and hashing place some session differently
//! from least-loaded, so a digest cannot stay green only because a
//! mechanism went silent on both sides.

use oovr::ResilienceConfig;
use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig};
use oovr_scene::{benchmarks, BenchmarkSpec};
use oovr_serve::{
    cluster_capacity, cost_stream, simulate_cluster, ClusterConfig, ClusterOutcome, Placement,
    Router, ServeScheme,
};

/// First 16 hex digits of SHA-256 over the `Debug` text of `value`.
fn digest(value: &impl std::fmt::Debug) -> String {
    oovr_hash::hex_digest(format!("{value:?}").as_bytes())[..16].to_string()
}

/// Two plain OO-VR streams plus a temporal-reuse entry.
fn mix() -> Vec<(ServeScheme, BenchmarkSpec)> {
    vec![
        (ServeScheme::OoVr, benchmarks::hl2_640().scaled(0.05)),
        (ServeScheme::OoVr, benchmarks::we().scaled(0.05)),
        (ServeScheme::OoVrTemporal, benchmarks::hl2_640().scaled(0.05)),
    ]
}

const SERVERS: [u32; 4] = [1, 2, 4, 8];

/// Recorded capacities' digest, `Placement::ALL × SERVERS` in one list.
const CAPACITY_DIGEST: &str = "ea881bf10eb3b200";

#[test]
fn capacities_match_recorded_digest() {
    let gpu = GpuConfig::default();
    let cfg = ClusterConfig::default();
    let caps: Vec<(Placement, u32, u32)> = Placement::ALL
        .iter()
        .flat_map(|&p| SERVERS.map(|n| (p, n, cluster_capacity(&mix(), &gpu, n, p, &cfg))))
        .collect();
    // Affinity packing must change some capacity, or the tax is not biting.
    let of = |p: Placement| caps.iter().filter(|c| c.0 == p).map(|c| c.2).collect::<Vec<_>>();
    assert_ne!(of(Placement::Affinity), of(Placement::LeastLoaded), "{caps:?}");
    assert_eq!(digest(&caps), CAPACITY_DIGEST, "{caps:?}");
}

/// The pinned run configurations, in `faults × routers` order: the vsync
/// grid holds about eight WE frames per server and the fleet is offered
/// more than it holds, and the shedding floor is raised so the resilient
/// router reaches it and evicts.
fn configs() -> Vec<ClusterConfig> {
    let steady =
        cost_stream(ServeScheme::OoVr, &mix()[1].1, &GpuConfig::default()).steady().frame_cycles;
    let v = steady * 8;
    let horizon = v * 24;
    let link_down = FaultPlan::new(FaultScenario::LinkDown, 1.0, 3).with_horizon(horizon);
    let throttle = FaultPlan::new(FaultScenario::GpmThrottle, 1.0, 11).with_horizon(horizon);
    assert!(link_down.disturbs_servers(4, v) && throttle.disturbs_servers(4, v));
    let base = ClusterConfig {
        vsync_cycles: v,
        sessions: 80,
        frames_per_session: 24,
        evict_after: 4,
        resilience: ResilienceConfig { shed_floor: 0.8, ..ResilienceConfig::on() },
        ..ClusterConfig::default()
    };
    let mut out = Vec::new();
    for fault in [None, Some(link_down), Some(throttle)] {
        for router in [Router::Resilient, Router::Baseline] {
            out.push(ClusterConfig { fault: fault.clone(), router, ..base.clone() });
        }
    }
    out
}

/// Recorded outcome digests: one row per `Placement::ALL` entry, each in
/// `configs()` order.
const OUTCOME_DIGESTS: [[&str; 6]; 3] = [
    [
        "70ed2a9bf8bba999",
        "619bbadee0e7bde0",
        "f0df57cde7b56e5c",
        "dba2393e656a2956",
        "970a49724db43d13",
        "f57b56805c8f5568",
    ],
    [
        "ac3b7c8b82adbd85",
        "26d5ba52e70d453c",
        "7b80e98d36b1d844",
        "914634a4e9eeed1b",
        "611981749529c0ad",
        "672049ec785b64ae",
    ],
    [
        "bbac1ab2be6dae30",
        "7d172ed18fe6629c",
        "7ca7bab7156ea701",
        "5543d7ea0b8b1f1a",
        "928a49920c020dea",
        "3da77fbfa972dc70",
    ],
];

#[test]
fn outcomes_match_recorded_digests() {
    let gpu = GpuConfig::default();
    let runs: Vec<Vec<ClusterOutcome>> = Placement::ALL
        .iter()
        .map(|&policy| {
            configs()
                .iter()
                .map(|cfg| {
                    simulate_cluster(&mix(), &gpu, &ClusterConfig { policy, ..cfg.clone() }, None)
                })
                .collect()
        })
        .collect();
    // Every policy's runs retry, fail over, migrate and evict.
    for (row, policy) in runs.iter().zip(Placement::ALL) {
        let sum = |f: fn(&ClusterOutcome) -> u64| row.iter().map(f).sum::<u64>();
        assert!(sum(|o| o.retries) > 0, "{policy:?}: no run retried");
        assert!(sum(|o| o.failovers) > 0, "{policy:?}: no run failed over");
        assert!(sum(|o| o.migrations) > 0, "{policy:?}: no run migrated");
        assert!(sum(|o| u64::from(o.evicted)) > 0, "{policy:?}: no run evicted");
    }
    let servers = |o: &ClusterOutcome| o.sessions.iter().map(|s| s.server).collect::<Vec<_>>();
    for p in 1..Placement::ALL.len() {
        let moved = runs[p].iter().zip(&runs[0]).any(|(a, b)| servers(a) != servers(b));
        assert!(moved, "{:?} places every session as least-loaded does", Placement::ALL[p]);
    }
    let got: Vec<Vec<String>> = runs.iter().map(|row| row.iter().map(digest).collect()).collect();
    assert_eq!(got, OUTCOME_DIGESTS);
}
