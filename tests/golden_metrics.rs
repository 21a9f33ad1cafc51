//! Value-level pins for the metrics registries of the three serving tiers.
//!
//! `prop_metrics` checks that metering does not perturb a run and that
//! the metered totals reconcile with the QoS accounting, and
//! `results/metrics_golden.prom` pins one serve run's totals. Neither
//! pins the per-window series, the per-server and per-class labels, or
//! the cluster and edge registries. These tests hash the whole
//! [`Registry`] (SHA-256 over its `Debug` text: every counter with its
//! per-window series, every gauge at round-trip precision, every
//! histogram bucket) for pinned runs of:
//!
//! * serve: OO-VR, OO-VR+shed and OO-VR+temporal, on the default vsync
//!   grid and on one tightened until admission rejects sessions;
//! * cluster: the resilient and the baseline router over a two-workload
//!   mix under a severity-1.0 link-down plan;
//! * edge: a bounded lossy link under a link-down plan, with the ATW
//!   client on and off.
//!
//! The test also checks that the pinned runs exercise every counter
//! family, so a digest cannot stay green only because a family went
//! silent on both sides.

use oovr::ResilienceConfig;
use oovr_edge::{simulate_edge_metered, EdgeConfig, LinkConfig};
use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig, VSYNC_90HZ_CYCLES};
use oovr_metrics::Registry;
use oovr_scene::{benchmarks, BenchmarkSpec};
use oovr_serve::{
    cost_stream, simulate_cluster_metered, simulate_metered, ClusterConfig, Router, ServeConfig,
    ServeScheme,
};

const SCHEMES: [ServeScheme; 3] =
    [ServeScheme::OoVr, ServeScheme::OoVrShed, ServeScheme::OoVrTemporal];

fn spec() -> BenchmarkSpec {
    benchmarks::hl2_640().scaled(0.05)
}

/// First 16 hex digits of SHA-256 over the `Debug` text of `reg`.
fn digest(reg: &Registry) -> String {
    oovr_hash::hex_digest(format!("{reg:?}").as_bytes())[..16].to_string()
}

/// Steady frame cycles of the OO-VR stream of `spec`.
fn steady(spec: &BenchmarkSpec) -> u64 {
    cost_stream(ServeScheme::OoVr, spec, &GpuConfig::default()).steady().frame_cycles
}

/// Two vsync grids shrunk to a handful of steady frames, with arrivals
/// bunched well inside one interval so admission turns sessions away and
/// the temporal scheme's discounted admissions miss vsyncs: a grid that
/// admits about eight plain OO-VR sessions at a time, and a tight one
/// that admits two.
fn serve_configs() -> [ServeConfig; 2] {
    let steady = steady(&spec());
    let base = ServeConfig {
        vsync_cycles: steady * 10,
        sessions: 24,
        frames_per_session: 8,
        mean_interarrival: steady / 8,
        seed: 0x5EED_0014,
        ..ServeConfig::default()
    };
    let tight = ServeConfig { vsync_cycles: steady * 3, ..base.clone() };
    [base, tight]
}

fn serve_registries() -> Vec<Registry> {
    let mut regs = Vec::new();
    for cfg in serve_configs() {
        for scheme in SCHEMES {
            let mut reg = Registry::new(cfg.vsync_cycles);
            simulate_metered(scheme, &spec(), &GpuConfig::default(), &cfg, None, Some(&mut reg));
            regs.push(reg);
        }
    }
    regs
}

/// Resilient then baseline router over a two-workload mix, offered more
/// than the fleet holds, under a link-down plan that kills a server. The
/// vsync grid holds about eight WE frames per server, and the shedding
/// floor is raised so the resilient router reaches it and evicts.
fn cluster_registries() -> Vec<Registry> {
    let mix = vec![(ServeScheme::OoVr, spec()), (ServeScheme::OoVr, benchmarks::we().scaled(0.05))];
    let v = steady(&mix[1].1) * 8;
    let plan = FaultPlan::new(FaultScenario::LinkDown, 1.0, 3).with_horizon(v * 24);
    assert!(plan.disturbs_servers(4, v));
    let resilient = ClusterConfig {
        vsync_cycles: v,
        sessions: 80,
        frames_per_session: 24,
        evict_after: 4,
        fault: Some(plan),
        resilience: ResilienceConfig { shed_floor: 0.8, ..ResilienceConfig::on() },
        ..ClusterConfig::default()
    };
    let baseline = ClusterConfig { router: Router::Baseline, ..resilient.clone() };
    [resilient, baseline]
        .iter()
        .map(|cfg| {
            let mut reg = Registry::new(cfg.vsync_cycles);
            simulate_cluster_metered(&mix, &GpuConfig::default(), cfg, None, Some(&mut reg));
            reg
        })
        .collect()
}

/// A bounded lossy link under a link-down plan on the 90 Hz grid, ATW
/// client on then off.
fn edge_registries() -> Vec<Registry> {
    let serve = ServeConfig {
        sessions: 48,
        frames_per_session: 8,
        mean_interarrival: VSYNC_90HZ_CYCLES / 64,
        seed: 0x5EED_0012,
        ..ServeConfig::default()
    };
    [true, false]
        .into_iter()
        .map(|reproject| {
            let cfg = EdgeConfig {
                serve: serve.clone(),
                link: LinkConfig {
                    provision: 2.0 / 8.0,
                    base_loss: 0.05,
                    fault: Some(FaultPlan::new(FaultScenario::LinkDown, 1.0, 0xFA17)),
                    ..LinkConfig::default()
                },
                reproject,
            };
            let mut reg = Registry::new(cfg.serve.vsync_cycles);
            simulate_edge_metered(
                ServeScheme::OoVr,
                &spec(),
                &GpuConfig::default(),
                &cfg,
                None,
                Some(&mut reg),
            );
            reg
        })
        .collect()
}

/// Recorded digests: `serve_configs() × SCHEMES`, then the resilient and
/// baseline cluster runs, then the edge runs with ATW on and off.
const DIGESTS: [&str; 10] = [
    "2e23c09d471fa94f",
    "2e23c09d471fa94f",
    "333481dd4b2cd430",
    "e47ac5a2b067be69",
    "e47ac5a2b067be69",
    "97e7b68ad157c978",
    "19761f10ff4d9b89",
    "746bf1290e2e9ed0",
    "ea38eaa40ae69261",
    "38fa34c7eb9e45c5",
];

#[test]
fn registries_match_recorded_digests() {
    let regs: Vec<Registry> =
        [serve_registries(), cluster_registries(), edge_registries()].concat();
    // The pins only mean something if every counter family fires somewhere.
    let sum = |name| regs.iter().map(|r| r.counter_sum(name)).sum::<u64>();
    let labels = |name| regs.iter().flat_map(|r| r.counter_labels(name)).collect::<Vec<_>>();
    assert!(labels("frames").contains(&"unrouted"));
    let mut classes = labels("class_frames");
    classes.sort_unstable();
    classes.dedup();
    assert!(classes.len() >= 2, "class labels: {classes:?}");
    for family in [
        "frames_missed",
        "temporal_frames",
        "session_failovers",
        "session_migrations",
        "sessions_evicted",
        "frames_lost",
        "frames_reprojected",
    ] {
        assert!(sum(family) > 0, "no run exercised {family}");
    }
    let got: Vec<String> = regs.iter().map(digest).collect();
    assert_eq!(got, DIGESTS);
}
