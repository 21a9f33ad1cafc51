//! Property tests for the cluster tier: fault plans are exact, cluster
//! runs replay bit-identically from their seeds.
//!
//! Two invariants anchor `oovr-serve`'s cluster layer:
//!
//! * **Zero-severity exactness.** A severity-0 server-level [`FaultPlan`]
//!   is indistinguishable — outcome fields *and* exported trace bytes —
//!   from running with no plan at all: the fault path costs nothing when
//!   nothing is injected.
//! * **Seeded determinism.** A (mix, config, fault, seed) tuple replays
//!   bit-identically, including every cluster-level trace event, and the
//!   `figures -- cluster` capacity table serializes to byte-identical CSV
//!   across evaluations.

use proptest::prelude::*;

use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig};
use oovr_scene::benchmarks;
use oovr_serve::{cluster_scale_table, simulate_cluster, ClusterConfig, Placement, Router};
use oovr_trace::export::{chrome_trace, csv_timeline, flight_digest};
use oovr_trace::{Recorder, TraceConfig, TraceEvent};

fn mix() -> Vec<(oovr_serve::ServeScheme, oovr_scene::BenchmarkSpec)> {
    vec![
        (oovr_serve::ServeScheme::OoVr, benchmarks::hl2_640().scaled(0.05)),
        (oovr_serve::ServeScheme::OoVr, benchmarks::we().scaled(0.05)),
    ]
}

fn traced_run(cfg: &ClusterConfig) -> (oovr_serve::ClusterOutcome, Vec<TraceEvent>) {
    let gpu = GpuConfig::default();
    let mut rec = Recorder::new(TraceConfig::default());
    let out = simulate_cluster(&mix(), &gpu, cfg, Some(&mut rec));
    (out, rec.into_events())
}

proptest! {
    // Cost streams are memoized process-wide, so each case only pays the
    // cluster scheduling itself.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A zero-severity fault plan must be bit-identical to no plan at all,
    /// down to the exported trace bytes.
    #[test]
    fn zero_severity_plan_is_bit_identical_to_no_plan(
        seed in 0u64..10_000,
        sessions in 8u32..120,
        policy_ix in 0usize..Placement::ALL.len(),
        scenario_ix in 0usize..FaultScenario::ALL.len(),
    ) {
        let base = ClusterConfig {
            sessions,
            frames_per_session: 8,
            seed,
            policy: Placement::ALL[policy_ix],
            ..ClusterConfig::default()
        };
        let noop_plan = FaultPlan::new(FaultScenario::ALL[scenario_ix], 0.0, seed);
        prop_assert!(noop_plan.is_noop());
        let with_noop = ClusterConfig { fault: Some(noop_plan), ..base.clone() };
        let (a, ea) = traced_run(&base);
        let (b, eb) = traced_run(&with_noop);
        prop_assert_eq!(&a.sessions, &b.sessions);
        prop_assert_eq!(a.on_time, b.on_time);
        prop_assert_eq!(a.retries, b.retries);
        prop_assert_eq!(a.downs, 0u64);
        prop_assert_eq!(b.downs, 0u64);
        let n = GpuConfig::default().n_gpms;
        prop_assert_eq!(chrome_trace(&ea, n, 0), chrome_trace(&eb, n, 0));
        prop_assert_eq!(csv_timeline(&ea, 0), csv_timeline(&eb, 0));
        prop_assert_eq!(flight_digest(&ea, 0), flight_digest(&eb, 0));
    }

    /// Identical seeds replay identical cluster outcomes and trace exports,
    /// byte for byte, under real faults and either router.
    #[test]
    fn identical_seeds_replay_cluster_runs_bit_identically(
        seed in 0u64..10_000,
        sessions in 8u32..160,
        severity in 0.25f64..1.0,
        scenario_ix in 0usize..FaultScenario::ALL.len(),
        policy_ix in 0usize..Placement::ALL.len(),
        resilient_ix in 0usize..2,
    ) {
        let resilient = resilient_ix == 1;
        let cfg = ClusterConfig {
            sessions,
            frames_per_session: 8,
            seed,
            policy: Placement::ALL[policy_ix],
            router: if resilient { Router::Resilient } else { Router::Baseline },
            fault: Some(FaultPlan::new(FaultScenario::ALL[scenario_ix], severity, seed)),
            ..ClusterConfig::default()
        };
        let (a, ea) = traced_run(&cfg);
        let (b, eb) = traced_run(&cfg);
        prop_assert_eq!(&a.sessions, &b.sessions);
        prop_assert_eq!(a.on_time, b.on_time);
        prop_assert_eq!(a.min_scale.to_bits(), b.min_scale.to_bits());
        prop_assert_eq!(
            (a.retries, a.migrations, a.failovers, a.downs),
            (b.retries, b.migrations, b.failovers, b.downs)
        );
        let n = GpuConfig::default().n_gpms;
        prop_assert_eq!(chrome_trace(&ea, n, 0), chrome_trace(&eb, n, 0));
        prop_assert_eq!(csv_timeline(&ea, 0), csv_timeline(&eb, 0));
        // The chrome export stays structurally valid with cluster events in
        // the stream.
        let doc = oovr_trace::json::parse(&chrome_trace(&ea, n, 0)).expect("parses");
        oovr_trace::json::validate_chrome_trace(&doc, n).expect("validates");
    }
}

/// `results/cluster.csv` is a pure function of (specs, config): two
/// evaluations of the scale table serialize to byte-identical CSV.
#[test]
fn cluster_scale_table_is_deterministic() {
    let specs = vec![benchmarks::hl2_640().scaled(0.05)];
    let gpu = GpuConfig::default();
    let cfg = ClusterConfig::default();
    let a = cluster_scale_table(&specs, &gpu, &cfg);
    let b = cluster_scale_table(&specs, &gpu, &cfg);
    assert_eq!(a.to_csv(), b.to_csv(), "cluster.csv must be byte-identical across runs");
}
