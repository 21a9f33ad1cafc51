//! Property tests for the metrics layer: metering observes, never
//! perturbs — and the derived numbers are honest.
//!
//! Metering is a post-run fold: the EDF scheduler and the cluster tier
//! carry no registry, and `meter_serve` / `meter_cluster` fold a finished
//! run's outcome and events into one afterwards. A metered run must
//! therefore be *bit-identical* to an unmetered one across serve
//! schemes, temporal thresholds, fault plans, and router configurations
//! (for the cluster, metering turns on the event vector the meter reads,
//! which must not steer the run either). On top of parity,
//! this file pins the accounting itself: histogram quantiles stay within
//! one octave of `qos`'s exact nearest-rank percentiles, the metered
//! cluster miss rate reconciles exactly with `ClusterOutcome::miss_rate`,
//! the Prometheus exposition of a pinned workload is byte-stable
//! (golden file), and the health gate passes with the resilient router
//! while failing with the fault-oblivious baseline under a link-down
//! fault.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig, VSYNC_90HZ_CYCLES};
use oovr_metrics::export::prometheus;
use oovr_metrics::slo::healthy;
use oovr_metrics::{Hist, Registry};
use oovr_scene::{benchmarks, BenchmarkSpec};
use oovr_serve::{
    health_cell, percentile, simulate, simulate_cluster, simulate_cluster_metered,
    simulate_metered, ClusterConfig, ClusterOutcome, Router, ServeConfig, ServeScheme,
};

fn spec() -> BenchmarkSpec {
    benchmarks::hl2_640().scaled(0.05)
}

fn scenario(ix: usize) -> FaultScenario {
    FaultScenario::ALL[ix % FaultScenario::ALL.len()]
}

fn assert_cluster_identical(a: &ClusterOutcome, b: &ClusterOutcome) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.sessions, &b.sessions);
    prop_assert_eq!(a.on_time, b.on_time);
    prop_assert_eq!(a.degraded, b.degraded);
    prop_assert_eq!(a.retries, b.retries);
    prop_assert_eq!(a.migrations, b.migrations);
    prop_assert_eq!(a.failovers, b.failovers);
    prop_assert_eq!(a.downs, b.downs);
    prop_assert_eq!(a.min_scale.to_bits(), b.min_scale.to_bits());
    Ok(())
}

proptest! {
    // Each case runs the serving simulation twice; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Metering any serve scheme changes nothing observable: sessions,
    /// frames, rejects and the derived QoS are bit-identical, and the
    /// metered counters reconcile exactly with the QoS accounting.
    #[test]
    fn metered_serve_is_bit_identical(
        scheme_ix in 0usize..ServeScheme::ALL.len(),
        sessions in 2u32..10,
        frames in 4u32..12,
        threshold_ix in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let threshold = [0.0f64, 0.02, 0.08][threshold_ix];
        let scheme = ServeScheme::ALL[scheme_ix];
        let cfg = ServeConfig {
            sessions,
            frames_per_session: frames,
            seed,
            temporal: oovr::TemporalConfig { reuse_threshold: threshold },
            ..ServeConfig::default()
        };
        let gpu = GpuConfig::default();
        let plain = simulate(scheme, &spec(), &gpu, &cfg, None);
        let mut reg = Registry::new(cfg.vsync_cycles);
        let metered = simulate_metered(scheme, &spec(), &gpu, &cfg, None, Some(&mut reg));
        prop_assert_eq!(&plain.sessions, &metered.sessions);
        prop_assert_eq!(&plain.rejects, &metered.rejects);
        let qos = plain.qos();
        prop_assert_eq!(reg.counter_sum("frames"), u64::from(qos.frames));
        prop_assert_eq!(
            reg.counter_sum("frames_missed"),
            u64::from(qos.missed + qos.dropped)
        );
        prop_assert_eq!(reg.counter_sum("frames_dropped"), u64::from(qos.dropped));
    }

    /// Metering the cluster tier under any fault plan and either router
    /// changes nothing observable, and the metered frame ledger reconciles
    /// exactly with the outcome's offered/on-time accounting.
    #[test]
    fn metered_cluster_is_bit_identical_under_faults(
        scenario_ix in 0usize..8,
        severity in 0.1f64..1.0,
        resilient_ix in 0usize..2,
        sessions in 20u32..80,
        seed in 0u64..1_000,
    ) {
        let horizon = VSYNC_90HZ_CYCLES * 24;
        let plan = FaultPlan::new(scenario(scenario_ix), severity, seed).with_horizon(horizon);
        let cfg = ClusterConfig {
            sessions,
            frames_per_session: 16,
            router: if resilient_ix == 0 { Router::Resilient } else { Router::Baseline },
            fault: Some(plan),
            ..ClusterConfig::default()
        };
        let gpu = GpuConfig::default();
        let mix = vec![(ServeScheme::OoVr, spec())];
        let plain = simulate_cluster(&mix, &gpu, &cfg, None);
        let mut reg = Registry::new(cfg.vsync_cycles);
        let metered = simulate_cluster_metered(&mix, &gpu, &cfg, None, Some(&mut reg));
        assert_cluster_identical(&plain, &metered)?;
        // Reconciliation: every offered paced frame is accounted once.
        prop_assert_eq!(reg.counter_sum("frames"), plain.frames_offered);
        prop_assert_eq!(
            reg.counter_sum("frames_missed"),
            plain.frames_offered - plain.on_time
        );
    }

    /// The log2 histogram's quantiles bracket `qos`'s exact nearest-rank
    /// percentiles: never below, and strictly less than one octave above
    /// (satellite of the quantile-bound documented on `Hist::quantile`).
    #[test]
    fn histogram_quantiles_bracket_exact_percentiles(
        samples in prop::collection::vec(0u64..10_000_000, 1..400),
        p_ix in 0usize..3,
    ) {
        let p = [50.0f64, 99.0, 99.9][p_ix];
        let mut h = Hist::default();
        for &s in &samples {
            h.observe(s);
        }
        let exact = percentile(&samples, p);
        let est = h.quantile(p);
        prop_assert!(est >= exact, "histogram must never underestimate: {est} < {exact}");
        if exact == 0 {
            prop_assert_eq!(est, 0);
        } else {
            prop_assert!(
                est < 2 * exact,
                "octave bound violated: {est} >= 2 x {exact} at p{p}"
            );
        }
    }
}

/// The Prometheus exposition of one pinned workload is byte-stable: any
/// change to metric names, label order, or the histogram bucketing shows
/// up as a golden-file diff, reviewed like a schema change.
#[test]
fn prometheus_exposition_matches_golden() {
    let cfg = ServeConfig { sessions: 6, frames_per_session: 8, ..ServeConfig::default() };
    let mut reg = Registry::new(cfg.vsync_cycles);
    simulate_metered(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &cfg, None, Some(&mut reg));
    let got = prometheus(&reg);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/metrics_golden.prom");
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("golden file {path} must be committed (regenerate with `figures -- metrics`): {e}")
    });
    assert_eq!(got, want, "Prometheus exposition drifted from {path}");
}

/// The acceptance gate of the health command: at the chaos operating
/// point under a severity-1.0 link-down fault, the resilient router holds
/// the error budgets while the fault-oblivious baseline exhausts them.
#[test]
fn health_gate_passes_resilient_and_fails_baseline_under_link_down() {
    let gpu = GpuConfig::default();
    let cfg = ClusterConfig::default();
    let resilient = health_cell(&spec(), &gpu, Router::Resilient, &cfg);
    assert!(
        healthy(&resilient.nominal) && healthy(&resilient.faulted),
        "resilient router must hold every aggregate budget: {:?}",
        resilient
            .faulted
            .iter()
            .filter(|e| e.label == "*")
            .map(|e| (e.slo, e.achieved, e.target))
            .collect::<Vec<_>>()
    );
    let baseline = health_cell(&spec(), &gpu, Router::Baseline, &cfg);
    let faulted_miss = baseline
        .faulted
        .iter()
        .find(|e| e.slo == "missed-vsync-rate" && e.label == "*")
        .expect("aggregate miss row present");
    assert!(
        !faulted_miss.healthy,
        "baseline router must exhaust the faulted miss budget (achieved {:.4} <= target {:.4})",
        faulted_miss.achieved, faulted_miss.target
    );
    assert!(!(healthy(&baseline.nominal) && healthy(&baseline.faulted)));
}
