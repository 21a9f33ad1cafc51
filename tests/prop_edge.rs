//! Property tests for the edge tier: the split is an *overlay* on local
//! serving, never a different renderer.
//!
//! Two invariants anchor `oovr-edge`:
//!
//! * **Degenerate-link bit-identity.** Over the ideal link (unbounded
//!   bandwidth, zero latency/encode/bytes/loss) a split run is local
//!   serving with a display bolted on: every [`FrameRecord`] field, the
//!   folded [`AggregateQos`], and the admission decisions must equal
//!   `oovr_serve::simulate` bit-for-bit across schemes, loads, and
//!   seeds.
//! * **Seeded determinism.** A `(scheme, workload, edge config)` tuple —
//!   including a faulted, lossy, bandwidth-bound link — replays to a
//!   byte-identical [`EdgeOutcome`]: same deliveries, same losses, same
//!   reprojections, same photons.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use oovr_edge::{edge_qos, simulate_edge, EdgeConfig, LinkConfig};
use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig};
use oovr_scene::benchmarks;
use oovr_serve::{simulate, FrameRecord, ServeConfig, ServeScheme};

fn spec() -> oovr_scene::BenchmarkSpec {
    benchmarks::hl2_640().scaled(0.05)
}

/// Field-by-field equality with f64 bit-compares (`FrameRecord` derives
/// `PartialEq`, but bitwise scale comparison is the stronger pin).
fn assert_records_identical(a: &FrameRecord, b: &FrameRecord) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.frame, b.frame);
    prop_assert_eq!(a.release, b.release);
    prop_assert_eq!(a.deadline, b.deadline);
    prop_assert_eq!(a.start, b.start);
    prop_assert_eq!(a.end, b.end);
    prop_assert_eq!(a.missed, b.missed);
    prop_assert_eq!(a.dropped, b.dropped);
    prop_assert_eq!(a.scale.to_bits(), b.scale.to_bits());
    prop_assert_eq!(a.report_index, b.report_index);
    prop_assert_eq!(a.pose, b.pose);
    Ok(())
}

const SCHEMES: [ServeScheme; 4] =
    [ServeScheme::Baseline, ServeScheme::OoVr, ServeScheme::OoVrShed, ServeScheme::OoVrTemporal];

proptest! {
    // Streams are memoized process-wide, so each case only pays scheduling.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over the degenerate link the split tier *is* local serving:
    /// identical sessions, rejects, per-frame records, and folded QoS.
    #[test]
    fn degenerate_link_is_local_serving(
        scheme_idx in 0usize..SCHEMES.len(),
        sessions in 1u32..6,
        paced in 1u32..6,
        seed in 0u64..1_000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let spec = spec();
        let gpu = GpuConfig::default();
        let serve_cfg = ServeConfig { sessions, frames_per_session: paced, seed, ..ServeConfig::default() };
        let local = simulate(scheme, &spec, &gpu, &serve_cfg, None);
        let edge = simulate_edge(scheme, &spec, &gpu, &EdgeConfig::degenerate(serve_cfg), None);

        prop_assert_eq!(edge.link_rejected, 0);
        prop_assert_eq!(edge.sessions.len(), local.sessions.len());
        prop_assert_eq!(edge.rejects.len(), local.rejects.len());
        for (es, ls) in edge.sessions.iter().zip(&local.sessions) {
            prop_assert_eq!(es.id, ls.id);
            prop_assert_eq!(es.arrival, ls.arrival);
            prop_assert_eq!(es.frames.len(), ls.frames.len());
            for (ef, lf) in es.frames.iter().zip(&ls.frames) {
                assert_records_identical(&ef.record, lf)?;
                // Ideal link: delivery is retire, nothing is ever lost.
                prop_assert!(!ef.lost);
                if !lf.dropped {
                    prop_assert_eq!(ef.delivery, Some(lf.end));
                }
            }
        }
        prop_assert_eq!(edge_qos(&edge), local.qos());
    }

    /// A faulted, lossy, bandwidth-bound split run replays bit-
    /// identically from its config — the whole outcome, photons and all.
    #[test]
    fn same_seed_replays_byte_identically(
        scheme_idx in 0usize..SCHEMES.len(),
        sessions in 1u32..6,
        paced in 1u32..5,
        seed in 0u64..1_000,
        severity_idx in 0usize..3,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let spec = spec();
        let gpu = GpuConfig::default();
        let severity = [0.4f64, 0.7, 1.0][severity_idx];
        let plan = FaultPlan::new(FaultScenario::LinkDown, severity, seed ^ 0xFA17);
        let cfg = EdgeConfig {
            serve: ServeConfig { sessions, frames_per_session: paced, seed, ..ServeConfig::default() },
            link: LinkConfig {
                provision: 1.5,
                base_loss: 0.05,
                fault: Some(plan),
                ..LinkConfig::default()
            },
            reproject: true,
        };
        let a = simulate_edge(scheme, &spec, &gpu, &cfg, None);
        let b = simulate_edge(scheme, &spec, &gpu, &cfg, None);
        prop_assert_eq!(a, b);
    }
}
