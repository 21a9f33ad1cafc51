//! Value-level pins for single-frame renders, fault-free and faulted.
//!
//! `figures -- verify` pins the fault-free tables only, so nothing else
//! pins a frame rendered under a fault plan. These tests hash whole
//! [`FrameReport`]s (SHA-256 over the `Debug` text, which prints every
//! field, including the L1/L2 hit rates and the per-class traffic ledger,
//! with every `f64` at round-trip precision) and compare against recorded
//! digests. A change to how the memory system counts a cache hit, charges
//! a line, or times a quantum moves a digest.
//!
//! Each pinned cell renders one scene under Baseline, OO-VR and resilient
//! OO-VR with the same config: fault-free, then under each
//! [`FaultScenario`] at severity 0.5. As in the resilience sweep, the fault
//! windows are laid over the scene's fault-free Baseline frame so they land
//! inside the frame.

use oovr::experiments::paper_workloads;
use oovr::frameworks::{Baseline, RenderScheme};
use oovr::gpu::{FaultPlan, FaultScenario, FrameReport, GpuConfig, VR_DEADLINE_CYCLES};
use oovr::scene::Scene;
use oovr::OoVr;

/// Indices into [`paper_workloads`]: DM3-640 and WE.
const SCENES: [usize; 2] = [0, 8];

const SEVERITY: f64 = 0.5;

/// First 16 hex digits of SHA-256 over the `Debug` text of `value`.
fn digest(value: &impl std::fmt::Debug) -> String {
    oovr_hash::hex_digest(format!("{value:?}").as_bytes())[..16].to_string()
}

/// Baseline, OO-VR and resilient OO-VR reports of one frame of `scene`.
fn render_all(scene: &Scene, cfg: &GpuConfig) -> [FrameReport; 3] {
    [
        Baseline::new().render_frame(scene, cfg),
        OoVr::new().render_frame(scene, cfg),
        OoVr::resilient_with_deadline(VR_DEADLINE_CYCLES).render_frame(scene, cfg),
    ]
}

/// Recorded digests of `render_all`, per scene in [`SCENES`] order: the
/// fault-free cell, then one cell per [`FaultScenario::ALL`] entry.
const DIGESTS: [[&str; 6]; 2] = [
    [
        "00a9b1e2672cf88f",
        "42d3ad79ad0061e0",
        "9d4cdc7fa23ff458",
        "1ca93a861c5b0468",
        "0930334ef1e11a0f",
        "24f617a579e4d7b5",
    ],
    [
        "da29981261e28582",
        "7073c4584c2b652e",
        "519265880d72fb98",
        "3e93a227f1e59de7",
        "40282731d61ed5c6",
        "f7028077ea5ead22",
    ],
];

#[test]
fn frame_reports_match_recorded_digests() {
    let specs = paper_workloads(0.1);
    let gpu = GpuConfig::default();
    let mut got = Vec::new();
    for (si, &wi) in SCENES.iter().enumerate() {
        let scene = specs[wi].build();
        let clean = render_all(&scene, &gpu);
        let mut row = vec![digest(&clean)];
        for (ci, &scenario) in FaultScenario::ALL.iter().enumerate() {
            let plan = FaultPlan::new(scenario, SEVERITY, 11 * ci as u64 + 3 + 101 * si as u64)
                .with_horizon(clean[0].frame_cycles.max(1));
            let faulted = render_all(&scene, &gpu.clone().with_fault(plan));
            // The pin only covers the fault paths if the plan bites.
            assert_ne!(faulted[0].frame_cycles, clean[0].frame_cycles, "{scenario:?}");
            row.push(digest(&faulted));
        }
        got.push(row);
    }
    assert_eq!(got, DIGESTS);
}
