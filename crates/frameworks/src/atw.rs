//! Asynchronous Time Warp (ATW) — the frame re-projection fallback.
//!
//! §2.2 of the paper: "the VR vendors today employ frame re-projection
//! technologies such as Asynchronous Time Warp to artificially fill in
//! dropped frames, \[but\] they cannot fundamentally solve the problem of
//! rendering deadline missing due to little consideration on users'
//! perception and interaction." This module models that fallback so the
//! motivation is quantifiable: given a scheme's frame time and the Table 1
//! deadline, how many displayed frames are *real* versus re-projected?
//!
//! ATW re-projects the previous frame at the vsync deadline: a cheap
//! pixel-space warp (one read + one write per pixel through the ROPs of a
//! single GPM), always completing in time, but showing stale content —
//! the judder/sickness §4.1 associates with long true-frame latency.

use oovr_gpu::config::ROPS_PER_GPM;
use oovr_gpu::{FrameReport, VSYNC_90HZ_CYCLES};
use oovr_mem::Cycle;

/// The 90 Hz vsync deadline in milliseconds (Table 1).
pub const VSYNC_90HZ_MS: f64 = 1000.0 / 90.0;

/// Cycles one GPM needs to warp `pixels` displayed pixels (one read + one
/// write per pixel through its ROPs) — the per-object form the temporal
/// reuse layer charges for a reprojected object.
pub fn warp_cycles_for_pixels(pixels: u64) -> Cycle {
    // Warp touches each displayed pixel once; ROPs process 4 px/cycle each.
    (2 * pixels.max(1)) / (u64::from(ROPS_PER_GPM) * 4)
}

/// Cycles one GPM needs to warp a full stereo frame (read + write every
/// pixel through its ROPs).
pub fn warp_cycles(report: &FrameReport) -> Cycle {
    warp_cycles_for_pixels(report.counts.pixels_out)
}

/// The vsync budget in cycles for a `deadline_ms` deadline at the 1 GHz
/// clock. The 90 Hz case routes through the shared
/// [`oovr_gpu::VSYNC_90HZ_CYCLES`] constant instead of re-deriving it; the
/// truncation arithmetic agrees exactly (tested), so the special case
/// changes provenance, not value.
pub fn budget_cycles(deadline_ms: f64) -> Cycle {
    if deadline_ms == VSYNC_90HZ_MS {
        VSYNC_90HZ_CYCLES
    } else {
        (deadline_ms * 1e6) as Cycle // 1 GHz
    }
}

/// Display statistics for a scheme running against a vsync deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtwStats {
    /// The vsync budget in cycles (deadline_ms at 1 GHz).
    pub budget_cycles: Cycle,
    /// True (freshly rendered) frames per displayed frame, in `(0, 1]`.
    pub real_frame_ratio: f64,
    /// Vsync intervals each true frame spans (1 = always on time).
    pub intervals_per_frame: u64,
    /// Whether ATW itself fits in the budget (it practically always does).
    pub warp_fits: bool,
}

/// Evaluates a scheme's frame time against a `deadline_ms` vsync budget.
///
/// If the true frame time exceeds the budget, ATW fills the missed vsyncs
/// with re-projected frames: the display never starves, but only
/// `1/intervals` of displayed frames carry fresh content — exactly the
/// "artificially fill in dropped frames" stopgap the paper argues cannot
/// replace faster true rendering.
///
/// # Panics
///
/// Panics if `deadline_ms` is not positive.
pub fn evaluate(report: &FrameReport, deadline_ms: f64) -> AtwStats {
    assert!(deadline_ms > 0.0, "deadline must be positive");
    let budget = budget_cycles(deadline_ms);
    let intervals = report.frame_cycles.div_ceil(budget).max(1);
    AtwStats {
        budget_cycles: budget,
        real_frame_ratio: 1.0 / intervals as f64,
        intervals_per_frame: intervals,
        warp_fits: warp_cycles(report) <= budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Baseline, RenderScheme};
    use oovr_gpu::GpuConfig;
    use oovr_scene::benchmarks;

    #[test]
    fn on_time_frames_need_no_warp() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let r = Baseline::new().render_frame(&scene, &cfg);
        // Tiny frames easily beat a generous deadline.
        let stats = evaluate(&r, 100.0);
        assert_eq!(stats.intervals_per_frame, 1);
        assert_eq!(stats.real_frame_ratio, 1.0);
        assert!(stats.warp_fits);
    }

    #[test]
    fn missed_deadlines_are_filled_with_stale_frames() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let r = Baseline::new().render_frame(&scene, &cfg);
        // Force a deadline shorter than the frame: ATW covers the gap, but
        // the real-frame ratio drops below 1.
        let tight_ms = r.frame_cycles as f64 / 1e6 / 2.5;
        let stats = evaluate(&r, tight_ms);
        assert!(stats.intervals_per_frame >= 3);
        assert!(stats.real_frame_ratio <= 1.0 / 3.0);
        assert!(stats.warp_fits, "the warp itself is cheap");
    }

    #[test]
    fn warp_cost_scales_with_pixels() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let r = Baseline::new().render_frame(&scene, &cfg);
        let w = warp_cycles(&r);
        assert!(w > 0);
        assert!(w < r.frame_cycles, "warping is far cheaper than rendering");
    }

    #[test]
    fn ninety_hz_budget_routes_through_the_shared_constant() {
        // The special case and the general truncation arithmetic agree bit
        // for bit, so routing 90 Hz through the constant changes nothing.
        assert_eq!((VSYNC_90HZ_MS * 1e6) as Cycle, VSYNC_90HZ_CYCLES);
        assert_eq!(budget_cycles(VSYNC_90HZ_MS), VSYNC_90HZ_CYCLES);
        // Other deadlines keep the truncation path.
        assert_eq!(budget_cycles(100.0), 100_000_000);
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let r = Baseline::new().render_frame(&scene, &cfg);
        assert_eq!(evaluate(&r, VSYNC_90HZ_MS).budget_cycles, VSYNC_90HZ_CYCLES);
    }

    #[test]
    fn per_pixel_warp_matches_the_frame_warp() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let r = Baseline::new().render_frame(&scene, &cfg);
        assert_eq!(warp_cycles_for_pixels(r.counts.pixels_out), warp_cycles(&r));
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let r = Baseline::new().render_frame(&scene, &cfg);
        let _ = evaluate(&r, 0.0);
    }
}
