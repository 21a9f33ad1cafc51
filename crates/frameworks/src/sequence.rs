//! Multi-frame sequences: overall frame rate vs single-frame latency.
//!
//! VR quality hinges on *both* metrics (§4.1 of the paper): AFR maximizes
//! overall frame rate by pipelining whole frames across GPMs, but each
//! frame's motion-to-photon latency is a full single-GPM render — the
//! source of "judder, lagging and sickness". This module renders a frame
//! in steady state and derives sequence-level metrics, including whether
//! the scheme meets the stereo-VR deadline of Table 1.

use oovr_gpu::{FrameReport, GpuConfig};
use oovr_mem::Cycle;
use oovr_scene::Scene;

use crate::traits::RenderScheme;

/// Sequence-level metrics for a scheme in steady state.
#[derive(Debug, Clone)]
pub struct SequenceReport {
    /// Scheme name.
    pub scheme: String,
    /// Frames simulated (analytically pipelined).
    pub frames: u32,
    /// Cycles from first submission to last display.
    pub total_cycles: Cycle,
    /// Single-frame (motion-to-photon) latency in cycles.
    pub frame_latency: Cycle,
    /// Overall frames per second at the 1 GHz clock.
    pub overall_fps: f64,
    /// The steady-state frame report backing these numbers.
    pub frame: FrameReport,
}

impl SequenceReport {
    /// Single-frame latency in milliseconds at 1 GHz.
    pub fn latency_ms(&self) -> f64 {
        self.frame_latency as f64 / 1e6
    }
}

/// Renders `frames` identical frames under `scheme`, pipelining frames
/// across GPMs where the scheme supports it (AFR's `frames_in_flight`).
///
/// The steady-state frame is simulated once; sequence totals are derived
/// analytically, which is exact for schemes whose concurrent frames share
/// no data paths (AFR's replicated memory spaces) and for serial schemes.
///
/// # Panics
///
/// Panics if `frames` is zero.
pub fn render_sequence(
    scheme: &dyn RenderScheme,
    scene: &Scene,
    cfg: &GpuConfig,
    frames: u32,
) -> SequenceReport {
    assert!(frames > 0, "need at least one frame");
    let frame = scheme.render_frame(scene, cfg);
    let fif = scheme.frames_in_flight(cfg).max(1);
    // With `fif` frames in flight, a new frame completes every
    // `frame_cycles / fif` in steady state; the pipeline drains after the
    // last wave.
    let waves = u64::from(frames.div_ceil(fif));
    let total_cycles = waves * frame.frame_cycles;
    let overall_fps = scheme.overall_fps(&frame, cfg);
    SequenceReport {
        scheme: frame.scheme.clone(),
        frames,
        total_cycles,
        frame_latency: frame.frame_cycles,
        overall_fps,
        frame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Afr, Baseline};
    use oovr_scene::benchmarks;

    fn scene() -> Scene {
        benchmarks::hl2_640().scaled(0.12).build()
    }

    #[test]
    fn afr_pipelines_frames() {
        let s = scene();
        let cfg = GpuConfig::default();
        let afr = render_sequence(&Afr::new(), &s, &cfg, 8);
        let base = render_sequence(&Baseline::new(), &s, &cfg, 8);
        // 8 frames in 2 waves of 4 for AFR; 8 serial frames for baseline.
        assert_eq!(afr.total_cycles, 2 * afr.frame_latency);
        assert_eq!(base.total_cycles, 8 * base.frame_latency);
        assert!(afr.overall_fps > base.overall_fps);
    }

    #[test]
    fn partial_last_wave_rounds_up() {
        let s = scene();
        let cfg = GpuConfig::default();
        let afr = render_sequence(&Afr::new(), &s, &cfg, 5);
        assert_eq!(afr.total_cycles, 2 * afr.frame_latency, "5 frames need 2 waves of 4");
    }

    #[test]
    fn deadline_check_uses_latency_not_throughput() {
        let s = scene();
        let cfg = GpuConfig::default();
        let r = render_sequence(&Baseline::new(), &s, &cfg, 1);
        // Tiny test frames easily meet Table 1's 10 ms latency bound.
        assert!(r.latency_ms() <= oovr_scene::vr::STEREO_VR.frame_latency_ms.1);
        assert!(r.latency_ms() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let s = scene();
        let _ = render_sequence(&Baseline::new(), &s, &GpuConfig::default(), 0);
    }
}
