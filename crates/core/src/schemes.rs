//! The OO-VR rendering schemes: `OO_APP` (software-only) and full `OO-VR`.

use std::collections::VecDeque;

use oovr_frameworks::{run_interleaved, RenderScheme};
use oovr_gpu::{ColorMode, Composition, Executor, FbOrg, FrameReport, GpuConfig, RenderUnit};
use oovr_mem::{GpmId, Placement};
use oovr_scene::Scene;
use oovr_trace::{Recorder, TraceConfig};

use crate::distribution::{run_distribution, DistributionConfig, DistributionStats};
use crate::middleware::{build_batches, Batch, MiddlewareConfig};

/// `OO_APP`: the object-oriented programming model and middleware alone
/// (§5.1), with no hardware support — batches are distributed round-robin
/// by software and the frame is composed at a master node, exactly like
/// conventional object-level SFR. This is the "without hardware
/// modifications" configuration of Fig. 15.
#[derive(Debug, Clone)]
pub struct OoApp {
    /// Middleware (TSL batching) configuration.
    pub middleware: MiddlewareConfig,
    /// Master node for software distribution and composition.
    pub root: GpmId,
}

impl Default for OoApp {
    fn default() -> Self {
        OoApp { middleware: MiddlewareConfig::default(), root: GpmId(0) }
    }
}

impl OoApp {
    /// Creates OO_APP with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared frame body; `trace` attaches the flight recorder.
    fn frame(
        &self,
        scene: &Scene,
        cfg: &GpuConfig,
        trace: Option<TraceConfig>,
    ) -> (FrameReport, Option<Recorder>) {
        let mut ex = Executor::new(
            cfg.clone(),
            scene,
            Placement::FirstTouch,
            FbOrg::Single(self.root),
            ColorMode::Deferred,
        );
        if let Some(tc) = trace {
            ex.enable_trace(tc);
        }
        let batches = build_batches(scene, self.middleware);
        let n = cfg.n_gpms;
        let mut queues = vec![VecDeque::new(); n];
        for (i, b) in batches.iter().enumerate() {
            for &obj in &b.objects {
                queues[i % n].push_back(RenderUnit::smp(obj));
            }
        }
        run_interleaved(&mut ex, queues);
        ex.finish_traced(self.name(), Composition::Master(self.root))
    }
}

impl RenderScheme for OoApp {
    fn name(&self) -> &'static str {
        "OO_APP"
    }

    fn render_frame(&self, scene: &Scene, cfg: &GpuConfig) -> FrameReport {
        self.frame(scene, cfg, None).0
    }

    fn render_frame_traced(
        &self,
        scene: &Scene,
        cfg: &GpuConfig,
        trace: TraceConfig,
    ) -> (FrameReport, Option<Recorder>) {
        self.frame(scene, cfg, Some(trace))
    }
}

/// The full OO-VR framework (§5): OO programming model + TSL middleware +
/// object-aware runtime distribution engine (Eq. 3 predictor, PA
/// pre-allocation, fine-grained stealing) + distributed hardware
/// composition over a column-partitioned framebuffer.
#[derive(Debug, Clone)]
pub struct OoVr {
    /// Middleware (TSL batching) configuration.
    pub middleware: MiddlewareConfig,
    /// Distribution engine configuration (ablation toggles live here).
    pub distribution: DistributionConfig,
    /// Use the distributed hardware composition unit; `false` falls back to
    /// master-node composition (ablation).
    pub dhc: bool,
}

impl Default for OoVr {
    fn default() -> Self {
        OoVr {
            middleware: MiddlewareConfig::default(),
            distribution: DistributionConfig::default(),
            dhc: true,
        }
    }
}

impl OoVr {
    /// Creates OO-VR with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates OO-VR with the runtime fault countermeasures enabled
    /// (drift re-calibration, rate-factor steering, early stealing, PA
    /// retry/fallback, deadline shedding) at their default tuning.
    pub fn resilient() -> Self {
        OoVr {
            distribution: DistributionConfig {
                resilience: crate::distribution::ResilienceConfig::on(),
                ..DistributionConfig::default()
            },
            ..Self::default()
        }
    }

    /// Like [`resilient`](Self::resilient) but with an explicit frame
    /// budget for the deadline monitor.
    pub fn resilient_with_deadline(deadline_cycles: u64) -> Self {
        OoVr {
            distribution: DistributionConfig {
                resilience: crate::distribution::ResilienceConfig {
                    deadline_cycles,
                    ..crate::distribution::ResilienceConfig::on()
                },
                ..DistributionConfig::default()
            },
            ..Self::default()
        }
    }
}

impl OoVr {
    /// What every OO-VR render path starts from: a First-Touch executor
    /// with deferred color over the framebuffer organisation the `dhc`
    /// toggle selects, the frame's batches, and the matching composition.
    fn prepare<'s>(
        &self,
        scene: &'s Scene,
        cfg: &GpuConfig,
    ) -> (Executor<'s>, Vec<Batch>, Composition) {
        let (fb_org, comp) = if self.dhc {
            (FbOrg::Columns, Composition::Distributed)
        } else {
            (FbOrg::Single(GpmId(0)), Composition::Master(GpmId(0)))
        };
        let ex =
            Executor::new(cfg.clone(), scene, Placement::FirstTouch, fb_org, ColorMode::Deferred);
        (ex, build_batches(scene, self.middleware), comp)
    }

    /// Renders `frames` consecutive frames of `scene` in one *warm*
    /// executor and returns each frame's isolated report.
    ///
    /// The first frame pays the PA units' one-time data distribution; later
    /// frames render from steady-state page placement with warm caches —
    /// this is the empirical backing for the steady-state traffic metric
    /// used in the Fig. 16 reproduction.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn render_frames(&self, scene: &Scene, cfg: &GpuConfig, frames: u32) -> Vec<FrameReport> {
        assert!(frames > 0, "need at least one frame");
        let (mut ex, batches, comp) = self.prepare(scene, cfg);
        let mut reports = Vec::with_capacity(frames as usize);
        for _ in 0..frames {
            let mark = ex.begin_frame();
            run_distribution(&mut ex, &batches, &self.distribution);
            reports.push(ex.finish_frame(&mark, self.name(), comp));
        }
        reports
    }

    /// Like [`render_frames`](Self::render_frames), but also profiles the
    /// final (steady-state) frame into a per-object
    /// [`TemporalProfile`](crate::temporal::TemporalProfile): each object's
    /// busy cycles per GPM, its shaded pixels (the ATW warp size), and its
    /// reprojection probe. The reports are bit-identical to what
    /// `render_frames` returns — attribution only reads counters the
    /// executor already maintains.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn render_frames_profiled(
        &self,
        scene: &Scene,
        cfg: &GpuConfig,
        frames: u32,
    ) -> (Vec<FrameReport>, crate::temporal::TemporalProfile) {
        assert!(frames > 0, "need at least one frame");
        let (mut ex, batches, comp) = self.prepare(scene, cfg);
        let mut reports = Vec::with_capacity(frames as usize);
        let mut busy0 = Vec::new();
        let mut px0 = Vec::new();
        for i in 0..frames {
            if i + 1 == frames {
                busy0 = ex.object_busy().to_vec();
                px0 = ex.object_pixels().to_vec();
            }
            let mark = ex.begin_frame();
            run_distribution(&mut ex, &batches, &self.distribution);
            reports.push(ex.finish_frame(&mark, self.name(), comp));
        }
        let busy: Vec<u64> = ex.object_busy().iter().zip(&busy0).map(|(a, b)| a - b).collect();
        let pixels: Vec<u64> = ex.object_pixels().iter().zip(&px0).map(|(a, b)| a - b).collect();
        let steady = reports.last().expect("frames > 0").frame_cycles;
        let profile =
            crate::temporal::TemporalProfile::new(scene, cfg.n_gpms, busy, &pixels, steady);
        (reports, profile)
    }

    /// Shared frame body; `trace` attaches the flight recorder. Also
    /// returns the distribution-engine statistics for the frame.
    fn frame(
        &self,
        scene: &Scene,
        cfg: &GpuConfig,
        trace: Option<TraceConfig>,
    ) -> (FrameReport, Option<Recorder>, DistributionStats) {
        let (mut ex, batches, comp) = self.prepare(scene, cfg);
        if let Some(tc) = trace {
            ex.enable_trace(tc);
        }
        let stats = run_distribution(&mut ex, &batches, &self.distribution);
        let (report, rec) = ex.finish_traced(self.name(), comp);
        (report, rec, stats)
    }

    /// Renders one frame and returns the distribution-engine statistics
    /// alongside the report (prediction-error summary, steal/migration
    /// counters, …).
    pub fn render_frame_with_stats(
        &self,
        scene: &Scene,
        cfg: &GpuConfig,
    ) -> (FrameReport, DistributionStats) {
        let (report, _, stats) = self.frame(scene, cfg, None);
        (report, stats)
    }
}

impl RenderScheme for OoVr {
    fn name(&self) -> &'static str {
        "OOVR"
    }

    fn render_frame(&self, scene: &Scene, cfg: &GpuConfig) -> FrameReport {
        self.frame(scene, cfg, None).0
    }

    fn render_frame_traced(
        &self,
        scene: &Scene,
        cfg: &GpuConfig,
        trace: TraceConfig,
    ) -> (FrameReport, Option<Recorder>) {
        let (report, rec, _) = self.frame(scene, cfg, Some(trace));
        (report, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_frameworks::{Baseline, ObjectSfr};
    use oovr_scene::benchmarks;

    fn scene() -> Scene {
        benchmarks::hl2_640().scaled(0.15).build()
    }

    #[test]
    fn oovr_renders_the_same_frame_as_baseline() {
        let s = scene();
        let cfg = GpuConfig::default();
        let base = Baseline::new().render_frame(&s, &cfg);
        let oovr = OoVr::new().render_frame(&s, &cfg);
        assert_eq!(oovr.counts.fragments, base.counts.fragments);
        // Depth-test survival depends on render order, so color output may
        // differ between schemes, but both resolve the same final image and
        // must emit at least every finally-visible pixel.
        let ratio = oovr.counts.pixels_out as f64 / base.counts.pixels_out as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "pixels_out ratio {ratio}");
    }

    #[test]
    fn oovr_outperforms_baseline_and_object_sfr() {
        let s = scene();
        let cfg = GpuConfig::default();
        let base = Baseline::new().render_frame(&s, &cfg);
        let object = ObjectSfr::new().render_frame(&s, &cfg);
        let ooapp = OoApp::new().render_frame(&s, &cfg);
        let oovr = OoVr::new().render_frame(&s, &cfg);
        assert!(
            oovr.frame_cycles < base.frame_cycles,
            "oovr {} vs baseline {}",
            oovr.frame_cycles,
            base.frame_cycles
        );
        assert!(
            oovr.frame_cycles < object.frame_cycles,
            "oovr {} vs object {}",
            oovr.frame_cycles,
            object.frame_cycles
        );
        assert!(
            oovr.frame_cycles <= ooapp.frame_cycles,
            "oovr {} vs ooapp {}",
            oovr.frame_cycles,
            ooapp.frame_cycles
        );
    }

    #[test]
    fn oovr_cuts_inter_gpm_texture_traffic() {
        let s = scene();
        let cfg = GpuConfig::default();
        let base = Baseline::new().render_frame(&s, &cfg);
        let oovr = OoVr::new().render_frame(&s, &cfg);
        let tex = |r: &FrameReport| r.traffic.remote_of(oovr_mem::TrafficClass::Texture);
        assert!(
            (tex(&oovr) as f64) < 0.7 * tex(&base) as f64,
            "oovr {} vs baseline {}",
            tex(&oovr),
            tex(&base)
        );
    }

    #[test]
    fn steady_state_frames_pay_no_prealloc() {
        let s = scene();
        let cfg = GpuConfig::default();
        let frames = OoVr::new().render_frames(&s, &cfg, 3);
        assert_eq!(frames.len(), 3);
        let pa = |r: &FrameReport| r.traffic.remote_of(oovr_mem::TrafficClass::PreAlloc);
        assert!(pa(&frames[0]) > 0, "cold frame distributes batch data");
        assert_eq!(pa(&frames[2]), 0, "steady frame finds its pages in place");
        // Steady frames are no slower than the cold one and shade the same
        // work.
        assert!(frames[2].frame_cycles <= frames[0].frame_cycles);
        assert_eq!(frames[2].counts.fragments, frames[0].counts.fragments);
        // Warm caches: the cumulative hit rate never degrades.
        assert!(frames[2].l1_hit_rate >= frames[0].l1_hit_rate - 0.01);
    }

    #[test]
    fn dhc_composes_faster_than_master() {
        let s = scene();
        let cfg = GpuConfig::default();
        let with_dhc = OoVr::new().render_frame(&s, &cfg);
        let without = OoVr { dhc: false, ..OoVr::new() }.render_frame(&s, &cfg);
        assert!(
            with_dhc.composition_cycles <= without.composition_cycles,
            "dhc {} vs master {}",
            with_dhc.composition_cycles,
            without.composition_cycles
        );
    }
}
