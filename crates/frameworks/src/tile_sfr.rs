//! Tile-level Split Frame Rendering (§4.2, Figs. 6b/6c).
//!
//! The stereo frame is cut into per-GPM strips (sort-first). Every object
//! is rendered by each GPM whose strip its bounds overlap; geometry is
//! re-processed per strip (the overlap cost §4.2 attributes the extra
//! inter-GPM traffic to).
//!
//! * **Vertical** strips split the left and right views across different
//!   GPMs, so the two eyes' instances render on different modules and SMP's
//!   cross-eye sharing is lost — each eye is processed as a separate
//!   single-view pass.
//! * **Horizontal** strips span both eyes, so SMP applies within each strip,
//!   but wide objects (and all strips of tall ones) still duplicate work
//!   and texture footprints across GPMs.

use std::collections::VecDeque;

use oovr_gpu::{ColorMode, Composition, Executor, FbOrg, FrameReport, GpuConfig, RenderUnit};
use oovr_mem::Placement;
use oovr_scene::{Eye, Rect, Scene};

use crate::scheduling::run_interleaved;
use crate::traits::RenderScheme;

/// Strip orientation of the tile-level SFR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Vertical strips (Fig. 6b): splits the two eyes across GPMs.
    Vertical,
    /// Horizontal strips (Fig. 6c): keeps both eyes on each GPM.
    Horizontal,
}

/// Tile-level split frame rendering.
#[derive(Debug, Clone, Copy)]
pub struct TileSfr {
    /// Strip orientation.
    pub orientation: Orientation,
}

impl TileSfr {
    /// Vertical-strip variant.
    pub fn vertical() -> Self {
        TileSfr { orientation: Orientation::Vertical }
    }

    /// Horizontal-strip variant.
    pub fn horizontal() -> Self {
        TileSfr { orientation: Orientation::Horizontal }
    }

    /// The strip rectangle owned by GPM `g`.
    fn strip(&self, g: usize, n: usize, stereo_w: u32, h: u32) -> Rect {
        match self.orientation {
            Orientation::Vertical => {
                let w = (stereo_w as usize).div_ceil(n) as f32;
                Rect::new(g as f32 * w, 0.0, w.min(stereo_w as f32 - g as f32 * w), h as f32)
            }
            Orientation::Horizontal => {
                let sh = (h as usize).div_ceil(n) as f32;
                Rect::new(0.0, g as f32 * sh, stereo_w as f32, sh.min(h as f32 - g as f32 * sh))
            }
        }
    }
}

impl RenderScheme for TileSfr {
    fn name(&self) -> &'static str {
        match self.orientation {
            Orientation::Vertical => "Tile-Level (V)",
            Orientation::Horizontal => "Tile-Level (H)",
        }
    }

    fn render_frame(&self, scene: &Scene, cfg: &GpuConfig) -> FrameReport {
        let fb_org = match self.orientation {
            Orientation::Vertical => FbOrg::Columns,
            Orientation::Horizontal => FbOrg::Rows,
        };
        let mut ex =
            Executor::new(cfg.clone(), scene, Placement::FirstTouch, fb_org, ColorMode::Direct);
        let n = cfg.n_gpms;
        let res = scene.resolution();
        let (sw, sh) = (res.stereo_width(), res.height);
        let mut queues = vec![VecDeque::new(); n];

        for obj in scene.objects() {
            let bounds = obj.stereo_bounds(res);
            let mut first = true;
            #[allow(clippy::needless_range_loop)] // g is both strip id and queue index
            for g in 0..n {
                let strip = self.strip(g, n, sw, sh);
                if !strip.overlaps(&bounds) {
                    continue;
                }
                match self.orientation {
                    Orientation::Vertical => {
                        // Each eye renders separately; a strip only processes
                        // the eyes whose viewport it intersects.
                        for eye in Eye::BOTH {
                            let vp = obj.viewport(res, eye);
                            let vp_rect = Rect::new(vp.x, vp.y, vp.width, vp.height);
                            if strip.overlaps(&vp_rect) {
                                let mut u = RenderUnit::single(obj.id(), eye).clipped(strip);
                                if !first {
                                    u = u.without_command();
                                }
                                first = false;
                                queues[g].push_back(u);
                            }
                        }
                    }
                    Orientation::Horizontal => {
                        let mut u = RenderUnit::smp(obj.id()).clipped(strip);
                        if !first {
                            u = u.without_command();
                        }
                        first = false;
                        queues[g].push_back(u);
                    }
                }
            }
        }
        run_interleaved(&mut ex, queues);
        ex.finish(self.name(), Composition::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Baseline;
    use oovr_gpu::{partition_of_column, partition_of_row};
    use oovr_scene::benchmarks;

    #[test]
    fn strips_tile_the_frame() {
        let t = TileSfr::vertical();
        let mut covered = 0.0;
        for g in 0..4 {
            covered += t.strip(g, 4, 1280, 480).area();
        }
        assert_eq!(covered, 1280.0 * 480.0);
        let t = TileSfr::horizontal();
        let mut covered = 0.0;
        for g in 0..4 {
            covered += t.strip(g, 4, 1280, 480).area();
        }
        assert_eq!(covered, 1280.0 * 480.0);
    }

    #[test]
    fn tile_sfr_covers_same_fragments_as_baseline() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let base = Baseline::new().render_frame(&scene, &cfg);
        for scheme in [TileSfr::vertical(), TileSfr::horizontal()] {
            let r = scheme.render_frame(&scene, &cfg);
            assert_eq!(
                r.counts.fragments,
                base.counts.fragments,
                "{} must shade the same fragments",
                scheme.name()
            );
            assert!(r.gpm_busy.iter().all(|&b| b > 0));
        }
    }

    #[test]
    fn vertical_strips_redo_per_eye_geometry() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let v = TileSfr::vertical().render_frame(&scene, &cfg);
        let h = TileSfr::horizontal().render_frame(&scene, &cfg);
        // V processes each eye separately (no SMP sharing): more vertex work
        // than H, which shares geometry across eyes within a strip.
        assert!(
            v.counts.vertices > h.counts.vertices,
            "v {} vs h {}",
            v.counts.vertices,
            h.counts.vertices
        );
    }

    #[test]
    fn strip_owner_maps_extremes() {
        // Vertical strips split the columns, horizontal strips the rows.
        assert_eq!(partition_of_column(0, 128, 4), 0);
        assert_eq!(partition_of_column(127, 128, 4), 3);
        assert_eq!(partition_of_row(63, 64, 4), 3);
    }
}
