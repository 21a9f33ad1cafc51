//! Pose-correlated temporal reuse: per-object memoization with ATW-style
//! reprojection for objects whose projected bound barely moved.
//!
//! Real head motion at 90 Hz is strongly frame-to-frame correlated: most
//! objects' projected footprints move by a pixel or two between vsyncs.
//! This module turns that correlation into a cost model. A steady-state
//! OO-VR frame is profiled once into per-object, per-GPM busy cycles
//! ([`OoVr::render_frames_profiled`](crate::schemes::OoVr::render_frames_profiled)),
//! and each subsequent frame is costed by *deciding*, per object, whether
//! its projected viewport bound moved past a reuse threshold under the
//! session's pose delta:
//!
//! * **moved** (`motion >= reuse_threshold`) — the object re-renders at its
//!   profiled cost on every GPM that worked on it;
//! * **still** (`motion < reuse_threshold`) — the object is memoized: its
//!   resident GPM (the one that did most of its work, where its scratch
//!   pixels live) pays only the ATW pixel-warp cost
//!   [`atw::warp_cycles_for_pixels`] for its shaded pixels.
//!
//! The frame saving is the drop in the *critical-path* GPM load:
//! `saved = max_g full_g − max_g reduced_g`, where `full_g` is the profiled
//! per-GPM busy total and `reduced_g` replaces each reused object's busy
//! with its (clamped) warp cost at its resident GPM. A session's temporal
//! frame cost is then `steady_cost − saved`, floored at 1 cycle.
//!
//! # Exactness at threshold 0
//!
//! Reuse requires `motion < reuse_threshold` *strictly*; motion is
//! non-negative, so at `reuse_threshold == 0.0` no object ever reuses, the
//! reduced loads equal the full loads, `saved == 0`, and every consumer
//! sees bit-identical costs to the non-temporal path. The differential
//! proptest in `tests/prop_temporal.rs` pins this.
//!
//! # Monotonicity in the threshold
//!
//! Raising the threshold only grows the reuse set (strict comparison
//! against a larger bound). Moving one object from "re-render" to "reuse"
//! removes its busy from every GPM and adds its warp — clamped to never
//! exceed the busy it replaces — at one GPM, so every per-GPM load is
//! pointwise non-increasing, the critical path is non-increasing, and
//! `saved` is non-decreasing. Reuse ratio up, frame cost down, always.

use oovr_frameworks::atw;
use oovr_gpu::GpuConfig;
use oovr_mem::Cycle;
use oovr_scene::{MotionProbe, Pose, PoseDelta, Scene};

/// Default reuse threshold in pixels of projected-bound motion.
///
/// The default OU pose model jitters ~0.035 rad/frame, which projects to
/// roughly a dozen pixels at the Table 3 resolutions; 16 px reuses the
/// slow-moving bulk of a scene while re-rendering anything the eye tracks.
pub const DEFAULT_REUSE_THRESHOLD: f64 = 16.0;

/// The temporal-reuse axis of a scheme: how far (in pixels) an object's
/// projected bound may move before it must re-render.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalConfig {
    /// Projected-bound motion below which an object is reused (strict).
    /// `0.0` disables reuse exactly (bit-identical to full re-render).
    pub reuse_threshold: f64,
}

impl TemporalConfig {
    /// The exact configuration: no reuse, bit-identical to the existing
    /// full re-render path.
    pub fn exact() -> Self {
        TemporalConfig { reuse_threshold: 0.0 }
    }
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig { reuse_threshold: DEFAULT_REUSE_THRESHOLD }
    }
}

/// Outcome of one per-frame reuse decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalDecision {
    /// Objects memoized (charged the ATW warp only).
    pub reused: u32,
    /// Objects re-rendered at full cost.
    pub rerendered: u32,
    /// Critical-path cycles saved versus a full re-render.
    pub saved: Cycle,
}

impl TemporalDecision {
    /// Fraction of objects reused this frame, in `[0, 1]`.
    pub fn reuse_ratio(&self) -> f64 {
        let n = self.reused + self.rerendered;
        if n == 0 {
            0.0
        } else {
            f64::from(self.reused) / f64::from(n)
        }
    }

    /// Applies the saving to a full-re-render frame cost.
    pub fn apply(&self, base: Cycle) -> Cycle {
        base.saturating_sub(self.saved).max(1)
    }
}

/// A steady-state OO-VR frame decomposed per object: what skipping each
/// object would save on each GPM, and what warping it instead would cost.
///
/// Built by
/// [`OoVr::render_frames_profiled`](crate::schemes::OoVr::render_frames_profiled);
/// consumed per frame via [`decide`](Self::decide) under a session's pose
/// delta.
#[derive(Debug, Clone)]
pub struct TemporalProfile {
    probes: Vec<MotionProbe>,
    /// Steady-frame busy attribution, flattened `[object × n_gpms + gpm]`.
    busy: Vec<Cycle>,
    /// Per-object ATW warp cost, clamped to the busy it would replace.
    warp: Vec<Cycle>,
    /// Per-object resident GPM (argmax busy, ties to the lowest index).
    resident: Vec<u8>,
    n_gpms: usize,
    /// Per-GPM full-re-render busy totals.
    full: Vec<Cycle>,
    /// Critical-path GPM load of a full re-render.
    full_max: Cycle,
    /// The profiled steady frame's total cost (busy max + composition).
    steady_cycles: Cycle,
}

impl TemporalProfile {
    /// Builds a profile from a steady frame's per-object attribution.
    ///
    /// `busy` is the executor's flattened `[object × n_gpms + gpm]` busy
    /// delta over the frame; `pixels` its per-object shaded-pixel delta.
    ///
    /// # Panics
    ///
    /// Panics if the attribution extents disagree with the scene.
    pub fn new(
        scene: &Scene,
        cfg: &GpuConfig,
        n_gpms: usize,
        busy: Vec<Cycle>,
        pixels: &[u64],
        steady_cycles: Cycle,
    ) -> Self {
        let n = scene.objects().len();
        assert_eq!(busy.len(), n * n_gpms, "busy attribution extent");
        assert_eq!(pixels.len(), n, "pixel attribution extent");
        let mut full = vec![0; n_gpms];
        for o in 0..n {
            for (f, b) in full.iter_mut().zip(&busy[o * n_gpms..(o + 1) * n_gpms]) {
                *f += b;
            }
        }
        let full_max = full.iter().copied().max().unwrap_or(0);
        let resident: Vec<u8> = (0..n)
            .map(|o| {
                let row = &busy[o * n_gpms..(o + 1) * n_gpms];
                let (g, _) = row
                    .iter()
                    .enumerate()
                    .max_by(|(ga, a), (gb, b)| a.cmp(b).then(gb.cmp(ga)))
                    .expect("at least one GPM");
                g as u8
            })
            .collect();
        // Clamp each warp to the busy it replaces: reusing an object must
        // never cost more than rendering it, or the threshold sweep would
        // lose its monotonicity (and a degenerate off-screen object could
        // make reuse a pessimization).
        let warp: Vec<Cycle> = pixels
            .iter()
            .enumerate()
            .map(|(o, &px)| {
                atw::warp_cycles_for_pixels(px, cfg).min(busy[o * n_gpms + resident[o] as usize])
            })
            .collect();
        TemporalProfile {
            probes: scene.motion_probes(),
            busy,
            warp,
            resident,
            n_gpms,
            full,
            full_max,
            steady_cycles,
        }
    }

    /// Number of profiled objects.
    pub fn n_objects(&self) -> usize {
        self.probes.len()
    }

    /// The profiled steady frame's full-re-render cost.
    pub fn steady_cycles(&self) -> Cycle {
        self.steady_cycles
    }

    /// Critical-path GPM busy of a full re-render (excludes composition).
    pub fn busy_max(&self) -> Cycle {
        self.full_max
    }

    /// Decides reuse for one frame under the pose delta `from → to`.
    ///
    /// Deterministic f64 throughout — same poses and threshold, same
    /// decision, on every call and every host.
    pub fn decide(&self, from: &Pose, to: &Pose, threshold: f64) -> TemporalDecision {
        let n = self.probes.len() as u32;
        if threshold <= 0.0 || n == 0 {
            // Motion is non-negative and the comparison strict: nothing can
            // reuse. Skip the probe walk so the exact path costs nothing.
            return TemporalDecision { reused: 0, rerendered: n, saved: 0 };
        }
        let delta = PoseDelta::new(from, to);
        let mut loads = self.full.clone();
        let mut reused = 0u32;
        for (o, probe) in self.probes.iter().enumerate() {
            if probe.motion_in(&delta) < threshold {
                reused += 1;
                for (l, b) in loads.iter_mut().zip(&self.busy[o * self.n_gpms..]) {
                    *l -= b;
                }
                loads[self.resident[o] as usize] += self.warp[o];
            }
        }
        let reduced_max = loads.iter().copied().max().unwrap_or(0);
        TemporalDecision { reused, rerendered: n - reused, saved: self.full_max - reduced_max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::OoVr;
    use oovr_scene::{benchmarks, PoseTrajectory};

    fn profiled() -> (Scene, TemporalProfile) {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let (_, profile) = OoVr::new().render_frames_profiled(&scene, &cfg, 2);
        (scene, profile)
    }

    #[test]
    fn profile_accounts_for_the_whole_steady_frame() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let (reports, profile) = OoVr::new().render_frames_profiled(&scene, &cfg, 2);
        let steady = reports.last().unwrap();
        assert_eq!(profile.steady_cycles(), steady.frame_cycles);
        // Every steady busy cycle was attributed to some object, so the
        // per-GPM totals reconstruct the report's critical path exactly.
        assert_eq!(
            profile.busy_max() + steady.composition_cycles,
            steady.frame_cycles,
            "busy max {} + composition {}",
            profile.busy_max(),
            steady.composition_cycles
        );
        assert_eq!(profile.n_objects(), scene.objects().len());
    }

    #[test]
    fn profiled_reports_match_the_unprofiled_render() {
        let scene = benchmarks::hl2_640().scaled(0.12).build();
        let cfg = GpuConfig::default();
        let plain = OoVr::new().render_frames(&scene, &cfg, 2);
        let (profiled, _) = OoVr::new().render_frames_profiled(&scene, &cfg, 2);
        for (a, b) in plain.iter().zip(&profiled) {
            assert_eq!(a.frame_cycles, b.frame_cycles);
            assert_eq!(a.gpm_busy, b.gpm_busy);
            assert_eq!(a.counts.pixels_out, b.counts.pixels_out);
        }
    }

    #[test]
    fn threshold_zero_never_reuses() {
        let (_, profile) = profiled();
        let mut traj = PoseTrajectory::new(7);
        let from = traj.current();
        let to = traj.step();
        let d = profile.decide(&from, &to, 0.0);
        assert_eq!(d.reused, 0);
        assert_eq!(d.rerendered, profile.n_objects() as u32);
        assert_eq!(d.saved, 0);
        assert_eq!(d.apply(123_456), 123_456);
        assert_eq!(d.reuse_ratio(), 0.0);
    }

    #[test]
    fn infinite_threshold_reuses_everything() {
        let (_, profile) = profiled();
        let mut traj = PoseTrajectory::new(7);
        let from = traj.current();
        let to = traj.step();
        let d = profile.decide(&from, &to, f64::INFINITY);
        assert_eq!(d.reused, profile.n_objects() as u32);
        assert!(d.saved > 0, "warping everything beats rendering everything");
        assert!(d.apply(profile.steady_cycles()) < profile.steady_cycles());
        assert_eq!(d.reuse_ratio(), 1.0);
    }

    #[test]
    fn still_pose_reuses_under_any_positive_threshold() {
        let (_, profile) = profiled();
        let p = Pose::identity();
        let d = profile.decide(&p, &p, 1e-9);
        assert_eq!(d.reused, profile.n_objects() as u32, "zero motion reuses all");
    }

    #[test]
    fn backward_facing_delta_reuses_only_at_an_infinite_threshold() {
        let (_, profile) = profiled();
        let ahead = Pose::identity();
        let behind = Pose { yaw: std::f64::consts::PI, ..ahead };
        // Every object leaves the frustum and measures the full diagonal.
        let d = profile.decide(&ahead, &behind, DEFAULT_REUSE_THRESHOLD);
        assert_eq!((d.reused, d.saved), (0, 0));
        let d = profile.decide(&ahead, &behind, f64::INFINITY);
        assert_eq!(d.reused, profile.n_objects() as u32);
    }

    #[test]
    fn decision_is_monotone_in_threshold() {
        let (_, profile) = profiled();
        let mut traj = PoseTrajectory::new(42);
        let from = traj.current();
        let to = traj.step();
        let mut last = profile.decide(&from, &to, 0.0);
        for t in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, f64::INFINITY] {
            let d = profile.decide(&from, &to, t);
            assert!(d.reused >= last.reused, "reuse grows with threshold");
            assert!(d.saved >= last.saved, "saving grows with threshold");
            last = d;
        }
    }

    #[test]
    fn default_threshold_reuses_but_not_everything_under_real_motion() {
        let (_, profile) = profiled();
        let mut traj = PoseTrajectory::new(3);
        let from = traj.current();
        let to = traj.step();
        let d = profile.decide(&from, &to, TemporalConfig::default().reuse_threshold);
        assert!(d.reused > 0, "a 90 Hz pose delta leaves most bounds nearly still");
        assert!(d.saved > 0);
    }
}
