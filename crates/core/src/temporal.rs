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
use oovr_mem::placement::MAX_GPMS;
use oovr_mem::Cycle;
use oovr_scene::{MotionKernel, Pose, PoseDelta, PoseTrajectory, Scene};
use std::ops::Range;

/// Default reuse threshold in pixels of projected-bound motion.
///
/// The OU pose walk jitters ~0.035 rad/frame, which projects to
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
    /// One motion probe per object, grouped by the cells its corners bin
    /// into ([`MotionKernel::probe_cells`]): probe `i` is object
    /// `order[i]` for a build-time `order`, and every column below is
    /// laid out in probe order.
    motion: MotionKernel,
    /// Each group's cells and its contiguous probe range, covering every
    /// probe in order.
    groups: Vec<(u16, Range<usize>)>,
    /// Each group's summed `reuse` column per GPM, `[group × n_gpms +
    /// gpm]`: what the group costs when all of it is reused.
    group_reuse: Vec<Cycle>,
    /// What each object costs each GPM if it re-renders: its steady-frame
    /// busy, in per-GPM columns `[gpm × n_objects + probe]`.
    rerender: Vec<Cycle>,
    /// What each object costs each GPM if it is reused: its ATW warp cost,
    /// clamped to the busy it replaces, on its resident GPM (argmax busy,
    /// ties to the lowest index) and zero on every other. Laid out like
    /// `rerender`.
    reuse: Vec<Cycle>,
    /// Critical-path GPM load of a full re-render.
    full_max: Cycle,
    /// Critical-path GPM load when every object is reused.
    reuse_max: Cycle,
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
    /// Panics if the attribution extents disagree with the scene, or if
    /// `n_gpms` is zero or above [`MAX_GPMS`].
    pub fn new(
        scene: &Scene,
        n_gpms: usize,
        busy: Vec<Cycle>,
        pixels: &[u64],
        steady_cycles: Cycle,
    ) -> Self {
        let objects = scene.objects();
        let n = objects.len();
        assert!((1..=MAX_GPMS).contains(&n_gpms), "{n_gpms} GPMs");
        assert_eq!(busy.len(), n * n_gpms, "busy attribution extent");
        assert_eq!(pixels.len(), n, "pixel attribution extent");
        // Probes grouped by their cells, so each group is one contiguous
        // range. Every per-probe quantity is computed from that probe
        // alone and every sum below is an integer sum, so the order
        // changes no decision.
        let order = scene.motion_kernel().probe_order();
        let motion = MotionKernel::new(order.iter().map(|&o| &objects[o]), scene.resolution());
        let mut rerender = vec![0; n * n_gpms];
        let mut reuse = vec![0; n * n_gpms];
        for (i, &o) in order.iter().enumerate() {
            let (row, px) = (&busy[o * n_gpms..(o + 1) * n_gpms], pixels[o]);
            let (resident, &resident_busy) = row
                .iter()
                .enumerate()
                .max_by(|(ga, a), (gb, b)| a.cmp(b).then(gb.cmp(ga)))
                .expect("at least one GPM");
            for (g, &b) in row.iter().enumerate() {
                rerender[g * n + i] = b;
            }
            // Clamp each warp to the busy it replaces: reusing an object
            // must never cost more than rendering it, or the threshold
            // sweep would lose its monotonicity (and a degenerate
            // off-screen object could make reuse a pessimization).
            reuse[resident * n + i] = atw::warp_cycles_for_pixels(px).min(resident_busy);
        }
        let mut groups: Vec<(u16, Range<usize>)> = Vec::new();
        for (i, &c) in motion.probe_cells().iter().enumerate() {
            match groups.last_mut() {
                Some((cells, probes)) if *cells == c => probes.end = i + 1,
                _ => groups.push((c, i..i + 1)),
            }
        }
        let group_reuse = groups
            .iter()
            .flat_map(|(_, probes)| {
                let reuse = &reuse;
                (0..n_gpms)
                    .map(move |g| reuse[g * n + probes.start..g * n + probes.end].iter().sum())
            })
            .collect();
        let critical = |loads: &[Cycle]| {
            loads.chunks_exact(n.max(1)).map(|col| col.iter().sum()).max().unwrap_or(0)
        };
        TemporalProfile {
            motion,
            groups,
            group_reuse,
            full_max: critical(&rerender),
            reuse_max: critical(&reuse),
            rerender,
            reuse,
            steady_cycles,
        }
    }

    /// Number of profiled objects.
    pub fn n_objects(&self) -> usize {
        self.motion.len()
    }

    /// The profiled steady frame's full-re-render cost.
    pub fn steady_cycles(&self) -> Cycle {
        self.steady_cycles
    }

    /// Decides reuse for one frame under the pose delta `from → to`: the
    /// [`decide_delta`](Self::decide_delta) of `PoseDelta::new(from, to)`.
    pub fn decide(&self, from: &Pose, to: &Pose, threshold: f64) -> TemporalDecision {
        if threshold <= 0.0 || self.motion.is_empty() {
            // Skip the view matrices too: nothing can reuse.
            return self.rerender_all();
        }
        self.decide_delta(&PoseDelta::new(from, to), threshold)
    }

    /// Decides reuse for one frame under `delta`.
    ///
    /// When the whole-scene box ([`MotionKernel::whole_below`]) or every
    /// cell of the per-cell bound ([`MotionKernel::cells_below`]) passes,
    /// every probe is provably below `threshold` and the all-reuse
    /// decision is returned at once. Otherwise a probe whose cells all
    /// pass is reused without measuring it, and the others get their
    /// masks from [`MotionKernel::for_each_mask_in`]. Either way the
    /// decision equals what measuring every probe would return.
    ///
    /// Deterministic f64 throughout — same poses and threshold, same
    /// decision, on every call and every host.
    pub fn decide_delta(&self, delta: &PoseDelta, threshold: f64) -> TemporalDecision {
        if threshold <= 0.0 || self.motion.is_empty() {
            // Motion is non-negative and the comparison strict: nothing can
            // reuse. Skip the probe walk so the exact path costs nothing.
            return self.rerender_all();
        }
        // The whole-scene box costs one cell's test and clears most
        // decides; the grid runs only where it fails.
        let occupied = self.motion.occupied_cells();
        let pass = if self.motion.whole_below(delta, threshold) {
            occupied
        } else {
            self.motion.cells_below(delta, threshold)
        };
        if pass == occupied {
            // Every motion is provably below the threshold, so the fold
            // would set every mask: its loads are the reuse columns.
            let objects = self.motion.len() as u32;
            return TemporalDecision {
                reused: objects,
                rerendered: 0,
                saved: self.full_max - self.reuse_max,
            };
        }
        self.fold(delta, threshold, pass)
    }

    /// The decision that re-renders every object.
    fn rerender_all(&self) -> TemporalDecision {
        TemporalDecision { reused: 0, rerendered: self.motion.len() as u32, saved: 0 }
    }

    /// The decision when the cells in `pass` (not all occupied ones) pass
    /// the per-cell bound: groups whose cells all pass are reused whole,
    /// and the other probes' masks select their loads. Kept out of line
    /// so the all-reuse return above stays small.
    #[inline(never)]
    fn fold(&self, delta: &PoseDelta, threshold: f64, pass: u16) -> TemporalDecision {
        let n = self.motion.len();
        let n_gpms = self.rerender.len() / n;
        let mut loads = [0; MAX_GPMS];
        let loads = &mut loads[..n_gpms];
        let mut reused = 0u32;
        // A group whose cells all pass is reused whole: the fold below
        // would add exactly its reuse sums.
        let skipped = |cells: u16| cells & !pass == 0;
        for ((cells, probes), sums) in self.groups.iter().zip(self.group_reuse.chunks_exact(n_gpms))
        {
            if skipped(*cells) {
                reused += probes.len() as u32;
                for (load, &sum) in loads.iter_mut().zip(sums) {
                    *load += sum;
                }
            }
        }
        // The other groups are masked, adjacent ones as one range.
        let mut measured = self
            .groups
            .iter()
            .filter(|(cells, _)| !skipped(*cells))
            .map(|(_, probes)| probes.clone())
            .peekable();
        let runs = std::iter::from_fn(|| {
            let mut run = measured.next()?;
            while let Some(next) = measured.next_if(|next| next.start == run.end) {
                run.end = next.end;
            }
            Some(run)
        });
        // All ones for a reused object, zero for a re-rendered one.
        self.motion.for_each_mask_in(delta, threshold, runs, |first, masks| {
            reused += masks.iter().map(|&m| (m & 1) as u32).sum::<u32>();
            // Each GPM's load sums the block's re-rendered busy and reused
            // warp, selected by mask rather than by a branch per object.
            // The sums are integers, so their order is free.
            for (g, load) in loads.iter_mut().enumerate() {
                let col = g * n + first..g * n + first + masks.len();
                let costs = self.rerender[col.clone()].iter().zip(&self.reuse[col]);
                let select = |(&m, (&b, &w)): (&Cycle, (&Cycle, &Cycle))| (b & !m) | (w & m);
                *load += masks.iter().zip(costs).map(select).sum::<Cycle>();
            }
        });
        let reduced_max = loads.iter().copied().max().unwrap_or(0);
        TemporalDecision {
            reused,
            rerendered: n as u32 - reused,
            saved: self.full_max - reduced_max,
        }
    }

    /// The decisions along `traj`: step `k` decides the pose delta from
    /// the trajectory's pose after `k` steps to the one after `k + 1`.
    /// Each pose's view matrix is built once and serves both deltas it
    /// belongs to. Endless; callers `take` the frames they price.
    pub fn decisions(
        &self,
        mut traj: PoseTrajectory,
        threshold: f64,
    ) -> impl Iterator<Item = TemporalDecision> + '_ {
        let mut prev = traj.current();
        let mut prev_view = prev.view_matrix();
        std::iter::from_fn(move || {
            let cur = traj.step();
            let view = cur.view_matrix();
            let d = self
                .decide_delta(&PoseDelta::with_views(&prev, &prev_view, &cur, &view), threshold);
            (prev, prev_view) = (cur, view);
            Some(d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::OoVr;
    use oovr_gpu::GpuConfig;
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
            profile.full_max + steady.composition_cycles,
            steady.frame_cycles,
            "busy max {} + composition {}",
            profile.full_max,
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
