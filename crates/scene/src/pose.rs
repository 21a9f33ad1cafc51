//! Seeded head-pose trajectories: each serving session is a pose-driven
//! frame stream, not a bag of independent frames.
//!
//! The VR viewport-pose literature (Chen et al., "A Viewport Pose Model for
//! Volumetric Video Streaming") observes that real head motion is strongly
//! frame-to-frame correlated: orientation follows a bounded random walk with
//! mean reversion toward the comfortable straight-ahead pose, and angular
//! speed stays within human limits (~360°/s peak, far less on average).
//! [`PoseTrajectory`] reproduces exactly that shape as a discrete
//! Ornstein–Uhlenbeck walk at the 90 Hz frame rate, seeded per session so
//! two sessions with the same seed replay the identical head path.
//!
//! Poses parameterize the *identity* of every frame in a session's stream —
//! each frame carries the view transform a client at that pose would submit.
//! The executor's cost model is view-independent (scene content, not
//! visibility culling, determines simulated work — see DESIGN.md §11), so
//! poses never perturb rendering cost; they feed the QoS and trace layers
//! and pin per-frame identity for reproducibility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Head orientation (radians) and position (meters) at one vsync tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Rotation about the vertical axis (look left/right).
    pub yaw: f64,
    /// Rotation about the lateral axis (look up/down).
    pub pitch: f64,
    /// Rotation about the view axis (head tilt).
    pub roll: f64,
    /// Head position in room space.
    pub position: [f64; 3],
}

impl Pose {
    /// The straight-ahead rest pose at the room origin.
    pub fn identity() -> Self {
        Pose { yaw: 0.0, pitch: 0.0, roll: 0.0, position: [0.0; 3] }
    }

    /// Row-major 3×3 view rotation matrix for this pose (yaw·pitch·roll
    /// order). The serving layer attaches this to every frame as the view
    /// transform the session's client submitted.
    pub fn view_matrix(&self) -> [[f64; 3]; 3] {
        let (sy, cy) = self.yaw.sin_cos();
        let (sp, cp) = self.pitch.sin_cos();
        let (sr, cr) = self.roll.sin_cos();
        // R = Rz(roll) · Rx(pitch) · Ry(yaw), the usual HMD convention.
        [
            [cr * cy + sr * sp * sy, sr * cp, -cr * sy + sr * sp * cy],
            [-sr * cy + cr * sp * sy, cr * cp, sr * sy + cr * sp * cy],
            [cp * sy, -sp, cp * cy],
        ]
    }
}

// The walk's motion parameters, tuned to the viewport-pose model's
// reported statistics at 90 Hz.

/// Mean-reversion rate toward the rest pose per frame.
const REVERSION: f64 = 0.02;
/// Per-frame angular noise scale in radians.
const JITTER: f64 = 0.035;
/// Hard bound on |yaw| (radians).
const YAW_LIMIT: f64 = std::f64::consts::PI;
/// Hard bound on |pitch| (radians; humans pitch less than they yaw).
const PITCH_LIMIT: f64 = std::f64::consts::FRAC_PI_2;
/// Hard bound on |roll| (radians).
const ROLL_LIMIT: f64 = 0.5;
/// Per-frame positional drift scale in meters.
const DRIFT: f64 = 0.002;

/// A deterministic head-pose stream: one [`Pose`] per 90 Hz frame, derived
/// entirely from the session seed.
#[derive(Debug, Clone)]
pub struct PoseTrajectory {
    rng: StdRng,
    current: Pose,
}

impl PoseTrajectory {
    /// Creates the trajectory for a session seed.
    pub fn new(seed: u64) -> Self {
        PoseTrajectory { rng: StdRng::seed_from_u64(seed), current: Pose::identity() }
    }

    /// The pose at the most recent frame.
    pub fn current(&self) -> Pose {
        self.current
    }

    /// Advances one frame and returns the new pose.
    pub fn step(&mut self) -> Pose {
        let mut axis = |v: f64, limit: f64| {
            let noise = self.rng.gen_range(-JITTER..JITTER);
            (v - REVERSION * v + noise).clamp(-limit, limit)
        };
        let yaw = axis(self.current.yaw, YAW_LIMIT);
        let pitch = axis(self.current.pitch, PITCH_LIMIT);
        let roll = axis(self.current.roll, ROLL_LIMIT);
        let mut pos = self.current.position;
        for p in &mut pos {
            *p += self.rng.gen_range(-DRIFT..DRIFT);
        }
        self.current = Pose { yaw, pitch, roll, position: pos };
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_the_same_path() {
        let mut a = PoseTrajectory::new(7);
        let mut b = PoseTrajectory::new(7);
        for _ in 0..256 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = PoseTrajectory::new(1);
        let mut b = PoseTrajectory::new(2);
        let diverged = (0..32).any(|_| a.step() != b.step());
        assert!(diverged);
    }

    #[test]
    fn orientation_stays_within_human_limits() {
        let mut t = PoseTrajectory::new(99);
        for _ in 0..10_000 {
            let p = t.step();
            assert!(p.yaw.abs() <= YAW_LIMIT);
            assert!(p.pitch.abs() <= PITCH_LIMIT);
            assert!(p.roll.abs() <= ROLL_LIMIT);
        }
    }

    #[test]
    fn per_frame_angular_speed_is_bounded() {
        // 3 axes × jitter 0.035 rad ≈ 0.105 rad max per 11.1 ms frame —
        // under the ~0.07 rad/frame a 360°/s peak head turn would produce
        // per axis.
        let mut t = PoseTrajectory::new(3);
        let mut prev = t.current();
        for _ in 0..1_000 {
            let next = t.step();
            let turn = (next.yaw - prev.yaw).abs()
                + (next.pitch - prev.pitch).abs()
                + (next.roll - prev.roll).abs();
            assert!(turn <= 3.0 * JITTER + 1e-12);
            prev = next;
        }
    }

    #[test]
    fn view_matrix_is_orthonormal() {
        let mut t = PoseTrajectory::new(5);
        for _ in 0..10 {
            let m = t.step().view_matrix();
            for (i, row) in m.iter().enumerate() {
                let dot: f64 = row.iter().map(|v| v * v).sum();
                assert!((dot - 1.0).abs() < 1e-9, "row {i} norm {dot}");
            }
            let dot01: f64 = (0..3).map(|k| m[0][k] * m[1][k]).sum();
            assert!(dot01.abs() < 1e-9);
        }
    }

    #[test]
    fn identity_pose_yields_identity_matrix() {
        let m = Pose::identity().view_matrix();
        for (i, row) in m.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12);
            }
        }
    }
}
