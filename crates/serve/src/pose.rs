//! Seeded head-pose trajectories — re-exported from [`oovr_scene::pose`].
//!
//! The pose model moved into `oovr-scene` so the scene layer can expose
//! projected-bound motion metrics under a [`Pose`] pair (temporal reuse
//! needs the view transform next to the object bounds it moves). The
//! serving layer keeps its original paths — `oovr_serve::pose::Pose`,
//! `oovr_serve::{Pose, PoseTrajectory}` — as aliases of the
//! scene-level types.

pub use oovr_scene::pose::{Pose, PoseTrajectory};

/// The head-pose trajectory of session `id` in a run seeded `seed`. The
/// session index is mixed into the run seed, so a session's path does not
/// depend on how many other sessions the run (or capacity probe) holds.
pub fn session_trajectory(seed: u64, id: u64) -> PoseTrajectory {
    PoseTrajectory::new(seed ^ (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
