//! Microbenchmarks of the temporal-reuse hot path: the per-frame reuse
//! decision and the OU pose step that feeds it. Both run once per session
//! per frame in the serving layer, so their cost bounds how many
//! concurrent sessions the capacity probe can price. A decision is two
//! stages: the motion kernel measures every object's projected-bound
//! motion in one flat loop over all corners, and a branch-free fold sums
//! the per-GPM loads. The decision is timed on the short HL2-640 walk and
//! on the draw-heavy WE scene, and the kernel alone on WE, so the split
//! between the two stages stays visible.

mod common;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use oovr::schemes::OoVr;
use oovr::temporal::DEFAULT_REUSE_THRESHOLD;
use oovr_gpu::GpuConfig;
use oovr_scene::{PoseDelta, PoseTrajectory};

fn bench(c: &mut Criterion) {
    let scene = common::scene();
    let cfg = GpuConfig::default();
    let (_, profile) = OoVr::new().render_frames_profiled(&scene, &cfg, 2);
    let mut traj = PoseTrajectory::new(7);
    let from = traj.current();
    let to = traj.step();

    // The per-frame reuse decision at the default threshold: measures every
    // object's motion and folds the per-GPM load vector.
    c.bench_function("temporal_reuse_decision", |b| {
        b.iter(|| black_box(profile.decide(&from, &to, DEFAULT_REUSE_THRESHOLD).saved))
    });

    // The same decision on the draw-heavy scene: the walk is ~5x longer,
    // so the per-probe cost dominates the once-per-call pose delta.
    let we = common::scenes().remove(1);
    let (_, we_profile) = OoVr::new().render_frames_profiled(&we, &cfg, 2);
    c.bench_function("temporal_reuse_decision_we", |b| {
        b.iter(|| black_box(we_profile.decide(&from, &to, DEFAULT_REUSE_THRESHOLD).saved))
    });

    // The motion kernel alone on the same scene and pose pair: the
    // decision above minus the pose delta and the load fold.
    let we_kernel = we.motion_kernel();
    let delta = PoseDelta::new(&from, &to);
    c.bench_function("motion_kernel_we", |b| {
        b.iter(|| {
            we_kernel.for_each_block(&delta, |_, motions| {
                black_box(motions);
            })
        })
    });

    // The exact path short-circuits before the probe walk; its cost is the
    // floor every non-temporal frame pays when a profile is attached.
    c.bench_function("temporal_reuse_decision_exact", |b| {
        b.iter(|| black_box(profile.decide(&from, &to, 0.0).rerendered))
    });

    // One OU pose step: the head-motion model advanced once per 90 Hz frame
    // for every live session.
    c.bench_function("pose_step", |b| {
        let mut walk = PoseTrajectory::new(42);
        b.iter(|| black_box(walk.step().yaw))
    });
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench
}
criterion_main!(benches);
