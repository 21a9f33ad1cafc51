//! Microbenchmarks of the temporal-reuse hot path: the per-frame reuse
//! decision and the OU pose step that feeds it. Both run once per session
//! per frame in the serving layer, so their cost bounds how many
//! concurrent sessions the capacity probe can price. A decision first
//! asks the scene bound — one whole-scene box, then the 4×4 grid —
//! whether any probe can move past the threshold; if none can it returns
//! the all-reuse decision at once (the fast branch). Otherwise it takes
//! the masked branch: objects whose grid cells all pass the bound are
//! reused unmeasured, the division-free mask filter decides the rest in
//! flat loops over their corners (the exact motion kernel measures only
//! a block the filter leaves open), and a branch-free fold sums the
//! per-GPM loads. The decision is timed on both branches on the
//! draw-heavy WE scene, on the fast branch on the short HL2-640 walk, on
//! the masked branch under a 90 Hz step on DM3-1600 (the costly scene of
//! the serve-fleet workload), and the box, the grid, the filter and the
//! kernel alone on WE, so the split between the stages stays visible.
//! Each decide bench asserts the branch it times.

mod common;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use oovr::schemes::OoVr;
use oovr::temporal::DEFAULT_REUSE_THRESHOLD;
use oovr_gpu::GpuConfig;
use oovr_scene::{benchmarks, Pose, PoseDelta, PoseTrajectory};

fn bench(c: &mut Criterion) {
    let scene = common::scene();
    let cfg = GpuConfig::default();
    let (_, profile) = OoVr::new().render_frames_profiled(&scene, &cfg, 2);
    let mut traj = PoseTrajectory::new(7);
    let from = traj.current();
    let to = traj.step();
    let delta = PoseDelta::new(&from, &to);

    // The per-frame reuse decision at the default threshold under a 90 Hz
    // pose step. The scene bound passes, so this is the fast branch.
    assert!(scene.motion_kernel().all_below(&delta, DEFAULT_REUSE_THRESHOLD));
    c.bench_function("temporal_reuse_decision", |b| {
        b.iter(|| black_box(profile.decide(&from, &to, DEFAULT_REUSE_THRESHOLD).saved))
    });

    // The same decision on the draw-heavy scene, also on the fast branch:
    // the bound costs the same few cells however many probes there are.
    let we = common::scenes().remove(1);
    let (_, we_profile) = OoVr::new().render_frames_profiled(&we, &cfg, 2);
    let we_kernel = we.motion_kernel();
    assert!(we_kernel.all_below(&delta, DEFAULT_REUSE_THRESHOLD));
    c.bench_function("temporal_reuse_decision_we", |b| {
        b.iter(|| black_box(we_profile.decide(&from, &to, DEFAULT_REUSE_THRESHOLD).saved))
    });

    // A 0.2 rad turn fails the bound, so this decision takes the masked
    // branch: the bound, the pose delta, the mask filter and the fold.
    let turned = Pose { yaw: from.yaw + 0.2, ..from };
    let moved = PoseDelta::new(&from, &turned);
    assert!(!we_kernel.all_below(&moved, DEFAULT_REUSE_THRESHOLD));
    c.bench_function("temporal_reuse_decision_we_moved", |b| {
        b.iter(|| black_box(we_profile.decide(&from, &turned, DEFAULT_REUSE_THRESHOLD).saved))
    });

    // The scene bound alone on the 90 Hz step, where it passes every cell.
    c.bench_function("motion_bound_we", |b| {
        b.iter(|| black_box(we_kernel.all_below(black_box(&delta), DEFAULT_REUSE_THRESHOLD)))
    });

    // The whole-scene box alone on the same step, where it passes: what a
    // decide pays before the grid on the common all-reuse frame.
    assert!(we_kernel.whole_below(&delta, DEFAULT_REUSE_THRESHOLD));
    c.bench_function("motion_whole_bound_we", |b| {
        b.iter(|| black_box(we_kernel.whole_below(black_box(&delta), DEFAULT_REUSE_THRESHOLD)))
    });

    // The motion kernel alone on the turned pair: every probe measured
    // exactly, without the bound, the pose delta or the load fold.
    c.bench_function("motion_kernel_we", |b| {
        b.iter(|| {
            we_kernel.for_each_block(&moved, |_, motions| {
                black_box(motions);
            })
        })
    });

    // The mask filter alone on the same pair and probes: it decides every
    // block, so no probe reaches the kernel.
    let every = std::iter::once(0..we_kernel.len());
    assert_eq!(
        we_kernel.for_each_mask_in(&moved, DEFAULT_REUSE_THRESHOLD, every.clone(), |_, _| {}),
        0
    );
    c.bench_function("motion_filter_we", |b| {
        b.iter(|| {
            we_kernel.for_each_mask_in(
                &moved,
                DEFAULT_REUSE_THRESHOLD,
                every.clone(),
                |_, masks| {
                    black_box(masks);
                },
            )
        })
    });

    // The costliest decide of the serve-fleet workload: a 90 Hz step on
    // DM3-1600 that falls past both scene bounds, so the mask filter
    // decides most of its probes. The step is the first of the first
    // seeded trajectory that fails both.
    let dm3 = benchmarks::dm3_1600().scaled(common::BENCH_SCALE).build();
    let (_, dm3_profile) = OoVr::new().render_frames_profiled(&dm3, &cfg, 2);
    let dm3_kernel = dm3.motion_kernel();
    let (dm3_from, dm3_to) = (0..)
        .map(|seed| {
            let mut walk = PoseTrajectory::new(seed);
            (walk.current(), walk.step())
        })
        .find(|(from, to)| {
            let delta = PoseDelta::new(from, to);
            !dm3_kernel.whole_below(&delta, DEFAULT_REUSE_THRESHOLD)
                && !dm3_kernel.all_below(&delta, DEFAULT_REUSE_THRESHOLD)
        })
        .expect("some 90 Hz step on DM3-1600 fails both bounds");
    c.bench_function("temporal_reuse_decision_dm3", |b| {
        b.iter(|| black_box(dm3_profile.decide(&dm3_from, &dm3_to, DEFAULT_REUSE_THRESHOLD).saved))
    });

    // At threshold 0 (`TemporalConfig::exact`) the decision returns before
    // the bound and the walk; its cost is the floor every non-temporal
    // frame pays when a profile is attached.
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
