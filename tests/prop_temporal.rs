//! Property tests for pose-correlated temporal reuse.
//!
//! Two guarantees make `OOVR+temporal` safe to ship as a first-class
//! scheme, and both are pinned here over random workloads, pose seeds,
//! and serving configurations:
//!
//! * **Exactness at threshold 0.** With `TemporalConfig::exact()` the
//!   temporal scheme is *bit-identical* to plain OO-VR serving: same
//!   admitted sessions, same per-frame schedule, same rejects, same QoS.
//!   Reuse is a strict `motion < threshold` comparison against a
//!   non-negative motion, so a zero threshold reuses nothing and saves
//!   nothing, and the admission discount passes through exactly at 0.
//! * **Monotonicity in the threshold.** Raising `reuse_threshold` never
//!   decreases the reuse ratio and never increases any frame's cost (or
//!   their total): a larger bound only grows the reuse set, and each
//!   reused object's warp is clamped to the busy it replaces.
//!
//! Neither property pins a value, so a golden test also hashes every
//! probe's motion bits and the decisions they drive over fixed pose
//! pairs, against digests recorded before the walk's invariants were
//! hoisted out of the per-object loop.
//!
//! A differential test compares the structure-of-arrays motion kernel and
//! the masked load fold with a verbatim copy of the scalar corner loop and
//! branchy fold they replaced, bit for bit.
//!
//! The per-cell bound (`MotionKernel::cells_below`) lets `decide` reuse a
//! probe whose cells all pass without measuring it, and return an
//! all-reuse decision when every cell passes. Its test checks that every
//! pass is sound (every such probe's motion is below the threshold) and
//! that `decide` still equals the reference on every branch.
//!
//! The mask filter (`MotionKernel::certified`, `for_each_mask_in`) decides
//! the remaining probes' `motion < threshold` without a division. Its
//! test checks every verdict against the exact kernel at thresholds on
//! and next to every exact motion.

use proptest::prelude::*;

use oovr::temporal::{TemporalConfig, TemporalProfile};
use oovr_frameworks::atw;
use oovr_gpu::GpuConfig;
use oovr_scene::{benchmarks, Eye, MotionKernel, Pose, RenderObject, Resolution, SceneBuilder};
use oovr_serve::{cost_stream, simulate, PoseTrajectory, ServeConfig, ServeScheme};
use oovr_trace::Cycle;

/// The sweep's workload pool, small enough to stay cheap in debug builds.
fn specs() -> Vec<oovr_scene::BenchmarkSpec> {
    vec![
        benchmarks::hl2_640().scaled(0.05),
        benchmarks::dm3_640().scaled(0.05),
        benchmarks::we().scaled(0.05),
    ]
}

/// Total cycles the renderer spent on executed frames.
fn busy_cycles(out: &oovr_serve::ServeOutcome) -> Cycle {
    out.sessions
        .iter()
        .flat_map(|s| &s.frames)
        .filter(|f| !f.dropped)
        .map(|f| f.end - f.start)
        .sum()
}

proptest! {
    // Streams are memoized process-wide, so each case only pays the
    // scheduling and decide() walks.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential guard: at `reuse_threshold == 0.0` the temporal
    /// scheme serves bit-identically to plain OO-VR — sessions, frame
    /// schedules, rejects, and QoS all agree exactly.
    #[test]
    fn zero_threshold_temporal_serving_is_bit_identical_to_oovr(
        spec_ix in 0usize..3,
        sessions in 1u32..6,
        paced in 1u32..8,
        seed in 0u64..10_000,
    ) {
        let spec = &specs()[spec_ix];
        let gpu = GpuConfig::default();
        let cfg = ServeConfig {
            sessions,
            frames_per_session: paced,
            seed,
            temporal: TemporalConfig::exact(),
            ..ServeConfig::default()
        };
        let plain = simulate(ServeScheme::OoVr, spec, &gpu, &cfg, None);
        let exact = simulate(ServeScheme::OoVrTemporal, spec, &gpu, &cfg, None);
        prop_assert_eq!(&plain.sessions, &exact.sessions);
        prop_assert_eq!(&plain.rejects, &exact.rejects);
        prop_assert_eq!(plain.qos(), exact.qos());
    }

    /// Raising the threshold never decreases the per-frame reuse ratio and
    /// never increases the per-frame saving, for any pose delta on any
    /// workload's profile.
    #[test]
    fn decide_is_monotone_in_the_threshold(
        spec_ix in 0usize..3,
        pose_seed in 0u64..100_000,
        steps in 1u32..8,
        t1 in 0.0f64..64.0,
        t2 in 0.0f64..64.0,
    ) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let spec = &specs()[spec_ix];
        let gpu = GpuConfig::default();
        let stream = cost_stream(ServeScheme::OoVrTemporal, spec, &gpu);
        let profile = stream.temporal.as_ref().expect("temporal stream carries a profile");
        let mut traj = PoseTrajectory::new(pose_seed);
        let mut prev = traj.current();
        for _ in 0..steps {
            let cur = traj.step();
            let a = profile.decide(&prev, &cur, lo);
            let b = profile.decide(&prev, &cur, hi);
            prop_assert!(b.reuse_ratio() >= a.reuse_ratio(), "reuse ratio must not drop: {} -> {}", a.reuse_ratio(), b.reuse_ratio());
            prop_assert!(b.saved >= a.saved, "saving must not drop: {} -> {}", a.saved, b.saved);
            let steady = profile.steady_cycles();
            prop_assert!(b.apply(steady) <= a.apply(steady), "frame cost must not rise");
            prev = cur;
        }
    }

    /// End to end on a single always-admitted session: a higher threshold
    /// never increases the total cycles the renderer spends, and the
    /// temporal run never exceeds the plain OO-VR run it discounts.
    #[test]
    fn higher_thresholds_never_cost_more_cycles(
        spec_ix in 0usize..3,
        paced in 1u32..8,
        seed in 0u64..10_000,
        t1 in 0.0f64..64.0,
        t2 in 0.0f64..64.0,
    ) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let spec = &specs()[spec_ix];
        let gpu = GpuConfig::default();
        let run = |threshold: f64| {
            let cfg = ServeConfig {
                sessions: 1,
                frames_per_session: paced,
                seed,
                temporal: TemporalConfig { reuse_threshold: threshold },
                ..ServeConfig::default()
            };
            busy_cycles(&simulate(ServeScheme::OoVrTemporal, spec, &gpu, &cfg, None))
        };
        let at_lo = run(lo);
        let at_hi = run(hi);
        prop_assert!(at_hi <= at_lo, "busy cycles rose with the threshold: {at_lo} -> {at_hi}");
        let plain = {
            let cfg = ServeConfig {
                sessions: 1,
                frames_per_session: paced,
                seed,
                ..ServeConfig::default()
            };
            busy_cycles(&simulate(ServeScheme::OoVr, spec, &gpu, &cfg, None))
        };
        prop_assert!(at_lo <= plain, "temporal serving must never cost more than plain OO-VR");
    }
}

/// Thresholds the golden decisions are taken at, from nearly-exact to
/// reuse-everything.
const GOLDEN_THRESHOLDS: [f64; 5] = [0.5, 4.0, 16.0, 64.0, f64::INFINITY];

/// Per scene (HL2-640, DM3-1600, WE, each at scale 0.12): the first 16 hex
/// digits of SHA-256 over the `Debug` text of every probe's motion bits
/// and the `(reused, rerendered, saved)` decision at each golden
/// threshold, for every pinned pose pair.
const GOLDEN_DIGESTS: [&str; 3] = ["dd7f34b3f05fa28c", "0a4cc5009a5526f0", "a765d428c7f35b55"];

/// The pinned pose pairs: 32 consecutive steps of two seeded trajectories,
/// then a half-turn of yaw that carries every corner ray behind the viewer.
fn golden_pose_pairs() -> Vec<(Pose, Pose)> {
    let mut pairs = Vec::new();
    for seed in [3, 1009] {
        let mut traj = PoseTrajectory::new(seed);
        let mut prev = traj.current();
        for _ in 0..32 {
            let cur = traj.step();
            pairs.push((prev, cur));
            prev = cur;
        }
    }
    pairs.push((Pose::identity(), Pose { yaw: std::f64::consts::PI, ..Pose::identity() }));
    pairs
}

#[test]
fn motions_and_decisions_match_recorded_digests() {
    let gpu = GpuConfig::default();
    let pairs = golden_pose_pairs();
    let (mut partial, mut got) = (0, Vec::new());
    for spec in [benchmarks::hl2_640(), benchmarks::dm3_1600(), benchmarks::we()] {
        let spec = spec.scaled(0.12);
        let probes = spec.build().motion_probes();
        let stream = cost_stream(ServeScheme::OoVrTemporal, &spec, &gpu);
        let profile = stream.temporal.as_ref().expect("temporal stream carries a profile");
        let mut motions = Vec::new();
        let mut decisions = Vec::new();
        for (from, to) in &pairs {
            motions.push(probes.iter().map(|p| p.motion(from, to).to_bits()).collect::<Vec<_>>());
            decisions.push(GOLDEN_THRESHOLDS.map(|t| {
                let d = profile.decide(from, to, t);
                partial += usize::from(d.reused > 0 && d.rerendered > 0);
                (d.reused, d.rerendered, d.saved)
            }));
        }
        let text = format!("{:?}", (motions, decisions));
        got.push(oovr_hash::hex_digest(text.as_bytes())[..16].to_string());
    }
    // The pins only mean something if some decisions split the scene.
    assert!(partial > 0, "no pinned decision reuses part of a scene");
    assert_eq!(got, GOLDEN_DIGESTS);
}

/// Reference view ray: the pre-kernel per-corner products, verbatim —
/// `R_fromᵀ · v` accumulated from zero, then `R_to · w` the same way.
fn reference_ray(rf: &[[f64; 3]; 3], rt: &[[f64; 3]; 3], v: &[f64; 3]) -> [f64; 3] {
    let mut w = [0.0f64; 3];
    for (i, vi) in v.iter().enumerate() {
        for (j, wj) in w.iter_mut().enumerate() {
            *wj += rf[i][j] * vi;
        }
    }
    let mut n = [0.0f64; 3];
    for (i, ni) in n.iter_mut().enumerate() {
        for (j, wj) in w.iter().enumerate() {
            *ni += rt[i][j] * wj;
        }
    }
    n
}

/// Reference motion of one object: the scalar corner loop the motion
/// kernel replaced, verbatim, with the probe and pose-delta set-up it
/// read. Also returns how many corners reproject behind the eye.
fn reference_motion(o: &RenderObject, res: Resolution, from: &Pose, to: &Pose) -> (f64, usize) {
    let vp = o.viewport(res, Eye::Left);
    let (x0, y0, x1, y1) =
        (f64::from(vp.x), f64::from(vp.y), f64::from(vp.x1()), f64::from(vp.y1()));
    let (width, height) = (f64::from(res.width), f64::from(res.height));
    let corners = [[x0, y0], [x1, y0], [x0, y1], [x1, y1]];
    let ndc = corners.map(|[px, py]| [px / width * 2.0 - 1.0, py / height * 2.0 - 1.0, 1.0]);
    let depth = f64::from(o.depth());
    let diag = (width * width + height * height).sqrt();
    if from == to {
        return (0.0, 0);
    }
    let (rf, rt) = (&from.view_matrix(), &to.view_matrix());
    let behind = ndc.iter().filter(|v| reference_ray(rf, rt, v)[2] <= 1e-9).count();
    let dp = [
        to.position[0] - from.position[0],
        to.position[1] - from.position[1],
        to.position[2] - from.position[2],
    ];
    let shift = (dp[0] * dp[0] + dp[1] * dp[1] + dp[2] * dp[2]).sqrt();
    let mut worst = 0.0f64;
    for (&[px, py], v) in corners.iter().zip(&ndc) {
        let n = reference_ray(rf, rt, v);
        if n[2] <= 1e-9 {
            return (diag, behind);
        }
        let nx = (n[0] / n[2] + 1.0) * 0.5 * width;
        let ny = (n[1] / n[2] + 1.0) * 0.5 * height;
        let d = ((nx - px) * (nx - px) + (ny - py) * (ny - py)).sqrt();
        worst = worst.max(d);
    }
    let parallax = shift * (1.0 - depth) * 0.5 * width;
    ((worst + parallax).min(diag), behind)
}

/// Reference decision: the branchy per-object fold the masked one
/// replaced, over the reference motions.
fn reference_decision(
    motions: &[f64],
    busy: &[Cycle],
    pixels: &[u64],
    n_gpms: usize,
    threshold: f64,
) -> (u32, u32, Cycle) {
    let n = motions.len();
    let mut full = vec![0; n_gpms];
    for o in 0..n {
        for (f, b) in full.iter_mut().zip(&busy[o * n_gpms..(o + 1) * n_gpms]) {
            *f += b;
        }
    }
    let full_max = full.iter().copied().max().unwrap_or(0);
    let resident: Vec<usize> = (0..n)
        .map(|o| {
            let row = &busy[o * n_gpms..(o + 1) * n_gpms];
            let (g, _) = row
                .iter()
                .enumerate()
                .max_by(|(ga, a), (gb, b)| a.cmp(b).then(gb.cmp(ga)))
                .expect("at least one GPM");
            g
        })
        .collect();
    let warp: Vec<Cycle> = (0..n)
        .map(|o| atw::warp_cycles_for_pixels(pixels[o]).min(busy[o * n_gpms + resident[o]]))
        .collect();
    if threshold <= 0.0 || n == 0 {
        return (0, n as u32, 0);
    }
    let mut loads = full.clone();
    let mut reused = 0u32;
    for (o, &motion) in motions.iter().enumerate() {
        if motion < threshold {
            reused += 1;
            for (l, b) in loads.iter_mut().zip(&busy[o * n_gpms..]) {
                *l -= b;
            }
            loads[resident[o]] += warp[o];
        }
    }
    let reduced_max = loads.iter().copied().max().unwrap_or(0);
    (reused, n as u32 - reused, full_max - reduced_max)
}

/// A deterministic pseudo-random cycle count in `0..200_000` (about one
/// in eight is zero), so busy rows have ties and idle GPMs.
fn busy_cycle(seed: u64, g: usize) -> Cycle {
    let mut x = seed ^ (g as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    if x.is_multiple_of(8) {
        0
    } else {
        x % 200_000
    }
}

/// The yaw offset of a drawn pose pair: a 90 Hz jitter, a quarter turn
/// either way (corners straddle the eye plane), or a half turn.
fn yaw_step(kind: u8, offset: f64) -> f64 {
    use std::f64::consts::{FRAC_PI_2, PI};
    match kind {
        0 => 0.05 * offset,
        1 => FRAC_PI_2 + offset,
        2 => -FRAC_PI_2 + offset,
        _ => PI + offset,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The motion kernel and the masked fold are bit-identical to the
    /// scalar corner loop and the branchy fold they replaced: every
    /// motion's bits and every decision agree, over random rects, depths,
    /// resolutions and GPM counts, probe counts that leave a partial
    /// kernel block, and pose pairs that carry some but not all corners of
    /// a probe behind the eye.
    #[test]
    fn motion_kernel_and_fold_match_the_scalar_reference(
        objects in prop::collection::vec(
            ((-0.3f32..1.0, -0.3f32..1.0, 0.0f32..1.2, 0.0f32..1.2), 0.01f32..0.99, 0u64..u64::MAX, 0u64..400_000),
            1..4 * MotionKernel::BLOCK,
        ),
        (width, height, n_gpms) in (8u32..2048, 8u32..2048, 1usize..6),
        poses in prop::collection::vec(
            ((-0.5f64..0.5, -0.5f64..0.5, -0.3f64..0.3), (0u8..5, -0.6f64..0.6, -0.4f64..0.4), (-0.2f64..0.2, -0.2f64..0.2, -0.2f64..0.2)),
            4..9,
        ),
        (probe_ix, threshold) in (0usize..4 * MotionKernel::BLOCK, 0.0f64..64.0),
    ) {
        // One object straddles the screen centre, so a quarter turn always
        // splits its corners across the eye plane.
        let mut objects = objects;
        objects.insert(0, ((0.25, 0.25, 0.5, 0.5), 0.5, 1, 1000));
        if objects.len() % MotionKernel::BLOCK == 0 {
            objects.pop();
        }
        let mut builder = SceneBuilder::new(width, height).texture("t", 64, 64);
        for (i, &((x, y, w, h), depth, _, _)) in objects.iter().enumerate() {
            builder = builder.object(&format!("o{i}"), |b| {
                b.rect(x, y, w, h).depth(depth).texture("t", 1.0);
            });
        }
        let scene = builder.build();
        let res = scene.resolution();
        let busy: Vec<Cycle> =
            objects.iter().flat_map(|o| (0..n_gpms).map(move |g| busy_cycle(o.2, g))).collect();
        let pixels: Vec<u64> = objects.iter().map(|o| o.3).collect();
        let profile = TemporalProfile::new(&scene, n_gpms, busy.clone(), &pixels, 1 << 30);
        let kernel = scene.motion_kernel();
        let probes = scene.motion_probes();

        let mut pairs: Vec<(Pose, Pose)> = poses
            .iter()
            .map(|&((yaw, pitch, roll), (kind, offset, dpitch), (dx, dy, dz))| {
                let from = Pose { yaw, pitch, roll, position: [0.0; 3] };
                let to = if kind == 4 {
                    from
                } else {
                    Pose {
                        yaw: yaw + yaw_step(kind, offset),
                        pitch: pitch + dpitch,
                        position: [dx, dy, dz],
                        ..from
                    }
                };
                (from, to)
            })
            .collect();
        pairs.push((Pose::identity(), Pose { yaw: std::f64::consts::FRAC_PI_2, ..Pose::identity() }));

        let mut partial = 0;
        for (from, to) in &pairs {
            let reference: Vec<(f64, usize)> =
                scene.objects().iter().map(|o| reference_motion(o, res, from, to)).collect();
            partial += reference.iter().filter(|&&(_, behind)| (1..4).contains(&behind)).count();
            let expected: Vec<u64> = reference.iter().map(|&(m, _)| m.to_bits()).collect();
            let mut got = Vec::new();
            kernel.for_each_block(&oovr_scene::PoseDelta::new(from, to), |first, motions| {
                assert_eq!(first, got.len(), "blocks arrive in probe order");
                got.extend(motions.iter().map(|m| m.to_bits()));
            });
            prop_assert_eq!(&got, &expected, "motions under {:?} -> {:?}", from, to);
            let single: Vec<u64> = probes.iter().map(|p| p.motion(from, to).to_bits()).collect();
            prop_assert_eq!(&single, &expected, "single-probe motions under {:?} -> {:?}", from, to);

            // Thresholds at, just above and between exact motions put the
            // strict comparison on its boundary.
            let motions: Vec<f64> = reference.iter().map(|&(m, _)| m).collect();
            let at = motions[probe_ix % motions.len()];
            let delta = oovr_scene::PoseDelta::new(from, to);
            for t in [0.0, threshold, at, at.next_up(), 1e-12, f64::INFINITY] {
                // Every verdict of the mask filter is the motion's.
                for (i, v) in kernel.certified(&delta, t).into_iter().enumerate() {
                    prop_assert!(
                        v.is_none_or(|below| below == (motions[i] < t)),
                        "filter verdict {:?} on motion {} at threshold {}", v, motions[i], t
                    );
                }
                let d = profile.decide(from, to, t);
                prop_assert_eq!(
                    (d.reused, d.rerendered, d.saved),
                    reference_decision(&motions, &busy, &pixels, n_gpms, t),
                    "decision at threshold {} under {:?} -> {:?}", t, from, to
                );
            }
        }
        prop_assert!(partial > 0, "no probe had only some corners behind the eye");
    }
}

/// A random scene of the scene-bound and mask-filter tests, with its
/// per-object attribution and a base pose to turn from.
struct RandomScene {
    scene: oovr_scene::Scene,
    busy: Vec<Cycle>,
    pixels: Vec<u64>,
    n_gpms: usize,
    base: Pose,
    /// Objects whose rect reaches past the screen edge.
    outside: usize,
}

/// Draws a [`RandomScene`]: a probe count that leaves a partial kernel
/// block, a resolution, a GPM count, rects that may reach past the screen
/// edge, depths, busy rows and pixel counts.
fn random_scene(rng: &mut rand::rngs::StdRng) -> RandomScene {
    use rand::Rng;
    let mut count = rng.gen_range(1..4 * MotionKernel::BLOCK);
    if count % MotionKernel::BLOCK == 0 {
        count -= 1;
    }
    let (width, height, n_gpms) =
        (rng.gen_range(8u32..2048), rng.gen_range(8u32..2048), rng.gen_range(1usize..6));
    let mut builder = SceneBuilder::new(width, height).texture("t", 64, 64);
    let (mut busy, mut pixels, mut outside) = (Vec::new(), Vec::new(), 0);
    for i in 0..count {
        let (x, y) = (rng.gen_range(-0.3f32..1.0), rng.gen_range(-0.3f32..1.0));
        let (w, h) = (rng.gen_range(0.0f32..1.2), rng.gen_range(0.0f32..1.2));
        let depth = rng.gen_range(0.01f32..0.99);
        outside += usize::from(x < 0.0 || y < 0.0 || x + w > 1.0 || y + h > 1.0);
        builder = builder.object(&format!("o{i}"), |b| {
            b.rect(x, y, w, h).depth(depth).texture("t", 1.0);
        });
        let seed = rng.gen_range(0..u64::MAX);
        busy.extend((0..n_gpms).map(|g| busy_cycle(seed, g)));
        pixels.push(rng.gen_range(0..400_000));
    }
    let base = Pose {
        yaw: rng.gen_range(-0.5..0.5),
        pitch: rng.gen_range(-0.5..0.5),
        roll: rng.gen_range(-0.3..0.3),
        position: [0.0; 3],
    };
    RandomScene { scene: builder.build(), busy, pixels, n_gpms, base, outside }
}

/// One drawn pose pair's kind: still, a 1e-3 rad jitter, a 90 Hz pose
/// step, a 0.2 rad turn, a quarter turn of yaw either way, a half turn,
/// or a head translation from a turned or from the identity pose.
fn scene_bound_pair(kind: usize, base: Pose, rng: &mut rand::rngs::StdRng) -> (Pose, Pose) {
    use rand::Rng;
    use std::f64::consts::{FRAC_PI_2, PI};
    let turn = |yaw: f64, pitch: f64, roll: f64| Pose {
        yaw: base.yaw + yaw,
        pitch: base.pitch + pitch,
        roll: base.roll + roll,
        ..base
    };
    let [a, b, c] = [0; 3].map(|_| rng.gen_range(-1.0f64..1.0));
    match kind {
        0 => (base, base),
        1 => (base, turn(1e-3 * a, 1e-3 * b, 1e-3 * c)),
        2 => {
            let mut traj = PoseTrajectory::new(rng.gen_range(0u64..100_000));
            for _ in 0..rng.gen_range(0u32..8) {
                traj.step();
            }
            (traj.current(), traj.step())
        }
        3 => (base, turn(0.2f64.copysign(a), 0.2 * b, 0.0)),
        4 => (base, turn(FRAC_PI_2, 0.0, 0.0)),
        5 => (base, turn(-FRAC_PI_2, 0.0, 0.0)),
        6 => (base, turn(PI, 0.0, 0.0)),
        _ => {
            let from = if kind == 7 { base } else { Pose::identity() };
            (from, Pose { position: [0.2 * a, 0.2 * b, 0.2 * c], ..from })
        }
    }
}

/// The scene bound is sound and `decide` stays exact on every branch:
/// over random scenes (rects reaching past the screen edge, depths,
/// resolutions, GPM counts, probe counts that leave a partial kernel
/// block) and pose pairs from still to a half turn, whenever the
/// whole-scene box (`whole_below`) or the grid (`all_below`) passes every
/// probe's kernel motion is below the threshold; when both fail but some
/// cells pass, every probe whose cells all pass has a reference motion
/// below the threshold; and every decision equals the reference fold over
/// the reference motions. Thresholds sit at the exact max motion, just
/// above it, at 1.01×, 1.1×, 1.25×, 1.5× and 2× it (the box usually fails
/// where the grid passes in that band), at the default 16 px and at the
/// median motion, and every branch must be taken often:
/// the box passing, the box failing where every grid cell passes, no cell
/// passing, and some passing with probes skipped and probes measured.
#[test]
fn scene_bound_is_sound_and_decides_like_the_reference() {
    use rand::SeedableRng;
    let (mut whole, mut fast, mut exact, mut outside) = (0, 0, 0, 0);
    let (mut partial, mut skipped, mut measured) = (0, 0, 0);
    for case in 0..160u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CE4_E0B0 ^ case);
        let drawn = random_scene(&mut rng);
        outside += drawn.outside;
        let RandomScene { scene, busy, pixels, n_gpms, base, .. } = drawn;
        let res = scene.resolution();
        let profile = TemporalProfile::new(&scene, n_gpms, busy.clone(), &pixels, 1 << 30);
        let kernel = scene.motion_kernel();
        for kind in 0..9 {
            let (from, to) = scene_bound_pair(kind, base, &mut rng);
            let delta = oovr_scene::PoseDelta::new(&from, &to);
            let mut motions = Vec::new();
            kernel.for_each_block(&delta, |_, m| motions.extend_from_slice(m));
            let reference: Vec<f64> =
                scene.objects().iter().map(|o| reference_motion(o, res, &from, &to).0).collect();
            let max = motions.iter().copied().fold(0.0f64, f64::max);
            let mut sorted = motions.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            for t in [
                max,
                max.next_up(),
                1.01 * max,
                1.1 * max,
                1.25 * max,
                1.5 * max,
                2.0 * max,
                16.0,
                median,
            ] {
                let pass = kernel.cells_below(&delta, t);
                if kernel.whole_below(&delta, t) {
                    whole += 1;
                    assert!(
                        max < t,
                        "whole box passed {t} but a probe moved {max} under {from:?} -> {to:?}"
                    );
                } else if kernel.all_below(&delta, t) {
                    fast += 1;
                    assert!(
                        max < t,
                        "bound passed {t} but a probe moved {max} under {from:?} -> {to:?}"
                    );
                } else if t > 0.0 {
                    exact += 1;
                }
                if pass != 0 && pass != kernel.occupied_cells() {
                    partial += 1;
                    for (i, &cells) in kernel.probe_cells().iter().enumerate() {
                        if cells & !pass != 0 {
                            measured += 1;
                            continue;
                        }
                        skipped += 1;
                        assert!(
                            reference[i] < t,
                            "cells {cells:#x} of {pass:#x} passed {t} but probe {i} moved {} \
                             under {from:?} -> {to:?}",
                            reference[i]
                        );
                    }
                }
                let d = profile.decide(&from, &to, t);
                assert_eq!(
                    (d.reused, d.rerendered, d.saved),
                    reference_decision(&reference, &busy, &pixels, n_gpms, t),
                    "decision at threshold {t} under {from:?} -> {to:?}"
                );
            }
        }
    }
    assert!(outside > 100, "only {outside} objects reached past the screen edge");
    assert!(
        whole >= 300 && fast >= 300 && exact >= 300,
        "branches taken: {whole} whole box, {fast} grid only, {exact} exact"
    );
    assert!(
        partial >= 300 && skipped >= 10_000 && measured >= 10_000,
        "per-cell tier: {partial} decides, {skipped} probes skipped, {measured} measured"
    );
}

/// The mask filter (`MotionKernel::certified`) never contradicts the exact
/// kernel, and `for_each_mask_in` hands out exactly the kernel's masks:
/// over the random scenes and pose pairs of the scene-bound test, at
/// thresholds on every probe's exact motion, its `next_up` and
/// `next_down`, 1.01× it and 16 px, every verdict equals `motion <
/// threshold`. Each outcome must be common: proven below, proven above,
/// and left open inside the slack band around the threshold.
#[test]
fn mask_filter_verdicts_match_the_kernel() {
    use rand::SeedableRng;
    let (mut below, mut above, mut band, mut open) = (0, 0, 0, 0);
    for case in 0..40u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF117_E200 ^ case);
        let RandomScene { scene, base, .. } = random_scene(&mut rng);
        let kernel = scene.motion_kernel();
        let res = scene.resolution();
        let diag = f64::from(res.width).hypot(f64::from(res.height));
        for kind in 0..9 {
            let (from, to) = scene_bound_pair(kind, base, &mut rng);
            let delta = oovr_scene::PoseDelta::new(&from, &to);
            let mut motions = Vec::new();
            kernel.for_each_block(&delta, |_, m| motions.extend_from_slice(m));
            let at = motions.iter().flat_map(|&m| [m, m.next_up(), m.next_down(), 1.01 * m]);
            for t in at.chain([16.0]) {
                for (i, v) in kernel.certified(&delta, t).into_iter().enumerate() {
                    let m = motions[i];
                    match v {
                        Some(v) => {
                            assert_eq!(
                                v,
                                m < t,
                                "filter says {v} for motion {m} at {t} under {from:?} -> {to:?}"
                            );
                            *if v { &mut below } else { &mut above } += 1;
                        }
                        // The slack is 1e-6 + 1e-9·threshold px. A still
                        // pair (kind 0) opens every probe, and a corner
                        // behind the eye (motion at the diagonal) its own.
                        None if kind > 0 && m < diag && (m - t).abs() <= 2e-6 + 2e-9 * t => {
                            band += 1
                        }
                        None => open += 1,
                    }
                }
                let mut masks = Vec::new();
                kernel.for_each_mask_in(&delta, t, std::iter::once(0..kernel.len()), |first, m| {
                    assert_eq!(first, masks.len(), "blocks arrive in probe order");
                    masks.extend_from_slice(m);
                });
                let expected: Vec<u64> =
                    motions.iter().map(|&m| u64::from(m < t).wrapping_neg()).collect();
                assert_eq!(masks, expected, "masks at {t} under {from:?} -> {to:?}");
            }
        }
    }
    assert!(
        below >= 300 && above >= 300 && band >= 300,
        "verdicts: {below} below, {above} above, {band} open in the band, {open} open elsewhere"
    );
}
