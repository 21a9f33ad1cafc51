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

use proptest::prelude::*;

use oovr::temporal::TemporalConfig;
use oovr_gpu::GpuConfig;
use oovr_scene::{benchmarks, Pose};
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
