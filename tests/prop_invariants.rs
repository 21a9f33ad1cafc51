//! Property-based tests over the substrate's core invariants.

use proptest::prelude::*;

use oovr::middleware::{build_batches, tsl, MiddlewareConfig};
use oovr::predictor::{BatchSample, Coefficients};
use oovr_gpu::{fragment_count, RenderUnit};
use oovr_mem::{Addr, BandwidthServer, GpmId, PageTable, Placement, SetAssocCache, PAGE_SIZE};
use oovr_scene::{BenchmarkSpec, ObjectId, ScreenTriangle, TextureId, Vec2};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_stats_are_consistent(addrs in prop::collection::vec(0u64..1 << 20, 1..400)) {
        let mut c = SetAssocCache::new(16 * 1024, 4, 64);
        for &a in &addrs {
            c.access(Addr(a));
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.hits <= s.accesses);
    }

    #[test]
    fn cache_line_granularity(addr in 0u64..1 << 24) {
        let mut c = SetAssocCache::new(8 * 1024, 4, 64);
        c.access(Addr(addr));
        // Any address on the same 64 B line hits.
        let base = addr & !63;
        prop_assert!(c.access(Addr(base)).is_hit());
        prop_assert!(c.access(Addr(base + 63)).is_hit());
    }

    #[test]
    fn first_touch_is_stable(pages in prop::collection::vec((0u64..64, 0u8..4), 1..200)) {
        let mut pt = PageTable::new(4, Placement::FirstTouch);
        let mut homes = std::collections::HashMap::new();
        for &(page, gpm) in &pages {
            let a = Addr(page * PAGE_SIZE);
            let home = pt.resolve(a, GpmId(gpm));
            let prev = homes.entry(page).or_insert(home);
            prop_assert_eq!(*prev, home, "a page's home never changes without migration");
        }
        // Resident bytes equal placed pages.
        let placed = homes.len() as u64;
        prop_assert_eq!(pt.resident_bytes().iter().sum::<u64>(), placed * PAGE_SIZE);
    }

    #[test]
    fn bandwidth_server_conserves_bytes_and_orders_time(
        xfers in prop::collection::vec((0u64..10_000, 1u64..100_000), 1..50)
    ) {
        let mut s = BandwidthServer::new(64.0, 10);
        let mut total = 0;
        let mut last_completion = 0;
        let mut now = 0;
        for &(dt, bytes) in &xfers {
            now += dt;
            let done = s.transfer(now, bytes);
            prop_assert!(done >= now, "completion is never before arrival");
            prop_assert!(done >= last_completion.min(now), "FIFO service");
            last_completion = done;
            total += bytes;
        }
        prop_assert_eq!(s.served_bytes(), total);
    }

    #[test]
    fn tsl_is_bounded_and_maximal_for_identical_singletons(
        shares_a in prop::collection::vec(0.01f64..1.0, 1..6),
        shares_b in prop::collection::vec(0.01f64..1.0, 1..6),
    ) {
        let norm = |v: &[f64]| -> Vec<(TextureId, f64)> {
            let sum: f64 = v.iter().sum();
            v.iter().enumerate().map(|(i, s)| (TextureId(i as u32), s / sum)).collect()
        };
        let a = norm(&shares_a);
        let b = norm(&shares_b);
        let v = tsl(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "tsl {v} out of range");
        // A single shared texture with full shares is perfect sharing.
        let single = vec![(TextureId(0), 1.0)];
        prop_assert!((tsl(&single, &single) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batching_partitions_objects(draws in 4u32..60, seed in 0u64..500) {
        let scene = BenchmarkSpec::new("prop", 128, 128, draws, seed).build();
        let batches = build_batches(&scene, MiddlewareConfig::default());
        let mut seen: Vec<ObjectId> = batches.iter().flat_map(|b| b.objects.clone()).collect();
        seen.sort();
        seen.dedup();
        prop_assert_eq!(seen.len(), draws as usize, "each object in exactly one batch");
        let tris: u64 = batches.iter().map(|b| b.triangles).sum();
        prop_assert_eq!(tris, scene.total_triangles_per_eye());
    }

    #[test]
    fn predictor_recovers_linear_models(c1 in 0.1f64..10.0, c2 in 0.01f64..2.0) {
        let samples: Vec<BatchSample> = (1..9u64)
            .map(|i| {
                let tv = i * 37 % 400 + 10;
                let px = i * 91 % 3000 + 50;
                BatchSample {
                    triangles: tv * 2,
                    tv,
                    pixels: px,
                    cycles: (c1 * tv as f64 + c2 * px as f64).round() as u64,
                }
            })
            .collect();
        let fit = Coefficients::fit(&samples);
        prop_assert!((fit.c1 - c1).abs() < 0.1 * c1 + 0.5, "c1 {} vs {}", fit.c1, c1);
        prop_assert!((fit.c2 - c2).abs() < 0.1 * c2 + 0.5, "c2 {} vs {}", fit.c2, c2);
    }

    #[test]
    fn stride_and_range_partition_triangles(total in 1u64..500, step in 1u64..8) {
        let scene = oovr_scene::SceneBuilder::new(64, 64)
            .texture("t", 64, 64)
            .object("o", |o| {
                let cols = (total as u32).clamp(1, 100);
                o.grid(cols, (total as u32 / cols).clamp(1, 100)).texture("t", 1.0);
            })
            .build();
        let obj = &scene.objects()[0];
        let n = obj.triangle_count();
        // Strided units partition the index space exactly.
        let mut covered = 0u64;
        for off in 0..step {
            let u = RenderUnit::smp(obj.id()).with_stride(off, step);
            let brute = (0..n).filter(|&k| u.selects(k)).count() as u64;
            prop_assert_eq!(u.triangles_per_eye(obj), brute);
            covered += brute;
        }
        prop_assert_eq!(covered, n);
    }

    #[test]
    fn rasterized_fragments_bounded_by_bbox(
        x0 in 0.0f32..60.0, y0 in 0.0f32..60.0,
        dx1 in 1.0f32..30.0, dy2 in 1.0f32..30.0,
    ) {
        let tri = ScreenTriangle {
            v: [Vec2::new(x0, y0), Vec2::new(x0 + dx1, y0), Vec2::new(x0, y0 + dy2)],
            uv: [Vec2::new(0.0, 0.0); 3],
            z: 0.5,
            texture: TextureId(0),
        };
        let frags = fragment_count(&tri, None, 96, 96);
        let bbox = ((dx1.ceil() + 1.0) * (dy2.ceil() + 1.0)) as u64;
        prop_assert!(frags <= bbox, "frags {frags} exceed bbox {bbox}");
        // Large triangles produce roughly area/2... area fragments.
        if dx1 > 8.0 && dy2 > 8.0 {
            let area = (dx1 * dy2 / 2.0) as u64;
            prop_assert!(frags >= area / 2, "frags {frags} far below area {area}");
        }
    }

    #[test]
    fn adjacent_grid_triangles_tile_without_overlap(cols in 1u32..6, rows in 1u32..6) {
        let scene = oovr_scene::SceneBuilder::new(64, 64)
            .texture("t", 64, 64)
            .object("o", |o| {
                o.rect(0.1, 0.1, 0.8, 0.8).grid(cols, rows).texture("t", 1.0);
            })
            .build();
        let obj = &scene.objects()[0];
        let res = scene.resolution();
        let frags: u64 = obj
            .triangles(res, oovr_scene::Eye::Left)
            .map(|t| fragment_count(&t, None, res.stereo_width(), res.height))
            .sum();
        let vp = obj.viewport(res, oovr_scene::Eye::Left);
        let area = vp.area() as u64;
        // The grid tiles its viewport exactly, ± boundary pixels.
        let tolerance = 2 * (vp.width + vp.height) as u64 + 8;
        prop_assert!(frags <= area + tolerance, "{frags} vs area {area}");
        prop_assert!(frags + tolerance >= area, "{frags} vs area {area}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Work conservation under faults: for any seeded fault plan — any
    /// scenario, severity, and horizon — the resilient engine renders every
    /// triangle of every batch exactly once, even while stealing splits
    /// units and PA pre-allocation falls back to remote rendering.
    #[test]
    fn every_triangle_renders_exactly_once_under_any_fault_plan(
        scenario_idx in 0usize..5,
        severity in 0.0f64..1.0,
        seed in 0u64..1000,
        horizon_kc in 4u64..64,
    ) {
        use oovr::schemes::OoVr;
        use oovr_frameworks::RenderScheme;
        use oovr_gpu::{FaultPlan, FaultScenario};
        let scene = BenchmarkSpec::new("prop-fault", 128, 96, 24, seed).build();
        let plan = FaultPlan::new(FaultScenario::ALL[scenario_idx], severity, seed)
            .with_horizon(horizon_kc * 1000);
        let cfg = oovr_gpu::GpuConfig::default().with_fault(plan);
        // Exercise both the plain and the resilient engine (seed parity
        // stands in for a bool strategy).
        let scheme = if seed % 2 == 0 { OoVr::resilient() } else { OoVr::new() };
        let r = scheme.render_frame(&scene, &cfg);
        prop_assert_eq!(r.counts.triangles, 2 * scene.total_triangles_per_eye());
    }

    /// A zero-severity fault plan is bit-identical to no plan at all: every
    /// schedule query returns `None`, leaving the exact fixed-rate
    /// arithmetic untouched.
    #[test]
    fn zero_severity_plan_is_bit_identical_to_no_plan(
        scenario_idx in 0usize..5,
        seed in 0u64..1000,
    ) {
        use oovr::schemes::OoVr;
        use oovr_frameworks::RenderScheme;
        use oovr_gpu::{FaultPlan, FaultScenario};
        let scene = BenchmarkSpec::new("prop-zero", 128, 96, 16, seed).build();
        let clean_cfg = oovr_gpu::GpuConfig::default();
        let zero = FaultPlan::new(FaultScenario::ALL[scenario_idx], 0.0, seed);
        prop_assert!(zero.is_noop());
        let faulted_cfg = clean_cfg.clone().with_fault(zero);
        let a = OoVr::new().render_frame(&scene, &clean_cfg);
        let b = OoVr::new().render_frame(&scene, &faulted_cfg);
        prop_assert_eq!(a.frame_cycles, b.frame_cycles);
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.inter_gpm_bytes(), b.inter_gpm_bytes());
        prop_assert_eq!(&a.gpm_busy, &b.gpm_busy);
    }

    /// End-to-end determinism across random workloads: two simulations of
    /// the same scene produce identical cycle counts and traffic.
    #[test]
    fn scheme_simulation_is_deterministic(seed in 0u64..1000) {
        use oovr_frameworks::{Baseline, RenderScheme};
        let scene = BenchmarkSpec::new("prop-det", 96, 96, 12, seed).build();
        let cfg = oovr_gpu::GpuConfig::default();
        let a = Baseline::new().render_frame(&scene, &cfg);
        let b = Baseline::new().render_frame(&scene, &cfg);
        prop_assert_eq!(a.frame_cycles, b.frame_cycles);
        prop_assert_eq!(a.inter_gpm_bytes(), b.inter_gpm_bytes());
    }

    /// Traffic conservation: every remote byte was served by some DRAM, so
    /// local (DRAM) bytes always dominate pure link-only classes removed.
    #[test]
    fn frame_traffic_is_conserved(seed in 0u64..1000) {
        use oovr::schemes::OoVr;
        use oovr_frameworks::RenderScheme;
        use oovr_mem::TrafficClass;
        let scene = BenchmarkSpec::new("prop-cons", 96, 96, 12, seed).build();
        let cfg = oovr_gpu::GpuConfig::default();
        let r = OoVr::new().render_frame(&scene, &cfg);
        let link_only = r.traffic.remote_of(TrafficClass::Composition)
            + r.traffic.remote_of(TrafficClass::Command)
            + r.traffic.remote_of(TrafficClass::PreAlloc);
        // All other remote classes were DRAM reads at their home.
        prop_assert!(
            r.traffic.local_bytes() + link_only >= r.inter_gpm_bytes(),
            "local {} + link-only {} vs links {}",
            r.traffic.local_bytes(),
            link_only,
            r.inter_gpm_bytes()
        );
        // Steady bytes never exceed total bytes.
        prop_assert!(r.steady_inter_gpm_bytes() <= r.inter_gpm_bytes());
    }
}
