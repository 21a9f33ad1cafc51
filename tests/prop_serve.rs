//! Property tests for the serving layer: serving multiplexes measured
//! renders, it never re-renders differently.
//!
//! Two invariants anchor `oovr-serve`:
//!
//! * **Bit-identity with the warm executor.** A one-session serve run is
//!   exactly one warm frame sequence: the reports its frames replay must be
//!   field-identical to a standalone [`OoVr::render_frames`] run of the
//!   same length (the serving layer adds scheduling around the stream, not
//!   a second cost model). Single-frame schemes likewise replay the one
//!   memoized render on every frame.
//! * **Seeded determinism.** A (scheme, workload, config, seed) tuple
//!   replays bit-identically — outcomes, QoS, the capacity table's CSV
//!   bytes, and the exported session-lifecycle trace.
//!
//! The admission ledger ([`Budget`]) is checked against a copy of the
//! retain-and-sum ledger it replaced: the same answers and the same load
//! bits at every offer.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use oovr::schemes::OoVr;
use oovr_frameworks::{Baseline, RenderScheme};
use oovr_gpu::{FrameReport, GpuConfig};
use oovr_scene::benchmarks;
use oovr_serve::{capacity_table, simulate, Budget, ServeConfig, ServeScheme, VSYNC_90HZ_CYCLES};
use oovr_trace::export::{chrome_trace, csv_timeline};
use oovr_trace::{Cycle, Recorder, TraceConfig, TraceEvent};

fn spec() -> oovr_scene::BenchmarkSpec {
    benchmarks::hl2_640().scaled(0.05)
}

/// Field-by-field equality (`FrameReport` carries no `PartialEq`).
fn assert_reports_identical(a: &FrameReport, b: &FrameReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.frame_cycles, b.frame_cycles);
    prop_assert_eq!(a.composition_cycles, b.composition_cycles);
    prop_assert_eq!(&a.gpm_busy, &b.gpm_busy);
    prop_assert_eq!(a.counts, b.counts);
    prop_assert_eq!(a.inter_gpm_bytes(), b.inter_gpm_bytes());
    prop_assert_eq!(a.traffic.local_bytes(), b.traffic.local_bytes());
    prop_assert_eq!(a.l1_hit_rate.to_bits(), b.l1_hit_rate.to_bits());
    prop_assert_eq!(a.l2_hit_rate.to_bits(), b.l2_hit_rate.to_bits());
    prop_assert_eq!(&a.resident_bytes, &b.resident_bytes);
    Ok(())
}

proptest! {
    // Streams are memoized process-wide, so each case only pays scheduling.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A one-session OO-VR serve run replays exactly the reports of a
    /// standalone warm-executor sequence of the same length: warmup is the
    /// cold PA-paying frame, paced frame `k` is warm frame `k+1`.
    #[test]
    fn single_session_serve_matches_standalone_warm_render(
        paced in 1u32..4,
        seed in 0u64..1_000,
    ) {
        let spec = spec();
        let gpu = GpuConfig::default();
        let cfg = ServeConfig { sessions: 1, frames_per_session: paced, seed, ..ServeConfig::default() };
        let out = simulate(ServeScheme::OoVr, &spec, &gpu, &cfg, None);
        prop_assert_eq!(out.sessions.len(), 1);
        prop_assert!(out.rejects.is_empty());
        let served = out.session_reports(0);
        let scene = oovr::cache::scene_for(&spec);
        let direct = OoVr::new().render_frames(&scene, &gpu, paced + 1);
        prop_assert_eq!(served.len(), direct.len());
        for (got, want) in served.iter().zip(&direct) {
            assert_reports_identical(got, want)?;
        }
    }

    /// A one-session Baseline run replays the single memoized render on
    /// every frame — the same report `figures` uses everywhere else.
    #[test]
    fn single_session_baseline_replays_the_memoized_render(
        paced in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let spec = spec();
        let gpu = GpuConfig::default();
        let cfg = ServeConfig { sessions: 1, frames_per_session: paced, seed, ..ServeConfig::default() };
        let out = simulate(ServeScheme::Baseline, &spec, &gpu, &cfg, None);
        prop_assert_eq!(out.sessions.len(), 1);
        let scene = oovr::cache::scene_for(&spec);
        let direct = Baseline::new().render_frame(&scene, &gpu);
        for report in out.session_reports(0) {
            assert_reports_identical(report, &direct)?;
        }
    }

    /// Identical seeds replay identical serving outcomes, QoS, and trace
    /// exports, byte for byte.
    #[test]
    fn identical_seeds_serve_bit_identically(
        sessions in 1u32..7,
        paced in 1u32..9,
        seed in 0u64..10_000,
        scheme_ix in 0usize..ServeScheme::ALL.len(),
    ) {
        let spec = spec();
        let gpu = GpuConfig::default();
        let scheme = ServeScheme::ALL[scheme_ix];
        let cfg = ServeConfig {
            sessions,
            frames_per_session: paced,
            seed,
            ..ServeConfig::default()
        };
        let run = || {
            let mut rec = Recorder::new(TraceConfig::default());
            let out = simulate(scheme, &spec, &gpu, &cfg, Some(&mut rec));
            let events: Vec<TraceEvent> = rec.into_events();
            (out, events)
        };
        let (a, ea) = run();
        let (b, eb) = run();
        prop_assert_eq!(&a.sessions, &b.sessions);
        prop_assert_eq!(&a.rejects, &b.rejects);
        prop_assert_eq!(a.qos(), b.qos());
        prop_assert_eq!(chrome_trace(&ea, gpu.n_gpms, 0), chrome_trace(&eb, gpu.n_gpms, 0));
        prop_assert_eq!(csv_timeline(&ea, 0), csv_timeline(&eb, 0));
        // The lifecycle is visible: every admitted session has an admit
        // instant, every executed frame a span.
        let admits = ea.iter().filter(|e| matches!(e, TraceEvent::SessionAdmit { .. })).count();
        prop_assert_eq!(admits, a.sessions.len());
        let spans = ea.iter().filter(|e| matches!(e, TraceEvent::FrameSpan { .. })).count();
        let executed: usize =
            a.sessions.iter().map(|s| s.frames.iter().filter(|f| !f.dropped).count()).sum();
        prop_assert_eq!(spans, executed);
        // And the chrome export passes structural validation.
        let doc = oovr_trace::json::parse(&chrome_trace(&ea, gpu.n_gpms, 0)).expect("parses");
        oovr_trace::json::validate_chrome_trace(&doc, gpu.n_gpms).expect("validates");
    }

    /// Over-capacity offered load is rejected at admission, never silently
    /// over-subscribed: the admitted predicted demand respects the budget.
    #[test]
    fn admission_never_oversubscribes_the_budget(
        sessions in 2u32..11,
        headroom in 0.3f64..1.0,
        seed in 0u64..1_000,
    ) {
        let spec = spec();
        let gpu = GpuConfig::default();
        let steady =
            oovr_serve::cost_stream(ServeScheme::OoVr, &spec, &gpu).steady().frame_cycles;
        // An interval of ~3 steady frames forces rejections well before
        // `sessions` arrivals have all been admitted.
        let cfg = ServeConfig {
            vsync_cycles: steady * 3,
            sessions,
            frames_per_session: 4,
            mean_interarrival: 0,
            seed,
            headroom,
            ..ServeConfig::default()
        };
        let out = simulate(ServeScheme::OoVr, &spec, &gpu, &cfg, None);
        prop_assert_eq!(out.sessions.len() + out.rejects.len(), sessions as usize);
        let admitted: f64 = out.sessions.iter().map(|s| s.predicted).sum();
        prop_assert!(admitted <= headroom * cfg.vsync_cycles as f64 + 1e-9);
        if sessions >= 6 {
            prop_assert!(!out.rejects.is_empty(), "offered load must overflow the budget");
        }
    }
}

/// The capacity table is a pure function of (specs, config): two
/// evaluations serialize to byte-identical CSV, and OO-VR strictly beats
/// Baseline on every workload row.
#[test]
fn capacity_table_is_deterministic_and_orders_schemes() {
    let specs = vec![benchmarks::hl2_640().scaled(0.05), benchmarks::we().scaled(0.05)];
    let gpu = GpuConfig::default();
    let cfg = ServeConfig::default();
    assert_eq!(cfg.vsync_cycles, VSYNC_90HZ_CYCLES);
    let a = capacity_table(&specs, &gpu, &cfg);
    let b = capacity_table(&specs, &gpu, &cfg);
    assert_eq!(a.to_csv(), b.to_csv(), "serve.csv must be byte-identical across runs");
    for spec in &specs {
        let base = a.value(&spec.name, "Baseline").unwrap();
        let oovr = a.value(&spec.name, "OOVR").unwrap();
        assert!(
            oovr > base,
            "{}: OOVR capacity {oovr} must strictly exceed Baseline {base}",
            spec.name
        );
    }
}

/// The admission ledger before it charged one fixed demand, copied
/// verbatim: every query drops departed sessions and sums the demands of
/// the rest in insertion order.
#[derive(Debug, Clone)]
struct ReferenceBudget {
    limit: f64,
    live: Vec<(Cycle, f64)>, // (departure, demand)
}

impl ReferenceBudget {
    /// A budget of `capacity` scaled by a headroom fraction, clamped to
    /// `[0.05, 1]`.
    fn new(capacity: f64, headroom: f64) -> Self {
        ReferenceBudget { limit: capacity * headroom.clamp(0.05, 1.0), live: Vec::new() }
    }

    /// Aggregate demand of sessions still live at `now`.
    fn load(&mut self, now: Cycle) -> f64 {
        self.live.retain(|&(departure, _)| departure > now);
        self.live.iter().map(|&(_, demand)| demand).sum()
    }

    /// Number of sessions still live at the last [`load`](Self::load) or
    /// [`fits`](Self::fits) call.
    fn active(&self) -> u32 {
        self.live.len() as u32
    }

    /// Whether `demand` more fits beside the sessions live at `now`.
    fn fits(&mut self, now: Cycle, demand: f64) -> bool {
        self.load(now) + demand <= self.limit
    }

    /// Holds `demand` until `departure`.
    fn hold(&mut self, departure: Cycle, demand: f64) {
        self.live.push((departure, demand));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fixed-demand ledger answers every offer exactly like the
    /// retain-and-sum ledger: the same admit/reject decision, the same
    /// load bits (the empty budget's included) and the same live count,
    /// over non-dyadic demands, limits of hundreds to thousands of
    /// sessions, non-decreasing arrivals, and departures that are in
    /// arrival order or not. A rare long gap lets everyone depart, so the
    /// ledger also empties mid-run.
    #[test]
    fn fixed_demand_budget_matches_the_retain_and_sum_ledger(
        (kind, num) in (0u8..3, 1u64..1_000),
        (sessions, headroom) in (400u32..3_000, 0.5f64..1.2),
        (span, unordered) in (2_000u64..6_000, 0u8..2),
        offers in prop::collection::vec((0u64..8, 0u16..1_000, 0u64..6_000), 1_500..3_000),
    ) {
        // 0.1, x/3 and a link byte rate (bytes over one 90 Hz vsync): none
        // is a dyadic rational, so the k-fold sum rounds along the way.
        let demand = match kind {
            0 => 0.1,
            1 => (3 * num + 1) as f64 / 3.0,
            _ => (num * 977) as f64 / VSYNC_90HZ_CYCLES as f64,
        };
        let capacity = demand * f64::from(sessions);
        let mut budget = Budget::new(capacity, headroom, demand);
        let mut reference = ReferenceBudget::new(capacity, headroom);
        prop_assert_eq!(budget.demand().to_bits(), demand.to_bits());
        prop_assert_eq!(budget.load(0).to_bits(), reference.load(0).to_bits());
        prop_assert_eq!(budget.load(0).to_bits(), (-0.0f64).to_bits());

        let (mut now, mut max_active) = (0, 0);
        for (step, &(gap, drain, jitter)) in offers.iter().enumerate() {
            now += gap + if drain == 0 { 2 * span } else { 0 };
            let fits = budget.fits(now);
            prop_assert_eq!(fits, reference.fits(now, demand), "offer {} at {}", step, now);
            prop_assert_eq!(
                budget.load(now).to_bits(),
                reference.load(now).to_bits(),
                "load at offer {} with {} live",
                step,
                reference.active()
            );
            prop_assert_eq!(budget.active(), reference.active());
            if fits {
                let departure = now + span + if unordered == 1 { jitter } else { 0 };
                budget.hold(departure);
                reference.hold(departure, demand);
                prop_assert_eq!(budget.active(), reference.active());
            }
            max_active = max_active.max(budget.active());
        }
        prop_assert!(max_active >= 150, "only {} sessions were ever live", max_active);
    }
}
