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
use oovr_serve::{
    capacity_table, simulate, Budget, ServeConfig, ServeScheme, SessionCostStream,
    VSYNC_90HZ_CYCLES,
};
use oovr_trace::export::{chrome_trace, csv_timeline};
use oovr_trace::{Cycle, Recorder, TraceConfig, TraceEvent};
use std::sync::Arc;

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

/// The heap-based EDF loop `schedule` ran before its release-order walk,
/// kept verbatim (with crate paths made external) as the reference the
/// walk is checked against: every release sorted up front, every ready
/// frame pushed through a `BinaryHeap` keyed by `(deadline, slot, frame)`,
/// every event built, and each session's frames sorted at the end.
/// Returns the outcome and the events in emission order.
fn reference_schedule(
    stream: std::sync::Arc<oovr_serve::SessionCostStream>,
    cfg: &ServeConfig,
    mut link: Option<Budget>,
) -> (oovr_serve::ServeOutcome, Vec<TraceEvent>) {
    use oovr_serve::{
        calibrate_discounted, session_trajectory, FrameRecord, Pose, Reject, ServeOutcome,
        SessionOutcome, LINK_REASON,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let scheme = stream.scheme;
    let v = cfg.vsync_cycles.max(1);
    let total_frames = cfg.frames_per_session + 1; // warmup + paced

    let threshold = cfg.temporal.reuse_threshold;
    let discount = if scheme.temporal() {
        stream.mean_temporal_saving(threshold, cfg.seed, cfg.frames_per_session.max(1))
    } else {
        0
    };
    let report_refs: Vec<&FrameReport> = stream.reports.iter().collect();
    let steady_tris = stream.steady().counts.triangles.max(1);
    let predicted = calibrate_discounted(&report_refs, discount).predict_total(steady_tris);
    let mut compute = Budget::new(v as f64, cfg.headroom, predicted);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut sessions: Vec<SessionOutcome> = Vec::new();
    let mut poses: Vec<Vec<Pose>> = Vec::new();
    let mut rejects: Vec<Reject> = Vec::new();

    let mut arrival: Cycle = 0;
    for id in 0..cfg.sessions {
        if id > 0 {
            let mean = cfg.mean_interarrival;
            arrival += rng.gen_range(mean / 2..=mean + mean / 2);
        }
        let departure = arrival + Cycle::from(total_frames + 1) * v;
        let link_fits = link.as_mut().is_none_or(|b| b.fits(arrival));
        if link_fits && compute.fits(arrival) {
            compute.hold(departure);
            if let Some(b) = &mut link {
                b.hold(departure);
            }
            events.push(TraceEvent::SessionAdmit {
                cycle: arrival,
                session: id,
                predicted,
                active: compute.active(),
            });
            let mut traj = session_trajectory(cfg.seed, u64::from(id));
            let mut path = vec![traj.current()];
            path.extend((0..cfg.frames_per_session).map(|_| traj.step()));
            poses.push(path);
            sessions.push(SessionOutcome {
                id,
                arrival,
                predicted,
                frames: Vec::with_capacity(total_frames as usize),
            });
        } else {
            let (predicted, reason) = match &link {
                Some(b) if !link_fits => (b.demand(), LINK_REASON),
                _ => (predicted, "capacity"),
            };
            events.push(TraceEvent::SessionReject {
                cycle: arrival,
                session: id,
                predicted,
                reason,
            });
            rejects.push(Reject { id, arrival, predicted });
        }
    }

    let mut releases: Vec<(Cycle, u32, u32)> = Vec::new(); // (release, slot, frame)
    for (slot, s) in sessions.iter().enumerate() {
        for f in 0..total_frames {
            releases.push((s.arrival + Cycle::from(f) * v, slot as u32, f));
        }
    }
    releases.sort_unstable();

    let temporal = if scheme.temporal() { stream.temporal.as_deref() } else { None };
    let sheds = scheme.sheds();
    let (step, floor) = (cfg.resilience.shed_step, cfg.resilience.shed_floor);
    let mut scales = vec![1.0f64; sessions.len()];
    let mut heap: BinaryHeap<Reverse<(Cycle, u32, u32, Cycle)>> = BinaryHeap::new();
    let mut now: Cycle = 0;
    let mut next = 0usize;
    while next < releases.len() || !heap.is_empty() {
        while next < releases.len() && releases[next].0 <= now {
            let (release, slot, frame) = releases[next];
            heap.push(Reverse((release + v, slot, frame, release)));
            next += 1;
        }
        let Some(Reverse((deadline, slot, frame, release))) = heap.pop() else {
            now = releases[next].0; // engine idles until the next release
            continue;
        };
        let session = &mut sessions[slot as usize];
        let id = session.id;
        let report_index = stream.report_index(frame);
        let pose = poses[slot as usize][frame as usize];

        if now > deadline + v {
            events.push(TraceEvent::FrameDrop { cycle: now, session: id, frame, reason: "stale" });
            session.frames.push(FrameRecord {
                frame,
                report_index,
                release,
                deadline,
                start: now,
                end: now,
                scale: scales[slot as usize],
                missed: true,
                dropped: true,
                pose,
            });
            continue;
        }

        let tdec = temporal.filter(|_| frame > 0).map(|profile| {
            profile.decide(&poses[slot as usize][frame as usize - 1], &pose, threshold)
        });
        let base = stream.cost_for(frame);
        let base = tdec.as_ref().map_or(base, |d| d.apply(base));
        let mut scale = scales[slot as usize];
        let cost_at = |s: f64| (((base as f64) * s).round() as Cycle).max(1);
        if sheds {
            let before = scale;
            while scale > floor && now + cost_at(scale) > deadline {
                scale = (scale * step).max(floor);
            }
            if scale < before {
                scales[slot as usize] = scale;
                events.push(TraceEvent::FrameShed { cycle: now, session: id, frame, scale });
            }
        }
        let cost = if sheds { cost_at(scale) } else { base };
        let (start, end) = (now, now + cost);
        events.push(TraceEvent::FrameStart { cycle: start, session: id, frame, deadline });
        events.push(TraceEvent::FrameSpan { session: id, frame, start, end, scale });
        if let Some(d) = &tdec {
            events.push(TraceEvent::TemporalReuse {
                cycle: start,
                session: id,
                frame,
                reused: d.reused,
                rerendered: d.rerendered,
                saved: d.saved,
            });
        }
        let missed = end > deadline;
        if missed {
            events.push(TraceEvent::DeadlineMiss { cycle: end, session: id, frame, deadline });
        } else if sheds && scale < 1.0 {
            scales[slot as usize] = (scale / step).min(1.0);
        }
        session.frames.push(FrameRecord {
            frame,
            report_index,
            release,
            deadline,
            start,
            end,
            scale,
            missed,
            dropped: false,
            pose,
        });
        now = end;
    }

    for s in &mut sessions {
        s.frames.sort_by_key(|f| f.frame);
    }

    let workload = stream.workload.clone();
    (ServeOutcome { scheme, workload, vsync: v, sessions, rejects, stream }, events)
}

/// `schedule` as it stood before it stepped each session's pose
/// trajectory in the serve loop, kept verbatim (with crate paths made
/// external) as the reference `serve_loop_matches_the_parent` checks it
/// against: every admitted session's whole pose path built at admission
/// into a `Vec<Vec<Pose>>`, the temporal decide reading the previous pose
/// from it, and no render observer.
fn parent_schedule(
    stream: Arc<SessionCostStream>,
    cfg: &ServeConfig,
    mut link: Option<Budget>,
    observe: bool,
) -> (oovr_serve::ServeOutcome, Vec<TraceEvent>, u32) {
    use oovr_serve::{
        calibrate_discounted, session_trajectory, FrameRecord, Pose, Reject, ServeOutcome,
        SessionOutcome, LINK_REASON,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    let scheme = stream.scheme;
    let v = cfg.vsync_cycles.max(1);
    let total_frames = cfg.frames_per_session + 1; // warmup + paced

    // Calibrate Eq. 3 from the measured stream (whole-frame samples) and
    // run every arrival through the compute budget, which charges each
    // session the predicted steady demand. Temporal schemes price warm
    // frames at their temporally-reused cost: the measured cycles minus
    // the mean reuse saving over a reference trajectory seeded from the
    // run seed (zero at threshold 0, so calibration stays bit-identical
    // to plain OO-VR).
    let threshold = cfg.temporal.reuse_threshold;
    let discount = if scheme.temporal() {
        stream.mean_temporal_saving(threshold, cfg.seed, cfg.frames_per_session.max(1))
    } else {
        0
    };
    let report_refs: Vec<&FrameReport> = stream.reports.iter().collect();
    let steady_tris = stream.steady().counts.triangles.max(1);
    let predicted = calibrate_discounted(&report_refs, discount).predict_total(steady_tris);
    let mut compute = Budget::new(v as f64, cfg.headroom, predicted);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut sessions: Vec<SessionOutcome> = Vec::new();
    let mut poses: Vec<Vec<Pose>> = Vec::new();
    let mut rejects: Vec<Reject> = Vec::new();
    let mut link_rejected = 0u32;

    let mut arrival: Cycle = 0;
    for id in 0..cfg.sessions {
        if id > 0 {
            let mean = cfg.mean_interarrival;
            arrival += rng.gen_range(mean / 2..=mean + mean / 2);
        }
        // A session holds its budget until one interval past its last
        // deadline (slack for queueing delay).
        let departure = arrival + Cycle::from(total_frames + 1) * v;
        let link_fits = link.as_mut().is_none_or(|b| b.fits(arrival));
        if link_fits && compute.fits(arrival) {
            compute.hold(departure);
            if let Some(b) = &mut link {
                b.hold(departure);
            }
            if observe {
                events.push(TraceEvent::SessionAdmit {
                    cycle: arrival,
                    session: id,
                    predicted,
                    active: compute.active(),
                });
            }
            // The head-pose trajectory is per-session seeded: frame 0
            // presents the rest pose, each paced frame steps the walk.
            let mut traj = session_trajectory(cfg.seed, u64::from(id));
            let mut path = vec![traj.current()];
            path.extend((0..cfg.frames_per_session).map(|_| traj.step()));
            poses.push(path);
            sessions.push(SessionOutcome {
                id,
                arrival,
                predicted,
                frames: Vec::with_capacity(total_frames as usize),
            });
        } else {
            let (predicted, reason) = match &link {
                Some(b) if !link_fits => {
                    link_rejected += 1;
                    (b.demand(), LINK_REASON)
                }
                _ => (predicted, "capacity"),
            };
            if observe {
                events.push(TraceEvent::SessionReject {
                    cycle: arrival,
                    session: id,
                    predicted,
                    reason,
                });
            }
            rejects.push(Reject { id, arrival, predicted });
        }
    }

    // The single render engine serves frames in release order, ties
    // broken by (slot, frame): every deadline is one interval after its
    // release, so this is EDF order (DESIGN.md, "Scheduling is EDF against
    // the vsync grid"). Two already-sorted streams yield it in O(1) per
    // frame: each admitted session's frame 0 in slot order (arrivals never
    // decrease), and the FIFO of served frames' successors (served keys
    // never decrease, so neither do theirs). `slot` indexes the
    // admitted-session vectors; ids stay global.
    let temporal = if scheme.temporal() { stream.temporal.as_deref() } else { None };
    let sheds = scheme.sheds();
    let (step, floor) = (cfg.resilience.shed_step, cfg.resilience.shed_floor);
    let mut scales = vec![1.0f64; sessions.len()];
    let mut successors: VecDeque<(Cycle, u32, u32)> = VecDeque::with_capacity(sessions.len());
    let mut first = 0usize;
    let mut now: Cycle = 0;
    loop {
        let fresh = sessions.get(first).map(|s| (s.arrival, first as u32, 0));
        let next = match (fresh, successors.front()) {
            (Some(f), Some(&s)) if s < f => successors.pop_front(),
            (Some(f), _) => {
                first += 1;
                Some(f)
            }
            (None, _) => successors.pop_front(),
        };
        let Some((release, slot, frame)) = next else { break };
        if frame + 1 < total_frames {
            successors.push_back((release + v, slot, frame + 1));
        }
        now = now.max(release); // the engine idles until the release
        let deadline = release + v;
        let session = &mut sessions[slot as usize];
        let id = session.id;
        let report_index = stream.report_index(frame);
        let pose = poses[slot as usize][frame as usize];

        if now > deadline + v {
            // More than one interval stale: presenting it would only push
            // younger frames later. Drop without consuming render time.
            if observe {
                events.push(TraceEvent::FrameDrop {
                    cycle: now,
                    session: id,
                    frame,
                    reason: "stale",
                });
            }
            session.frames.push(FrameRecord {
                frame,
                report_index,
                release,
                deadline,
                start: now,
                end: now,
                scale: scales[slot as usize],
                missed: true,
                dropped: true,
                pose,
            });
            continue;
        }

        // Temporal schemes price warm frames by the pose delta since the
        // previous frame: objects whose projected bound moved less than
        // the threshold are warped (ATW) instead of re-rendered. Frame 0
        // has no predecessor and always pays the full cold cost.
        let tdec = temporal.filter(|_| frame > 0).map(|profile| {
            profile.decide(&poses[slot as usize][frame as usize - 1], &pose, threshold)
        });
        let base = stream.cost_for(frame);
        let base = tdec.as_ref().map_or(base, |d| d.apply(base));
        let mut scale = scales[slot as usize];
        let cost_at = |s: f64| (((base as f64) * s).round() as Cycle).max(1);
        if sheds {
            let before = scale;
            while scale > floor && now + cost_at(scale) > deadline {
                scale = (scale * step).max(floor);
            }
            if scale < before {
                scales[slot as usize] = scale;
                if observe {
                    events.push(TraceEvent::FrameShed { cycle: now, session: id, frame, scale });
                }
            }
        }
        let cost = if sheds { cost_at(scale) } else { base };
        let (start, end) = (now, now + cost);
        let missed = end > deadline;
        if observe {
            events.push(TraceEvent::FrameStart { cycle: start, session: id, frame, deadline });
            events.push(TraceEvent::FrameSpan { session: id, frame, start, end, scale });
            if let Some(d) = &tdec {
                events.push(TraceEvent::TemporalReuse {
                    cycle: start,
                    session: id,
                    frame,
                    reused: d.reused,
                    rerendered: d.rerendered,
                    saved: d.saved,
                });
            }
            if missed {
                events.push(TraceEvent::DeadlineMiss { cycle: end, session: id, frame, deadline });
            }
        }
        if !missed && sheds && scale < 1.0 {
            // Backpressure released: recover shade quality multiplicatively.
            scales[slot as usize] = (scale / step).min(1.0);
        }
        session.frames.push(FrameRecord {
            frame,
            report_index,
            release,
            deadline,
            start,
            end,
            scale,
            missed,
            dropped: false,
            pose,
        });
        now = end;
    }

    let workload = stream.workload.clone();
    (ServeOutcome { scheme, workload, vsync: v, sessions, rejects, stream }, events, link_rejected)
}

/// A stressed serving case, shared by the walk differentials. The
/// measured stream is copied with its steady frame's triangle count cut by
/// `underpredict`, so Eq. 3 admits more sessions than the engine can
/// serve; with burst arrivals that drives the scheduler through misses,
/// stale drops and shedding, and interarrivals up to two intervals through
/// idle gaps. A `tiny` stream rescales every frame to about two cycles, so
/// intervals and gaps are a few cycles long and one session's release
/// often coincides with another's arrival.
#[derive(Debug, Clone, Copy)]
struct Stress {
    sessions: u32,
    paced: u32,
    vsync_quarters: u64,
    interarrival_quarters: u64,
    burst: bool,
    underpredict: u64,
    tiny: bool,
    headroom: f64,
    threshold_ix: usize,
    seed: u64,
}

impl Stress {
    /// The stressed stream of `scheme` and the config to serve it under.
    fn build(&self, scheme: ServeScheme) -> (Arc<SessionCostStream>, ServeConfig) {
        let measured = oovr_serve::cost_stream(scheme, &spec(), &GpuConfig::default());
        let mut reports = measured.reports.clone();
        let steady = reports.len() - 1;
        reports[steady].counts.triangles /= self.underpredict;
        if self.tiny {
            let unit = reports[steady].frame_cycles;
            for r in &mut reports {
                r.frame_cycles = (r.frame_cycles * 2 / unit).max(1);
            }
        }
        let stream = Arc::new(SessionCostStream {
            scheme,
            workload: measured.workload.clone(),
            reports,
            temporal: measured.temporal.clone(),
        });
        let v = (stream.steady().frame_cycles * self.vsync_quarters / 4).max(1);
        let reuse_threshold =
            [0.0, 1.0, 4.0][self.threshold_ix] * oovr::temporal::DEFAULT_REUSE_THRESHOLD;
        let cfg = ServeConfig {
            vsync_cycles: v,
            sessions: self.sessions,
            frames_per_session: self.paced,
            mean_interarrival: if self.burst { 0 } else { v * self.interarrival_quarters / 4 },
            seed: self.seed,
            headroom: self.headroom,
            temporal: oovr::TemporalConfig { reuse_threshold },
            ..ServeConfig::default()
        };
        (stream, cfg)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The release-order walk in `schedule` is the heap-based EDF loop it
    /// replaced, bit for bit: the same sessions, frame records and rejects
    /// (compared through their `Debug` text, which prints every float
    /// exactly), the same events in the same order when observed, the same
    /// link-reject count, and the same outcome with no events when not.
    /// Each case is a [`Stress`] case; where a `tiny` stream's release
    /// coincides with another session's arrival, the walk must serve the
    /// earlier session's frame first, as the heap's slot tie-break did. A
    /// link budget, when drawn, rejects some arrivals before compute
    /// admission.
    #[test]
    fn release_order_walk_matches_the_heap_loop(
        scheme_ix in 0usize..ServeScheme::ALL.len(),
        sessions in 1u32..24,
        paced in 1u32..12,
        vsync_quarters in 4u64..25,
        interarrival_quarters in 0u64..9,
        burst in 0u8..2,
        underpredict in 1u64..17,
        tiny in 0u8..2,
        headroom in 0.3f64..1.5,
        threshold_ix in 0usize..3,
        with_link in 0u8..2,
        link_demand in 0.05f64..0.6,
        link_headroom in 0.3f64..1.2,
        seed in 0u64..10_000,
    ) {
        let stress = Stress {
            sessions,
            paced,
            vsync_quarters,
            interarrival_quarters,
            burst: burst == 1,
            underpredict,
            tiny: tiny == 1,
            headroom,
            threshold_ix,
            seed,
        };
        let (stream, cfg) = stress.build(ServeScheme::ALL[scheme_ix]);
        // A unit-capacity link each session demands `link_demand` of.
        let budget = || (with_link == 1).then(|| Budget::new(1.0, link_headroom, link_demand));

        let (want, want_events) = reference_schedule(stream.clone(), &cfg, budget());
        let (got, got_events, link_rejected) =
            oovr_serve::schedule(stream.clone(), &cfg, budget(), true, |_, _| {});
        prop_assert_eq!(format!("{:?}", got.sessions), format!("{:?}", want.sessions));
        prop_assert_eq!(format!("{:?}", got.rejects), format!("{:?}", want.rejects));
        prop_assert_eq!(format!("{got_events:?}"), format!("{want_events:?}"));
        let want_link = want_events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SessionReject { reason, .. }
                if *reason == oovr_serve::LINK_REASON))
            .count();
        prop_assert_eq!(link_rejected as usize, want_link);

        let (quiet, quiet_events, quiet_link) = oovr_serve::schedule(stream, &cfg, budget(), false, |_, _| {});
        prop_assert!(quiet_events.is_empty(), "an unobserved run builds no events");
        prop_assert_eq!(format!("{:?}", quiet.sessions), format!("{:?}", got.sessions));
        prop_assert_eq!(format!("{:?}", quiet.rejects), format!("{:?}", got.rejects));
        prop_assert_eq!(quiet_link, link_rejected);
    }

    /// `schedule` steps each session's pose trajectory as it serves the
    /// session's frames and hands each rendered frame to `on_render`; it is
    /// the parent walk, which built every pose path at admission, bit for
    /// bit. For every scheme, with and without a link budget, observed and
    /// not, over a [`Stress`] case: the same sessions, frame records and
    /// rejects (through their `Debug` text), the same events in the same
    /// order and the same link-reject count. `on_render` sees each
    /// rendered (not dropped) frame exactly once, with its slot and final
    /// record, in strictly increasing `start`.
    #[test]
    fn serve_loop_matches_the_parent(
        sessions in 1u32..24,
        paced in 1u32..12,
        vsync_quarters in 4u64..25,
        interarrival_quarters in 0u64..9,
        burst in 0u8..2,
        underpredict in 1u64..17,
        tiny in 0u8..2,
        headroom in 0.3f64..1.5,
        threshold_ix in 0usize..3,
        link_demand in 0.05f64..0.6,
        link_headroom in 0.3f64..1.2,
        seed in 0u64..10_000,
    ) {
        let stress = Stress {
            sessions,
            paced,
            vsync_quarters,
            interarrival_quarters,
            burst: burst == 1,
            underpredict,
            tiny: tiny == 1,
            headroom,
            threshold_ix,
            seed,
        };
        for scheme in ServeScheme::ALL {
            let (stream, cfg) = stress.build(scheme);
            for with_link in [false, true] {
                let budget = || with_link.then(|| Budget::new(1.0, link_headroom, link_demand));
                for observe in [false, true] {
                    let (want, want_events, want_link) =
                        parent_schedule(stream.clone(), &cfg, budget(), observe);
                    let mut rendered = Vec::new();
                    let (got, got_events, got_link) =
                        oovr_serve::schedule(stream.clone(), &cfg, budget(), observe, |slot, r| {
                            rendered.push((slot as usize, r.clone()))
                        });
                    prop_assert_eq!(format!("{:?}", got.sessions), format!("{:?}", want.sessions));
                    prop_assert_eq!(format!("{:?}", got.rejects), format!("{:?}", want.rejects));
                    prop_assert_eq!(format!("{got_events:?}"), format!("{want_events:?}"));
                    prop_assert_eq!(got_link, want_link);
                    prop_assert!(
                        rendered.windows(2).all(|w| w[0].1.start < w[1].1.start),
                        "on_render must see frames in strictly increasing start"
                    );
                    let mut expected: Vec<(usize, &oovr_serve::FrameRecord)> = (got.sessions.iter())
                        .enumerate()
                        .flat_map(|(slot, s)| s.frames.iter().map(move |f| (slot, f)))
                        .filter(|(_, f)| !f.dropped)
                        .collect();
                    expected.sort_by_key(|(_, f)| f.start);
                    let seen: Vec<(usize, &oovr_serve::FrameRecord)> =
                        rendered.iter().map(|(slot, r)| (*slot, r)).collect();
                    prop_assert_eq!(format!("{seen:?}"), format!("{expected:?}"));
                }
            }
        }
    }
}
