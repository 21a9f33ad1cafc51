//! The deterministic multi-session vsync scheduler.
//!
//! [`simulate`] runs an open-loop serving experiment entirely in simulated
//! time: seeded session arrivals over a horizon, Eq. 3 admission control at
//! the door, and earliest-deadline-first multiplexing of every admitted
//! session's frame stream onto the one 4-GPM rendering system against the
//! 90 Hz vsync grid. Nothing reads a wall clock and every tie-break is a
//! total order over integers, so a (scheme, workload, config, seed) tuple
//! replays bit-identically — the property the serving proptests pin.
//!
//! The model:
//!
//! * A session admitted at `t0` releases frame `f` at `t0 + f·V` with
//!   deadline `t0 + (f+1)·V` (`V` = one vsync interval). Frame 0 is the
//!   cold warmup frame (PA distribution); it is scheduled like any other
//!   frame but excluded from the SLO accounting (see [`crate::qos`]).
//! * The renderer serves one frame at a time (the whole 4-GPM system is
//!   the unit of multiplexing — intra-frame parallelism is inside the cost
//!   model). Ready frames are served in EDF order with ties broken by
//!   (session, frame), which is deadline-optimal on one server.
//! * A frame whose start would be more than one vsync past its deadline is
//!   *dropped* as stale without consuming render time — presenting it
//!   could only delay younger frames further.
//! * Under [`ServeScheme::sheds`] schemes, a frame projected to miss its
//!   deadline is re-shaded at a degraded scale (`shed_step`/`shed_floor`
//!   from [`ResilienceConfig`], the same knobs the in-frame deadline
//!   monitor uses), trading shade quality for timeliness; on-time frames
//!   recover scale multiplicatively.
//! * [`schedule`], the core behind [`simulate`], takes one optional link
//!   [`Budget`] checked before Eq. 3, with the reject reason
//!   [`LINK_REASON`] — the edge tier's link byte budget is the only one.
//!   A session the link turns away is rejected without touching the
//!   compute budget; its link demand is held only once compute admits
//!   too. The link budget draws no randomness, so a run without one and a
//!   run whose link always fits schedule identically.
//!
//! Every lifecycle transition (admit/reject/frame-start/span/miss/shed/
//! drop) is emitted as an [`oovr_trace`] event, so `figures -- trace`
//! renders serving timelines with per-session tracks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use oovr::{ResilienceConfig, TemporalConfig};
use oovr_gpu::{FrameReport, GpuConfig, VSYNC_90HZ_CYCLES};
use oovr_metrics::Registry;
use oovr_scene::BenchmarkSpec;
use oovr_trace::{Cycle, Recorder, TraceEvent, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::admission::{calibrate_discounted, Budget, DEFAULT_HEADROOM};
use crate::metrics::meter_serve;
use crate::pose::{session_trajectory, Pose};
use crate::qos::{aggregate_qos, session_qos, AggregateQos, SessionQos};
use crate::stream::{cost_stream, ServeScheme, SessionCostStream};

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Vsync interval in cycles (default: 90 Hz at the 1 GHz clock).
    pub vsync_cycles: Cycle,
    /// Session arrivals generated over the run.
    pub sessions: u32,
    /// Paced frames per session after the warmup frame.
    pub frames_per_session: u32,
    /// Mean gap between consecutive arrivals in cycles (gaps are drawn
    /// uniformly from `[mean/2, 3·mean/2]`, seeded).
    pub mean_interarrival: Cycle,
    /// Seed for arrivals and head-pose trajectories.
    pub seed: u64,
    /// Admission headroom fraction of the vsync budget.
    pub headroom: f64,
    /// Shedding knobs (`shed_step`, `shed_floor`) for schemes that shed.
    pub resilience: ResilienceConfig,
    /// Temporal-reuse knob ([`TemporalConfig::reuse_threshold`]) for
    /// [`ServeScheme::temporal`] schemes. A threshold of `0.0` disables
    /// reuse bit-exactly (every frame re-renders at full cost).
    pub temporal: TemporalConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            vsync_cycles: VSYNC_90HZ_CYCLES,
            sessions: 8,
            frames_per_session: 16,
            mean_interarrival: VSYNC_90HZ_CYCLES / 4,
            seed: 0x00D1_5EED,
            headroom: DEFAULT_HEADROOM,
            resilience: ResilienceConfig::on(),
            temporal: TemporalConfig::default(),
        }
    }
}

/// One scheduled frame of an admitted session.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Frame index within the session (0 = warmup).
    pub frame: u32,
    /// Index into the cost stream's reports backing this frame.
    pub report_index: usize,
    /// Release (vsync grid) cycle.
    pub release: Cycle,
    /// Presentation deadline (`release + V`).
    pub deadline: Cycle,
    /// Cycle rendering started (equals `end` for dropped frames).
    pub start: Cycle,
    /// Cycle rendering retired.
    pub end: Cycle,
    /// Shade scale the frame ran at (1.0 = full quality).
    pub scale: f64,
    /// Whether the frame retired after its deadline.
    pub missed: bool,
    /// Whether the frame was dropped as stale without rendering.
    pub dropped: bool,
    /// Head pose the session's client submitted for this frame.
    pub pose: Pose,
}

/// One admitted session's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Global session id (arrival order, shared with rejected sessions).
    pub id: u32,
    /// Arrival (= admission) cycle.
    pub arrival: Cycle,
    /// Predicted per-vsync demand at admission (Eq. 3).
    pub predicted: f64,
    /// Scheduled frames in frame order.
    pub frames: Vec<FrameRecord>,
}

/// A session turned away at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct Reject {
    /// Global session id.
    pub id: u32,
    /// Arrival cycle.
    pub arrival: Cycle,
    /// Predicted per-vsync demand that did not fit.
    pub predicted: f64,
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Scheme the run multiplexed under.
    pub scheme: ServeScheme,
    /// Workload name.
    pub workload: String,
    /// Vsync interval used.
    pub vsync: Cycle,
    /// Admitted sessions in arrival order.
    pub sessions: Vec<SessionOutcome>,
    /// Rejected sessions in arrival order.
    pub rejects: Vec<Reject>,
    /// The shared cost stream (for report access).
    pub stream: Arc<SessionCostStream>,
}

impl ServeOutcome {
    /// Aggregate QoS over all admitted sessions.
    pub fn qos(&self) -> AggregateQos {
        aggregate_qos(self)
    }

    /// Per-session QoS summaries.
    pub fn session_qos(&self) -> Vec<SessionQos> {
        self.sessions.iter().map(session_qos).collect()
    }

    /// The frame reports session `idx` (index into
    /// [`sessions`](Self::sessions)) replayed, in frame order — for
    /// bit-identity checks against a standalone warm-executor run.
    pub fn session_reports(&self, idx: usize) -> Vec<&FrameReport> {
        self.sessions[idx].frames.iter().map(|f| &self.stream.reports[f.report_index]).collect()
    }
}

/// Runs one deterministic serving experiment. `trace`, when given,
/// receives the session-lifecycle events in cycle order.
pub fn simulate(
    scheme: ServeScheme,
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &ServeConfig,
    trace: Option<&mut Recorder>,
) -> ServeOutcome {
    simulate_metered(scheme, spec, gpu, cfg, trace, None)
}

/// [`simulate`], then [`meter_serve`] folds the finished run into the
/// optional [`Registry`]: frame counts, misses, sheds, the
/// release-to-retire latency histogram, admission and temporal counters,
/// windowed by the vsync interval. Metering reads only the returned
/// outcome and events, so a metered run is bit-identical to an unmetered
/// one (pinned by `prop_metrics`).
pub fn simulate_metered(
    scheme: ServeScheme,
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &ServeConfig,
    trace: Option<&mut Recorder>,
    metrics: Option<&mut Registry>,
) -> ServeOutcome {
    let (out, events) = schedule(cost_stream(scheme, spec, gpu), cfg, None);
    if let Some(reg) = metrics {
        meter_serve(reg, &out, &events);
    }
    if let Some(rec) = trace {
        record_in_cycle_order(rec, events);
    }
    out
}

/// Hands `events` to `rec` in cycle order. Emission order is simulation
/// order; the exporters require non-decreasing timestamps per track, so
/// the sort is by cycle and stable — same-cycle events keep their causal
/// order.
pub fn record_in_cycle_order(rec: &mut Recorder, mut events: Vec<TraceEvent>) {
    events.sort_by_key(|e| e.cycle());
    for e in events {
        rec.record(e);
    }
}

/// Reject reason of a session the `link` budget of [`schedule`] turns
/// away.
pub const LINK_REASON: &str = "link";

/// The serving core behind [`simulate_metered`] and the edge tier: runs
/// every arrival through the optional `link` budget and Eq. 3 admission,
/// then EDF-schedules the admitted sessions over `stream`. A session the
/// link cannot carry is rejected with reason [`LINK_REASON`] and never
/// offered to the compute budget; an admitted session holds the link's
/// demand until it departs. The link budget draws no randomness, so a
/// run with one consumes the arrival RNG exactly like a run without.
/// Returns the outcome and the lifecycle events in emission order (see
/// [`record_in_cycle_order`]).
pub fn schedule(
    stream: Arc<SessionCostStream>,
    cfg: &ServeConfig,
    mut link: Option<Budget>,
) -> (ServeOutcome, Vec<TraceEvent>) {
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
            events.push(TraceEvent::SessionAdmit {
                cycle: arrival,
                session: id,
                predicted,
                active: compute.active(),
            });
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

    // All frame releases of admitted sessions, in release order. `slot`
    // indexes the admitted-session vectors; ids stay global.
    let mut releases: Vec<(Cycle, u32, u32)> = Vec::new(); // (release, slot, frame)
    for (slot, s) in sessions.iter().enumerate() {
        for f in 0..total_frames {
            releases.push((s.arrival + Cycle::from(f) * v, slot as u32, f));
        }
    }
    releases.sort_unstable();

    // EDF over the single render engine. Keys are integers only, totally
    // ordered by (deadline, slot, frame) — no ties, no float compares.
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
            // More than one interval stale: presenting it would only push
            // younger frames later. Drop without consuming render time.
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

    for s in &mut sessions {
        s.frames.sort_by_key(|f| f.frame);
    }

    let workload = stream.workload.clone();
    (ServeOutcome { scheme, workload, vsync: v, sessions, rejects, stream }, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::benchmarks;
    use oovr_trace::TraceConfig;

    fn spec() -> BenchmarkSpec {
        benchmarks::hl2_640().scaled(0.05)
    }

    fn small(sessions: u32, frames: u32) -> ServeConfig {
        ServeConfig { sessions, frames_per_session: frames, ..ServeConfig::default() }
    }

    #[test]
    fn single_session_replays_the_warm_stream() {
        let out = simulate(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &small(1, 3), None);
        assert_eq!(out.sessions.len(), 1);
        assert!(out.rejects.is_empty());
        let frames = &out.sessions[0].frames;
        assert_eq!(frames.len(), 4);
        let reports = out.session_reports(0);
        let direct = oovr::schemes::OoVr::new().render_frames(
            &oovr::cache::scene_for(&spec()),
            &GpuConfig::default(),
            4,
        );
        for (got, want) in reports.iter().zip(&direct) {
            assert_eq!(got.frame_cycles, want.frame_cycles);
            assert_eq!(got.counts, want.counts);
        }
        // Alone on the machine at reduced scale, every frame is on time.
        assert!(frames.iter().all(|f| !f.missed && !f.dropped));
        let qos = out.qos();
        assert_eq!(qos.frames, 3);
        assert_eq!(qos.goodput, 1.0);
    }

    #[test]
    fn identical_seeds_replay_bit_identically() {
        let cfg = small(6, 8);
        let gpu = GpuConfig::default();
        let a = simulate(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        let b = simulate(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.rejects, b.rejects);
    }

    #[test]
    fn tight_vsync_rejects_the_overflow() {
        // Shrink the interval until only a couple of sessions fit.
        let steady =
            cost_stream(ServeScheme::OoVr, &spec(), &GpuConfig::default()).steady().frame_cycles;
        let cfg = ServeConfig {
            vsync_cycles: steady * 2,
            mean_interarrival: 0,
            headroom: 1.0,
            ..small(8, 4)
        };
        let out = simulate(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &cfg, None);
        assert!(!out.sessions.is_empty(), "at least one session fits");
        assert!(!out.rejects.is_empty(), "the overflow must be turned away");
        assert_eq!(out.sessions.len() + out.rejects.len(), 8);
        // Predicted demand of what was admitted stays within the budget.
        let admitted: f64 = out.sessions.iter().map(|s| s.predicted).sum();
        assert!(admitted <= cfg.vsync_cycles as f64 + 1e-9);
    }

    #[test]
    fn shedding_degrades_scale_instead_of_missing() {
        let stream = cost_stream(ServeScheme::OoVrShed, &spec(), &GpuConfig::default());
        let (cold, steady) = (stream.cold().frame_cycles, stream.steady().frame_cycles);
        // V = (5·cold + 3·steady)/4 sits strictly between the admission
        // bound for two sessions ((cold + 3·steady)/2, Eq. 3 over the
        // 4-frame stream) and the 2·cold both cold frames need back to
        // back — so both sessions are admitted, and the second session's
        // warmup provably overruns its deadline unless the scheduler sheds.
        let cfg = ServeConfig {
            vsync_cycles: (5 * cold + 3 * steady) / 4,
            mean_interarrival: 0,
            headroom: 1.0,
            ..small(2, 12)
        };
        let shed = simulate(ServeScheme::OoVrShed, &spec(), &GpuConfig::default(), &cfg, None);
        assert_eq!(shed.sessions.len(), 2);
        let q = shed.qos();
        assert!(q.shed_frames > 0, "overload must trigger shedding");
        assert!(q.min_scale < 1.0);
        assert!(q.min_scale >= cfg.resilience.shed_floor - 1e-12);
        // The same offered load without shedding misses more vsyncs.
        let hard = simulate(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &cfg, None);
        assert!(q.miss_rate <= hard.qos().miss_rate);
    }

    #[test]
    fn trace_sink_sees_the_session_lifecycle_in_cycle_order() {
        let mut rec = Recorder::new(TraceConfig::default());
        let cfg = small(4, 4);
        let out = simulate(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &cfg, Some(&mut rec));
        let events: Vec<_> = rec.events().cloned().collect();
        let admits = events.iter().filter(|e| matches!(e, TraceEvent::SessionAdmit { .. })).count();
        let spans = events.iter().filter(|e| matches!(e, TraceEvent::FrameSpan { .. })).count();
        assert_eq!(admits, out.sessions.len());
        let executed: usize =
            out.sessions.iter().map(|s| s.frames.iter().filter(|f| !f.dropped).count()).sum();
        assert_eq!(spans, executed);
        let mut last = 0;
        for e in &events {
            assert!(e.cycle() >= last, "events must be cycle-ordered");
            last = e.cycle();
        }
    }

    #[test]
    fn temporal_reuse_cuts_warm_frame_costs_and_traces_it() {
        let mut rec = Recorder::new(TraceConfig::default());
        let cfg = small(2, 8);
        let gpu = GpuConfig::default();
        let t = simulate(ServeScheme::OoVrTemporal, &spec(), &gpu, &cfg, Some(&mut rec));
        let o = simulate(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        let busy = |out: &ServeOutcome| -> Cycle {
            out.sessions
                .iter()
                .flat_map(|s| s.frames.iter().filter(|f| !f.dropped))
                .map(|f| f.end - f.start)
                .sum()
        };
        assert!(
            busy(&t) < busy(&o),
            "temporal reuse must cut total render cycles ({} vs {})",
            busy(&t),
            busy(&o)
        );
        let reused: u64 = rec
            .events()
            .filter_map(|e| match e {
                TraceEvent::TemporalReuse { reused, .. } => Some(u64::from(*reused)),
                _ => None,
            })
            .sum();
        assert!(reused > 0, "the default threshold must reuse some objects");
    }

    #[test]
    fn temporal_at_zero_threshold_matches_plain_oovr_bit_exactly() {
        let cfg = ServeConfig { temporal: oovr::TemporalConfig::exact(), ..small(4, 6) };
        let gpu = GpuConfig::default();
        let t = simulate(ServeScheme::OoVrTemporal, &spec(), &gpu, &cfg, None);
        let o = simulate(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        assert_eq!(t.sessions, o.sessions);
        assert_eq!(t.rejects, o.rejects);
    }

    #[test]
    fn poses_differ_across_sessions_but_replay_per_seed() {
        let cfg = small(3, 6);
        let out = simulate(ServeScheme::Baseline, &spec(), &GpuConfig::default(), &cfg, None);
        assert!(out.sessions.len() >= 2);
        let a: Vec<Pose> = out.sessions[0].frames.iter().map(|f| f.pose).collect();
        let b: Vec<Pose> = out.sessions[1].frames.iter().map(|f| f.pose).collect();
        assert_ne!(a, b, "sessions follow distinct head paths");
        let again = simulate(ServeScheme::Baseline, &spec(), &GpuConfig::default(), &cfg, None);
        let a2: Vec<Pose> = again.sessions[0].frames.iter().map(|f| f.pose).collect();
        assert_eq!(a, a2);
    }
}
