//! The split client–edge simulator.
//!
//! [`simulate_edge`] runs one deterministic split-rendering experiment in
//! three passes, all in simulated cycles:
//!
//! 1. **Edge render pass** — a call to the `oovr-serve` scheduler core
//!    ([`oovr_serve::schedule`]: arrivals, Eq. 3 admission, EDF, stale
//!    drops, shedding, temporal reuse) with the link byte [`Budget`]. A
//!    session whose steady encoded-byte rate does not fit in the remaining
//!    link headroom is rejected with reason [`LINK_REASON`] and never
//!    touches the Eq. 3 budget. An unbounded link has no budget, so over
//!    it this pass *is* local [`oovr_serve::simulate`].
//! 2. **Encode + link pass** — every rendered frame is encoded on the
//!    edge (priced per shaded pixel at the frame's shade scale) and
//!    enters the [`NetworkLink`] in encode-completion order. The link
//!    serializes, queues, degrades, and loses frames per its compiled
//!    fault schedule; lost frames still burn bandwidth. The renderer
//!    never observes the link (open loop), so both client policies below
//!    can be compared on identical deliveries.
//! 3. **Client pass** — at each frame's vsync deadline the thin client
//!    presents the fresh frame if it arrived in time, presents it late
//!    if it arrived after the deadline, or — when ATW reprojection is on
//!    — covers the vsync by warping the most recent delivered frame
//!    within the staleness cap ([`warp_cycles_for_pixels`]). Past the
//!    cap the frame is a hard miss (dark vsync).
//!
//! [`LINK_REASON`]: oovr_serve::LINK_REASON
//! [`NetworkLink`]: crate::link::NetworkLink
//! [`warp_cycles_for_pixels`]: oovr_frameworks::atw::warp_cycles_for_pixels

use std::sync::Arc;

use oovr_frameworks::atw::warp_cycles_for_pixels;
use oovr_gpu::GpuConfig;
use oovr_metrics::Registry;
use oovr_scene::BenchmarkSpec;
use oovr_serve::{
    cost_stream, record_in_cycle_order, schedule, Budget, FrameRecord, Reject, ServeConfig,
    ServeScheme,
};
use oovr_trace::{Cycle, Recorder, TraceEvent};

use crate::chaos::meter_edge;
use crate::link::{LinkConfig, NetworkLink};
use crate::qos::{edge_qos, motion_to_photon, AggregateQos, MotionToPhoton};

/// Maximum age (in frames) of a delivered frame the client will still
/// reproject; beyond it the vsync is a hard miss.
const STALE_CAP: u32 = 4;

/// Multiplier on the one-GPM ATW warp cost — the thin client's ROPs are
/// assumed this many times slower than an edge GPM's.
const WARP_FACTOR: u64 = 4;

/// Configuration of one split client–edge run.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// The edge server's serving configuration (vsync grid, arrivals,
    /// admission headroom, shedding, temporal reuse).
    pub serve: ServeConfig,
    /// The client–edge link.
    pub link: LinkConfig,
    /// Whether the thin client covers missing frames by ATW reprojection.
    pub reproject: bool,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig { serve: ServeConfig::default(), link: LinkConfig::default(), reproject: true }
    }
}

impl EdgeConfig {
    /// The degenerate split: ideal link, reprojection off. Bit-identical
    /// to local-only serving under `serve` (pinned by `prop_edge`).
    pub fn degenerate(serve: ServeConfig) -> Self {
        EdgeConfig { serve, link: LinkConfig::degenerate(), reproject: false }
    }
}

/// How the client covered one vsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Display {
    /// The frame arrived before its deadline and was presented on time.
    Fresh,
    /// The frame arrived after its deadline and was presented late
    /// (a missed vsync, like a late local frame).
    Late,
    /// The client warped a delivered frame `age` frames old over the
    /// vsync (not a miss — ATW is the designed loss response).
    Reprojected {
        /// Age of the warped source frame, in frames.
        age: u32,
    },
    /// Nothing within the staleness cap was available: a dark vsync,
    /// accounted like a dropped local frame.
    Stale {
        /// Frames since the last delivered frame (`frame + 1` if none).
        age: u32,
    },
}

/// One frame's journey through the split pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeFrame {
    /// The edge-side schedule record (render pass).
    pub record: FrameRecord,
    /// Cycle the encoded frame entered the link (render end + encode);
    /// equals `record.end` for frames dropped before rendering.
    pub encode_end: Cycle,
    /// Encoded size in bytes (0 for dropped frames).
    pub bytes: u64,
    /// Whether the link lost the frame.
    pub lost: bool,
    /// Client-side arrival cycle of a delivered frame.
    pub delivery: Option<Cycle>,
    /// How the client covered this frame's vsync.
    pub display: Display,
    /// Photon cycle: delivery for presented frames, `deadline + warp`
    /// for reprojections, `deadline + vsync` for dark vsyncs.
    pub photon: Cycle,
}

/// One admitted session's split-pipeline outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSession {
    /// Global session id (arrival order, shared with rejects).
    pub id: u32,
    /// Arrival (= admission) cycle.
    pub arrival: Cycle,
    /// Predicted per-vsync compute demand at admission (Eq. 3).
    pub predicted: f64,
    /// Frames in frame order.
    pub frames: Vec<EdgeFrame>,
}

/// Everything a split run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeOutcome {
    /// Scheme the edge server multiplexed under.
    pub scheme: ServeScheme,
    /// Workload name.
    pub workload: String,
    /// Vsync interval used.
    pub vsync: Cycle,
    /// Client-side ATW warp cost per frame, in cycles.
    pub warp_cycles: Cycle,
    /// Admitted sessions in arrival order.
    pub sessions: Vec<EdgeSession>,
    /// Rejected sessions in arrival order (compute- and link-rejects).
    pub rejects: Vec<Reject>,
    /// How many of [`rejects`](Self::rejects) were link-budget rejects.
    pub link_rejected: u32,
}

impl EdgeOutcome {
    /// Aggregate QoS in the local-serving vocabulary: latencies over
    /// delivered paced frames, late frames count as missed, dark vsyncs
    /// as dropped. Over the degenerate link this equals
    /// [`oovr_serve::ServeOutcome::qos`] bit-for-bit.
    pub fn qos(&self) -> AggregateQos {
        edge_qos(self)
    }

    /// Motion-to-photon latency summary over all paced frames.
    pub fn motion_to_photon(&self) -> MotionToPhoton {
        motion_to_photon(self)
    }
}

/// [`simulate_edge`], then [`meter_edge`] folds the finished run into
/// the optional [`Registry`]: paced frame counts, edge-level misses, link
/// deliveries/losses, reprojections, dark vsyncs, and the
/// `motion_to_photon_cycles` histogram behind [`crate::chaos::edge_slos`].
/// Metering reads only the returned outcome, so a metered run is
/// bit-identical to an unmetered one.
pub fn simulate_edge_metered(
    scheme: ServeScheme,
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &EdgeConfig,
    trace: Option<&mut Recorder>,
    metrics: Option<&mut Registry>,
) -> EdgeOutcome {
    let out = simulate_edge(scheme, spec, gpu, cfg, trace);
    if let Some(reg) = metrics {
        meter_edge(reg, &out);
    }
    out
}

/// One rendered frame queued for the link.
struct Queued {
    encode_end: Cycle,
    slot: u32,
    frame: u32,
    bytes: u64,
}

/// One sent frame's link outcome: `delivery` is `None` if it was lost.
#[derive(Clone)]
struct LinkOutcome {
    encode_end: Cycle,
    bytes: u64,
    delivery: Option<Cycle>,
}

/// Runs one deterministic split client–edge experiment. `trace`, when
/// given, receives the full session + link + client lifecycle in cycle
/// order; an untraced run builds no events.
pub fn simulate_edge(
    scheme: ServeScheme,
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &EdgeConfig,
    trace: Option<&mut Recorder>,
) -> EdgeOutcome {
    let stream = cost_stream(scheme, spec, gpu);
    let serve = &cfg.serve;
    let steady_px = stream.steady().counts.pixels_out;
    let bytes_of = |px: u64| px * cfg.link.bytes_per_kpixel / 1000;
    // One session's steady encoded-byte demand per cycle — the unit the
    // link is provisioned in and admission charges per session.
    let session_rate = bytes_of(steady_px) as f64 / serve.vsync_cycles.max(1) as f64;
    let mut net = NetworkLink::new(&cfg.link, session_rate, serve.sessions, serve.seed);

    // ---- Pass 1: edge render. The serve core runs with the link byte
    // budget: a session the link cannot carry must not consume compute
    // headroom rendering undeliverable frames. An unbounded link has no
    // budget, so the degenerate split is local serving. Each rendered
    // frame is priced for encode as the core serves it, so its send is
    // queued in serve order.
    let link =
        net.bytes_per_cycle().map(|capacity| Budget::new(capacity, serve.headroom, session_rate));
    let observe = trace.is_some();
    let costs = Arc::clone(&stream);
    let mut sends: Vec<Queued> = Vec::new();
    let (served, mut events, link_rejected) =
        schedule(stream, serve, link, observe, |slot, record| {
            let px = costs.reports[record.report_index].counts.pixels_out;
            let px = ((px as f64) * record.scale).round() as u64;
            let encode = px * cfg.link.encode_cycles_per_kpixel / 1000;
            sends.push(Queued {
                encode_end: record.end + encode,
                slot,
                frame: record.frame,
                bytes: bytes_of(px),
            });
        });
    let v = served.vsync;

    // ---- Pass 2: encode + link. Rendered frames enter the link in
    // encode-completion order (ties broken by (slot, frame)); the
    // renderer never observes the link, so deliveries are identical
    // under either client policy. Serve order is nearly encode order, so
    // the stable, run-adaptive sort is close to one pass; the keys are
    // unique, so any sort yields the same order.
    sends.sort_by_key(|s| (s.encode_end, s.slot, s.frame));
    let frames_per = serve.frames_per_session as usize + 1;
    // Each frame's link outcome at `[slot × frames_per + frame]`; `None`
    // for frames dropped before rendering, which were never sent.
    let mut sent: Vec<Option<LinkOutcome>> = vec![None; served.sessions.len() * frames_per];
    for &Queued { encode_end, slot, frame, bytes } in &sends {
        let id = served.sessions[slot as usize].id;
        if observe {
            events.push(TraceEvent::FrameSent { cycle: encode_end, session: id, frame, bytes });
        }
        // Lost frames are drawn per (session, frame) at link entry and
        // still consume bandwidth — the air time was spent either way.
        let delivery = net.transfer(encode_end, bytes);
        let lost = net.is_lost(id, frame, encode_end);
        if observe {
            events.push(if lost {
                TraceEvent::FrameLost { cycle: encode_end, session: id, frame }
            } else {
                TraceEvent::FrameDelivered {
                    cycle: delivery,
                    session: id,
                    frame,
                    latency: delivery - encode_end,
                }
            });
        }
        sent[slot as usize * frames_per + frame as usize] =
            Some(LinkOutcome { encode_end, bytes, delivery: (!lost).then_some(delivery) });
    }

    // ---- Pass 3: the thin client, one session-major walk that builds
    // each session's frames and classifies its vsyncs, with ATW coverage
    // and the motion-to-photon accounting.
    let warp_cycles = warp_cycles_for_pixels(steady_px.max(1)) * WARP_FACTOR;
    let delivered = |s: &Option<LinkOutcome>| s.as_ref().and_then(|s| s.delivery);
    let mut sessions = Vec::with_capacity(served.sessions.len());
    for (session, sent) in served.sessions.into_iter().zip(sent.chunks_exact(frames_per)) {
        let id = session.id;
        let mut frames = Vec::with_capacity(frames_per);
        for record in session.frames {
            let frame = record.frame;
            let deadline = record.deadline;
            let delivery = delivered(&sent[frame as usize]);
            let (display, photon) = match delivery {
                Some(d) if d <= deadline => (Display::Fresh, d),
                Some(d) => (Display::Late, d),
                None => {
                    // Most recent predecessor already delivered by this
                    // frame's deadline (the client can only warp what it
                    // holds at the vsync).
                    let pred = (0..frame)
                        .rev()
                        .find(|&g| delivered(&sent[g as usize]).is_some_and(|d| d <= deadline));
                    let age = pred.map_or(frame + 1, |g| frame - g);
                    if cfg.reproject && pred.is_some() && age <= STALE_CAP {
                        if observe {
                            events.push(TraceEvent::FrameReprojected {
                                cycle: deadline,
                                session: id,
                                frame,
                                age,
                            });
                        }
                        (Display::Reprojected { age }, deadline + warp_cycles)
                    } else {
                        if observe {
                            events.push(TraceEvent::FrameStale {
                                cycle: deadline,
                                session: id,
                                frame,
                                age,
                            });
                        }
                        (Display::Stale { age }, deadline + v)
                    }
                }
            };
            let (encode_end, bytes, lost) = match &sent[frame as usize] {
                Some(s) => (s.encode_end, s.bytes, s.delivery.is_none()),
                None => (record.end, 0, false),
            };
            frames.push(EdgeFrame { record, encode_end, bytes, lost, delivery, display, photon });
        }
        sessions.push(EdgeSession {
            id,
            arrival: session.arrival,
            predicted: session.predicted,
            frames,
        });
    }

    if let Some(rec) = trace {
        record_in_cycle_order(rec, events);
    }

    EdgeOutcome {
        scheme,
        workload: spec.name.clone(),
        vsync: v,
        warp_cycles,
        sessions,
        rejects: served.rejects,
        link_rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::benchmarks;
    use oovr_serve::simulate;
    use oovr_trace::TraceConfig;

    fn spec() -> BenchmarkSpec {
        benchmarks::hl2_640().scaled(0.05)
    }

    fn small(sessions: u32, frames: u32) -> ServeConfig {
        ServeConfig { sessions, frames_per_session: frames, ..ServeConfig::default() }
    }

    #[test]
    fn degenerate_link_matches_local_serving_exactly() {
        let serve_cfg = small(6, 8);
        let gpu = GpuConfig::default();
        let local = simulate(ServeScheme::OoVr, &spec(), &gpu, &serve_cfg, None);
        let edge = simulate_edge(
            ServeScheme::OoVr,
            &spec(),
            &gpu,
            &EdgeConfig::degenerate(serve_cfg),
            None,
        );
        assert_eq!(edge.qos(), local.qos());
        assert_eq!(edge.sessions.len(), local.sessions.len());
        for (e, l) in edge.sessions.iter().zip(&local.sessions) {
            assert_eq!(e.id, l.id);
            let recs: Vec<&FrameRecord> = e.frames.iter().map(|f| &f.record).collect();
            let want: Vec<&FrameRecord> = l.frames.iter().collect();
            assert_eq!(recs, want, "degenerate schedule must be bit-identical");
            for f in &e.frames {
                assert!(!f.lost);
                assert_eq!(f.encode_end, f.record.end);
                if !f.record.dropped {
                    assert_eq!(f.delivery, Some(f.record.end));
                }
            }
        }
        assert_eq!(edge.link_rejected, 0);
    }

    #[test]
    fn same_config_replays_bit_identically() {
        let cfg = EdgeConfig {
            serve: small(6, 8),
            link: LinkConfig {
                fault: Some(oovr_gpu::FaultPlan::new(oovr_gpu::FaultScenario::LinkDown, 0.8, 5)),
                ..LinkConfig::default()
            },
            reproject: true,
        };
        let gpu = GpuConfig::default();
        let a = simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        let b = simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        assert_eq!(a, b);
    }

    #[test]
    fn latency_shifts_deliveries_without_changing_the_schedule() {
        let gpu = GpuConfig::default();
        let base = EdgeConfig { serve: small(4, 8), ..EdgeConfig::default() };
        let near = simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &base, None);
        let far_cfg = EdgeConfig {
            link: LinkConfig { latency: base.link.latency * 4, ..base.link.clone() },
            ..base.clone()
        };
        let far = simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &far_cfg, None);
        for (n, f) in near.sessions.iter().zip(&far.sessions) {
            for (nf, ff) in n.frames.iter().zip(&f.frames) {
                // Render schedule and loss are latency-independent.
                assert_eq!(nf.record, ff.record);
                assert_eq!(nf.lost, ff.lost);
                if let (Some(dn), Some(df)) = (nf.delivery, ff.delivery) {
                    assert!(df >= dn, "latency can only delay deliveries");
                }
                assert!(ff.photon >= nf.photon, "photon time is monotone in link latency");
            }
        }
        let p99 = |o: &EdgeOutcome| o.motion_to_photon().p99;
        assert!(p99(&far) >= p99(&near));
    }

    #[test]
    fn atw_covers_losses_the_bare_client_misses() {
        // A violently lossy link: every frame after the first few is at
        // risk, so reprojection has plenty to cover.
        let cfg = EdgeConfig {
            serve: small(4, 12),
            link: LinkConfig { base_loss: 0.4, ..LinkConfig::default() },
            reproject: true,
        };
        let gpu = GpuConfig::default();
        let atw = simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        let bare_cfg = EdgeConfig { reproject: false, ..cfg.clone() };
        let bare = simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &bare_cfg, None);
        let reprojected: usize = atw
            .sessions
            .iter()
            .flat_map(|s| &s.frames)
            .filter(|f| matches!(f.display, Display::Reprojected { .. }))
            .count();
        assert!(reprojected > 0, "40% loss must force reprojections");
        assert!(
            atw.qos().miss_rate < bare.qos().miss_rate,
            "ATW must strictly beat the bare client ({} vs {})",
            atw.qos().miss_rate,
            bare.qos().miss_rate
        );
        // Same deliveries on both sides — the policies only differ in
        // how uncovered vsyncs are classified.
        for (a, b) in atw.sessions.iter().zip(&bare.sessions) {
            for (fa, fb) in a.frames.iter().zip(&b.frames) {
                assert_eq!(fa.lost, fb.lost);
                assert_eq!(fa.delivery, fb.delivery);
            }
        }
    }

    #[test]
    fn undersized_link_rejects_sessions_with_reason_link() {
        let mut rec = Recorder::new(TraceConfig::default());
        let cfg = EdgeConfig {
            serve: small(8, 6),
            // Capacity for two sessions' aggregate demand across eight
            // arrivals with 90% headroom: most must bounce off the link.
            link: LinkConfig { provision: 2.0 / 8.0, ..LinkConfig::default() },
            reproject: true,
        };
        let gpu = GpuConfig::default();
        let out = simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &cfg, Some(&mut rec));
        assert!(out.link_rejected > 0, "the link budget must turn sessions away");
        assert_eq!(out.sessions.len() + out.rejects.len(), 8, "every offer is decided");
        let link_rejects = rec
            .events()
            .filter(|e| matches!(e, TraceEvent::SessionReject { reason, .. } if *reason == "link"))
            .count();
        assert_eq!(link_rejects as u32, out.link_rejected);
        // Tracing observes the run; it changes nothing in the outcome.
        assert_eq!(out, simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &cfg, None));
    }

    #[test]
    fn link_budget_clamps_headroom_like_compute() {
        // Headroom above 1 clamps to 1 on both budgets, so a link
        // provisioned for two sessions' demand admits at most two.
        let cfg = EdgeConfig {
            serve: ServeConfig { mean_interarrival: 0, headroom: 3.0, ..small(8, 6) },
            link: LinkConfig { provision: 2.0 / 8.0, ..LinkConfig::default() },
            reproject: true,
        };
        let out = simulate_edge(ServeScheme::OoVr, &spec(), &GpuConfig::default(), &cfg, None);
        assert!(out.sessions.len() <= 2, "admitted {} sessions", out.sessions.len());
        assert_eq!(out.sessions.len() + out.rejects.len(), 8);
    }

    #[test]
    fn metered_run_reconciles_with_qos() {
        let cfg = EdgeConfig {
            serve: small(5, 10),
            link: LinkConfig { base_loss: 0.2, ..LinkConfig::default() },
            reproject: true,
        };
        let gpu = GpuConfig::default();
        let mut reg = Registry::new(cfg.serve.vsync_cycles);
        let out =
            simulate_edge_metered(ServeScheme::OoVr, &spec(), &gpu, &cfg, None, Some(&mut reg));
        let qos = out.qos();
        assert_eq!(reg.counter_sum("frames"), u64::from(qos.frames));
        assert_eq!(reg.counter_sum("frames_missed"), u64::from(qos.missed + qos.dropped));
        let mtp = out.motion_to_photon();
        assert_eq!(mtp.samples, u64::from(qos.frames));
        // The metered run is a pure observation of the unmetered one.
        let plain = simulate_edge(ServeScheme::OoVr, &spec(), &gpu, &cfg, None);
        assert_eq!(plain, out);
    }

    /// `simulate_edge` as it stood before the link pass was fed in serve
    /// order, kept verbatim as the reference `edge_walk_matches_the_parent`
    /// checks the one-walk form against: every frame rebuilt into
    /// `EdgeSession`s, the session-major sends sorted, and the client
    /// classified in a second walk over a per-session `deliveries` vector.
    fn parent_simulate_edge(
        scheme: ServeScheme,
        spec: &BenchmarkSpec,
        gpu: &GpuConfig,
        cfg: &EdgeConfig,
        trace: Option<&mut Recorder>,
    ) -> EdgeOutcome {
        let stream = cost_stream(scheme, spec, gpu);
        let serve = &cfg.serve;
        let steady_px = stream.steady().counts.pixels_out;
        let bytes_of = |px: u64| px * cfg.link.bytes_per_kpixel / 1000;
        // One session's steady encoded-byte demand per cycle — the unit the
        // link is provisioned in and admission charges per session.
        let session_rate = bytes_of(steady_px) as f64 / serve.vsync_cycles.max(1) as f64;
        let mut net = NetworkLink::new(&cfg.link, session_rate, serve.sessions, serve.seed);

        // ---- Pass 1: edge render. The serve core runs with the link byte
        // budget: a session the link cannot carry must not consume compute
        // headroom rendering undeliverable frames. An unbounded link has no
        // budget, so the degenerate split is local serving.
        let link = net
            .bytes_per_cycle()
            .map(|capacity| Budget::new(capacity, serve.headroom, session_rate));
        let observe = trace.is_some();
        let (served, mut events, link_rejected) = schedule(stream, serve, link, observe, |_, _| {});
        let v = served.vsync;

        // ---- Pass 2: encode + link. Rendered frames enter the link in
        // encode-completion order (ties broken by (slot, frame)); the
        // renderer never observes the link, so deliveries are identical
        // under either client policy.
        let mut sends: Vec<(Cycle, u32, u32)> = Vec::new(); // (encode_end, slot, frame)
        let reports = &served.stream.reports;
        let mut sessions: Vec<EdgeSession> = served
            .sessions
            .into_iter()
            .enumerate()
            .map(|(slot, s)| EdgeSession {
                id: s.id,
                arrival: s.arrival,
                predicted: s.predicted,
                frames: s
                    .frames
                    .into_iter()
                    .map(|record| {
                        let (encode_end, bytes) = if record.dropped {
                            (record.end, 0)
                        } else {
                            let px = reports[record.report_index].counts.pixels_out;
                            let px = ((px as f64) * record.scale).round() as u64;
                            let encode = px * cfg.link.encode_cycles_per_kpixel / 1000;
                            sends.push((record.end + encode, slot as u32, record.frame));
                            (record.end + encode, bytes_of(px))
                        };
                        EdgeFrame {
                            display: Display::Stale { age: record.frame + 1 },
                            record,
                            encode_end,
                            bytes,
                            lost: false,
                            delivery: None,
                            photon: 0,
                        }
                    })
                    .collect(),
            })
            .collect();
        sends.sort_unstable();
        for &(encode_end, slot, frame) in &sends {
            let session = &mut sessions[slot as usize];
            let id = session.id;
            let ef = &mut session.frames[frame as usize];
            if observe {
                events.push(TraceEvent::FrameSent {
                    cycle: encode_end,
                    session: id,
                    frame,
                    bytes: ef.bytes,
                });
            }
            // Lost frames are drawn per (session, frame) at link entry and
            // still consume bandwidth — the air time was spent either way.
            let delivery = net.transfer(encode_end, ef.bytes);
            if net.is_lost(id, frame, encode_end) {
                ef.lost = true;
                if observe {
                    events.push(TraceEvent::FrameLost { cycle: encode_end, session: id, frame });
                }
            } else {
                ef.delivery = Some(delivery);
                if observe {
                    events.push(TraceEvent::FrameDelivered {
                        cycle: delivery,
                        session: id,
                        frame,
                        latency: delivery - encode_end,
                    });
                }
            }
        }

        // ---- Pass 3: the thin client. Pure post-processing over the
        // delivery schedule — classification per vsync, ATW coverage, and
        // the motion-to-photon accounting.
        let warp_cycles = warp_cycles_for_pixels(steady_px.max(1)) * WARP_FACTOR;
        for session in &mut sessions {
            let id = session.id;
            // delivery[g] of each frame, for the reprojection predecessor scan.
            let deliveries: Vec<Option<Cycle>> =
                session.frames.iter().map(|f| f.delivery).collect();
            for ef in &mut session.frames {
                let frame = ef.record.frame;
                let deadline = ef.record.deadline;
                let (display, photon) = match ef.delivery {
                    Some(d) if d <= deadline => (Display::Fresh, d),
                    Some(d) => (Display::Late, d),
                    None => {
                        // Most recent predecessor already delivered by this
                        // frame's deadline (the client can only warp what it
                        // holds at the vsync).
                        let pred = (0..frame)
                            .rev()
                            .find(|&g| deliveries[g as usize].is_some_and(|d| d <= deadline));
                        let age = pred.map_or(frame + 1, |g| frame - g);
                        if cfg.reproject && pred.is_some() && age <= STALE_CAP {
                            if observe {
                                events.push(TraceEvent::FrameReprojected {
                                    cycle: deadline,
                                    session: id,
                                    frame,
                                    age,
                                });
                            }
                            (Display::Reprojected { age }, deadline + warp_cycles)
                        } else {
                            if observe {
                                events.push(TraceEvent::FrameStale {
                                    cycle: deadline,
                                    session: id,
                                    frame,
                                    age,
                                });
                            }
                            (Display::Stale { age }, deadline + v)
                        }
                    }
                };
                ef.display = display;
                ef.photon = photon;
            }
        }

        if let Some(rec) = trace {
            record_in_cycle_order(rec, events);
        }

        EdgeOutcome {
            scheme,
            workload: spec.name.clone(),
            vsync: v,
            warp_cycles,
            sessions,
            rejects: served.rejects,
            link_rejected,
        }
    }

    /// The serve-order link pass and the one-walk client are the parent's
    /// three passes, bit for bit. The sweep crosses OO-VR, OO-VR+shed and
    /// OO-VR+temporal, both client policies, three loss rates, no fault,
    /// link-down at two severities and a degraded link, an unbounded, an
    /// undersized and the default link, and two latencies, over a relaxed
    /// session shape and a burst whose cold frames overrun, so frames
    /// queue and shed. For each run the outcome and every
    /// traced event match, and the untraced outcome matches the traced
    /// one. Some run must send frames out of serve order, or the sort is
    /// never tested.
    #[test]
    fn edge_walk_matches_the_parent() {
        use oovr_gpu::{FaultPlan, FaultScenario};
        let gpu = GpuConfig::default();
        let stream = cost_stream(ServeScheme::OoVr, &spec(), &gpu);
        let (cold, steady) = (stream.cold().frame_cycles, stream.steady().frame_cycles);
        let relaxed = small(8, 23);
        // Two sessions fit, but not both cold frames back to back, so the
        // second sheds (see the serve core's shedding test) and encodes
        // fewer pixels: its send overtakes the first's.
        let tight = ServeConfig {
            vsync_cycles: (5 * cold + 3 * steady) / 4,
            mean_interarrival: 0,
            headroom: 1.0,
            ..small(8, 23)
        };
        let mut cells = Vec::new();
        for serve in [relaxed, tight] {
            let v = serve.vsync_cycles;
            // Fault windows spread over the run's span.
            let plan = |scenario, severity, seed| {
                Some(FaultPlan::new(scenario, severity, seed).with_horizon(32 * v))
            };
            let faults = [
                None,
                plan(FaultScenario::LinkDown, 0.7, 5),
                plan(FaultScenario::LinkDown, 1.0, 11),
                plan(FaultScenario::LinkDegrade, 1.0, 3),
            ];
            for scheme in [ServeScheme::OoVr, ServeScheme::OoVrShed, ServeScheme::OoVrTemporal] {
                for reproject in [true, false] {
                    for base_loss in [0.0, 0.01, 0.4] {
                        for fault in &faults {
                            for provision in [f64::INFINITY, 0.25, 2.0] {
                                for latency in [v / 8, 2 * v] {
                                    let link = LinkConfig {
                                        provision,
                                        latency,
                                        base_loss,
                                        fault: fault.clone(),
                                        ..LinkConfig::default()
                                    };
                                    let serve = serve.clone();
                                    cells.push((scheme, EdgeConfig { serve, link, reproject }));
                                }
                            }
                        }
                    }
                }
            }
        }
        let events = |r: &Recorder| format!("{:?}", r.events().collect::<Vec<_>>());
        let (mut reordered, mut lost, mut reprojected, mut stale, mut shed) = (0, 0, 0, 0, 0);
        for (scheme, cfg) in &cells {
            let mut want_rec = Recorder::new(TraceConfig::default());
            let want = parent_simulate_edge(*scheme, &spec(), &gpu, cfg, Some(&mut want_rec));
            let mut got_rec = Recorder::new(TraceConfig::default());
            let got = simulate_edge(*scheme, &spec(), &gpu, cfg, Some(&mut got_rec));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{scheme:?} {cfg:?}");
            assert_eq!(events(&got_rec), events(&want_rec), "{scheme:?} {cfg:?}");
            assert_eq!(simulate_edge(*scheme, &spec(), &gpu, cfg, None), got);
            // Each rendered frame's link key in serve order: rendering
            // starts are distinct.
            let mut sends: Vec<_> = (got.sessions.iter().enumerate())
                .flat_map(|(slot, s)| s.frames.iter().map(move |f| (slot, f)))
                .filter(|(_, f)| !f.record.dropped)
                .map(|(slot, f)| (f.record.start, (f.encode_end, slot, f.record.frame)))
                .collect();
            sends.sort_unstable();
            reordered += sends.windows(2).filter(|w| w[1].1 < w[0].1).count();
            for f in got.sessions.iter().flat_map(|s| &s.frames) {
                lost += usize::from(f.lost);
                shed += usize::from(f.record.scale < 1.0);
                reprojected += usize::from(matches!(f.display, Display::Reprojected { .. }));
                stale += usize::from(matches!(f.display, Display::Stale { .. }));
            }
        }
        assert_eq!(cells.len(), 864);
        assert!(reordered > 0, "no run sent a frame out of serve order");
        assert!(
            lost > 0 && shed > 0 && reprojected > 0 && stale > 0,
            "{lost} lost, {shed} shed, {reprojected} reprojected, {stale} stale"
        );
    }
}
