//! Property tests for the flight recorder: tracing observes, never perturbs.
//!
//! The `oovr-trace` integration threads an optional event sink through the
//! executor, the distribution engine, and the memory-window sampler. Every
//! path is gated on `Option::is_none()`, so a traced render must be
//! *bit-identical* to an untraced one — same cycles, same traffic ledger,
//! same work counts — across schemes, workloads, fault plans, and the
//! resilience toggle. The exporters themselves must also be deterministic:
//! the same frame always serializes to the same bytes.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use oovr::{OoApp, OoVr};
use oovr_frameworks::{Baseline, ObjectSfr, RenderScheme};
use oovr_gpu::{FaultPlan, FaultScenario, FrameReport, GpuConfig};
use oovr_scene::BenchmarkSpec;
use oovr_trace::export::{chrome_trace, csv_timeline, flight_digest};
use oovr_trace::{TraceConfig, TraceEvent};

/// The traceable schemes, by index (so proptest can pick one).
fn scheme(ix: usize) -> Box<dyn RenderScheme> {
    match ix % 5 {
        0 => Box::new(Baseline::new()),
        1 => Box::new(ObjectSfr::new()),
        2 => Box::new(OoApp::new()),
        3 => Box::new(OoVr::new()),
        _ => Box::new(OoVr::resilient()),
    }
}

fn scenario(ix: usize) -> FaultScenario {
    FaultScenario::ALL[ix % FaultScenario::ALL.len()]
}

/// Field-by-field equality of the observable frame outcome (`FrameReport`
/// carries no `PartialEq`; the labels are irrelevant here).
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
    // Each case renders a scene two or three times; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tracing any scheme on a fault-free frame changes nothing observable.
    #[test]
    fn traced_render_is_bit_identical(
        scheme_ix in 0usize..5,
        seed in 0u64..1_000,
        draws in 8u32..32,
    ) {
        let spec = BenchmarkSpec::new("prop-trace", 96, 96, draws, seed);
        let scene = spec.build();
        let cfg = GpuConfig::default();
        let s = scheme(scheme_ix);
        let plain = s.render_frame(&scene, &cfg);
        let (traced, rec) = s.render_frame_traced(&scene, &cfg, TraceConfig::default());
        assert_reports_identical(&plain, &traced)?;
        let rec = rec.expect("every scheme supports tracing");
        prop_assert!(!rec.is_empty(), "a traced frame records events");
    }

    /// Same, under deterministic fault injection — the observer must not
    /// perturb the fault schedule either, with and without countermeasures.
    #[test]
    fn traced_render_is_bit_identical_under_faults(
        scheme_ix in 0usize..5,
        scenario_ix in 0usize..8,
        severity in 0.1f64..1.0,
        seed in 0u64..1_000,
    ) {
        let spec = BenchmarkSpec::new("prop-trace", 96, 96, 16, 7);
        let scene = spec.build();
        let plan = FaultPlan::new(scenario(scenario_ix), severity, seed).with_horizon(20_000);
        let cfg = GpuConfig::default().with_fault(plan);
        let s = scheme(scheme_ix);
        let plain = s.render_frame(&scene, &cfg);
        let (traced, _) = s.render_frame_traced(&scene, &cfg, TraceConfig::default());
        assert_reports_identical(&plain, &traced)?;
    }

    /// The exporters are pure functions of the event stream, and the event
    /// stream is a pure function of the render: two traced renders of the
    /// same frame serialize byte-for-byte identically, and the chrome JSON
    /// passes structural validation.
    #[test]
    fn exports_are_deterministic_and_valid(
        scheme_ix in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let spec = BenchmarkSpec::new("prop-trace", 96, 96, 20, seed);
        let scene = spec.build();
        let cfg = GpuConfig::default();
        let s = scheme(scheme_ix);
        let artifacts = |(_, rec): (FrameReport, Option<oovr_trace::Recorder>)| {
            let rec = rec.expect("recorder present");
            let dropped = rec.dropped();
            let events = rec.into_events();
            (
                chrome_trace(&events, cfg.n_gpms, dropped),
                csv_timeline(&events, dropped),
                flight_digest(&events, dropped),
            )
        };
        let a = artifacts(s.render_frame_traced(&scene, &cfg, TraceConfig::default()));
        let b = artifacts(s.render_frame_traced(&scene, &cfg, TraceConfig::default()));
        prop_assert_eq!(&a, &b, "trace artifacts must be byte-identical across runs");
        let doc = oovr_trace::json::parse(&a.0).expect("chrome trace parses");
        oovr_trace::json::validate_chrome_trace(&doc, cfg.n_gpms)
            .expect("chrome trace validates");
    }

    /// A tiny ring capacity drops the oldest events but never corrupts the
    /// stream: exports still succeed and the drop counter accounts for
    /// every event that didn't fit.
    #[test]
    fn ring_overflow_drops_oldest_but_stays_well_formed(
        capacity in 1usize..64,
        seed in 0u64..100,
    ) {
        let spec = BenchmarkSpec::new("prop-trace", 96, 96, 24, seed);
        let scene = spec.build();
        let cfg = GpuConfig::default();
        let trace = TraceConfig { capacity };
        let (_, rec) = OoVr::new().render_frame_traced(&scene, &cfg, trace);
        let rec = rec.expect("recorder present");
        let retained = rec.len();
        let dropped = rec.dropped();
        prop_assert!(retained <= capacity);
        let events = rec.into_events();
        prop_assert_eq!(events.len(), retained);
        // A full render of this scene emits more events than the tiny ring
        // holds, so something must have been dropped.
        prop_assert!(dropped > 0, "expected overflow at capacity {capacity}");
        // Exports stay well-formed on a truncated stream, and every one of
        // them announces the overflow instead of passing as complete.
        let json = chrome_trace(&events, cfg.n_gpms, dropped);
        let doc = oovr_trace::json::parse(&json).expect("truncated trace still parses");
        prop_assert!(doc.get("traceEvents").is_some());
        prop_assert!(
            json.contains("\"trace_overflow\"") &&
                json.contains(&format!("\"dropped\":{dropped}")),
            "chrome export must carry the overflow marker"
        );
        oovr_trace::json::validate_chrome_trace(&doc, cfg.n_gpms)
            .expect("annotated trace still validates");
        let csv = csv_timeline(&events, dropped);
        prop_assert!(
            csv.contains(&format!("trace_overflow,0,0,,,oldest events lost,{dropped},")),
            "csv export must carry the overflow marker"
        );
        let digest = flight_digest(&events, dropped);
        prop_assert!(
            digest.contains("RING OVERFLOW"),
            "digest must warn loudly about the overflow"
        );
        // A non-overflowed export carries no marker anywhere.
        prop_assert!(!chrome_trace(&events, cfg.n_gpms, 0).contains("trace_overflow"));
        prop_assert!(!csv_timeline(&events, 0).contains("trace_overflow"));
        prop_assert!(!flight_digest(&events, 0).contains("RING OVERFLOW"));
    }
}

/// Escapes, control characters and a comma: the exporters must render a
/// reason string byte-stably whatever it holds.
const ODD_REASON: &str = "say \"hi\"\\ then\ttab,comma";

/// Every [`TraceEvent`] variant, with `refit`, `early`, `on_time` and
/// `degraded` each true and false, GPM ids past both exported `n_gpms`,
/// zero-byte link windows and zero-access cache windows, ties for the
/// digest's worst link, stall, miss and transit, and an escaped reason
/// string. The events are grouped by tier (render, serving,
/// temporal, cluster, edge), so prefixes and suffixes of the slice switch
/// each digest section on and off.
fn every_event() -> Vec<TraceEvent> {
    use oovr_trace::Phase;
    vec![
        TraceEvent::PhaseSpan {
            gpm: 1,
            object: 7,
            phase: Phase::Fragment,
            start: 50,
            end: 150,
            quanta: 4,
            stall: 30,
        },
        TraceEvent::PhaseSpan {
            gpm: 0,
            object: 3,
            phase: Phase::Geometry,
            start: 10,
            end: 40,
            quanta: 2,
            stall: 0,
        },
        TraceEvent::PhaseSpan {
            gpm: 5,
            object: 2,
            phase: Phase::Command,
            start: 40,
            end: 30,
            quanta: 1,
            stall: 30,
        },
        TraceEvent::PhaseSpan {
            gpm: 3,
            object: 9,
            phase: Phase::Fragment,
            start: 20,
            end: 220,
            quanta: 9,
            stall: 12,
        },
        TraceEvent::CompositionSpan { start: 230, end: 260 },
        TraceEvent::ShadeScale { cycle: 25, scale: 0.75 },
        TraceEvent::PreAlloc { cycle: 20, gpm: 1, object: 7, bytes: 4096 },
        TraceEvent::PreAlloc { cycle: 21, gpm: 6, object: 8, bytes: 64 },
        TraceEvent::CalibrationFit {
            cycle: 0,
            c0: 12.5,
            c1: 0.125,
            c2: 3.0,
            samples: 8,
            refit: false,
        },
        TraceEvent::CalibrationFit {
            cycle: 90,
            c0: 1.0 / 3.0,
            c1: 2.0,
            c2: 1e-9,
            samples: 16,
            refit: true,
        },
        TraceEvent::Assign { cycle: 5, gpm: 1, batch: 2, triangles: 64, predicted: 120.0 },
        TraceEvent::BatchDone { cycle: 150, gpm: 1, batch: 2, predicted: 120.0, actual: 100.0 },
        TraceEvent::BatchDone { cycle: 151, gpm: 0, batch: 3, predicted: 0.25, actual: 2.0 },
        TraceEvent::BatchDone { cycle: 152, gpm: 2, batch: 4, predicted: 100.0, actual: 102.0 },
        TraceEvent::BatchDone { cycle: 153, gpm: 3, batch: 5, predicted: 100.0, actual: 140.0 },
        TraceEvent::Steal {
            cycle: 90,
            thief: 0,
            victim: 1,
            object: 7,
            triangles: 12,
            early: false,
        },
        TraceEvent::Steal { cycle: 95, thief: 3, victim: 0, object: 4, triangles: 6, early: true },
        TraceEvent::Migrate { cycle: 97, from: 1, to: 4, predicted: 77.5, reason: ODD_REASON },
        TraceEvent::PaRetry { cycle: 30, gpm: 2, attempt: 1 },
        TraceEvent::PaFallback { cycle: 31, gpm: 9, reason: "links down" },
        TraceEvent::Shed { cycle: 120, scale: 0.5, reason: "deadline" },
        TraceEvent::LinkWindow { start: 0, end: 64, from: 1, to: 0, bytes: 0, busy: 0.0, queue: 0 },
        TraceEvent::LinkWindow {
            start: 0,
            end: 128,
            from: 0,
            to: 1,
            bytes: 2048,
            busy: 32.0,
            queue: 4,
        },
        TraceEvent::LinkWindow {
            start: 128,
            end: 256,
            from: 2,
            to: 3,
            bytes: 1024,
            busy: 96.5,
            queue: 0,
        },
        TraceEvent::LinkWindow {
            start: 256,
            end: 384,
            from: 3,
            to: 2,
            bytes: 2048,
            busy: 8.0,
            queue: 1,
        },
        TraceEvent::DramWindow { start: 0, end: 128, gpm: 0, bytes: 8192, busy: 64.25, queue: 2 },
        TraceEvent::DramWindow { start: 0, end: 128, gpm: 7, bytes: 1, busy: 0.5, queue: 0 },
        TraceEvent::CacheWindow {
            gpm: 1,
            start: 0,
            end: 128,
            l1_accesses: 300,
            l1_hits: 200,
            l2_accesses: 100,
            l2_hits: 7,
        },
        TraceEvent::CacheWindow {
            gpm: 2,
            start: 0,
            end: 128,
            l1_accesses: 0,
            l1_hits: 0,
            l2_accesses: 0,
            l2_hits: 0,
        },
        TraceEvent::SessionAdmit { cycle: 0, session: 0, predicted: 45_000.0, active: 1 },
        TraceEvent::SessionReject {
            cycle: 10,
            session: 1,
            predicted: 45_000.5,
            reason: ODD_REASON,
        },
        TraceEvent::FrameStart { cycle: 100, session: 0, frame: 0, deadline: 11_111_211 },
        TraceEvent::FrameSpan { session: 0, frame: 0, start: 100, end: 45_100, scale: 0.8 },
        TraceEvent::FrameSpan { session: 1, frame: 0, start: 200, end: 150, scale: 1.0 },
        TraceEvent::FrameShed { cycle: 100, session: 0, frame: 0, scale: 0.8 },
        TraceEvent::FrameDrop { cycle: 12_000_001, session: 0, frame: 2, reason: "stale" },
        TraceEvent::DeadlineMiss { cycle: 12_000_000, session: 0, frame: 1, deadline: 11_111_211 },
        TraceEvent::DeadlineMiss { cycle: 12_000_500, session: 1, frame: 1, deadline: 11_111_211 },
        TraceEvent::DeadlineMiss { cycle: 12_000_500, session: 2, frame: 3, deadline: 11_111_211 },
        TraceEvent::TemporalReuse {
            cycle: 100,
            session: 0,
            frame: 1,
            reused: 37,
            rerendered: 3,
            saved: 250_000,
        },
        TraceEvent::ServerUp { cycle: 0, server: 0 },
        TraceEvent::ServerUp { cycle: 0, server: 6 },
        TraceEvent::ServerDown { cycle: 200_000, server: 1, reason: ODD_REASON },
        TraceEvent::SessionRoute { cycle: 10, session: 0, server: 1, attempt: 1 },
        TraceEvent::RouteRetry { cycle: 20, session: 1, attempt: 1, backoff: 123_456 },
        TraceEvent::SessionMigrate {
            cycle: 300_000,
            session: 0,
            from: 0,
            to: 5,
            reason: "overload",
        },
        TraceEvent::SessionFailover { cycle: 200_000, session: 0, from: 1, to: 0 },
        TraceEvent::ClusterFrame {
            cycle: 200_000,
            session: 1,
            server: 0,
            on_time: true,
            degraded: true,
        },
        TraceEvent::ClusterFrame {
            cycle: 200_000,
            session: 0,
            server: 1,
            on_time: false,
            degraded: false,
        },
        TraceEvent::ClusterFrame {
            cycle: 211_111,
            session: 0,
            server: 4,
            on_time: true,
            degraded: false,
        },
        TraceEvent::FrameSent { cycle: 50_000, session: 0, frame: 1, bytes: 240_000 },
        TraceEvent::FrameLost { cycle: 95_000, session: 0, frame: 2 },
        TraceEvent::FrameReprojected { cycle: 133_332, session: 0, frame: 2, age: 1 },
        TraceEvent::FrameStale { cycle: 177_776, session: 0, frame: 3, age: 5 },
        TraceEvent::FrameDelivered { cycle: 62_000, session: 0, frame: 1, latency: 12_000 },
        TraceEvent::FrameDelivered { cycle: 70_000, session: 1, frame: 1, latency: 9_000 },
        TraceEvent::FrameDelivered { cycle: 80_000, session: 2, frame: 2, latency: 12_000 },
    ]
}

/// First 16 hex digits of SHA-256 over `text`.
fn digest(text: &str) -> String {
    oovr_hash::hex_digest(text.as_bytes())[..16].to_string()
}

/// Byte-level pins of the three exporters over [`every_event`]. The traces
/// committed under `results/traces` never carry a shade-scale change, a
/// migration, a PA retry or fallback, a frame drop or stale frame, a refit,
/// an early steal or a ring overflow, so only this test pins those bytes.
#[test]
fn exporters_match_recorded_digests() {
    let events = every_event();
    let csv = csv_timeline(&events, 0);
    let kinds: std::collections::BTreeSet<&str> =
        csv.lines().skip(1).filter_map(|l| l.split(',').next()).collect();
    assert_eq!(kinds.len(), 35, "the slice must hold every TraceEvent variant: {kinds:?}");
    // Every prefix and suffix of the slice, so each digest section is
    // rendered both present and absent.
    let sections: String = (0..=events.len())
        .flat_map(|k| [&events[..k], &events[k..]])
        .map(|part| flight_digest(part, 0))
        .collect();
    let got = [
        ("chrome n2 dropped 0", digest(&chrome_trace(&events, 2, 0))),
        ("chrome n2 dropped 3", digest(&chrome_trace(&events, 2, 3))),
        ("chrome n4 dropped 0", digest(&chrome_trace(&events, 4, 0))),
        ("chrome n4 dropped 3", digest(&chrome_trace(&events, 4, 3))),
        ("csv dropped 0", digest(&csv)),
        ("csv dropped 3", digest(&csv_timeline(&events, 3))),
        ("digest dropped 0", digest(&flight_digest(&events, 0))),
        ("digest dropped 3", digest(&flight_digest(&events, 3))),
        ("digest sections", digest(&sections)),
    ];
    let want = [
        ("chrome n2 dropped 0", "c67055c9de937180"),
        ("chrome n2 dropped 3", "6f99b87896faeea7"),
        ("chrome n4 dropped 0", "17da39fec3172418"),
        ("chrome n4 dropped 3", "bf386f39326c90ab"),
        ("csv dropped 0", "33eab77909bebe35"),
        ("csv dropped 3", "b925ff165e90adb6"),
        ("digest dropped 0", "962094ed3cb9ab25"),
        ("digest dropped 3", "8ec4e103b23a89e3"),
        ("digest sections", "3f927459c3e77370"),
    ];
    assert_eq!(got.iter().map(|(name, d)| (*name, d.as_str())).collect::<Vec<_>>(), want);
    // The odd reason's comma is quoted, so every row keeps eight fields.
    for row in csv.lines() {
        assert_eq!(csv_fields(row), 8, "{row}");
    }
    for n_gpms in [2, 4] {
        let doc = oovr_trace::json::parse(&chrome_trace(&events, n_gpms, 3)).expect("parses");
        oovr_trace::json::validate_chrome_trace(&doc, n_gpms).expect("validates");
        // Each server the slice names is a process of its own after the
        // GPMs and the engine.
        let mut servers = Vec::new();
        for ev in doc.get("traceEvents").and_then(|v| v.as_array()).expect("events") {
            let name = ev.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str());
            if let Some(server) = name.and_then(|n| n.strip_prefix("Server ")) {
                let pid = ev.get("pid").and_then(|p| p.as_f64()).expect("pid");
                servers.push((server.parse::<usize>().expect("server id"), pid as usize));
            }
        }
        let want: Vec<_> = [0, 1, 4, 5, 6].iter().map(|&s| (s, n_gpms + 1 + s)).collect();
        assert_eq!(servers, want);
    }
}

/// Number of fields in one RFC 4180 CSV row without line breaks.
fn csv_fields(row: &str) -> usize {
    let mut quoted = false;
    1 + row
        .chars()
        .filter(|&c| {
            quoted ^= c == '"';
            c == ',' && !quoted
        })
        .count()
}
