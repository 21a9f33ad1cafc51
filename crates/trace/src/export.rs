//! Exporters: Chrome trace-event JSON, CSV timeline, and a text digest.
//!
//! All three exporters are pure functions from a drained event slice to a
//! `String`, and all formatting is deterministic — two identical event slices
//! always yield byte-identical output. Each reads an event's kind name and
//! cycles from [`TraceEvent::stamp`], so the three share one vocabulary.
//!
//! Chrome layout (Perfetto-loadable): one process (`pid`) per GPM plus one
//! `engine` process for distribution-engine decisions. Within a GPM process,
//! thread 0 (`pipeline`) holds the merged per-quantum phase spans and thread 1
//! (`events`) holds instant markers (PA placements, steals landing on that
//! GPM, PA retries/fallbacks). Link/DRAM/cache windows become Chrome counter
//! tracks on the destination GPM's process. Cluster-server events land on one
//! `Server n` process per server, after the GPMs and the engine. Within every
//! track, events are emitted sorted by timestamp, so per-track timestamps are
//! monotone.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use crate::{Cycle, Phase, TraceEvent};

/// A rendered Chrome event plus its sort key.
struct Entry {
    pid: u32,
    tid: u32,
    ts: Cycle,
    body: String,
}

fn esc(s: &str) -> String {
    // Track and arg names are ASCII identifiers we control; escape anyway so
    // the exporter is total.
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `s` as one CSV field (RFC 4180): quoted, inner quotes doubled, when it
/// holds a comma, a quote or a line break; as is otherwise.
fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

fn f(v: f64) -> String {
    // Fixed-precision float rendering keeps exports byte-stable and avoids
    // exponent notation, which some trace viewers mishandle.
    format!("{v:.4}")
}

fn span(pid: u32, tid: u32, name: &str, start: Cycle, end: Cycle, args: &str) -> Entry {
    let dur = end.saturating_sub(start);
    let body = format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{start},\"dur\":{dur},\"args\":{{{args}}}}}",
        esc(name)
    );
    Entry { pid, tid, ts: start, body }
}

fn instant(pid: u32, tid: u32, name: &str, ts: Cycle, args: &str) -> Entry {
    let body = format!(
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}",
        esc(name)
    );
    Entry { pid, tid, ts, body }
}

fn counter(pid: u32, name: &str, ts: Cycle, args: &str) -> Entry {
    let body = format!(
        "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"args\":{{{args}}}}}",
        esc(name)
    );
    Entry { pid, tid: 0, ts, body }
}

fn metadata(pid: u32, tid: Option<u32>, kind: &str, name: &str) -> String {
    let tid = tid.unwrap_or(0);
    format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":\"{}\"}}}}",
        esc(name)
    )
}

/// Thread ids inside a GPM process.
const TID_PIPELINE: u32 = 0;
const TID_EVENTS: u32 = 1;

/// First thread id used for per-session serving lanes on the engine process
/// (tids 0/1 are the scheduler and event tracks).
const TID_SESSION_BASE: u32 = 2;

/// Render events as Chrome trace-event JSON (`{"traceEvents":[...]}`).
///
/// `n_gpms` fixes the process layout: pids `0..n_gpms` are GPMs, pid
/// `n_gpms` is the distribution engine, and cluster server `s` is pid
/// `n_gpms + 1 + s`, named `Server s`, for each server the events name.
/// Events referencing GPMs outside that range are still emitted (clamped
/// onto the engine process) so the exporter is total over arbitrary event
/// slices.
///
/// `dropped` is the ring buffer's overflow counter
/// ([`Recorder::dropped`](crate::Recorder::dropped)): when non-zero, a
/// `trace_overflow` instant at cycle 0 on the engine's event track records
/// how many oldest events the export is missing. At zero the output is
/// byte-identical to what it was before the annotation existed.
pub fn chrome_trace(events: &[TraceEvent], n_gpms: usize, dropped: u64) -> String {
    let n = n_gpms as u32;
    let engine = n;
    let gpm_pid = |g: u32| if g < n { g } else { engine };
    let pid_of_server = |s: u32| (engine + 1).saturating_add(s);
    let mut servers = BTreeSet::new();
    let mut server_pid = |s: u32| {
        servers.insert(s);
        pid_of_server(s)
    };
    let mut entries: Vec<Entry> = Vec::with_capacity(events.len() + 1);
    if dropped > 0 {
        entries.push(instant(
            engine,
            TID_EVENTS,
            "trace_overflow",
            0,
            &format!("\"dropped\":{dropped}"),
        ));
    }
    for ev in events {
        let (kind, start, end) = ev.stamp();
        let (pid, tid, args) = match *ev {
            TraceEvent::PhaseSpan { gpm, object, phase, quanta, stall, .. } => {
                let args =
                    format!("\"object\":{object},\"quanta\":{quanta},\"stall_cycles\":{stall}");
                let name = format!("obj{object} {}", phase.name());
                entries.push(span(gpm_pid(gpm), TID_PIPELINE, &name, start, end, &args));
                continue;
            }
            TraceEvent::CompositionSpan { .. } => {
                entries.push(span(engine, TID_PIPELINE, kind, start, end, ""));
                continue;
            }
            TraceEvent::FrameSpan { session, frame, scale, .. } => {
                let args = format!("\"frame\":{frame},\"scale\":{}", f(scale));
                let (tid, name) = (TID_SESSION_BASE + session, format!("s{session} f{frame}"));
                entries.push(span(engine, tid, &name, start, end, &args));
                continue;
            }
            TraceEvent::LinkWindow { from, to, bytes, busy, queue, .. } => {
                let pid = gpm_pid(to);
                let track = |what: &str| format!("link {from}->{to} {what}");
                entries.push(counter(pid, &track("bytes"), end, &format!("\"bytes\":{bytes}")));
                let busy = format!("\"busy_cycles\":{}", f(busy));
                entries.push(counter(pid, &track("busy"), end, &busy));
                let queue = format!("\"queue_cycles\":{queue}");
                entries.push(counter(pid, &track("queue"), end, &queue));
                continue;
            }
            TraceEvent::DramWindow { gpm, bytes, busy, queue, .. } => {
                let pid = gpm_pid(gpm);
                entries.push(counter(pid, "dram bytes", end, &format!("\"bytes\":{bytes}")));
                let busy = format!("\"busy_cycles\":{}", f(busy));
                entries.push(counter(pid, "dram busy", end, &busy));
                entries.push(counter(pid, "dram queue", end, &format!("\"queue_cycles\":{queue}")));
                continue;
            }
            TraceEvent::CacheWindow { gpm, l1_accesses, l1_hits, l2_accesses, l2_hits, .. } => {
                let pid = gpm_pid(gpm);
                let l1 = if l1_accesses > 0 { l1_hits as f64 / l1_accesses as f64 } else { 0.0 };
                let l2 = if l2_accesses > 0 { l2_hits as f64 / l2_accesses as f64 } else { 0.0 };
                entries.push(counter(pid, "l1 hit rate", end, &format!("\"rate\":{}", f(l1))));
                entries.push(counter(pid, "l2 hit rate", end, &format!("\"rate\":{}", f(l2))));
                continue;
            }
            TraceEvent::ShadeScale { scale, .. } => {
                (engine, TID_PIPELINE, format!("\"scale\":{}", f(scale)))
            }
            TraceEvent::PreAlloc { gpm, object, bytes, .. } => {
                (gpm_pid(gpm), TID_EVENTS, format!("\"object\":{object},\"bytes\":{bytes}"))
            }
            TraceEvent::CalibrationFit { c0, c1, c2, samples, refit, .. } => {
                let args = format!(
                    "\"c0\":{},\"c1\":{},\"c2\":{},\"samples\":{samples},\"refit\":{refit}",
                    f(c0),
                    f(c1),
                    f(c2)
                );
                (engine, TID_PIPELINE, args)
            }
            TraceEvent::Assign { gpm, batch, triangles, predicted, .. } => {
                let args = format!(
                    "\"gpm\":{gpm},\"batch\":{batch},\"triangles\":{triangles},\"predicted_cycles\":{}",
                    f(predicted)
                );
                (engine, TID_PIPELINE, args)
            }
            TraceEvent::BatchDone { gpm, batch, predicted, actual, .. } => {
                let args = format!(
                    "\"gpm\":{gpm},\"batch\":{batch},\"predicted_cycles\":{},\"actual_cycles\":{}",
                    f(predicted),
                    f(actual)
                );
                (engine, TID_PIPELINE, args)
            }
            TraceEvent::Steal { thief, victim, object, triangles, early, .. } => {
                let args = format!(
                    "\"victim\":{victim},\"object\":{object},\"triangles\":{triangles},\"early\":{early}"
                );
                (gpm_pid(thief), TID_EVENTS, args)
            }
            TraceEvent::Migrate { from, to, predicted, reason, .. } => {
                let args = format!(
                    "\"from\":{from},\"to\":{to},\"predicted_cycles\":{},\"reason\":\"{}\"",
                    f(predicted),
                    esc(reason)
                );
                (engine, TID_PIPELINE, args)
            }
            TraceEvent::PaRetry { gpm, attempt, .. } => {
                (gpm_pid(gpm), TID_EVENTS, format!("\"attempt\":{attempt}"))
            }
            TraceEvent::PaFallback { gpm, reason, .. } => {
                (gpm_pid(gpm), TID_EVENTS, format!("\"reason\":\"{}\"", esc(reason)))
            }
            TraceEvent::Shed { scale, reason, .. } => {
                let args = format!("\"scale\":{},\"reason\":\"{}\"", f(scale), esc(reason));
                (engine, TID_PIPELINE, args)
            }
            TraceEvent::SessionAdmit { session, predicted, active, .. } => {
                let args = format!(
                    "\"session\":{session},\"predicted_cycles\":{},\"active\":{active}",
                    f(predicted)
                );
                (engine, TID_EVENTS, args)
            }
            TraceEvent::SessionReject { session, predicted, reason, .. } => {
                let args = format!(
                    "\"session\":{session},\"predicted_cycles\":{},\"reason\":\"{}\"",
                    f(predicted),
                    esc(reason)
                );
                (engine, TID_EVENTS, args)
            }
            TraceEvent::FrameStart { session, frame, deadline, .. } => {
                let args =
                    format!("\"session\":{session},\"frame\":{frame},\"deadline\":{deadline}");
                (engine, TID_PIPELINE, args)
            }
            TraceEvent::DeadlineMiss { session, frame, deadline, .. } => {
                let args =
                    format!("\"session\":{session},\"frame\":{frame},\"deadline\":{deadline}");
                (engine, TID_EVENTS, args)
            }
            TraceEvent::FrameShed { session, frame, scale, .. } => {
                let args =
                    format!("\"session\":{session},\"frame\":{frame},\"scale\":{}", f(scale));
                (engine, TID_EVENTS, args)
            }
            TraceEvent::FrameDrop { session, frame, reason, .. } => {
                let args = format!(
                    "\"session\":{session},\"frame\":{frame},\"reason\":\"{}\"",
                    esc(reason)
                );
                (engine, TID_EVENTS, args)
            }
            TraceEvent::TemporalReuse { session, frame, reused, rerendered, saved, .. } => {
                let args = format!(
                    "\"session\":{session},\"frame\":{frame},\"reused\":{reused},\
                     \"rerendered\":{rerendered},\"saved\":{saved}"
                );
                (engine, TID_EVENTS, args)
            }
            TraceEvent::ServerUp { server, .. } => {
                (server_pid(server), TID_EVENTS, format!("\"server\":{server}"))
            }
            TraceEvent::ServerDown { server, reason, .. } => {
                let args = format!("\"server\":{server},\"reason\":\"{}\"", esc(reason));
                (server_pid(server), TID_EVENTS, args)
            }
            TraceEvent::SessionRoute { session, server, attempt, .. } => (
                server_pid(server),
                TID_EVENTS,
                format!("\"session\":{session},\"attempt\":{attempt}"),
            ),
            TraceEvent::RouteRetry { session, attempt, backoff, .. } => {
                let args =
                    format!("\"session\":{session},\"attempt\":{attempt},\"backoff\":{backoff}");
                (engine, TID_EVENTS, args)
            }
            TraceEvent::SessionMigrate { session, from, to, reason, .. } => {
                let args =
                    format!("\"session\":{session},\"from\":{from},\"reason\":\"{}\"", esc(reason));
                (server_pid(to), TID_EVENTS, args)
            }
            TraceEvent::SessionFailover { session, from, to, .. } => {
                (server_pid(to), TID_EVENTS, format!("\"session\":{session},\"from\":{from}"))
            }
            TraceEvent::ClusterFrame { session, server, on_time, degraded, .. } => {
                let args =
                    format!("\"session\":{session},\"on_time\":{on_time},\"degraded\":{degraded}");
                (server_pid(server), TID_EVENTS, args)
            }
            TraceEvent::FrameSent { session, frame, bytes, .. } => (
                engine,
                TID_EVENTS,
                format!("\"session\":{session},\"frame\":{frame},\"bytes\":{bytes}"),
            ),
            TraceEvent::FrameDelivered { session, frame, latency, .. } => {
                let args = format!("\"session\":{session},\"frame\":{frame},\"latency\":{latency}");
                (engine, TID_EVENTS, args)
            }
            TraceEvent::FrameLost { session, frame, .. } => {
                (engine, TID_EVENTS, format!("\"session\":{session},\"frame\":{frame}"))
            }
            TraceEvent::FrameReprojected { session, frame, age, .. }
            | TraceEvent::FrameStale { session, frame, age, .. } => (
                engine,
                TID_EVENTS,
                format!("\"session\":{session},\"frame\":{frame},\"age\":{age}"),
            ),
        };
        let name = match *ev {
            TraceEvent::PreAlloc { .. } => "pa",
            TraceEvent::CalibrationFit { refit: true, .. } => "refit",
            TraceEvent::Steal { early: true, .. } => "early_steal",
            _ => kind,
        };
        entries.push(instant(pid, tid, name, start, &args));
    }
    // Stable sort: groups tracks and makes timestamps monotone within each
    // (pid, tid) track; ties keep recording order.
    entries.sort_by_key(|e| (e.pid, e.tid, e.ts));

    let mut out = String::with_capacity(entries.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&s);
        *first = false;
    };
    for g in 0..n {
        push(metadata(g, None, "process_name", &format!("GPM {g}")), &mut out, &mut first);
        push(metadata(g, Some(TID_PIPELINE), "thread_name", "pipeline"), &mut out, &mut first);
        push(metadata(g, Some(TID_EVENTS), "thread_name", "events"), &mut out, &mut first);
    }
    push(metadata(engine, None, "process_name", "engine"), &mut out, &mut first);
    push(metadata(engine, Some(TID_PIPELINE), "thread_name", "scheduler"), &mut out, &mut first);
    push(metadata(engine, Some(TID_EVENTS), "thread_name", "events"), &mut out, &mut first);
    for s in servers {
        let pid = pid_of_server(s);
        push(metadata(pid, None, "process_name", &format!("Server {s}")), &mut out, &mut first);
        push(metadata(pid, Some(TID_EVENTS), "thread_name", "events"), &mut out, &mut first);
    }
    for e in entries {
        push(e.body, &mut out, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

/// Render events as a flat CSV timeline in recording order.
///
/// Columns: `kind,start,end,gpm,id,label,a,b` where the first three are the
/// event's [`TraceEvent::stamp`] and `gpm`/`id`/`label`/`a`/`b` are
/// kind-specific (documented in DESIGN.md §10): e.g. a `phase_span` row uses
/// `id`=object, `label`=phase, `a`=quanta, `b`=stall cycles; an `assign` row
/// uses `id`=batch, `a`=triangles, `b`=predicted cycles. A reason that
/// holds a comma, a quote or a line break is quoted per RFC 4180, so every
/// row keeps its eight columns.
///
/// When the ring buffer overflowed (`dropped > 0`), the first data row is a
/// `trace_overflow` marker with `a`=dropped count, so downstream tooling can
/// tell a truncated timeline from a complete one. At zero the output is
/// byte-identical to what it was before the annotation existed.
pub fn csv_timeline(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::from("kind,start,end,gpm,id,label,a,b\n");
    if dropped > 0 {
        out.push_str(&format!("trace_overflow,0,0,,,oldest events lost,{dropped},\n"));
    }
    for ev in events {
        let (kind, start, end) = ev.stamp();
        let tail = match *ev {
            TraceEvent::PhaseSpan { gpm, object, phase, quanta, stall, .. } => {
                format!("{gpm},{object},{},{quanta},{stall}", phase.name())
            }
            TraceEvent::CompositionSpan { .. } => ",,,,".to_string(),
            TraceEvent::ShadeScale { scale, .. } => format!(",,,{},", f(scale)),
            TraceEvent::PreAlloc { gpm, object, bytes, .. } => format!("{gpm},{object},,{bytes},"),
            TraceEvent::CalibrationFit { c0, c1, c2, samples, refit, .. } => format!(
                ",{samples},{},{},{}",
                if refit { "refit" } else { "initial" },
                f(c0),
                f(c1 + c2)
            ),
            TraceEvent::Assign { gpm, batch, triangles, predicted, .. } => {
                format!("{gpm},{batch},,{triangles},{}", f(predicted))
            }
            TraceEvent::BatchDone { gpm, batch, predicted, actual, .. } => {
                format!("{gpm},{batch},,{},{}", f(predicted), f(actual))
            }
            TraceEvent::Steal { thief, victim, object, triangles, early, .. } => format!(
                "{thief},{object},{},{triangles},{victim}",
                if early { "early" } else { "idle" }
            ),
            TraceEvent::Migrate { from, to, predicted, reason, .. } => {
                format!("{to},{from},{},{},", csv_field(reason), f(predicted))
            }
            TraceEvent::PaRetry { gpm, attempt, .. } => format!("{gpm},{attempt},,,"),
            TraceEvent::PaFallback { gpm, reason, .. } => format!("{gpm},,{},,", csv_field(reason)),
            TraceEvent::Shed { scale, reason, .. } => {
                format!(",,{},{},", csv_field(reason), f(scale))
            }
            TraceEvent::LinkWindow { from, to, bytes, busy, queue, .. } => {
                format!("{to},{from},,{bytes},{}", f(busy + queue as f64))
            }
            TraceEvent::DramWindow { gpm, bytes, busy, queue, .. } => {
                format!("{gpm},,,{bytes},{}", f(busy + queue as f64))
            }
            TraceEvent::CacheWindow { gpm, l1_accesses, l1_hits, l2_accesses, l2_hits, .. } => {
                format!("{gpm},{l1_accesses},{l1_hits},{l2_accesses},{l2_hits}")
            }
            TraceEvent::SessionAdmit { session, predicted, active, .. } => {
                format!(",{session},,{active},{}", f(predicted))
            }
            TraceEvent::SessionReject { session, predicted, reason, .. } => {
                format!(",{session},{},,{}", csv_field(reason), f(predicted))
            }
            TraceEvent::FrameStart { session, frame, deadline, .. }
            | TraceEvent::DeadlineMiss { session, frame, deadline, .. } => {
                format!(",{session},,{frame},{deadline}")
            }
            TraceEvent::FrameSpan { session, frame, scale, .. }
            | TraceEvent::FrameShed { session, frame, scale, .. } => {
                format!(",{session},,{frame},{}", f(scale))
            }
            TraceEvent::FrameDrop { session, frame, reason, .. } => {
                format!(",{session},{},{frame},", csv_field(reason))
            }
            TraceEvent::TemporalReuse { session, frame, reused, rerendered, .. } => {
                format!(",{session},f{frame},{reused},{rerendered}")
            }
            TraceEvent::ServerUp { server, .. } => format!("{server},,,,"),
            TraceEvent::ServerDown { server, reason, .. } => {
                format!("{server},,{},,", csv_field(reason))
            }
            TraceEvent::SessionRoute { session, server, attempt, .. } => {
                format!("{server},{session},,{attempt},")
            }
            TraceEvent::RouteRetry { session, attempt, backoff, .. } => {
                format!(",{session},,{attempt},{backoff}")
            }
            TraceEvent::SessionMigrate { session, from, to, reason, .. } => {
                format!("{to},{session},{},{from},", csv_field(reason))
            }
            TraceEvent::SessionFailover { session, from, to, .. } => {
                format!("{to},{session},,{from},")
            }
            TraceEvent::ClusterFrame { session, server, on_time, degraded, .. } => {
                let outcome = match (on_time, degraded) {
                    (false, _) => "missed",
                    (true, true) => "degraded",
                    (true, false) => "on_time",
                };
                format!("{server},{session},{outcome},,")
            }
            TraceEvent::FrameSent { session, frame, bytes: b, .. }
            | TraceEvent::FrameDelivered { session, frame, latency: b, .. } => {
                format!(",{session},,{frame},{b}")
            }
            TraceEvent::FrameLost { session, frame, .. } => format!(",{session},,{frame},"),
            TraceEvent::FrameReprojected { session, frame, age, .. }
            | TraceEvent::FrameStale { session, frame, age, .. } => {
                format!(",{session},,{frame},{age}")
            }
        };
        out.push_str(&format!("{kind},{start},{end},{tail}\n"));
    }
    out
}

/// Render a compact human-readable flight-recorder digest: volume counters
/// (events per [`TraceEvent::stamp`] kind), the top memory-stall spans, the worst link window, and a prediction-error
/// histogram built from `BatchDone` events.
pub fn flight_digest(events: &[TraceEvent], dropped: u64) -> String {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut phase_busy = [0u64; 3];
    let mut phase_stall = [0u64; 3];
    let mut stalls: Vec<(Cycle, u32, u32, Phase)> = Vec::new();
    let mut worst_link: Option<(u64, u32, u32, Cycle, Cycle, f64)> = None;
    let mut rel_errors: Vec<f64> = Vec::new();
    let mut early_steals = 0u64;
    let mut refits = 0u64;
    let mut frame_durs: Vec<Cycle> = Vec::new();
    let (mut temporal_reused, mut temporal_rerendered, mut temporal_saved) = (0u64, 0u64, 0u64);
    let mut worst_lateness: Option<(Cycle, u32, u32)> = None;
    let (mut cluster_missed, mut cluster_degraded) = (0u64, 0u64);
    let mut worst_transit: Option<(Cycle, u32, u32)> = None;
    for ev in events {
        let (kind, start, end) = ev.stamp();
        *counts.entry(kind).or_default() += 1;
        match *ev {
            TraceEvent::PhaseSpan { gpm, object, phase, stall, .. } => {
                let p = phase as usize;
                phase_busy[p] += end.saturating_sub(start);
                phase_stall[p] += stall;
                if stall > 0 {
                    stalls.push((stall, gpm, object, phase));
                }
            }
            TraceEvent::LinkWindow { from, to, bytes, busy, .. }
                if worst_link.map(|(b, ..)| bytes > b).unwrap_or(bytes > 0) =>
            {
                worst_link = Some((bytes, from, to, start, end, busy));
            }
            TraceEvent::BatchDone { predicted, actual, .. } => {
                rel_errors.push((actual - predicted).abs() / predicted.max(1.0));
            }
            TraceEvent::Steal { early, .. } => early_steals += u64::from(early),
            TraceEvent::CalibrationFit { refit, .. } => refits += u64::from(refit),
            TraceEvent::FrameSpan { .. } => frame_durs.push(end.saturating_sub(start)),
            TraceEvent::TemporalReuse { reused, rerendered, saved, .. } => {
                temporal_reused += u64::from(reused);
                temporal_rerendered += u64::from(rerendered);
                temporal_saved += saved;
            }
            TraceEvent::DeadlineMiss { cycle, session, frame, deadline } => {
                let late = cycle.saturating_sub(deadline);
                if worst_lateness.map(|(l, ..)| late > l).unwrap_or(true) {
                    worst_lateness = Some((late, session, frame));
                }
            }
            TraceEvent::ClusterFrame { on_time, degraded, .. } => {
                cluster_missed += u64::from(!on_time);
                cluster_degraded += u64::from(degraded);
            }
            TraceEvent::FrameDelivered { latency, session, frame, .. }
                if worst_transit.map(|(l, ..)| latency > l).unwrap_or(true) =>
            {
                worst_transit = Some((latency, session, frame));
            }
            _ => {}
        }
    }
    let n = |kind: &str| counts.get(kind).copied().unwrap_or(0);
    let any = |kinds: &[&str]| kinds.iter().any(|&k| n(k) > 0);
    let mut out = String::new();
    out.push_str("OO-VR flight recorder digest\n");
    out.push_str("============================\n");
    out.push_str(&format!("events retained     : {}\n", events.len()));
    out.push_str(&format!("events dropped      : {dropped}\n"));
    if dropped > 0 {
        out.push_str(&format!(
            "  !! RING OVERFLOW: the oldest {dropped} events were evicted; every count \
             below is a lower bound over a suffix of the run\n"
        ));
    }
    out.push_str(&format!("phase spans         : {}\n", n("phase_span")));
    for (i, name) in ["command", "geometry", "fragment"].iter().enumerate() {
        out.push_str(&format!("  {name:<9} busy={} stall={}\n", phase_busy[i], phase_stall[i]));
    }
    let [pa, retries, fallbacks, steals, migrations, sheds] =
        ["prealloc", "pa_retry", "pa_fallback", "steal", "migrate", "shed"].map(n);
    out.push_str(&format!(
        "engine              : pa={pa} retries={retries} fallbacks={fallbacks} \
         steals={steals} (early={early_steals}) migrations={migrations} refits={refits} sheds={sheds}\n"
    ));
    // Serving-layer counters, printed only when any serve event is present so
    // single-frame render digests stay byte-identical to earlier releases.
    let serving = [
        "session_admit",
        "session_reject",
        "frame_span",
        "deadline_miss",
        "frame_shed",
        "frame_drop",
    ];
    if any(&serving) {
        let [admits, rejects, frames, misses, sheds, drops] = serving.map(n);
        out.push_str(&format!(
            "serving             : admits={admits} rejects={rejects} frames={frames} \
             misses={misses} sheds={sheds} drops={drops}\n"
        ));
        if let Some((late, session, frame)) = worst_lateness {
            out.push_str(&format!(
                "  worst miss        : session {session} frame {frame}, {late} cycles late\n"
            ));
        }
    }
    // Temporal-reuse counters, presence-gated for the same reason.
    let temporal_frames = n("temporal_reuse");
    if temporal_frames > 0 {
        out.push_str(&format!(
            "temporal            : frames={temporal_frames} reused={temporal_reused} \
             rerendered={temporal_rerendered} saved={temporal_saved}\n"
        ));
    }
    // Cluster-tier counters, presence-gated for the same reason.
    let cluster = [
        "server_up",
        "server_down",
        "session_route",
        "route_retry",
        "session_migrate",
        "session_failover",
    ];
    let cluster_frames = n("cluster_frame");
    if any(&cluster) || cluster_frames > 0 {
        let [ups, downs, routes, retries, migrations, failovers] = cluster.map(n);
        out.push_str(&format!(
            "cluster             : ups={ups} downs={downs} routes={routes} \
             retries={retries} migrations={migrations} failovers={failovers}\n"
        ));
        if cluster_frames > 0 {
            out.push_str(&format!(
                "  paced frames      : due={cluster_frames} missed={cluster_missed} \
                 degraded={cluster_degraded}\n"
            ));
        }
    }
    // Edge-tier counters, presence-gated for the same reason.
    let edge = ["frame_sent", "frame_delivered", "frame_lost", "frame_reprojected", "frame_stale"];
    if any(&edge) {
        let [sent, delivered, lost, reprojected, stale] = edge.map(n);
        out.push_str(&format!(
            "edge                : sent={sent} delivered={delivered} \
             lost={lost} reprojected={reprojected} stale={stale}\n"
        ));
        if let Some((latency, session, frame)) = worst_transit {
            out.push_str(&format!(
                "  worst transit     : session {session} frame {frame}, {latency} cycles on the link\n"
            ));
        }
    }
    // Metrics rollup of frame-span durations (exact nearest-rank, matching
    // the serve layer's QoS percentiles), presence-gated for the same reason.
    if !frame_durs.is_empty() {
        frame_durs.sort_unstable();
        let q = |p: f64| {
            let rank = ((p / 100.0) * frame_durs.len() as f64).ceil() as usize;
            frame_durs[rank.clamp(1, frame_durs.len()) - 1]
        };
        out.push_str(&format!(
            "metrics             : frame_span n={} p50={} p99={} max={} cycles\n",
            frame_durs.len(),
            q(50.0),
            q(99.0),
            frame_durs[frame_durs.len() - 1]
        ));
    }

    out.push_str("\ntop memory-stall spans\n");
    stalls.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    if stalls.is_empty() {
        out.push_str("  (none)\n");
    }
    for (stall, gpm, object, phase) in stalls.iter().take(5) {
        out.push_str(&format!("  gpm {gpm} obj {object} {}: {stall} stall cycles\n", phase.name()));
    }

    out.push_str("\nworst link window\n");
    match worst_link {
        Some((bytes, from, to, start, end, busy)) => {
            let width = end.saturating_sub(start).max(1) as f64;
            out.push_str(&format!(
                "  link {from}->{to} [{start}, {end}]: {bytes} bytes, busy {} ({} of window)\n",
                f(busy),
                f(busy / width)
            ));
        }
        None => out.push_str("  (no inter-GPM traffic sampled)\n"),
    }

    out.push_str("\nprediction-error histogram (|actual-predicted|/predicted)\n");
    if rel_errors.is_empty() {
        out.push_str("  (no tracked batches)\n");
    } else {
        let buckets = [(0.05, "< 5%"), (0.10, "<10%"), (0.25, "<25%"), (0.50, "<50%")];
        let mut counted = 0usize;
        let mut lo = 0.0f64;
        for (hi, label) in buckets {
            let c = rel_errors.iter().filter(|&&e| e >= lo && e < hi).count();
            out.push_str(&format!("  {label:<5}: {c}\n"));
            counted += c;
            lo = hi;
        }
        out.push_str(&format!("  >=50%: {}\n", rel_errors.len() - counted));
        let mean = rel_errors.iter().sum::<f64>() / rel_errors.len() as f64;
        let max = rel_errors.iter().cloned().fold(0.0f64, f64::max);
        out.push_str(&format!("  batches={} mean={} max={}\n", rel_errors.len(), f(mean), f(max)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
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
                stall: 5,
            },
            TraceEvent::Assign { cycle: 5, gpm: 1, batch: 2, triangles: 64, predicted: 120.0 },
            TraceEvent::BatchDone { cycle: 150, gpm: 1, batch: 2, predicted: 120.0, actual: 100.0 },
            TraceEvent::Steal {
                cycle: 90,
                thief: 0,
                victim: 1,
                object: 7,
                triangles: 12,
                early: false,
            },
            TraceEvent::PreAlloc { cycle: 20, gpm: 1, object: 7, bytes: 4096 },
            TraceEvent::LinkWindow {
                start: 0,
                end: 128,
                from: 0,
                to: 1,
                bytes: 2048,
                busy: 32.0,
                queue: 4,
            },
            TraceEvent::CompositionSpan { start: 160, end: 200 },
        ]
    }

    #[test]
    fn chrome_export_is_valid_and_monotone() {
        let out = chrome_trace(&sample_events(), 4, 0);
        let parsed = crate::json::parse(&out).expect("chrome export must parse");
        crate::json::validate_chrome_trace(&parsed, 4).expect("chrome export must validate");
    }

    #[test]
    fn chrome_export_is_deterministic() {
        let a = chrome_trace(&sample_events(), 4, 0);
        let b = chrome_trace(&sample_events(), 4, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn csv_has_one_row_per_event_plus_header() {
        let events = sample_events();
        let csv = csv_timeline(&events, 0);
        assert_eq!(csv.lines().count(), events.len() + 1);
        assert!(csv.starts_with("kind,start,end,gpm,id,label,a,b\n"));
        assert!(csv.contains("phase_span,10,40,0,3,geometry,2,5"));
        assert!(csv.contains("steal,90,90,0,7,idle,12,1"));
    }

    #[test]
    fn digest_reports_stalls_link_and_errors() {
        let d = flight_digest(&sample_events(), 3);
        assert!(d.contains("events dropped      : 3"));
        assert!(d.contains("gpm 1 obj 7 fragment: 30 stall cycles"));
        assert!(d.contains("link 0->1 [0, 128]: 2048 bytes"));
        assert!(d.contains("batches=1"));
        assert!(d.contains("steals=1"));
    }

    #[test]
    fn serve_events_export_in_all_three_formats() {
        let events = vec![
            TraceEvent::SessionAdmit { cycle: 0, session: 0, predicted: 45_000.0, active: 1 },
            TraceEvent::SessionReject {
                cycle: 10,
                session: 1,
                predicted: 45_000.0,
                reason: "over capacity",
            },
            TraceEvent::FrameStart { cycle: 100, session: 0, frame: 0, deadline: 11_111_211 },
            TraceEvent::FrameSpan { session: 0, frame: 0, start: 100, end: 45_100, scale: 0.8 },
            TraceEvent::FrameShed { cycle: 100, session: 0, frame: 0, scale: 0.8 },
            TraceEvent::DeadlineMiss {
                cycle: 12_000_000,
                session: 0,
                frame: 1,
                deadline: 11_111_211,
            },
            TraceEvent::FrameDrop { cycle: 12_000_001, session: 0, frame: 2, reason: "stale" },
        ];
        let json = chrome_trace(&events, 4, 0);
        let parsed = crate::json::parse(&json).expect("serve trace parses");
        let stats = crate::json::validate_chrome_trace(&parsed, 4).expect("serve trace validates");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.instants, 6);
        let csv = csv_timeline(&events, 0);
        assert!(csv.contains("session_admit,0,0,,0,,1,45000.0000"));
        assert!(csv.contains("frame_span,100,45100,,0,,0,0.8000"));
        assert!(csv.contains("frame_drop,12000001,12000001,,0,stale,2,"));
        let digest = flight_digest(&events, 0);
        assert!(digest.contains("admits=1 rejects=1 frames=1 misses=1 sheds=1 drops=1"));
        assert!(digest.contains("session 0 frame 1, 888789 cycles late"));
        // A digest without serve events must not mention the serving section.
        assert!(!flight_digest(&sample_events(), 0).contains("serving"));
    }

    #[test]
    fn cluster_events_export_in_all_three_formats() {
        let events = vec![
            TraceEvent::ServerUp { cycle: 0, server: 0 },
            TraceEvent::ServerUp { cycle: 0, server: 1 },
            TraceEvent::SessionRoute { cycle: 10, session: 0, server: 1, attempt: 1 },
            TraceEvent::RouteRetry { cycle: 20, session: 1, attempt: 1, backoff: 123_456 },
            TraceEvent::SessionRoute { cycle: 123_476, session: 1, server: 0, attempt: 2 },
            TraceEvent::ServerDown { cycle: 200_000, server: 1, reason: "link-down" },
            TraceEvent::SessionFailover { cycle: 200_000, session: 0, from: 1, to: 0 },
            TraceEvent::SessionMigrate {
                cycle: 300_000,
                session: 0,
                from: 0,
                to: 1,
                reason: "overload",
            },
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
        ];
        let json = chrome_trace(&events, 2, 0);
        let parsed = crate::json::parse(&json).expect("cluster trace parses");
        let stats = crate::json::validate_chrome_trace(&parsed, 2).expect("cluster validates");
        assert_eq!(stats.instants, 10);
        assert!(json.contains("\"on_time\":false"));
        let csv = csv_timeline(&events, 0);
        assert!(csv.contains("server_down,200000,200000,1,,link-down,,"));
        assert!(csv.contains("session_route,123476,123476,0,1,,2,"));
        assert!(csv.contains("route_retry,20,20,,1,,1,123456"));
        assert!(csv.contains("session_failover,200000,200000,0,0,,1,"));
        assert!(csv.contains("session_migrate,300000,300000,1,0,overload,0,"));
        assert!(csv.contains("cluster_frame,200000,200000,0,1,degraded,,"));
        assert!(csv.contains("cluster_frame,200000,200000,1,0,missed,,"));
        let digest = flight_digest(&events, 0);
        assert!(digest.contains("ups=2 downs=1 routes=2 retries=1 migrations=1 failovers=1"));
        assert!(digest.contains("paced frames      : due=2 missed=1 degraded=1"));
        // A digest without cluster events must not mention the cluster section.
        assert!(!flight_digest(&sample_events(), 0).contains("cluster"));
    }

    #[test]
    fn temporal_events_export_in_all_three_formats() {
        let events = vec![
            TraceEvent::TemporalReuse {
                cycle: 100,
                session: 0,
                frame: 1,
                reused: 37,
                rerendered: 3,
                saved: 250_000,
            },
            TraceEvent::TemporalReuse {
                cycle: 11_111_311,
                session: 0,
                frame: 2,
                reused: 40,
                rerendered: 0,
                saved: 300_000,
            },
        ];
        let json = chrome_trace(&events, 4, 0);
        let parsed = crate::json::parse(&json).expect("temporal trace parses");
        let stats = crate::json::validate_chrome_trace(&parsed, 4).expect("temporal validates");
        assert_eq!(stats.instants, 2);
        assert!(json.contains("\"reused\":37"));
        let csv = csv_timeline(&events, 0);
        assert!(csv.contains("temporal_reuse,100,100,,0,f1,37,3"));
        assert!(csv.contains("temporal_reuse,11111311,11111311,,0,f2,40,0"));
        let digest = flight_digest(&events, 0);
        assert!(digest.contains("frames=2 reused=77 rerendered=3 saved=550000"));
        // A digest without temporal events must not mention the section.
        assert!(!flight_digest(&sample_events(), 0).contains("temporal"));
    }

    #[test]
    fn edge_events_export_in_all_three_formats() {
        let events = vec![
            TraceEvent::FrameSent { cycle: 50_000, session: 0, frame: 1, bytes: 240_000 },
            TraceEvent::FrameDelivered { cycle: 62_000, session: 0, frame: 1, latency: 12_000 },
            TraceEvent::FrameSent { cycle: 95_000, session: 0, frame: 2, bytes: 240_000 },
            TraceEvent::FrameLost { cycle: 95_000, session: 0, frame: 2 },
            TraceEvent::FrameReprojected { cycle: 133_332, session: 0, frame: 2, age: 1 },
            TraceEvent::FrameStale { cycle: 177_776, session: 0, frame: 3, age: 5 },
        ];
        let json = chrome_trace(&events, 4, 0);
        let parsed = crate::json::parse(&json).expect("edge trace parses");
        let stats = crate::json::validate_chrome_trace(&parsed, 4).expect("edge trace validates");
        assert_eq!(stats.instants, 6);
        assert!(json.contains("\"latency\":12000"));
        let csv = csv_timeline(&events, 0);
        assert!(csv.contains("frame_sent,50000,50000,,0,,1,240000"));
        assert!(csv.contains("frame_delivered,62000,62000,,0,,1,12000"));
        assert!(csv.contains("frame_lost,95000,95000,,0,,2,"));
        assert!(csv.contains("frame_reprojected,133332,133332,,0,,2,1"));
        assert!(csv.contains("frame_stale,177776,177776,,0,,3,5"));
        let digest = flight_digest(&events, 0);
        assert!(digest.contains("sent=2 delivered=1 lost=1 reprojected=1 stale=1"));
        assert!(digest.contains("session 0 frame 1, 12000 cycles on the link"));
        // A digest without edge events must not mention the edge section.
        assert!(!flight_digest(&sample_events(), 0).contains("edge"));
    }

    #[test]
    fn overflow_annotation_appears_only_when_dropped() {
        let events = sample_events();
        let clean = chrome_trace(&events, 4, 0);
        let marked = chrome_trace(&events, 4, 7);
        assert!(!clean.contains("trace_overflow"));
        assert!(marked.contains("\"trace_overflow\""));
        assert!(marked.contains("\"dropped\":7"));
        let parsed = crate::json::parse(&marked).expect("annotated export parses");
        crate::json::validate_chrome_trace(&parsed, 4).expect("annotated export validates");
        let csv = csv_timeline(&events, 7);
        assert_eq!(csv.lines().nth(1), Some("trace_overflow,0,0,,,oldest events lost,7,"));
        assert!(!csv_timeline(&events, 0).contains("trace_overflow"));
        let digest = flight_digest(&events, 7);
        assert!(digest.contains("RING OVERFLOW"));
        assert!(!flight_digest(&events, 0).contains("RING OVERFLOW"));
    }

    #[test]
    fn digest_metrics_section_rolls_up_frame_spans() {
        let events = vec![
            TraceEvent::FrameSpan { session: 0, frame: 0, start: 0, end: 100, scale: 1.0 },
            TraceEvent::FrameSpan { session: 0, frame: 1, start: 100, end: 350, scale: 1.0 },
            TraceEvent::FrameSpan { session: 1, frame: 0, start: 0, end: 200, scale: 1.0 },
        ];
        let digest = flight_digest(&events, 0);
        assert!(digest.contains("metrics             : frame_span n=3 p50=200 p99=250 max=250"));
        // No frame spans, no metrics section.
        assert!(!flight_digest(&sample_events(), 0).contains("metrics"));
    }

    #[test]
    fn out_of_range_gpm_lands_on_engine_process() {
        let events = vec![TraceEvent::PreAlloc { cycle: 1, gpm: 99, object: 0, bytes: 1 }];
        let out = chrome_trace(&events, 4, 0);
        let parsed = crate::json::parse(&out).expect("parse");
        crate::json::validate_chrome_trace(&parsed, 4).expect("validate");
    }
}
