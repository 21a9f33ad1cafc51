//! Deterministic flight-recorder tracing for the OO-VR reproduction.
//!
//! This crate is the observability substrate described in DESIGN.md §10: a
//! dependency-free event model plus a bounded ring-buffer recorder that the
//! simulator threads through its hot paths as an `Option` — when the option is
//! `None` the instrumented code performs a single branch and nothing else, so
//! the untraced simulation is bit-identical to a build without this crate.
//!
//! Two invariants govern everything here:
//!
//! 1. **Observers read, never perturb.** No API in this crate can mutate
//!    simulation state; events are plain-old-data snapshots.
//! 2. **Simulated cycles only.** Every timestamp is a simulated [`Cycle`];
//!    wall-clock time never enters an event, so two runs of the same
//!    configuration produce byte-identical exports.
//!
//! The exporters ([`export`]) turn a drained recorder into Chrome trace-event
//! JSON (Perfetto-loadable), a per-quantum CSV timeline, and a compact text
//! digest. [`json`] holds a hand-rolled JSON parser used by the CI smoke test
//! to validate the Chrome export without external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;

/// Simulated cycle count. Mirrors `oovr_mem::Cycle`; duplicated here so the
/// trace crate stays dependency-free and can sit below every other crate.
pub type Cycle = u64;

/// Pipeline phase a render unit occupies during a quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Command-processor work: fetching and decoding the draw command.
    Command,
    /// Geometry work: vertex fetch, transform, and primitive setup.
    Geometry,
    /// Fragment work: rasterization, texture sampling, and shading.
    Fragment,
}

impl Phase {
    /// Stable lowercase name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Command => "command",
            Phase::Geometry => "geometry",
            Phase::Fragment => "fragment",
        }
    }
}

/// A single trace event. Everything is plain data with simulated-cycle
/// timestamps; reasons are `&'static str` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A contiguous run of quanta one render unit spent in one pipeline phase
    /// on one GPM. Adjacent quanta in the same (gpm, object, phase) merge into
    /// a single span, so phase boundaries are exact span boundaries.
    PhaseSpan {
        /// GPM that executed the quanta.
        gpm: u32,
        /// Object id (`ObjectId.0`) the unit belongs to.
        object: u32,
        /// Pipeline phase covered by this span.
        phase: Phase,
        /// First cycle of the span.
        start: Cycle,
        /// Cycle at which the last quantum of the span retired.
        end: Cycle,
        /// Number of pipeline quanta merged into the span.
        quanta: u64,
        /// Cycles of the span spent stalled on memory (subset of `end-start`).
        stall: Cycle,
    },
    /// The end-of-frame composition pass (master-GPM gather or distributed
    /// exchange).
    CompositionSpan {
        /// Cycle composition started (frame makespan before compose).
        start: Cycle,
        /// Cycle composition finished.
        end: Cycle,
    },
    /// `Executor::set_shade_scale` changed the fragment shading rate.
    ShadeScale {
        /// Cycle of the change (current makespan).
        cycle: Cycle,
        /// New multiplier applied to fragment shading work.
        scale: f64,
    },
    /// The distribution engine pre-allocated (PA) an object's data onto a GPM
    /// ahead of its first access.
    PreAlloc {
        /// Cycle on the destination GPM when the transfer was charged.
        cycle: Cycle,
        /// Destination GPM.
        gpm: u32,
        /// Object whose data was placed.
        object: u32,
        /// Bytes moved or locally allocated.
        bytes: u64,
    },
    /// Eq. 3 coefficients were fitted (initial calibration or a drift re-fit).
    CalibrationFit {
        /// Engine-observed cycle of the fit (current makespan).
        cycle: Cycle,
        /// Fixed per-batch overhead coefficient.
        c0: f64,
        /// Geometry (per-triangle) coefficient.
        c1: f64,
        /// Fragment (per-pixel) coefficient.
        c2: f64,
        /// Number of samples the fit used.
        samples: u32,
        /// `false` for the initial calibration fit, `true` for drift re-fits.
        refit: bool,
    },
    /// The engine assigned a batch to a GPM.
    Assign {
        /// Cycle on the chosen GPM at assignment time.
        cycle: Cycle,
        /// Chosen GPM.
        gpm: u32,
        /// Batch index within the frame (calibration batches included).
        batch: u32,
        /// Triangles in the batch.
        triangles: u64,
        /// Eq. 3 predicted cycles for the batch.
        predicted: f64,
    },
    /// All units of a batch retired; predicted-vs-actual is now known.
    BatchDone {
        /// Cycle on the executing GPM when the last unit retired.
        cycle: Cycle,
        /// GPM that executed the batch.
        gpm: u32,
        /// Batch index within the frame.
        batch: u32,
        /// Eq. 3 predicted cycles at assignment time.
        predicted: f64,
        /// Actual busy cycles the batch consumed.
        actual: f64,
    },
    /// Fine-grained stealing moved a queued unit's object to an idle GPM.
    Steal {
        /// Cycle on the thief GPM.
        cycle: Cycle,
        /// GPM that took the work.
        thief: u32,
        /// GPM the work was taken from.
        victim: u32,
        /// Object whose remaining units moved.
        object: u32,
        /// Triangles still pending in the stolen unit's object.
        triangles: u64,
        /// `true` when the resilient early-steal threshold triggered it.
        early: bool,
    },
    /// The resilient engine migrated a queued batch between GPMs.
    Migrate {
        /// Cycle on the destination GPM.
        cycle: Cycle,
        /// Overloaded source GPM.
        from: u32,
        /// Destination GPM.
        to: u32,
        /// Predicted cycles of the migrated batch.
        predicted: f64,
        /// Why the engine moved it.
        reason: &'static str,
    },
    /// A PA probe failed and the engine backed off to retry.
    PaRetry {
        /// Cycle on the probing GPM.
        cycle: Cycle,
        /// GPM whose links were probed.
        gpm: u32,
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// PA gave up and fell back to remote access.
    PaFallback {
        /// Cycle on the falling-back GPM.
        cycle: Cycle,
        /// GPM that could not be reached.
        gpm: u32,
        /// Why PA was abandoned.
        reason: &'static str,
    },
    /// Deadline shedding reduced the fragment shade scale.
    Shed {
        /// Engine-observed cycle of the decision (current makespan).
        cycle: Cycle,
        /// Shade scale after shedding.
        scale: f64,
        /// Why the engine shed work.
        reason: &'static str,
    },
    /// One sampling window of a directed inter-GPM link's bandwidth server.
    LinkWindow {
        /// Window start cycle.
        start: Cycle,
        /// Window end cycle (the sample point).
        end: Cycle,
        /// Source GPM of the directed link.
        from: u32,
        /// Destination GPM of the directed link.
        to: u32,
        /// Bytes served during the window.
        bytes: u64,
        /// Cycles the server was busy during the window.
        busy: f64,
        /// Queue depth at the sample point: cycles until the server is free.
        queue: Cycle,
    },
    /// One sampling window of a GPM's local DRAM bandwidth server.
    DramWindow {
        /// Window start cycle.
        start: Cycle,
        /// Window end cycle (the sample point).
        end: Cycle,
        /// GPM whose DRAM this is.
        gpm: u32,
        /// Bytes served during the window.
        bytes: u64,
        /// Cycles the server was busy during the window.
        busy: f64,
        /// Queue depth at the sample point: cycles until the server is free.
        queue: Cycle,
    },
    /// One sampling window of a GPM's L1/L2 cache counters.
    CacheWindow {
        /// GPM whose caches were sampled.
        gpm: u32,
        /// Window start cycle.
        start: Cycle,
        /// Window end cycle (the sample point).
        end: Cycle,
        /// L1 accesses during the window.
        l1_accesses: u64,
        /// L1 hits during the window.
        l1_hits: u64,
        /// L2 accesses during the window.
        l2_accesses: u64,
        /// L2 hits during the window.
        l2_hits: u64,
    },
    /// The serving admission controller accepted a session (`oovr-serve`).
    SessionAdmit {
        /// Arrival cycle of the session.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Eq. 3 predicted steady-state cycles per vsync for this session.
        predicted: f64,
        /// Concurrently active sessions after admission (this one included).
        active: u32,
    },
    /// The serving admission controller rejected a session.
    SessionReject {
        /// Arrival cycle of the session.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Eq. 3 predicted steady-state cycles per vsync for this session.
        predicted: f64,
        /// Why admission refused it.
        reason: &'static str,
    },
    /// The frame scheduler started rendering one session frame.
    FrameStart {
        /// Service start cycle.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
        /// Vsync deadline the frame must meet.
        deadline: Cycle,
    },
    /// The full service interval of one session frame on the renderer.
    FrameSpan {
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
        /// Service start cycle.
        start: Cycle,
        /// Service completion cycle.
        end: Cycle,
        /// Shade scale the frame was served at (1.0 = full quality).
        scale: f64,
    },
    /// A session frame completed after its vsync deadline.
    DeadlineMiss {
        /// Completion cycle (after the deadline).
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
        /// The deadline that was missed.
        deadline: Cycle,
    },
    /// Serving backpressure shed a frame's shading work to make its deadline.
    FrameShed {
        /// Cycle of the shed decision (service start).
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
        /// Shade scale the frame was reduced to.
        scale: f64,
    },
    /// The scheduler dropped a stale frame without rendering it.
    FrameDrop {
        /// Cycle of the drop decision.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
        /// Why the frame was discarded.
        reason: &'static str,
    },
    /// The temporal-reuse layer decided one session frame's object set:
    /// how many objects were memoized (ATW-warped) versus re-rendered.
    TemporalReuse {
        /// Cycle of the decision (service start of the frame).
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
        /// Objects reused (charged the pixel warp only).
        reused: u32,
        /// Objects re-rendered at full cost.
        rerendered: u32,
        /// Critical-path cycles saved versus a full re-render.
        saved: Cycle,
    },
    /// A cluster server came (back) online at nominal or degraded rate.
    ServerUp {
        /// Cycle of the transition.
        cycle: Cycle,
        /// Server index within the cluster.
        server: u32,
    },
    /// A cluster server died (serving rate hit zero).
    ServerDown {
        /// Cycle of the transition.
        cycle: Cycle,
        /// Server index within the cluster.
        server: u32,
        /// Fault scenario that killed it.
        reason: &'static str,
    },
    /// The session router placed a session on a server.
    SessionRoute {
        /// Cycle of the placement.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Destination server index.
        server: u32,
        /// Admission attempt that succeeded (1 = first try).
        attempt: u32,
    },
    /// Admission failed on one server; the router backs off and retries.
    RouteRetry {
        /// Cycle of the failed attempt.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Attempt number that just failed (1 = first try).
        attempt: u32,
        /// Backoff before the next attempt, in cycles.
        backoff: Cycle,
    },
    /// The router migrated a live session off an overloaded/degraded server.
    SessionMigrate {
        /// Cycle of the migration.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Source server index.
        from: u32,
        /// Destination server index.
        to: u32,
        /// Why the session was moved.
        reason: &'static str,
    },
    /// The router failed a session over after its server died.
    SessionFailover {
        /// Cycle of the failover.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Dead source server index.
        from: u32,
        /// Destination server index.
        to: u32,
    },
    /// A cluster session's paced frame came due on its server: presented
    /// within its vsync (at full or degraded shade scale) or missed.
    ClusterFrame {
        /// Start cycle of the interval the frame was due in.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Server the session was resident on.
        server: u32,
        /// Whether the frame presented within its vsync.
        on_time: bool,
        /// Whether an on-time frame was served below full shade scale.
        degraded: bool,
    },
    /// The edge server finished encoding a frame and handed it to the link.
    FrameSent {
        /// Cycle the frame entered the link (encode completion).
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
        /// Encoded frame size in bytes.
        bytes: u64,
    },
    /// The client received a frame off the link intact.
    FrameDelivered {
        /// Cycle the last byte (plus propagation) arrived at the client.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
        /// Link transit time in cycles (queueing + serialization + propagation).
        latency: Cycle,
    },
    /// The link dropped a frame (loss window); it still consumed bandwidth.
    FrameLost {
        /// Cycle the loss was charged (encode completion).
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index within the session's paced stream.
        frame: u32,
    },
    /// The client missed a fresh frame and reprojected an older one via ATW.
    FrameReprojected {
        /// Vsync deadline the reprojection covered.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index that was covered by reprojection.
        frame: u32,
        /// Age of the reprojected source frame, in frames.
        age: u32,
    },
    /// No frame within the staleness cap was available: a hard client miss.
    FrameStale {
        /// Vsync deadline that went dark.
        cycle: Cycle,
        /// Session id.
        session: u32,
        /// Frame index that had nothing to show.
        frame: u32,
        /// Frames since the last delivered frame (> the staleness cap).
        age: u32,
    },
}

impl TraceEvent {
    /// The one description every exporter reads: the event's kind name (the
    /// CSV `kind` column, the digest's count key and, but for `pa`, `refit`
    /// and `early_steal`, the Chrome event name) and its `[start, end]`
    /// cycles. Instants start and end at their event cycle.
    pub fn stamp(&self) -> (&'static str, Cycle, Cycle) {
        use TraceEvent as E;
        match *self {
            E::PhaseSpan { start, end, .. } => ("phase_span", start, end),
            E::CompositionSpan { start, end } => ("composition", start, end),
            E::LinkWindow { start, end, .. } => ("link_window", start, end),
            E::DramWindow { start, end, .. } => ("dram_window", start, end),
            E::CacheWindow { start, end, .. } => ("cache_window", start, end),
            E::FrameSpan { start, end, .. } => ("frame_span", start, end),
            E::ShadeScale { cycle, .. } => ("shade_scale", cycle, cycle),
            E::PreAlloc { cycle, .. } => ("prealloc", cycle, cycle),
            E::CalibrationFit { cycle, .. } => ("calibration_fit", cycle, cycle),
            E::Assign { cycle, .. } => ("assign", cycle, cycle),
            E::BatchDone { cycle, .. } => ("batch_done", cycle, cycle),
            E::Steal { cycle, .. } => ("steal", cycle, cycle),
            E::Migrate { cycle, .. } => ("migrate", cycle, cycle),
            E::PaRetry { cycle, .. } => ("pa_retry", cycle, cycle),
            E::PaFallback { cycle, .. } => ("pa_fallback", cycle, cycle),
            E::Shed { cycle, .. } => ("shed", cycle, cycle),
            E::SessionAdmit { cycle, .. } => ("session_admit", cycle, cycle),
            E::SessionReject { cycle, .. } => ("session_reject", cycle, cycle),
            E::FrameStart { cycle, .. } => ("frame_start", cycle, cycle),
            E::DeadlineMiss { cycle, .. } => ("deadline_miss", cycle, cycle),
            E::FrameShed { cycle, .. } => ("frame_shed", cycle, cycle),
            E::FrameDrop { cycle, .. } => ("frame_drop", cycle, cycle),
            E::TemporalReuse { cycle, .. } => ("temporal_reuse", cycle, cycle),
            E::ServerUp { cycle, .. } => ("server_up", cycle, cycle),
            E::ServerDown { cycle, .. } => ("server_down", cycle, cycle),
            E::SessionRoute { cycle, .. } => ("session_route", cycle, cycle),
            E::RouteRetry { cycle, .. } => ("route_retry", cycle, cycle),
            E::SessionMigrate { cycle, .. } => ("session_migrate", cycle, cycle),
            E::SessionFailover { cycle, .. } => ("session_failover", cycle, cycle),
            E::ClusterFrame { cycle, .. } => ("cluster_frame", cycle, cycle),
            E::FrameSent { cycle, .. } => ("frame_sent", cycle, cycle),
            E::FrameDelivered { cycle, .. } => ("frame_delivered", cycle, cycle),
            E::FrameLost { cycle, .. } => ("frame_lost", cycle, cycle),
            E::FrameReprojected { cycle, .. } => ("frame_reprojected", cycle, cycle),
            E::FrameStale { cycle, .. } => ("frame_stale", cycle, cycle),
        }
    }

    /// Representative timestamp of the event: window end for the three
    /// `*Window` samples, [`stamp`](Self::stamp)'s start for everything
    /// else (span start, or the instant's cycle).
    pub fn cycle(&self) -> Cycle {
        let (_, start, end) = self.stamp();
        match self {
            TraceEvent::LinkWindow { .. }
            | TraceEvent::DramWindow { .. }
            | TraceEvent::CacheWindow { .. } => end,
            _ => start,
        }
    }
}

/// Configuration for a tracing session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events. When full, the oldest events are
    /// overwritten and counted in [`Recorder::dropped`].
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 20 }
    }
}

/// Bounded flight recorder: a ring buffer of [`TraceEvent`]s that overwrites
/// its oldest entries when full, so tracing an arbitrarily long run has a
/// fixed memory ceiling.
#[derive(Debug, Clone)]
pub struct Recorder {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the logical oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl Recorder {
    /// Create a recorder from a [`TraceConfig`]. Capacity is clamped to at
    /// least 1 so `record` is always well-defined.
    pub fn new(cfg: TraceConfig) -> Self {
        Recorder { buf: Vec::new(), capacity: cfg.capacity.max(1), head: 0, dropped: 0 }
    }

    /// Record one event, overwriting the oldest retained one when the ring
    /// is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events overwritten because the ring filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate retained events oldest-first (recording order).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, fresh) = self.buf.split_at(self.head);
        fresh.iter().chain(wrapped.iter())
    }

    /// Drain into a `Vec` in recording order (oldest retained event first).
    pub fn into_events(self) -> Vec<TraceEvent> {
        let mut buf = self.buf;
        buf.rotate_left(self.head);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(cycle: Cycle) -> TraceEvent {
        TraceEvent::ShadeScale { cycle, scale: 1.0 }
    }

    #[test]
    fn recorder_keeps_order_below_capacity() {
        let mut r = Recorder::new(TraceConfig { capacity: 8 });
        for c in 0..5 {
            r.record(instant(c));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<Cycle> = r.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recorder_overwrites_oldest_when_full() {
        let mut r = Recorder::new(TraceConfig { capacity: 4 });
        for c in 0..10 {
            r.record(instant(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let cycles: Vec<Cycle> = r.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        assert_eq!(
            r.into_events().iter().map(TraceEvent::cycle).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = Recorder::new(TraceConfig { capacity: 0 });
        r.record(instant(1));
        r.record(instant(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events().next().map(|e| e.cycle()), Some(2));
    }

    #[test]
    fn event_cycle_picks_representative_timestamp() {
        let span = TraceEvent::PhaseSpan {
            gpm: 0,
            object: 1,
            phase: Phase::Geometry,
            start: 100,
            end: 200,
            quanta: 3,
            stall: 10,
        };
        assert_eq!(span.cycle(), 100);
        assert_eq!(span.stamp(), ("phase_span", 100, 200));
        let win = TraceEvent::LinkWindow {
            start: 0,
            end: 4096,
            from: 0,
            to: 1,
            bytes: 64,
            busy: 1.0,
            queue: 0,
        };
        assert_eq!(win.cycle(), 4096);
        assert_eq!(win.stamp(), ("link_window", 0, 4096));
        assert_eq!(instant(7).stamp(), ("shade_scale", 7, 7));
        assert_eq!(Phase::Fragment.name(), "fragment");
    }
}
