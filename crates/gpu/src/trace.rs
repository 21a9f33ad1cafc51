//! Executor-side tracing adapter.
//!
//! [`ExecTracer`] owns the flight recorder during a traced frame and holds
//! the bookkeeping that turns raw executor activity into `oovr-trace` events:
//! per-GPM open spans (adjacent quanta of the same object and phase merge so
//! phase boundaries are exact), and per-GPM sampling cursors over the
//! bandwidth servers and cache counters. Everything here observes simulation
//! state through shared references — tracing cannot perturb the simulation.

use oovr_mem::{Cycle, GpmId, MemorySystem, NumaTiming};
use oovr_trace::{Phase, Recorder, TraceConfig, TraceEvent};

/// Width of the bandwidth/cache sampling windows in simulated cycles.
const WINDOW_CYCLES: Cycle = 16_384;

/// An in-progress phase span on one GPM.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    object: u32,
    phase: Phase,
    start: Cycle,
    end: Cycle,
    quanta: u64,
    stall: Cycle,
}

impl OpenSpan {
    fn event(self, gpm: usize) -> TraceEvent {
        TraceEvent::PhaseSpan {
            gpm: gpm as u32,
            object: self.object,
            phase: self.phase,
            start: self.start,
            end: self.end,
            quanta: self.quanta,
            stall: self.stall,
        }
    }
}

/// Tracing state attached to an `Executor` while tracing is enabled.
#[derive(Debug)]
pub(crate) struct ExecTracer {
    rec: Recorder,
    n: usize,
    open: Vec<Option<OpenSpan>>,
    /// Next window boundary each GPM's clock must cross to trigger a sample.
    next_window: Vec<Cycle>,
    /// End cycle of each GPM's last emitted window (sample windows tile the
    /// timeline without gaps even when a clock jumps several widths at once).
    last_end: Vec<Cycle>,
    /// Last-seen `(served_bytes, busy_cycles)` per directed link (`n*n`).
    last_link: Vec<(u64, f64)>,
    /// Last-seen `(served_bytes, busy_cycles)` per GPM DRAM server.
    last_dram: Vec<(u64, f64)>,
    /// Last-seen `(accesses, hits)` per GPM L1.
    last_l1: Vec<(u64, u64)>,
    /// Last-seen `(accesses, hits)` per GPM L2.
    last_l2: Vec<(u64, u64)>,
}

impl ExecTracer {
    pub(crate) fn new(cfg: TraceConfig, n: usize) -> Self {
        ExecTracer {
            rec: Recorder::new(cfg),
            n,
            open: vec![None; n],
            next_window: vec![WINDOW_CYCLES; n],
            last_end: vec![0; n],
            last_link: vec![(0, 0.0); n * n],
            last_dram: vec![(0, 0.0); n],
            last_l1: vec![(0, 0); n],
            last_l2: vec![(0, 0); n],
        }
    }

    /// Direct access to the recorder (engine-side instant events).
    pub(crate) fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.rec
    }

    /// Record an event produced by the executor itself.
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        self.rec.record(ev);
    }

    /// Fold one executed quantum into the per-GPM open span, flushing the
    /// previous span when the (object, phase) changes.
    pub(crate) fn quantum(
        &mut self,
        g: usize,
        object: u32,
        phase: Phase,
        start: Cycle,
        end: Cycle,
        stall: Cycle,
    ) {
        match &mut self.open[g] {
            Some(sp) if sp.object == object && sp.phase == phase => {
                sp.end = end;
                sp.quanta += 1;
                sp.stall += stall;
            }
            slot => {
                if let Some(sp) = slot.take() {
                    self.rec.record(sp.event(g));
                }
                *slot = Some(OpenSpan { object, phase, start, end, quanta: 1, stall });
            }
        }
    }

    /// Emit bandwidth/cache windows for GPM `g` once its clock crosses the
    /// next window boundary. Windows are aligned to multiples of the window
    /// width; a clock that jumps several widths yields one (wider) window,
    /// so samples always tile the timeline.
    pub(crate) fn sample_windows(
        &mut self,
        g: usize,
        now: Cycle,
        fabric: &NumaTiming,
        mem: &MemorySystem,
    ) {
        if now < self.next_window[g] {
            return;
        }
        let end = now - (now % WINDOW_CYCLES);
        self.emit_windows(g, end, fabric, mem);
        self.next_window[g] = end + WINDOW_CYCLES;
    }

    fn emit_windows(&mut self, g: usize, end: Cycle, fabric: &NumaTiming, mem: &MemorySystem) {
        let start = self.last_end[g];
        if end <= start {
            return;
        }
        let gid = GpmId(g as u8);
        let dram = fabric.dram(gid);
        let (b0, u0) = self.last_dram[g];
        let (b1, u1) = (dram.served_bytes(), dram.busy_cycles());
        if b1 != b0 || u1 != u0 {
            self.rec.record(TraceEvent::DramWindow {
                start,
                end,
                gpm: g as u32,
                bytes: b1 - b0,
                busy: u1 - u0,
                queue: dram.queue_depth_at(end),
            });
        }
        self.last_dram[g] = (b1, u1);
        for f in 0..self.n {
            if f == g {
                continue;
            }
            let srv = fabric.link(GpmId(f as u8), gid);
            let slot = f * self.n + g;
            let (b0, u0) = self.last_link[slot];
            let (b1, u1) = (srv.served_bytes(), srv.busy_cycles());
            if b1 != b0 || u1 != u0 {
                self.rec.record(TraceEvent::LinkWindow {
                    start,
                    end,
                    from: f as u32,
                    to: g as u32,
                    bytes: b1 - b0,
                    busy: u1 - u0,
                    queue: srv.queue_depth_at(end),
                });
            }
            self.last_link[slot] = (b1, u1);
        }
        let s1 = mem.l1_stats(gid);
        let s2 = mem.l2_stats(gid);
        let (a0, h0) = self.last_l1[g];
        let (a2, h2) = self.last_l2[g];
        if s1.accesses != a0 || s2.accesses != a2 {
            self.rec.record(TraceEvent::CacheWindow {
                gpm: g as u32,
                start,
                end,
                l1_accesses: s1.accesses - a0,
                l1_hits: s1.hits - h0,
                l2_accesses: s2.accesses - a2,
                l2_hits: s2.hits - h2,
            });
        }
        self.last_l1[g] = (s1.accesses, s1.hits);
        self.last_l2[g] = (s2.accesses, s2.hits);
        self.last_end[g] = end;
    }

    /// Flush all open spans and emit one final partial window per GPM up to
    /// the frame-complete cycle.
    pub(crate) fn finalize(&mut self, end: Cycle, fabric: &NumaTiming, mem: &MemorySystem) {
        for g in 0..self.n {
            if let Some(sp) = self.open[g].take() {
                self.rec.record(sp.event(g));
            }
        }
        for g in 0..self.n {
            self.emit_windows(g, end, fabric, mem);
        }
    }

    /// Hand the recorder to the caller once the frame is finished.
    pub(crate) fn into_recorder(self) -> Recorder {
        self.rec
    }
}
