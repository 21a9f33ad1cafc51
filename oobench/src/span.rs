//! In-memory spans around each layer's public entry points.
//!
//! The benchmark wraps the calls it makes into a layer (`Executor::new`,
//! `build_batches`, `run_distribution`, `simulate`, ...) in a named span.
//! Spans are leaves, so a span's self time is its duration; what an op
//! spends outside every span is glue the benchmark itself adds.
//! Summaries are kept per span name, plus the span time of the current op
//! so the caller can check that spans account for the op's host time.

use std::collections::BTreeMap;

use crate::stats::CpuTimer;

/// Accumulated time and calls of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    /// Times the span was entered.
    pub calls: u64,
    /// Summed duration in CPU nanoseconds.
    pub ns: u64,
}

impl SpanTotal {
    /// Mean seconds per call (0 when never entered).
    pub fn mean_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e9
        }
    }
}

/// The span recorder of one traced run.
#[derive(Debug, Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, SpanTotal>,
    op_ns: u64,
}

impl Spans {
    /// Runs `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = CpuTimer::start();
        let out = f();
        let ns = (start.secs() * 1e9) as u64;
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.ns += ns;
        self.op_ns += ns;
        out
    }

    /// Span nanoseconds recorded since the last call, then resets the
    /// counter (called once per op).
    pub fn take_op_ns(&mut self) -> u64 {
        std::mem::take(&mut self.op_ns)
    }

    /// The totals of span `name` (zero when never entered).
    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every span name with its totals, in name order.
    pub fn totals(&self) -> impl Iterator<Item = (&'static str, SpanTotal)> + '_ {
        self.totals.iter().map(|(k, v)| (*k, *v))
    }
}

/// Runs `f` inside span `name` when a recorder is attached; otherwise
/// calls it directly.
pub fn span<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}
