//! Deterministic metrics plane for the OO-VR reproduction.
//!
//! This crate is the aggregation counterpart of `oovr-trace`: where the
//! flight recorder answers "what happened inside one frame," the registry
//! here answers "how is the fleet doing" — counters, gauges, and
//! log2-bucketed histograms, all keyed by *simulated* cycles and bucketed
//! into per-vsync-interval time-series windows. The same two invariants
//! that govern tracing govern metering:
//!
//! 1. **Observers read, never perturb.** Nothing in this crate can mutate
//!    simulation state, and the simulation loops carry no registry:
//!    metering is a post-run fold. Each serving tier has one `meter`
//!    function (`oovr_serve::meter_serve`, `oovr_serve::meter_cluster`,
//!    `oovr_edge::meter_edge`) that folds a finished run's outcome and
//!    event vector into a [`Registry`], so a metered run is bit-identical
//!    to an unmetered one (pinned by proptest in `tests/prop_metrics.rs`).
//! 2. **Simulated cycles only.** Wall-clock time never enters the registry,
//!    so two runs of the same configuration export byte-identical metrics.
//!
//! On top of the registry sits [`slo`]: declarative objectives (missed-vsync
//! rate, p99 motion-to-photon latency, shed-time fraction) with error
//! budgets and multi-window burn rates, and [`export`]: Prometheus text
//! exposition plus a per-window CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod slo;

use std::collections::BTreeMap;
use std::fmt;

pub use hist::Hist;
pub use oovr_trace::Cycle;

/// Series of one kind keyed by a static metric name, then a free-form
/// label (server index, session class, pipeline phase, ...). The empty
/// label is the unlabelled series. Two levels, so touching an existing
/// series allocates nothing; `BTreeMap` keying makes every iteration
/// order — `(name, label)` — and therefore every export deterministic.
type Series<V> = BTreeMap<&'static str, BTreeMap<String, V>>;

/// Applies `f` to the series `name{label}`, inserted as `V::default()` if
/// absent. Only an insert allocates the label.
fn update<V: Default>(
    series: &mut Series<V>,
    name: &'static str,
    label: &str,
    f: impl FnOnce(&mut V),
) {
    let labels = series.entry(name).or_default();
    match labels.get_mut(label) {
        Some(v) => f(v),
        None => f(labels.entry(label.to_owned()).or_default()),
    }
}

/// Every series as `(name, label, value)`, in `(name, label)` order.
fn flatten<V>(series: &Series<V>) -> impl Iterator<Item = (&'static str, &str, &V)> {
    series.iter().flat_map(|(n, labels)| labels.iter().map(move |(l, v)| (*n, l.as_str(), v)))
}

/// A monotonically increasing counter with a per-window time series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counter {
    total: u64,
    /// Sparse per-vsync-window increments, keyed by window index.
    windows: BTreeMap<u64, u64>,
}

/// Deterministic metrics registry.
///
/// All mutation is keyed by a simulated [`Cycle`] timestamp; the registry
/// slots each increment into the vsync interval (`cycle / window_cycles`)
/// it occurred in, building the time series the SLO burn-rate evaluation
/// reads. Counters, windows and histograms are sums, so the order of
/// calls does not matter: folding a run's facts after it finishes builds
/// the same registry as recording them as they happen. Creation
/// allocates nothing until the first metric is touched.
#[derive(Clone, Default, PartialEq)]
pub struct Registry {
    window_cycles: Cycle,
    counters: Series<Counter>,
    gauges: Series<f64>,
    hists: Series<Hist>,
    horizon_window: u64,
}

/// Prints each series map as one map keyed by `(name, label)` pairs: the
/// format of a registry keyed by flat pairs, which recorded digests hash.
impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Flat<'a, V>(&'a Series<V>);
        impl<V: fmt::Debug> fmt::Debug for Flat<'_, V> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(flatten(self.0).map(|(n, l, v)| ((n, l), v))).finish()
            }
        }
        f.debug_struct("Registry")
            .field("window_cycles", &self.window_cycles)
            .field("counters", &Flat(&self.counters))
            .field("gauges", &Flat(&self.gauges))
            .field("hists", &Flat(&self.hists))
            .field("horizon_window", &self.horizon_window)
            .finish()
    }
}

impl Registry {
    /// A registry whose time-series windows are `window_cycles` long —
    /// pass the vsync interval so windows line up with scheduler quanta.
    /// A zero length is clamped to one cycle.
    pub fn new(window_cycles: Cycle) -> Self {
        Registry { window_cycles: window_cycles.max(1), ..Registry::default() }
    }

    /// The configured window length in cycles.
    pub fn window_cycles(&self) -> Cycle {
        self.window_cycles
    }

    /// Window index a cycle timestamp falls into.
    pub fn window_of(&self, now: Cycle) -> u64 {
        now / self.window_cycles.max(1)
    }

    /// Highest window index any increment has landed in.
    pub fn horizon_window(&self) -> u64 {
        self.horizon_window
    }

    /// True when no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Increment counter `name{label}` by `by` at simulated cycle `now`.
    pub fn inc(&mut self, name: &'static str, label: &str, now: Cycle, by: u64) {
        let w = self.window_of(now);
        self.horizon_window = self.horizon_window.max(w);
        update(&mut self.counters, name, label, |c| {
            c.total += by;
            *c.windows.entry(w).or_insert(0) += by;
        });
    }

    /// Set gauge `name{label}` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, label: &str, value: f64) {
        update(&mut self.gauges, name, label, |g| *g = value);
    }

    /// Record `value` into the log2 histogram `name{label}` at cycle `now`.
    pub fn observe(&mut self, name: &'static str, label: &str, now: Cycle, value: u64) {
        let w = self.window_of(now);
        self.horizon_window = self.horizon_window.max(w);
        update(&mut self.hists, name, label, |h| h.observe(value));
    }

    /// Current total of counter `name{label}` (0 when untouched).
    pub fn counter(&self, name: &'static str, label: &str) -> u64 {
        self.counters.get(name).and_then(|l| l.get(label)).map_or(0, |c| c.total)
    }

    /// Sum of counter `name` across every label.
    pub fn counter_sum(&self, name: &'static str) -> u64 {
        self.counters.get(name).map_or(0, |l| l.values().map(|c| c.total).sum())
    }

    /// Counter total accumulated in windows `>= from_window`.
    pub fn counter_since(&self, name: &'static str, label: &str, from_window: u64) -> u64 {
        self.counters
            .get(name)
            .and_then(|l| l.get(label))
            .map_or(0, |c| c.windows.range(from_window..).map(|(_, v)| v).sum())
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &'static str, label: &str) -> Option<f64> {
        self.gauges.get(name).and_then(|l| l.get(label)).copied()
    }

    /// Histogram for `name{label}`, if any sample landed in it.
    pub fn hist(&self, name: &'static str, label: &str) -> Option<&Hist> {
        self.hists.get(name).and_then(|l| l.get(label))
    }

    /// All labels present on counter `name`, in deterministic order.
    pub fn counter_labels(&self, name: &'static str) -> Vec<&str> {
        self.counters.get(name).map_or_else(Vec::new, |l| l.keys().map(String::as_str).collect())
    }

    /// All labels present on histogram `name`, in deterministic order.
    pub fn hist_labels(&self, name: &'static str) -> Vec<&str> {
        self.hists.get(name).map_or_else(Vec::new, |l| l.keys().map(String::as_str).collect())
    }

    /// Iterate every counter as `(name, label, total)`.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, &str, u64)> {
        flatten(&self.counters).map(|(n, l, c)| (n, l, c.total))
    }

    /// Iterate every counter's window series as `(name, label, window, value)`.
    pub fn counter_windows(&self) -> impl Iterator<Item = (&'static str, &str, u64, u64)> {
        flatten(&self.counters)
            .flat_map(|(n, l, c)| c.windows.iter().map(move |(w, v)| (n, l, *w, *v)))
    }

    /// Iterate every gauge as `(name, label, value)`.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &str, f64)> {
        flatten(&self.gauges).map(|(n, l, v)| (n, l, *v))
    }

    /// Iterate every histogram as `(name, label, hist)`.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &str, &Hist)> {
        flatten(&self.hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_window() {
        let mut r = Registry::new(100);
        r.inc("frames_total", "srv0", 10, 1);
        r.inc("frames_total", "srv0", 150, 2);
        r.inc("frames_total", "srv1", 250, 4);
        assert_eq!(r.counter("frames_total", "srv0"), 3);
        assert_eq!(r.counter_sum("frames_total"), 7);
        assert_eq!(r.counter_since("frames_total", "srv0", 1), 2);
        assert_eq!(r.horizon_window(), 2);
        assert_eq!(r.counter_labels("frames_total"), vec!["srv0", "srv1"]);
    }

    #[test]
    fn gauges_and_hists_are_retrievable() {
        let mut r = Registry::new(1_000);
        r.set_gauge("min_scale", "", 0.5);
        r.set_gauge("min_scale", "", 0.25);
        r.observe("frame_latency_cycles", "", 0, 7);
        assert_eq!(r.gauge("min_scale", ""), Some(0.25));
        assert_eq!(r.hist("frame_latency_cycles", "").unwrap().count(), 1);
        assert!(r.gauge("min_scale", "srv0").is_none());
    }

    #[test]
    fn zero_window_is_clamped() {
        let mut r = Registry::new(0);
        r.inc("x", "", 5, 1);
        assert_eq!(r.window_of(5), 5);
    }
}
