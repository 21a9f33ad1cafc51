//! Declarative service-level objectives with error budgets and
//! multi-window burn rates.
//!
//! An [`Slo`] binds a named objective to registry metrics. Two shapes
//! exist:
//!
//! * [`Objective::BadFraction`] — the ratio of a "bad" counter to a
//!   "total" counter must stay at or below `target` (e.g. missed-vsync
//!   rate <= 5%). The error budget is the target itself; *budget
//!   consumed* is `achieved / target`, so 1.0 means the budget is exactly
//!   exhausted. Burn rates are the same ratio evaluated over two
//!   alignments of the counter time series: the *fast* window (the last
//!   [`FAST_WINDOWS`] vsync intervals) catches an active incident, the
//!   *slow* window (the whole run) catches a slow bleed. A burn rate of
//!   `B` means the budget would be exhausted in `1/B` of the evaluation
//!   window.
//! * [`Objective::QuantileAtMost`] — a histogram quantile must stay at or
//!   below `target` cycles (e.g. release-to-retire p99 motion-to-photon
//!   latency <= one vsync). Histograms carry no window series, so both
//!   burn rates equal the budget consumption.
//!
//! Evaluation is per label (per server, per session class) plus an
//! aggregate `*` row folding every label together, in deterministic order.

use crate::{Hist, Registry};

/// Number of trailing vsync intervals in the fast burn-rate window.
pub const FAST_WINDOWS: u64 = 8;

/// The measurable shape of an objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// `counter(bad) / counter(total)` must stay `<= target`.
    BadFraction {
        /// Counter of bad events (misses, sheds, ...).
        bad: &'static str,
        /// Counter of all events the bad ones are drawn from.
        total: &'static str,
    },
    /// `hist.quantile(p)` must stay `<= target` (target in cycles).
    QuantileAtMost {
        /// Histogram the quantile is read from.
        hist: &'static str,
        /// Percentile in 0..=100 (e.g. 99.0).
        p: f64,
    },
}

/// A declarative service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Stable objective name (reported verbatim).
    pub name: &'static str,
    /// What is measured.
    pub objective: Objective,
    /// The budget: maximum allowed bad fraction, or maximum cycles.
    pub target: f64,
}

/// One evaluated (objective, label) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEval {
    /// Objective name.
    pub slo: &'static str,
    /// Label the row covers (`*` = aggregate across all labels).
    pub label: String,
    /// Measured value: bad fraction or quantile cycles.
    pub achieved: f64,
    /// The objective's budget.
    pub target: f64,
    /// `achieved / target`; `> 1.0` means the error budget is exhausted.
    pub budget_consumed: f64,
    /// Burn rate over the last [`FAST_WINDOWS`] vsync intervals.
    pub burn_fast: f64,
    /// Burn rate over the whole run.
    pub burn_slow: f64,
    /// True while the budget is not exhausted.
    pub healthy: bool,
}

fn fraction(bad: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        bad as f64 / total as f64
    }
}

fn eval_fraction(
    slo: &Slo,
    label: &str,
    bad: u64,
    total: u64,
    bad_fast: u64,
    total_fast: u64,
) -> SloEval {
    let achieved = fraction(bad, total);
    let budget_consumed = achieved / slo.target;
    SloEval {
        slo: slo.name,
        label: label.to_owned(),
        achieved,
        target: slo.target,
        budget_consumed,
        burn_fast: fraction(bad_fast, total_fast) / slo.target,
        burn_slow: budget_consumed,
        healthy: budget_consumed <= 1.0,
    }
}

fn eval_quantile(slo: &Slo, label: &str, h: &Hist, p: f64) -> SloEval {
    let achieved = h.quantile(p) as f64;
    let budget_consumed = achieved / slo.target;
    SloEval {
        slo: slo.name,
        label: label.to_owned(),
        achieved,
        target: slo.target,
        budget_consumed,
        burn_fast: budget_consumed,
        burn_slow: budget_consumed,
        healthy: budget_consumed <= 1.0,
    }
}

/// Evaluate every objective against the registry: one row per label the
/// underlying metric carries, plus a `*` aggregate row, in deterministic
/// order. An objective whose metrics were never touched evaluates as
/// healthy with zero budget consumed (one `*` row).
pub fn evaluate(reg: &Registry, slos: &[Slo]) -> Vec<SloEval> {
    let fast_from = (reg.horizon_window() + 1).saturating_sub(FAST_WINDOWS);
    let mut out = Vec::new();
    for slo in slos {
        match slo.objective {
            Objective::BadFraction { bad, total } => {
                let labels = reg.counter_labels(total);
                let (mut ab, mut at, mut abf, mut atf) = (0, 0, 0, 0);
                let per: Vec<SloEval> = labels
                    .iter()
                    .map(|l| {
                        let b = reg.counter(bad, l);
                        let t = reg.counter(total, l);
                        let bf = reg.counter_since(bad, l, fast_from);
                        let tf = reg.counter_since(total, l, fast_from);
                        ab += b;
                        at += t;
                        abf += bf;
                        atf += tf;
                        eval_fraction(slo, l, b, t, bf, tf)
                    })
                    .collect();
                out.push(eval_fraction(slo, "*", ab, at, abf, atf));
                // Per-label rows only when labels are in use (a single
                // unlabelled series would duplicate the aggregate).
                if labels != [""] {
                    out.extend(per);
                }
            }
            Objective::QuantileAtMost { hist, p } => {
                let labels = reg.hist_labels(hist);
                let mut agg = Hist::default();
                let per: Vec<SloEval> = labels
                    .iter()
                    .filter_map(|l| reg.hist(hist, l).map(|h| (l, h)))
                    .map(|(l, h)| {
                        agg.merge(h);
                        eval_quantile(slo, l, h, p)
                    })
                    .collect();
                out.push(eval_quantile(slo, "*", &agg, p));
                if labels != [""] {
                    out.extend(per);
                }
            }
        }
    }
    out
}

/// The aggregate (`*`) rows of an evaluation.
fn aggregate(rows: &[SloEval]) -> impl Iterator<Item = &SloEval> {
    rows.iter().filter(|e| e.label == "*")
}

/// Whether every aggregate (`*`) row of `rows` holds its budget.
pub fn healthy(rows: &[SloEval]) -> bool {
    aggregate(rows).all(|e| e.healthy)
}

/// Largest aggregate budget consumption in `rows` (0 when there is none).
pub fn worst_budget(rows: &[SloEval]) -> f64 {
    aggregate(rows).map(|e| e.budget_consumed).fold(0.0, f64::max)
}

/// Aggregate achieved value of `slo` in `rows` (0 if absent).
pub fn achieved(rows: &[SloEval], slo: &str) -> f64 {
    aggregate(rows).find(|e| e.slo == slo).map_or(0.0, |e| e.achieved)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MISS: Slo = Slo {
        name: "missed-vsync-rate",
        objective: Objective::BadFraction { bad: "frames_missed", total: "frames_total" },
        target: 0.05,
    };

    #[test]
    fn budget_consumption_and_burn_rates() {
        let mut r = Registry::new(100);
        // 100 frames, 2 missed, all in window 0 (outside any fast window
        // once the horizon moves past FAST_WINDOWS).
        for i in 0..100u64 {
            r.inc("frames_total", "srv0", i, 1);
        }
        r.inc("frames_missed", "srv0", 0, 2);
        // Push the horizon far past the misses.
        r.inc("frames_total", "srv0", 100 * FAST_WINDOWS * 100, 1);
        let evals = evaluate(&r, &[MISS]);
        let agg = &evals[0];
        assert_eq!(agg.label, "*");
        assert!(agg.healthy);
        assert!((agg.achieved - 2.0 / 101.0).abs() < 1e-12);
        assert!(agg.burn_slow > 0.0);
        // The fast window only sees the final clean frame.
        assert_eq!(agg.burn_fast, 0.0);
    }

    #[test]
    fn exhausted_budget_reports_unhealthy_per_label() {
        let mut r = Registry::new(100);
        for i in 0..10u64 {
            r.inc("frames_total", "srv0", i, 1);
            r.inc("frames_total", "srv1", i, 1);
        }
        r.inc("frames_missed", "srv1", 5, 4);
        let evals = evaluate(&r, &[MISS]);
        assert_eq!(evals.len(), 3);
        assert!(!evals[0].healthy, "aggregate busts the 5% budget");
        assert!(evals[1].healthy, "srv0 is clean");
        assert!(!evals[2].healthy, "srv1 busts the budget");
        assert!(evals[2].budget_consumed > 1.0);
    }

    #[test]
    fn quantile_objective_reads_histogram() {
        let slo = Slo {
            name: "p99-latency",
            objective: Objective::QuantileAtMost { hist: "frame_latency_cycles", p: 99.0 },
            target: 1000.0,
        };
        let mut r = Registry::new(100);
        for _ in 0..99 {
            r.observe("frame_latency_cycles", "", 0, 300);
        }
        let ok = evaluate(&r, &[slo]);
        assert!(ok[0].healthy);
        for _ in 0..5 {
            r.observe("frame_latency_cycles", "", 0, 4_000);
        }
        let bad = evaluate(&r, &[slo]);
        assert!(!bad[0].healthy, "p99 now lands on the 4000-cycle samples");
    }

    #[test]
    fn untouched_metrics_evaluate_healthy() {
        let r = Registry::new(100);
        let evals = evaluate(&r, &[MISS]);
        assert_eq!(evals.len(), 1);
        assert!(evals[0].healthy);
        assert_eq!(evals[0].budget_consumed, 0.0);
    }
}
