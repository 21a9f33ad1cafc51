//! Admission control built on the paper's Eq. 3 rendering-time predictor.
//!
//! The distribution engine predicts a batch's total rendering time from its
//! triangle count alone (`t(X) = c0 · #triangle_X`, §5.2). The serving
//! layer reuses exactly that estimate one level up: a session's per-vsync
//! demand is the predicted rendering time of its steady-state frame, and a
//! new session is admitted only while the sum of predicted demands of all
//! live sessions — plus the newcomer — fits inside one vsync interval,
//! scaled by a headroom factor that reserves slack for cold-frame
//! transients and scheduling granularity.
//!
//! Calibration is honest to the paper's protocol: the coefficients are fit
//! from observed `(triangles, tv, pixels, cycles)` samples of the measured
//! cost stream ([`calibrate`]), not from oracle knowledge of future frames.

use oovr::predictor::{BatchSample, Coefficients};
use oovr_gpu::FrameReport;
use oovr_trace::Cycle;

/// Default fraction of a vsync interval the controller is willing to
/// promise to steady-state demand.
pub const DEFAULT_HEADROOM: f64 = 0.90;

/// Fits Eq. 3 coefficients from measured frame reports (one
/// [`BatchSample`] per report, whole-frame granularity).
///
/// # Panics
///
/// Panics if `reports` is empty.
pub fn calibrate(reports: &[&FrameReport]) -> Coefficients {
    calibrate_discounted(reports, 0)
}

/// Fits Eq. 3 coefficients for a temporal-reuse stream: every warm frame
/// (index ≥ 1) is costed at its measured cycles minus `warm_discount` —
/// the mean per-frame saving of pose-correlated reuse over a reference
/// trajectory — so admission prices sessions at their temporally-reused
/// demand rather than the full re-render cost. A discount of zero is
/// bit-identical to [`calibrate`].
///
/// # Panics
///
/// Panics if `reports` is empty.
pub fn calibrate_discounted(reports: &[&FrameReport], warm_discount: Cycle) -> Coefficients {
    let samples: Vec<BatchSample> = reports
        .iter()
        .enumerate()
        .map(|(i, r)| BatchSample {
            triangles: r.counts.triangles.max(1),
            tv: r.counts.vertices,
            pixels: r.counts.pixels_out,
            cycles: if i == 0 || warm_discount == 0 {
                r.frame_cycles
            } else {
                r.frame_cycles.saturating_sub(warm_discount).max(1)
            },
        })
        .collect();
    Coefficients::fit(&samples)
}

/// Outcome of one admission test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Session admitted; `active` is the number of live sessions after
    /// admission and `predicted` the session's per-vsync demand in cycles.
    Admitted {
        /// Live sessions including the newcomer.
        active: u32,
        /// Predicted steady-state cycles per vsync for this session.
        predicted: f64,
    },
    /// Session rejected; the aggregate predicted demand would overflow the
    /// headroom budget.
    Rejected {
        /// Predicted steady-state cycles per vsync for the rejected session.
        predicted: f64,
        /// Human-readable rejection reason (stable, used in traces).
        reason: &'static str,
    },
}

/// A headroom-clamped budget over live sessions: each admitted session
/// holds its demand until it departs. The Eq. 3 compute budget (one
/// vsync of cycles) and the edge tier's link byte budget (bytes per
/// cycle) are both instances.
#[derive(Debug, Clone)]
pub struct Budget {
    limit: f64,
    live: Vec<(Cycle, f64)>, // (departure, demand)
}

impl Budget {
    /// A budget of `capacity` scaled by a headroom fraction, clamped to
    /// `[0.05, 1]`.
    pub fn new(capacity: f64, headroom: f64) -> Self {
        Budget { limit: capacity * headroom.clamp(0.05, 1.0), live: Vec::new() }
    }

    /// Aggregate demand of sessions still live at `now`.
    pub fn load(&mut self, now: Cycle) -> f64 {
        self.live.retain(|&(departure, _)| departure > now);
        self.live.iter().map(|&(_, demand)| demand).sum()
    }

    /// Number of sessions still live at the last [`load`](Self::load) or
    /// [`fits`](Self::fits) call.
    pub fn active(&self) -> u32 {
        self.live.len() as u32
    }

    /// Whether `demand` more fits beside the sessions live at `now`.
    pub fn fits(&mut self, now: Cycle, demand: f64) -> bool {
        self.load(now) + demand <= self.limit
    }

    /// Holds `demand` until `departure`.
    pub fn hold(&mut self, departure: Cycle, demand: f64) {
        self.live.push((departure, demand));
    }
}

/// Eq. 3-based admission controller over one vsync budget.
pub struct AdmissionController {
    coeff: Coefficients,
    budget: Budget,
}

impl AdmissionController {
    /// Creates a controller for a vsync interval of `vsync` cycles with
    /// calibrated `coeff` and a headroom fraction in `(0, 1]`.
    pub fn new(coeff: Coefficients, vsync: Cycle, headroom: f64) -> Self {
        AdmissionController { coeff, budget: Budget::new(vsync as f64, headroom) }
    }

    /// The calibrated predictor.
    pub fn coefficients(&self) -> &Coefficients {
        &self.coeff
    }

    /// Predicted per-vsync demand (cycles) of a session whose steady frame
    /// carries `triangles`.
    pub fn predict(&self, triangles: u64) -> f64 {
        self.coeff.predict_total(triangles.max(1))
    }

    /// Aggregate predicted demand of sessions still live at `now`.
    pub fn load(&mut self, now: Cycle) -> f64 {
        self.budget.load(now)
    }

    /// Number of sessions still live at the last [`load`](Self::load) or
    /// [`offer`](Self::offer) call.
    pub fn active(&self) -> u32 {
        self.budget.active()
    }

    /// Tests a session arriving at `now` whose steady frame carries
    /// `triangles` and which, if admitted, departs at `departure`. Admits
    /// (registering the session) or rejects.
    pub fn offer(&mut self, now: Cycle, triangles: u64, departure: Cycle) -> AdmissionDecision {
        let predicted = self.predict(triangles);
        if self.budget.fits(now, predicted) {
            self.budget.hold(departure, predicted);
            AdmissionDecision::Admitted { active: self.budget.active(), predicted }
        } else {
            AdmissionDecision::Rejected { predicted, reason: "capacity" }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_coeff() -> Coefficients {
        // 100 cycles per triangle, exactly.
        Coefficients::fit(&[BatchSample { triangles: 10, tv: 10, pixels: 10, cycles: 1_000 }])
    }

    #[test]
    fn admits_until_the_headroom_budget_is_full() {
        // vsync 1000, headroom 1.0, each session predicts 100 cycles → 10 fit.
        let mut ac = AdmissionController::new(unit_coeff(), 1_000, 1.0);
        for i in 0..10 {
            match ac.offer(0, 1, 10_000) {
                AdmissionDecision::Admitted { active, .. } => assert_eq!(active, i + 1),
                other => panic!("session {i} unexpectedly rejected: {other:?}"),
            }
        }
        assert!(matches!(ac.offer(0, 1, 10_000), AdmissionDecision::Rejected { .. }));
    }

    #[test]
    fn headroom_reserves_slack() {
        let mut ac = AdmissionController::new(unit_coeff(), 1_000, 0.5);
        for _ in 0..5 {
            assert!(matches!(ac.offer(0, 1, 10_000), AdmissionDecision::Admitted { .. }));
        }
        assert!(matches!(ac.offer(0, 1, 10_000), AdmissionDecision::Rejected { .. }));
    }

    #[test]
    fn departed_sessions_free_their_budget() {
        let mut ac = AdmissionController::new(unit_coeff(), 1_000, 1.0);
        for _ in 0..10 {
            assert!(matches!(ac.offer(0, 1, 500), AdmissionDecision::Admitted { .. }));
        }
        assert!(matches!(ac.offer(100, 1, 2_000), AdmissionDecision::Rejected { .. }));
        // All ten depart at cycle 500; the controller has room again.
        assert!(matches!(ac.offer(600, 1, 2_000), AdmissionDecision::Admitted { .. }));
        assert_eq!(ac.active(), 1);
    }

    #[test]
    fn warm_discount_lowers_predicted_demand() {
        use oovr_gpu::GpuConfig;
        let spec = oovr_scene::benchmarks::hl2_640().scaled(0.05);
        let scene = oovr::cache::scene_for(&spec);
        let reports = oovr::schemes::OoVr::new().render_frames(&scene, &GpuConfig::default(), 3);
        let refs: Vec<&FrameReport> = reports.iter().collect();
        let plain = calibrate(&refs);
        let zero = calibrate_discounted(&refs, 0);
        let tris = reports[0].counts.triangles;
        assert_eq!(plain.predict_total(tris).to_bits(), zero.predict_total(tris).to_bits());
        let saved = reports.last().expect("non-empty").frame_cycles / 2;
        let cheap = calibrate_discounted(&refs, saved);
        assert!(cheap.predict_total(tris) < plain.predict_total(tris));
    }

    #[test]
    fn prediction_matches_single_sample_rate() {
        let ac = AdmissionController::new(unit_coeff(), 1_000, 1.0);
        assert!((ac.predict(10) - 1_000.0).abs() < 1e-9);
        assert!((ac.coefficients().predict_total(5) - 500.0).abs() < 1e-9);
    }
}
