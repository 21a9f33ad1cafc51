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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use oovr::predictor::{BatchSample, Coefficients};
use oovr_gpu::FrameReport;
use oovr_trace::Cycle;

/// Default fraction of a vsync interval admission is willing to
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

/// A headroom-clamped budget over live sessions that all charge the same
/// `demand`: each admitted session holds it until it departs. The Eq. 3
/// compute budget (one vsync of cycles, charged the predicted steady
/// demand) and the edge tier's link byte budget (bytes per cycle, charged
/// one session's steady byte rate) are both instances.
///
/// An offer costs O(log live): departures sit in a min-heap and are
/// popped once they pass, and the load of `k` live sessions is looked up
/// in `sums`, the in-order `f64` fold of `k` copies of `demand` — the
/// exact bits a retain-and-sum over the live sessions would produce.
/// (`k as f64 * demand` rounds differently, so the table stays.)
#[derive(Debug, Clone)]
pub struct Budget {
    limit: f64,
    demand: f64,
    departures: BinaryHeap<Reverse<Cycle>>,
    sums: Vec<f64>, // sums[k]: k-fold sum of `demand`; longer than `departures`
}

impl Budget {
    /// A budget of `capacity` scaled by a headroom fraction, clamped to
    /// `[0.05, 1]`, whose sessions each charge `demand`.
    pub fn new(capacity: f64, headroom: f64, demand: f64) -> Self {
        Budget {
            limit: capacity * headroom.clamp(0.05, 1.0),
            demand,
            departures: BinaryHeap::new(),
            sums: vec![std::iter::empty::<f64>().sum()],
        }
    }

    /// What each session charges against the budget.
    pub fn demand(&self) -> f64 {
        self.demand
    }

    /// Aggregate demand of sessions still live at `now`.
    pub fn load(&mut self, now: Cycle) -> f64 {
        while self.departures.peek().is_some_and(|&Reverse(departure)| departure <= now) {
            self.departures.pop();
        }
        self.sums[self.departures.len()]
    }

    /// Number of sessions still live at the last [`load`](Self::load) or
    /// [`fits`](Self::fits) call, plus those held since.
    pub fn active(&self) -> u32 {
        self.departures.len() as u32
    }

    /// Whether one more session fits beside those live at `now`.
    pub fn fits(&mut self, now: Cycle) -> bool {
        self.load(now) + self.demand <= self.limit
    }

    /// Holds one session's demand until `departure`.
    pub fn hold(&mut self, departure: Cycle) {
        self.departures.push(Reverse(departure));
        if self.sums.len() == self.departures.len() {
            let top = self.sums[self.sums.len() - 1];
            self.sums.push(top + self.demand);
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

    /// The compute budget `schedule` builds: one vsync of 1000 cycles,
    /// each session predicted at one triangle's cost (100 cycles).
    fn unit_budget(headroom: f64) -> Budget {
        Budget::new(1_000.0, headroom, unit_coeff().predict_total(1))
    }

    #[test]
    fn admits_until_the_headroom_budget_is_full() {
        // vsync 1000, headroom 1.0, each session predicts 100 cycles → 10 fit.
        let mut b = unit_budget(1.0);
        for i in 0..10 {
            assert!(b.fits(0), "session {i} unexpectedly rejected");
            b.hold(10_000);
            assert_eq!(b.active(), i + 1);
        }
        assert!(!b.fits(0));
    }

    #[test]
    fn headroom_reserves_slack() {
        let mut b = unit_budget(0.5);
        for _ in 0..5 {
            assert!(b.fits(0));
            b.hold(10_000);
        }
        assert!(!b.fits(0));
    }

    #[test]
    fn departed_sessions_free_their_budget() {
        let mut b = unit_budget(1.0);
        for _ in 0..10 {
            assert!(b.fits(0));
            b.hold(500);
        }
        assert!(!b.fits(100));
        // All ten depart at cycle 500; the budget has room again.
        assert!(b.fits(600));
        b.hold(2_000);
        assert_eq!(b.active(), 1);
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
        let coeff = unit_coeff();
        let b = Budget::new(1_000.0, 1.0, coeff.predict_total(10));
        assert!((b.demand() - 1_000.0).abs() < 1e-9);
        assert!((coeff.predict_total(5) - 500.0).abs() < 1e-9);
    }
}
