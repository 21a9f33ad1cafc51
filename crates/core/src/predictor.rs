//! The rendering-time predictor of the runtime distribution engine (§5.2).
//!
//! The paper replaces Wimmer & Wonka's full model (Eq. 2) with a simple
//! linear memorization-based estimate (Eq. 3):
//!
//! ```text
//! t(X) = c0 · #triangle_X = c1 · #tv_X + c2 · #pixel_X
//! ```
//!
//! The engine calibrates `c0, c1, c2` from the first 8 batches (which are
//! distributed round-robin), then tracks two counters per GPM — predicted
//! *total* time of everything assigned, and *elapsed* time accumulated from
//! the runtime `#tv`/`#pixel` counters — and predicts the earliest-available
//! GPM by comparing the two.

/// Number of calibration batches distributed round-robin before the
/// predictor takes over (the paper's "first 8 batches").
pub const CALIBRATION_BATCHES: usize = 8;

/// One completed batch observation used for calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSample {
    /// Triangles in the batch (known before rendering, from the OO app).
    pub triangles: u64,
    /// Transformed vertices counted during rendering.
    pub tv: u64,
    /// Pixels rendered.
    pub pixels: u64,
    /// Cycles the batch took.
    pub cycles: u64,
}

/// Calibrated Eq. 3 coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Cycles per triangle (total-time estimate).
    pub c0: f64,
    /// Cycles per transformed vertex (elapsed-time term).
    pub c1: f64,
    /// Cycles per rendered pixel (elapsed-time term).
    pub c2: f64,
}

impl Coefficients {
    /// Fits coefficients from calibration samples.
    ///
    /// `c0` is the aggregate cycles-per-triangle rate. `c1`/`c2` solve the
    /// 2×2 least-squares system `cycles ≈ c1·tv + c2·pixels`; a singular
    /// system falls back to splitting the observed rate evenly between the
    /// two terms.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit(samples: &[BatchSample]) -> Self {
        match Self::try_fit(samples) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`fit`](Self::fit): reports an empty sample set
    /// as [`OovrError::EmptyCalibration`](crate::error::OovrError) instead
    /// of panicking.
    pub fn try_fit(samples: &[BatchSample]) -> Result<Self, crate::error::OovrError> {
        if samples.is_empty() {
            return Err(crate::error::OovrError::EmptyCalibration);
        }
        let tot_cycles: f64 = samples.iter().map(|s| s.cycles as f64).sum();
        let tot_tris: f64 = samples.iter().map(|s| s.triangles as f64).sum();
        let c0 = tot_cycles / tot_tris.max(1.0);

        let (mut a11, mut a12, mut a22, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for s in samples {
            let tv = s.tv as f64;
            let px = s.pixels as f64;
            let cy = s.cycles as f64;
            a11 += tv * tv;
            a12 += tv * px;
            a22 += px * px;
            b1 += tv * cy;
            b2 += px * cy;
        }
        let det = a11 * a22 - a12 * a12;
        let (c1, c2) = if det.abs() > 1e-6 * a11.max(a22).max(1.0) {
            (((b1 * a22 - b2 * a12) / det), ((b2 * a11 - b1 * a12) / det))
        } else {
            let tot_tv: f64 = samples.iter().map(|s| s.tv as f64).sum();
            let tot_px: f64 = samples.iter().map(|s| s.pixels as f64).sum();
            (0.5 * tot_cycles / tot_tv.max(1.0), 0.5 * tot_cycles / tot_px.max(1.0))
        };
        // Negative coefficients can fall out of ill-conditioned fits; clamp
        // to zero (the hardware would do the same with unsigned rates).
        Ok(Coefficients { c0, c1: c1.max(0.0), c2: c2.max(0.0) })
    }

    /// Predicted total rendering time of a batch with `triangles` (Eq. 3
    /// left side).
    pub fn predict_total(&self, triangles: u64) -> f64 {
        self.c0 * triangles as f64
    }

    /// Elapsed-time estimate from counter deltas (Eq. 3 right side).
    pub fn elapsed(&self, tv: u64, pixels: u64) -> f64 {
        self.c1 * tv as f64 + self.c2 * pixels as f64
    }
}

/// The per-GPM counter pair of the distribution engine: predicted total
/// cycles of assigned work vs. elapsed cycles estimated from runtime
/// counters. The hardware cost of these counters is accounted in
/// [`crate::overhead`].
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    totals: Vec<f64>,
    /// Counter snapshots (#tv, #pixel) at calibration end per GPM.
    baselines: Vec<(u64, u64)>,
}

impl EngineCounters {
    /// Creates counters for `n` GPMs with the given post-calibration
    /// counter baselines.
    pub fn new(baselines: Vec<(u64, u64)>) -> Self {
        EngineCounters { totals: vec![0.0; baselines.len()], baselines }
    }

    /// Records the assignment of a batch predicted to take `cycles`.
    pub fn assign(&mut self, gpm: usize, cycles: f64) {
        self.totals[gpm] += cycles;
    }

    /// Predicted remaining cycles on `gpm`, given its current counters.
    pub fn remaining(&self, gpm: usize, coeff: &Coefficients, tv: u64, pixels: u64) -> f64 {
        let (tv0, px0) = self.baselines[gpm];
        let elapsed = coeff.elapsed(tv.saturating_sub(tv0), pixels.saturating_sub(px0));
        (self.totals[gpm] - elapsed).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<BatchSample> {
        // cycles = 2·tv + 0.5·pixels exactly.
        vec![
            BatchSample { triangles: 100, tv: 60, pixels: 1000, cycles: 620 },
            BatchSample { triangles: 200, tv: 120, pixels: 1500, cycles: 990 },
            BatchSample { triangles: 50, tv: 30, pixels: 4000, cycles: 2060 },
            BatchSample { triangles: 400, tv: 250, pixels: 200, cycles: 600 },
        ]
    }

    #[test]
    fn fit_recovers_exact_linear_model() {
        let c = Coefficients::fit(&samples());
        assert!((c.c1 - 2.0).abs() < 1e-6, "c1 = {}", c.c1);
        assert!((c.c2 - 0.5).abs() < 1e-6, "c2 = {}", c.c2);
        assert!(c.c0 > 0.0);
    }

    #[test]
    fn fit_handles_degenerate_samples() {
        let s = vec![BatchSample { triangles: 10, tv: 0, pixels: 0, cycles: 100 }];
        let c = Coefficients::fit(&s);
        assert_eq!(c.predict_total(20), 200.0);
        assert!(c.c1 >= 0.0 && c.c2 >= 0.0);
    }

    #[test]
    #[should_panic(expected = "calibration sample")]
    fn fit_rejects_empty() {
        let _ = Coefficients::fit(&[]);
    }

    #[test]
    fn try_fit_reports_empty_samples() {
        use crate::error::OovrError;
        assert_eq!(Coefficients::try_fit(&[]), Err(OovrError::EmptyCalibration));
        assert_eq!(Coefficients::try_fit(&samples()), Ok(Coefficients::fit(&samples())));
    }

    #[test]
    fn earliest_available_tracks_remaining_work() {
        let coeff = Coefficients { c0: 1.0, c1: 1.0, c2: 0.0 };
        let mut eng = EngineCounters::new(vec![(0, 0); 2]);
        eng.assign(0, 1000.0);
        eng.assign(1, 1000.0);
        // GPM1 has transformed more vertices → less remaining.
        assert!(eng.remaining(1, &coeff, 800, 0) < eng.remaining(0, &coeff, 100, 0));
        assert_eq!(eng.remaining(1, &coeff, 800, 0), 200.0);
        // Remaining never goes negative.
        assert_eq!(eng.remaining(1, &coeff, 5000, 0), 0.0);
    }

    #[test]
    fn prediction_is_linear_in_triangles() {
        let c = Coefficients { c0: 2.5, c1: 0.0, c2: 0.0 };
        assert_eq!(c.predict_total(0), 0.0);
        assert_eq!(c.predict_total(100), 250.0);
        assert_eq!(c.predict_total(200), 2.0 * c.predict_total(100));
    }

    #[test]
    fn assignment_accumulates_remaining() {
        let coeff = Coefficients { c0: 1.0, c1: 1.0, c2: 1.0 };
        let mut eng = EngineCounters::new(vec![(0, 0); 3]);
        eng.assign(2, 500.0);
        eng.assign(2, 300.0);
        assert_eq!(eng.remaining(2, &coeff, 0, 0), 800.0);
        // Un-assigned GPMs show zero remaining.
        assert_eq!(eng.remaining(0, &coeff, 0, 0), 0.0);
        assert_eq!(eng.remaining(1, &coeff, 0, 0), 0.0);
    }

    #[test]
    fn baselines_offset_counters() {
        let coeff = Coefficients { c0: 1.0, c1: 1.0, c2: 1.0 };
        let eng = EngineCounters::new(vec![(100, 100)]);
        // Counters below baseline contribute nothing.
        assert_eq!(eng.remaining(0, &coeff, 50, 50), 0.0);
    }
}
