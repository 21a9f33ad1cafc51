//! The object-aware runtime batch distribution engine (§5.2, Fig. 13).
//!
//! The engine replaces the master–slave software distribution of
//! conventional object-level SFR with a hardware micro-controller that:
//!
//! 1. distributes the first [`CALIBRATION_BATCHES`] round-robin under the
//!    baseline First-Touch mapping and uses their measured times to fit the
//!    Eq. 3 coefficients ([`Coefficients::fit`]),
//! 2. thereafter assigns each batch to the GPM predicted to become
//!    available first (two counters per GPM: predicted-total vs. elapsed),
//! 3. lets the PA units *pre-allocate* the batch's pages to the chosen GPM
//!    so the data copy overlaps rendering, and
//! 4. when all batches are assigned and some GPMs idle, splits leftover
//!    large batches' triangles across idle GPMs (fine-grained stealing),
//!    with the PA units duplicating the required data.
//!
//! # Resilience
//!
//! With [`ResilienceConfig::enabled`] the engine additionally defends the
//! frame against degraded links and throttled GPMs (injected via
//! [`oovr_gpu::FaultPlan`]):
//!
//! * **drift re-calibration** — each completed batch's actual cycles are
//!   compared against its prediction; repeated large relative errors
//!   re-fit the Eq. 3 coefficients on a sliding window of recent samples,
//! * **per-GPM rate factors** — an EWMA of actual/predicted per batch
//!   scales each GPM's predicted-remaining counter, steering new
//!   assignments away from throttled or link-degraded GPMs,
//! * **early stealing** — a GPM whose weighted backlog is a small fraction
//!   of the worst GPM's may steal split work *before* going fully idle,
//! * **PA retry + remote fallback** — pre-allocation to a GPM whose links
//!   are down retries reachability with exponential backoff and falls back
//!   to remote rendering (data stays put) if the links never come back,
//! * **deadline shedding** — when the predicted frame finish exceeds the
//!   VR budget, fragment shading is progressively scaled down
//!   ([`Executor::set_shade_scale`]), modeling foveated degradation.
//!
//! When `enabled` is `false` (the default) every countermeasure is inert
//! and the engine's arithmetic is bit-identical to the fault-free original.

use std::collections::VecDeque;

use oovr_frameworks::scheduling::{Lanes, Lot, LotDone};
use oovr_gpu::{Executor, RenderUnit};
use oovr_mem::GpmId;
use oovr_trace::TraceEvent;

use crate::middleware::Batch;
use crate::predictor::{BatchSample, Coefficients, EngineCounters, CALIBRATION_BATCHES};

/// Batches queued ahead per GPM (the 4-entry batch queue of §5.2, spread
/// over the GPMs).
const QUEUE_DEPTH: usize = 2;

/// Minimum triangles for a unit to be worth splitting when stealing.
const STEAL_THRESHOLD: u64 = 1024;

/// Minimum triangles for a steal split while resilience is active (finer
/// than [`STEAL_THRESHOLD`]: with a sick GPM, even small splits beat
/// leaving peers idle).
const RESILIENT_STEAL_THRESHOLD: u64 = 256;

/// Relative prediction error above which a completed batch counts as a
/// drift event.
const DRIFT_THRESHOLD: f64 = 0.5;

/// Consecutive-ish drift events required before re-fitting the
/// coefficients on the sliding sample window.
const DRIFT_EVENTS: usize = 2;

/// Sliding window length (recent batch samples) for re-calibration.
const RECALIBRATION_WINDOW: usize = CALIBRATION_BATCHES;

/// EWMA weight of the newest actual/predicted ratio in each GPM's rate
/// factor.
const RATE_ALPHA: f64 = 0.5;

/// A GPM whose weighted backlog is below this fraction of the worst GPM's
/// backlog may steal before going fully idle.
const EARLY_STEAL_FRAC: f64 = 0.5;

/// Queued (unstarted) batches migrate from the worst GPM to the best when
/// the worst's weighted drain estimate exceeds this multiple of the best's.
const MIGRATE_RATIO: f64 = 1.5;

/// Reachability probes attempted (with exponential backoff) before a
/// pre-allocation falls back to remote rendering.
const PA_RETRIES: u32 = 3;

/// First PA retry backoff in cycles; doubles per attempt.
const PA_BACKOFF_CYCLES: u64 = 50_000;

/// Distribution engine configuration (component toggles drive the ablation
/// benches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionConfig {
    /// Use the Eq. 3 predictor for assignment; `false` degrades to
    /// round-robin (the OO_APP software baseline).
    pub predictor: bool,
    /// Pre-allocate batch data to the assigned GPM (PA units).
    pub prealloc: bool,
    /// Split straggler batches across idle GPMs.
    pub stealing: bool,
    /// Number of calibration batches (paper: 8).
    pub calibration: usize,
    /// Fault countermeasures (inert unless [`ResilienceConfig::enabled`]).
    pub resilience: ResilienceConfig,
}

impl Default for DistributionConfig {
    fn default() -> Self {
        DistributionConfig {
            predictor: true,
            prealloc: true,
            stealing: true,
            calibration: CALIBRATION_BATCHES,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Configuration of the engine's fault countermeasures. All of them are
/// strictly gated on [`enabled`](Self::enabled): the default (disabled)
/// configuration leaves the engine bit-identical to the fault-free design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Master switch; `false` disables every countermeasure.
    pub enabled: bool,
    /// Frame budget for the deadline monitor (VR: 11.1 ms).
    pub deadline_cycles: u64,
    /// Multiplicative fragment-rate reduction per shed event.
    pub shed_step: f64,
    /// Lower bound on the fragment-rate scale (foveation floor).
    pub shed_floor: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            enabled: false,
            deadline_cycles: oovr_gpu::VR_DEADLINE_CYCLES,
            shed_step: 0.8,
            shed_floor: 0.4,
        }
    }
}

impl ResilienceConfig {
    /// An enabled configuration with the default tuning.
    pub fn on() -> Self {
        ResilienceConfig { enabled: true, ..ResilienceConfig::default() }
    }
}

/// Result of driving a frame through the distribution engine.
#[derive(Debug, Clone)]
pub struct DistributionStats {
    /// Batches assigned by the predictor (after calibration).
    pub predicted_assignments: usize,
    /// Bytes moved by PA pre-allocation.
    pub prealloc_bytes: u64,
    /// Stealing splits performed.
    pub steals: usize,
    /// Fitted coefficients (if calibration ran; updated by re-calibration).
    pub coefficients: Option<Coefficients>,
    /// Drift-triggered coefficient re-fits.
    pub recalibrations: usize,
    /// Steals granted to GPMs that were not yet fully idle.
    pub early_steals: usize,
    /// Queued batches migrated away from degraded/throttled GPMs.
    pub migrations: usize,
    /// PA reachability probes taken because the target's links were down.
    pub pa_retries: usize,
    /// Pre-allocations abandoned in favor of remote rendering.
    pub pa_fallbacks: usize,
    /// Deadline-monitor shed events (each scales fragment shading down).
    pub shed_events: usize,
    /// Smallest fragment-rate scale reached (1.0 = nothing shed).
    pub min_shade_scale: f64,
    /// Whether the frame still overran the deadline budget.
    pub deadline_missed: bool,
    /// Final per-GPM rate factors (empty when resilience is off); values
    /// above 1.0 mark GPMs observed running slower than predicted.
    pub rates: Vec<f64>,
    /// Completed predictor-assigned batches with a measured actual time
    /// (the population behind the prediction-error summary below).
    pub prediction_samples: usize,
    /// Mean relative error of Eq. 3, `|actual - predicted| / predicted`,
    /// over the tracked batches (0.0 when none were tracked).
    pub prediction_error_mean: f64,
    /// Worst relative error of Eq. 3 over the tracked batches.
    pub prediction_error_max: f64,
}

impl Default for DistributionStats {
    fn default() -> Self {
        DistributionStats {
            predicted_assignments: 0,
            prealloc_bytes: 0,
            steals: 0,
            coefficients: None,
            recalibrations: 0,
            early_steals: 0,
            migrations: 0,
            pa_retries: 0,
            pa_fallbacks: 0,
            shed_events: 0,
            min_shade_scale: 1.0,
            deadline_missed: false,
            rates: Vec::new(),
            prediction_samples: 0,
            prediction_error_mean: 0.0,
            prediction_error_max: 0.0,
        }
    }
}

/// The prediction behind one predicted batch, indexed by the batch lot's
/// tracking id: compared against the batch's actual wall cycles on its GPM
/// when the lot finishes. Pure observation (the prediction-error summary
/// and trace events); only the resilience countermeasures *act* on it.
#[derive(Debug)]
struct BatchTrack {
    /// Frame-wide batch index (calibration batches counted).
    batch: u32,
    predicted: f64,
    triangles: u64,
}

/// The Eq. 3 sample of a finished batch lot of `triangles` triangles.
fn sample_of(triangles: u64, done: &LotDone) -> BatchSample {
    BatchSample {
        triangles,
        tv: done.end.transformed_vertices - done.start.transformed_vertices,
        pixels: done.end.shaded_pixels - done.start.shaded_pixels,
        cycles: done.end.now - done.start.now,
    }
}

/// The GPM's predicted remaining work, scaled by its resilience rate
/// factor (all 1.0 when resilience is off, leaving the value untouched).
fn weighted_remaining(
    ex: &Executor<'_>,
    counters: &EngineCounters,
    coeff: &Coefficients,
    rate: &[f64],
    g: usize,
) -> f64 {
    let s = ex.gpm(GpmId(g as u8));
    counters.remaining(g, coeff, s.transformed_vertices, s.shaded_pixels) * rate[g]
}

/// Resilient drain-time estimate for GPM `g`: the nominal predicted
/// remaining, floored at the predicted cost of the triangles physically
/// sitting in its queue (the nominal counter saturates at zero when the
/// elapsed estimate overshoots), scaled by the GPM's rate factor.
fn resilient_drain(
    ex: &Executor<'_>,
    counters: &EngineCounters,
    coeff: &Coefficients,
    rate: &[f64],
    queues: &[VecDeque<Lot>],
    g: usize,
) -> f64 {
    let s = ex.gpm(GpmId(g as u8));
    let nominal = counters.remaining(g, coeff, s.transformed_vertices, s.shaded_pixels);
    let queued: u64 = queues[g].iter().map(|l| lot_triangles(ex, l)).sum();
    rate[g] * nominal.max(coeff.c0 * queued as f64)
}

/// Triangles per eye of the units still queued in `lot`.
fn lot_triangles(ex: &Executor<'_>, lot: &Lot) -> u64 {
    lot.units.iter().map(|u| u.triangles_per_eye(ex.scene().object(u.object))).sum()
}

/// Whether any GPM's frame-elapsed cycles exceed the deadline budget.
fn deadline_missed(ex: &Executor<'_>, frame_start: &[u64], budget: u64) -> bool {
    (0..frame_start.len())
        .any(|g| ex.gpm(GpmId(g as u8)).now.saturating_sub(frame_start[g]) > budget)
}

/// Drives all `batches` through `ex` under the engine's policy.
///
/// Every unit of every batch is executed exactly once; the function returns
/// engine statistics (the executor accumulates the frame report as usual).
pub fn run_distribution(
    ex: &mut Executor<'_>,
    batches: &[Batch],
    cfg: &DistributionConfig,
) -> DistributionStats {
    let n = ex.n_gpms();
    let res = cfg.resilience;
    let mut stats = DistributionStats::default();
    let frame_start: Vec<u64> = (0..n).map(|g| ex.gpm(GpmId(g as u8)).now).collect();

    let units_of = |b: &Batch| -> VecDeque<RenderUnit> {
        b.objects.iter().map(|&o| RenderUnit::smp(o)).collect()
    };

    // --- Phase 1: calibration, round-robin, First-Touch mapping. ---
    // Each batch is one tracked lot (its id is its batch index), so every
    // finished lot is an Eq. 3 sample.
    let n_cal = cfg.calibration.min(batches.len());
    let mut lanes = Lanes::new(n);
    for (i, b) in batches[..n_cal].iter().enumerate() {
        lanes.push(i % n, units_of(b), true);
    }
    let mut samples = Vec::with_capacity(n_cal);
    let mut sample_gpms = Vec::with_capacity(n_cal);
    while let Some(done) = lanes.step(ex) {
        if let Some(d) = done {
            samples.push(sample_of(batches[d.track].triangles, &d));
            sample_gpms.push(d.gpm);
        }
    }

    let rest = &batches[n_cal..];
    if rest.is_empty() {
        if res.enabled {
            stats.deadline_missed = deadline_missed(ex, &frame_start, res.deadline_cycles);
        }
        return stats;
    }

    let mut coeff = if samples.is_empty() {
        Coefficients { c0: 1.0, c1: 1.0, c2: 1.0 }
    } else {
        Coefficients::fit(&samples)
    };
    stats.coefficients = Some(coeff);
    let fit_cycle = ex.makespan();
    if let Some(tr) = ex.tracer_mut() {
        tr.record(TraceEvent::CalibrationFit {
            cycle: fit_cycle,
            c0: coeff.c0,
            c1: coeff.c1,
            c2: coeff.c2,
            samples: samples.len() as u32,
            refit: false,
        });
    }
    let baselines: Vec<(u64, u64)> = (0..n)
        .map(|g| {
            let s = ex.gpm(GpmId(g as u8));
            (s.transformed_vertices, s.shaded_pixels)
        })
        .collect();
    let mut counters = EngineCounters::new(baselines);

    // Resilience state: per-GPM rate factors, the sliding sample window
    // (seeded with the calibration samples), drift event counter, and
    // per-batch completion tracks. The rate factors start from the
    // calibration observations themselves — each calibration batch ran on
    // a known GPM, so a GPM already limping during calibration is flagged
    // before the predictor makes a single assignment.
    let mut rate = vec![1.0f64; n];
    if res.enabled {
        let mut acc = vec![(0.0f64, 0usize); n];
        for (s, &g) in samples.iter().zip(&sample_gpms) {
            let predicted = coeff.predict_total(s.triangles).max(1.0);
            acc[g].0 += (s.cycles as f64 / predicted).clamp(0.25, 4.0);
            acc[g].1 += 1;
        }
        for g in 0..n {
            if acc[g].1 > 0 {
                rate[g] = acc[g].0 / acc[g].1 as f64;
            }
        }
    }
    let mut recent: VecDeque<BatchSample> = samples.iter().copied().collect();
    while recent.len() > RECALIBRATION_WINDOW {
        recent.pop_front();
    }
    let mut drift_count = 0usize;
    let mut tracks: Vec<BatchTrack> = Vec::new();
    let mut pred_err_sum = 0.0f64;

    // --- Phases 2–4: predictive assignment + execution pump. ---
    // Fresh lanes, so a predicted batch's tracking id indexes `tracks`.
    let mut pending: VecDeque<(usize, &Batch)> =
        rest.iter().enumerate().map(|(i, b)| (n_cal + i, b)).collect();
    let mut lanes = Lanes::new(n);
    let mut rr = 0usize;

    loop {
        // Top-up: assign pending batches to predicted-earliest GPMs with
        // queue space.
        while let Some(&(batch_id, batch)) = pending.front() {
            let candidates: Vec<usize> =
                (0..n).filter(|&g| lanes.queues[g].len() < QUEUE_DEPTH).collect();
            if candidates.is_empty() {
                break;
            }
            let g = if cfg.predictor {
                *candidates
                    .iter()
                    .min_by(|&&a, &&b| {
                        let (ra, rb) = if res.enabled {
                            (
                                resilient_drain(ex, &counters, &coeff, &rate, &lanes.queues, a),
                                resilient_drain(ex, &counters, &coeff, &rate, &lanes.queues, b),
                            )
                        } else {
                            (
                                weighted_remaining(ex, &counters, &coeff, &rate, a),
                                weighted_remaining(ex, &counters, &coeff, &rate, b),
                            )
                        };
                        ra.total_cmp(&rb)
                    })
                    .expect("nonempty candidates")
            } else {
                let g = candidates[rr % candidates.len()];
                rr += 1;
                g
            };
            pending.pop_front();
            let predicted = coeff.predict_total(batch.triangles);
            counters.assign(g, predicted);
            stats.predicted_assignments += usize::from(cfg.predictor);
            let assign_cycle = ex.gpm(GpmId(g as u8)).now;
            if let Some(tr) = ex.tracer_mut() {
                tr.record(TraceEvent::Assign {
                    cycle: assign_cycle,
                    gpm: g as u32,
                    batch: batch_id as u32,
                    triangles: batch.triangles,
                    predicted,
                });
            }
            if cfg.prealloc {
                let gid = GpmId(g as u8);
                let mut do_prealloc = true;
                if res.enabled && !ex.gpm_reachable(gid, ex.gpm(gid).now) {
                    // Links to the target are down: probe the fault horizon
                    // with exponential backoff; if they never retrain in
                    // time, leave the data where it is and render remotely.
                    let mut probe = ex.gpm(gid).now;
                    let mut backoff = PA_BACKOFF_CYCLES;
                    let mut reachable = false;
                    for attempt in 1..=PA_RETRIES {
                        stats.pa_retries += 1;
                        probe = probe.saturating_add(backoff);
                        backoff = backoff.saturating_mul(2);
                        if let Some(tr) = ex.tracer_mut() {
                            tr.record(TraceEvent::PaRetry { cycle: probe, gpm: g as u32, attempt });
                        }
                        if ex.gpm_reachable(gid, probe) {
                            reachable = true;
                            break;
                        }
                    }
                    if !reachable {
                        do_prealloc = false;
                        stats.pa_fallbacks += 1;
                        if let Some(tr) = ex.tracer_mut() {
                            tr.record(TraceEvent::PaFallback {
                                cycle: probe,
                                gpm: g as u32,
                                reason: "links-down",
                            });
                        }
                    }
                }
                if do_prealloc {
                    for &obj in &batch.objects {
                        stats.prealloc_bytes += ex.prealloc_object(obj, gid);
                    }
                }
            }
            // Tracks are pure observation (prediction-error summary, trace
            // events), so every predicted batch gets one regardless of the
            // resilience switch; only the countermeasures consult them for
            // action.
            tracks.push(BatchTrack {
                batch: batch_id as u32,
                predicted,
                triangles: batch.triangles,
            });
            lanes.push(g, units_of(batch), true);
        }

        // Migration: when a GPM's weighted drain estimate dwarfs the best
        // GPM's, its rearmost queued (unstarted) batch moves to the best
        // GPM, with the PA units chasing the data. This is what actually
        // relieves a throttled or link-degraded GPM mid-frame: the rate
        // factor alone only steers *new* assignments.
        if res.enabled {
            let mut moves = 0usize;
            while moves < n {
                let drains: Vec<f64> = (0..n)
                    .map(|g| resilient_drain(ex, &counters, &coeff, &rate, &lanes.queues, g))
                    .collect();
                let worst = (0..n)
                    .max_by(|&a, &b| drains[a].total_cmp(&drains[b]))
                    .expect("at least one GPM");
                let best = (0..n)
                    .min_by(|&a, &b| drains[a].total_cmp(&drains[b]))
                    .expect("at least one GPM");
                if worst == best
                    || lanes.queues[worst].len() < 2
                    || drains[worst] <= MIGRATE_RATIO * drains[best] + 1.0
                {
                    break;
                }
                let rear = lanes.queues[worst].back().expect("worst queue has a rear lot");
                let batch_pred = match rear.track {
                    Some(ti) => tracks[ti].predicted,
                    None => coeff.c0 * lot_triangles(ex, rear) as f64,
                };
                // Only migrate if the receiver stays strictly below the
                // donor's current drain — otherwise the batch would just
                // ping-pong between the two.
                if drains[best] + rate[best] * batch_pred + 1.0 >= drains[worst] {
                    break;
                }
                let lot = lanes.queues[worst].pop_back().expect("worst queue has a rear lot");
                if let Some(ti) = lot.track {
                    let p = tracks[ti].predicted;
                    counters.assign(worst, -p);
                    counters.assign(best, p);
                }
                if cfg.prealloc {
                    for u in &lot.units {
                        stats.prealloc_bytes += ex.prealloc_object(u.object, GpmId(best as u8));
                    }
                }
                lanes.queues[best].push_back(lot);
                stats.migrations += 1;
                moves += 1;
                let cycle = ex.gpm(GpmId(best as u8)).now;
                if let Some(tr) = ex.tracer_mut() {
                    tr.record(TraceEvent::Migrate {
                        cycle,
                        from: worst as u32,
                        to: best as u32,
                        predicted: batch_pred,
                        reason: "drain-imbalance",
                    });
                }
            }
        }

        // Stealing: once nothing is pending, idle GPMs carve triangles off
        // the largest queued unit elsewhere. With resilience, a GPM whose
        // weighted backlog is a small fraction of the worst GPM's may steal
        // while its last unit is still running (straggler escalation).
        if cfg.stealing && pending.is_empty() {
            let empty_q: Vec<bool> =
                (0..n).map(|g| lanes.queues[g].iter().all(|l| l.units.is_empty())).collect();
            let idle: Vec<bool> = (0..n).map(|g| !lanes.is_running(g) && empty_q[g]).collect();
            let mut early = vec![false; n];
            if res.enabled {
                let rems: Vec<f64> = (0..n)
                    .map(|g| resilient_drain(ex, &counters, &coeff, &rate, &lanes.queues, g))
                    .collect();
                let max_rem = rems.iter().copied().fold(0.0f64, f64::max);
                if max_rem > 0.0 {
                    for g in 0..n {
                        if !idle[g] && empty_q[g] && rems[g] < EARLY_STEAL_FRAC * max_rem {
                            early[g] = true;
                        }
                    }
                }
            }
            let mask: Vec<bool> = (0..n).map(|g| idle[g] || early[g]).collect();
            steal_for_idle(ex, &mut lanes.queues, &mask, &early, cfg, &mut stats);
        }

        // Execute one quantum; a finished batch lot is compared against its
        // prediction.
        let Some(done) = lanes.step(ex) else {
            if pending.is_empty() {
                break;
            }
            continue;
        };
        let Some(d) = done else { continue };
        let track = &tracks[d.track];
        let sample = sample_of(track.triangles, &d);
        let actual = sample.cycles as f64;
        let predicted = track.predicted.max(1.0);
        let rel = (actual - predicted).abs() / predicted;
        stats.prediction_samples += 1;
        pred_err_sum += rel;
        stats.prediction_error_max = stats.prediction_error_max.max(rel);
        if let Some(tr) = ex.tracer_mut() {
            tr.record(TraceEvent::BatchDone {
                cycle: d.end.now,
                gpm: d.gpm as u32,
                batch: track.batch,
                predicted: track.predicted,
                actual,
            });
        }
        if res.enabled {
            on_batch_done(
                ex,
                d.gpm,
                sample,
                predicted,
                &res,
                &counters,
                &frame_start,
                &pending,
                &mut coeff,
                &mut rate,
                &mut recent,
                &mut drift_count,
                &mut stats,
            );
        }
    }

    if stats.prediction_samples > 0 {
        stats.prediction_error_mean = pred_err_sum / stats.prediction_samples as f64;
    }
    if res.enabled {
        stats.rates = rate;
        stats.deadline_missed = deadline_missed(ex, &frame_start, res.deadline_cycles);
        if stats.min_shade_scale < 1.0 {
            // The deadline monitor is per-frame: restore full-rate shading
            // so a following frame starts unshed.
            ex.set_shade_scale(1.0);
        }
    }
    stats
}

/// Resilience bookkeeping when a tracked batch finishes on GPM `g`: update
/// the rate factor and sliding window, re-calibrate on sustained drift, and
/// shed fragment rate if the predicted frame finish busts the deadline.
/// `sample` is the batch's measured sample and `predicted` its (floored)
/// predicted cycles, both computed by the caller.
#[allow(clippy::too_many_arguments)]
fn on_batch_done(
    ex: &mut Executor<'_>,
    g: usize,
    sample: BatchSample,
    predicted: f64,
    res: &ResilienceConfig,
    counters: &EngineCounters,
    frame_start: &[u64],
    pending: &VecDeque<(usize, &Batch)>,
    coeff: &mut Coefficients,
    rate: &mut [f64],
    recent: &mut VecDeque<BatchSample>,
    drift_count: &mut usize,
    stats: &mut DistributionStats,
) {
    let n = rate.len();
    if recent.len() >= RECALIBRATION_WINDOW {
        recent.pop_front();
    }
    recent.push_back(sample);

    let actual = sample.cycles as f64;
    let ratio = (actual / predicted).clamp(0.25, 4.0);
    rate[g] = (1.0 - RATE_ALPHA) * rate[g] + RATE_ALPHA * ratio;

    if (actual - predicted).abs() / predicted > DRIFT_THRESHOLD {
        *drift_count += 1;
        if *drift_count >= DRIFT_EVENTS {
            *drift_count = 0;
            let window: Vec<BatchSample> = recent.iter().copied().collect();
            *coeff = Coefficients::fit(&window);
            stats.coefficients = Some(*coeff);
            stats.recalibrations += 1;
            let cycle = ex.makespan();
            let (c0, c1, c2) = (coeff.c0, coeff.c1, coeff.c2);
            if let Some(tr) = ex.tracer_mut() {
                tr.record(TraceEvent::CalibrationFit {
                    cycle,
                    c0,
                    c1,
                    c2,
                    samples: window.len() as u32,
                    refit: true,
                });
            }
        }
    }

    // Deadline monitor: predicted finish = worst GPM's elapsed + weighted
    // backlog, plus the unassigned backlog spread across the GPMs.
    let backlog: f64 =
        pending.iter().map(|(_, b)| coeff.predict_total(b.triangles)).sum::<f64>() / n as f64;
    let mut worst = 0.0f64;
    for (g2, &start) in frame_start.iter().enumerate() {
        let elapsed = ex.gpm(GpmId(g2 as u8)).now.saturating_sub(start);
        worst = worst.max(elapsed as f64 + weighted_remaining(ex, counters, coeff, rate, g2));
    }
    if worst + backlog > res.deadline_cycles as f64 {
        let cur = ex.shade_scale();
        if cur > res.shed_floor {
            let next = (cur * res.shed_step).max(res.shed_floor);
            ex.set_shade_scale(next);
            stats.shed_events += 1;
            stats.min_shade_scale = stats.min_shade_scale.min(next);
            let cycle = ex.makespan();
            if let Some(tr) = ex.tracer_mut() {
                tr.record(TraceEvent::Shed { cycle, scale: next, reason: "deadline" });
            }
        }
    }
}

/// Splits the largest queued unit for each idle GPM (the "fine-grained task
/// mapping" of §5.2): half the triangles stay, half move to the idle GPM,
/// and the PA units duplicate the object's data there. `early_mask` marks
/// thieves admitted by the resilience early-steal rule (counted
/// separately); it is all-`false` on the fault-free path.
fn steal_for_idle(
    ex: &mut Executor<'_>,
    queues: &mut [VecDeque<Lot>],
    idle_mask: &[bool],
    early_mask: &[bool],
    cfg: &DistributionConfig,
    stats: &mut DistributionStats,
) {
    let n = queues.len();
    let threshold =
        if cfg.resilience.enabled { RESILIENT_STEAL_THRESHOLD } else { STEAL_THRESHOLD };
    let mut given_work = vec![false; n];
    loop {
        let idle: Vec<usize> = (0..n)
            .filter(|&g| {
                idle_mask[g] && !given_work[g] && queues[g].iter().all(|b| b.units.is_empty())
            })
            .collect();
        if idle.is_empty() {
            return;
        }
        // Find the largest splittable unit across all queues.
        let mut donor: Option<(usize, usize, usize, u64)> = None; // (gpm, batch, unit, tris)
        for (g, q) in queues.iter().enumerate() {
            for (bi, l) in q.iter().enumerate() {
                for (ui, u) in l.units.iter().enumerate() {
                    let tris = u.triangles_per_eye(ex.scene().object(u.object));
                    if tris >= threshold && donor.is_none_or(|(_, _, _, best)| tris > best) {
                        donor = Some((g, bi, ui, tris));
                    }
                }
            }
        }
        let Some((g, bi, ui, _tris)) = donor else {
            return;
        };
        let unit = queues[g][bi].units.remove(ui).expect("donor unit exists");
        let (s, e) = unit.tri_range.unwrap_or((0, ex.scene().object(unit.object).triangle_count()));
        let mid = (s + e) / 2;
        if mid == s || mid == e {
            // Too small to split after all; put it back and stop.
            queues[g][bi].units.insert(ui, unit);
            return;
        }
        let thief = idle[0];
        ex.replicate_object(unit.object, GpmId(thief as u8));
        let cycle = ex.gpm(GpmId(thief as u8)).now;
        let object = unit.object.0;
        if let Some(tr) = ex.tracer_mut() {
            tr.record(TraceEvent::Steal {
                cycle,
                thief: thief as u32,
                victim: g as u32,
                object,
                triangles: e - mid,
                early: early_mask[thief],
            });
        }
        let keep = unit.clone().with_tri_range(s, mid);
        let give = unit.with_tri_range(mid, e).without_command();
        queues[g][bi].units.insert(ui, keep);
        queues[thief].push_back(Lot { units: VecDeque::from([give]), track: None });
        given_work[thief] = true;
        stats.steals += 1;
        if early_mask[thief] {
            stats.early_steals += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::{build_batches, MiddlewareConfig};
    use oovr_gpu::{ColorMode, Composition, FaultPlan, FaultScenario, FbOrg, GpuConfig};
    use oovr_mem::Placement;
    use oovr_scene::BenchmarkSpec;

    fn run(cfg: DistributionConfig) -> (oovr_gpu::FrameReport, DistributionStats) {
        run_on(GpuConfig::default(), cfg)
    }

    fn run_on(
        gpu: GpuConfig,
        cfg: DistributionConfig,
    ) -> (oovr_gpu::FrameReport, DistributionStats) {
        let scene = BenchmarkSpec::new("dist-test", 160, 120, 160, 11).build();
        let batches = build_batches(&scene, MiddlewareConfig::default());
        let mut ex =
            Executor::new(gpu, &scene, Placement::FirstTouch, FbOrg::Columns, ColorMode::Deferred);
        let stats = run_distribution(&mut ex, &batches, &cfg);
        (ex.finish("OOVR", Composition::Distributed), stats)
    }

    #[test]
    fn all_work_executes_under_every_toggle_combo() {
        let scene = BenchmarkSpec::new("dist-test", 160, 120, 160, 11).build();
        let expected_tris = 2 * scene.total_triangles_per_eye();
        for (predictor, prealloc, stealing) in
            [(true, true, true), (false, false, false), (true, false, false), (false, true, true)]
        {
            let (r, _) = run(DistributionConfig {
                predictor,
                prealloc,
                stealing,
                ..DistributionConfig::default()
            });
            assert_eq!(
                r.counts.triangles, expected_tris,
                "toggles ({predictor},{prealloc},{stealing}) must render everything"
            );
        }
    }

    #[test]
    fn predictor_improves_balance_over_round_robin() {
        let (rr, _) = run(DistributionConfig {
            predictor: false,
            stealing: false,
            ..DistributionConfig::default()
        });
        let (pred, stats) = run(DistributionConfig {
            predictor: true,
            stealing: false,
            ..DistributionConfig::default()
        });
        assert!(stats.coefficients.is_some());
        assert!(stats.predicted_assignments > 0);
        // At test scale the effect is modest; the predictor must not be
        // materially worse than blind round-robin on balance or time.
        assert!(
            pred.imbalance_ratio() <= rr.imbalance_ratio() * 1.25,
            "predictor {} vs rr {}",
            pred.imbalance_ratio(),
            rr.imbalance_ratio()
        );
        assert!(
            (pred.frame_cycles as f64) <= rr.frame_cycles as f64 * 1.10,
            "predictor {} vs rr {} cycles",
            pred.frame_cycles,
            rr.frame_cycles
        );
    }

    #[test]
    fn prealloc_moves_bytes_and_reduces_remote_texture_reads() {
        let (no_pa, _) = run(DistributionConfig { prealloc: false, ..Default::default() });
        let (pa, stats) = run(DistributionConfig { prealloc: true, ..Default::default() });
        assert!(stats.prealloc_bytes > 0);
        let tex = |r: &oovr_gpu::FrameReport| r.traffic.remote_of(oovr_mem::TrafficClass::Texture);
        assert!(
            tex(&pa) <= tex(&no_pa),
            "prealloc texture remote {} vs without {}",
            tex(&pa),
            tex(&no_pa)
        );
    }

    #[test]
    fn calibration_shorter_than_batch_list_is_fine() {
        let scene = BenchmarkSpec::new("tiny", 96, 96, 6, 3).build();
        let batches = build_batches(&scene, MiddlewareConfig::default());
        let mut ex = Executor::new(
            GpuConfig::default(),
            &scene,
            Placement::FirstTouch,
            FbOrg::Columns,
            ColorMode::Deferred,
        );
        let stats = run_distribution(&mut ex, &batches, &DistributionConfig::default());
        let r = ex.finish("OOVR", Composition::Distributed);
        assert_eq!(r.counts.triangles, 2 * scene.total_triangles_per_eye());
        // Few batches: maybe everything fit in calibration.
        assert!(stats.predicted_assignments <= batches.len());
    }

    #[test]
    fn resilience_disabled_runs_are_reproducible_under_faults() {
        let plan = FaultPlan::new(FaultScenario::Mixed, 1.0, 5);
        let gpu = GpuConfig::default().with_fault(plan);
        let (a, sa) = run_on(gpu.clone(), DistributionConfig::default());
        let (b, sb) = run_on(gpu, DistributionConfig::default());
        assert_eq!(a.frame_cycles, b.frame_cycles);
        assert_eq!(a.counts.triangles, b.counts.triangles);
        // No countermeasure fires while resilience is off.
        for s in [&sa, &sb] {
            assert_eq!(s.recalibrations, 0);
            assert_eq!(s.early_steals, 0);
            assert_eq!(s.pa_retries, 0);
            assert_eq!(s.shed_events, 0);
            assert_eq!(s.min_shade_scale, 1.0);
            assert!(!s.deadline_missed);
        }
    }

    /// Fault-free frame length of the `run_on` test scene; fault plans in
    /// these tests scale their schedule horizon to it so the piecewise
    /// windows actually land inside the (short) test frame.
    fn fault_free_cycles() -> u64 {
        let (r, _) = run(DistributionConfig::default());
        r.frame_cycles
    }

    #[test]
    fn resilient_engine_renders_everything_under_every_scenario() {
        let scene = BenchmarkSpec::new("dist-test", 160, 120, 160, 11).build();
        let expected_tris = 2 * scene.total_triangles_per_eye();
        let horizon = fault_free_cycles();
        for scenario in FaultScenario::ALL {
            let gpu = GpuConfig::default()
                .with_fault(FaultPlan::new(scenario, 1.0, 7).with_horizon(horizon));
            let (r, _) = run_on(
                gpu,
                DistributionConfig { resilience: ResilienceConfig::on(), ..Default::default() },
            );
            assert_eq!(
                r.counts.triangles,
                expected_tris,
                "{} must render everything",
                scenario.name()
            );
        }
    }

    #[test]
    fn resilience_recovers_speed_under_gpm_throttle() {
        let plan =
            FaultPlan::new(FaultScenario::GpmThrottle, 0.9, 1).with_horizon(fault_free_cycles());
        let gpu = GpuConfig::default().with_fault(plan);
        let (plain, _) = run_on(gpu.clone(), DistributionConfig::default());
        let (hard, stats) = run_on(
            gpu,
            DistributionConfig { resilience: ResilienceConfig::on(), ..Default::default() },
        );
        assert!(
            hard.frame_cycles < plain.frame_cycles,
            "resilient {} vs plain {} cycles under throttle",
            hard.frame_cycles,
            plain.frame_cycles
        );
        assert!(
            stats.recalibrations > 0 || stats.early_steals > 0,
            "countermeasures fired: {stats:?}"
        );
    }

    #[test]
    fn deadline_monitor_sheds_and_reports_misses() {
        let tight = ResilienceConfig { deadline_cycles: 10_000, ..ResilienceConfig::on() };
        let scene = BenchmarkSpec::new("dist-test", 160, 120, 160, 11).build();
        let expected_tris = 2 * scene.total_triangles_per_eye();
        let (r, stats) =
            run(DistributionConfig { resilience: tight, ..DistributionConfig::default() });
        assert!(stats.shed_events > 0, "tight budget must shed: {stats:?}");
        assert!(stats.min_shade_scale < 1.0);
        assert!(stats.min_shade_scale >= tight.shed_floor);
        assert!(stats.deadline_missed, "10k cycles is unmeetable");
        // Shedding cheapens fragments; it never drops geometry.
        assert_eq!(r.counts.triangles, expected_tris);
    }

    #[test]
    fn pa_falls_back_to_remote_rendering_when_links_are_down() {
        // On this scene's four-GPM default no LinkDown seed reaches the
        // fallback (0 of 64 at horizons from 15.9 k to 11.1 M cycles): every
        // assignment finds its GPM's links up, or up again by the last
        // retry. Eight GPMs reach it: the default 11.1 M-cycle horizon lays
        // outages of 1.1 M cycles, longer than the 350 k-cycle retry ladder.
        let plan = FaultPlan::new(FaultScenario::LinkDown, 1.0, 2);
        let gpu = GpuConfig::default().with_n_gpms(8).with_fault(plan);
        let scene = BenchmarkSpec::new("dist-test", 160, 120, 160, 11).build();
        let batches = build_batches(&scene, MiddlewareConfig::default());
        let mut ex =
            Executor::new(gpu, &scene, Placement::FirstTouch, FbOrg::Columns, ColorMode::Deferred);
        ex.enable_trace(oovr_trace::TraceConfig::default());
        let cfg = DistributionConfig { resilience: ResilienceConfig::on(), ..Default::default() };
        let stats = run_distribution(&mut ex, &batches, &cfg);
        assert!(stats.pa_fallbacks > 0, "a link outage must outlast PA's retries: {stats:?}");
        let (_, rec) = ex.finish_traced("OOVR", Composition::Distributed);
        let traced = rec
            .expect("tracing was enabled")
            .events()
            .filter(|e| matches!(e, TraceEvent::PaFallback { .. }))
            .count();
        assert_eq!(traced, stats.pa_fallbacks, "every fallback is traced");
    }
}
