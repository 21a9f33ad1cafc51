//! Edge chaos sweeps, the latency ladder, and the edge SLO catalogue.
//!
//! The `figures -- edge` family lives here:
//!
//! * [`edge_ladder`] / [`edge_ladder_table`] — motion-to-photon p99 as a
//!   function of link propagation latency. Delivered photons shift
//!   pointwise with latency while the ATW/dark anchors are constants, so
//!   the p99 column is monotone non-decreasing by construction — and the
//!   figure gate re-verifies it empirically on every workload.
//! * [`edge_chaos_cell`] / [`edge_chaos_table`] — the link-down
//!   scenario×severity sweep comparing the ATW client against a
//!   reprojection-free client on *identical* deliveries (the renderer
//!   and link never observe the client policy). Each cell's fault seed
//!   is scanned, like `oovr_serve::chaos`, until the plan actually
//!   bites (at least one lost frame and one reprojection) so no cell
//!   silently tests nothing.
//! * [`edge_scenario_table`] — every fault scenario × severity on one
//!   workload, for scenario coverage.
//! * [`meter_edge`] / [`edge_slos`] / [`edge_health_table`] — the
//!   post-run fold that is the only writer of the edge metric names, the
//!   SLO catalogue over them, evaluated nominal and under the
//!   seed-scanned severity-1.0 link-down plan per workload;
//!   `figures -- health` gates on every cell being healthy.

use oovr::experiments::{par_map, FigureTable};
use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig};
use oovr_metrics::slo::{achieved, evaluate, healthy, worst_budget, Objective, Slo, SloEval};
use oovr_metrics::Registry;
use oovr_scene::BenchmarkSpec;
use oovr_serve::ServeScheme;
use oovr_trace::Cycle;

use crate::qos::MotionToPhoton;
use crate::sim::{simulate_edge, simulate_edge_metered, Display, EdgeConfig, EdgeOutcome};

/// Fault severities the edge chaos sweep exercises (matching the
/// cluster chaos sweep's ladder).
pub const EDGE_SEVERITIES: [f64; 3] = [0.4, 0.7, 1.0];

/// Edge missed-vsync budget on the healthy (nominal) link: base loss
/// only, ATW covering. Measured 0% on every workload at smoke scale;
/// the budget leaves room for the encode + propagation tail to push a
/// few full-scale deliveries past their deadline.
pub const EDGE_NOMINAL_MISS_BUDGET: f64 = 0.10;

/// Edge missed-vsync budget under the severity-1.0 link-down plan: the
/// ATW client rides out outage windows by reprojecting, so the budget
/// sits well below the bare client's measured miss rate in the same
/// cells (asserted strictly, per cell, by the `figures -- edge` gate).
/// Measured worst ATW miss rate is ≈47%.
pub const EDGE_FAULT_MISS_BUDGET: f64 = 0.55;

/// Reprojection-rate budget: ATW is the designed loss response, but a
/// client living on warped frames has effectively lost the stream.
/// Measured ≈15% under the severity-1.0 link-down plan.
pub const EDGE_REPROJECT_BUDGET: f64 = 0.25;

/// Motion-to-photon p99 budget under the severity-1.0 link-down plan,
/// in vsync intervals. Late frames queue behind outage windows, so the
/// faulted tail is bounded by the worst run of outages the plan can
/// generate, not by the healthy-link delivery path; measured worst is
/// ≈8.2 V (histogram overestimate included), budgeted at 2×.
pub const EDGE_FAULT_MTP_VSYNCS: f64 = 16.0;

/// Seeds scanned per chaos cell for a plan that provably bites.
const SEED_SCAN: u64 = 256;

/// Nominal motion-to-photon p99 target: `2·(2V + latency)` — the
/// dark-vsync anchor (`2V`) plus the configured propagation latency,
/// doubled for the log2 histogram's strictly-less-than-one-octave
/// overestimate.
pub fn edge_nominal_mtp_target(vsync: Cycle, link_latency: Cycle) -> f64 {
    2.0 * (2.0 * vsync as f64 + link_latency as f64)
}

/// Folds one finished edge run into `reg`. Every paced frame counts at
/// its photon cycle (the cycle it reached the eye, or the vsync it was
/// warped or went dark at) with its motion-to-photon latency, classified
/// by how the client displayed it; lost frames count as well. The
/// warmup frame is outside the SLO accounting. The `min_scale` gauge is
/// the lowest scale a rendered frame ran at.
pub fn meter_edge(reg: &mut Registry, out: &EdgeOutcome) {
    let frames = || out.sessions.iter().flat_map(|s| s.frames.iter());
    for ef in frames().filter(|f| f.record.frame > 0) {
        let photon = ef.photon;
        reg.inc("frames", "", photon, 1);
        reg.observe("motion_to_photon_cycles", "", photon, photon - ef.record.release);
        match ef.display {
            Display::Fresh => reg.inc("frames_delivered", "", photon, 1),
            Display::Late => {
                reg.inc("frames_delivered", "", photon, 1);
                reg.inc("frames_missed", "", photon, 1);
            }
            Display::Reprojected { .. } => reg.inc("frames_reprojected", "", photon, 1),
            Display::Stale { .. } => {
                reg.inc("frames_stale", "", photon, 1);
                reg.inc("frames_missed", "", photon, 1);
            }
        }
        if ef.lost {
            reg.inc("frames_lost", "", photon, 1);
        }
    }
    let min_scale =
        frames().filter(|f| !f.record.dropped).map(|f| f.record.scale).fold(1.0f64, f64::min);
    reg.set_gauge("min_scale", "", min_scale);
}

/// The edge-tier objectives over the metrics [`meter_edge`] writes.
/// `mtp_target` is the p99 motion-to-photon budget in cycles:
/// [`edge_nominal_mtp_target`] for healthy-link runs,
/// [`EDGE_FAULT_MTP_VSYNCS`]`·V` for runs under a fault plan (outage
/// queueing stretches the tail far past the delivery path).
pub fn edge_slos(miss_budget: f64, mtp_target: f64) -> Vec<Slo> {
    vec![
        Slo {
            name: "edge-missed-vsync-rate",
            objective: Objective::BadFraction { bad: "frames_missed", total: "frames" },
            target: miss_budget,
        },
        Slo {
            name: "p99-motion-to-photon",
            objective: Objective::QuantileAtMost { hist: "motion_to_photon_cycles", p: 99.0 },
            target: mtp_target,
        },
        Slo {
            name: "reprojection-rate",
            objective: Objective::BadFraction { bad: "frames_reprojected", total: "frames" },
            target: EDGE_REPROJECT_BUDGET,
        },
    ]
}

/// Span of one run in cycles: the last possible arrival plus every
/// frame's grid slot and the departure slack — the horizon fault plans
/// are stretched to so their windows cover the whole experiment.
fn run_horizon(cfg: &EdgeConfig) -> Cycle {
    let s = &cfg.serve;
    let v = s.vsync_cycles.max(1);
    u64::from(s.sessions.saturating_sub(1)) * (s.mean_interarrival + s.mean_interarrival / 2)
        + u64::from(s.frames_per_session + 2) * v
}

fn count(out: &EdgeOutcome, pred: impl Fn(&crate::sim::EdgeFrame) -> bool) -> u32 {
    out.sessions.iter().flat_map(|s| s.frames.iter()).filter(|f| pred(f)).count() as u32
}

/// One cell of the edge chaos sweep.
#[derive(Debug, Clone)]
pub struct EdgeChaosCell {
    /// Workload name.
    pub workload: String,
    /// Fault scenario of the cell.
    pub scenario: FaultScenario,
    /// Fault severity of the cell.
    pub severity: f64,
    /// Settled (seed-scanned) fault-plan seed.
    pub fault_seed: u64,
    /// Frames the link lost.
    pub lost: u32,
    /// Paced vsyncs the ATW client covered by reprojection.
    pub reprojected: u32,
    /// Paced dark vsyncs of the ATW client.
    pub stale: u32,
    /// Missed-vsync rate of the ATW client.
    pub miss_atw: f64,
    /// Missed-vsync rate of the reprojection-free client on the same
    /// deliveries.
    pub miss_bare: f64,
    /// ATW client's motion-to-photon summary.
    pub mtp: MotionToPhoton,
}

/// Runs one chaos cell: seed-scan the fault plan until it bites (≥ 1
/// lost frame and, for scenarios that lose anything, ≥ 1 reprojection),
/// then compare the ATW client against the bare client under the
/// settled plan.
pub fn edge_chaos_cell(
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &EdgeConfig,
    scenario: FaultScenario,
    severity: f64,
) -> EdgeChaosCell {
    let horizon = run_horizon(cfg);
    let idx =
        FaultScenario::ALL.iter().position(|s| s.name() == scenario.name()).unwrap_or(0) as u64 * 8
            + (severity * 10.0) as u64;
    let base_seed = cfg.serve.seed ^ idx.wrapping_mul(0x9E37_79B9);
    let mut settled: Option<(FaultPlan, EdgeOutcome)> = None;
    for s in 0..SEED_SCAN {
        let plan =
            FaultPlan::new(scenario, severity, base_seed.wrapping_add(s)).with_horizon(horizon);
        let run_cfg = EdgeConfig {
            link: crate::link::LinkConfig { fault: Some(plan.clone()), ..cfg.link.clone() },
            reproject: true,
            serve: cfg.serve.clone(),
        };
        let atw = simulate_edge(ServeScheme::OoVr, spec, gpu, &run_cfg, None);
        let lost = count(&atw, |f| f.lost);
        let reproj =
            count(&atw, |f| f.record.frame > 0 && matches!(f.display, Display::Reprojected { .. }));
        let bites = lost >= 1 && reproj >= 1;
        if bites || (s == SEED_SCAN - 1 && settled.is_none()) {
            settled = Some((plan, atw));
            if bites {
                break;
            }
        }
    }
    let (plan, atw) = settled.expect("seed scan always settles on the last candidate");
    let bare_cfg = EdgeConfig {
        link: crate::link::LinkConfig { fault: Some(plan.clone()), ..cfg.link.clone() },
        reproject: false,
        serve: cfg.serve.clone(),
    };
    let bare = simulate_edge(ServeScheme::OoVr, spec, gpu, &bare_cfg, None);
    EdgeChaosCell {
        workload: spec.name.clone(),
        scenario,
        severity,
        fault_seed: plan.seed,
        lost: count(&atw, |f| f.lost),
        reprojected: count(&atw, |f| {
            f.record.frame > 0 && matches!(f.display, Display::Reprojected { .. })
        }),
        stale: count(&atw, |f| f.record.frame > 0 && matches!(f.display, Display::Stale { .. })),
        miss_atw: atw.qos().miss_rate,
        miss_bare: bare.qos().miss_rate,
        mtp: atw.motion_to_photon(),
    }
}

/// The link-down chaos table: every workload × severity, ATW vs bare
/// client. The `figures -- edge` gate asserts `miss_atw < miss_bare`
/// strictly in every row.
pub fn edge_chaos_table(
    specs: &[BenchmarkSpec],
    gpu: &GpuConfig,
    cfg: &EdgeConfig,
) -> (FigureTable, Vec<EdgeChaosCell>) {
    let grid: Vec<(BenchmarkSpec, f64)> = specs
        .iter()
        .flat_map(|s| EDGE_SEVERITIES.iter().map(move |&sev| (s.clone(), sev)))
        .collect();
    let cells = par_map(&grid, |(spec, sev)| {
        edge_chaos_cell(spec, gpu, cfg, FaultScenario::LinkDown, *sev)
    });
    let rows = cells
        .iter()
        .map(|c| {
            (
                format!("{} @{:.1}", c.workload, c.severity),
                vec![
                    f64::from(c.lost),
                    f64::from(c.reprojected),
                    f64::from(c.stale),
                    c.miss_bare * 100.0,
                    c.miss_atw * 100.0,
                    c.mtp.p99 as f64 / 1_000.0,
                ],
            )
        })
        .collect();
    let table = FigureTable {
        id: "edge_chaos",
        title: "Edge link-down chaos: ATW client vs reprojection-free client on identical \
                deliveries (seed-scanned plans; miss rates in percent)"
            .to_string(),
        columns: ["lost", "reproj", "stale", "bare_miss%", "atw_miss%", "mtp_p99_kcyc"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    };
    (table, cells)
}

/// Scenario-coverage table on one workload: every fault scenario ×
/// severity through the link compiler.
pub fn edge_scenario_table(
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &EdgeConfig,
) -> (FigureTable, Vec<EdgeChaosCell>) {
    let grid: Vec<(FaultScenario, f64)> = FaultScenario::ALL
        .iter()
        .flat_map(|&sc| EDGE_SEVERITIES.iter().map(move |&sev| (sc, sev)))
        .collect();
    let cells = par_map(&grid, |(sc, sev)| edge_chaos_cell(spec, gpu, cfg, *sc, *sev));
    let rows = cells
        .iter()
        .map(|c| {
            (
                format!("{} @{:.1}", c.scenario.name(), c.severity),
                vec![
                    f64::from(c.lost),
                    f64::from(c.reprojected),
                    f64::from(c.stale),
                    c.miss_atw * 100.0,
                    c.mtp.p99 as f64 / 1_000.0,
                ],
            )
        })
        .collect();
    let table = FigureTable {
        id: "edge_scenarios",
        title: format!(
            "Edge fault-scenario coverage on {}: ATW client under every compiled link fault",
            spec.name
        ),
        columns: ["lost", "reproj", "stale", "atw_miss%", "mtp_p99_kcyc"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    };
    (table, cells)
}

/// Propagation-latency rungs of the motion-to-photon ladder, as
/// fractions of the vsync interval.
fn ladder_rungs(v: Cycle) -> [Cycle; 5] {
    [0, v / 64, v / 8, v / 2, 2 * v]
}

/// Runs one workload up the latency ladder, returning
/// `(latency, motion-to-photon)` per rung. Every other knob (including
/// the loss draws) is held fixed, so the p99 column is monotone.
pub fn edge_ladder(
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &EdgeConfig,
) -> Vec<(Cycle, MotionToPhoton)> {
    ladder_rungs(cfg.serve.vsync_cycles.max(1))
        .iter()
        .map(|&latency| {
            let run_cfg = EdgeConfig {
                link: crate::link::LinkConfig { latency, ..cfg.link.clone() },
                ..cfg.clone()
            };
            let out = simulate_edge(ServeScheme::OoVr, spec, gpu, &run_cfg, None);
            (latency, out.motion_to_photon())
        })
        .collect()
}

/// The ladder table: one row per workload, motion-to-photon p99 (in
/// kilocycles) per latency rung, plus a monotone verdict column.
pub fn edge_ladder_table(
    specs: &[BenchmarkSpec],
    gpu: &GpuConfig,
    cfg: &EdgeConfig,
) -> (FigureTable, Vec<Vec<(Cycle, MotionToPhoton)>>) {
    let ladders = par_map(specs, |spec| edge_ladder(spec, gpu, cfg));
    let rows = specs
        .iter()
        .zip(&ladders)
        .map(|(spec, ladder)| {
            let mut cols: Vec<f64> =
                ladder.iter().map(|(_, mtp)| mtp.p99 as f64 / 1_000.0).collect();
            let monotone = ladder.windows(2).all(|w| w[0].1.p99 <= w[1].1.p99);
            cols.push(f64::from(u8::from(monotone)));
            (spec.name.clone(), cols)
        })
        .collect();
    let v = cfg.serve.vsync_cycles.max(1);
    let table = FigureTable {
        id: "edge_ladder",
        title: "Edge motion-to-photon p99 (kilocycles) vs link propagation latency \
                (rungs as fractions of the vsync interval)"
            .to_string(),
        columns: ladder_rungs(v)
            .iter()
            .map(|&l| format!("{:.3}V", l as f64 / v as f64))
            .chain(std::iter::once("monotone".to_string()))
            .collect(),
        rows,
    };
    (table, ladders)
}

/// One workload's edge health evaluation.
#[derive(Debug, Clone)]
pub struct EdgeHealthCell {
    /// Workload name.
    pub workload: String,
    /// Seed of the settled severity-1.0 link-down plan.
    pub fault_seed: u64,
    /// SLO rows of the nominal (fault-free link) run.
    pub nominal: Vec<SloEval>,
    /// SLO rows under the link-down plan.
    pub faulted: Vec<SloEval>,
}

/// The `figures -- health` edge gate: per workload, evaluate
/// [`edge_slos`] on a metered nominal run and a metered run under the
/// seed-scanned severity-1.0 link-down plan.
pub fn edge_health_table(
    specs: &[BenchmarkSpec],
    gpu: &GpuConfig,
    cfg: &EdgeConfig,
) -> (FigureTable, Vec<EdgeHealthCell>) {
    let cells = par_map(specs, |spec| {
        let v = cfg.serve.vsync_cycles.max(1);
        let run = |fault: Option<FaultPlan>, miss_budget: f64, mtp_target: f64| -> Vec<SloEval> {
            let run_cfg = EdgeConfig {
                link: crate::link::LinkConfig { fault, ..cfg.link.clone() },
                ..cfg.clone()
            };
            let mut reg = Registry::new(v);
            simulate_edge_metered(ServeScheme::OoVr, spec, gpu, &run_cfg, None, Some(&mut reg));
            evaluate(&reg, &edge_slos(miss_budget, mtp_target))
        };
        // Reuse the chaos cell's scan so health and chaos agree on the
        // plan that actually bites this workload.
        let cell = edge_chaos_cell(spec, gpu, cfg, FaultScenario::LinkDown, 1.0);
        let horizon = run_horizon(cfg);
        let plan =
            FaultPlan::new(FaultScenario::LinkDown, 1.0, cell.fault_seed).with_horizon(horizon);
        EdgeHealthCell {
            workload: spec.name.clone(),
            fault_seed: cell.fault_seed,
            nominal: run(
                None,
                EDGE_NOMINAL_MISS_BUDGET,
                edge_nominal_mtp_target(v, cfg.link.latency),
            ),
            faulted: run(Some(plan), EDGE_FAULT_MISS_BUDGET, EDGE_FAULT_MTP_VSYNCS * v as f64),
        }
    });
    let rows = cells
        .iter()
        .map(|c| {
            (
                c.workload.clone(),
                vec![
                    achieved(&c.nominal, "edge-missed-vsync-rate") * 100.0,
                    achieved(&c.faulted, "edge-missed-vsync-rate") * 100.0,
                    achieved(&c.faulted, "reprojection-rate") * 100.0,
                    worst_budget(&c.nominal).max(worst_budget(&c.faulted)),
                    f64::from(u8::from(healthy(&c.nominal) && healthy(&c.faulted))),
                ],
            )
        })
        .collect();
    let table = FigureTable {
        id: "edge_health",
        title: format!(
            "Edge health gate: nominal vs severity-1.0 link-down (budgets: nominal {:.0}%, \
             faulted {:.0}% missed vsyncs, {:.0}% reprojection)",
            EDGE_NOMINAL_MISS_BUDGET * 100.0,
            EDGE_FAULT_MISS_BUDGET * 100.0,
            EDGE_REPROJECT_BUDGET * 100.0
        ),
        columns: ["nom_miss%", "fault_miss%", "reproj%", "budget", "healthy"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    };
    (table, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::benchmarks;

    fn cfg() -> EdgeConfig {
        EdgeConfig {
            serve: oovr_serve::ServeConfig {
                sessions: 4,
                frames_per_session: 10,
                ..oovr_serve::ServeConfig::default()
            },
            ..EdgeConfig::default()
        }
    }

    #[test]
    fn link_down_cell_bites_and_atw_wins() {
        let spec = benchmarks::hl2_640().scaled(0.05);
        let gpu = GpuConfig::default();
        let cell = edge_chaos_cell(&spec, &gpu, &cfg(), FaultScenario::LinkDown, 1.0);
        assert!(cell.lost >= 1, "the settled plan must lose at least one frame");
        assert!(cell.reprojected >= 1, "the ATW client must reproject at least once");
        assert!(
            cell.miss_atw < cell.miss_bare,
            "ATW must strictly beat the bare client ({} vs {})",
            cell.miss_atw,
            cell.miss_bare
        );
    }

    #[test]
    fn ladder_p99_is_monotone_in_latency() {
        let spec = benchmarks::hl2_640().scaled(0.05);
        let gpu = GpuConfig::default();
        let ladder = edge_ladder(&spec, &gpu, &cfg());
        assert_eq!(ladder.len(), 5);
        for w in ladder.windows(2) {
            assert!(
                w[0].1.p99 <= w[1].1.p99,
                "p99 must not decrease with latency ({} @{} vs {} @{})",
                w[0].1.p99,
                w[0].0,
                w[1].1.p99,
                w[1].0
            );
        }
    }

    #[test]
    fn edge_slo_catalogue_names_the_metered_counters() {
        let spec = benchmarks::hl2_640().scaled(0.05);
        let gpu = GpuConfig::default();
        let c = cfg();
        let v = c.serve.vsync_cycles;
        let mut reg = Registry::new(v);
        simulate_edge_metered(ServeScheme::OoVr, &spec, &gpu, &c, None, Some(&mut reg));
        let evals = evaluate(
            &reg,
            &edge_slos(EDGE_NOMINAL_MISS_BUDGET, edge_nominal_mtp_target(v, c.link.latency)),
        );
        assert_eq!(evals.len(), 3);
        let mtp = evals.iter().find(|e| e.slo == "p99-motion-to-photon").unwrap();
        assert!(mtp.achieved > 0.0, "the histogram must have samples");
    }
}
