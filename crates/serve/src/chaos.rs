//! Cluster capacity tables and the chaos sweep behind `figures -- cluster`
//! and `figures -- chaos`.
//!
//! Three deterministic grids:
//!
//! * [`cluster_scale_table`] — fault-free capacity vs. fleet size: one row
//!   per workload, columns `N ∈ {1, 2, 4, 8}` plus the N=4 scaling
//!   efficiency `eff(4) = cap(4) / (4 · cap(1))`. Near-linear scaling is
//!   an acceptance gate (`eff(4) ≥ 0.9`, checked by `figures -- cluster`).
//! * [`cluster_policy_table`] — placement shoot-out on mixes whose
//!   sessions share cost streams: affinity packing must strictly beat
//!   least-loaded (the cross-stream working-set tax is exactly what
//!   packing avoids), with rendezvous hashing as the stateless reference.
//! * [`chaos_table`] — the robustness headline: every (scenario ×
//!   severity) fault cell, against every placement policy, runs twice —
//!   once with the resilient router (retry + failover + migration + shed)
//!   and once with the retry-free/no-migration baseline — and reports
//!   goodput. The resilient arm must retain strictly more goodput in
//!   every fault cell.
//!
//! Fault seeds are *scanned*: low-severity transient scenarios can draw
//! zero outage windows, which would make a chaos cell silently fault-free
//! and the strict comparison vacuous. [`chaos_table`] walks seeds until
//! [`FaultPlan::disturbs_servers`] confirms the plan actually perturbs a
//! server rate on the vsync grid, so every cell measures a real fault.

use oovr::experiments::{par_map, FigureTable};
use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig};
use oovr_scene::BenchmarkSpec;

use crate::cluster::{cluster_capacity, simulate_cluster, ClusterConfig};
use crate::router::{Placement, Router};
use crate::stream::ServeScheme;

/// Fault severities swept by [`chaos_table`].
pub const CHAOS_SEVERITIES: [f64; 3] = [0.4, 0.7, 1.0];

/// Fraction of fault-free cluster capacity the chaos sweep offers as load:
/// high enough that any capacity loss bites, low enough that the fault-free
/// row admits cleanly.
pub const CHAOS_LOAD: f64 = 0.85;

/// Seeds scanned per chaos cell for a plan that actually disturbs.
const SEED_SCAN: u64 = 256;

/// One measured (scenario, severity, policy) chaos cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Fault scenario name (`"none"` for the fault-free reference row).
    pub scenario: &'static str,
    /// Fault severity in `[0, 1]`.
    pub severity: f64,
    /// Placement policy label.
    pub policy: &'static str,
    /// Goodput of the retry-free/no-migration baseline router.
    pub baseline: f64,
    /// Goodput of the resilient router on the identical fault.
    pub resilient: f64,
    /// Fault seed the cell settled on after disturbance scanning.
    pub seed: u64,
}

/// Fleet sizes of the capacity-vs-N table.
const SCALE_NS: [u32; 4] = [1, 2, 4, 8];

/// Fault-free cluster capacity vs. fleet size, one row per workload
/// (least-loaded placement, OO-VR sessions), plus the N=4 scaling
/// efficiency column `eff(4)`.
pub fn cluster_scale_table(
    specs: &[BenchmarkSpec],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
) -> FigureTable {
    let cells: Vec<(&BenchmarkSpec, u32)> =
        specs.iter().flat_map(|s| SCALE_NS.map(|n| (s, n))).collect();
    let caps = par_map(&cells, |&(spec, n)| {
        let mix = vec![(ServeScheme::OoVr, spec.clone())];
        cluster_capacity(&mix, gpu, n, Placement::LeastLoaded, cfg) as f64
    });
    let rows = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut vals: Vec<f64> = caps[i * SCALE_NS.len()..(i + 1) * SCALE_NS.len()].to_vec();
            let (one, four) = (vals[0], vals[2]);
            vals.push(if one > 0.0 { four / (4.0 * one) } else { 0.0 });
            (spec.name.clone(), vals)
        })
        .collect();
    FigureTable {
        id: "cluster",
        title: "Cluster capacity vs. fleet size: max warm sessions at <1% missed vsync".to_string(),
        columns: SCALE_NS
            .iter()
            .map(|n| format!("N={n}"))
            .chain(std::iter::once("eff(4)".to_string()))
            .collect(),
        rows,
    }
}

/// The shared-stream mixes the policy shoot-out runs: the first 2, 3, and
/// 4 workloads of `specs`, sessions round-robining the mix.
fn policy_mixes(specs: &[BenchmarkSpec]) -> Vec<Vec<(ServeScheme, BenchmarkSpec)>> {
    [2usize, 3, 4]
        .iter()
        .filter(|&&k| k <= specs.len())
        .map(|&k| specs[..k].iter().map(|s| (ServeScheme::OoVr, s.clone())).collect())
        .collect()
}

fn mix_label(mix: &[(ServeScheme, BenchmarkSpec)]) -> String {
    mix.iter().map(|(_, s)| s.name.as_str()).collect::<Vec<_>>().join("+")
}

/// Placement-policy capacity shoot-out on shared-stream mixes at N=4: one
/// row per mix, one column per [`Placement`].
pub fn cluster_policy_table(
    specs: &[BenchmarkSpec],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
) -> FigureTable {
    let mixes = policy_mixes(specs);
    let cells: Vec<(usize, Placement)> =
        (0..mixes.len()).flat_map(|m| Placement::ALL.map(|p| (m, p))).collect();
    let caps = par_map(&cells, |&(m, p)| cluster_capacity(&mixes[m], gpu, 4, p, cfg) as f64);
    let n = Placement::ALL.len();
    let rows = mixes
        .iter()
        .enumerate()
        .map(|(m, mix)| (mix_label(mix), caps[m * n..(m + 1) * n].to_vec()))
        .collect();
    FigureTable {
        id: "cluster_policy",
        title: "Placement policies on shared-stream mixes: max warm sessions, N=4".to_string(),
        columns: Placement::ALL.iter().map(|p| p.label().to_string()).collect(),
        rows,
    }
}

/// Scans seeds until the plan actually perturbs a server rate on the vsync
/// grid within the run horizon. Returns the settled plan. Shared with the
/// health gate ([`crate::metrics`]), which evaluates SLO compliance at the
/// same operating points this sweep measures.
pub(crate) fn effective_plan(
    scenario: FaultScenario,
    severity: f64,
    base_seed: u64,
    servers: u32,
    horizon: oovr_trace::Cycle,
    vsync: oovr_trace::Cycle,
) -> FaultPlan {
    let mut last = FaultPlan::new(scenario, severity, base_seed).with_horizon(horizon);
    for s in 0..SEED_SCAN {
        let plan =
            FaultPlan::new(scenario, severity, base_seed.wrapping_add(s)).with_horizon(horizon);
        if plan.disturbs_servers(servers as usize, vsync) {
            return plan;
        }
        last = plan;
    }
    last
}

/// The chaos sweep: every (scenario × severity) cell against every
/// placement policy, resilient router vs. the retry-free baseline, on an
/// identical seeded fault. Returns the goodput table (rows
/// `scenario/severity`, one baseline and one `+res` column per policy)
/// plus the flat cells for programmatic validation. A fault-free `none`
/// reference row leads the table.
///
/// The offered load is [`CHAOS_LOAD`] of the mix's fault-free N=4
/// least-loaded capacity, arriving over `cfg.arrival_intervals`.
pub fn chaos_table(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
) -> (FigureTable, Vec<ChaosCell>) {
    let servers = 4u32;
    let cap = cluster_capacity(mix, gpu, servers, Placement::LeastLoaded, cfg);
    let sessions = (((cap as f64) * CHAOS_LOAD) as u32).max(1);
    let v = cfg.vsync_cycles.max(1);
    // Last interval any session can still serve a paced frame: the latest
    // arrival (`arrival_intervals - 1`) plus its final frame. Scanning past
    // it would accept plans whose only disturbance lands after the run is
    // over — a vacuous chaos cell.
    let horizon = (cfg.arrival_intervals.saturating_sub(1) + cfg.frames_per_session) as u64 * v;

    let mut grid: Vec<(Option<(FaultScenario, f64)>, usize)> = vec![(None, 0)];
    for (si, scenario) in FaultScenario::ALL.into_iter().enumerate() {
        for (vi, &sev) in CHAOS_SEVERITIES.iter().enumerate() {
            grid.push((Some((scenario, sev)), si * CHAOS_SEVERITIES.len() + vi + 1));
        }
    }

    let rows_cells: Vec<(String, Vec<f64>, Vec<ChaosCell>)> = par_map(&grid, |&(cell, idx)| {
        let (name, severity, plan) = match cell {
            None => ("none", 0.0, None),
            Some((scenario, sev)) => {
                let base_seed = cfg.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9);
                let plan = effective_plan(scenario, sev, base_seed, servers, horizon, v);
                (scenario.name(), sev, Some(plan))
            }
        };
        let mut vals = Vec::with_capacity(Placement::ALL.len() * 2);
        let mut cells = Vec::with_capacity(Placement::ALL.len());
        for policy in Placement::ALL {
            let run = |router: Router| {
                let run_cfg = ClusterConfig {
                    servers,
                    sessions,
                    policy,
                    router,
                    fault: plan.clone(),
                    ..cfg.clone()
                };
                simulate_cluster(mix, gpu, &run_cfg, None).goodput()
            };
            let baseline = run(Router::Baseline);
            let resilient = run(Router::Resilient);
            vals.push(baseline);
            vals.push(resilient);
            cells.push(ChaosCell {
                scenario: name,
                severity,
                policy: policy.label(),
                baseline,
                resilient,
                seed: plan.as_ref().map_or(0, |p| p.seed),
            });
        }
        (format!("{name}/{severity:.2}"), vals, cells)
    });

    let mut columns = Vec::new();
    for p in Placement::ALL {
        columns.push(p.label().to_string());
        columns.push(format!("{}+res", p.label()));
    }
    let table = FigureTable {
        id: "chaos",
        title: format!(
            "Chaos sweep: goodput under server faults at {:.0}% offered load, N=4 ({} sessions)",
            CHAOS_LOAD * 100.0,
            sessions
        ),
        columns,
        rows: rows_cells.iter().map(|(l, v, _)| (l.clone(), v.clone())).collect(),
    };
    let cells = rows_cells.into_iter().flat_map(|(_, _, c)| c).collect();
    (table, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::benchmarks;

    fn specs() -> Vec<BenchmarkSpec> {
        vec![benchmarks::hl2_640().scaled(0.05), benchmarks::we().scaled(0.05)]
    }

    #[test]
    fn scale_table_shape_and_efficiency() {
        let t =
            cluster_scale_table(&specs()[..1], &GpuConfig::default(), &ClusterConfig::default());
        assert_eq!(t.id, "cluster");
        assert_eq!(t.columns, vec!["N=1", "N=2", "N=4", "N=8", "eff(4)"]);
        assert_eq!(t.rows.len(), 1);
        let label = t.rows[0].0.clone();
        assert!(label.starts_with("HL2-640"), "row label {label} must name the workload");
        let eff = t.value(&label, "eff(4)").expect("eff cell");
        assert!(eff >= 0.9, "N=4 scaling efficiency {eff} below 0.9");
    }

    #[test]
    fn policy_table_affinity_beats_least_loaded() {
        let t = cluster_policy_table(&specs(), &GpuConfig::default(), &ClusterConfig::default());
        assert_eq!(t.rows.len(), 1, "two specs yield exactly the k=2 mix");
        let row = &t.rows[0];
        assert_eq!(row.0, "HL2-640@0.05+WE@0.05");
        let ll = t.value(&row.0, "least-loaded").expect("ll cell");
        let af = t.value(&row.0, "affinity").expect("af cell");
        assert!(af > ll, "affinity {af} must strictly beat least-loaded {ll}");
    }

    #[test]
    fn effective_plans_always_disturb() {
        let v = oovr_gpu::VSYNC_90HZ_CYCLES;
        let horizon = 40 * v;
        for scenario in FaultScenario::ALL {
            for sev in CHAOS_SEVERITIES {
                let plan = effective_plan(scenario, sev, 7, 4, horizon, v);
                assert!(
                    plan.disturbs_servers(4, v),
                    "{}/{sev} plan must disturb after seed scanning",
                    scenario.name()
                );
            }
        }
    }

    #[test]
    fn chaos_cells_mark_resilient_strictly_better_under_faults() {
        // Reduced grid cost: one workload, small frames; the full-scale
        // strictness gate lives in `figures -- chaos`.
        let mix = vec![(ServeScheme::OoVr, benchmarks::hl2_640().scaled(0.05))];
        let cfg = ClusterConfig { frames_per_session: 16, ..ClusterConfig::default() };
        let (table, cells) = chaos_table(&mix, &GpuConfig::default(), &cfg);
        assert_eq!(table.rows.len(), 1 + FaultScenario::ALL.len() * CHAOS_SEVERITIES.len());
        assert_eq!(cells.len(), table.rows.len() * Placement::ALL.len());
        for c in &cells {
            if c.severity > 0.0 {
                assert!(
                    c.resilient > c.baseline,
                    "{}/{:.2}/{}: resilient {} must strictly beat baseline {}",
                    c.scenario,
                    c.severity,
                    c.policy,
                    c.resilient,
                    c.baseline
                );
            } else {
                assert!((c.resilient - c.baseline).abs() < 1e-12, "fault-free arms must agree");
            }
        }
    }
}
