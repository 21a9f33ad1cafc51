//! Serving-capacity probes: how many concurrent sessions each scheme
//! sustains at 90 Hz with under 1% missed vsyncs.
//!
//! Capacity is a *steady-state* property: the probe simulates `N` already
//! warm sessions, uniformly staggered across one vsync interval, each
//! releasing a steady-cost frame per interval, and multiplexes them EDF on
//! the single 4-GPM renderer. Warm-up and admission dynamics are exercised
//! by [`crate::scheduler::simulate`]; folding the one-time cold frame into
//! a capacity number would charge a per-session transient against a
//! sustained rate.
//!
//! With all deadlines exactly one interval after release, EDF order equals
//! release order (DESIGN.md, "Scheduling is EDF against the vsync grid"),
//! so the probe is an exact linear-time EDF simulation — no heap, no
//! approximation. The reported capacity is the largest `N` whose
//! missed-vsync fraction over the probe horizon stays below
//! [`MISS_BUDGET`], found by doubling + binary search seeded at the
//! utilization bound `V / cost`.
//!
//! For shedding schemes the probe charges each frame at the shedding floor
//! (`shed_floor · steady`): the capacity of `OOVR+shed` is the maximum
//! *degraded-quality* session count the scheduler can hold at the floor,
//! which is the honest upper line of the quality/capacity trade-off.
//!
//! Temporal-reuse schemes get per-`(session, frame)` costs instead of one
//! flat steady cost: each probed session follows its own seeded head-pose
//! trajectory (seeds are per-session, independent of `N`, so raising the
//! probe count never re-randomizes earlier sessions), and every frame
//! after the first is priced by the pose delta through
//! [`oovr::temporal::TemporalProfile::decide`].

use oovr::experiments::{par_map, FigureTable};
use oovr::temporal::TemporalProfile;
use oovr_gpu::GpuConfig;
use oovr_scene::BenchmarkSpec;
use oovr_trace::Cycle;

use crate::pose::session_trajectory;
use crate::scheduler::ServeConfig;
use crate::stream::{cost_stream, ServeScheme};

/// Maximum tolerated fraction of missed vsyncs (the "<1%" SLO).
pub const MISS_BUDGET: f64 = 0.01;

/// Backstop on the capacity search range (far above any real result).
const MAX_SESSIONS: u32 = 1 << 22;

/// Probe horizon in vsync intervals. Long enough that a sustained
/// overload's backlog drift (one interval per `1/overload` frames) surfaces
/// as misses: the probe can overestimate the utilization bound by at most
/// `~1/(PROBE_FRAMES - 1)`.
pub(crate) const PROBE_FRAMES: u32 = 64;

/// Distinct head-pose trajectories the temporal probe draws from: session
/// `i` follows trajectory `i % TEMPORAL_POOL`. Vectors stay independent of
/// the probed `N` (the pool index never looks at `N`), while the probe's
/// decision work stays bounded when reduced-scale runs push capacity into
/// the thousands.
const TEMPORAL_POOL: u32 = 256;

/// Exact EDF feasibility of `n` warm staggered sessions whose frame `f`
/// of session `i` costs `cost(i, f)` cycles, over `frames` intervals of
/// `vsync` cycles each.
fn feasible_costs(n: u32, vsync: Cycle, frames: u32, cost: impl Fn(u64, u64) -> Cycle) -> bool {
    if n == 0 {
        return true;
    }
    let total = n as u64 * frames as u64;
    let allowed = ((total as f64) * MISS_BUDGET).floor() as u64;
    let mut missed = 0u64;
    let mut now: Cycle = 0;
    // Releases in global time order: session i's frame f at
    // i·(V/n) + f·V, all offsets inside one interval.
    for f in 0..frames as u64 {
        for i in 0..n as u64 {
            let release = (i * vsync) / n as u64 + f * vsync;
            let start = now.max(release);
            let end = start + cost(i, f);
            if end > release + vsync {
                missed += 1;
                if missed > allowed {
                    return false;
                }
            }
            now = end;
        }
    }
    true
}

/// [`feasible_costs`] with one flat per-frame `cost` for every session.
fn feasible(n: u32, cost: Cycle, vsync: Cycle, frames: u32) -> bool {
    feasible_costs(n, vsync, frames, |_, _| cost)
}

/// Per-frame probe costs of one temporal session: frame 0 pays the full
/// steady cost (no predecessor pose), later frames are priced by the pose
/// delta of the session's [`session_trajectory`] — the path the scheduler
/// gives session `i` — so its cost vector is independent of how many
/// sessions the probe runs.
fn temporal_session_costs(
    profile: &TemporalProfile,
    threshold: f64,
    seed: u64,
    session: u64,
    frames: u32,
) -> Vec<Cycle> {
    let steady = profile.steady_cycles().max(1);
    let warm = profile.decisions(session_trajectory(seed, session), threshold);
    let warm = warm.take(frames.saturating_sub(1) as usize).map(|d| d.apply(steady));
    std::iter::once(steady).chain(warm).collect()
}

/// Steady per-frame cost the probe charges `scheme` (shedding schemes are
/// charged at the shedding floor — see the module docs).
fn probe_cost(
    scheme: ServeScheme,
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &ServeConfig,
) -> Cycle {
    let steady = cost_stream(scheme, spec, gpu).steady().frame_cycles;
    let cost = if scheme.sheds() {
        ((steady as f64) * cfg.resilience.shed_floor).round() as Cycle
    } else {
        steady
    };
    cost.max(1)
}

/// Maximum concurrent warm sessions of `spec` that `scheme` sustains at
/// under [`MISS_BUDGET`] missed vsyncs. Deterministic and pure.
pub fn capacity(
    scheme: ServeScheme,
    spec: &BenchmarkSpec,
    gpu: &GpuConfig,
    cfg: &ServeConfig,
) -> u32 {
    let v = cfg.vsync_cycles.max(1);
    let frames = PROBE_FRAMES;
    let cost = probe_cost(scheme, spec, gpu, cfg);
    if scheme.temporal() {
        // Per-session pose-driven cost vectors, cached and lazily grown as
        // the search probes larger N (seeds never depend on N, so earlier
        // sessions keep their vectors).
        let stream = cost_stream(scheme, spec, gpu);
        let profile = stream.temporal.as_ref().expect("temporal streams carry a profile");
        let threshold = cfg.temporal.reuse_threshold;
        let mut cache: Vec<Vec<Cycle>> = Vec::new();
        return search(v, cost, |n| {
            while cache.len() < (n.min(TEMPORAL_POOL)) as usize {
                let i = cache.len() as u64;
                cache.push(temporal_session_costs(profile, threshold, cfg.seed, i, frames));
            }
            let pool = cache.len() as u64;
            feasible_costs(n, v, frames, |i, f| cache[(i % pool) as usize][f as usize])
        });
    }
    search(v, cost, |n| feasible(n, cost, v, frames))
}

/// Doubling + bisection over `feas`, seeded at the utilization bound
/// (`N·cost = V`) — always feasible for staggered implicit-deadline EDF
/// with per-frame costs at most `cost`. The cluster probe seeds it at the
/// fleet's bound (`v = N·V` over its cheapest stream).
pub(crate) fn search(v: Cycle, cost: Cycle, mut feas: impl FnMut(u32) -> bool) -> u32 {
    if !feas(1) {
        return 0;
    }
    let mut lo = ((v / cost) as u32).clamp(1, MAX_SESSIONS);
    if !feas(lo) {
        lo = 1;
    }
    let mut hi = lo.saturating_mul(2).min(MAX_SESSIONS);
    while feas(hi) && hi < MAX_SESSIONS {
        lo = hi;
        hi = hi.saturating_mul(2).min(MAX_SESSIONS);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feas(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The `serve` capacity table: one row per workload, one column per
/// [`ServeScheme`], cell = [`capacity`]. Probes evaluate in parallel over
/// the flattened `(workload, scheme)` grid — each cell's dominant cost is
/// rendering its cost stream (memoized per cell key), so flattening spreads
/// those renders across every core instead of serializing the five schemes
/// inside a workload row.
pub fn capacity_table(specs: &[BenchmarkSpec], gpu: &GpuConfig, cfg: &ServeConfig) -> FigureTable {
    let cells: Vec<(&BenchmarkSpec, ServeScheme)> =
        specs.iter().flat_map(|spec| ServeScheme::ALL.map(|s| (spec, s))).collect();
    let vals = par_map(&cells, |&(spec, s)| capacity(s, spec, gpu, cfg) as f64);
    let n = ServeScheme::ALL.len();
    let rows = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| (spec.name.clone(), vals[i * n..(i + 1) * n].to_vec()))
        .collect();
    FigureTable {
        id: "serve",
        title: format!(
            "Serving capacity: max concurrent sessions at <{:.0}% missed vsync, 90 Hz",
            MISS_BUDGET * 100.0
        ),
        columns: ServeScheme::ALL.iter().map(|s| s.label().to_string()).collect(),
        rows,
    }
    .with_geomean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::benchmarks;

    fn spec() -> BenchmarkSpec {
        benchmarks::hl2_640().scaled(0.05)
    }

    #[test]
    fn feasibility_tracks_utilization() {
        // 10 sessions × cost 100 = exactly one interval of 1000: feasible.
        assert!(feasible(10, 100, 1_000, PROBE_FRAMES));
        // 5% overload drifts a growing backlog: infeasible over the probe.
        assert!(!feasible(21, 100, 2_000, PROBE_FRAMES));
        // A single session whose frame exceeds the interval never fits.
        assert!(!feasible(1, 1_500, 1_000, PROBE_FRAMES));
    }

    #[test]
    fn capacity_brackets_the_utilization_bound() {
        let cfg = ServeConfig::default();
        let gpu = GpuConfig::default();
        let cost = probe_cost(ServeScheme::Baseline, &spec(), &gpu, &cfg);
        let bound = (cfg.vsync_cycles / cost) as u32;
        let cap = capacity(ServeScheme::Baseline, &spec(), &gpu, &cfg);
        assert!(cap >= bound, "utilization bound {bound} must be feasible, got {cap}");
        // The 1% miss budget buys only marginal headroom above the bound.
        assert!(cap <= bound + bound / 20 + 2, "cap {cap} strays far above bound {bound}");
    }

    #[test]
    fn oovr_serves_strictly_more_sessions_than_baseline() {
        let cfg = ServeConfig::default();
        let gpu = GpuConfig::default();
        for s in [benchmarks::hl2_640().scaled(0.05), benchmarks::dm3_640().scaled(0.05)] {
            let base = capacity(ServeScheme::Baseline, &s, &gpu, &cfg);
            let oovr = capacity(ServeScheme::OoVr, &s, &gpu, &cfg);
            assert!(oovr > base, "{}: OOVR {oovr} must beat Baseline {base}", s.name);
        }
    }

    #[test]
    fn shedding_buys_capacity_at_the_quality_floor() {
        let cfg = ServeConfig::default();
        let gpu = GpuConfig::default();
        let oovr = capacity(ServeScheme::OoVr, &spec(), &gpu, &cfg);
        let shed = capacity(ServeScheme::OoVrShed, &spec(), &gpu, &cfg);
        assert!(shed > oovr, "floor-quality capacity {shed} must exceed full-quality {oovr}");
    }

    #[test]
    fn temporal_reuse_buys_capacity_over_plain_oovr() {
        let cfg = ServeConfig::default();
        let gpu = GpuConfig::default();
        let oovr = capacity(ServeScheme::OoVr, &spec(), &gpu, &cfg);
        let temporal = capacity(ServeScheme::OoVrTemporal, &spec(), &gpu, &cfg);
        assert!(
            temporal > oovr,
            "pose-correlated reuse capacity {temporal} must exceed full re-render {oovr}"
        );
        // At threshold zero nothing reuses; the probe collapses to OO-VR's.
        let exact = ServeConfig { temporal: oovr::TemporalConfig::exact(), ..cfg };
        assert_eq!(capacity(ServeScheme::OoVrTemporal, &spec(), &gpu, &exact), oovr);
    }

    #[test]
    fn capacity_table_has_one_column_per_scheme_and_a_geomean_row() {
        let specs = vec![spec()];
        let t = capacity_table(&specs, &GpuConfig::default(), &ServeConfig::default());
        assert_eq!(t.id, "serve");
        assert_eq!(t.columns.len(), ServeScheme::ALL.len());
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1].0, "Avg.");
        let base = t.value(&specs[0].name, "Baseline").unwrap();
        let oovr = t.value(&specs[0].name, "OOVR").unwrap();
        assert!(oovr > base);
    }
}
