//! Canned experiment runners: one per table/figure of the paper's
//! evaluation. The `oovr-bench` `figures` binary prints these; integration
//! tests assert their shapes at reduced scale.
//!
//! Every runner takes the workload specs to evaluate (use
//! [`paper_workloads`] for the nine points of the evaluation) so tests can
//! run scaled-down versions of exactly the same code path.

use std::fmt;

use oovr_frameworks::{Afr, Baseline, ObjectSfr, RenderScheme, SortMiddle, TileSfr};
use oovr_gpu::{FrameReport, GpuConfig};
use oovr_scene::{benchmarks, BenchmarkSpec, Eye, Scene};

use crate::cache::{self, SceneHandle};
use crate::schemes::{OoApp, OoVr};

/// The nine evaluation workloads (Table 3), scaled by `scale` in `(0,1]`
/// (1.0 reproduces the paper's resolutions and draw counts).
pub fn paper_workloads(scale: f64) -> Vec<BenchmarkSpec> {
    benchmarks::all().into_iter().map(|s| if scale >= 1.0 { s } else { s.scaled(scale) }).collect()
}

/// Identifies a rendering scheme for experiment matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Baseline single programming model.
    Baseline,
    /// Frame-level AFR.
    FrameLevel,
    /// Vertical tile SFR.
    TileV,
    /// Horizontal tile SFR.
    TileH,
    /// Object-level SFR.
    ObjectLevel,
    /// OO programming model + middleware only.
    OoApp,
    /// Full OO-VR.
    OoVr,
    /// Sort-middle primitive redistribution (GPUpd-style, extension).
    SortMiddle,
}

impl SchemeKind {
    /// Runs one frame of `scene` under this scheme.
    pub fn render(self, scene: &Scene, cfg: &GpuConfig) -> FrameReport {
        match self {
            SchemeKind::Baseline => Baseline::new().render_frame(scene, cfg),
            SchemeKind::FrameLevel => Afr::new().render_frame(scene, cfg),
            SchemeKind::TileV => TileSfr::vertical().render_frame(scene, cfg),
            SchemeKind::TileH => TileSfr::horizontal().render_frame(scene, cfg),
            SchemeKind::ObjectLevel => ObjectSfr::new().render_frame(scene, cfg),
            SchemeKind::OoApp => OoApp::new().render_frame(scene, cfg),
            SchemeKind::OoVr => OoVr::new().render_frame(scene, cfg),
            SchemeKind::SortMiddle => SortMiddle::new().render_frame(scene, cfg),
        }
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "Baseline",
            SchemeKind::FrameLevel => "Frame-Level",
            SchemeKind::TileV => "Tile-Level (V)",
            SchemeKind::TileH => "Tile-Level (H)",
            SchemeKind::ObjectLevel => "Object-Level",
            SchemeKind::OoApp => "OO_APP",
            SchemeKind::OoVr => "OOVR",
            SchemeKind::SortMiddle => "Sort-Middle",
        }
    }
}

/// A results table: one row per workload (plus an average), one column per
/// configuration/scheme.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Figure/table id, e.g. `"fig15"`.
    pub id: &'static str,
    /// Human-readable description.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// `(row label, values)` pairs.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl FigureTable {
    /// Appends a geometric-mean row across existing rows (the paper reports
    /// averages of normalized metrics, for which the geomean is the
    /// appropriate aggregate).
    pub fn with_geomean(mut self) -> Self {
        if self.rows.is_empty() {
            return self;
        }
        let avg = (0..self.columns.len())
            .map(|c| Self::geomean(self.rows.iter().map(|(_, vals)| vals[c])))
            .collect();
        self.rows.push(("Avg.".to_string(), avg));
        self
    }

    /// The geometric mean of `vals` with the same clamping
    /// [`with_geomean`](Self::with_geomean) applies (values clamp up to
    /// `1e-12` before the log; an empty input yields 1.0). Shared by every
    /// runner that aggregates across workloads.
    pub fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
        let (mut acc, mut count) = (0.0f64, 0usize);
        for v in vals {
            acc += v.max(1e-12).ln();
            count += 1;
        }
        (acc / count.max(1) as f64).exp()
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("workload");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            out.push_str(label);
            for v in vals {
                out.push_str(&format!(",{v:.4}"));
            }
            out.push('\n');
        }
        out
    }

    /// The value at `(row_label, column)` if present.
    pub fn value(&self, row_label: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        let (_, vals) = self.rows.iter().find(|(l, _)| l == row_label)?;
        vals.get(col).copied()
    }
}

impl fmt::Display for FigureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        write!(f, "{:<12}", "workload")?;
        for c in &self.columns {
            write!(f, " {c:>16}")?;
        }
        writeln!(f)?;
        for (label, vals) in &self.rows {
            write!(f, "{label:<12}")?;
            for v in vals {
                write!(f, " {v:>16.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Maps items through `f` on a bounded pool of OS threads (the experiments
/// are embarrassingly parallel across workloads and grid cells).
///
/// Spawns `min(available_parallelism, items.len())` workers that pull from a
/// shared atomic work queue, so oversubscription never forces memory-heavy
/// renders to timeshare a core and thrash each other's cache working sets.
/// Output order matches input order. With one core (or one item) it runs
/// serially on the calling thread.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let order: Vec<usize> = (0..items.len()).collect();
    par_map_in_order(items, &order, f)
}

/// [`par_map`] with cost-aware scheduling: items are *processed* in
/// descending `cost` order (longest-expected-first), so a long straggler is
/// started early instead of serializing the tail of the pool after the
/// cheap items drain. Output order still matches input order, and every
/// item is mapped exactly once, so results are identical to [`par_map`] for
/// any order-independent `f`.
pub fn par_map_by_cost<T: Sync, U: Send>(
    items: &[T],
    cost: impl Fn(&T) -> u64,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    // Stable sort: equal-cost items keep input order, so scheduling is
    // deterministic.
    order.sort_by_key(|&i| std::cmp::Reverse(cost(&items[i])));
    par_map_in_order(items, &order, f)
}

fn par_map_in_order<T: Sync, U: Send>(
    items: &[T],
    order: &[usize],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = items.len();
    let workers =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(n);
    if workers <= 1 {
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for &i in order {
            out[i] = Some(f(&items[i]));
        }
        return out.into_iter().map(|o| o.expect("order covers every index")).collect();
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= n {
                            break;
                        }
                        let i = order[slot];
                        got.push((i, f(&items[i])));
                    }
                    got
                })
            })
            .collect();
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for h in handles {
            for (i, u) in h.join().expect("experiment thread panicked") {
                out[i] = Some(u);
            }
        }
        out.into_iter().map(|o| o.expect("work queue covered every index")).collect()
    })
}

/// Fig. 4: baseline performance sensitivity to inter-GPM link bandwidth,
/// normalized to the 1 TB/s configuration (values ≤ 1 are slowdowns).
pub fn fig4(specs: &[BenchmarkSpec]) -> FigureTable {
    let bws = [1000.0, 256.0, 128.0, 64.0, 32.0];
    let rows = par_map(specs, |spec| {
        let scene = cache::scene_for(spec);
        let cycles: Vec<f64> = bws
            .iter()
            .map(|&bw| {
                let cfg = GpuConfig::default().with_link_gbps(bw);
                cache::render(SchemeKind::Baseline, &scene, &cfg).frame_cycles as f64
            })
            .collect();
        let base = cycles[0];
        (spec.name.clone(), cycles.into_iter().map(|c| base / c).collect())
    });
    FigureTable {
        id: "fig4",
        title: "Baseline perf vs inter-GPM link bandwidth (normalized to 1TB/s)".into(),
        columns: vec![
            "1TB/s".into(),
            "256GB/s".into(),
            "128GB/s".into(),
            "64GB/s".into(),
            "32GB/s".into(),
        ],
        rows,
    }
    .with_geomean()
}

/// §3 validation: SMP-enabled rendering speedup over sequential two-view
/// rendering on a single GPM (the paper measures ~1.27×).
pub fn smp_validation(specs: &[BenchmarkSpec]) -> FigureTable {
    use oovr_gpu::{ColorMode, Composition, Executor, FbOrg, RenderUnit};
    use oovr_mem::{GpmId, Placement};
    let cfg = GpuConfig::default().with_n_gpms(1);
    let rows = par_map(specs, |spec| {
        let scene = spec.build();
        let mut smp = Executor::new(
            cfg.clone(),
            &scene,
            Placement::FirstTouch,
            FbOrg::Single(GpmId(0)),
            ColorMode::Direct,
        );
        for o in scene.objects() {
            smp.exec_unit(GpmId(0), &RenderUnit::smp(o.id()));
        }
        let smp_cycles = smp.finish("smp", Composition::None).frame_cycles;

        let mut seq = Executor::new(
            cfg.clone(),
            &scene,
            Placement::FirstTouch,
            FbOrg::Single(GpmId(0)),
            ColorMode::Direct,
        );
        for eye in Eye::BOTH {
            for o in scene.objects() {
                seq.exec_unit(GpmId(0), &RenderUnit::single(o.id(), eye));
            }
        }
        let seq_cycles = seq.finish("seq", Composition::None).frame_cycles;
        (spec.name.clone(), vec![seq_cycles as f64 / smp_cycles as f64])
    });
    FigureTable {
        id: "smp",
        title: "SMP speedup over sequential stereo rendering (§3, ~1.27x)".into(),
        columns: vec!["SMP speedup".into()],
        rows,
    }
    .with_geomean()
}

/// Fig. 7: AFR overall performance (left) and single-frame latency (right),
/// both normalized to the baseline.
pub fn fig7(specs: &[BenchmarkSpec]) -> FigureTable {
    let cfg = GpuConfig::default();
    let rows = par_map(specs, |spec| {
        let scene = cache::scene_for(spec);
        let base = cache::render(SchemeKind::Baseline, &scene, &cfg);
        let afr = cache::render(SchemeKind::FrameLevel, &scene, &cfg);
        let overall = Afr::new().overall_fps(&afr, &cfg) / base.fps();
        let latency = afr.frame_cycles as f64 / base.frame_cycles as f64;
        (spec.name.clone(), vec![overall, latency])
    });
    FigureTable {
        id: "fig7",
        title: "AFR: overall performance and single-frame latency vs baseline".into(),
        columns: vec!["Overall perf".into(), "Frame latency".into()],
        rows,
    }
    .with_geomean()
}

/// Fig. 8: SFR scheme performance normalized to the baseline.
pub fn fig8(specs: &[BenchmarkSpec]) -> FigureTable {
    scheme_speedups(
        specs,
        "fig8",
        "SFR performance normalized to baseline",
        &[SchemeKind::TileV, SchemeKind::TileH, SchemeKind::ObjectLevel],
        &GpuConfig::default(),
    )
}

/// Fig. 9: SFR inter-GPM memory traffic normalized to the baseline.
pub fn fig9(specs: &[BenchmarkSpec]) -> FigureTable {
    scheme_traffic(
        specs,
        "fig9",
        "SFR inter-GPM traffic normalized to baseline",
        &[SchemeKind::TileV, SchemeKind::TileH, SchemeKind::ObjectLevel],
    )
}

/// Fig. 10: best-to-worst GPM busy-time ratio under object-level SFR.
pub fn fig10(specs: &[BenchmarkSpec]) -> FigureTable {
    let cfg = GpuConfig::default();
    let rows = par_map(specs, |spec| {
        let scene = cache::scene_for(spec);
        let r = cache::render(SchemeKind::ObjectLevel, &scene, &cfg);
        (spec.name.clone(), vec![r.imbalance_ratio()])
    });
    FigureTable {
        id: "fig10",
        title: "Object-level SFR best-to-worst GPM time ratio".into(),
        columns: vec!["Best-to-worst".into()],
        rows,
    }
    .with_geomean()
}

/// Fig. 10 companion: accuracy of the Eq. 3 execution-time predictor under
/// full OO-VR — mean and max relative error of predicted vs actual batch
/// cycles, plus the number of predicted batches sampled. Complements the
/// imbalance ratio story: the predictor is what turns Fig. 10's imbalance
/// into Fig. 15's speedup, so its error bounds matter.
pub fn prediction_error(specs: &[BenchmarkSpec]) -> FigureTable {
    let cfg = GpuConfig::default();
    let rows = par_map(specs, |spec| {
        let scene = spec.build();
        let (_, stats) = OoVr::new().render_frame_with_stats(&scene, &cfg);
        (
            spec.name.clone(),
            vec![
                stats.prediction_error_mean,
                stats.prediction_error_max,
                stats.prediction_samples as f64,
            ],
        )
    });
    FigureTable {
        id: "fig10_pred",
        title: "Eq. 3 predictor relative error (predicted vs actual batch cycles)".into(),
        columns: vec!["mean rel err".into(), "max rel err".into(), "samples".into()],
        rows,
    }
}

/// Fig. 15: single-frame speedup of the design scenarios over the baseline.
/// Frame-Level is reported as *overall* throughput (its single-frame story
/// is Fig. 7's right panel), matching the paper's framing.
pub fn fig15(specs: &[BenchmarkSpec]) -> FigureTable {
    let cfg = GpuConfig::default();
    let cfg_1tb = GpuConfig::default().with_link_gbps(1000.0);
    let rows = par_map(specs, |spec| {
        let scene = cache::scene_for(spec);
        let base = cache::render(SchemeKind::Baseline, &scene, &cfg);
        let object = cache::render(SchemeKind::ObjectLevel, &scene, &cfg);
        let afr = cache::render(SchemeKind::FrameLevel, &scene, &cfg);
        let bw1tb = cache::render(SchemeKind::Baseline, &scene, &cfg_1tb);
        let ooapp = cache::render(SchemeKind::OoApp, &scene, &cfg);
        let oovr = cache::render(SchemeKind::OoVr, &scene, &cfg);
        let s = |r: &FrameReport| base.frame_cycles as f64 / r.frame_cycles as f64;
        (
            spec.name.clone(),
            vec![
                s(&object),
                Afr::new().overall_fps(&afr, &cfg) / base.fps(),
                s(&bw1tb),
                s(&ooapp),
                s(&oovr),
            ],
        )
    });
    FigureTable {
        id: "fig15",
        title: "Speedup over baseline (single frame)".into(),
        columns: vec![
            "Object-Level".into(),
            "Frame-Level".into(),
            "1TB/s-BW".into(),
            "OO_APP".into(),
            "OOVR".into(),
        ],
        rows,
    }
    .with_geomean()
}

/// Fig. 16: inter-GPM traffic of Baseline / Object-level / OO-VR,
/// normalized to the baseline.
pub fn fig16(specs: &[BenchmarkSpec]) -> FigureTable {
    let mut t = scheme_traffic(
        specs,
        "fig16",
        "Inter-GPM traffic normalized to baseline",
        &[SchemeKind::ObjectLevel, SchemeKind::OoVr],
    );
    // Present with an explicit Baseline=1 column like the paper's bars.
    t.columns.insert(0, "Baseline".into());
    for (_, vals) in &mut t.rows {
        vals.insert(0, 1.0);
    }
    t
}

/// Fig. 17: average speedup (over all workloads) of Baseline / Object-level
/// / OO-VR under different link bandwidths, normalized to Baseline@64GB/s.
pub fn fig17(specs: &[BenchmarkSpec]) -> FigureTable {
    let bws = [32.0, 64.0, 128.0, 256.0];
    let schemes = [SchemeKind::Baseline, SchemeKind::ObjectLevel, SchemeKind::OoVr];
    let scenes = par_map(specs, cache::scene_for);
    // Flatten the workload × scheme × bandwidth grid so the pool schedules
    // every render independently instead of serializing each inner sweep.
    let mut grid = Vec::new();
    for wi in 0..specs.len() {
        for si in 0..schemes.len() {
            for bi in 0..bws.len() {
                grid.push((wi, si, bi));
            }
        }
    }
    let cells = par_map(&grid, |&(wi, si, bi)| {
        let cfg = GpuConfig::default().with_link_gbps(bws[bi]);
        cache::render(schemes[si], &scenes[wi], &cfg).frame_cycles as f64
    });
    // cycles[workload][scheme][bw]
    let mut all = vec![[[0.0f64; 4]; 3]; specs.len()];
    for (&(wi, si, bi), c) in grid.iter().zip(&cells) {
        all[wi][si][bi] = *c;
    }
    let mut rows = Vec::new();
    for (si, k) in schemes.iter().enumerate() {
        let mut vals = Vec::new();
        for (bi, _) in bws.iter().enumerate() {
            // Geometric mean across workloads of cycles(base@64)/cycles(k@bw).
            vals.push(FigureTable::geomean(all.iter().map(|w| w[0][1] / w[si][bi])));
        }
        rows.push((k.label().to_string(), vals));
    }
    FigureTable {
        id: "fig17",
        title: "Speedup vs inter-GPM bandwidth (normalized to Baseline@64GB/s)".into(),
        columns: bws.iter().map(|b| format!("{b:.0}GB/s")).collect(),
        rows,
    }
}

/// Fig. 18: average speedup over a single GPM as the GPM count scales
/// (1, 2, 4, 8) for Baseline / Object-level / OO-VR.
pub fn fig18(specs: &[BenchmarkSpec]) -> FigureTable {
    let ns = [1usize, 2, 4, 8];
    let schemes = [SchemeKind::Baseline, SchemeKind::ObjectLevel, SchemeKind::OoVr];
    let scenes = par_map(specs, cache::scene_for);
    // Flatten the workload × scheme × GPM-count grid (same shape as fig17).
    let mut grid = Vec::new();
    for wi in 0..specs.len() {
        for si in 0..schemes.len() {
            for ni in 0..ns.len() {
                grid.push((wi, si, ni));
            }
        }
    }
    let cells = par_map(&grid, |&(wi, si, ni)| {
        let cfg = GpuConfig::default().with_n_gpms(ns[ni]);
        cache::render(schemes[si], &scenes[wi], &cfg).frame_cycles as f64
    });
    // cycles[workload][scheme][gpm-count]
    let mut all = vec![[[0.0f64; 4]; 3]; specs.len()];
    for (&(wi, si, ni), c) in grid.iter().zip(&cells) {
        all[wi][si][ni] = *c;
    }
    let mut rows = Vec::new();
    for (si, k) in schemes.iter().enumerate() {
        let mut vals = Vec::new();
        for (ni, _) in ns.iter().enumerate() {
            // Normalize to the same scheme at 1 GPM (single-GPU system).
            vals.push(FigureTable::geomean(all.iter().map(|w| w[si][0] / w[si][ni])));
        }
        rows.push((k.label().to_string(), vals));
    }
    FigureTable {
        id: "fig18",
        title: "Speedup over single GPU vs number of GPMs".into(),
        columns: ns.iter().map(|n| format!("{n} GPM")).collect(),
        rows,
    }
}

fn scheme_speedups(
    specs: &[BenchmarkSpec],
    id: &'static str,
    title: &str,
    schemes: &[SchemeKind],
    cfg: &GpuConfig,
) -> FigureTable {
    let rows = par_map(specs, |spec| {
        let scene = cache::scene_for(spec);
        let base = cache::render(SchemeKind::Baseline, &scene, cfg);
        let vals = schemes
            .iter()
            .map(|&k| base.frame_cycles as f64 / cache::render(k, &scene, cfg).frame_cycles as f64)
            .collect();
        (spec.name.clone(), vals)
    });
    FigureTable {
        id,
        title: title.into(),
        columns: schemes.iter().map(|k| k.label().to_string()).collect(),
        rows,
    }
    .with_geomean()
}

fn scheme_traffic(
    specs: &[BenchmarkSpec],
    id: &'static str,
    title: &str,
    schemes: &[SchemeKind],
) -> FigureTable {
    let cfg = GpuConfig::default();
    let rows = par_map(specs, |spec| {
        let scene = cache::scene_for(spec);
        // Steady-state traffic: excludes the PA units' one-time data
        // distribution, which a frame sequence pays only on the first frame.
        let base =
            cache::render(SchemeKind::Baseline, &scene, &cfg).steady_inter_gpm_bytes().max(1);
        let vals = schemes
            .iter()
            .map(|&k| cache::render(k, &scene, &cfg).steady_inter_gpm_bytes() as f64 / base as f64)
            .collect();
        (spec.name.clone(), vals)
    });
    FigureTable {
        id,
        title: title.into(),
        columns: schemes.iter().map(|k| k.label().to_string()).collect(),
        rows,
    }
    .with_geomean()
}

/// §6.2 energy companion to Fig. 16: inter-GPM link energy per frame (µJ)
/// at board-level integration (10 pJ/bit), for Baseline / Object-level /
/// OO-VR, plus the node-level (250 pJ/bit) multiplier in the last column.
pub fn energy(specs: &[BenchmarkSpec]) -> FigureTable {
    use oovr_gpu::energy::{BOARD_PJ_PER_BIT, NODE_PJ_PER_BIT};
    let cfg = GpuConfig::default();
    // Steady-state link bytes (PA warm-up copies amortize to zero across a
    // frame sequence; see the `steady` experiment).
    let uj = |bytes: u64| bytes as f64 * 8.0 * BOARD_PJ_PER_BIT * 1e-6;
    let rows = par_map(specs, |spec| {
        let scene = cache::scene_for(spec);
        let base = cache::render(SchemeKind::Baseline, &scene, &cfg);
        let object = cache::render(SchemeKind::ObjectLevel, &scene, &cfg);
        let oovr = cache::render(SchemeKind::OoVr, &scene, &cfg);
        (
            spec.name.clone(),
            vec![
                uj(base.steady_inter_gpm_bytes()),
                uj(object.steady_inter_gpm_bytes()),
                uj(oovr.steady_inter_gpm_bytes()),
                NODE_PJ_PER_BIT / BOARD_PJ_PER_BIT,
            ],
        )
    });
    FigureTable {
        id: "energy",
        title: "Inter-GPM link energy per frame, µJ at 10 pJ/bit (§6.2)".into(),
        columns: vec!["Baseline".into(), "Object-Level".into(), "OOVR".into(), "node ×".into()],
        rows,
    }
    .with_geomean()
}

/// Ablation: OO-VR frame cycles (normalized to the paper's default
/// configuration) across TSL thresholds (paper: 0.5).
pub fn ablation_tsl(specs: &[BenchmarkSpec]) -> FigureTable {
    use crate::middleware::MiddlewareConfig;
    let thresholds = [0.1, 0.3, 0.5, 0.7, 0.9];
    ablation(
        specs,
        "ablation_tsl",
        "OO-VR cycles vs TSL threshold (normalized to 0.5)",
        &thresholds.map(|t| format!("tsl={t}")),
        2,
        |i| OoVr {
            middleware: MiddlewareConfig { tsl_threshold: thresholds[i], ..Default::default() },
            ..OoVr::new()
        },
    )
}

/// Ablation: OO-VR frame cycles across batch triangle caps (paper: 4096).
pub fn ablation_batch_cap(specs: &[BenchmarkSpec]) -> FigureTable {
    use crate::middleware::MiddlewareConfig;
    let caps = [512u64, 2048, 4096, 16384, 1 << 20];
    ablation(
        specs,
        "ablation_batch_cap",
        "OO-VR cycles vs batch triangle cap (normalized to 4096)",
        &caps.map(|c| format!("cap={c}")),
        2,
        |i| OoVr {
            middleware: MiddlewareConfig { triangle_cap: caps[i], ..Default::default() },
            ..OoVr::new()
        },
    )
}

/// Ablation: OO-VR frame cycles across calibration lengths (paper: 8).
pub fn ablation_calibration(specs: &[BenchmarkSpec]) -> FigureTable {
    use crate::distribution::DistributionConfig;
    let lens = [2usize, 4, 8, 16, 32];
    ablation(
        specs,
        "ablation_calibration",
        "OO-VR cycles vs calibration batches (normalized to 8)",
        &lens.map(|n| format!("cal={n}")),
        2,
        |i| OoVr {
            distribution: DistributionConfig { calibration: lens[i], ..Default::default() },
            ..OoVr::new()
        },
    )
}

/// Ablation: each OO-VR component disabled in turn (normalized to full).
pub fn ablation_components(specs: &[BenchmarkSpec]) -> FigureTable {
    use crate::distribution::DistributionConfig;
    let labels = [
        "full".to_string(),
        "no predictor".into(),
        "no prealloc".into(),
        "no stealing".into(),
        "no DHC".into(),
    ];
    ablation(
        specs,
        "ablation_components",
        "OO-VR cycles with components disabled (normalized to full)",
        &labels,
        0,
        |i| match i {
            0 => OoVr::new(),
            1 => OoVr {
                distribution: DistributionConfig { predictor: false, ..Default::default() },
                ..OoVr::new()
            },
            2 => OoVr {
                distribution: DistributionConfig { prealloc: false, ..Default::default() },
                ..OoVr::new()
            },
            3 => OoVr {
                distribution: DistributionConfig { stealing: false, ..Default::default() },
                ..OoVr::new()
            },
            _ => OoVr { dhc: false, ..OoVr::new() },
        },
    )
}

/// Shared ablation scaffolding: run variant `i` per column and normalize
/// row-wise to the reference column (values > 1 mean the variant is
/// slower than the reference).
fn ablation(
    specs: &[BenchmarkSpec],
    id: &'static str,
    title: &str,
    labels: &[String],
    reference: usize,
    make: impl Fn(usize) -> OoVr + Sync,
) -> FigureTable {
    use oovr_frameworks::RenderScheme as _;
    let cfg = GpuConfig::default();
    let rows = par_map(specs, |spec| {
        let scene = spec.build();
        let cycles: Vec<f64> = (0..labels.len())
            .map(|i| make(i).render_frame(&scene, &cfg).frame_cycles as f64)
            .collect();
        let base = cycles[reference];
        (spec.name.clone(), cycles.into_iter().map(|c| c / base).collect())
    });
    FigureTable { id, title: title.into(), columns: labels.to_vec(), rows }.with_geomean()
}

/// Extension beyond the paper: sort-middle (GPUpd-style \[21\]) primitive
/// redistribution vs the paper's schemes — performance and steady traffic
/// normalized to the baseline. The paper dismisses mid-pipeline
/// redistribution for its synchronization traffic (§4.3); this measures it.
pub fn ext_sort_middle(specs: &[BenchmarkSpec]) -> FigureTable {
    let cfg = GpuConfig::default();
    let rows = par_map(specs, |spec| {
        let scene = cache::scene_for(spec);
        let base = cache::render(SchemeKind::Baseline, &scene, &cfg);
        let sm = cache::render(SchemeKind::SortMiddle, &scene, &cfg);
        let oovr = cache::render(SchemeKind::OoVr, &scene, &cfg);
        (
            spec.name.clone(),
            vec![
                base.frame_cycles as f64 / sm.frame_cycles as f64,
                base.frame_cycles as f64 / oovr.frame_cycles as f64,
                sm.steady_inter_gpm_bytes() as f64 / base.steady_inter_gpm_bytes().max(1) as f64,
                oovr.steady_inter_gpm_bytes() as f64 / base.steady_inter_gpm_bytes().max(1) as f64,
            ],
        )
    });
    FigureTable {
        id: "ext_sort_middle",
        title: "Extension: sort-middle (GPUpd-style) vs OO-VR (normalized to baseline)".into(),
        columns: vec![
            "SM speedup".into(),
            "OOVR speedup".into(),
            "SM traffic".into(),
            "OOVR traffic".into(),
        ],
        rows,
    }
    .with_geomean()
}

/// Resilience sweep (robustness extension): fault scenario × severity grid
/// over the workloads for Baseline / Object-level / OO-VR / OO-VR with the
/// runtime countermeasures enabled.
///
/// Per grid cell the table reports, geomean-aggregated across workloads:
///
/// * **retained speedup** per scheme — the scheme's fault-free cycles over
///   its faulted cycles (1.0 = no performance lost to the fault). The
///   OO-VR+resilience column is normalized against *plain* OO-VR's
///   fault-free cycles: both variants answer "how much of OO-VR's
///   fault-free performance survives the fault", so countermeasure
///   overhead counts against the resilient variant rather than being
///   absorbed into its own reference,
/// * **deadline-miss rate** for OO-VR and OO-VR+resilience — the fraction
///   of workloads whose faulted frame overruns a per-workload budget of
///   1.25× the fault-free OO-VR frame time,
/// * **inter-GPM traffic** for OO-VR and OO-VR+resilience, normalized to
///   the same scheme's fault-free traffic.
///
/// Fault plans are seeded deterministically from the grid position, so the
/// table is identical across runs.
pub fn resilience(specs: &[BenchmarkSpec]) -> FigureTable {
    resilience_grid(specs, &oovr_gpu::FaultScenario::ALL, &[0.25, 0.5, 0.9])
}

/// [`resilience`] over an explicit scenario/severity grid (tests run
/// reduced grids through exactly this code path).
pub fn resilience_grid(
    specs: &[BenchmarkSpec],
    scenarios: &[oovr_gpu::FaultScenario],
    severities: &[f64],
) -> FigureTable {
    use oovr_gpu::FaultPlan;

    let scenes: Vec<SceneHandle> = par_map(specs, cache::scene_for);
    let base_cfg = GpuConfig::default();
    let nw = scenes.len();
    let nsev = severities.len().max(1);

    let plain = |si: usize, scene: &SceneHandle, cfg: &GpuConfig| match si {
        0 => cache::render(SchemeKind::Baseline, scene, cfg),
        1 => cache::render(SchemeKind::ObjectLevel, scene, cfg),
        _ => cache::render(SchemeKind::OoVr, scene, cfg),
    };

    // Fault-free references. The resilient scheme needs the per-workload
    // deadline budget (1.25× fault-free OO-VR), so it renders second.
    let mut ff_grid = Vec::new();
    for wi in 0..nw {
        for si in 0..3 {
            ff_grid.push((wi, si));
        }
    }
    let ff_cells = par_map(&ff_grid, |&(wi, si)| plain(si, &scenes[wi], &base_cfg));
    let mut ff_cycles = vec![[0u64; 4]; nw];
    let mut ff_traffic = vec![[0u64; 4]; nw];
    for (&(wi, si), r) in ff_grid.iter().zip(&ff_cells) {
        ff_cycles[wi][si] = r.frame_cycles;
        ff_traffic[wi][si] = r.inter_gpm_bytes();
    }
    let deadlines: Vec<u64> = (0..nw).map(|w| (ff_cycles[w][2] as f64 * 1.25) as u64).collect();
    let windices: Vec<usize> = (0..nw).collect();
    let res_ff =
        par_map(&windices, |&wi| cache::render_resilient(deadlines[wi], &scenes[wi], &base_cfg));
    for (wi, r) in res_ff.iter().enumerate() {
        ff_cycles[wi][3] = r.frame_cycles;
        ff_traffic[wi][3] = r.inter_gpm_bytes();
    }

    // Faulted grid: workload × (scenario, severity) × scheme.
    let ncells = scenarios.len() * nsev;
    let mut grid = Vec::new();
    for wi in 0..nw {
        for ci in 0..ncells {
            for si in 0..4 {
                grid.push((wi, ci, si));
            }
        }
    }
    // Longest-expected-first: a workload's fault-free baseline cycles are a
    // good proxy for its faulted render cost, so the heaviest cells start
    // first instead of serializing the pool's tail.
    let cells = par_map_by_cost(
        &grid,
        |&(wi, _, _)| ff_cycles[wi][0],
        |&(wi, ci, si)| {
            let (sci, vi) = (ci / nsev, ci % nsev);
            // Deterministic per-cell seed; shared by all schemes in the cell
            // so they face the identical fault trace.
            let seed = 11 * ci as u64 + 3;
            // Scale the fault schedule's horizon to this workload's actual
            // frame length so the piecewise windows land inside the frame.
            let plan = FaultPlan::new(scenarios[sci], severities[vi], seed)
                .with_horizon(ff_cycles[wi][0].max(1));
            let cfg = base_cfg.clone().with_fault(plan);
            let r = if si == 3 {
                cache::render_resilient(deadlines[wi], &scenes[wi], &cfg)
            } else {
                plain(si, &scenes[wi], &cfg)
            };
            (r.frame_cycles, r.inter_gpm_bytes())
        },
    );
    let mut faulted = vec![vec![[(0u64, 0u64); 4]; ncells]; nw];
    for (&(wi, ci, si), &cell) in grid.iter().zip(&cells) {
        faulted[wi][ci][si] = cell;
    }

    let mut rows = Vec::new();
    // Indexing is [workload][cell][scheme] with the workload axis inside
    // the geomean closures; enumerating would obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    for ci in 0..ncells {
        let (sci, vi) = (ci / nsev, ci % nsev);
        let label = format!("{}/{:.2}", scenarios[sci].name(), severities[vi]);
        let mut vals = Vec::new();
        for si in 0..4 {
            // The resilient variant shares plain OO-VR's fault-free
            // reference (see the module docs on retained speedup).
            let refsi = if si == 3 { 2 } else { si };
            vals.push(FigureTable::geomean(
                (0..nw).map(|w| ff_cycles[w][refsi] as f64 / faulted[w][ci][si].0.max(1) as f64),
            ));
        }
        for si in [2usize, 3] {
            let misses = (0..nw).filter(|&w| faulted[w][ci][si].0 > deadlines[w]).count();
            vals.push(misses as f64 / nw.max(1) as f64);
        }
        for si in [2usize, 3] {
            vals.push(FigureTable::geomean(
                (0..nw)
                    .map(|w| faulted[w][ci][si].1.max(1) as f64 / ff_traffic[w][si].max(1) as f64),
            ));
        }
        rows.push((label, vals));
    }
    FigureTable {
        id: "resilience",
        title: "Retained speedup, deadline misses, traffic under injected faults".into(),
        columns: vec![
            "Baseline".into(),
            "Object-Level".into(),
            "OOVR".into(),
            "OOVR+RES".into(),
            "miss OOVR".into(),
            "miss RES".into(),
            "traffic OOVR".into(),
            "traffic RES".into(),
        ],
        rows,
    }
}

/// Steady-state validation: OO-VR frame 1 (cold page placement, PA copies)
/// vs frame 3 (warm) — total inter-GPM MB per frame and the warm frame's
/// PA bytes (which must be ~0). Empirically backs the steady-state traffic
/// metric used in the Fig. 16 reproduction.
pub fn steady_state(specs: &[BenchmarkSpec]) -> FigureTable {
    let cfg = GpuConfig::default();
    let rows = par_map(specs, |spec| {
        let scene = spec.build();
        let frames = OoVr::new().render_frames(&scene, &cfg, 3);
        let mb = |r: &FrameReport| r.inter_gpm_bytes() as f64 / 1e6;
        let pa =
            |r: &FrameReport| r.traffic.remote_of(oovr_mem::TrafficClass::PreAlloc) as f64 / 1e6;
        (
            spec.name.clone(),
            vec![
                mb(&frames[0]),
                mb(&frames[2]),
                pa(&frames[0]),
                pa(&frames[2]),
                frames[0].frame_cycles as f64 / frames[2].frame_cycles as f64,
            ],
        )
    });
    FigureTable {
        id: "steady",
        title: "OO-VR cold vs warm frames: inter-GPM MB, PA MB, warm speedup".into(),
        columns: vec![
            "frame1 MB".into(),
            "frame3 MB".into(),
            "frame1 PA MB".into(),
            "frame3 PA MB".into(),
            "warm speedup".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<BenchmarkSpec> {
        vec![benchmarks::hl2_640().scaled(0.1), benchmarks::we().scaled(0.1)]
    }

    #[test]
    fn figure_table_display_and_csv() {
        let t = FigureTable {
            id: "t",
            title: "test".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![("w1".into(), vec![1.0, 2.0]), ("w2".into(), vec![4.0, 8.0])],
        }
        .with_geomean();
        assert_eq!(t.value("Avg.", "a"), Some(2.0));
        assert_eq!(t.value("Avg.", "b"), Some(4.0));
        assert!(t.to_csv().contains("w1,1.0000,2.0000"));
        assert!(format!("{t}").contains("Avg."));
    }

    #[test]
    fn par_map_preserves_order() {
        let items = vec![3u64, 1, 2];
        let out = par_map(&items, |&x| x * 10);
        assert_eq!(out, vec![30, 10, 20]);
    }

    #[test]
    fn fig4_normalizes_to_one_at_1tbs() {
        let _memo = crate::cache::memo_test_lock();
        let t = fig4(&tiny());
        for (label, vals) in &t.rows {
            assert!((vals[0] - 1.0).abs() < 1e-9, "{label} first col normalized");
            // Lower bandwidth never helps.
            assert!(vals[3] <= vals[0] + 1e-9, "{label}: 64GB/s ≤ 1TB/s");
        }
    }

    #[test]
    fn resilience_grid_is_deterministic_and_countermeasures_retain_speedup() {
        use oovr_gpu::FaultScenario;
        let _memo = crate::cache::memo_test_lock();
        let specs = tiny();
        let grid = [FaultScenario::LinkDegrade, FaultScenario::GpmThrottle];
        let t = resilience_grid(&specs, &grid, &[0.9]);
        let t2 = resilience_grid(&specs, &grid, &[0.9]);
        assert_eq!(t.rows, t2.rows, "same seed must reproduce the table exactly");
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.columns.len(), 8);
        for (label, vals) in &t.rows {
            assert!(vals.iter().all(|v| v.is_finite()), "{label}: {vals:?}");
            let oovr = t.value(label, "OOVR").unwrap();
            let resil = t.value(label, "OOVR+RES").unwrap();
            // The acceptance bar: countermeasures retain strictly more of
            // the fault-free speedup than plain OO-VR under degraded links
            // and throttled GPMs.
            assert!(resil > oovr, "{label}: resilient retained {resil:.4} vs plain {oovr:.4}");
        }
    }

    #[test]
    fn paper_workloads_scale() {
        assert_eq!(paper_workloads(1.0).len(), 9);
        let w = paper_workloads(0.25);
        assert_eq!(w.len(), 9);
        assert!(w[0].resolution.width < 640);
    }
}
