//! The `render` workload: fresh single-frame renders of the nine Table 3
//! scenes under Baseline and OO-VR, fault-free and under the five fault
//! scenarios.
//!
//! An op renders one frame in a fresh executor. Plain ops call
//! `RenderScheme::render_frame`; traced ops compose the same OO-VR frame
//! from the layers' public entry points (`Executor::new`, `build_batches`,
//! `run_distribution`, `finish_frame`), each in a span, and must reproduce
//! the plain report exactly.

use oovr::frameworks::{Baseline, RenderScheme};
use oovr::gpu::{
    ColorMode, Composition, Executor, FaultPlan, FaultScenario, FbOrg, FrameReport, GpuConfig,
    VR_DEADLINE_CYCLES,
};
use oovr::mem::{Placement, TrafficClass};
use oovr::scene::{benchmarks, Scene};
use oovr::{build_batches, run_distribution, DistributionStats, OoVr};
use oovr_trace::TraceConfig;

use crate::span::{span, Spans};
use crate::stats::{fingerprint_debug, geomean, mean, CpuTimer, Fnv};
use crate::{OpOut, Sim, Workload};

/// Workload scale of every fault-free scene (fraction of Table 3's
/// resolution and triangle budget).
pub const SCALE: f64 = 0.5;

/// Workload scale of every faulted scene: a pass renders five times as
/// many faulted frames as fault-free ones, and this scale keeps them to
/// about 3 s of a 5.5 s pass, so every op repeats often enough in a run
/// for its fastest repeat to fall outside the host's slow spells.
pub const FAULTED_SCALE: f64 = 0.25;

/// Fault severity of the faulted slice of the resilience sweep.
pub const SEVERITY: f64 = 0.5;

/// Frame budget of the deadline monitor, relative to the scene's
/// fault-free OO-VR frame (the resilience sweep's 1.25×).
const DEADLINE_FACTOR: f64 = 1.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    Baseline,
    OoVr,
    /// OO-VR with runtime fault countermeasures and a deadline budget.
    OoVrRes,
}

impl Scheme {
    fn label(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::OoVr => "OOVR",
            Scheme::OoVrRes => "OOVR+RES",
        }
    }
}

/// One op of a pass: a scene, a scheme, and the (possibly faulted) config.
struct Cell {
    scene: usize,
    scheme: Scheme,
    scenario: Option<FaultScenario>,
    gpu: GpuConfig,
    deadline: u64,
}

/// Simulated end-to-end figures of one set of (Baseline, OO-VR) pairs.
struct PairSim {
    speedup_geomean: f64,
    link_bytes_ratio: f64,
    on_time: usize,
    pairs: usize,
}

/// State of the render workload after set-up.
pub struct Render {
    /// The nine scenes at [`SCALE`], then the nine at [`FAULTED_SCALE`].
    scenes: Vec<Scene>,
    /// Fault-free reports rendered at set-up: `(Baseline, OO-VR)` per scene.
    refs: Vec<(FrameReport, FrameReport)>,
    /// Fault-free cells first, then faulted ones; each scene's Baseline
    /// cell directly precedes its OO-VR one.
    cells: Vec<Cell>,
    /// First report of every op, in op order.
    first: Vec<Option<FrameReport>>,
    /// Distribution statistics of the first traced OO-VR op of each cell.
    dist: Vec<Option<DistributionStats>>,
    /// Batches per traced fault-free OO-VR op.
    batches: Vec<f64>,
    /// Host nanoseconds and fragments of every fault-free OO-VR op, for
    /// host time per fragment.
    oovr_ns: Vec<(f64, u64)>,
}

impl Render {
    /// Builds the nine scenes at both scales (spec seeds XORed with
    /// `seed`) and renders each fault-free under Baseline and OO-VR.
    /// Faulted cells take their fault horizon from the Baseline reference
    /// and their deadline from the OO-VR one, as the resilience sweep does.
    pub fn setup(seed: u64, mut spans: Option<&mut Spans>) -> Render {
        let gpu = GpuConfig::default();
        let mut scenes = Vec::new();
        for scale in [SCALE, FAULTED_SCALE] {
            for spec in benchmarks::all() {
                let mut spec = spec.scaled(scale);
                spec.seed ^= seed;
                scenes.push(span(&mut spans, "scene.build", || spec.build()));
            }
        }
        let refs: Vec<(FrameReport, FrameReport)> = scenes
            .iter()
            .map(|s| (Baseline::new().render_frame(s, &gpu), OoVr::new().render_frame(s, &gpu)))
            .collect();
        let nine = scenes.len() / 2;
        let mut cells = Vec::new();
        for (si, (_, oovr)) in refs.iter().enumerate().take(nine) {
            let deadline = (oovr.frame_cycles as f64 * DEADLINE_FACTOR) as u64;
            for scheme in [Scheme::Baseline, Scheme::OoVr] {
                cells.push(Cell { scene: si, scheme, scenario: None, gpu: gpu.clone(), deadline });
            }
        }
        for (si, (base, oovr)) in refs.iter().enumerate().skip(nine) {
            let deadline = (oovr.frame_cycles as f64 * DEADLINE_FACTOR) as u64;
            for (ci, &scenario) in FaultScenario::ALL.iter().enumerate() {
                // One plan per scene and scenario, XORed with the workload
                // seed: 45 independent plans keep the suite's geomeans from
                // swinging with the few draws one plan per scenario makes.
                let plan_seed = 11 * ci as u64 + 3 + 101 * (si - nine) as u64;
                let plan = FaultPlan::new(scenario, SEVERITY, plan_seed ^ seed)
                    .with_horizon(base.frame_cycles.max(1));
                let cfg = gpu.clone().with_fault(plan);
                for scheme in [Scheme::Baseline, Scheme::OoVrRes] {
                    cells.push(Cell {
                        scene: si,
                        scheme,
                        scenario: Some(scenario),
                        gpu: cfg.clone(),
                        deadline,
                    });
                }
            }
        }
        let n = cells.len();
        Render {
            scenes,
            refs,
            cells,
            first: (0..n).map(|_| None).collect(),
            dist: (0..n).map(|_| None).collect(),
            batches: Vec::new(),
            oovr_ns: Vec::new(),
        }
    }

    fn oovr_for(cell: &Cell) -> OoVr {
        match cell.scheme {
            Scheme::OoVrRes => OoVr::resilient_with_deadline(cell.deadline),
            _ => OoVr::new(),
        }
    }

    /// The plain op: one call to the scheme's `render_frame`.
    fn plain(&self, cell: &Cell) -> (f64, FrameReport) {
        let scene = &self.scenes[cell.scene];
        let start = CpuTimer::start();
        let report = match cell.scheme {
            Scheme::Baseline => Baseline::new().render_frame(scene, &cell.gpu),
            _ => Self::oovr_for(cell).render_frame(scene, &cell.gpu),
        };
        (start.secs(), report)
    }

    /// The traced op: the OO-VR frame composed from the layers' entry
    /// points, each in a span (Baseline is one span around its render).
    fn traced(
        &self,
        cell: &Cell,
        spans: &mut Spans,
    ) -> (f64, FrameReport, Option<(DistributionStats, usize)>) {
        let scene = &self.scenes[cell.scene];
        let start = CpuTimer::start();
        if cell.scheme == Scheme::Baseline {
            let report = spans.time("frameworks.baseline_render", || {
                Baseline::new().render_frame(scene, &cell.gpu)
            });
            return (start.secs(), report, None);
        }
        let oovr = Self::oovr_for(cell);
        let mut ex = spans.time("gpu.executor_new", || {
            Executor::new(
                cell.gpu.clone(),
                scene,
                Placement::FirstTouch,
                FbOrg::Columns,
                ColorMode::Deferred,
            )
        });
        let batches =
            spans.time("middleware.build_batches", || build_batches(scene, oovr.middleware));
        let mark = ex.begin_frame();
        let stats = spans
            .time("distribution.run", || run_distribution(&mut ex, &batches, &oovr.distribution));
        let report = spans
            .time("gpu.compose", || ex.finish_frame(&mark, oovr.name(), Composition::Distributed));
        spans.time("gpu.executor_drop", || drop(ex));
        let secs = start.secs();
        (secs, report, Some((stats, batches.len())))
    }

    /// Reports of the first pass, in op order, paired by scene: for each
    /// scene (and scenario) the Baseline report and the OO-VR one.
    fn pairs(&self) -> Vec<(&FrameReport, &FrameReport, &Cell)> {
        self.cells
            .chunks(2)
            .zip(self.first.chunks(2))
            .filter_map(|(c, r)| Some((r[0].as_ref()?, r[1].as_ref()?, &c[1])))
            .collect()
    }

    /// Speedup, link bytes and on-time OO-VR frames over the fault-free
    /// (`faulted` false) or faulted pairs of the first pass. An OO-VR frame
    /// is on time within the VR vsync budget fault-free, and within the
    /// deadline monitor's budget under faults.
    fn pair_sim(&self, faulted: bool) -> PairSim {
        let pairs: Vec<_> =
            self.pairs().into_iter().filter(|(_, _, c)| c.scenario.is_some() == faulted).collect();
        let speedups: Vec<f64> =
            pairs.iter().map(|(b, o, _)| b.frame_cycles as f64 / o.frame_cycles as f64).collect();
        let bytes: Vec<f64> = pairs
            .iter()
            .map(|(b, o, _)| {
                o.steady_inter_gpm_bytes().max(1) as f64 / b.steady_inter_gpm_bytes().max(1) as f64
            })
            .collect();
        let on_time = pairs
            .iter()
            .filter(|(_, o, c)| {
                let budget = if faulted { c.deadline } else { VR_DEADLINE_CYCLES };
                o.frame_cycles <= budget
            })
            .count();
        PairSim {
            speedup_geomean: geomean(&speedups),
            link_bytes_ratio: geomean(&bytes),
            on_time,
            pairs: pairs.len(),
        }
    }
}

impl Workload for Render {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn label(&self, op: usize) -> String {
        let c = &self.cells[op];
        let scene = self.scenes[c.scene].name();
        match c.scenario {
            Some(s) => format!("{} {scene} {}", c.scheme.label(), s.name()),
            None => format!("{} {scene}", c.scheme.label()),
        }
    }

    fn run(&mut self, op: usize, spans: Option<&mut Spans>) -> (f64, OpOut) {
        let cell = &self.cells[op];
        let (secs, report, dist) = match spans {
            None => {
                let (s, r) = self.plain(cell);
                (s, r, None)
            }
            Some(sp) => self.traced(cell, sp),
        };
        let mut failures = Vec::new();
        let fingerprint = fingerprint_debug(&report);
        let (base, oovr) = &self.refs[cell.scene];
        if cell.scenario.is_none() {
            let reference = if cell.scheme == Scheme::Baseline { base } else { oovr };
            if fingerprint != fingerprint_debug(reference) {
                failures.push("report differs from the set-up render of the same frame".into());
            }
            if report.counts.fragments != base.counts.fragments {
                failures.push(format!(
                    "fragments {} differ from Baseline's {}",
                    report.counts.fragments, base.counts.fragments
                ));
            }
            if cell.scheme != Scheme::Baseline {
                self.oovr_ns.push((secs * 1e9, report.counts.fragments));
            }
        } else if cell.scheme == Scheme::Baseline
            && report.counts.fragments != base.counts.fragments
        {
            failures.push("faults changed Baseline's fragment count".into());
        }
        if report.frame_cycles == 0 || report.counts.fragments == 0 {
            failures.push("empty frame".into());
        }
        if let Some((stats, batches)) = dist {
            if self.dist[op].is_none() {
                self.dist[op] = Some(stats);
                if cell.scenario.is_none() {
                    self.batches.push(batches as f64);
                }
            }
        }
        if self.first[op].is_none() {
            self.first[op] = Some(report);
        }
        (secs, OpOut { frames: 1, fingerprint, failures })
    }

    /// The fault-free pairs' speedup and link bytes (the paper's claim),
    /// and on-time OO-VR frames over every pair, faulted ones included.
    fn sim(&self) -> Sim {
        let (clean, faulted) = (self.pair_sim(false), self.pair_sim(true));
        Sim {
            speedup_geomean: clean.speedup_geomean,
            link_bytes_ratio: clean.link_bytes_ratio,
            goodput: (clean.on_time + faulted.on_time) as f64
                / (clean.pairs + faulted.pairs).max(1) as f64,
        }
    }

    fn setup_fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for (b, o) in &self.refs {
            h.u64(fingerprint_debug(b));
            h.u64(fingerprint_debug(o));
        }
        h.finish()
    }

    /// Distribution counts come from the faulted OO-VR+RES frames, where
    /// the resilience branch works; every other count from the fault-free
    /// OO-VR frames.
    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let dist: Vec<&DistributionStats> = self
            .dist
            .iter()
            .zip(&self.cells)
            .filter_map(|(d, c)| d.as_ref().filter(|_| c.scenario.is_some()))
            .collect();
        let d = |f: &dyn Fn(&DistributionStats) -> f64| {
            mean(&dist.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        let oovr: Vec<&FrameReport> = self
            .pairs()
            .into_iter()
            .filter(|(_, _, c)| c.scenario.is_none())
            .map(|(_, o, _)| o)
            .collect();
        let r =
            |f: &dyn Fn(&FrameReport) -> f64| mean(&oovr.iter().map(|x| f(x)).collect::<Vec<_>>());
        let fragments: u64 = self.oovr_ns.iter().map(|&(_, f)| f).sum();
        let ns: f64 = self.oovr_ns.iter().map(|&(n, _)| n).sum();
        vec![
            ("middleware.batches", mean(&self.batches)),
            ("gpu.host_ns_per_fragment", ns / fragments.max(1) as f64),
            ("distribution.steals", d(&|s| s.steals as f64)),
            ("distribution.migrations", d(&|s| s.migrations as f64)),
            ("distribution.recalibrations", d(&|s| s.recalibrations as f64)),
            ("distribution.pa_retries", d(&|s| s.pa_retries as f64)),
            ("distribution.pa_fallbacks", d(&|s| s.pa_fallbacks as f64)),
            ("distribution.shed_events", d(&|s| s.shed_events as f64)),
            ("distribution.pred_err_mean", d(&|s| s.prediction_error_mean)),
            ("gpu.composition_cycles", r(&|x| x.composition_cycles as f64)),
            ("gpu.triangles", r(&|x| x.counts.triangles as f64)),
            ("gpu.quads", r(&|x| x.counts.quads as f64)),
            ("gpu.fragments", r(&|x| x.counts.fragments as f64)),
            ("gpu.frame_cycles", r(&|x| x.frame_cycles as f64)),
            ("gpu.imbalance_ratio", r(&|x| x.imbalance_ratio())),
            ("gpu.mean_utilization", r(&|x| x.mean_utilization())),
            ("mem.l1_hit_rate", r(&|x| x.l1_hit_rate)),
            ("mem.l2_hit_rate", r(&|x| x.l2_hit_rate)),
            ("mem.local_bytes", r(&|x| x.traffic.local_bytes() as f64)),
            ("mem.remote_bytes", r(&|x| x.inter_gpm_bytes() as f64)),
            ("mem.remote_texture_bytes", r(&|x| x.traffic.remote_of(TrafficClass::Texture) as f64)),
            ("mem.steady_remote_bytes", r(&|x| x.steady_inter_gpm_bytes() as f64)),
        ]
    }

    fn overheads(&mut self) -> (Vec<(&'static str, f64)>, Vec<String>) {
        // `render_frame_traced` ÷ `render_frame` for fault-free OO-VR over
        // the scenes at full workload scale; the flight recorder must not
        // change the report.
        let gpu = GpuConfig::default();
        let (mut plain, mut traced) = (0.0, 0.0);
        let mut failures = Vec::new();
        for scene in &self.scenes[..self.scenes.len() / 2] {
            let start = CpuTimer::start();
            let a = OoVr::new().render_frame(scene, &gpu);
            plain += start.secs();
            let start = CpuTimer::start();
            let (b, _) = OoVr::new().render_frame_traced(scene, &gpu, TraceConfig::default());
            traced += start.secs();
            if fingerprint_debug(&a) != fingerprint_debug(&b) {
                failures.push(format!("render_frame_traced changed the {} report", scene.name()));
            }
        }
        (vec![("trace.overhead_ratio", traced / plain)], failures)
    }

    fn notes(&self) -> Vec<String> {
        let (clean, faulted) = (self.pair_sim(false), self.pair_sim(true));
        let traffic_cut = 1.0 - clean.link_bytes_ratio;
        vec![
            format!(
                "sim_faulted_speedup_geomean {:.6} x (Baseline over OO-VR+RES cycles under faults)",
                faulted.speedup_geomean
            ),
            format!(
                "sim_deadline_miss_rate {:.6} ratio (OO-VR+RES frames over 1.25x their fault-free OO-VR budget)",
                1.0 - faulted.on_time as f64 / faulted.pairs.max(1) as f64
            ),
            format!(
                "paper: speedup {:.3}x vs 1.58x (rel. err {:+.1}%), traffic cut {:.1}% vs 76% (rel. err {:+.1}%)",
                clean.speedup_geomean,
                (clean.speedup_geomean / 1.58 - 1.0) * 100.0,
                traffic_cut * 100.0,
                (traffic_cut / 0.76 - 1.0) * 100.0
            ),
            "paper: the synthetic-scene model is not validated against single workloads; compare only suite-level geomeans".into(),
        ]
    }
}
