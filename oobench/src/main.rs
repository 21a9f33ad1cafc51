//! End-to-end and per-layer benchmark of the OO-VR reproduction.
//!
//! ```text
//! oobench --workload <render|serve-fleet> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on one thread, calling ops one after
//! another (a closed loop with one caller) in passes until
//! `--seconds` have elapsed. Every op's output is checked, and the last
//! line of standard output is a JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `README.md` beside this crate for the metrics and workloads.

mod fleet;
mod render;
mod span;
mod stats;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use span::Spans;
use stats::CpuTimer;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["render", "serve-fleet"];

/// Set-ups per measured run; `setup_s` is their median. All but one run
/// in fresh child processes, so process-wide memo tables start empty each
/// time.
const SETUP_REPEATS: usize = 3;

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_speedup_geomean", "x"),
    ("sim_link_bytes_ratio", "ratio"),
    ("sim_goodput", "ratio"),
];

/// Per-layer metrics of the traced run: name, unit. A metric `<span>_s`
/// in unit `s` is the mean seconds per call of span `<span>`.
const PER_LAYER: [(&str, &str); 56] = [
    ("scene.build_s", "s"),
    ("middleware.build_batches_s", "s"),
    ("middleware.batches", "count"),
    ("gpu.executor_new_s", "s"),
    ("gpu.executor_drop_s", "s"),
    ("distribution.run_s", "s"),
    ("gpu.host_ns_per_fragment", "ns"),
    ("distribution.steals", "count"),
    ("distribution.migrations", "count"),
    ("distribution.recalibrations", "count"),
    ("distribution.pa_retries", "count"),
    ("distribution.pa_fallbacks", "count"),
    ("distribution.shed_events", "count"),
    ("distribution.pred_err_mean", "ratio"),
    ("gpu.compose_s", "s"),
    ("gpu.composition_cycles", "cycles"),
    ("frameworks.baseline_render_s", "s"),
    ("gpu.triangles", "count"),
    ("gpu.quads", "count"),
    ("gpu.fragments", "count"),
    ("gpu.frame_cycles", "cycles"),
    ("gpu.imbalance_ratio", "ratio"),
    ("gpu.mean_utilization", "ratio"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.local_bytes", "bytes"),
    ("mem.remote_bytes", "bytes"),
    ("mem.remote_texture_bytes", "bytes"),
    ("mem.steady_remote_bytes", "bytes"),
    ("serve.cost_stream_s", "s"),
    ("serve.simulate_s", "s"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.frames", "count"),
    ("serve.missed", "count"),
    ("serve.dropped", "count"),
    ("serve.shed", "count"),
    ("temporal.simulate_s", "s"),
    ("temporal.reuse_fraction", "ratio"),
    ("cluster.simulate_s", "s"),
    ("cluster.retries", "count"),
    ("cluster.migrations", "count"),
    ("cluster.failovers", "count"),
    ("cluster.downs", "count"),
    ("cluster.evicted", "count"),
    ("edge.simulate_s", "s"),
    ("edge.link_rejected", "count"),
    ("edge.lost", "count"),
    ("edge.reprojected", "count"),
    ("edge.stale", "count"),
    ("edge.mtp_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("metrics.overhead_ratio", "ratio"),
    ("bench.span_overhead_ratio", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.traced_frames_per_s", "1/s"),
];

/// What one op returned besides its host time.
pub struct OpOut {
    /// Simulated frames the op produced: one rendered frame, or the paced
    /// frames offered to a serving tier.
    pub frames: u64,
    /// Fingerprint of every simulated statistic the op returned.
    pub fingerprint: u64,
    /// Output checks the op failed.
    pub failures: Vec<String>,
}

/// Simulated end-to-end metrics of one pass.
pub struct Sim {
    /// Geometric-mean frame speedup of OO-VR over Baseline.
    pub speedup_geomean: f64,
    /// Steady inter-GPM bytes, OO-VR over Baseline (geometric mean).
    pub link_bytes_ratio: f64,
    /// Frames presented on time over frames offered.
    pub goodput: f64,
}

/// One workload after set-up.
pub trait Workload {
    /// Ops per pass.
    fn ops(&self) -> usize;
    /// Human-readable label of op `op`.
    fn label(&self, op: usize) -> String;
    /// Runs op `op` and returns the host seconds its API calls took. With
    /// `spans`, each layer entry point the op reaches runs in a span.
    fn run(&mut self, op: usize, spans: Option<&mut Spans>) -> (f64, OpOut);
    /// Simulated end-to-end metrics of the first pass.
    fn sim(&self) -> Sim;
    /// Fingerprint of the simulated results set-up produced.
    fn setup_fingerprint(&self) -> u64;
    /// Per-layer counts of the first pass (traced runs).
    fn layer_counts(&self) -> Vec<(&'static str, f64)>;
    /// Overhead ratios of the program's own observers, with any checks
    /// they failed.
    fn overheads(&mut self) -> (Vec<(&'static str, f64)>, Vec<String>);
    /// Extra lines for the human-readable report.
    fn notes(&self) -> Vec<String>;
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

const USAGE: &str = "usage: oobench --workload <render|serve-fleet> \
                     --seed <n> --seconds <s> --trace <0|1> [--setup-only]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: "", seed: 0, seconds: 10.0, trace: false, setup_only: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn setup(workload: &str, seed: u64, spans: Option<&mut Spans>) -> Box<dyn Workload> {
    match workload {
        "render" => Box::new(render::Render::setup(seed, spans)),
        _ => Box::new(fleet::Fleet::setup(seed, spans)),
    }
}

/// Times one set-up in a fresh child process of this binary.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload, "--seed", &args.seed.to_string(), "--setup-only"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("set-up child printed no time: {stdout}"))
}

/// Per-op host times, frames, and output checks of a run.
#[derive(Default)]
struct Ledger {
    /// Host seconds of every run of each op, by op index.
    secs: Vec<Vec<f64>>,
    /// Simulated frames each op produces (the same on every pass).
    frames: Vec<u64>,
    /// First-pass fingerprint of every op.
    first: Vec<Option<u64>>,
    failed: u64,
    messages: Vec<String>,
}

impl Ledger {
    fn new(ops: usize) -> Ledger {
        Ledger {
            secs: vec![Vec::new(); ops],
            frames: vec![0; ops],
            first: vec![None; ops],
            ..Ledger::default()
        }
    }

    fn record(&mut self, w: &dyn Workload, op: usize, secs: f64, mut out: OpOut) {
        match self.first[op] {
            None => self.first[op] = Some(out.fingerprint),
            Some(fp) if fp != out.fingerprint => {
                out.failures.push("output differs from the first pass".into())
            }
            Some(_) => {}
        }
        self.secs[op].push(secs);
        self.frames[op] = out.frames;
        if !out.failures.is_empty() {
            self.failed += 1;
            let label = w.label(op);
            self.messages.extend(out.failures.into_iter().map(|m| format!("{label}: {m}")));
        }
    }

    fn attempted(&self) -> usize {
        self.secs.iter().map(Vec::len).sum()
    }

    fn total_secs(&self) -> f64 {
        self.secs.iter().flatten().sum()
    }

    /// Each op's fastest host seconds over its repeats. Other load on the
    /// host only ever slows an op, even in CPU time (it contends for
    /// caches, memory and clock speed), in spells that last seconds to
    /// minutes; the fastest repeat of each op is the estimate such spells
    /// move least.
    fn op_best(&self) -> Vec<f64> {
        self.secs.iter().map(|s| s.iter().copied().fold(f64::INFINITY, f64::min)).collect()
    }

    /// Frames of one pass over the summed fastest op times.
    fn frames_per_s(&self) -> f64 {
        self.frames.iter().sum::<u64>() as f64 / self.op_best().iter().sum::<f64>().max(1e-12)
    }

    /// FNV digest over the set-up's simulated results and the first-pass
    /// fingerprints, in op order.
    fn sim_digest(&self, w: &dyn Workload) -> String {
        let mut h = stats::Fnv::default();
        h.u64(w.setup_fingerprint());
        for fp in self.first.iter().flatten() {
            h.u64(*fp);
        }
        format!("{:016x}", h.finish())
    }
}

/// Render-memo and stream-cache counters, to show what the timed phase
/// touched.
fn cache_counters() -> [u64; 5] {
    let r = oovr::cache::stats();
    let s = oovr_serve::serve_cache_stats();
    [r.scene_builds, r.frame_hits, r.frame_misses, s.stream_hits, s.stream_misses]
}

/// Checks the timed phase's counter deltas: no op touches the render
/// memo, and serving ops only ever hit the stream cache.
fn cache_check(workload: &str, before: [u64; 5], after: [u64; 5], failures: &mut Vec<String>) {
    let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    println!(
        "cache deltas (timed phase): render memo scene_builds {} frame_hits {} frame_misses {}; \
         stream cache hits {} misses {}",
        d[0], d[1], d[2], d[3], d[4]
    );
    if d[0] + d[1] + d[2] != 0 {
        failures.push("timed ops used the render memo".into());
    }
    if d[4] != 0 {
        failures.push("timed ops missed the stream cache".into());
    }
    if workload == "serve-fleet" && d[3] == 0 {
        failures.push("serving ops never read the stream cache".into());
    }
}

fn print_failures(ledger: &Ledger, run_failures: &[String]) {
    for m in ledger.messages.iter().chain(run_failures).take(20) {
        println!("FAILED {m}");
    }
}

fn json(correct: bool, attempted: usize, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs passes until `seconds` have elapsed: the first pass whole, the
/// last one cut where time runs out. With `spans`, each whole plain pass is
/// followed by a traced one, recorded in the second ledger along with each
/// traced op's span coverage. Returns the passes begun.
fn run_passes(
    w: &mut dyn Workload,
    seconds: f64,
    mut spans: Option<&mut Spans>,
) -> (Ledger, Ledger, Vec<f64>, usize) {
    let (mut plain, mut traced) = (Ledger::new(w.ops()), Ledger::new(w.ops()));
    let mut coverage = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    let out_of_time = || start.elapsed().as_secs_f64() >= seconds;
    while passes == 0 || !out_of_time() {
        passes += 1;
        for op in 0..w.ops() {
            if passes > 1 && spans.is_none() && out_of_time() {
                break;
            }
            let (secs, out) = w.run(op, None);
            plain.record(w, op, secs, out);
        }
        if let Some(sp) = spans.as_deref_mut() {
            traced.first.clone_from(&plain.first);
            sp.take_op_ns();
            for op in 0..w.ops() {
                let (secs, out) = w.run(op, Some(sp));
                coverage.push(sp.take_op_ns() as f64 / 1e9 / secs.max(1e-12));
                traced.record(w, op, secs, out);
            }
        }
    }
    (plain, traced, coverage, passes)
}

fn measured_run(args: &Args) -> Result<(), String> {
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPEATS {
        setups.push(child_setup(args)?);
    }
    let start = CpuTimer::start();
    let mut w = setup(args.workload, args.seed, None);
    setups.push(start.secs());

    let before = cache_counters();
    let wall = Instant::now();
    let (ledger, _, _, passes) = run_passes(w.as_mut(), args.seconds, None);
    let wall = wall.elapsed().as_secs_f64();
    let mut run_failures = Vec::new();
    cache_check(args.workload, before, cache_counters(), &mut run_failures);

    let ms: Vec<f64> = ledger.op_best().iter().map(|s| s * 1e3).collect();
    let raw_ms: Vec<f64> = ledger.secs.iter().flatten().map(|s| s * 1e3).collect();
    let sim = w.sim();
    let values = [
        stats::median(&setups),
        ledger.frames_per_s(),
        stats::percentile(&ms, 50.0),
        stats::peak_rss_mb().unwrap_or(0.0),
        sim.speedup_geomean,
        sim.link_bytes_ratio,
        sim.goodput,
    ];
    for (&(name, _), v) in END_TO_END.iter().zip(values) {
        if !(v.is_finite() && v > 0.0) {
            run_failures.push(format!("metric {name} is {v}"));
        }
    }
    println!(
        "workload {} seed {} passes {passes} ops {} ({} per pass) measured {:.3} CPU s in {wall:.3} wall s",
        args.workload,
        args.seed,
        ledger.attempted(),
        w.ops(),
        ledger.total_secs()
    );
    let setup_list: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup_s samples [{}] s", setup_list.join(", "));
    let pass_list: Vec<String> = (0..passes)
        .map(|p| format!("{:.4}", ledger.secs.iter().filter_map(|s| s.get(p)).sum::<f64>()))
        .collect();
    println!("pass host seconds [{}]", pass_list.join(", "));
    for (op, s) in ledger.secs.iter().enumerate() {
        println!(
            "op {op:>3} best {:>12.4} ms median {:>12.4} ms of {:>4}  {}",
            ms[op],
            stats::median(s) * 1e3,
            s.len(),
            w.label(op)
        );
    }
    for (&(name, unit), v) in END_TO_END.iter().zip(values) {
        println!("{name:<22} {v:>14.6} {unit}");
    }
    // Not in the JSON: with 18 to 90 ops a pass, fewer than ten op-bests
    // lie beyond p90, so it moves with one or two ops' noise.
    println!("{:<22} {:>14.6} ms", "op_ms_p90", stats::percentile(&ms, 90.0));
    let name = if args.workload == "serve-fleet" { "sim_frames_per_s" } else { "frames_per_s" };
    println!(
        "({name}: simulated frames per host second; op percentiles over the fastest repeat of {} ops \
         over {passes} passes; over all {} samples: p50 {:.6} ms, p90 {:.6} ms)",
        ms.len(),
        raw_ms.len(),
        stats::percentile(&raw_ms, 50.0),
        stats::percentile(&raw_ms, 90.0)
    );
    println!("ops_failed {} of {} ops", ledger.failed, ledger.attempted());
    println!("sim_digest {}", ledger.sim_digest(w.as_ref()));
    for line in w.notes() {
        println!("{line}");
    }
    print_failures(&ledger, &run_failures);

    let correct = ledger.failed == 0 && run_failures.is_empty();
    let metrics: Vec<(&str, f64, &str)> =
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect();
    println!("{}", json(correct, ledger.attempted(), ledger.failed, &metrics));
    Ok(())
}

fn traced_run(args: &Args) -> Result<(), String> {
    let mut spans = Spans::default();
    let mut w = setup(args.workload, args.seed, Some(&mut spans));
    let before = cache_counters();
    let (plain, traced, coverage, passes) = run_passes(w.as_mut(), args.seconds, Some(&mut spans));
    let mut run_failures = Vec::new();
    cache_check(args.workload, before, cache_counters(), &mut run_failures);
    let (overheads, overhead_failures) = w.overheads();
    run_failures.extend(overhead_failures);

    let mut values: Vec<(&str, f64)> = Vec::new();
    for (name, unit) in PER_LAYER {
        if let (Some(span_name), "s") = (name.strip_suffix("_s"), unit) {
            values.push((name, spans.total(span_name).mean_s()));
        }
    }
    values.extend(w.layer_counts());
    values.extend(overheads);
    let traced_fps = traced.frames_per_s();
    values.push(("bench.span_overhead_ratio", traced.total_secs() / plain.total_secs().max(1e-12)));
    values.push(("bench.span_coverage", stats::mean(&coverage)));
    values.push(("bench.traced_frames_per_s", traced_fps));

    println!(
        "workload {} seed {} traced passes {passes} ops {} per pass",
        args.workload,
        args.seed,
        w.ops()
    );
    println!("span                         calls     total_s      mean_s");
    for (name, t) in spans.totals() {
        println!("{name:<28} {:>5} {:>11.4} {:>11.6}", t.calls, t.ns as f64 / 1e9, t.mean_s());
    }
    println!(
        "span self time / op host time: mean {:.4}, min {:.4}",
        stats::mean(&coverage),
        coverage.iter().copied().fold(f64::INFINITY, f64::min)
    );
    println!(
        "tracing overhead: untraced {:.4} frames/s, traced {:.4} frames/s (gap {:+.2}%)",
        plain.frames_per_s(),
        traced_fps,
        (plain.frames_per_s() / traced_fps - 1.0) * 100.0
    );
    let attempted = plain.attempted() + traced.attempted();
    println!("ops_failed {} of {attempted} ops", plain.failed + traced.failed);
    println!("sim_digest {}", plain.sim_digest(w.as_ref()));
    print_failures(&plain, &run_failures);
    print_failures(&traced, &[]);

    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            (name, v, unit)
        })
        .collect();
    for (name, v, unit) in &metrics {
        println!("{name:<30} {v:>16.6} {unit}");
    }
    let failed = plain.failed + traced.failed;
    let correct = failed == 0 && run_failures.is_empty();
    println!("{}", json(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let start = CpuTimer::start();
        let w = setup(args.workload, args.seed, None);
        println!("setup_s {}", start.secs());
        drop(w);
        return ExitCode::SUCCESS;
    }
    // Failed output checks are reported in the JSON line: the run itself
    // completed.
    let result = if args.trace { traced_run(&args) } else { measured_run(&args) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("oobench: {e}");
            ExitCode::FAILURE
        }
    }
}
