//! Shared helpers for the figure benches: reduced-scale workloads so
//! `cargo bench` completes quickly while exercising exactly the code paths
//! the full-scale `figures` binary uses.

#![allow(dead_code)] // each bench binary uses a subset of these helpers

use criterion::Criterion;
use oovr_scene::{benchmarks, BenchmarkSpec, Scene};

/// Benchmark scale used by the criterion benches.
pub const BENCH_SCALE: f64 = 0.2;

/// A small representative workload pair: one corridor shooter, one
/// draw-heavy scene.
pub fn scenes() -> Vec<Scene> {
    vec![
        benchmarks::hl2_640().scaled(BENCH_SCALE).build(),
        benchmarks::we().scaled(BENCH_SCALE).build(),
    ]
}

/// One mid-size workload: HL2 at [`BENCH_SCALE`].
pub fn spec() -> BenchmarkSpec {
    benchmarks::hl2_640().scaled(BENCH_SCALE)
}

/// One mid-size scene: [`spec`], built.
pub fn scene() -> Scene {
    spec().build()
}

/// The scaled nine-point suite (for benches that sweep).
pub fn suite() -> Vec<BenchmarkSpec> {
    benchmarks::all().into_iter().map(|s| s.scaled(0.12)).collect()
}

/// Criterion tuned for heavyweight end-to-end simulations.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}
