//! Host time of fresh Baseline frames and OO-VR `run_distribution` calls
//! of the nine Table 3 scenes, and with the `stage-spans` feature its
//! split into the render kernel's stages: the fragment quad loop, the
//! fabric `apply` and everything else (see `oovr_gpu::stages`).
//!
//! ```text
//! cargo run --release -p oovr --example stage_split [scale] [reps]
//! cargo run --release -p oovr --features stage-spans --example stage_split [scale] [reps]
//! ```
//!
//! Each call's time is its fastest of `reps` repeats; with the feature,
//! the split printed is that fastest repeat's, and the run fails unless
//! the stages add up to the call's wall time within 5%. Comparing the wall
//! times of the two builds shows what the spans themselves cost.

use std::time::Instant;

use oovr::schemes::OoVr;
use oovr::{build_batches, run_distribution};
use oovr_frameworks::{Baseline, RenderScheme};
use oovr_gpu::{ColorMode, Executor, FbOrg, GpuConfig};
use oovr_mem::Placement;
use oovr_scene::benchmarks;

/// Host nanoseconds per stage (all in "other" without the feature).
type Split = [u64; 3];

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);
    let cfg = GpuConfig::default();
    let scenes: Vec<_> = benchmarks::all().into_iter().map(|s| s.scaled(scale).build()).collect();
    let oovr = OoVr::new();
    // Per scheme and scene: the fastest repeat's wall time and split.
    let mut best = vec![[(u64::MAX, Split::default()); 2]; scenes.len()];
    for _ in 0..reps {
        for (scene, best) in scenes.iter().zip(&mut best) {
            let (wall, split) = timed(|| {
                Baseline::new().render_frame(scene, &cfg);
            });
            best[0] = best[0].min((wall, split));
            let mut ex = Executor::new(
                cfg.clone(),
                scene,
                Placement::FirstTouch,
                FbOrg::Columns,
                ColorMode::Deferred,
            );
            let batches = build_batches(scene, oovr.middleware);
            let (wall, split) = timed(|| {
                run_distribution(&mut ex, &batches, &oovr.distribution);
            });
            best[1] = best[1].min((wall, split));
        }
    }
    let n = scenes.len() as f64;
    println!("scale {scale}, fastest of {reps} per scene; mean ms per frame (share of the stages)");
    print!("{:<24} {:>9}", "call", "wall");
    for name in ["quad_loop", "fabric", "other"] {
        print!(" {name:>16}");
    }
    println!(" {:>11}", "stages/wall");
    for (s, label) in ["Baseline render_frame", "OO-VR run_distribution"].iter().enumerate() {
        let wall: u64 = best.iter().map(|b| b[s].0).sum();
        let mut split = Split::default();
        for b in &best {
            for (t, ns) in split.iter_mut().zip(b[s].1) {
                *t += ns;
            }
        }
        let stages: u64 = split.iter().sum();
        print!("{label:<24} {:>9.2}", wall as f64 / n / 1e6);
        for ns in split {
            let share = ns as f64 / stages as f64 * 100.0;
            print!(" {:>7.2} ({share:>5.1}%)", ns as f64 / n / 1e6);
        }
        let ratio = stages as f64 / wall as f64;
        println!(" {ratio:>11.4}");
        if cfg!(feature = "stage-spans") {
            assert!(
                (ratio - 1.0).abs() < 0.05,
                "{label}: stages sum to {ratio:.4} of the wall time"
            );
        }
    }
}

/// Runs `f`, returning its wall nanoseconds and its stage split.
fn timed(f: impl FnOnce()) -> (u64, Split) {
    #[cfg(feature = "stage-spans")]
    oovr_gpu::stages::reset();
    let start = Instant::now();
    f();
    let wall = start.elapsed().as_nanos() as u64;
    #[cfg(feature = "stage-spans")]
    let split = oovr_gpu::stages::take().ns;
    #[cfg(not(feature = "stage-spans"))]
    let split = [0, 0, wall];
    (wall, split)
}
