//! Value-level pins for the edge tier and the serve scheduler it runs on.
//!
//! `prop_edge` checks that the degenerate link equals local serving and
//! that a run replays from its seed, but neither pins a number: a change
//! that moved every schedule the same way on both sides would pass. These
//! tests hash whole [`EdgeOutcome`]s and [`ServeOutcome`] session records
//! (SHA-256 over the `Debug` text, which prints every field and every
//! `f64` at round-trip precision) and compare against digests recorded
//! before the edge tier was folded onto the serve scheduler's core.
//!
//! The configurations run a bounded, lossy link under a severity-1.0
//! link-down plan, provisioned at a quarter of the aggregate demand, so
//! link-budget rejections interleave with Eq. 3 compute admission. A
//! second, tight-vsync configuration makes compute reject sessions the
//! link could still carry, which pins that a compute reject does not
//! hold link budget.

use oovr_edge::{simulate_edge, EdgeConfig, EdgeOutcome, LinkConfig};
use oovr_gpu::{FaultPlan, FaultScenario, GpuConfig};
use oovr_scene::benchmarks;
use oovr_serve::{cost_stream, simulate, ServeConfig, ServeOutcome, ServeScheme};

const SCHEMES: [ServeScheme; 3] =
    [ServeScheme::OoVr, ServeScheme::OoVrShed, ServeScheme::OoVrTemporal];

fn spec() -> oovr_scene::BenchmarkSpec {
    benchmarks::hl2_640().scaled(0.05)
}

/// First 16 hex digits of SHA-256 over the `Debug` text of `value`.
fn digest(value: &impl std::fmt::Debug) -> String {
    oovr_hash::hex_digest(format!("{value:?}").as_bytes())[..16].to_string()
}

fn serve_digest(out: &ServeOutcome) -> String {
    digest(&(&out.sessions, &out.rejects))
}

/// The two pinned serve configurations: the default vsync grid, and one
/// tightened until Eq. 3 admits only about two sessions at a time.
fn serve_configs() -> [ServeConfig; 2] {
    let base = ServeConfig {
        sessions: 10,
        frames_per_session: 6,
        mean_interarrival: oovr_gpu::VSYNC_90HZ_CYCLES / 2,
        seed: 0x5EED_0012,
        ..ServeConfig::default()
    };
    let steady =
        cost_stream(ServeScheme::OoVr, &spec(), &GpuConfig::default()).steady().frame_cycles;
    let tight =
        ServeConfig { vsync_cycles: steady * 2, mean_interarrival: steady / 2, ..base.clone() };
    [base, tight]
}

fn edge_config(serve: ServeConfig) -> EdgeConfig {
    EdgeConfig {
        serve,
        link: LinkConfig {
            provision: 2.0 / 8.0,
            base_loss: 0.05,
            fault: Some(FaultPlan::new(FaultScenario::LinkDown, 1.0, 0xFA17)),
            ..LinkConfig::default()
        },
        reproject: true,
    }
}

fn run_edge(scheme: ServeScheme, serve: ServeConfig) -> EdgeOutcome {
    simulate_edge(scheme, &spec(), &GpuConfig::default(), &edge_config(serve), None)
}

/// Recorded digests, in `serve_configs() × SCHEMES` order.
const EDGE_DIGESTS: [&str; 6] = [
    "5bed60f83af880f0",
    "15735887793bd993",
    "af1f848ea8af81fa",
    "2245a07649b2fa65",
    "31b3bc61a93ea54f",
    "ea93a5cc6296afcb",
];

/// Recorded digests of local serving's `(sessions, rejects)`, same order.
const SERVE_DIGESTS: [&str; 6] = [
    "91475b5cfd26e13a",
    "91475b5cfd26e13a",
    "4ef620e771e2a7f5",
    "642daf47e77d67c4",
    "642daf47e77d67c4",
    "f07d039d1b42d9fe",
];

#[test]
fn edge_outcomes_match_recorded_digests() {
    let (mut link_rejects, mut compute_rejects, mut lost) = (0, 0, 0);
    let mut got = Vec::new();
    for cfg in serve_configs() {
        for scheme in SCHEMES {
            let out = run_edge(scheme, cfg.clone());
            link_rejects += out.link_rejected as usize;
            compute_rejects += out.rejects.len() - out.link_rejected as usize;
            lost += out.sessions.iter().flat_map(|s| &s.frames).filter(|f| f.lost).count();
            got.push(digest(&out));
        }
    }
    // The pins only mean something if both gates and the lossy link bite.
    assert!(link_rejects > 0 && compute_rejects > 0 && lost > 0);
    assert_eq!(got, EDGE_DIGESTS);
}

#[test]
fn serve_records_match_recorded_digests() {
    let mut got = Vec::new();
    for cfg in serve_configs() {
        for scheme in SCHEMES {
            got.push(serve_digest(&simulate(scheme, &spec(), &GpuConfig::default(), &cfg, None)));
        }
    }
    assert_eq!(got, SERVE_DIGESTS);
}
