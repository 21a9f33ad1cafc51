//! Content-addressed render cache shared by every experiment runner.
//!
//! The `figures` harness regenerates 14+ tables, and many of them render the
//! identical (scene, scheme, config) combination: fig15's per-workload
//! Baseline render is also fig16's traffic reference, fig17's 64 GB/s cell,
//! fig18's 4-GPM cell, and the resilience grid's fault-free reference. The
//! paper's own insight — exploit sharing instead of recomputing (§4.2 TSL
//! batching) — applies to the harness too, so this module memoizes at two
//! levels:
//!
//! * **Scenes** are built once per [`BenchmarkSpec`] and shared as
//!   `Arc<Scene>` across all tables. The cache key is a SHA-256 digest of
//!   every spec field; `BenchmarkSpec::build` is deterministic, so the spec
//!   digest is a content fingerprint of the scene itself.
//! * **Frame renders** are memoized by a digest of (scene fingerprint,
//!   scheme tag, full [`GpuConfig`] — GPM count, link bandwidth and the
//!   fault plan, floats hashed via `to_bits`). Renders are deterministic, so a
//!   cache hit returns a bit-identical [`FrameReport`].
//!
//! Invalidation is structural: any change to a spec, scheme or config field
//! lands in the digest and misses. Nothing is ever evicted within a process
//! (a full `figures` run retains a few hundred small reports). Experiments
//! that construct bespoke executors or render warm multi-frame sequences
//! (`smp_validation`, the ablations, `steady_state`) bypass the cache.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use oovr_frameworks::RenderScheme as _;
use oovr_gpu::{FaultPlan, FrameReport, GpuConfig};
use oovr_scene::{BenchmarkSpec, Scene};

use crate::experiments::SchemeKind;
use crate::schemes::OoVr;

/// A scene plus its content fingerprint, shared across experiments.
#[derive(Debug, Clone)]
pub struct SceneHandle {
    scene: Arc<Scene>,
    fingerprint: [u8; 32],
}

impl SceneHandle {
    /// The content fingerprint (SHA-256 of the generating spec).
    pub fn fingerprint(&self) -> &[u8; 32] {
        &self.fingerprint
    }
}

impl std::ops::Deref for SceneHandle {
    type Target = Scene;

    fn deref(&self) -> &Scene {
        &self.scene
    }
}

/// Hit/miss counters for the process-wide cache (observability + tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderCacheStats {
    /// Scenes built (scene-cache misses).
    pub scene_builds: u64,
    /// Frame renders answered from the memo table.
    pub frame_hits: u64,
    /// Frame renders actually executed.
    pub frame_misses: u64,
}

/// A process-wide memo table keyed by a content digest, counting hits and
/// builds. Values are built outside the lock: a concurrent duplicate build
/// is benign (determinism makes both identical) and the first insert wins.
#[derive(Debug)]
pub struct Memo<V> {
    map: Mutex<BTreeMap<[u8; 32], V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> Memo<V> {
    /// An empty table (usable as a `static`).
    pub const fn new() -> Self {
        Memo {
            map: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The value under `key`, built by `build` on first use.
    pub fn get_or_build(&self, key: [u8; 32], build: impl FnOnce() -> V) -> V {
        if let Some(v) = lock(&self.map).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        let built = build();
        self.misses.fetch_add(1, Ordering::Relaxed);
        lock(&self.map).entry(key).or_insert(built).clone()
    }

    /// Lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Values built (table misses).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl<V: Clone> Default for Memo<V> {
    fn default() -> Self {
        Memo::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock only means a sibling experiment thread panicked while
    // inserting; the map itself is still a valid memo table.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static SCENES: Memo<Arc<Scene>> = Memo::new();
static FRAMES: Memo<FrameReport> = Memo::new();

/// Current cache counters.
pub fn stats() -> RenderCacheStats {
    RenderCacheStats {
        scene_builds: SCENES.misses(),
        frame_hits: FRAMES.hits(),
        frame_misses: FRAMES.misses(),
    }
}

/// The scene for `spec`, built on first use and shared thereafter.
pub fn scene_for(spec: &BenchmarkSpec) -> SceneHandle {
    let fp = spec_digest(spec);
    SceneHandle { scene: SCENES.get_or_build(fp, || Arc::new(spec.build())), fingerprint: fp }
}

/// Renders `scene` under `kind`/`cfg`, memoized. Cache hits return a clone
/// of the first render's report; determinism makes that bit-identical to
/// re-rendering.
pub fn render(kind: SchemeKind, scene: &SceneHandle, cfg: &GpuConfig) -> FrameReport {
    let key = frame_key(scene.fingerprint(), scheme_tag(kind), None, cfg);
    FRAMES.get_or_build(key, || kind.render(scene, cfg))
}

/// Renders `scene` under OO-VR with runtime countermeasures and the given
/// frame deadline, memoized (the deadline participates in the key).
pub fn render_resilient(deadline_cycles: u64, scene: &SceneHandle, cfg: &GpuConfig) -> FrameReport {
    let key = frame_key(scene.fingerprint(), RESILIENT_TAG, Some(deadline_cycles), cfg);
    FRAMES.get_or_build(key, || {
        OoVr::resilient_with_deadline(deadline_cycles).render_frame(scene, cfg)
    })
}

/// Serializes the lib tests that render through the memo: the cache tests
/// assert exact deltas of the process-wide counters, which a concurrently
/// rendering test would otherwise bump.
#[cfg(test)]
pub(crate) fn memo_test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

// ---------------------------------------------------------------------------
// Key construction. Every field of the spec/config is serialized into the
// digest (floats via to_bits), with domain-separation prefixes so a spec
// digest can never collide with a frame key.
// ---------------------------------------------------------------------------

/// Tag for the resilient OO-VR variant, disjoint from [`scheme_tag`] values.
const RESILIENT_TAG: u8 = 0x80;

fn scheme_tag(kind: SchemeKind) -> u8 {
    match kind {
        SchemeKind::Baseline => 0,
        SchemeKind::FrameLevel => 1,
        SchemeKind::TileV => 2,
        SchemeKind::TileH => 3,
        SchemeKind::ObjectLevel => 4,
        SchemeKind::OoApp => 5,
        SchemeKind::OoVr => 6,
        SchemeKind::SortMiddle => 7,
    }
}

struct Digest(oovr_hash::Sha256);

impl Digest {
    fn new(domain: &[u8]) -> Self {
        let mut h = oovr_hash::Sha256::new();
        h.update(domain);
        Digest(h)
    }

    fn u8(&mut self, v: u8) {
        self.0.update(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.0.update(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.update(s.as_bytes());
    }

    fn finish(self) -> [u8; 32] {
        self.0.finalize()
    }
}

/// Content fingerprint of a workload spec (and, by determinism of
/// `BenchmarkSpec::build`, of the scene it generates).
pub fn spec_digest(spec: &BenchmarkSpec) -> [u8; 32] {
    let mut d = Digest::new(b"oovr:spec:v1");
    d.str(&spec.name);
    d.u32(spec.resolution.width);
    d.u32(spec.resolution.height);
    d.u32(spec.draws);
    d.u64(spec.seed);
    let p = &spec.personality;
    d.u32(p.texture_pool);
    d.f64(p.zipf_s);
    d.f64(p.overdraw);
    d.u64(p.tri_total);
    d.f64(p.secondary_tex_prob);
    d.f64(p.size_sigma);
    d.f64(p.dep_prob);
    d.f32(p.uv_scale.0);
    d.f32(p.uv_scale.1);
    d.f32(p.disparity);
    d.u32(p.tex_log2.0);
    d.u32(p.tex_log2.1);
    d.finish()
}

/// Digest of every `GpuConfig` field, including the fault plan.
pub fn config_digest(cfg: &GpuConfig) -> [u8; 32] {
    let mut d = Digest::new(b"oovr:cfg:v1");
    put_config(&mut d, cfg);
    d.finish()
}

fn put_config(d: &mut Digest, cfg: &GpuConfig) {
    d.u64(cfg.n_gpms as u64);
    d.f64(cfg.link_gbps);
    match &cfg.fault {
        None => d.u8(0),
        Some(plan) => {
            d.u8(1);
            put_fault(d, plan);
        }
    }
}

fn put_fault(d: &mut Digest, plan: &FaultPlan) {
    d.str(plan.scenario.name());
    d.f64(plan.severity);
    d.u64(plan.seed);
    d.u64(plan.horizon);
}

fn frame_key(
    scene_fp: &[u8; 32],
    scheme: u8,
    deadline_cycles: Option<u64>,
    cfg: &GpuConfig,
) -> [u8; 32] {
    let mut d = Digest::new(b"oovr:frame:v1");
    d.0.update(scene_fp);
    d.u8(scheme);
    match deadline_cycles {
        None => d.u8(0),
        Some(c) => {
            d.u8(1);
            d.u64(c);
        }
    }
    put_config(&mut d, cfg);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::benchmarks;

    fn spec() -> BenchmarkSpec {
        benchmarks::hl2_640().scaled(0.05)
    }

    #[test]
    fn spec_digest_is_field_sensitive() {
        let a = spec();
        let mut b = spec();
        assert_eq!(spec_digest(&a), spec_digest(&a));
        b.seed ^= 1;
        assert_ne!(spec_digest(&a), spec_digest(&b));
        let mut c = spec();
        c.personality.zipf_s += 0.001;
        assert_ne!(spec_digest(&a), spec_digest(&c));
    }

    #[test]
    fn config_digest_covers_fault_plan_and_floats() {
        use oovr_gpu::FaultScenario;
        let base = GpuConfig::default();
        assert_eq!(config_digest(&base), config_digest(&GpuConfig::default()));
        let bw = GpuConfig::default().with_link_gbps(64.0 + 1e-9);
        assert_ne!(config_digest(&base), config_digest(&bw));
        let f1 = base.clone().with_fault(FaultPlan::new(FaultScenario::LinkDegrade, 0.5, 1));
        let f2 = base.clone().with_fault(FaultPlan::new(FaultScenario::LinkDegrade, 0.5, 2));
        assert_ne!(config_digest(&base), config_digest(&f1));
        assert_ne!(config_digest(&f1), config_digest(&f2));
    }

    #[test]
    fn identical_config_expressions_share_a_key() {
        // figures relies on this: fig4's 64 GB/s cell and fig15's default
        // cell are the same render and must hit the same memo entry.
        assert_eq!(
            config_digest(&GpuConfig::default()),
            config_digest(&GpuConfig::default().with_link_gbps(64.0))
        );
    }

    #[test]
    fn scene_cache_shares_and_render_cache_hits() {
        let _memo = memo_test_lock();
        let s1 = scene_for(&spec());
        let s2 = scene_for(&spec());
        assert!(Arc::ptr_eq(&s1.scene, &s2.scene));

        let cfg = GpuConfig::default();
        let before = stats();
        let a = render(SchemeKind::Baseline, &s1, &cfg);
        let b = render(SchemeKind::Baseline, &s2, &cfg);
        let after = stats();
        assert_eq!(a.frame_cycles, b.frame_cycles);
        assert_eq!(a.inter_gpm_bytes(), b.inter_gpm_bytes());
        assert_eq!(after.frame_misses - before.frame_misses, 1);
        assert!(after.frame_hits > before.frame_hits);
    }

    #[test]
    fn resilient_renders_key_on_deadline() {
        let _memo = memo_test_lock();
        let s = scene_for(&spec());
        let cfg = GpuConfig::default();
        let before = stats();
        let _ = render_resilient(1_000_000, &s, &cfg);
        let _ = render_resilient(2_000_000, &s, &cfg);
        let after = stats();
        assert_eq!(after.frame_misses - before.frame_misses, 2);
    }
}
