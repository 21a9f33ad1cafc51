//! Deterministic fault injection: seeded, time-varying hardware faults.
//!
//! Real NUMA multi-GPU parts do not run at nameplate rates for a whole
//! frame: NVLinks retrain to lower widths, GPMs throttle thermally, and
//! transient stalls steal cycles. A [`FaultPlan`] compiles a fault scenario
//! into per-link and per-GPM [`RateSchedule`]s that the executor installs on
//! the bandwidth servers and pipeline clocks. Everything is a pure function
//! of `(scenario, severity, seed)`, so a faulted experiment is exactly as
//! reproducible as a fault-free one.
//!
//! The scenarios are deliberately *asymmetric*: one victim GPM (chosen from
//! the seed) takes the brunt while its peers stay healthy. Symmetric faults
//! merely rescale the frame; asymmetric ones break the distribution engine's
//! equal-rate assumption, which is what the resilience countermeasures in
//! `oovr::distribution` exist to repair.

use oovr_mem::{Cycle, GpmId, RateSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::MAX_FRAME_CYCLES;
use crate::error::GpuError;

/// The VR frame budget in cycles at the 1 GHz clock of Table 2: 11.1 ms for
/// 90 FPS (Table 1 of the paper).
pub const VR_DEADLINE_CYCLES: Cycle = 11_100_000;

/// The class of hardware misbehavior a [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// The victim GPM's links run at a sustained fraction of nominal
    /// bandwidth (NVLink trained down to fewer lanes).
    LinkDegrade,
    /// The victim GPM's links suffer intermittent full outages (retrain
    /// events); between outages they are healthy.
    LinkDown,
    /// The victim GPM's pipeline clock is throttled (thermal capping).
    GpmThrottle,
    /// Every GPM suffers short random pipeline stalls.
    TransientStall,
    /// Milder combination of link degradation, throttling, and stalls.
    Mixed,
}

impl FaultScenario {
    /// All scenarios, in sweep order.
    pub const ALL: [FaultScenario; 5] = [
        FaultScenario::LinkDegrade,
        FaultScenario::LinkDown,
        FaultScenario::GpmThrottle,
        FaultScenario::TransientStall,
        FaultScenario::Mixed,
    ];

    /// Short stable name for tables and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::LinkDegrade => "link-degrade",
            FaultScenario::LinkDown => "link-down",
            FaultScenario::GpmThrottle => "gpm-throttle",
            FaultScenario::TransientStall => "transient-stall",
            FaultScenario::Mixed => "mixed",
        }
    }
}

/// A deterministic, seeded plan of time-varying hardware faults.
///
/// `severity` scales every fault in `[0, 1]`; `0` is a guaranteed no-op
/// (every schedule query returns `None`, leaving the exact fixed-rate
/// arithmetic untouched). `horizon` is the time span over which fault
/// windows are laid out; past it, sustained scenarios hold their degraded
/// rate and transient ones return to nominal. A window (an eighth of the
/// horizon) must stay shorter than [`MAX_FRAME_CYCLES`]
/// ([`validate`](Self::validate)).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fault class to inject.
    pub scenario: FaultScenario,
    /// Fault strength in `[0, 1]`.
    pub severity: f64,
    /// Seed defining the victim, windows, and jitter.
    pub seed: u64,
    /// Span over which fault windows are generated.
    pub horizon: Cycle,
}

/// Number of fault windows laid across the horizon.
const WINDOWS: u64 = 8;

impl FaultPlan {
    /// Creates a plan over the default [`VR_DEADLINE_CYCLES`] horizon.
    pub fn new(scenario: FaultScenario, severity: f64, seed: u64) -> Self {
        FaultPlan { scenario, severity, seed, horizon: VR_DEADLINE_CYCLES }
    }

    /// A plan that injects nothing (equivalent to no plan at all).
    pub fn none() -> Self {
        FaultPlan::new(FaultScenario::LinkDegrade, 0.0, 0)
    }

    /// Returns a copy with a different window horizon.
    pub fn with_horizon(mut self, horizon: Cycle) -> Self {
        self.horizon = horizon;
        self
    }

    /// Whether this plan injects nothing.
    pub fn is_noop(&self) -> bool {
        self.severity <= 0.0
    }

    /// Validates the plan's fields.
    pub fn validate(&self) -> Result<(), GpuError> {
        if !self.severity.is_finite() || !(0.0..=1.0).contains(&self.severity) {
            return Err(GpuError::InvalidFault(format!(
                "severity must be in [0, 1], got {}",
                self.severity
            )));
        }
        if self.horizon == 0 {
            return Err(GpuError::InvalidFault("horizon must be positive".to_string()));
        }
        // An outage lasts up to a whole window, and no frame outlasts the
        // runaway guard.
        if self.window_len() >= MAX_FRAME_CYCLES {
            return Err(GpuError::InvalidFault(format!(
                "horizon {} lays {WINDOWS} fault windows of {MAX_FRAME_CYCLES} cycles or more",
                self.horizon
            )));
        }
        Ok(())
    }

    /// The GPM this plan victimizes in an `n_gpms` system.
    pub fn victim(&self, n_gpms: usize) -> GpmId {
        GpmId((self.seed % n_gpms.max(1) as u64) as u8)
    }

    /// The fault schedule of the directed link `from → to`, or `None` when
    /// the link is unaffected (exact nominal-rate arithmetic).
    pub fn link_schedule(&self, from: GpmId, to: GpmId, n_gpms: usize) -> Option<RateSchedule> {
        if self.is_noop() || n_gpms <= 1 || from == to {
            return None;
        }
        let v = self.victim(n_gpms);
        let touches_victim = from == v || to == v;
        let salt = 0x100 + (from.index() as u64) * 32 + to.index() as u64;
        match self.scenario {
            FaultScenario::LinkDegrade => touches_victim.then(|| self.degrade_schedule(salt, 0.9)),
            FaultScenario::LinkDown => {
                if touches_victim {
                    self.outage_schedule(salt, 0.5 * self.severity, 0.2 + 0.6 * self.severity)
                } else {
                    None
                }
            }
            FaultScenario::Mixed => touches_victim.then(|| self.degrade_schedule(salt, 0.45)),
            FaultScenario::GpmThrottle | FaultScenario::TransientStall => None,
        }
    }

    /// The pipeline-clock fault schedule of one GPM, or `None` when the GPM
    /// runs at nominal rate.
    pub fn gpm_schedule(&self, gpm: GpmId, n_gpms: usize) -> Option<RateSchedule> {
        if self.is_noop() {
            return None;
        }
        let v = self.victim(n_gpms);
        let salt = 0x10000 + gpm.index() as u64;
        match self.scenario {
            FaultScenario::LinkDegrade | FaultScenario::LinkDown => None,
            FaultScenario::GpmThrottle => (gpm == v).then(|| self.degrade_schedule(salt, 0.7)),
            FaultScenario::TransientStall => {
                self.outage_schedule(salt, 0.4 * self.severity, 0.1 + 0.2 * self.severity)
            }
            FaultScenario::Mixed => {
                if gpm == v {
                    Some(self.degrade_schedule(salt, 0.35))
                } else {
                    self.outage_schedule(salt, 0.15 * self.severity, 0.1 + 0.1 * self.severity)
                }
            }
        }
    }

    /// Compiles this plan into the per-link and per-GPM schedules an
    /// `n_gpms` system installs: the one shared unit behind the executor's
    /// bandwidth-server install loop, the cluster tier's per-server rates
    /// ([`server_schedule`](Self::server_schedule)), and the edge tier's
    /// client link. `links` holds only the affected directed pairs;
    /// `gpms[g]` is `None` for GPMs left at exact nominal-rate arithmetic.
    pub fn compile(&self, n_gpms: usize) -> CompiledFault {
        let ids = || (0..n_gpms).map(|g| GpmId(g as u8));
        let mut links = Vec::new();
        for from in ids() {
            for to in ids() {
                if let Some(s) = self.link_schedule(from, to, n_gpms) {
                    links.push((from, to, s));
                }
            }
        }
        let gpms = ids().map(|g| self.gpm_schedule(g, n_gpms)).collect();
        CompiledFault { links, gpms }
    }

    /// The full serving-rate schedule of one *server* in an `n_servers`
    /// fleet, or `None` when the server runs at exact nominal rate. The
    /// compiled form of [`server_rate_at`](Self::server_rate_at): the
    /// breakpoint-union product of the server's pipeline-clock schedule and
    /// the victim's uplink schedule, clamped to `[0, 1]` — so callers that
    /// sample every interval (the cluster tier) or install it on a
    /// bandwidth server (the edge link) share one compilation instead of
    /// re-deriving the combination per query.
    pub fn server_schedule(&self, server: usize, n_servers: usize) -> Option<RateSchedule> {
        if self.is_noop() || n_servers == 0 {
            return None;
        }
        let id = GpmId((server % n_servers.min(256)) as u8);
        let gpm = self.gpm_schedule(id, n_servers);
        let link = if n_servers > 1 && id == self.victim(n_servers) {
            let peer = GpmId(((server + 1) % n_servers.min(256)) as u8);
            self.link_schedule(id, peer, n_servers)
        } else {
            None
        };
        match (gpm, link) {
            (None, None) => None,
            (Some(s), None) | (None, Some(s)) => Some(clamp_schedule(&s)),
            (Some(g), Some(l)) => Some(product_schedule(&g, &l)),
        }
    }

    /// The serving-rate multiplier of one *server* in an `n_servers` fleet
    /// at time `t`, for the cluster tier that reuses fault plans at
    /// server granularity (server index plays the role of the GPM id).
    ///
    /// The rate combines the server's pipeline-clock schedule with the
    /// victim's uplink schedule (a server whose link is down cannot accept
    /// or serve sessions), so `link-down` kills the victim server outright
    /// while `gpm-throttle` merely shrinks its capacity. `0.0` means dead;
    /// `1.0` means nominal. Point-query form of
    /// [`server_schedule`](Self::server_schedule); per-interval callers
    /// should compile once and sample the schedule instead.
    pub fn server_rate_at(&self, server: usize, n_servers: usize, t: Cycle) -> f64 {
        match self.server_schedule(server, n_servers) {
            Some(sch) => sch.multiplier_at(t),
            None => 1.0,
        }
    }

    /// Whether this plan actually perturbs at least one server rate when
    /// sampled every `step` cycles across the horizon. Low-severity
    /// transient scenarios can draw zero outage windows; chaos sweeps use
    /// this to scan seeds until every cell's fault genuinely bites.
    pub fn disturbs_servers(&self, n_servers: usize, step: Cycle) -> bool {
        if self.is_noop() {
            return false;
        }
        let scheds: Vec<Option<RateSchedule>> =
            (0..n_servers).map(|s| self.server_schedule(s, n_servers)).collect();
        let step = step.max(1);
        let mut t: Cycle = 0;
        while t <= self.horizon {
            for sch in scheds.iter().flatten() {
                if sch.multiplier_at(t) < 1.0 {
                    return true;
                }
            }
            t += step;
        }
        false
    }

    /// Per-entity generator: a pure function of the plan seed and a salt, so
    /// each link/GPM draws an independent but reproducible stream.
    fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn window_len(&self) -> Cycle {
        (self.horizon / WINDOWS).max(1)
    }

    /// Sustained degradation: per-window jitter around a base multiplier of
    /// `1 − depth × severity`, holding the base past the horizon.
    fn degrade_schedule(&self, salt: u64, depth: f64) -> RateSchedule {
        let base = (1.0 - depth * self.severity).max(0.05);
        let mut rng = self.rng(salt);
        let wl = self.window_len();
        let mut segs = Vec::with_capacity(WINDOWS as usize + 1);
        for w in 0..WINDOWS {
            let jitter = rng.gen_range(0.85f64..1.15);
            segs.push((w * wl, (base * jitter).clamp(0.02, 1.0)));
        }
        segs.push((WINDOWS * wl, base));
        RateSchedule::new(segs)
    }

    /// Transient outages: each window goes fully down with probability
    /// `p_down` for `dur_frac` of its length, healthy otherwise. Returns
    /// `None` when no outage was drawn.
    fn outage_schedule(&self, salt: u64, p_down: f64, dur_frac: f64) -> Option<RateSchedule> {
        let mut rng = self.rng(salt);
        let wl = self.window_len();
        let mut segs: Vec<(Cycle, f64)> = vec![(0, 1.0)];
        let mut any = false;
        for w in 0..WINDOWS {
            let down = rng.gen_bool(p_down.clamp(0.0, 1.0));
            if down {
                any = true;
                let t0 = w * wl;
                let dur = ((wl as f64 * dur_frac.clamp(0.0, 1.0)) as Cycle)
                    .clamp(1, wl.saturating_sub(1).max(1));
                push_seg(&mut segs, t0, 0.0);
                push_seg(&mut segs, t0 + dur, 1.0);
            }
        }
        any.then(|| RateSchedule::new(segs))
    }
}

/// A [`FaultPlan`] compiled into the concrete schedules an `n_gpms` system
/// installs ([`FaultPlan::compile`]): the affected directed links and the
/// per-GPM pipeline-clock schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFault {
    /// `(from, to, schedule)` for every directed link the plan degrades.
    pub links: Vec<(GpmId, GpmId, RateSchedule)>,
    /// Pipeline-clock schedule per GPM; `None` keeps the GPM at exact
    /// nominal-rate arithmetic.
    pub gpms: Vec<Option<RateSchedule>>,
}

/// Clamps every segment multiplier into `[0, 1]` — the same clamp the
/// point query applies after combining schedules, applied once at compile
/// time so sampling the compiled schedule is bit-identical to the query.
fn clamp_schedule(s: &RateSchedule) -> RateSchedule {
    RateSchedule::new(s.segments().iter().map(|&(t, m)| (t, m.clamp(0.0, 1.0))).collect())
}

/// The pointwise product of two piecewise-constant schedules, clamped to
/// `[0, 1]`: breakpoints are the union of both inputs' breakpoints, and
/// within every union segment the product of two constants is constant, so
/// `product(a, b).multiplier_at(t) == (a.multiplier_at(t) *
/// b.multiplier_at(t)).clamp(0.0, 1.0)` exactly, for every `t`.
fn product_schedule(a: &RateSchedule, b: &RateSchedule) -> RateSchedule {
    let mut starts: Vec<Cycle> = a.segments().iter().chain(b.segments()).map(|&(t, _)| t).collect();
    starts.sort_unstable();
    starts.dedup();
    let mut segs: Vec<(Cycle, f64)> = Vec::with_capacity(starts.len());
    for t in starts {
        let m = (a.multiplier_at(t) * b.multiplier_at(t)).clamp(0.0, 1.0);
        push_seg(&mut segs, t, m);
    }
    RateSchedule::new(segs)
}

/// Appends a breakpoint, merging equal-time and equal-rate neighbors so the
/// segment starts stay strictly increasing.
fn push_seg(segs: &mut Vec<(Cycle, f64)>, t: Cycle, m: f64) {
    if let Some(last) = segs.last_mut() {
        if last.0 == t {
            last.1 = m;
            return;
        }
        if last.1 == m {
            return;
        }
    }
    segs.push((t, m));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_severity_is_noop() {
        let p = FaultPlan::none();
        assert!(p.is_noop());
        for from in 0..4u8 {
            for to in 0..4u8 {
                assert!(p.link_schedule(GpmId(from), GpmId(to), 4).is_none());
            }
            assert!(p.gpm_schedule(GpmId(from), 4).is_none());
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::new(FaultScenario::Mixed, 0.7, 42);
        let b = FaultPlan::new(FaultScenario::Mixed, 0.7, 42);
        for from in 0..4u8 {
            for to in 0..4u8 {
                assert_eq!(
                    a.link_schedule(GpmId(from), GpmId(to), 4),
                    b.link_schedule(GpmId(from), GpmId(to), 4)
                );
            }
            assert_eq!(a.gpm_schedule(GpmId(from), 4), b.gpm_schedule(GpmId(from), 4));
        }
    }

    #[test]
    fn link_degrade_hits_only_victim_links() {
        let p = FaultPlan::new(FaultScenario::LinkDegrade, 0.5, 1);
        let v = p.victim(4);
        assert_eq!(v, GpmId(1));
        for from in 0..4u8 {
            for to in 0..4u8 {
                let (f, t) = (GpmId(from), GpmId(to));
                let s = p.link_schedule(f, t, 4);
                if f == t {
                    assert!(s.is_none());
                } else if f == v || t == v {
                    let s = s.expect("victim link degraded");
                    assert!(s.multiplier_at(0) < 1.0);
                    // Sustained past the horizon.
                    assert!(s.multiplier_at(p.horizon * 10) < 1.0);
                } else {
                    assert!(s.is_none(), "healthy link {f}->{t} must keep exact arithmetic");
                }
                assert!(p.gpm_schedule(f, 4).is_none());
            }
        }
    }

    #[test]
    fn throttle_hits_only_victim_gpm() {
        let p = FaultPlan::new(FaultScenario::GpmThrottle, 0.8, 6);
        let v = p.victim(4);
        assert_eq!(v, GpmId(2));
        for g in 0..4u8 {
            let s = p.gpm_schedule(GpmId(g), 4);
            if GpmId(g) == v {
                assert!(s.expect("victim throttled").multiplier_at(0) < 1.0);
            } else {
                assert!(s.is_none());
            }
        }
    }

    #[test]
    fn outages_recover_after_horizon() {
        // High severity makes outage windows near-certain.
        let p = FaultPlan::new(FaultScenario::LinkDown, 1.0, 3);
        let v = p.victim(4);
        let other = GpmId((v.index() as u8 + 1) % 4);
        let s = p.link_schedule(v, other, 4).expect("victim link has outages");
        // Downtime exists somewhere inside the horizon...
        let wl = p.horizon / 8;
        let down = (0..8u64).any(|w| s.multiplier_at(w * wl) == 0.0);
        assert!(down, "severity-1 plan has at least one outage");
        // ...and the tail is healthy (retrain completes).
        assert_eq!(s.multiplier_at(p.horizon * 4), 1.0);
    }

    #[test]
    fn server_rates_are_nominal_without_faults() {
        let p = FaultPlan::none();
        for s in 0..8 {
            for w in 0..10u64 {
                assert_eq!(p.server_rate_at(s, 8, w * p.horizon / 8), 1.0);
            }
        }
        assert!(!p.disturbs_servers(8, p.horizon / 8));
    }

    #[test]
    fn link_down_kills_only_the_victim_server() {
        let p = FaultPlan::new(FaultScenario::LinkDown, 1.0, 3);
        let v = p.victim(4).index();
        let wl = p.horizon / 8;
        let mut victim_died = false;
        for s in 0..4 {
            for w in 0..8u64 {
                let r = p.server_rate_at(s, 4, w * wl);
                if s == v {
                    victim_died |= r == 0.0;
                } else {
                    assert_eq!(r, 1.0, "non-victim server {s} must stay nominal");
                }
            }
        }
        assert!(victim_died, "severity-1 link-down must kill the victim server");
        assert!(p.disturbs_servers(4, wl));
    }

    #[test]
    fn throttle_degrades_the_victim_server_without_killing_it() {
        let p = FaultPlan::new(FaultScenario::GpmThrottle, 0.8, 6);
        let v = p.victim(4).index();
        let r = p.server_rate_at(v, 4, 0);
        assert!(r > 0.0 && r < 1.0, "throttled victim runs degraded, got {r}");
        assert!(p.disturbs_servers(4, p.horizon / 8));
    }

    #[test]
    fn compiled_server_schedule_matches_the_point_query() {
        // The compiled per-server schedule must agree with the combined
        // point query at every sample, for every scenario and severity —
        // the contract that lets the cluster tier and the edge link sample
        // one compiled schedule instead of re-deriving the product.
        for scenario in FaultScenario::ALL {
            for &sev in &[0.3, 0.7, 1.0] {
                for seed in 0..4u64 {
                    let p = FaultPlan::new(scenario, sev, seed);
                    for n in [1usize, 2, 4] {
                        for server in 0..n {
                            let sch = p.server_schedule(server, n);
                            let wl = p.horizon / 16;
                            for w in 0..40u64 {
                                let t = w * wl;
                                let direct = match &sch {
                                    Some(s) => s.multiplier_at(t),
                                    None => 1.0,
                                };
                                assert_eq!(
                                    direct.to_bits(),
                                    p.server_rate_at(server, n, t).to_bits(),
                                    "{}/{sev}/{seed} server {server}/{n} t={t}",
                                    scenario.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compile_collects_exactly_the_affected_schedules() {
        let n = 4;
        for scenario in FaultScenario::ALL {
            let p = FaultPlan::new(scenario, 0.8, 11);
            let c = p.compile(n);
            assert_eq!(c.gpms.len(), n);
            for (g, slot) in c.gpms.iter().enumerate() {
                assert_eq!(*slot, p.gpm_schedule(GpmId(g as u8), n));
            }
            let mut expected = Vec::new();
            for from in 0..n as u8 {
                for to in 0..n as u8 {
                    if let Some(s) = p.link_schedule(GpmId(from), GpmId(to), n) {
                        expected.push((GpmId(from), GpmId(to), s));
                    }
                }
            }
            assert_eq!(c.links, expected);
        }
        // A no-op plan compiles to nothing.
        let c = FaultPlan::none().compile(n);
        assert!(c.links.is_empty());
        assert!(c.gpms.iter().all(|s| s.is_none()));
    }

    #[test]
    fn mixed_victim_schedule_is_a_genuine_product() {
        // Mixed faults throttle the victim GPM *and* degrade its uplink;
        // the compiled server schedule must be their pointwise product.
        let p = FaultPlan::new(FaultScenario::Mixed, 0.9, 5);
        let n = 4;
        let v = p.victim(n);
        let sch = p.server_schedule(v.index(), n).expect("mixed victim is degraded");
        let gpm = p.gpm_schedule(v, n).expect("victim GPM throttled");
        let peer = GpmId(((v.index() + 1) % n) as u8);
        let link = p.link_schedule(v, peer, n).expect("victim uplink degraded");
        let wl = p.horizon / 32;
        for w in 0..64u64 {
            let t = w * wl;
            let want = (gpm.multiplier_at(t) * link.multiplier_at(t)).clamp(0.0, 1.0);
            assert_eq!(sch.multiplier_at(t).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut p = FaultPlan::new(FaultScenario::LinkDegrade, 1.5, 0);
        assert!(p.validate().is_err());
        p.severity = f64::NAN;
        assert!(p.validate().is_err());
        p.severity = 0.5;
        p.horizon = 0;
        assert!(p.validate().is_err());
        p.horizon = VR_DEADLINE_CYCLES;
        assert!(p.validate().is_ok());
        // The longest horizon whose windows stay under the frame guard.
        p.horizon = WINDOWS * MAX_FRAME_CYCLES - 1;
        assert!(p.validate().is_ok());
        p.horizon += 1;
        assert!(p.validate().is_err());
        p.horizon = u64::MAX;
        assert!(p.validate().is_err());
    }
}
