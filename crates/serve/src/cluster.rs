//! The deterministic multi-server cluster tier: N EDF servers behind the
//! session router.
//!
//! One [`simulate_cluster`] run shards sessions across `N` servers on a
//! shared vsync grid, entirely in simulated time. Each server is the
//! per-interval quantum abstraction of one PR 5 EDF server: at interval
//! `k` (cycle `t = k·V`) a server has `V · rate(s, t)` cycles of render
//! budget — `rate` comes from a *server-level* [`FaultPlan`]
//! ([`FaultPlan::server_rate_at`]; the server index plays the GPM role,
//! `link-down` kills a server outright, `gpm-throttle` shrinks its
//! capacity) — and serves its resident sessions' due frames in session-id
//! order, which is EDF order under the shared per-interval deadline. A
//! frame that does not fit misses its vsync without consuming budget.
//!
//! Cost comes from the memoized per-(scheme, workload, config) cost
//! streams: a session's first served frame after admission, failover, or
//! migration is charged the stream's *cold* PA frame (warm-restart cost),
//! later frames the steady frame. A server hosting more than one distinct
//! cost stream pays a cross-stream working-set tax of
//! `SWITCH_FRAC · V` cycles per extra stream per interval — the term that
//! makes workload-affinity packing ([`crate::router::Placement::Affinity`])
//! genuinely cheaper than spreading streams everywhere.
//!
//! Frames pace from the session's *arrival*: frame `f` is due in interval
//! `arrival + f`. A session stuck in admission backoff therefore loses the
//! frames that pass it by — retry is strictly better than rejection, never
//! free. Goodput counts on-time frames (at any shed scale) over all
//! offered frames, including sessions that were rejected or lost, so every
//! robustness feature has to *earn* its place in the chaos tables.
//!
//! Everything the router does — route, retry, failover, migrate, shed,
//! evict — and the outcome of every paced frame that comes due on a
//! server ([`TraceEvent::ClusterFrame`]) is emitted as a cluster-level
//! [`TraceEvent`] when the run is traced or metered; the fleet metrics
//! are folded from those events after the run
//! ([`crate::metrics::meter_cluster`]).

use std::sync::Arc;

use oovr::{ResilienceConfig, TemporalConfig};
use oovr_gpu::{FaultPlan, GpuConfig, VSYNC_90HZ_CYCLES};
use oovr_metrics::Registry;
use oovr_scene::BenchmarkSpec;
use oovr_trace::{Cycle, Recorder, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::admission::{calibrate_discounted, DEFAULT_HEADROOM};
use crate::capacity::{search, MISS_BUDGET, PROBE_FRAMES};
use crate::metrics::meter_cluster;
use crate::router::{backoff_for, Placement, Router, ServerView};
use crate::scheduler::record_in_cycle_order;
use crate::stream::{cost_stream, ServeScheme, SessionCostStream};

/// Cross-stream working-set tax: fraction of one vsync interval a server
/// pays per distinct resident cost stream beyond the first.
const SWITCH_FRAC: f64 = 0.04;

/// The per-interval working-set tax, in cycles, of a `v`-cycle vsync.
fn switch_tax(v: Cycle) -> u64 {
    ((v as f64) * SWITCH_FRAC) as u64
}

/// Minimum intervals a session stays put after a move before it may be
/// migrated again (anti-ping-pong guard; failover ignores it — a dead host
/// overrides stability).
const MIN_RESIDENCY: u32 = 4;

/// Configuration of one cluster serving run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of servers in the fleet.
    pub servers: u32,
    /// Vsync interval in cycles (default: 90 Hz at the 1 GHz clock).
    pub vsync_cycles: Cycle,
    /// Session arrivals offered to the cluster.
    pub sessions: u32,
    /// Paced frames per session (frame 0 is the warmup frame).
    pub frames_per_session: u32,
    /// Arrivals land uniformly (seeded) over this many leading intervals.
    pub arrival_intervals: u32,
    /// Seed for arrival jitter.
    pub seed: u64,
    /// Placement policy of the session router.
    pub policy: Placement,
    /// Robustness policy of the session router.
    pub router: Router,
    /// Server-level fault plan; `None` (or a zero-severity plan) keeps
    /// every server at nominal rate.
    pub fault: Option<FaultPlan>,
    /// Shedding knobs (`shed_step`, `shed_floor`) for cluster-wide
    /// graceful degradation.
    pub resilience: ResilienceConfig,
    /// Consecutive missed vsyncs at the shedding floor before a session is
    /// evicted (last resort, [`Router::evict`]).
    pub evict_after: u32,
    /// Temporal-reuse knob for [`ServeScheme::temporal`] mix entries:
    /// their steady cost and Eq. 3 demand are discounted by the mean
    /// pose-correlated reuse saving over a reference trajectory.
    pub temporal: TemporalConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 4,
            vsync_cycles: VSYNC_90HZ_CYCLES,
            sessions: 24,
            frames_per_session: 32,
            arrival_intervals: 8,
            seed: 0xC105_7E4D,
            policy: Placement::LeastLoaded,
            router: Router::Resilient,
            fault: None,
            resilience: ResilienceConfig::on(),
            evict_after: 16,
            temporal: TemporalConfig::default(),
        }
    }
}

/// Per-session outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSession {
    /// Global session id (arrival order).
    pub id: u32,
    /// Index of the session's cost stream in the deduplicated mix.
    pub stream: usize,
    /// Arrival interval.
    pub arrival: u32,
    /// Interval the session was admitted, if it ever was.
    pub admitted_at: Option<u32>,
    /// Final server the session lived on, if admitted.
    pub server: Option<u32>,
    /// Paced frames presented on time (any shed scale).
    pub on_time: u64,
    /// Subset of `on_time` served below full shade scale.
    pub degraded: u64,
    /// Failovers plus migrations the session went through.
    pub moves: u32,
    /// Whether the session was evicted before finishing.
    pub evicted: bool,
}

/// Everything one cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Servers in the fleet.
    pub servers: u32,
    /// Sessions offered.
    pub offered: u32,
    /// Sessions admitted (on any attempt).
    pub admitted: u32,
    /// Sessions never admitted.
    pub rejected: u32,
    /// Sessions evicted after admission.
    pub evicted: u32,
    /// Admission retries the router issued.
    pub retries: u64,
    /// Overload migrations performed.
    pub migrations: u64,
    /// Dead-server failovers performed.
    pub failovers: u64,
    /// Server up→down transitions observed.
    pub downs: u64,
    /// Total paced frames offered (`sessions × frames_per_session`).
    pub frames_offered: u64,
    /// Paced frames presented on time, at any shed scale.
    pub on_time: u64,
    /// Subset of `on_time` served below full shade scale.
    pub degraded: u64,
    /// Lowest cluster-wide shed scale reached (1.0 = never shed).
    pub min_scale: f64,
    /// Per-session outcomes, in id order.
    pub sessions: Vec<ClusterSession>,
}

impl ClusterOutcome {
    /// On-time paced frames over all offered frames — rejected and lost
    /// sessions count against it.
    pub fn goodput(&self) -> f64 {
        if self.frames_offered == 0 {
            return 1.0;
        }
        self.on_time as f64 / self.frames_offered as f64
    }

    /// Fraction of offered paced frames that never presented on time.
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.goodput()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Active,
    Done,
    Rejected,
    Evicted,
}

struct Sess {
    stream: usize,
    arrival: u32,
    state: State,
    attempts: u32,
    admitted_at: Option<u32>,
    server: usize,
    last_move: u32,
    cold_pending: bool,
    on_time: u64,
    degraded: u64,
    misses_in_a_row: u32,
    moves: u32,
}

impl Sess {
    /// Full-scale frame cost the session holds on its server: the cold
    /// frame until it serves one on time, then the steady frame.
    fn held(&self, st: &Streams) -> Cycle {
        if self.cold_pending {
            st.cold[self.stream]
        } else {
            st.steady[self.stream]
        }
    }

    /// Books the session cold on server `to` at interval `k`.
    fn place(&mut self, to: usize, k: u32, ledger: &mut [ServerView], st: &Streams) {
        ledger[to].attach(self.stream, st.demand[self.stream], st.cold[self.stream]);
        self.server = to;
        self.last_move = k;
        self.cold_pending = true;
    }

    /// Releases what the session holds on its server.
    fn release(&self, ledger: &mut [ServerView], st: &Streams) {
        ledger[self.server].detach(self.stream, st.demand[self.stream], self.held(st));
    }

    /// Failover or migration to server `to`: warm restart on arrival.
    fn relocate(&mut self, to: usize, k: u32, ledger: &mut [ServerView], st: &Streams) {
        self.release(ledger, st);
        self.place(to, k, ledger, st);
        self.moves += 1;
    }
}

/// Router key of session `i`: placement and rendezvous-hash input.
fn session_key(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x5851_F42D_4C95_7F2D)
}

/// The deduplicated cost streams of a session mix, plus per-stream derived
/// numbers the simulation charges.
struct Streams {
    /// Stream index of session `i % mix.len()`.
    of_mix: Vec<usize>,
    /// Eq. 3 predicted per-vsync demand per stream.
    demand: Vec<f64>,
    /// Cold (PA-paying) frame cost per stream.
    cold: Vec<Cycle>,
    /// Steady frame cost per stream.
    steady: Vec<Cycle>,
}

fn resolve_streams(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
) -> Streams {
    let mut streams: Vec<Arc<SessionCostStream>> = Vec::new();
    let mut of_mix = Vec::with_capacity(mix.len());
    for (scheme, spec) in mix {
        let s = cost_stream(*scheme, spec, gpu);
        let idx = match streams.iter().position(|e| Arc::ptr_eq(e, &s)) {
            Some(i) => i,
            None => {
                streams.push(Arc::clone(&s));
                streams.len() - 1
            }
        };
        of_mix.push(idx);
    }
    // Temporal streams are charged their mean pose-correlated cost: the
    // measured steady frame minus the mean reuse saving over a reference
    // trajectory (zero for every other stream, and exactly zero at
    // threshold 0, so the tier collapses to plain costs bit-identically).
    let saving: Vec<Cycle> = streams
        .iter()
        .map(|s| {
            s.mean_temporal_saving(
                cfg.temporal.reuse_threshold,
                cfg.seed,
                cfg.frames_per_session.max(1),
            )
        })
        .collect();
    let demand = streams
        .iter()
        .zip(&saving)
        .map(|(s, &saved)| {
            let refs: Vec<_> = s.reports.iter().collect();
            calibrate_discounted(&refs, saved).predict_total(s.steady().counts.triangles.max(1))
        })
        .collect();
    let cold = streams.iter().map(|s| s.cold().frame_cycles.max(1)).collect();
    let steady = streams
        .iter()
        .zip(&saving)
        .map(|(s, &saved)| s.steady().frame_cycles.saturating_sub(saved).max(1))
        .collect();
    Streams { of_mix, demand, cold, steady }
}

/// Runs one deterministic cluster serving experiment over `mix` (sessions
/// round-robin the mix entries; entries naming the same (scheme, workload,
/// config) share one memoized cost stream). `trace`, when given, receives
/// the cluster-level events in cycle order.
///
/// # Panics
///
/// Panics if `mix` is empty or `cfg.servers` is zero.
pub fn simulate_cluster(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
    trace: Option<&mut Recorder>,
) -> ClusterOutcome {
    simulate_cluster_metered(mix, gpu, cfg, trace, None)
}

/// [`simulate_cluster`], then [`meter_cluster`] folds the finished run
/// into the optional [`Registry`]: per-server frame/miss/degrade counters
/// (`srv0…srvN`), per session-class counters keyed by workload name,
/// router activity (routes, retries, failovers, migrations, evictions,
/// sheds), server up/down transitions, and the `unrouted` reconciliation
/// that makes the aggregate metered miss rate equal
/// [`ClusterOutcome::miss_rate`] exactly. Metering reads only the
/// returned outcome and events, so a metered run is bit-identical to an
/// unmetered one (pinned by `prop_metrics`).
///
/// # Panics
///
/// Panics if `mix` is empty or `cfg.servers` is zero.
pub fn simulate_cluster_metered(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
    trace: Option<&mut Recorder>,
    metrics: Option<&mut Registry>,
) -> ClusterOutcome {
    let (out, events) = run_cluster(mix, gpu, cfg, trace.is_some() || metrics.is_some());
    if let Some(reg) = metrics {
        meter_cluster(reg, mix, cfg, &out, &events);
    }
    if let Some(rec) = trace {
        record_in_cycle_order(rec, events);
    }
    out
}

/// The cluster core: runs the fleet and, when `observe` is set, returns
/// its events in emission order (router activity, server transitions, and
/// one [`TraceEvent::ClusterFrame`] per paced frame that came due on a
/// server). Unobserved runs return no events.
fn run_cluster(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    cfg: &ClusterConfig,
    observe: bool,
) -> (ClusterOutcome, Vec<TraceEvent>) {
    assert!(!mix.is_empty(), "cluster mix must name at least one workload");
    let n = cfg.servers as usize;
    assert!(n > 0, "cluster needs at least one server");
    let st = resolve_streams(mix, gpu, cfg);
    let v = cfg.vsync_cycles.max(1);
    let frames = cfg.frames_per_session;
    let shed_floor = cfg.resilience.shed_floor.clamp(0.05, 1.0);
    let shed_step = cfg.resilience.shed_step.clamp(0.05, 0.99);
    let switch_tax = switch_tax(v);

    // Seeded arrival jitter: one interval per session, in id order.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC1_05_7E_12);
    let mut sessions: Vec<Sess> = (0..cfg.sessions)
        .map(|i| {
            let arrival =
                if cfg.arrival_intervals > 1 { rng.gen_range(0..cfg.arrival_intervals) } else { 0 };
            Sess {
                stream: st.of_mix[i as usize % st.of_mix.len()],
                arrival,
                state: State::Waiting,
                attempts: 0,
                admitted_at: None,
                server: 0,
                last_move: 0,
                cold_pending: false,
                on_time: 0,
                degraded: 0,
                misses_in_a_row: 0,
                moves: 0,
            }
        })
        .collect();

    let mut events: Vec<TraceEvent> = Vec::new();
    let mut alive_prev = vec![false; n];
    let mut scale = 1.0f64;
    let mut min_scale = 1.0f64;
    let mut retries = 0u64;
    let mut migrations = 0u64;
    let mut failovers = 0u64;
    let mut downs = 0u64;
    let fault_reason = cfg.fault.as_ref().map_or("fault", |p| p.scenario.name());

    // Latest interval anything can still happen: the last arrival's final
    // frame, plus the longest possible backoff chain.
    let backoff_span: u32 = (1..cfg.router.max_attempts()).map(backoff_for).sum();
    let k_max = cfg.arrival_intervals + frames + backoff_span + 2;

    // The per-server ledger over the *active* sessions. Every state
    // transition (admit, failover, migrate, finish, evict, cold→warm)
    // updates it in O(1) and the router reads it in place, so router
    // decisions stay O(servers) instead of re-scanning every session.
    let mut ledger = vec![ServerView::new(st.demand.len()); n];

    // Admission buckets: `due[k]` holds the waiting sessions whose next
    // attempt falls in interval `k` — arrivals, filled in id order, then
    // backed-off retries. A waiting session sits in exactly one bucket.
    let mut due: Vec<Vec<u32>> = vec![Vec::new(); k_max as usize + 1];
    for (i, sess) in sessions.iter().enumerate() {
        due[sess.arrival as usize].push(i as u32);
    }
    // The active sessions in id order: the only ones failover, migration,
    // serve and eviction can touch. Each interval merges in its admits and
    // drops its finished and evicted sessions.
    let mut active: Vec<u32> = Vec::new();
    // Waiting plus active sessions: the run ends once none is left.
    let mut live = cfg.sessions;
    // One placement-order buffer for every router decision.
    let mut order: Vec<usize> = Vec::with_capacity(n);

    // Compile the fault plan once into per-server schedules; the interval
    // loop then samples multipliers instead of re-deriving the product
    // schedule every quantum.
    let server_scheds: Vec<Option<oovr_gpu::RateSchedule>> =
        (0..n).map(|s| cfg.fault.as_ref().and_then(|p| p.server_schedule(s, n))).collect();

    for k in 0..=k_max {
        let t = k as Cycle * v;

        // 1. Server rates and up/down transitions.
        let rates: Vec<f64> = server_scheds
            .iter()
            .map(|sch| sch.as_ref().map_or(1.0, |s| s.multiplier_at(t)))
            .collect();
        let alive: Vec<bool> = rates.iter().map(|&r| r > 0.0).collect();
        for s in 0..n {
            if alive[s] && !alive_prev[s] {
                if observe {
                    events.push(TraceEvent::ServerUp { cycle: t, server: s as u32 });
                }
            } else if !alive[s] && alive_prev[s] {
                downs += 1;
                if observe {
                    events.push(TraceEvent::ServerDown {
                        cycle: t,
                        server: s as u32,
                        reason: fault_reason,
                    });
                }
            }
        }
        alive_prev.clone_from(&alive);

        // 2. Failover: pull active sessions off dead servers, in id order.
        //    The residency guard does not apply — a dead host overrides
        //    placement stability. Warm restart is charged via the cold
        //    frame on the destination.
        if cfg.router.failover() && alive.iter().any(|a| !a) {
            for &i in &active {
                let sess = &mut sessions[i as usize];
                let server = sess.server;
                if alive[server] {
                    continue;
                }
                cfg.policy.order(
                    session_key(cfg.seed, i as usize),
                    sess.stream,
                    &ledger,
                    &mut order,
                );
                let dest = order.iter().copied().find(|&d| alive[d] && d != server);
                if let Some(d) = dest {
                    sess.relocate(d, k, &mut ledger, &st);
                    failovers += 1;
                    if observe {
                        events.push(TraceEvent::SessionFailover {
                            cycle: t,
                            session: i,
                            from: server as u32,
                            to: d as u32,
                        });
                    }
                }
            }
        }

        // 3. Admission: this interval's bucket — arrivals and backed-off
        //    retries — sorted into id order. The resilient router
        //    health-checks candidates (a dead server never admits); the
        //    fault-oblivious baseline will place sessions on one. When no
        //    candidate fits *right now*, the retrying router backs off
        //    into a later bucket and tries again, the baseline rejects.
        let mut bucket = std::mem::take(&mut due[k as usize]);
        bucket.sort_unstable();
        for &i in &bucket {
            let sess = &mut sessions[i as usize];
            debug_assert_eq!(sess.state, State::Waiting);
            if k > sess.arrival + frames {
                // Backed off past its own last frame: nothing left to serve.
                sess.state = State::Rejected;
                live -= 1;
                if observe {
                    events.push(TraceEvent::SessionReject {
                        cycle: t,
                        session: i,
                        predicted: st.demand[sess.stream],
                        reason: "backoff-expired",
                    });
                }
                continue;
            }
            let attempt = sess.attempts + 1;
            sess.attempts = attempt;
            let demand = st.demand[sess.stream];
            // First candidate in preference order with room right now; an
            // attempt fails only when *no* server fits, and only then do
            // retry/backoff (resilient) or rejection (baseline) differ.
            // Health checking is a router feature: the resilient router
            // never places a session on a dead server, while the
            // fault-oblivious baseline happily does. Both book capacity
            // against nominal budgets — refusing a merely *degraded*
            // server outright would waste the capacity it still has;
            // migration and shedding absorb the shortfall instead.
            //
            // The preference order is a permutation of every server, so
            // whether any candidate fits does not depend on it: it is
            // built only once one does.
            let aware = cfg.router.failover();
            let fits = |c: usize| {
                (!aware || alive[c]) && ledger[c].load + demand <= DEFAULT_HEADROOM * v as f64
            };
            let cand = if (0..n).any(fits) {
                cfg.policy.order(
                    session_key(cfg.seed, i as usize),
                    sess.stream,
                    &ledger,
                    &mut order,
                );
                order.iter().copied().find(|&c| fits(c))
            } else {
                None
            };
            if let Some(cand) = cand {
                sess.place(cand, k, &mut ledger, &st);
                sess.state = State::Active;
                sess.admitted_at = Some(k);
                active.push(i);
                if observe {
                    events.push(TraceEvent::SessionRoute {
                        cycle: t,
                        session: i,
                        server: cand as u32,
                        attempt,
                    });
                }
            } else if attempt < cfg.router.max_attempts() {
                let backoff = backoff_for(attempt);
                // In range: a session's attempts end by its arrival plus
                // `backoff_span`, which is below `k_max`.
                due[(k + backoff) as usize].push(i);
                retries += 1;
                if observe {
                    events.push(TraceEvent::RouteRetry {
                        cycle: t,
                        session: i,
                        attempt,
                        backoff: backoff as Cycle * v,
                    });
                }
            } else {
                sess.state = State::Rejected;
                live -= 1;
                if observe {
                    events.push(TraceEvent::SessionReject {
                        cycle: t,
                        session: i,
                        predicted: demand,
                        reason: "capacity",
                    });
                }
            }
        }
        // The admits form a second ascending run, which the stable,
        // run-detecting sort merges in.
        active.sort();

        // 4. Overload migration, behind the anti-ping-pong residency guard.
        if cfg.router.migrate() {
            for s in 0..n {
                if !alive[s] {
                    continue;
                }
                let budget = (v as f64 * rates[s]) as u64;
                if ledger[s].demand(switch_tax) <= budget {
                    continue;
                }
                // Movers, most recently placed first, among active
                // sessions that have sat out the residency guard;
                // long-resident sessions stay put. The eligible set only
                // shrinks while we migrate off `s`, so one scan of the
                // active list per interval suffices.
                let mut movers: Vec<usize> = active
                    .iter()
                    .map(|&i| i as usize)
                    .filter(|&i| {
                        sessions[i].server == s
                            && k.saturating_sub(sessions[i].last_move) >= MIN_RESIDENCY
                    })
                    .collect();
                movers.sort_unstable_by_key(|&i| (sessions[i].last_move, i));
                while ledger[s].demand(switch_tax) > budget {
                    let Some(i) = movers.pop() else { break };
                    let stream = sessions[i].stream;
                    cfg.policy.order(session_key(cfg.seed, i), stream, &ledger, &mut order);
                    let dest = order.iter().copied().find(|&d| {
                        d != s
                            && alive[d]
                            && ledger[d].demand(switch_tax) + st.cold[stream]
                                <= (v as f64 * rates[d]) as u64
                    });
                    let Some(d) = dest else { break };
                    sessions[i].relocate(d, k, &mut ledger, &st);
                    migrations += 1;
                    if observe {
                        events.push(TraceEvent::SessionMigrate {
                            cycle: t,
                            session: i as u32,
                            from: s as u32,
                            to: d as u32,
                            reason: "overload",
                        });
                    }
                }
            }
        }

        // 5. Cluster-wide graceful degradation: shed shade scale so the
        //    most overloaded server fits, never below the floor; recover
        //    multiplicatively once no server is overloaded.
        if cfg.router.shed() {
            let mut worst = 1.0f64;
            for s in 0..n {
                if !alive[s] {
                    continue;
                }
                let demand = ledger[s].demand(switch_tax);
                let budget = v as f64 * rates[s];
                if demand > 0 {
                    worst = worst.min(budget / demand as f64);
                }
            }
            if worst < 1.0 {
                let target = worst.max(shed_floor);
                if target < scale {
                    scale = target;
                    min_scale = min_scale.min(scale);
                    if observe {
                        events.push(TraceEvent::Shed {
                            cycle: t,
                            scale,
                            reason: "cluster-overload",
                        });
                    }
                }
            } else if scale < 1.0 {
                scale = (scale / shed_step).min(1.0);
            }
        }

        // 6. Serve: the active sessions in id order (EDF under the shared
        //    per-interval deadline); frames that do not fit miss without
        //    consuming budget. Dead servers serve nothing.
        let eff_scale = if cfg.router.shed() { scale } else { 1.0 };
        let mut remaining: Vec<u64> = (0..n)
            .map(|s| {
                if !alive[s] {
                    return 0;
                }
                ((v as f64 * rates[s]) as u64).saturating_sub(ledger[s].tax(switch_tax, None))
            })
            .collect();
        for &i in &active {
            let sess = &mut sessions[i as usize];
            // Admission comes no earlier than arrival and no later than
            // the last frame, and a session leaves at its last frame, so
            // an active session's frame lies in `0..=frames`.
            let f = k - sess.arrival;
            let s = sess.server;
            // Frame 0 is always cold: it comes due in the interval the
            // session was admitted, and admission sets `cold_pending`.
            let cost = (((sess.held(&st) as f64) * eff_scale).round() as u64).max(1);
            let on_time = alive[s] && cost <= remaining[s];
            let degraded = on_time && eff_scale < 1.0;
            if on_time {
                remaining[s] -= cost;
                if sess.cold_pending {
                    ledger[s].cost = ledger[s].cost - st.cold[sess.stream] + st.steady[sess.stream];
                }
                sess.cold_pending = false;
                sess.misses_in_a_row = 0;
                if f >= 1 {
                    sess.on_time += 1;
                    sess.degraded += u64::from(degraded);
                }
            } else {
                sess.misses_in_a_row += 1;
            }
            if observe && f >= 1 {
                events.push(TraceEvent::ClusterFrame {
                    cycle: t,
                    session: i,
                    server: s as u32,
                    on_time,
                    degraded,
                });
            }
            if f == frames {
                sess.release(&mut ledger, &st);
                sess.state = State::Done;
                live -= 1;
            }
        }

        // 7. Eviction, strictly last resort: only once shedding is pinned
        //    at the floor and a session still cannot make its vsyncs.
        if cfg.router.evict() && (!cfg.router.shed() || scale <= shed_floor + 1e-9) {
            for &i in &active {
                let sess = &mut sessions[i as usize];
                if sess.state == State::Active && sess.misses_in_a_row >= cfg.evict_after.max(1) {
                    sess.release(&mut ledger, &st);
                    sess.state = State::Evicted;
                    live -= 1;
                    if observe {
                        events.push(TraceEvent::FrameDrop {
                            cycle: t,
                            session: i,
                            frame: k - sess.arrival,
                            reason: "evicted",
                        });
                    }
                }
            }
        }

        // 8. Drop the sessions that finished or were evicted; stop once
        //    nothing is waiting or active.
        active.retain(|&i| sessions[i as usize].state == State::Active);
        if live == 0 {
            break;
        }
    }

    let outcomes: Vec<ClusterSession> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| ClusterSession {
            id: i as u32,
            stream: s.stream,
            arrival: s.arrival,
            admitted_at: s.admitted_at,
            server: s.admitted_at.map(|_| s.server as u32),
            on_time: s.on_time,
            degraded: s.degraded,
            moves: s.moves,
            evicted: s.state == State::Evicted,
        })
        .collect();
    let admitted = outcomes.iter().filter(|s| s.admitted_at.is_some()).count() as u32;
    let out = ClusterOutcome {
        servers: cfg.servers,
        offered: cfg.sessions,
        admitted,
        rejected: cfg.sessions - admitted,
        evicted: outcomes.iter().filter(|s| s.evicted).count() as u32,
        retries,
        migrations,
        failovers,
        downs,
        frames_offered: cfg.sessions as u64 * frames as u64,
        on_time: outcomes.iter().map(|s| s.on_time).sum(),
        degraded: outcomes.iter().map(|s| s.degraded).sum(),
        min_scale,
        sessions: outcomes,
    };
    (out, events)
}

/// Places `m` warm sessions of the mix on `n` fault-free servers under
/// `policy`, once: first candidate with room at full utilization, forced
/// onto the first candidate when nothing fits. Returns each server's
/// per-interval render budget (the vsync minus its working-set tax) and
/// each session's `(server, stream)`.
fn place_warm(
    m: u32,
    st: &Streams,
    n: usize,
    v: Cycle,
    switch_tax: u64,
    policy: Placement,
    seed: u64,
) -> (Vec<u64>, Vec<(usize, usize)>) {
    // Placement pass over the same ledger the cluster run keeps; the fit
    // charges the tax with the new stream already resident.
    let mut ledger = vec![ServerView::new(st.demand.len()); n];
    let mut placed: Vec<(usize, usize)> = Vec::with_capacity(m as usize);
    let mut order = Vec::with_capacity(n);
    for i in 0..m as usize {
        let stream = st.of_mix[i % st.of_mix.len()];
        policy.order(session_key(seed, i), stream, &ledger, &mut order);
        let fits = |s: usize| {
            ledger[s].cost + st.steady[stream] + ledger[s].tax(switch_tax, Some(stream)) <= v
        };
        let s = order.iter().copied().find(|&s| fits(s)).unwrap_or(order[0]);
        ledger[s].attach(stream, st.demand[stream], st.steady[stream]);
        placed.push((s, stream));
    }
    let budget = ledger.iter().map(|e| v.saturating_sub(e.tax(switch_tax, None))).collect();
    (budget, placed)
}

/// Exact feasibility of `m` warm sessions of `mix` on `n` fault-free
/// servers under `policy` ([`place_warm`]), every session serving a steady
/// frame per interval for [`PROBE_FRAMES`] intervals. Feasible while the
/// missed-vsync fraction stays under [`MISS_BUDGET`]. Each interval starts
/// from the same budgets over the same fixed placement, so every interval
/// misses the same frames: one served interval decides the verdict.
fn cluster_feasible(
    m: u32,
    st: &Streams,
    n: usize,
    v: Cycle,
    switch_tax: u64,
    policy: Placement,
    seed: u64,
) -> bool {
    if m == 0 {
        return true;
    }
    let (mut remaining, placed) = place_warm(m, st, n, v, switch_tax, policy, seed);
    let total = m as u64 * PROBE_FRAMES as u64;
    let allowed = ((total as f64) * MISS_BUDGET).floor() as u64;
    let mut missed = 0u64;
    for &(s, stream) in &placed {
        let cost = st.steady[stream];
        if cost <= remaining[s] {
            remaining[s] -= cost;
        } else {
            missed += 1;
        }
    }
    PROBE_FRAMES as u64 * missed <= allowed
}

/// Maximum concurrent warm sessions of `mix` an `n_servers` fault-free
/// cluster sustains under `policy` at under [`MISS_BUDGET`] missed vsyncs.
/// Deterministic and pure; the single-server case (`n_servers == 1`)
/// is the per-interval analogue of [`crate::capacity::capacity`].
pub fn cluster_capacity(
    mix: &[(ServeScheme, BenchmarkSpec)],
    gpu: &GpuConfig,
    n_servers: u32,
    policy: Placement,
    cfg: &ClusterConfig,
) -> u32 {
    assert!(!mix.is_empty(), "cluster mix must name at least one workload");
    let n = (n_servers as usize).max(1);
    let st = resolve_streams(mix, gpu, cfg);
    let v = cfg.vsync_cycles.max(1);
    let switch_tax = switch_tax(v);
    // Seeded at the fleet's utilization bound over the cheapest stream.
    let min_steady = st.steady.iter().copied().min().unwrap_or(1).max(1);
    search(n as u64 * v, min_steady, |m| {
        cluster_feasible(m, &st, n, v, switch_tax, policy, cfg.seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_gpu::FaultScenario;
    use oovr_scene::benchmarks;

    fn mix() -> Vec<(ServeScheme, BenchmarkSpec)> {
        vec![(ServeScheme::OoVr, benchmarks::hl2_640().scaled(0.05))]
    }

    fn two_stream_mix() -> Vec<(ServeScheme, BenchmarkSpec)> {
        vec![
            (ServeScheme::OoVr, benchmarks::hl2_640().scaled(0.05)),
            (ServeScheme::OoVr, benchmarks::we().scaled(0.05)),
        ]
    }

    fn small_cfg() -> ClusterConfig {
        ClusterConfig { sessions: 40, frames_per_session: 16, ..ClusterConfig::default() }
    }

    #[test]
    fn fault_free_cluster_serves_everything_it_admits() {
        let out = simulate_cluster(&mix(), &GpuConfig::default(), &small_cfg(), None);
        assert_eq!(out.offered, 40);
        assert_eq!(out.admitted, 40, "a small offered load must fully admit");
        assert_eq!(out.on_time, out.frames_offered, "fault-free run must serve every frame");
        assert_eq!(out.downs, 0);
        assert_eq!(out.failovers, 0);
        assert!((out.goodput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_mix_entries_share_one_stream() {
        let gpu = GpuConfig::default();
        let doubled = vec![mix()[0].clone(), mix()[0].clone()];
        let st = resolve_streams(&doubled, &gpu, &ClusterConfig::default());
        assert_eq!(st.cold.len(), 1);
        assert_eq!(st.of_mix, vec![0, 0]);
    }

    #[test]
    fn temporal_mix_raises_cluster_capacity_and_collapses_at_zero() {
        let gpu = GpuConfig::default();
        let cfg = ClusterConfig::default();
        let spec = benchmarks::hl2_640().scaled(0.05);
        let plain = vec![(ServeScheme::OoVr, spec.clone())];
        let temporal = vec![(ServeScheme::OoVrTemporal, spec)];
        let base = cluster_capacity(&plain, &gpu, 2, Placement::LeastLoaded, &cfg);
        let reuse = cluster_capacity(&temporal, &gpu, 2, Placement::LeastLoaded, &cfg);
        assert!(reuse > base, "temporal cluster capacity {reuse} must exceed plain {base}");
        // Threshold 0: the temporal stream's discounted costs equal the
        // plain OO-VR stream's, so the tier behaves identically.
        let exact = ClusterConfig { temporal: oovr::TemporalConfig::exact(), ..cfg };
        let st_t = resolve_streams(&temporal, &gpu, &exact);
        let st_p = resolve_streams(&plain, &gpu, &exact);
        assert_eq!(st_t.steady, st_p.steady);
        assert_eq!(st_t.cold, st_p.cold);
        for (a, b) in st_t.demand.iter().zip(&st_p.demand) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let gpu = GpuConfig::default();
        let cfg = ClusterConfig {
            fault: Some(FaultPlan::new(FaultScenario::GpmThrottle, 0.7, 11)),
            ..small_cfg()
        };
        let a = simulate_cluster(&two_stream_mix(), &gpu, &cfg, None);
        let b = simulate_cluster(&two_stream_mix(), &gpu, &cfg, None);
        assert_eq!(a.on_time, b.on_time);
        assert_eq!(a.sessions, b.sessions);
    }

    #[test]
    fn dead_server_triggers_failover_and_baseline_loses_more() {
        let gpu = GpuConfig::default();
        let horizon = VSYNC_90HZ_CYCLES * 24;
        let plan = FaultPlan::new(FaultScenario::LinkDown, 1.0, 3).with_horizon(horizon);
        assert!(plan.disturbs_servers(4, VSYNC_90HZ_CYCLES));
        let resilient = ClusterConfig { sessions: 200, fault: Some(plan.clone()), ..small_cfg() };
        let baseline = ClusterConfig { router: Router::Baseline, ..resilient.clone() };
        let r = simulate_cluster(&mix(), &gpu, &resilient, None);
        let b = simulate_cluster(&mix(), &gpu, &baseline, None);
        assert!(r.downs > 0, "the fault must kill a server at least once");
        assert!(r.failovers > 0, "dead server must trigger failovers");
        assert_eq!(b.failovers, 0);
        assert!(
            r.goodput() > b.goodput(),
            "resilient {} must strictly beat baseline {}",
            r.goodput(),
            b.goodput()
        );
    }

    #[test]
    fn capacity_scales_with_servers() {
        let gpu = GpuConfig::default();
        let cfg = ClusterConfig::default();
        let one = cluster_capacity(&mix(), &gpu, 1, Placement::LeastLoaded, &cfg);
        let four = cluster_capacity(&mix(), &gpu, 4, Placement::LeastLoaded, &cfg);
        assert!(one > 0);
        assert!(
            four as f64 >= 0.9 * 4.0 * one as f64,
            "N=4 capacity {four} must reach 90% of 4x the N=1 capacity {one}"
        );
    }

    #[test]
    fn affinity_packing_beats_least_loaded_on_shared_streams() {
        let gpu = GpuConfig::default();
        let cfg = ClusterConfig::default();
        let ll = cluster_capacity(&two_stream_mix(), &gpu, 4, Placement::LeastLoaded, &cfg);
        let af = cluster_capacity(&two_stream_mix(), &gpu, 4, Placement::Affinity, &cfg);
        assert!(
            af > ll,
            "affinity packing ({af}) must strictly beat least-loaded ({ll}) on a shared-stream mix"
        );
    }

    /// Reference for [`cluster_feasible`]: serves all [`PROBE_FRAMES`]
    /// intervals of the fixed placement, stopping at the first miss over
    /// budget.
    fn cluster_feasible_replayed(
        m: u32,
        st: &Streams,
        n: usize,
        v: Cycle,
        switch_tax: u64,
        policy: Placement,
        seed: u64,
    ) -> bool {
        if m == 0 {
            return true;
        }
        let (budget, placed) = place_warm(m, st, n, v, switch_tax, policy, seed);
        let total = m as u64 * PROBE_FRAMES as u64;
        let allowed = ((total as f64) * MISS_BUDGET).floor() as u64;
        let mut missed = 0u64;
        for _ in 0..PROBE_FRAMES {
            let mut remaining = budget.clone();
            for &(s, stream) in &placed {
                let cost = st.steady[stream];
                if cost <= remaining[s] {
                    remaining[s] -= cost;
                } else {
                    missed += 1;
                    if missed > allowed {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[test]
    fn one_interval_probe_matches_the_replayed_probe() {
        let gpu = GpuConfig::default();
        let mix = two_stream_mix();
        let st = resolve_streams(&mix, &gpu, &ClusterConfig::default());
        // A vsync of a few steady frames keeps capacities small enough to
        // sweep every session count up to twice the capacity.
        let v = 8 * st.steady.iter().copied().max().unwrap_or(1);
        let cfg = ClusterConfig { vsync_cycles: v, ..ClusterConfig::default() };
        let tax = switch_tax(v);
        for n in [1, 4] {
            for policy in Placement::ALL {
                let cap = cluster_capacity(&mix, &gpu, n as u32, policy, &cfg);
                assert!(cap > 0);
                for m in 1..=2 * cap {
                    let fast = cluster_feasible(m, &st, n, v, tax, policy, cfg.seed);
                    let slow = cluster_feasible_replayed(m, &st, n, v, tax, policy, cfg.seed);
                    assert_eq!(fast, slow, "{m} sessions on {n} servers under {}", policy.label());
                }
            }
        }
    }

    #[test]
    fn zero_severity_fault_plan_is_bit_identical_to_no_plan() {
        let gpu = GpuConfig::default();
        let base = small_cfg();
        let with_noop = ClusterConfig { fault: Some(FaultPlan::none()), ..base.clone() };
        let a = simulate_cluster(&two_stream_mix(), &gpu, &base, None);
        let b = simulate_cluster(&two_stream_mix(), &gpu, &with_noop, None);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.on_time, b.on_time);
        assert_eq!(a.retries, b.retries);
    }

    #[test]
    fn cluster_runs_emit_cluster_events() {
        let gpu = GpuConfig::default();
        let horizon = VSYNC_90HZ_CYCLES * 24;
        let cfg = ClusterConfig {
            sessions: 200,
            fault: Some(FaultPlan::new(FaultScenario::LinkDown, 1.0, 3).with_horizon(horizon)),
            ..small_cfg()
        };
        let mut rec = Recorder::new(oovr_trace::TraceConfig::default());
        let out = simulate_cluster(&mix(), &gpu, &cfg, Some(&mut rec));
        let events = rec.into_events();
        let ups = events.iter().filter(|e| matches!(e, TraceEvent::ServerUp { .. })).count();
        let routes = events.iter().filter(|e| matches!(e, TraceEvent::SessionRoute { .. })).count();
        let fails =
            events.iter().filter(|e| matches!(e, TraceEvent::SessionFailover { .. })).count();
        assert!(ups >= 4, "every server must announce itself");
        assert_eq!(routes as u32, out.admitted);
        assert_eq!(fails as u64, out.failovers);
        assert!(fails > 0);
    }

    /// The session record of [`run_cluster_scanned`], with its own
    /// next-attempt interval.
    struct ScanSess {
        stream: usize,
        arrival: u32,
        state: State,
        attempts: u32,
        next_attempt: u32,
        admitted_at: Option<u32>,
        server: usize,
        last_move: u32,
        cold_pending: bool,
        on_time: u64,
        degraded: u64,
        misses_in_a_row: u32,
        moves: u32,
    }

    impl ScanSess {
        /// Full-scale frame cost the session holds on its server: the cold
        /// frame until it serves one on time, then the steady frame.
        fn held(&self, st: &Streams) -> Cycle {
            if self.cold_pending {
                st.cold[self.stream]
            } else {
                st.steady[self.stream]
            }
        }

        /// Books the session cold on server `to` at interval `k`.
        fn place(&mut self, to: usize, k: u32, ledger: &mut [ServerView], st: &Streams) {
            ledger[to].attach(self.stream, st.demand[self.stream], st.cold[self.stream]);
            self.server = to;
            self.last_move = k;
            self.cold_pending = true;
        }

        /// Releases what the session holds on its server.
        fn release(&self, ledger: &mut [ServerView], st: &Streams) {
            ledger[self.server].detach(self.stream, st.demand[self.stream], self.held(st));
        }

        /// Failover or migration to server `to`: warm restart on arrival.
        fn relocate(&mut self, to: usize, k: u32, ledger: &mut [ServerView], st: &Streams) {
            self.release(ledger, st);
            self.place(to, k, ledger, st);
            self.moves += 1;
        }
    }

    /// [`Placement::order`] into a fresh buffer.
    fn order_vec(policy: Placement, key: u64, stream: usize, servers: &[ServerView]) -> Vec<usize> {
        let mut idx = Vec::new();
        policy.order(key, stream, servers, &mut idx);
        idx
    }

    /// Reference for [`run_cluster`]: the interval loop that rescans the
    /// whole session table up to six times per interval, kept verbatim
    /// except that it also returns the last interval it ran.
    fn run_cluster_scanned(
        mix: &[(ServeScheme, BenchmarkSpec)],
        gpu: &GpuConfig,
        cfg: &ClusterConfig,
        observe: bool,
    ) -> (ClusterOutcome, Vec<TraceEvent>, u32) {
        assert!(!mix.is_empty(), "cluster mix must name at least one workload");
        let n = cfg.servers as usize;
        assert!(n > 0, "cluster needs at least one server");
        let st = resolve_streams(mix, gpu, cfg);
        let v = cfg.vsync_cycles.max(1);
        let frames = cfg.frames_per_session;
        let shed_floor = cfg.resilience.shed_floor.clamp(0.05, 1.0);
        let shed_step = cfg.resilience.shed_step.clamp(0.05, 0.99);
        let switch_tax = switch_tax(v);

        // Seeded arrival jitter: one interval per session, in id order.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC1_05_7E_12);
        let mut sessions: Vec<ScanSess> = (0..cfg.sessions)
            .map(|i| {
                let arrival = if cfg.arrival_intervals > 1 {
                    rng.gen_range(0..cfg.arrival_intervals)
                } else {
                    0
                };
                ScanSess {
                    stream: st.of_mix[i as usize % st.of_mix.len()],
                    arrival,
                    state: State::Waiting,
                    attempts: 0,
                    next_attempt: arrival,
                    admitted_at: None,
                    server: 0,
                    last_move: 0,
                    cold_pending: false,
                    on_time: 0,
                    degraded: 0,
                    misses_in_a_row: 0,
                    moves: 0,
                }
            })
            .collect();

        let mut events: Vec<TraceEvent> = Vec::new();
        let mut alive_prev = vec![false; n];
        let mut scale = 1.0f64;
        let mut min_scale = 1.0f64;
        let mut retries = 0u64;
        let mut migrations = 0u64;
        let mut failovers = 0u64;
        let mut downs = 0u64;
        let fault_reason = cfg.fault.as_ref().map_or("fault", |p| p.scenario.name());

        // Latest interval anything can still happen: the last arrival's final
        // frame, plus the longest possible backoff chain.
        let backoff_span: u32 = (1..cfg.router.max_attempts()).map(backoff_for).sum();
        let k_max = cfg.arrival_intervals + frames + backoff_span + 2;

        // The per-server ledger over the *active* sessions. Every state
        // transition (admit, failover, migrate, finish, evict, cold→warm)
        // updates it in O(1) and the router reads it in place, so router
        // decisions stay O(servers) instead of re-scanning every session.
        let mut ledger = vec![ServerView::new(st.demand.len()); n];

        // Compile the fault plan once into per-server schedules; the interval
        // loop then samples multipliers instead of re-deriving the product
        // schedule every quantum.
        let server_scheds: Vec<Option<oovr_gpu::RateSchedule>> =
            (0..n).map(|s| cfg.fault.as_ref().and_then(|p| p.server_schedule(s, n))).collect();

        let mut last = k_max;
        for k in 0..=k_max {
            last = k;
            let t = k as Cycle * v;

            // 1. Server rates and up/down transitions.
            let rates: Vec<f64> = server_scheds
                .iter()
                .map(|sch| sch.as_ref().map_or(1.0, |s| s.multiplier_at(t)))
                .collect();
            let alive: Vec<bool> = rates.iter().map(|&r| r > 0.0).collect();
            for s in 0..n {
                if alive[s] && !alive_prev[s] {
                    if observe {
                        events.push(TraceEvent::ServerUp { cycle: t, server: s as u32 });
                    }
                } else if !alive[s] && alive_prev[s] {
                    downs += 1;
                    if observe {
                        events.push(TraceEvent::ServerDown {
                            cycle: t,
                            server: s as u32,
                            reason: fault_reason,
                        });
                    }
                }
            }
            alive_prev.clone_from(&alive);

            // 2. Failover: pull in-flight sessions off dead servers. The
            //    residency guard does not apply — a dead host overrides
            //    placement stability. Warm restart is charged via the cold
            //    frame on the destination.
            if cfg.router.failover() && alive.iter().any(|a| !a) {
                for (i, sess) in sessions.iter_mut().enumerate() {
                    let server = sess.server;
                    if sess.state != State::Active || alive[server] {
                        continue;
                    }
                    let dest =
                        order_vec(cfg.policy, session_key(cfg.seed, i), sess.stream, &ledger)
                            .into_iter()
                            .find(|&d| alive[d] && d != server);
                    if let Some(d) = dest {
                        sess.relocate(d, k, &mut ledger, &st);
                        failovers += 1;
                        if observe {
                            events.push(TraceEvent::SessionFailover {
                                cycle: t,
                                session: i as u32,
                                from: server as u32,
                                to: d as u32,
                            });
                        }
                    }
                }
            }

            // 3. Admission: arrivals and backed-off retries due this interval,
            //    in id order. The resilient router health-checks candidates
            //    (a dead server never admits); the fault-oblivious baseline
            //    will place sessions on one. When no candidate fits *right
            //    now*, the retrying router backs off and tries again, the
            //    baseline rejects.
            for (i, sess) in sessions.iter_mut().enumerate() {
                if sess.state != State::Waiting || sess.next_attempt != k {
                    continue;
                }
                if k > sess.arrival + frames {
                    // Backed off past its own last frame: nothing left to serve.
                    sess.state = State::Rejected;
                    if observe {
                        events.push(TraceEvent::SessionReject {
                            cycle: t,
                            session: i as u32,
                            predicted: st.demand[sess.stream],
                            reason: "backoff-expired",
                        });
                    }
                    continue;
                }
                let order = order_vec(cfg.policy, session_key(cfg.seed, i), sess.stream, &ledger);
                let attempt = sess.attempts + 1;
                sess.attempts = attempt;
                let demand = st.demand[sess.stream];
                // First candidate in preference order with room right now; an
                // attempt fails only when *no* server fits, and only then do
                // retry/backoff (resilient) or rejection (baseline) differ.
                // Health checking is a router feature: the resilient router
                // never places a session on a dead server, while the
                // fault-oblivious baseline happily does. Both book capacity
                // against nominal budgets — refusing a merely *degraded*
                // server outright would waste the capacity it still has;
                // migration and shedding absorb the shortfall instead.
                let aware = cfg.router.failover();
                let cand = order.into_iter().find(|&c| {
                    (!aware || alive[c]) && ledger[c].load + demand <= DEFAULT_HEADROOM * v as f64
                });
                if let Some(cand) = cand {
                    sess.place(cand, k, &mut ledger, &st);
                    sess.state = State::Active;
                    sess.admitted_at = Some(k);
                    if observe {
                        events.push(TraceEvent::SessionRoute {
                            cycle: t,
                            session: i as u32,
                            server: cand as u32,
                            attempt,
                        });
                    }
                } else if attempt < cfg.router.max_attempts() {
                    let backoff = backoff_for(attempt);
                    sess.next_attempt = k + backoff;
                    retries += 1;
                    if observe {
                        events.push(TraceEvent::RouteRetry {
                            cycle: t,
                            session: i as u32,
                            attempt,
                            backoff: backoff as Cycle * v,
                        });
                    }
                } else {
                    sess.state = State::Rejected;
                    if observe {
                        events.push(TraceEvent::SessionReject {
                            cycle: t,
                            session: i as u32,
                            predicted: demand,
                            reason: "capacity",
                        });
                    }
                }
            }

            // 4. Overload migration, behind the anti-ping-pong residency guard.
            if cfg.router.migrate() {
                for s in 0..n {
                    if !alive[s] {
                        continue;
                    }
                    let budget = (v as f64 * rates[s]) as u64;
                    if ledger[s].demand(switch_tax) <= budget {
                        continue;
                    }
                    // Movers, most recently placed first, among sessions that
                    // have sat out the residency guard; long-resident sessions
                    // stay put. The eligible set only shrinks while we migrate
                    // off `s`, so one scan per interval suffices.
                    let mut movers: Vec<usize> = (0..sessions.len())
                        .filter(|&i| {
                            sessions[i].state == State::Active
                                && sessions[i].server == s
                                && k.saturating_sub(sessions[i].last_move) >= MIN_RESIDENCY
                        })
                        .collect();
                    movers.sort_by_key(|&i| (sessions[i].last_move, i));
                    while ledger[s].demand(switch_tax) > budget {
                        let Some(i) = movers.pop() else { break };
                        let stream = sessions[i].stream;
                        let order =
                            order_vec(cfg.policy, session_key(cfg.seed, i), stream, &ledger);
                        let dest = order.into_iter().find(|&d| {
                            d != s
                                && alive[d]
                                && ledger[d].demand(switch_tax) + st.cold[stream]
                                    <= (v as f64 * rates[d]) as u64
                        });
                        let Some(d) = dest else { break };
                        sessions[i].relocate(d, k, &mut ledger, &st);
                        migrations += 1;
                        if observe {
                            events.push(TraceEvent::SessionMigrate {
                                cycle: t,
                                session: i as u32,
                                from: s as u32,
                                to: d as u32,
                                reason: "overload",
                            });
                        }
                    }
                }
            }

            // 5. Cluster-wide graceful degradation: shed shade scale so the
            //    most overloaded server fits, never below the floor; recover
            //    multiplicatively once no server is overloaded.
            if cfg.router.shed() {
                let mut worst = 1.0f64;
                for s in 0..n {
                    if !alive[s] {
                        continue;
                    }
                    let demand = ledger[s].demand(switch_tax);
                    let budget = v as f64 * rates[s];
                    if demand > 0 {
                        worst = worst.min(budget / demand as f64);
                    }
                }
                if worst < 1.0 {
                    let target = worst.max(shed_floor);
                    if target < scale {
                        scale = target;
                        min_scale = min_scale.min(scale);
                        if observe {
                            events.push(TraceEvent::Shed {
                                cycle: t,
                                scale,
                                reason: "cluster-overload",
                            });
                        }
                    }
                } else if scale < 1.0 {
                    scale = (scale / shed_step).min(1.0);
                }
            }

            // 6. Serve: per server, sessions in id order (EDF under the shared
            //    per-interval deadline); frames that do not fit miss without
            //    consuming budget. Dead servers serve nothing.
            let eff_scale = if cfg.router.shed() { scale } else { 1.0 };
            let mut remaining: Vec<u64> = (0..n)
                .map(|s| {
                    if !alive[s] {
                        return 0;
                    }
                    ((v as f64 * rates[s]) as u64).saturating_sub(ledger[s].tax(switch_tax, None))
                })
                .collect();
            for (i, sess) in sessions.iter_mut().enumerate() {
                if sess.state != State::Active || k < sess.arrival {
                    continue;
                }
                let f = k - sess.arrival;
                if f > frames {
                    continue;
                }
                let s = sess.server;
                // Frame 0 is always cold: it comes due in the interval the
                // session was admitted, and admission sets `cold_pending`.
                let cost = (((sess.held(&st) as f64) * eff_scale).round() as u64).max(1);
                let on_time = alive[s] && cost <= remaining[s];
                let degraded = on_time && eff_scale < 1.0;
                if on_time {
                    remaining[s] -= cost;
                    if sess.cold_pending {
                        ledger[s].cost =
                            ledger[s].cost - st.cold[sess.stream] + st.steady[sess.stream];
                    }
                    sess.cold_pending = false;
                    sess.misses_in_a_row = 0;
                    if f >= 1 {
                        sess.on_time += 1;
                        sess.degraded += u64::from(degraded);
                    }
                } else {
                    sess.misses_in_a_row += 1;
                }
                if observe && f >= 1 {
                    events.push(TraceEvent::ClusterFrame {
                        cycle: t,
                        session: i as u32,
                        server: s as u32,
                        on_time,
                        degraded,
                    });
                }
                if f == frames {
                    sess.release(&mut ledger, &st);
                    sess.state = State::Done;
                }
            }

            // 7. Eviction, strictly last resort: only once shedding is pinned
            //    at the floor and a session still cannot make its vsyncs.
            if cfg.router.evict() {
                let at_floor = !cfg.router.shed() || scale <= shed_floor + 1e-9;
                for (i, sess) in sessions.iter_mut().enumerate() {
                    if sess.state == State::Active
                        && at_floor
                        && sess.misses_in_a_row >= cfg.evict_after.max(1)
                    {
                        sess.release(&mut ledger, &st);
                        sess.state = State::Evicted;
                        if observe {
                            events.push(TraceEvent::FrameDrop {
                                cycle: t,
                                session: i as u32,
                                frame: k - sess.arrival,
                                reason: "evicted",
                            });
                        }
                    }
                }
            }

            if sessions
                .iter()
                .all(|s| matches!(s.state, State::Done | State::Rejected | State::Evicted))
            {
                break;
            }
        }

        let outcomes: Vec<ClusterSession> = sessions
            .iter()
            .enumerate()
            .map(|(i, s)| ClusterSession {
                id: i as u32,
                stream: s.stream,
                arrival: s.arrival,
                admitted_at: s.admitted_at,
                server: s.admitted_at.map(|_| s.server as u32),
                on_time: s.on_time,
                degraded: s.degraded,
                moves: s.moves,
                evicted: s.state == State::Evicted,
            })
            .collect();
        let admitted = outcomes.iter().filter(|s| s.admitted_at.is_some()).count() as u32;
        let out = ClusterOutcome {
            servers: cfg.servers,
            offered: cfg.sessions,
            admitted,
            rejected: cfg.sessions - admitted,
            evicted: outcomes.iter().filter(|s| s.evicted).count() as u32,
            retries,
            migrations,
            failovers,
            downs,
            frames_offered: cfg.sessions as u64 * frames as u64,
            on_time: outcomes.iter().map(|s| s.on_time).sum(),
            degraded: outcomes.iter().map(|s| s.degraded).sum(),
            min_scale,
            sessions: outcomes,
        };
        (out, events, last)
    }

    #[test]
    fn interval_loop_matches_the_scanning_loop() {
        let gpu = GpuConfig::default();
        let mut faults = vec![None];
        for scenario in [FaultScenario::LinkDown, FaultScenario::GpmThrottle, FaultScenario::Mixed]
        {
            for severity in [0.5, 1.0] {
                for seed in [3, 11, 29] {
                    faults.push(Some((scenario, severity, seed)));
                }
            }
        }
        // (frames, evict_after): the long shape fails over and migrates;
        // the short one backs off past its last frame and evicts early.
        let shapes = [(16, 16), (4, 2)];
        const KINDS: [&str; 7] = [
            "retry",
            "backoff-expired reject",
            "capacity reject",
            "failover",
            "migration",
            "shed",
            "eviction",
        ];
        let mut seen = [0u64; KINDS.len()];
        let mut runs = 0;
        for (mi, mix) in [mix(), two_stream_mix()].iter().enumerate() {
            // A vsync of a few steady frames keeps twice the capacity at a
            // few hundred sessions.
            let st = resolve_streams(mix, &gpu, &ClusterConfig::default());
            let v = 16 * st.steady.iter().copied().max().unwrap_or(1);
            let base = ClusterConfig { vsync_cycles: v, ..ClusterConfig::default() };
            for policy in Placement::ALL {
                let cap = cluster_capacity(mix, &gpu, base.servers, policy, &base);
                for (frames, evict_after) in shapes {
                    // Fault windows spread past the end of the run, so a
                    // loop that stops late logs extra server transitions.
                    let horizon = 2 * (base.arrival_intervals + frames + 16) as Cycle * v;
                    for &fault in &faults {
                        for router in [Router::Resilient, Router::Baseline] {
                            let cfg = ClusterConfig {
                                sessions: 2 * cap,
                                frames_per_session: frames,
                                evict_after,
                                policy,
                                router,
                                seed: base.seed ^ fault.map_or(0, |(_, _, seed)| seed),
                                fault: fault.map(|(scenario, severity, seed)| {
                                    FaultPlan::new(scenario, severity, seed).with_horizon(horizon)
                                }),
                                ..base.clone()
                            };
                            let label = format!(
                                "mix {mi}, {}, {router:?}, {frames} frames, fault {fault:?}",
                                policy.label()
                            );
                            let (want, want_events, last) =
                                run_cluster_scanned(mix, &gpu, &cfg, true);
                            let (got, got_events) = run_cluster(mix, &gpu, &cfg, true);
                            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}");
                            assert_eq!(got_events.len(), want_events.len(), "{label}");
                            for (g, w) in got_events.iter().zip(&want_events) {
                                assert_eq!(format!("{g:?}"), format!("{w:?}"), "{label}");
                            }
                            let (quiet, none) = run_cluster(mix, &gpu, &cfg, false);
                            assert!(none.is_empty(), "{label}: unobserved run logged events");
                            assert_eq!(format!("{quiet:?}"), format!("{want:?}"), "{label}");
                            for e in &want_events {
                                let kind = match e {
                                    TraceEvent::RouteRetry { .. } => 0,
                                    TraceEvent::SessionReject {
                                        reason: "backoff-expired", ..
                                    } => 1,
                                    TraceEvent::SessionReject { reason: "capacity", .. } => 2,
                                    TraceEvent::SessionFailover { .. } => 3,
                                    TraceEvent::SessionMigrate { .. } => 4,
                                    TraceEvent::Shed { .. } => 5,
                                    TraceEvent::FrameDrop { reason: "evicted", .. } => 6,
                                    _ => continue,
                                };
                                seen[kind] += 1;
                            }
                            // Every session is done, rejected or evicted by
                            // its last frame plus one backoff, well inside
                            // `k_max`: the run always ends on the live count.
                            let span: u32 = (1..router.max_attempts()).map(backoff_for).sum();
                            let k_max = cfg.arrival_intervals + frames + span + 2;
                            assert!(last < k_max, "{label}: ran to k_max {k_max}");
                            runs += 1;
                        }
                    }
                }
            }
        }
        for (kind, count) in KINDS.iter().zip(seen) {
            assert!(count > 0, "no {kind} in {runs} runs");
        }
        println!("{runs} runs: {:?}", KINDS.iter().zip(seen).collect::<Vec<_>>());
    }
}
