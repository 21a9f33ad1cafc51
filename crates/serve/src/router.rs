//! The cluster session router: placement policies and the retry/repair policy.
//!
//! The router is the piece of the cluster tier that decides *where* a
//! session lives and *what happens* when that choice goes bad. Placement
//! is a pure function from a session key plus the per-server ledger
//! ([`ServerView`]) to a preference order over servers, so every policy is
//! trivially deterministic and testable in isolation from the cluster
//! simulation.
//!
//! Three policies ship:
//!
//! * [`Placement::LeastLoaded`] — classic greedy: try servers in ascending
//!   predicted-load order. Spreads everything, ignores what is *on* each
//!   server.
//! * [`Placement::Affinity`] — workload-affinity packing: prefer servers
//!   already hosting sessions that replay the *same memoized cost stream*,
//!   then empty servers, then the rest. Co-located sessions share warm
//!   per-stream state, so a packed server avoids the cross-stream
//!   working-set tax the cluster model charges per extra resident stream.
//! * [`Placement::ConsistentHash`] — rendezvous (highest-random-weight)
//!   hashing of the session key: placement is stable under server-set
//!   churn without any coordination state, the classic stateless-router
//!   choice.
//!
//! [`Router`] gates the robustness features separately from placement:
//! admission retry with capped exponential backoff across candidate
//! servers, failover of in-flight sessions off dead servers, overload
//! migration behind an anti-ping-pong residency guard, and cluster-wide
//! quality shedding before any session is dropped. [`Router::Baseline`]
//! turns all of them off — that is the no-retry/no-migration arm every
//! chaos cell is measured against.

/// One server's ledger: the only per-server state of the cluster tier.
/// The cluster updates it in O(1) per session transition and the router
/// places against it in place.
#[derive(Debug, Clone, Default)]
pub struct ServerView {
    /// Aggregate Eq. 3 predicted demand (cycles/vsync) of resident
    /// sessions.
    pub load: f64,
    /// Resident active sessions.
    pub active: u32,
    /// Resident session count per cost-stream id.
    pub streams: Vec<u32>,
    /// Full-scale frame-cost sum (cycles) of resident sessions.
    pub cost: u64,
}

impl ServerView {
    /// An empty server of a mix with `n_streams` cost streams.
    pub(crate) fn new(n_streams: usize) -> Self {
        ServerView { streams: vec![0; n_streams], ..ServerView::default() }
    }

    /// Books a session of `stream` with predicted `demand` and frame `cost`.
    pub(crate) fn attach(&mut self, stream: usize, demand: f64, cost: u64) {
        self.load += demand;
        self.active += 1;
        self.streams[stream] += 1;
        self.cost += cost;
    }

    /// Releases what [`attach`](Self::attach) booked (`cost` is what the
    /// session holds now).
    pub(crate) fn detach(&mut self, stream: usize, demand: f64, cost: u64) {
        self.load -= demand;
        self.active -= 1;
        self.streams[stream] -= 1;
        self.cost -= cost;
    }

    /// Whether a session of `stream` is resident.
    pub(crate) fn hosts(&self, stream: usize) -> bool {
        self.streams.get(stream).is_some_and(|&c| c > 0)
    }

    /// Cross-stream working-set tax: `switch_tax` per distinct resident
    /// stream beyond the first, counting `adding` as resident when given.
    pub(crate) fn tax(&self, switch_tax: u64, adding: Option<usize>) -> u64 {
        let extra = adding.is_some_and(|s| !self.hosts(s));
        let distinct = self.streams.iter().filter(|&&c| c > 0).count() + usize::from(extra);
        switch_tax * distinct.saturating_sub(1) as u64
    }

    /// Full-scale demand (cycles/vsync): frame costs plus the tax.
    pub(crate) fn demand(&self, switch_tax: u64) -> u64 {
        self.cost + self.tax(switch_tax, None)
    }
}

/// Pluggable placement policy of the session router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Ascending predicted-load order.
    LeastLoaded,
    /// Pack sessions sharing a cost stream onto the same servers.
    Affinity,
    /// Rendezvous (highest-random-weight) hash of the session key.
    ConsistentHash,
}

impl Placement {
    /// All policies, in table column order.
    pub const ALL: [Placement; 3] =
        [Placement::LeastLoaded, Placement::Affinity, Placement::ConsistentHash];

    /// Short stable name for tables and CLI arguments.
    pub fn label(self) -> &'static str {
        match self {
            Placement::LeastLoaded => "least-loaded",
            Placement::Affinity => "affinity",
            Placement::ConsistentHash => "hash",
        }
    }

    /// Parses the labels accepted by the `figures` CLI.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "least-loaded" | "ll" => Some(Placement::LeastLoaded),
            "affinity" | "af" => Some(Placement::Affinity),
            "hash" | "ch" => Some(Placement::ConsistentHash),
            _ => None,
        }
    }

    /// Writes into `idx` the preference order over server indices for a
    /// session identified by `key` replaying cost stream `stream`: always
    /// a permutation of every server. The reference that
    /// [`first`](Self::first) is tested against.
    #[cfg(test)]
    pub(crate) fn order(
        self,
        key: u64,
        stream: usize,
        servers: &[ServerView],
        idx: &mut Vec<usize>,
    ) {
        idx.clear();
        idx.extend(0..servers.len());
        // Every comparator below ends in the index, a strict total order,
        // so the unstable (allocation-free) sort gives the stable one's
        // result.
        match self {
            Placement::LeastLoaded => {
                idx.sort_unstable_by(|&a, &b| {
                    cmp_f64(servers[a].load, servers[b].load).then(a.cmp(&b))
                });
            }
            Placement::Affinity => {
                // Same-stream hosts first, then empty servers (fresh
                // packing targets), then mixed servers — each tier in
                // ascending-load order.
                idx.sort_unstable_by(|&a, &b| {
                    affinity_tier(&servers[a], stream)
                        .cmp(&affinity_tier(&servers[b], stream))
                        .then(cmp_f64(servers[a].load, servers[b].load))
                        .then(a.cmp(&b))
                });
            }
            Placement::ConsistentHash => {
                // Rendezvous hashing: weight(server) = mix(key, server);
                // descending weight gives each key its own stable server
                // preference list, uniformly spread across keys.
                idx.sort_unstable_by(|&a, &b| {
                    rendezvous_weight(key, b as u64)
                        .cmp(&rendezvous_weight(key, a as u64))
                        .then(a.cmp(&b))
                });
            }
        }
    }

    /// The first server that satisfies `pred` in the preference order of
    /// a session identified by `key` replaying cost stream `stream`, found
    /// in one pass over the servers. Every policy's order ends its
    /// comparison in the server index, so it is a strict total order and
    /// its first match is the least matching server under it. Dead servers
    /// are *not* filtered here — liveness awareness is a router feature
    /// ([`Router::failover`]) the caller puts in `pred`.
    pub(crate) fn first(
        self,
        key: u64,
        stream: usize,
        servers: &[ServerView],
        mut pred: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        // The policy's sort key up to the index; the ascending scan keeps
        // the lower index on a tie.
        let rank = |c: usize| {
            let s = &servers[c];
            match self {
                Placement::LeastLoaded => (0, s.load),
                Placement::Affinity => (u64::from(affinity_tier(s, stream)), s.load),
                Placement::ConsistentHash => (!rendezvous_weight(key, c as u64), 0.0),
            }
        };
        let mut best: Option<(usize, (u64, f64))> = None;
        for c in 0..servers.len() {
            if !pred(c) {
                continue;
            }
            let r = rank(c);
            if best.is_none_or(|(_, b)| r.0.cmp(&b.0).then(cmp_f64(r.1, b.1)).is_lt()) {
                best = Some((c, r));
            }
        }
        best.map(|(c, _)| c)
    }
}

/// Affinity tier of a server for a session of `stream`: same-stream hosts,
/// then empty servers, then mixed servers.
fn affinity_tier(s: &ServerView, stream: usize) -> u8 {
    if s.hosts(stream) {
        0
    } else if s.active == 0 {
        1
    } else {
        2
    }
}

/// Total order on finite floats (loads are finite sums of predictions).
fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// SplitMix64-style avalanche mix of (key, server) for rendezvous hashing.
fn rendezvous_weight(key: u64, server: u64) -> u64 {
    let mut z = key ^ server.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First admission retry backoff, in vsync intervals; doubles per attempt.
const BACKOFF_INTERVALS: u32 = 1;

/// Cap on the per-attempt admission backoff, in vsync intervals.
const BACKOFF_CAP: u32 = 8;

/// Backoff before attempt `attempt + 1` (after failed attempt `attempt`,
/// 1-based), in vsync intervals: capped exponential.
pub(crate) fn backoff_for(attempt: u32) -> u32 {
    let exp = attempt.saturating_sub(1).min(16);
    (BACKOFF_INTERVALS << exp).min(BACKOFF_CAP)
}

/// Robustness policy of the session router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Router {
    /// The fully resilient router: retry + failover + migration + shed +
    /// eviction.
    Resilient,
    /// The retry-free/no-migration baseline every chaos cell compares
    /// against: one admission attempt, sessions pinned to their server.
    Baseline,
}

impl Router {
    /// Total admission attempts per session (1 = no retry).
    pub fn max_attempts(self) -> u32 {
        match self {
            Router::Resilient => 4,
            Router::Baseline => 1,
        }
    }

    /// Fail sessions over off dead servers (also makes admission
    /// liveness-aware: the router health-checks candidates).
    pub fn failover(self) -> bool {
        self == Router::Resilient
    }

    /// Migrate sessions off overloaded/degraded servers.
    pub fn migrate(self) -> bool {
        self == Router::Resilient
    }

    /// Shed quality cluster-wide before dropping sessions.
    pub fn shed(self) -> bool {
        self == Router::Resilient
    }

    /// Evict sessions stuck missing at the shedding floor (last resort).
    pub fn evict(self) -> bool {
        self == Router::Resilient
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Placement::order`] into a fresh buffer.
    fn order(p: Placement, key: u64, stream: usize, servers: &[ServerView]) -> Vec<usize> {
        let mut idx = Vec::new();
        p.order(key, stream, servers, &mut idx);
        idx
    }

    fn views(loads: &[f64]) -> Vec<ServerView> {
        loads
            .iter()
            .map(|&load| ServerView { load, active: 1, streams: vec![1], cost: 0 })
            .collect()
    }

    #[test]
    fn least_loaded_sorts_by_load_then_id() {
        let v = views(&[3.0, 1.0, 2.0, 1.0]);
        assert_eq!(order(Placement::LeastLoaded, 7, 0, &v), vec![1, 3, 2, 0]);
        // A reused buffer is overwritten, not appended to.
        let mut idx = vec![9; 7];
        Placement::LeastLoaded.order(7, 0, &v, &mut idx);
        assert_eq!(idx, vec![1, 3, 2, 0]);
    }

    #[test]
    fn affinity_prefers_stream_hosts_then_empty_servers() {
        let v = vec![
            ServerView { load: 5.0, active: 2, streams: vec![0, 2], cost: 0 },
            ServerView { load: 0.0, active: 0, streams: vec![], cost: 0 },
            ServerView { load: 9.0, active: 3, streams: vec![1, 2], cost: 0 },
            ServerView { load: 2.0, active: 1, streams: vec![0, 0, 1], cost: 0 },
        ];
        // Stream 0 lives on server 2 → it leads despite the highest load;
        // empty server 1 beats the mixed servers 0 and 3.
        assert_eq!(order(Placement::Affinity, 7, 0, &v), vec![2, 1, 3, 0]);
    }

    #[test]
    fn rendezvous_hash_is_stable_under_server_removal() {
        let four = views(&[0.0; 4]);
        let order4 = order(Placement::ConsistentHash, 42, 0, &four);
        let three = views(&[0.0; 3]);
        let order3 = order(Placement::ConsistentHash, 42, 0, &three);
        // Dropping server 3 must keep the relative order of servers 0..3.
        let filtered: Vec<usize> = order4.into_iter().filter(|&s| s < 3).collect();
        assert_eq!(filtered, order3);
    }

    #[test]
    fn rendezvous_hash_spreads_keys() {
        let v = views(&[0.0; 4]);
        let mut first = [0u32; 4];
        for key in 0..256u64 {
            first[order(Placement::ConsistentHash, key, 0, &v)[0]] += 1;
        }
        for (s, &count) in first.iter().enumerate() {
            assert!(count > 20, "server {s} got only {count}/256 keys");
        }
    }

    #[test]
    fn first_is_the_first_match_of_the_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF125);
        for case in 0..2000u64 {
            // Few distinct loads and stream counts, so ties and every
            // affinity tier come up.
            let servers: Vec<ServerView> = (0..rng.gen_range(1..9usize))
                .map(|_| {
                    let streams = vec![rng.gen_range(0..2u32), rng.gen_range(0..2u32)];
                    let active = streams.iter().sum();
                    let load = f64::from(rng.gen_range(0..4u32)) * 0.5;
                    ServerView { load, active, streams, cost: 0 }
                })
                .collect();
            let allowed: Vec<bool> = servers.iter().map(|_| rng.gen_bool(0.6)).collect();
            let stream = rng.gen_range(0..2usize);
            for p in Placement::ALL {
                let want = order(p, case, stream, &servers).into_iter().find(|&c| allowed[c]);
                assert_eq!(p.first(case, stream, &servers, |c| allowed[c]), want, "{case} {p:?}");
            }
        }
    }

    #[test]
    fn ledger_taxes_distinct_streams_beyond_the_first() {
        let mut s = ServerView::new(3);
        assert_eq!(s.tax(10, Some(1)), 0);
        s.attach(1, 2.0, 100);
        assert!(s.hosts(1) && !s.hosts(0));
        assert_eq!((s.tax(10, Some(1)), s.tax(10, Some(2))), (0, 10));
        s.attach(2, 1.0, 50);
        assert_eq!(s.demand(10), 160);
        s.detach(1, 2.0, 100);
        assert_eq!((s.active, s.cost, s.demand(10)), (1, 50, 50));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        assert_eq!(backoff_for(1), 1);
        assert_eq!(backoff_for(2), 2);
        assert_eq!(backoff_for(3), 4);
        assert_eq!(backoff_for(4), 8);
        assert_eq!(backoff_for(10), 8, "backoff saturates at the cap");
    }

    #[test]
    fn baseline_turns_every_countermeasure_off() {
        let b = Router::Baseline;
        assert!(!b.failover() && !b.migrate() && !b.shed() && !b.evict());
        assert_eq!(b.max_attempts(), 1);
    }
}
