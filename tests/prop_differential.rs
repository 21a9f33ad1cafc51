//! Differential correctness: the optimized memory substrate against plain
//! reference models.
//!
//! The hot-path implementations trade clarity for speed: `SetAssocCache`
//! probes its two most recent ways first, finds other ways through one-byte
//! partial tags and keeps its LRU order as one nibble per way in a word;
//! `PageTable` translates through a chunked
//! dense array with a per-accessor lookaside instead of a hash map;
//! `MemorySystem` drains its traffic ledger by swapping scratch buffers
//! instead of allocating per quantum. These properties drive the optimized
//! types and straightforward reference models — a recency-list LRU, a
//! `HashMap` page table, and a drain that materializes a fresh ledger every
//! epoch — through identical operation streams and require *bit-identical*
//! observable behavior: per-access outcomes, hit/miss statistics, placement decisions, capacity accounting, and per-class
//! per-link traffic. The fragment kernel's batched primitives — repeat
//! accesses, batched texel-line reads, run-length writes and the quad depth
//! test — are held to the one-at-a-time operations they replace.
//! `run_interleaved`, now a wrapper over the shared `Lanes` quantum pump,
//! is held to the plain earliest-clock loop it replaced.

use std::collections::HashMap;

use proptest::prelude::*;

use oovr_mem::{
    AccessLevel, Addr, GpmId, MemConfig, MemorySystem, PageTable, Placement, Region, SetAssocCache,
    Traffic, TrafficClass, LINE_SIZE, PAGE_SIZE,
};

// ---------------------------------------------------------------------------
// Reference cache: LRU as an explicit recency list.
// ---------------------------------------------------------------------------

/// Textbook set-associative LRU cache: each set is a recency-ordered list
/// (front = least recent). No flag packing, no MRU probe, no stamps.
struct RefCache {
    ways: usize,
    sets: usize,
    line_size: u64,
    data: Vec<Vec<u64>>,
    accesses: u64,
    hits: u64,
}

impl RefCache {
    fn new(capacity_bytes: u64, ways: usize, line_size: u64) -> Self {
        // Same geometry derivation as `SetAssocCache::new`.
        let lines = capacity_bytes / line_size;
        let target = (lines / ways as u64).max(1);
        let sets = (1u64 << (63 - target.leading_zeros())) as usize;
        RefCache {
            ways,
            sets,
            line_size,
            data: (0..sets).map(|_| Vec::new()).collect(),
            accesses: 0,
            hits: 0,
        }
    }

    /// Returns whether the access hit.
    fn access(&mut self, addr: Addr) -> bool {
        self.accesses += 1;
        let line = addr.0 / self.line_size;
        let set = &mut self.data[(line as usize) & (self.sets - 1)];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.push(line);
            self.hits += 1;
            return true;
        }
        if set.len() == self.ways {
            set.remove(0);
        }
        set.push(line);
        false
    }

    /// The resident lines, sorted.
    fn resident(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = self.data.iter().flatten().copied().collect();
        lines.sort_unstable();
        lines
    }
}

// ---------------------------------------------------------------------------
// Reference page table: a plain hash map.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct RefPage {
    home: u8,
    replicas: u16,
}

struct RefPageTable {
    n_gpms: usize,
    default_policy: Placement,
    regions: Vec<(Region, Placement)>,
    pages: HashMap<u64, RefPage>,
    resident: Vec<u64>,
}

impl RefPageTable {
    fn new(n_gpms: usize, default_policy: Placement) -> Self {
        RefPageTable {
            n_gpms,
            default_policy,
            regions: Vec::new(),
            pages: HashMap::new(),
            resident: vec![0; n_gpms],
        }
    }

    fn set_policy(&mut self, region: Region, policy: Placement) {
        self.regions.push((region, policy));
    }

    fn policy_for(&self, addr: Addr) -> Placement {
        for (r, p) in &self.regions {
            if r.contains(addr) {
                return *p;
            }
        }
        self.default_policy
    }

    fn resolve(&mut self, addr: Addr, accessor: GpmId) -> GpmId {
        let page = addr.page();
        if let Some(e) = self.pages.get(&page) {
            return if e.replicas & (1 << accessor.0) != 0 { accessor } else { GpmId(e.home) };
        }
        let policy = self.policy_for(addr);
        let home = match policy {
            Placement::FirstTouch | Placement::Replicated => accessor,
            Placement::Interleaved => GpmId((page % self.n_gpms as u64) as u8),
            Placement::Fixed(g) => g,
        };
        let replicas = if policy == Placement::Replicated {
            for r in &mut self.resident {
                *r += PAGE_SIZE;
            }
            (1u16 << self.n_gpms) - 1
        } else {
            self.resident[home.index()] += PAGE_SIZE;
            0
        };
        self.pages.insert(page, RefPage { home: home.0, replicas });
        home
    }

    fn migrate(&mut self, addr: Addr, to: GpmId) -> Option<GpmId> {
        let page = addr.page();
        match self.pages.get_mut(&page) {
            Some(e) if e.home == to.0 => None,
            Some(e) => {
                let from = GpmId(e.home);
                e.home = to.0;
                e.replicas = 0;
                self.resident[from.index()] = self.resident[from.index()].saturating_sub(PAGE_SIZE);
                self.resident[to.index()] += PAGE_SIZE;
                Some(from)
            }
            None => {
                self.pages.insert(page, RefPage { home: to.0, replicas: 0 });
                self.resident[to.index()] += PAGE_SIZE;
                None
            }
        }
    }

    fn replicate(&mut self, addr: Addr, at: GpmId) -> Option<GpmId> {
        let page = addr.page();
        match self.pages.get_mut(&page) {
            Some(e) => {
                if e.home == at.0 || e.replicas & (1 << at.0) != 0 {
                    return None;
                }
                e.replicas |= 1 << at.0;
                self.resident[at.index()] += PAGE_SIZE;
                Some(GpmId(e.home))
            }
            None => {
                self.pages.insert(page, RefPage { home: at.0, replicas: 0 });
                self.resident[at.index()] += PAGE_SIZE;
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference memory system: reference cache + reference page table, with the
// pre-optimization drain scheme (a freshly allocated ledger per epoch).
// ---------------------------------------------------------------------------

struct RefMemorySystem {
    page_table: RefPageTable,
    l1: Vec<RefCache>,
    l2: Vec<RefCache>,
    pending: Traffic,
    total: Traffic,
}

impl RefMemorySystem {
    fn new(n_gpms: usize, cfg: MemConfig, default_policy: Placement) -> Self {
        RefMemorySystem {
            page_table: RefPageTable::new(n_gpms, default_policy),
            l1: (0..n_gpms).map(|_| RefCache::new(cfg.l1_bytes, cfg.l1_ways, LINE_SIZE)).collect(),
            l2: (0..n_gpms).map(|_| RefCache::new(cfg.l2_bytes, cfg.l2_ways, LINE_SIZE)).collect(),
            pending: Traffic::new(n_gpms),
            total: Traffic::new(n_gpms),
        }
    }

    fn read(&mut self, gpm: GpmId, addr: Addr, class: TrafficClass, use_l1: bool) -> AccessLevel {
        let line = addr.line_base();
        let g = gpm.index();
        if use_l1 && self.l1[g].access(line) {
            return AccessLevel::L1;
        }
        if self.l2[g].access(line) {
            return AccessLevel::L2;
        }
        let home = self.page_table.resolve(line, gpm);
        if home == gpm {
            self.pending.add_local(gpm, class, LINE_SIZE);
            self.total.add_local(gpm, class, LINE_SIZE);
            AccessLevel::LocalDram
        } else {
            self.pending.add_remote(home, gpm, class, LINE_SIZE);
            self.total.add_remote(home, gpm, class, LINE_SIZE);
            AccessLevel::RemoteDram(home)
        }
    }

    fn write(&mut self, gpm: GpmId, addr: Addr, class: TrafficClass) {
        let line = addr.line_base();
        let g = gpm.index();
        if self.l2[g].access(line) {
            return;
        }
        let home = self.page_table.resolve(line, gpm);
        if home == gpm {
            self.pending.add_local(gpm, class, LINE_SIZE);
            self.total.add_local(gpm, class, LINE_SIZE);
        } else {
            self.pending.dram[home.index()] += LINE_SIZE;
            self.total.dram[home.index()] += LINE_SIZE;
            self.pending.add_link_only(gpm, home, class, LINE_SIZE);
            self.total.add_link_only(gpm, home, class, LINE_SIZE);
        }
    }

    /// The pre-optimization drain: materialize a fresh ledger every epoch.
    fn drain_pending(&mut self) -> Traffic {
        std::mem::replace(&mut self.pending, Traffic::new(self.total.n_gpms()))
    }
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

const CLASSES: [TrafficClass; 4] =
    [TrafficClass::Vertex, TrafficClass::Texture, TrafficClass::Depth, TrafficClass::Color];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed/MRU/stamp-skipping cache behaves exactly like a textbook
    /// recency-list LRU: same outcome on every access, same resident lines
    /// at the end, same statistics. Also exercises the non-power-of-two
    /// line-size fallback (no shift strength reduction).
    #[test]
    fn cache_matches_reference_lru(
        geometry in (0u64..3, 1usize..5, 0usize..2),
        ops in prop::collection::vec(0u64..1 << 14, 1..600),
    ) {
        let (cap_sel, ways_exp, line_sel) = geometry;
        let capacity = 1u64 << (10 + cap_sel); // 1–4 KiB: small, collides hard
        let ways = 1 << ways_exp; // 2–16
        let line_size = [64u64, 48][line_sel]; // 48 exercises the divide path
        let mut opt = SetAssocCache::new(capacity, ways, line_size);
        let mut reference = RefCache::new(capacity, ways, line_size);
        prop_assert_eq!(opt.sets(), reference.sets);
        for (i, &a) in ops.iter().enumerate() {
            let hit_ref = reference.access(Addr(a));
            let out = opt.access(Addr(a));
            prop_assert_eq!(out.is_hit(), hit_ref, "outcome divergence at op {} addr {}", i, a);
        }
        let s = opt.stats();
        prop_assert_eq!(s.accesses, reference.accesses);
        prop_assert_eq!(s.hits, reference.hits);
        let resident = reference.resident();
        prop_assert!(resident.iter().all(|&l| opt.access(Addr(l * line_size)).is_hit()), "resident lines differ");
    }

    /// The chunked dense page table with its per-accessor lookaside resolves,
    /// migrates and replicates exactly like a plain hash-map model, for
    /// every placement policy, including pages beyond the dense range and
    /// region-scoped policy overrides.
    #[test]
    fn page_table_matches_reference_map(
        policy_sel in 0u8..4,
        n_gpms in 1usize..5,
        ops in prop::collection::vec((0u8..8, 0u64..64, 0u8..4), 1..400),
    ) {
        let default_policy = match policy_sel {
            0 => Placement::FirstTouch,
            1 => Placement::Interleaved,
            2 => Placement::Fixed(GpmId(0)),
            _ => Placement::Replicated,
        };
        let mut opt = PageTable::new(n_gpms, default_policy);
        let mut reference = RefPageTable::new(n_gpms, default_policy);
        // A fixed-policy region overriding the default for pages 8..16.
        let override_region = Region { base: 8 * PAGE_SIZE, size: 8 * PAGE_SIZE };
        opt.set_policy(override_region, Placement::Fixed(GpmId((n_gpms - 1) as u8)));
        reference.set_policy(override_region, Placement::Fixed(GpmId((n_gpms - 1) as u8)));
        for (i, &(op, page_sel, gpm)) in ops.iter().enumerate() {
            let gpm = GpmId(gpm % n_gpms as u8);
            // Mostly dense-range pages; every 5th lands beyond DENSE_LIMIT
            // (≥ 2^22 pages) to exercise the overflow hash path.
            let page = if page_sel % 5 == 0 { (1 << 22) + page_sel } else { page_sel };
            let addr = Addr(page * PAGE_SIZE + (page_sel % PAGE_SIZE));
            match op {
                0..=5 => {
                    // Resolution dominates, as in real streams.
                    prop_assert_eq!(
                        opt.resolve(addr, gpm),
                        reference.resolve(addr, gpm),
                        "resolve divergence at op {} page {} gpm {}", i, page, gpm
                    );
                }
                6 => {
                    prop_assert_eq!(
                        opt.migrate(addr, gpm),
                        reference.migrate(addr, gpm),
                        "migrate divergence at op {} page {}", i, page
                    );
                }
                _ => {
                    prop_assert_eq!(
                        opt.replicate(addr, gpm),
                        reference.replicate(addr, gpm),
                        "replicate divergence at op {} page {}", i, page
                    );
                }
            }
        }
        prop_assert_eq!(opt.resident_bytes(), &reference.resident[..]);
        prop_assert_eq!(opt.placed_pages(), reference.pages.len());
    }

    /// The full memory system — optimized caches, page table, and the
    /// swap-based epoch drain — produces bit-identical access levels,
    /// per-epoch traffic ledgers, and cumulative per-class per-link totals
    /// against the reference composition that allocates a fresh ledger per
    /// epoch.
    #[test]
    fn memory_system_matches_reference(
        n_gpms in 1usize..5,
        ops in prop::collection::vec((0u8..8, 0u64..1 << 15, 0u8..4, 0u8..4), 1..500),
    ) {
        // Small caches so misses, evictions and remote fills all occur.
        let cfg = MemConfig { l1_bytes: 2048, l1_ways: 2, l2_bytes: 4096, l2_ways: 4 };
        let mut opt = MemorySystem::new(n_gpms, cfg, Placement::FirstTouch);
        let mut reference = RefMemorySystem::new(n_gpms, cfg, Placement::FirstTouch);
        let mut scratch = Traffic::new(n_gpms);
        for (i, &(op, a, gpm, class_sel)) in ops.iter().enumerate() {
            let gpm = GpmId(gpm % n_gpms as u8);
            let class = CLASSES[class_sel as usize];
            let addr = Addr(a);
            match op {
                0..=3 => {
                    let use_l1 = op % 2 == 0;
                    prop_assert_eq!(
                        opt.read(gpm, addr, class, use_l1),
                        reference.read(gpm, addr, class, use_l1),
                        "read divergence at op {} addr {}", i, a
                    );
                }
                4 | 5 => {
                    opt.write(gpm, addr, class);
                    reference.write(gpm, addr, class);
                }
                _ => {
                    // Epoch boundary: drain both and compare ledgers. The
                    // optimized side reuses one scratch buffer across all
                    // epochs; the reference allocates a fresh ledger.
                    prop_assert_eq!(
                        opt.has_pending(),
                        !reference.pending.is_empty(),
                        "pending flag divergence at op {}", i
                    );
                    opt.drain_pending_into(&mut scratch);
                    let expected = reference.drain_pending();
                    prop_assert_eq!(&scratch, &expected, "epoch ledger divergence at op {}", i);
                }
            }
        }
        prop_assert_eq!(opt.total_traffic(), &reference.total, "cumulative ledgers differ");
        opt.drain_pending_into(&mut scratch);
        prop_assert_eq!(&scratch, &reference.drain_pending(), "final pending ledgers differ");
        for g in GpmId::all(n_gpms) {
            let (l1o, l1r) = (opt.l1_stats(g), &reference.l1[g.index()]);
            prop_assert_eq!(l1o.accesses, l1r.accesses);
            prop_assert_eq!(l1o.hits, l1r.hits);
            let (l2o, l2r) = (opt.l2_stats(g), &reference.l2[g.index()]);
            prop_assert_eq!(l2o.accesses, l2r.accesses);
            prop_assert_eq!(l2o.hits, l2r.hits);
        }
        prop_assert_eq!(
            opt.page_table().resident_bytes(),
            &reference.page_table.resident[..]
        );
    }
}

// ---------------------------------------------------------------------------
// Fragment-kernel primitives against the one-at-a-time operations they
// batch.
// ---------------------------------------------------------------------------

/// Every page `addrs` touch, resolved from GPM 0 on the page table behind
/// `resolve` (placed pages report their home; unplaced ones are placed the
/// same way on both sides, so the comparison stays fair).
fn homes(addrs: &[u64], mut resolve: impl FnMut(Addr) -> GpmId) -> Vec<GpmId> {
    let mut pages: Vec<u64> = addrs.iter().map(|&a| a / PAGE_SIZE).collect();
    pages.sort_unstable();
    pages.dedup();
    pages.into_iter().map(|p| resolve(Addr(p * PAGE_SIZE))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `access_n(a, n)` is `n` back-to-back `access(a)` calls: the same
    /// first outcome, and — since the stream goes on against a textbook
    /// LRU that did the repeats one by one — the same later outcomes,
    /// statistics and resident lines.
    #[test]
    fn access_n_matches_repeated_access(
        geometry in (0u64..3, 0usize..5),
        ops in prop::collection::vec((0u64..1 << 13, 1u32..6), 1..400),
    ) {
        let (cap_sel, ways_exp) = geometry;
        let capacity = 1u64 << (10 + cap_sel);
        let ways = 1 << ways_exp; // 1–16
        let mut opt = SetAssocCache::new(capacity, ways, 64);
        let mut reference = RefCache::new(capacity, ways, 64);
        for (i, &(a, n)) in ops.iter().enumerate() {
            let out = opt.access_n(Addr(a), n);
            let hit_ref = reference.access(Addr(a));
            for _ in 1..n {
                reference.access(Addr(a));
            }
            prop_assert_eq!(out.is_hit(), hit_ref, "outcome divergence at op {}", i);
        }
        let s = opt.stats();
        prop_assert_eq!((s.accesses, s.hits), (reference.accesses, reference.hits));
        let resident = reference.resident();
        prop_assert!(resident.iter().all(|&l| opt.access(Addr(l * 64)).is_hit()), "resident lines differ");
    }

    /// `MemorySystem::read_lines` (L1 probes, then the L1 misses in L2,
    /// then the L2 misses in DRAM) and `write_n` behave exactly like one
    /// `read(.., use_l1 = true)` per line in order and `n` writes on the
    /// reference composition: same per-epoch ledgers, cumulative traffic,
    /// cache statistics and page placement. Batches repeat and collide
    /// lines in the small caches, so any reordering within a level shows.
    #[test]
    fn batched_reads_and_run_writes_match_reference(
        n_gpms in 1usize..5,
        ops in prop::collection::vec(
            (0u8..6, prop::collection::vec(0u64..1 << 15, 1..20), (0u8..4, 0u8..4), 1u32..5),
            1..120,
        ),
    ) {
        let cfg = MemConfig { l1_bytes: 2048, l1_ways: 2, l2_bytes: 4096, l2_ways: 4 };
        let mut opt = MemorySystem::new(n_gpms, cfg, Placement::FirstTouch);
        let mut reference = RefMemorySystem::new(n_gpms, cfg, Placement::FirstTouch);
        let mut scratch = Traffic::new(n_gpms);
        let mut touched = Vec::new();
        for (i, (op, addrs, (gpm, class_sel), n)) in ops.iter().enumerate() {
            let gpm = GpmId(gpm % n_gpms as u8);
            let class = CLASSES[*class_sel as usize];
            touched.extend_from_slice(addrs);
            match op {
                0..=2 => {
                    let mut lines: Vec<Addr> = addrs.iter().map(|&a| Addr(a)).collect();
                    opt.read_lines(gpm, &mut lines, class);
                    for &a in addrs {
                        reference.read(gpm, Addr(a), class, true);
                    }
                }
                3 | 4 => {
                    let a = Addr(addrs[0]);
                    opt.write_n(gpm, a, class, *n);
                    for _ in 0..*n {
                        reference.write(gpm, a, class);
                    }
                }
                _ => {
                    opt.drain_pending_into(&mut scratch);
                    prop_assert_eq!(&scratch, &reference.drain_pending(), "epoch ledger divergence at op {}", i);
                }
            }
        }
        prop_assert_eq!(opt.total_traffic(), &reference.total, "cumulative ledgers differ");
        for g in GpmId::all(n_gpms) {
            let (l1o, l1r) = (opt.l1_stats(g), &reference.l1[g.index()]);
            prop_assert_eq!((l1o.accesses, l1o.hits), (l1r.accesses, l1r.hits));
            let (l2o, l2r) = (opt.l2_stats(g), &reference.l2[g.index()]);
            prop_assert_eq!((l2o.accesses, l2o.hits), (l2r.accesses, l2r.hits));
        }
        prop_assert_eq!(opt.page_table().resident_bytes(), &reference.page_table.resident[..]);
        let opt_homes = homes(&touched, |a| opt.page_table_mut().resolve(a, GpmId(0)));
        let ref_homes = homes(&touched, |a| reference.page_table.resolve(a, GpmId(0)));
        prop_assert_eq!(opt_homes, ref_homes, "page placement differs");
    }

    /// `ZBuffer::test_quad` passes, and writes, exactly the pixels four
    /// `test_and_set` calls would, for every mask, on frames with odd
    /// widths and heights so quads straddle the right and bottom edges (and
    /// some lie wholly outside).
    #[test]
    fn quad_depth_test_matches_per_pixel(
        size in (1u32..12, 1u32..12),
        ops in prop::collection::vec((0u32..7, 0u32..7, 0u8..16, 0u8..8), 1..200),
    ) {
        let (w, h) = size;
        let mut quad = oovr_gpu::ZBuffer::new(w, h);
        let mut pixels = oovr_gpu::ZBuffer::new(w, h);
        let z_of = |zi: u8| f32::from(zi) / 8.0;
        for (i, &(qx, qy, mask, zi)) in ops.iter().enumerate() {
            let (x, y, z) = (2 * qx, 2 * qy, z_of(zi));
            let got = quad.test_quad(x, y, mask, z);
            let mut want = 0u8;
            for bit in 0..4u32 {
                let (px, py) = (x + (bit & 1), y + (bit >> 1));
                if mask & (1 << bit) != 0 && pixels.test_and_set(px, py, z) {
                    want |= 1 << bit;
                }
            }
            prop_assert_eq!(got, want, "pass mask divergence at op {} quad ({}, {})", i, x, y);
        }
        // The buffers agree pixel by pixel: probe each from the farthest
        // depth inward; the first level that passes is just nearer than
        // the stored value (probing writes both buffers alike).
        for y in 0..h {
            for x in 0..w {
                for zi in (0..9u8).rev() {
                    let z = z_of(zi);
                    prop_assert_eq!(quad.test_and_set(x, y, z), pixels.test_and_set(x, y, z));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tiled rasterizer differential: the 8x8 tiled walk against the per-pixel
// reference walk.
// ---------------------------------------------------------------------------

/// One recorded quad emission: `(x, y, mask, uv.x bits, uv.y bits, z bits)`.
type QuadRecord = (u32, u32, u8, u32, u32, u32);

/// Byte-exact emission record of one rasterizer pass.
fn raster_emissions(
    tri: &oovr_scene::ScreenTriangle,
    clip: Option<&oovr_scene::Rect>,
    w: u32,
    h: u32,
    tiled: bool,
) -> (u64, Vec<QuadRecord>) {
    let mut out = Vec::new();
    let sink = |q: oovr_gpu::QuadFragment| {
        out.push((q.x, q.y, q.mask, q.uv.x.to_bits(), q.uv.y.to_bits(), q.z.to_bits()));
    };
    let quads = if tiled {
        oovr_gpu::rasterize(tri, clip, w, h, sink)
    } else {
        oovr_gpu::rasterize_scalar(tri, clip, w, h, sink)
    };
    (quads, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The tiled rasterizer emits bit-for-bit the quads of the per-pixel
    /// reference — same order, same coverage masks, same UV and Z bits —
    /// for arbitrary triangles (including slivers, degenerate and
    /// off-screen ones, both windings) under arbitrary clip rectangles.
    /// A tile-accept margin that is one ULP too eager fails this: an
    /// accepted tile would emit a full mask where the per-pixel walk
    /// rejects a borderline sample.
    #[test]
    fn tiled_raster_matches_scalar(
        // Vertex coordinates in 1/8-pixel steps spanning off-screen
        // (−400 px) to beyond the frame (+2200 px); small denominators
        // make near-edge pixel centers (the margin's hard cases) common.
        verts in prop::collection::vec(0u32..20_800, 6..7),
        uvs in prop::collection::vec(0u32..512, 6..7),
        z in 0u8..200,
        clip_on in 0u8..2,
        clip_box in (0u32..180, 0u32..180, 1u32..200, 1u32..200),
        degenerate in 0u8..2,
    ) {
        let c = |v: u32| (v as f32 - 3_200.0) / 8.0;
        let mut v = [
            oovr_scene::Vec2::new(c(verts[0]), c(verts[1])),
            oovr_scene::Vec2::new(c(verts[2]), c(verts[3])),
            oovr_scene::Vec2::new(c(verts[4]), c(verts[5])),
        ];
        if degenerate == 1 {
            // Collinear: the midpoint of the other two.
            v[2] = oovr_scene::Vec2::new((v[0].x + v[1].x) * 0.5, (v[0].y + v[1].y) * 0.5);
        }
        let tri = oovr_scene::ScreenTriangle {
            v,
            uv: [
                oovr_scene::Vec2::new(uvs[0] as f32, uvs[1] as f32),
                oovr_scene::Vec2::new(uvs[2] as f32, uvs[3] as f32),
                oovr_scene::Vec2::new(uvs[4] as f32, uvs[5] as f32),
            ],
            z: f32::from(z) / 200.0,
            texture: oovr_scene::TextureId(0),
        };
        let (cx, cy, cw, ch) = clip_box;
        let clip = (clip_on == 1)
            .then(|| oovr_scene::Rect::new(cx as f32, cy as f32, cw as f32, ch as f32));
        let (tq, tiled) = raster_emissions(&tri, clip.as_ref(), 256, 256, true);
        let (sq, scalar) = raster_emissions(&tri, clip.as_ref(), 256, 256, false);
        prop_assert_eq!(tq, sq, "quad count divergence");
        prop_assert_eq!(tiled, scalar, "emission divergence");
    }

    /// Adversarial margin cases: a near-vertical edge hugging a sample
    /// column (sample x = col + 0.515625, exactly representable) offset by
    /// amounts down to 2⁻²⁰ px. True edge values at those samples sit well
    /// inside the classifier's error margin, so a classifier that accepts
    /// or rejects borderline tiles instead of leaving them `Partial` emits
    /// different masks than the per-pixel `f32` walk.
    #[test]
    fn tiled_raster_matches_scalar_near_edges(
        col in 1u32..250,
        dx_exp in 0u32..21,
        sign in 0u8..2,
        wind in 0u8..2,
        apex_y in 0u32..40,
    ) {
        let sx = col as f32 + 0.515625;
        let dx = (f32::from(sign) * 2.0 - 1.0) * (2.0f32).powi(-(dx_exp as i32));
        // Edge from below the frame to above it, skewed by ±2·dx across its
        // run so some tiles straddle the sample column at sub-margin range.
        let a = oovr_scene::Vec2::new(sx + dx, -10.0);
        let b = oovr_scene::Vec2::new(sx - dx, 266.0);
        let apex =
            oovr_scene::Vec2::new(if wind == 0 { 500.0 } else { -300.0 }, apex_y as f32 * 6.0);
        let tri = oovr_scene::ScreenTriangle {
            v: [a, b, apex],
            uv: [
                oovr_scene::Vec2::new(0.0, 0.0),
                oovr_scene::Vec2::new(128.0, 0.0),
                oovr_scene::Vec2::new(0.0, 128.0),
            ],
            z: 0.25,
            texture: oovr_scene::TextureId(0),
        };
        let (tq, tiled) = raster_emissions(&tri, None, 256, 256, true);
        let (sq, scalar) = raster_emissions(&tri, None, 256, 256, false);
        prop_assert_eq!(tq, sq, "quad count divergence");
        prop_assert_eq!(tiled, scalar, "emission divergence");
    }
}

// ---------------------------------------------------------------------------
// Render cache and rate-schedule cursor differentials.
// ---------------------------------------------------------------------------

/// Field-by-field frame equality (`FrameReport` deliberately has no
/// `PartialEq`; float rates compare by bit pattern, as the render cache
/// promises bit-identity, not mere closeness).
fn assert_frames_identical(
    a: &oovr_gpu::FrameReport,
    b: &oovr_gpu::FrameReport,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.frame_cycles, b.frame_cycles);
    prop_assert_eq!(a.composition_cycles, b.composition_cycles);
    prop_assert_eq!(&a.gpm_busy, &b.gpm_busy);
    prop_assert_eq!(&a.traffic, &b.traffic);
    prop_assert_eq!(a.counts, b.counts);
    prop_assert_eq!(a.l1_hit_rate.to_bits(), b.l1_hit_rate.to_bits());
    prop_assert_eq!(a.l2_hit_rate.to_bits(), b.l2_hit_rate.to_bits());
    prop_assert_eq!(&a.resident_bytes, &b.resident_bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A memoized render — scene built through the content-addressed scene
    /// cache, frame served by the render cache (miss on first call, hit on
    /// second) — is bit-identical to rendering an independently built scene
    /// directly, across workloads, schemes, and link-bandwidth configs.
    #[test]
    fn cached_render_matches_uncached(
        wl in 0usize..9,
        scheme_sel in 0usize..4,
        link_sel in 0usize..3,
        seed_bump in 0u64..3,
    ) {
        use oovr::experiments::SchemeKind;
        let kinds = [
            SchemeKind::Baseline,
            SchemeKind::ObjectLevel,
            SchemeKind::OoVr,
            SchemeKind::SortMiddle,
        ];
        let kind = kinds[scheme_sel];
        let mut spec = oovr_scene::benchmarks::all()[wl].scaled(0.06);
        // Perturb the workload seed so this test cannot accidentally share
        // cache entries with other tests' identically-parameterized specs.
        spec.seed ^= 0xD1F7 + seed_bump;
        let cfg = oovr_gpu::GpuConfig::default()
            .with_link_gbps([32.0, 64.0, 128.0][link_sel]);

        let scene = oovr::cache::scene_for(&spec);
        let miss = oovr::cache::render(kind, &scene, &cfg);
        let hit = oovr::cache::render(kind, &scene, &cfg);
        let direct = kind.render(&spec.build(), &cfg);
        assert_frames_identical(&miss, &hit)?;
        assert_frames_identical(&miss, &direct)?;
    }

    /// Same property for the resilient render path (deadline-keyed cache
    /// entries, countermeasure runtime) under an injected fault plan.
    #[test]
    fn cached_resilient_render_matches_uncached(
        wl in 0usize..9,
        scenario_sel in 0usize..5,
        severity in 0.1f64..0.9,
    ) {
        use oovr_frameworks::RenderScheme as _;
        let mut spec = oovr_scene::benchmarks::all()[wl].scaled(0.06);
        spec.seed ^= 0x5EED;
        let plan = oovr_gpu::FaultPlan::new(
            oovr_gpu::FaultScenario::ALL[scenario_sel],
            severity,
            7,
        );
        let cfg = oovr_gpu::GpuConfig::default().with_fault(plan);
        let deadline = 2_000_000u64;

        let scene = oovr::cache::scene_for(&spec);
        let miss = oovr::cache::render_resilient(deadline, &scene, &cfg);
        let hit = oovr::cache::render_resilient(deadline, &scene, &cfg);
        let direct =
            oovr::schemes::OoVr::resilient_with_deadline(deadline).render_frame(&spec.build(), &cfg);
        assert_frames_identical(&miss, &hit)?;
        assert_frames_identical(&miss, &direct)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `RateSchedule::advance_with_hint` equals the hint-free binary-search
    /// walk for *any* hint value, including stale and out-of-range ones, and
    /// the returned cursor is the segment containing the completion time.
    #[test]
    fn schedule_hint_matches_search(
        breaks in prop::collection::vec((1u64..10_000, 0u32..5), 0..12),
        queries in prop::collection::vec((0u64..20_000u64, 0u64..5_000, 0usize..16), 1..40),
    ) {
        use oovr_mem::RateSchedule;
        let mut segs = vec![(0u64, 1.0f64)];
        for &(dt, m) in &breaks {
            let t = segs.last().unwrap().0 + dt;
            segs.push((t, f64::from(m) * 0.25));
        }
        // The tail must make progress.
        if segs.last().unwrap().1 == 0.0 {
            segs.last_mut().unwrap().1 = 0.5;
        }
        let s = RateSchedule::new(segs);
        for &(start, work, hint) in &queries {
            let (start, work) = (start as f64, work as f64);
            let plain = s.advance(start, work);
            let (hinted, cursor) = s.advance_with_hint(hint, start, work);
            prop_assert_eq!(plain.to_bits(), hinted.to_bits());
            // The returned cursor must itself be a valid resume point:
            // resuming from it reproduces the hint-free walk exactly.
            let (again, _) = s.advance_with_hint(cursor, hinted, 0.0);
            prop_assert_eq!(again.to_bits(), s.advance(hinted, 0.0).to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Quantum pump: `run_interleaved` over `Lanes` against the plain loop.
// ---------------------------------------------------------------------------

/// Reference driver: one quantum at a time on the earliest-clock GPM with
/// work (ties to the lowest index), straight from per-GPM unit queues.
fn reference_interleaved(
    ex: &mut oovr_gpu::Executor<'_>,
    mut queues: Vec<std::collections::VecDeque<oovr_gpu::RenderUnit>>,
) {
    let n = ex.n_gpms();
    let mut running: Vec<Option<oovr_gpu::RunningUnit>> = (0..n).map(|_| None).collect();
    loop {
        let mut best: Option<(usize, u64)> = None;
        for g in 0..n {
            if running[g].is_none() && queues[g].is_empty() {
                continue;
            }
            let now = ex.gpm(GpmId(g as u8)).now;
            if best.is_none_or(|(_, t)| now < t) {
                best = Some((g, now));
            }
        }
        let Some((g, _)) = best else { break };
        if running[g].is_none() {
            let unit = queues[g].pop_front().expect("queue checked non-empty");
            running[g] = Some(ex.start_unit(&unit));
        }
        let ru = running[g].as_mut().expect("running unit just ensured");
        if ex.step_unit(GpmId(g as u8), ru) {
            running[g] = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `run_interleaved` renders the same frame as the reference loop for
    /// random scenes and random assignments of (possibly split) objects to
    /// GPM queues.
    #[test]
    fn run_interleaved_matches_reference_loop(
        wl in 0usize..9,
        gpm_sel in 0usize..2,
        picks in prop::collection::vec((0usize..8, 0usize..8, 0u8..2), 1..64),
    ) {
        use oovr_gpu::{ColorMode, Composition, Executor, FbOrg, GpuConfig, RenderUnit};
        let scene = oovr_scene::benchmarks::all()[wl].scaled(0.04).build();
        let cfg = GpuConfig::default().with_n_gpms([4, 8][gpm_sel]);
        let n = cfg.n_gpms;
        let mut queues = vec![std::collections::VecDeque::new(); n];
        for (obj, &(g, h, split)) in scene.objects().iter().zip(picks.iter().cycle()) {
            let unit = RenderUnit::smp(obj.id());
            let tris = obj.triangle_count();
            if split == 1 && tris >= 2 {
                queues[g % n].push_back(unit.clone().with_tri_range(0, tris / 2));
                queues[h % n].push_back(unit.with_tri_range(tris / 2, tris).without_command());
            } else {
                queues[g % n].push_back(unit);
            }
        }
        let render = |drive: &dyn Fn(&mut Executor<'_>)| {
            let mut ex = Executor::new(
                cfg.clone(),
                &scene,
                Placement::FirstTouch,
                FbOrg::InterleavedPages,
                ColorMode::Direct,
            );
            drive(&mut ex);
            format!("{:?}", ex.finish("pump", Composition::None))
        };
        let got = render(&|ex| oovr_frameworks::run_interleaved(ex, queues.clone()));
        let want = render(&|ex| reference_interleaved(ex, queues.clone()));
        prop_assert_eq!(got, want);
    }
}
