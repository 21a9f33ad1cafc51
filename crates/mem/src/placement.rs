//! NUMA page placement: the page table mapping pages to GPM memory homes.
//!
//! The baseline system uses the First-Touch policy with a remote cache
//! (§3, after \[5\]); AFR's separate memory spaces are modeled with
//! [`Placement::Replicated`]; tile schemes and the distributed hardware
//! composition pin framebuffer partitions with [`Placement::Fixed`]; OO-VR's
//! PA units call [`PageTable::migrate`] / [`PageTable::replicate`].

use std::collections::HashMap;
use std::fmt;

use crate::address::{Addr, Region};

/// Identifier of a GPU module (GPM) in the multi-GPU system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpmId(pub u8);

impl GpmId {
    /// All GPM ids for an `n`-GPM system.
    pub fn all(n: usize) -> impl Iterator<Item = GpmId> {
        (0..n as u8).map(GpmId)
    }

    /// The id as a usize index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for GpmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPM{}", self.0)
    }
}

/// Placement policy for a region of the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Page homed at the first GPM that touches it (the baseline's policy).
    FirstTouch,
    /// Pages striped round-robin across GPMs by page index.
    Interleaved,
    /// All pages homed at one GPM (e.g. the master node's framebuffer in
    /// conventional object-level SFR).
    Fixed(GpmId),
    /// Data replicated in every GPM's DRAM: always a local access (AFR's
    /// separate memory spaces). Capacity accounting multiplies by GPM count.
    Replicated,
}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// Home GPM id; [`UNPLACED`] marks an empty dense-table slot.
    home: u8,
    /// Bitmask of GPMs holding extra replicas (fine-grained stealing's
    /// duplicated data). Bit i set ⇒ GPM i can read the page locally.
    replicas: u16,
}

/// Sentinel home for an unplaced dense-table slot (GPM ids stop at 15).
const UNPLACED: u8 = 0xFF;
const EMPTY_ENTRY: PageEntry = PageEntry { home: UNPLACED, replicas: 0 };

/// log2 pages per dense chunk: 512 pages × 4 KiB = 2 MiB of address space.
const CHUNK_BITS: u32 = 9;
const CHUNK_PAGES: usize = 1 << CHUNK_BITS;
/// Pages below this index live in the dense chunked table (covers the low
/// 16 GiB of address space, where the simulator lays out all regions);
/// anything above spills to a hash map so sparse outliers stay cheap.
const DENSE_LIMIT: u64 = 1 << 22;

type Chunk = Box<[PageEntry; CHUNK_PAGES]>;

/// Maximum GPM count, fixing the lookaside array size.
pub const MAX_GPMS: usize = 16;
const NO_PAGE: u64 = u64::MAX;

/// The NUMA page table.
///
/// ```
/// use oovr_mem::{Addr, GpmId, PageTable, Placement};
///
/// let mut pt = PageTable::new(4, Placement::FirstTouch);
/// // GPM2 touches the page first and becomes its home.
/// assert_eq!(pt.resolve(Addr(0), GpmId(2)), GpmId(2));
/// assert_eq!(pt.resolve(Addr(0), GpmId(0)), GpmId(2)); // remote for GPM0
/// // OO-VR's PA unit migrates it next to its consumer.
/// assert_eq!(pt.migrate(Addr(0), GpmId(0)), Some(GpmId(2)));
/// assert_eq!(pt.resolve(Addr(0), GpmId(0)), GpmId(0)); // now local
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    n_gpms: usize,
    default_policy: Placement,
    /// Regions with explicit policies, sorted by base for binary search.
    regions: Vec<(Region, Placement)>,
    /// Dense translation for pages below [`DENSE_LIMIT`]: lazily allocated
    /// 512-page chunks indexed by `page >> CHUNK_BITS`. Translation is two
    /// array indexes instead of a hash probe.
    chunks: Vec<Option<Chunk>>,
    /// Sparse spill store for pages at or above [`DENSE_LIMIT`].
    overflow: HashMap<u64, PageEntry>,
    /// Count of placed pages across both stores.
    placed: usize,
    /// Per-accessor last-page lookaside: `(page, serving GPM)` of the most
    /// recent [`resolve`](Self::resolve). Streaming accesses hit the same
    /// page ~64 times in a row (4 KiB page / 64 B line), so this short-cuts
    /// the common case. Invalidated on migrate/replicate.
    lookaside: [(u64, GpmId); MAX_GPMS],
    /// Resident bytes per GPM (for capacity accounting), incremented at
    /// placement and replication time.
    resident: Vec<u64>,
}

impl PageTable {
    /// Creates a page table for `n_gpms` GPMs with a default policy.
    ///
    /// # Panics
    ///
    /// Panics if `n_gpms` is 0 or greater than 16.
    pub fn new(n_gpms: usize, default_policy: Placement) -> Self {
        match Self::try_new(n_gpms, default_policy) {
            Ok(pt) => pt,
            Err(_) => panic!("supported GPM counts are 1..=16, got {n_gpms}"),
        }
    }

    /// Creates a page table, returning an error instead of panicking when
    /// `n_gpms` is outside the supported `1..=16` range.
    pub fn try_new(
        n_gpms: usize,
        default_policy: Placement,
    ) -> Result<Self, crate::error::MemError> {
        if !(1..=MAX_GPMS).contains(&n_gpms) {
            return Err(crate::error::MemError::TooManyGpms { requested: n_gpms });
        }
        Ok(PageTable {
            n_gpms,
            default_policy,
            regions: Vec::new(),
            chunks: Vec::new(),
            overflow: HashMap::new(),
            placed: 0,
            lookaside: [(NO_PAGE, GpmId(0)); MAX_GPMS],
            resident: vec![0; n_gpms],
        })
    }

    /// Looks up a placed page's entry.
    #[inline]
    fn entry(&self, page: u64) -> Option<PageEntry> {
        if page < DENSE_LIMIT {
            let e = (*self.chunks.get((page >> CHUNK_BITS) as usize)?.as_ref()?)
                [page as usize & (CHUNK_PAGES - 1)];
            if e.home == UNPLACED {
                None
            } else {
                Some(e)
            }
        } else {
            self.overflow.get(&page).copied()
        }
    }

    /// Mutable access to a placed page's entry.
    #[inline]
    fn entry_mut(&mut self, page: u64) -> Option<&mut PageEntry> {
        if page < DENSE_LIMIT {
            let e = &mut self.chunks.get_mut((page >> CHUNK_BITS) as usize)?.as_mut()?
                [page as usize & (CHUNK_PAGES - 1)];
            if e.home == UNPLACED {
                None
            } else {
                Some(e)
            }
        } else {
            self.overflow.get_mut(&page)
        }
    }

    /// Places a page (must not already be placed).
    fn insert_entry(&mut self, page: u64, entry: PageEntry) {
        debug_assert_ne!(entry.home, UNPLACED);
        if page < DENSE_LIMIT {
            let ci = (page >> CHUNK_BITS) as usize;
            if ci >= self.chunks.len() {
                self.chunks.resize_with(ci + 1, || None);
            }
            let chunk = self.chunks[ci].get_or_insert_with(|| Box::new([EMPTY_ENTRY; CHUNK_PAGES]));
            chunk[page as usize & (CHUNK_PAGES - 1)] = entry;
        } else {
            self.overflow.insert(page, entry);
        }
        self.placed += 1;
    }

    /// Drops any lookaside line caching `page` (its mapping changed).
    fn invalidate_lookaside(&mut self, page: u64) {
        for slot in &mut self.lookaside {
            if slot.0 == page {
                slot.0 = NO_PAGE;
            }
        }
    }

    /// Number of GPMs.
    pub fn n_gpms(&self) -> usize {
        self.n_gpms
    }

    /// Registers an explicit placement policy for a region.
    pub fn set_policy(&mut self, region: Region, policy: Placement) {
        let idx = self.regions.partition_point(|(r, _)| r.base < region.base);
        self.regions.insert(idx, (region, policy));
    }

    fn policy_for(&self, addr: Addr) -> Placement {
        // Binary search the sorted region list for the last region whose
        // base is <= addr, then check containment.
        let idx = self.regions.partition_point(|(r, _)| r.base <= addr.0);
        if idx > 0 {
            let (r, p) = self.regions[idx - 1];
            if r.contains(addr) {
                return p;
            }
        }
        self.default_policy
    }

    /// Resolves the memory home serving `addr` for `accessor`, placing the
    /// page on first touch when the governing policy requires it.
    ///
    /// Returns the GPM whose DRAM services the access; equal to `accessor`
    /// means a local access.
    pub fn resolve(&mut self, addr: Addr, accessor: GpmId) -> GpmId {
        let page = addr.page();
        // Lookaside fast path: consecutive lines of the same page.
        let (cached_page, cached_serving) = self.lookaside[accessor.index()];
        if cached_page == page {
            return cached_serving;
        }
        if let Some(e) = self.entry(page) {
            let serving =
                if e.replicas & (1 << accessor.0) != 0 { accessor } else { GpmId(e.home) };
            self.lookaside[accessor.index()] = (page, serving);
            return serving;
        }
        let policy = self.policy_for(addr);
        let home = match policy {
            Placement::FirstTouch => accessor,
            Placement::Interleaved => GpmId((page % self.n_gpms as u64) as u8),
            Placement::Fixed(g) => g,
            Placement::Replicated => accessor,
        };
        let replicas = match policy {
            // Replicated data is resident everywhere.
            Placement::Replicated => {
                for r in &mut self.resident {
                    *r += crate::address::PAGE_SIZE;
                }
                (1u16 << self.n_gpms) - 1
            }
            _ => {
                self.resident[home.index()] += crate::address::PAGE_SIZE;
                0
            }
        };
        self.insert_entry(page, PageEntry { home: home.0, replicas });
        self.lookaside[accessor.index()] = (page, home);
        home
    }

    /// Migrates a page to a new home (OO-VR PA unit pre-allocation).
    ///
    /// Returns the previous home when the page was already placed elsewhere
    /// (the caller charges the copy to the interconnect); `None` when the
    /// page was unplaced or already local (free placement).
    pub fn migrate(&mut self, addr: Addr, to: GpmId) -> Option<GpmId> {
        let page = addr.page();
        self.invalidate_lookaside(page);
        match self.entry_mut(page) {
            Some(e) if e.home == to.0 => None,
            Some(e) => {
                let from = GpmId(e.home);
                e.home = to.0;
                e.replicas = 0;
                self.resident[from.index()] =
                    self.resident[from.index()].saturating_sub(crate::address::PAGE_SIZE);
                self.resident[to.index()] += crate::address::PAGE_SIZE;
                Some(from)
            }
            None => {
                self.insert_entry(page, PageEntry { home: to.0, replicas: 0 });
                self.resident[to.index()] += crate::address::PAGE_SIZE;
                None
            }
        }
    }

    /// Adds a replica of the page at `at` (fine-grained stealing's data
    /// duplication). Returns the home to copy from, or `None` if the page
    /// was unplaced (in which case it is simply placed at `at`).
    pub fn replicate(&mut self, addr: Addr, at: GpmId) -> Option<GpmId> {
        let page = addr.page();
        self.invalidate_lookaside(page);
        match self.entry_mut(page) {
            Some(e) => {
                if e.home == at.0 || e.replicas & (1 << at.0) != 0 {
                    return None;
                }
                e.replicas |= 1 << at.0;
                let home = GpmId(e.home);
                self.resident[at.index()] += crate::address::PAGE_SIZE;
                Some(home)
            }
            None => {
                self.insert_entry(page, PageEntry { home: at.0, replicas: 0 });
                self.resident[at.index()] += crate::address::PAGE_SIZE;
                None
            }
        }
    }

    /// Resident bytes per GPM (capacity accounting; AFR's 4× footprint shows
    /// up here).
    pub fn resident_bytes(&self) -> &[u64] {
        &self.resident
    }

    /// Number of placed pages.
    pub fn placed_pages(&self) -> usize {
        self.placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::PAGE_SIZE;

    #[test]
    fn first_touch_places_at_accessor() {
        let mut pt = PageTable::new(4, Placement::FirstTouch);
        let a = Addr(0);
        assert_eq!(pt.resolve(a, GpmId(2)), GpmId(2));
        // Second accessor sees the original home.
        assert_eq!(pt.resolve(a, GpmId(0)), GpmId(2));
    }

    #[test]
    fn interleaved_stripes_by_page() {
        let mut pt = PageTable::new(4, Placement::Interleaved);
        for p in 0..8u64 {
            let home = pt.resolve(Addr(p * PAGE_SIZE), GpmId(0));
            assert_eq!(home, GpmId((p % 4) as u8));
        }
    }

    #[test]
    fn fixed_region_policy_overrides_default() {
        let mut pt = PageTable::new(4, Placement::FirstTouch);
        let region = Region { base: 4 * PAGE_SIZE, size: 2 * PAGE_SIZE };
        pt.set_policy(region, Placement::Fixed(GpmId(3)));
        assert_eq!(pt.resolve(Addr(4 * PAGE_SIZE), GpmId(0)), GpmId(3));
        assert_eq!(pt.resolve(Addr(0), GpmId(1)), GpmId(1)); // default FT
    }

    #[test]
    fn replicated_is_always_local() {
        let mut pt = PageTable::new(4, Placement::Replicated);
        assert_eq!(pt.resolve(Addr(0), GpmId(1)), GpmId(1));
        assert_eq!(pt.resolve(Addr(0), GpmId(3)), GpmId(3));
        // Resident on every GPM.
        assert!(pt.resident_bytes().iter().all(|&b| b == PAGE_SIZE));
    }

    #[test]
    fn migrate_reports_copy_source() {
        let mut pt = PageTable::new(4, Placement::FirstTouch);
        pt.resolve(Addr(0), GpmId(0));
        assert_eq!(pt.migrate(Addr(0), GpmId(2)), Some(GpmId(0)));
        assert_eq!(pt.resolve(Addr(0), GpmId(1)), GpmId(2));
        // Migrating to the current home is free.
        assert_eq!(pt.migrate(Addr(0), GpmId(2)), None);
        // Migrating an unplaced page is free placement.
        assert_eq!(pt.migrate(Addr(PAGE_SIZE * 10), GpmId(1)), None);
        assert_eq!(pt.resolve(Addr(PAGE_SIZE * 10), GpmId(3)), GpmId(1));
    }

    #[test]
    fn replicate_makes_access_local() {
        let mut pt = PageTable::new(4, Placement::FirstTouch);
        pt.resolve(Addr(0), GpmId(0));
        assert_eq!(pt.replicate(Addr(0), GpmId(3)), Some(GpmId(0)));
        assert_eq!(pt.resolve(Addr(0), GpmId(3)), GpmId(3));
        assert_eq!(pt.resolve(Addr(0), GpmId(1)), GpmId(0));
        // Replicating twice is a no-op.
        assert_eq!(pt.replicate(Addr(0), GpmId(3)), None);
    }

    #[test]
    fn resident_accounting() {
        let mut pt = PageTable::new(2, Placement::FirstTouch);
        pt.resolve(Addr(0), GpmId(0));
        pt.resolve(Addr(PAGE_SIZE), GpmId(1));
        assert_eq!(pt.resident_bytes(), &[PAGE_SIZE, PAGE_SIZE]);
        pt.migrate(Addr(0), GpmId(1));
        assert_eq!(pt.resident_bytes(), &[0, 2 * PAGE_SIZE]);
        assert_eq!(pt.placed_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "GPM counts")]
    fn zero_gpms_rejected() {
        let _ = PageTable::new(0, Placement::FirstTouch);
    }

    #[test]
    fn try_new_reports_bad_counts() {
        use crate::error::MemError;
        assert_eq!(
            PageTable::try_new(17, Placement::FirstTouch).err(),
            Some(MemError::TooManyGpms { requested: 17 })
        );
        assert!(PageTable::try_new(16, Placement::FirstTouch).is_ok());
    }
}
