//! Set-associative cache model with LRU replacement and write-back support.
//!
//! Used for each GPM's aggregated L1 (texture/vertex reads) and its
//! memory-side L2 (Table 2: 4 MiB total, 16-way). The model is functional —
//! it tracks presence and dirtiness per line to produce miss/write-back
//! traffic; it stores no data.

use crate::address::Addr;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line was present.
    Hit,
    /// Line was absent and has been allocated. If a dirty victim was
    /// evicted, its line base address is carried here for write-back.
    Miss {
        /// Dirty line evicted to make room, if any.
        writeback: Option<Addr>,
    },
}

impl CacheOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Tags are line numbers (< 2^58 with the modeled 64-byte lines — checked
/// by a debug assertion), so the two top bits hold the valid/dirty flags.
/// Packing the flags into the tag word keeps a way at 16 bytes: a whole
/// 8-way set then spans two 64-byte host cache lines instead of three, and
/// an MRU-probe hit touches exactly one.
const VALID: u64 = 1 << 63;
const DIRTY: u64 = 1 << 62;
const TAG_MASK: u64 = !(VALID | DIRTY);

#[derive(Debug, Clone, Copy)]
struct Way {
    /// `tag | VALID | DIRTY`.
    tf: u64,
    /// LRU stamp; larger is more recent.
    stamp: u64,
}

const EMPTY_WAY: Way = Way { tf: 0, stamp: 0 };

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0,1]`; 0 when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with LRU replacement.
///
/// ```
/// use oovr_mem::{Addr, SetAssocCache};
///
/// let mut l1 = SetAssocCache::new(128 * 1024, 8, 64);
/// assert!(!l1.access(Addr(0x1000), false).is_hit()); // cold miss
/// assert!(l1.access(Addr(0x1020), false).is_hit());  // same 64 B line
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    ways: usize,
    sets: usize,
    line_size: u64,
    /// `log2(line_size)` when the line size is a power of two, else
    /// `u32::MAX`: the per-access line computation is then a shift instead
    /// of a hardware divide by a runtime value.
    line_shift: u32,
    /// Way metadata, set-major.
    data: Vec<Way>,
    /// Most-recently-hit way index per set: texture/vertex streams touch the
    /// same line repeatedly, so one probe usually resolves the access
    /// without scanning the set.
    mru: Vec<u32>,
    /// The MRU way's `tf & !DIRTY` (i.e. `line | VALID`) per set, mirrored
    /// out of `data`. The dominant access — a read re-hitting the MRU line —
    /// is answered by comparing against this dense 8-byte-per-set array
    /// alone, so the hot loop's working set is this array (16 KiB for the
    /// L1) instead of the full way-metadata array (256 KiB), which no longer
    /// fits the host cache. Invariant: `mru_tag[s] ==
    /// data[s*ways + mru[s]].tf & !DIRTY`; zero (no VALID bit) matches no
    /// probe, covering reset and [`clear`](Self::clear).
    mru_tag: Vec<u64>,
    /// Previous MRU way per set, probed when the MRU tag misses: texture
    /// streams interleave texture and depth lines in a set, and one victim
    /// slot catches the alternation without a set scan.
    mru2: Vec<u32>,
    /// The previous MRU way's `tf & !DIRTY`, or zero when unknown (reset,
    /// [`clear`](Self::clear), direct-mapped eviction). Soundness invariant:
    /// whenever nonzero, `mru2_tag[s] == data[s*ways + mru2[s]].tf & !DIRTY`
    /// — a match proves the line is present in that way.
    mru2_tag: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// `line_size`-byte lines. The set count is rounded down to a power of
    /// two (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or capacity is smaller than one way
    /// of lines.
    pub fn new(capacity_bytes: u64, ways: usize, line_size: u64) -> Self {
        assert!(
            capacity_bytes > 0 && ways > 0 && line_size > 0,
            "cache parameters must be nonzero"
        );
        let lines = capacity_bytes / line_size;
        assert!(lines >= ways as u64, "capacity must hold at least one set");
        let target = (lines / ways as u64).max(1);
        // Round down to a power of two so simple index masking works.
        let sets = (1u64 << (63 - target.leading_zeros())) as usize;
        let line_shift =
            if line_size.is_power_of_two() { line_size.trailing_zeros() } else { u32::MAX };
        SetAssocCache {
            ways,
            sets,
            line_size,
            line_shift,
            data: vec![EMPTY_WAY; sets * ways],
            mru: vec![0; sets],
            mru_tag: vec![0; sets],
            mru2: vec![0; sets],
            mru2_tag: vec![0; sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Accumulated statistics. `accesses` is the access clock itself: both
    /// advance by exactly one per [`access`](Self::access), so the hot path
    /// maintains one counter and the other is materialized here.
    pub fn stats(&self) -> CacheStats {
        CacheStats { accesses: self.clock, ..self.stats }
    }

    /// Capacity in bytes actually modeled (sets × ways × line).
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_size
    }

    /// Accesses the line containing `addr`; `write` marks the line dirty.
    /// Allocates on miss (write-allocate); dirty victims are reported for
    /// write-back.
    ///
    /// Inlined so the dominant case — a read re-hitting the MRU line — folds
    /// into the caller's loop as a compare-and-count with no call overhead;
    /// anything else takes the outlined [`access_slow`](Self::access_slow).
    #[inline]
    pub fn access(&mut self, addr: Addr, write: bool) -> CacheOutcome {
        self.clock += 1;
        let line = if self.line_shift != u32::MAX {
            addr.0 >> self.line_shift
        } else {
            addr.0 / self.line_size
        };
        debug_assert!(line & !TAG_MASK == 0, "line number collides with flag bits");
        let set = (line as usize) & (self.sets - 1);
        let want = line | VALID;

        // MRU fast path: the way that hit last time in this set, probed via
        // the mirrored `mru_tag` array so a read hit never touches the way
        // metadata. The MRU way's stamp is NOT refreshed: every hit or fill
        // stamps the way it touches and points `mru` at it, so the MRU way
        // already holds its set's maximum stamp, and refreshing the maximum
        // cannot change any relative stamp order — victim selection stays
        // bit-identical. Write hits still set the way's dirty bit.
        if self.mru_tag[set] == want {
            if write {
                self.data[set * self.ways + self.mru[set] as usize].tf |= DIRTY;
            }
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        // Second probe: the previously-MRU way. Unlike the MRU way it does
        // not hold its set's maximum stamp, so a hit refreshes the stamp and
        // promotes — exactly what the scan's hit arm would have done.
        if self.mru2_tag[set] == want {
            let i = self.mru2[set];
            let w = &mut self.data[set * self.ways + i as usize];
            w.stamp = self.clock;
            if write {
                w.tf |= DIRTY;
            }
            self.stats.hits += 1;
            self.mru2[set] = self.mru[set];
            self.mru2_tag[set] = self.mru_tag[set];
            self.mru[set] = i;
            self.mru_tag[set] = want;
            return CacheOutcome::Hit;
        }
        self.access_slow(set, want, write)
    }

    /// Non-MRU continuation of [`access`](Self::access): full set scan,
    /// victim selection, and fill. Outlined to keep the inlined fast path
    /// small.
    #[cold]
    fn access_slow(&mut self, set: usize, want: u64, write: bool) -> CacheOutcome {
        let base = set * self.ways;
        let ways = &mut self.data[base..base + self.ways];

        // Full hit scan; on the way, track the LRU victim so a miss needs no
        // second pass. Key order matches the original `min_by_key`: invalid
        // ways rank as 0, valid ways as stamp+1, first minimum wins.
        let mut victim = 0usize;
        let mut victim_key = u64::MAX;
        for (i, w) in ways.iter_mut().enumerate() {
            if (w.tf & !DIRTY) == want {
                w.stamp = self.clock;
                if write {
                    w.tf |= DIRTY;
                }
                self.stats.hits += 1;
                self.mru2[set] = self.mru[set];
                self.mru2_tag[set] = self.mru_tag[set];
                self.mru[set] = i as u32;
                self.mru_tag[set] = want;
                return CacheOutcome::Hit;
            }
            let key = if w.tf & VALID != 0 { w.stamp + 1 } else { 0 };
            if key < victim_key {
                victim = i;
                victim_key = key;
            }
        }

        let old = ways[victim];
        ways[victim] = Way { tf: if write { want | DIRTY } else { want }, stamp: self.clock };
        // Demote the old MRU way — still resident, since the victim (minimum
        // key) can never be the valid maximum-stamp MRU way when the set has
        // two or more ways. Direct-mapped sets just evicted it: record
        // nothing.
        self.mru2[set] = self.mru[set];
        self.mru2_tag[set] = if self.ways == 1 { 0 } else { self.mru_tag[set] };
        self.mru[set] = victim as u32;
        self.mru_tag[set] = want;
        let writeback = if old.tf & (VALID | DIRTY) == (VALID | DIRTY) {
            self.stats.writebacks += 1;
            Some(Addr((old.tf & TAG_MASK) * self.line_size))
        } else {
            None
        };
        CacheOutcome::Miss { writeback }
    }

    /// Flushes all dirty lines, returning their base addresses (used at
    /// frame boundaries so lingering framebuffer lines are charged).
    pub fn flush_dirty(&mut self) -> Vec<Addr> {
        let mut out = Vec::new();
        self.flush_dirty_into(&mut out);
        out
    }

    /// Like [`flush_dirty`](Self::flush_dirty), but fills a caller-provided
    /// buffer (cleared first) so per-frame flushes reuse one allocation.
    pub fn flush_dirty_into(&mut self, out: &mut Vec<Addr>) {
        out.clear();
        for w in &mut self.data {
            if w.tf & (VALID | DIRTY) == (VALID | DIRTY) {
                out.push(Addr((w.tf & TAG_MASK) * self.line_size));
                w.tf &= !DIRTY;
            }
        }
        self.stats.writebacks += out.len() as u64;
    }

    /// Invalidates everything (keeps statistics).
    pub fn clear(&mut self) {
        for w in &mut self.data {
            w.tf = 0;
        }
        // Zero has no VALID bit, so no probe can match a cleared set.
        for t in &mut self.mru_tag {
            *t = 0;
        }
        for t in &mut self.mru2_tag {
            *t = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_kb(kb: u64, ways: usize) -> SetAssocCache {
        SetAssocCache::new(kb * 1024, ways, 64)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = cache_kb(4, 2);
        assert!(!c.access(Addr(0), false).is_hit());
        assert!(c.access(Addr(0), false).is_hit());
        assert!(c.access(Addr(63), false).is_hit(), "same line");
        assert!(!c.access(Addr(64), false).is_hit(), "next line");
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, force a single set by using addresses that map to set 0.
        let mut c = SetAssocCache::new(2 * 64, 2, 64);
        assert_eq!(c.sets(), 1);
        c.access(Addr(0), false);
        c.access(Addr(64), false);
        c.access(Addr(0), false); // refresh line 0
        c.access(Addr(128), false); // evicts line 1 (LRU)
        assert!(c.access(Addr(0), false).is_hit());
        assert!(!c.access(Addr(64), false).is_hit());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = SetAssocCache::new(2 * 64, 2, 64);
        c.access(Addr(0), true);
        c.access(Addr(64), false);
        // Next two fills evict both; line 0 was dirty.
        let out1 = c.access(Addr(128), false);
        let out2 = c.access(Addr(192), false);
        let wbs: Vec<_> = [out1, out2]
            .iter()
            .filter_map(|o| match o {
                CacheOutcome::Miss { writeback } => *writeback,
                CacheOutcome::Hit => None,
            })
            .collect();
        assert_eq!(wbs, vec![Addr(0)]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_dirty_returns_all_dirty_lines() {
        let mut c = cache_kb(4, 4);
        c.access(Addr(0), true);
        c.access(Addr(64), true);
        c.access(Addr(128), false);
        let mut d = c.flush_dirty();
        d.sort();
        assert_eq!(d, vec![Addr(0), Addr(64)]);
        assert!(c.flush_dirty().is_empty(), "second flush finds nothing");
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = cache_kb(4, 4); // 64 lines
        for round in 0..2 {
            for i in 0..128u64 {
                let out = c.access(Addr(i * 64), false);
                if round == 0 {
                    assert!(!out.is_hit());
                }
            }
        }
        assert!(c.stats().hit_rate() < 0.1, "thrash hit rate {}", c.stats().hit_rate());
    }

    #[test]
    fn working_set_smaller_than_capacity_hits() {
        let mut c = cache_kb(4, 4);
        for _ in 0..4 {
            for i in 0..32u64 {
                c.access(Addr(i * 64), false);
            }
        }
        assert!(c.stats().hit_rate() > 0.7);
    }

    #[test]
    fn clear_invalidates() {
        let mut c = cache_kb(4, 2);
        c.access(Addr(0), true);
        c.clear();
        assert!(!c.access(Addr(0), false).is_hit());
        assert!(c.flush_dirty().is_empty());
    }
}
