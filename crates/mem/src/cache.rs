//! Set-associative cache model with LRU replacement.
//!
//! Used for each GPM's aggregated L1 (texture/vertex reads) and its
//! memory-side L2 (Table 2: 4 MiB total, 16-way). The model is functional —
//! it tracks presence per line to produce miss traffic; it stores no data.
//! The memory system models writes as write-through
//! (`MemorySystem::write`), so the model keeps no dirty state.

use crate::address::Addr;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line was present.
    Hit,
    /// Line was absent and has been allocated.
    Miss,
}

impl CacheOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// A way's tag is its line number with this bit set; zero marks an invalid
/// way. Line numbers are below 2^58 with the modeled 64-byte lines
/// (checked by a debug assertion), so the bit never collides.
const VALID: u64 = 1 << 63;

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
}

/// Most ways a set can have: a set's recency order is one nibble per way
/// in a `u64`, and its partial tags one byte per way in a `u128`.
pub const MAX_WAYS: usize = 16;

/// A set-associative cache with LRU replacement.
///
/// ```
/// use oovr_mem::{Addr, SetAssocCache};
///
/// let mut l1 = SetAssocCache::new(128 * 1024, 8, 64);
/// assert!(!l1.access(Addr(0x1000)).is_hit()); // cold miss
/// assert!(l1.access(Addr(0x1020)).is_hit());  // same 64 B line
/// ```
///
/// All per-set state a miss needs lives in small dense arrays (recency
/// order and partial tags take 24 bytes a set), so a probe
/// that misses reads no per-way memory, and a hit beyond the two MRU ways
/// reads one full tag. Only the full tag array is per way (8 bytes a way).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    ways: usize,
    sets: usize,
    line_size: u64,
    /// `log2(line_size)` when the line size is a power of two, else
    /// `u32::MAX`: the per-access line computation is then a shift instead
    /// of a hardware divide by a runtime value.
    line_shift: u32,
    /// `log2(sets)`: a line's bits above its set index start here.
    set_bits: u32,
    /// Per way, set-major: `line | VALID`, or zero when invalid.
    tags: Vec<u64>,
    /// Per set, byte `w` is way `w`'s partial tag: `0x80 | (line >> set_bits
    /// & 0x7F)`, or zero when invalid. A probe compares all of a set's
    /// partial tags at once; only a matching way's full tag is read, and a
    /// probe none matches is a miss without reading any.
    ptags: Vec<u128>,
    /// Per set, its ways from most to least recently used, one nibble
    /// each: nibble 0 is the MRU way, nibble 1 the previous MRU way, nibble
    /// `ways - 1` the LRU victim. A fresh or cleared set lists its ways as
    /// `ways-1, …, 1, 0`, so its fills take way 0, 1, … in turn — invalid
    /// ways always sit at the LRU end in index order. The victim is thus
    /// the lowest-index invalid way, else the least recently used one: the
    /// textbook LRU choice, read from one word.
    order: Vec<u64>,
    /// The MRU way's tag per set, mirrored out of `tags`. The dominant
    /// access — a read re-hitting the MRU line — is answered by comparing
    /// against this dense 8-byte-per-set array alone. Invariant: `mru_tag[s]
    /// == tags[s*ways + (order[s] & 0xF)]` once the set has been filled;
    /// zero (no VALID bit) matches no probe, covering reset and
    /// [`clear`](Self::clear).
    mru_tag: Vec<u64>,
    /// The previous MRU way's tag, or zero when unknown (reset,
    /// [`clear`](Self::clear), direct-mapped eviction), probed when the MRU
    /// tag misses: texture streams interleave texture and depth lines in a
    /// set, and this slot catches the alternation without a set probe.
    /// Soundness invariant: whenever nonzero, `mru2_tag[s] == tags[s*ways +
    /// (order[s] >> 4 & 0xF)]` — a match proves the line is present in that
    /// way.
    mru2_tag: Vec<u64>,
    stats: CacheStats,
}

/// One nibble set in every position.
const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// `0x7F` in every byte.
const LOW7: u128 = u128::MAX / 0xFF * 0x7F;

/// The recency order of a fresh set of `ways` ways: `ways-1, …, 1, 0` from
/// MRU to LRU.
fn fresh_order(ways: usize) -> u64 {
    (0..ways).fold(0, |o, k| o | ((ways - 1 - k) as u64) << (4 * k))
}

/// Moves `way` to the front (MRU end) of the recency order `o`, shifting
/// the ways that were more recent back by one.
#[inline]
fn promote(o: u64, way: u64) -> u64 {
    // Lowest nibble of `o` equal to `way`: the lowest zero nibble of
    // `o ^ way…way` (the classic has-zero test is exact for the lowest one).
    let x = o ^ (way * NIBBLES);
    let p = (x.wrapping_sub(NIBBLES) & !x & (NIBBLES << 3)).trailing_zeros() / 4;
    let before = o & ((1u64 << (4 * p)) - 1);
    let through = (2u64 << (4 * p + 3)).wrapping_sub(1);
    (o & !through) | before << 4 | way
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// `line_size`-byte lines. The set count is rounded down to a power of
    /// two (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `ways` exceeds [`MAX_WAYS`], or
    /// capacity is smaller than one way of lines.
    pub fn new(capacity_bytes: u64, ways: usize, line_size: u64) -> Self {
        assert!(
            capacity_bytes > 0 && ways > 0 && line_size > 0,
            "cache parameters must be nonzero"
        );
        assert!(ways <= MAX_WAYS, "at most {MAX_WAYS} ways, got {ways}");
        let lines = capacity_bytes / line_size;
        assert!(lines >= ways as u64, "capacity must hold at least one set");
        let target = (lines / ways as u64).max(1);
        // Round down to a power of two so simple index masking works.
        let set_bits = 63 - target.leading_zeros();
        let sets = 1usize << set_bits;
        let line_shift =
            if line_size.is_power_of_two() { line_size.trailing_zeros() } else { u32::MAX };
        SetAssocCache {
            ways,
            sets,
            line_size,
            line_shift,
            set_bits,
            tags: vec![0; sets * ways],
            ptags: vec![0; sets],
            order: vec![fresh_order(ways); sets],
            mru_tag: vec![0; sets],
            mru2_tag: vec![0; sets],
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Capacity in bytes actually modeled (sets × ways × line).
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_size
    }

    /// Accesses the line containing `addr`, allocating it on a miss.
    ///
    /// Inlined so the dominant case — a read re-hitting the MRU line — folds
    /// into the caller's loop as a compare-and-count with no call overhead;
    /// anything else takes the outlined [`access_slow`](Self::access_slow).
    #[inline(always)]
    pub fn access(&mut self, addr: Addr) -> CacheOutcome {
        self.stats.accesses += 1;
        let line = if self.line_shift != u32::MAX {
            addr.0 >> self.line_shift
        } else {
            addr.0 / self.line_size
        };
        debug_assert!(line < 1 << 58, "line number collides with the valid bit");
        let set = (line as usize) & (self.sets - 1);
        let want = line | VALID;

        // MRU fast path: the way that hit last time in this set, probed via
        // the mirrored `mru_tag` array so a read hit touches nothing else.
        // It is already first in the recency order.
        if self.mru_tag[set] == want {
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        // Second probe: the previously-MRU way, second in the recency
        // order. A hit swaps the first two — exactly what a set probe's hit
        // would have done.
        if self.mru2_tag[set] == want {
            let o = self.order[set];
            let i = o >> 4 & 0xF;
            self.stats.hits += 1;
            self.order[set] = (o & !0xFF) | (o & 0xF) << 4 | i;
            self.mru2_tag[set] = self.mru_tag[set];
            self.mru_tag[set] = want;
            return CacheOutcome::Hit;
        }
        self.access_slow(set, want)
    }

    /// `n` back-to-back accesses of the line containing `addr`, returning
    /// the first one's outcome. Bit-identical to calling
    /// [`access`](Self::access) `n` times in a row: the first access leaves
    /// the line in its set's MRU way (a hit promotes it, a fill installs it
    /// there), so each repeat takes the MRU fast path, which only counts an
    /// access and a hit.
    #[inline]
    pub fn access_n(&mut self, addr: Addr, n: u32) -> CacheOutcome {
        debug_assert!(n > 0, "access_n needs at least one access");
        let out = self.access(addr);
        let repeats = u64::from(n.saturating_sub(1));
        self.stats.accesses += repeats;
        self.stats.hits += repeats;
        out
    }

    /// Reads each line of `lines` in order, then moves the lines that
    /// missed to the front of `lines`, still in order, and returns how many
    /// missed. Exactly one [`access`](Self::access) per line, in the
    /// same order; batching only lets the caller send the misses on to the
    /// next level in one go.
    #[inline]
    pub fn read_lines(&mut self, lines: &mut [Addr]) -> usize {
        let mut missed = 0;
        for i in 0..lines.len() {
            let addr = lines[i];
            if !self.access(addr).is_hit() {
                lines[missed] = addr;
                missed += 1;
            }
        }
        missed
    }

    /// Non-MRU continuation of [`access`](Self::access): set probe, victim
    /// selection, and fill. Outlined to keep the inlined fast path small.
    #[inline(never)]
    fn access_slow(&mut self, set: usize, want: u64) -> CacheOutcome {
        let base = set * self.ways;
        let o = self.order[set];
        let ptags = self.ptags[set];
        let ptag = 0x80 | (want >> self.set_bits & 0x7F) as u8;

        // Bytes of `ptags` equal to `ptag` get their top bit set: a byte is
        // zero after the XOR iff its low seven bits carry nothing into bit 7
        // and bit 7 is clear. Invalid ways (zero) never match, since `ptag`
        // has its top bit set.
        let x = ptags ^ (u128::from(ptag) * (u128::MAX / 0xFF));
        let mut candidates = !(((x & LOW7) + LOW7) | x | LOW7);
        let mut hit = None;
        while candidates != 0 {
            let way = candidates.trailing_zeros() as usize / 8;
            if self.tags[base + way] == want {
                hit = Some(way as u64);
                break;
            }
            candidates &= candidates - 1;
        }
        let (way, outcome) = match hit {
            Some(way) => {
                self.stats.hits += 1;
                (way, CacheOutcome::Hit)
            }
            None => {
                let victim = o >> (4 * (self.ways - 1)) & 0xF;
                let v = victim as usize;
                self.tags[base + v] = want;
                self.ptags[set] = (ptags & !(0xFF << (8 * v))) | u128::from(ptag) << (8 * v);
                (victim, CacheOutcome::Miss)
            }
        };
        // The old MRU way becomes second: still resident, since the victim
        // is last in the order and a set of two or more ways never has its
        // MRU way last. Direct-mapped sets just evicted it: record nothing.
        self.order[set] = promote(o, way);
        self.mru2_tag[set] = if self.ways == 1 { 0 } else { self.mru_tag[set] };
        self.mru_tag[set] = want;
        outcome
    }

    /// Invalidates everything (keeps statistics).
    pub fn clear(&mut self) {
        self.tags.fill(0);
        self.ptags.fill(0);
        self.order.fill(fresh_order(self.ways));
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
        assert!(!c.access(Addr(0)).is_hit());
        assert!(c.access(Addr(0)).is_hit());
        assert!(c.access(Addr(63)).is_hit(), "same line");
        assert!(!c.access(Addr(64)).is_hit(), "next line");
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, force a single set by using addresses that map to set 0.
        let mut c = SetAssocCache::new(2 * 64, 2, 64);
        assert_eq!(c.sets(), 1);
        c.access(Addr(0));
        c.access(Addr(64));
        c.access(Addr(0)); // refresh line 0
        c.access(Addr(128)); // evicts line 1 (LRU)
        assert!(c.access(Addr(0)).is_hit());
        assert!(!c.access(Addr(64)).is_hit());
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = cache_kb(4, 4); // 64 lines
        for round in 0..2 {
            for i in 0..128u64 {
                let out = c.access(Addr(i * 64));
                if round == 0 {
                    assert!(!out.is_hit());
                }
            }
        }
        let s = c.stats();
        assert!(s.hits * 10 < s.accesses, "thrash: {} hits of {}", s.hits, s.accesses);
    }

    #[test]
    fn working_set_smaller_than_capacity_hits() {
        let mut c = cache_kb(4, 4);
        for _ in 0..4 {
            for i in 0..32u64 {
                c.access(Addr(i * 64));
            }
        }
        let s = c.stats();
        assert!(s.hits * 10 > s.accesses * 7, "{} hits of {}", s.hits, s.accesses);
    }

    #[test]
    fn clear_invalidates() {
        let mut c = cache_kb(4, 2);
        c.access(Addr(0));
        c.clear();
        assert!(!c.access(Addr(0)).is_hit());
    }
}
