//! Byte addresses, cache lines, pages, and a bump allocator.

use std::fmt;

/// Cache line size in bytes (64 B, standard for GPU memory hierarchies).
pub const LINE_SIZE: u64 = 64;

/// Page size in bytes (4 KiB, the granularity of NUMA placement).
pub const PAGE_SIZE: u64 = 4096;

/// A byte address in the unified multi-GPM address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache-line index containing this address.
    pub fn line(self) -> u64 {
        self.0 / LINE_SIZE
    }

    /// The page index containing this address.
    pub fn page(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Address of the start of this address's cache line.
    pub fn line_base(self) -> Addr {
        Addr(self.0 & !(LINE_SIZE - 1))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A contiguous allocation in the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl Region {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Whether the region contains `addr`.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base && addr.0 < self.end()
    }

    /// Address at byte `offset` into the region.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `offset` exceeds the region size.
    pub fn at(&self, offset: u64) -> Addr {
        debug_assert!(offset < self.size, "offset {offset} out of region of size {}", self.size);
        Addr(self.base + offset)
    }

    /// Iterator over the page indices the region spans.
    pub fn pages(&self) -> impl Iterator<Item = u64> {
        let first = self.base / PAGE_SIZE;
        let last = (self.end().saturating_sub(1)) / PAGE_SIZE;
        first..=last
    }
}

/// Page-aligned bump allocator for the unified address space.
///
/// The graphics driver pre-allocates framebuffer and texture data before
/// rendering (§2.2); this allocator hands out those regions. Allocations are
/// page-aligned so placement decisions never split an allocation's line
/// across homes within one page.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// Creates an empty address space starting at address 0.
    pub fn new() -> Self {
        AddressSpace { next: 0 }
    }

    /// Allocates `size` bytes, page aligned. Zero-sized allocations consume
    /// one page so that every region has a distinct base.
    pub fn alloc(&mut self, size: u64) -> Region {
        let base = self.next;
        let padded = size.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.next += padded;
        Region { base, size: size.max(1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_math() {
        let a = Addr(PAGE_SIZE + LINE_SIZE + 3);
        assert_eq!(a.page(), 1);
        assert_eq!(a.line(), (PAGE_SIZE + LINE_SIZE) / LINE_SIZE);
        assert_eq!(a.line_base(), Addr(PAGE_SIZE + LINE_SIZE));
    }

    #[test]
    fn allocator_is_page_aligned_and_disjoint() {
        let mut space = AddressSpace::new();
        let a = space.alloc(100);
        let b = space.alloc(PAGE_SIZE * 2 + 1);
        assert_eq!(a.base % PAGE_SIZE, 0);
        assert_eq!(b.base % PAGE_SIZE, 0);
        assert!(a.end() <= b.base);
        assert_eq!(b.pages().count(), 3);
    }

    #[test]
    fn region_contains_and_at() {
        let r = Region { base: 4096, size: 128 };
        assert!(r.contains(Addr(4096)));
        assert!(r.contains(Addr(4223)));
        assert!(!r.contains(Addr(4224)));
        assert_eq!(r.at(64), Addr(4160));
    }

    #[test]
    fn zero_sized_alloc_still_distinct() {
        let mut space = AddressSpace::new();
        let a = space.alloc(0);
        let b = space.alloc(0);
        assert_ne!(a.base, b.base);
    }
}
