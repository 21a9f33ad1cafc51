//! # oovr-mem
//!
//! The NUMA memory substrate of the OO-VR reproduction: a functional +
//! timing model of the multi-GPM memory system described in §2.3 and Table 2
//! of the paper (Xie et al., ISCA 2019).
//!
//! Components:
//!
//! * [`address`] — byte addresses, 64 B cache lines, 4 KiB pages, and a bump
//!   allocator for scene resources (vertex buffers, textures, framebuffer).
//! * [`placement`] — the NUMA page table with First-Touch (the baseline's
//!   policy, after Arunkumar et al. \[5\]), interleaved, fixed and
//!   replicated placement, plus explicit migration used by OO-VR's
//!   pre-allocation (PA) units.
//! * [`cache`] — set-associative L1/L2 models with LRU replacement;
//!   remote lines are L2-cacheable (the baseline's remote cache).
//! * [`timing`] — bandwidth servers: local DRAM at 1 TB/s and pairwise
//!   NVLinks at 64 GB/s (Table 2), with FIFO queueing.
//! * [`system`] — [`MemorySystem`]: the per-GPM cache hierarchies glued to
//!   the page table, producing a [`stats::Traffic`] ledger that the
//!   simulator's executor converts into time.
//!
//! The split between *functional* probing and *timed* transfer is
//! deliberate: cache hit/miss behaviour is computed per cache line, while
//! bandwidth contention is applied per work-quantum by the discrete-event
//! executor in `oovr-gpu`, which keeps multi-million-fragment frames fast to
//! simulate without losing the local-vs-remote bandwidth asymmetry that
//! drives every result in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod cache;
pub mod error;
pub mod placement;
pub mod stats;
pub mod system;
pub mod timing;

pub use address::{Addr, Region, LINE_SIZE, PAGE_SIZE};
pub use cache::SetAssocCache;
pub use error::MemError;
pub use placement::{GpmId, PageTable, Placement};
pub use stats::{LinkMatrix, Traffic, TrafficClass};
pub use system::{AccessLevel, MemConfig, MemorySystem};
pub use timing::{BandwidthServer, Cycle, NumaTiming, RateSchedule};
