//! # oovr-frameworks
//!
//! The parallel rendering schemes the OO-VR paper characterizes in §4 on the
//! NUMA-based multi-GPU system, plus the baseline single-programming-model
//! execution of §2.3:
//!
//! * [`Baseline`] — the whole system acts as one big GPU: work is launched
//!   sequentially and distributed to GPMs without locality-aware scheduling
//!   (fine-grained round-robin), framebuffer pages interleaved. This is the
//!   normalization point of every figure.
//! * [`Afr`] — Alternate Frame Rendering (§4.1, Fig. 6a): each GPM renders
//!   whole frames out of its own replicated memory space.
//! * [`TileSfr`] — tile-level Split Frame Rendering (§4.2, Fig. 6b/6c) with
//!   vertical or horizontal strips.
//! * [`ObjectSfr`] — object-level SFR / sort-last (§4.3, Fig. 6d): objects
//!   round-robin across GPMs, master-node composition.
//!
//! The OO-VR schemes themselves (OO_APP and the full co-design) live in the
//! `oovr` crate; they implement the same [`RenderScheme`] trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afr;
pub mod atw;
pub mod baseline;
pub mod object_sfr;
pub mod scheduling;
pub mod sequence;
pub mod sort_middle;
pub mod tile_sfr;
pub mod traits;

pub use afr::Afr;
pub use atw::AtwStats;
pub use baseline::Baseline;
pub use object_sfr::ObjectSfr;
pub use scheduling::{run_interleaved, Lanes, Lot, LotDone};
pub use sequence::{render_sequence, SequenceReport};
pub use sort_middle::SortMiddle;
pub use tile_sfr::{Orientation, TileSfr};
pub use traits::RenderScheme;
