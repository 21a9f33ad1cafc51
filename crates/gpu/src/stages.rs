//! Host-time split of the executor by kernel stage, for profiling the
//! simulator itself.
//!
//! With the `stage-spans` cargo feature the executor charges its host time
//! to three stages: the fragment quantum's quad loop (triangle setup, the
//! raster walk, texel probes, the depth test and colour writes), the fabric
//! `apply` of each quantum, and everything else (geometry, the distribution
//! engine, bookkeeping). Without the feature (the default) every span
//! compiles to nothing.
//!
//! The boundaries chain: the clock is read once per boundary and the time
//! since the previous one goes to the stage that just ended, so the totals
//! partition the thread's time between [`reset`] and [`take`]. The split
//! stops at the quad loop: a clock read costs about as much as one quad's
//! work and drains the pipeline, so timing sections inside the loop would
//! overstate them. Use a sampling profiler for the split inside it.

/// One stage of the render kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A fragment quantum's quad loop: triangle setup, the raster walk,
    /// texel probes, the depth test and colour writes.
    QuadLoop = 0,
    /// `NumaTiming::apply` of each quantum's traffic.
    Fabric = 1,
    /// Everything else.
    Other = 2,
}

/// Host nanoseconds per [`Stage`], indexed by `Stage as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSplit {
    /// Nanoseconds charged to each stage.
    pub ns: [u64; 3],
}

/// Ends the current span: charges the time since the last boundary to
/// `stage`. A no-op unless the `stage-spans` feature is on.
#[inline(always)]
pub(crate) fn lap(stage: Stage) {
    #[cfg(feature = "stage-spans")]
    clock::lap(stage);
    #[cfg(not(feature = "stage-spans"))]
    let _ = stage;
}

#[cfg(feature = "stage-spans")]
pub use clock::{reset, take};

#[cfg(feature = "stage-spans")]
mod clock {
    use std::cell::Cell;
    use std::time::Instant;

    use super::{Stage, StageSplit};

    thread_local! {
        static LAST: Cell<Option<Instant>> = const { Cell::new(None) };
        static SPLIT: Cell<StageSplit> = const { Cell::new(StageSplit { ns: [0; 3] }) };
    }

    pub(super) fn lap(stage: Stage) {
        let now = Instant::now();
        if let Some(last) = LAST.get() {
            let mut split = SPLIT.get();
            split.ns[stage as usize] += (now - last).as_nanos() as u64;
            SPLIT.set(split);
        }
        LAST.set(Some(now));
    }

    /// Zeroes this thread's split and starts the clock.
    pub fn reset() {
        SPLIT.set(StageSplit::default());
        LAST.set(Some(Instant::now()));
    }

    /// Charges the time since the last boundary to [`Stage::Other`] and
    /// returns this thread's split since [`reset`].
    pub fn take() -> StageSplit {
        lap(Stage::Other);
        SPLIT.replace(StageSplit::default())
    }
}
