//! Host-time split of the executor by kernel stage, for profiling the
//! simulator itself.
//!
//! With the `stage-spans` cargo feature the executor charges its host time
//! to five stages: the raster walk (with triangle setup), the texel-line
//! probes, the depth test with its colour and Z writes, the fabric `apply`
//! of each quantum, and everything else (geometry, the distribution engine,
//! bookkeeping). Without the feature (the default) every span compiles to
//! nothing.
//!
//! A clock read costs about as much as a stage of one quad, so timing
//! every quad would mostly time the clock. Instead the coarse boundaries
//! (a fragment quantum's quad loop, each fabric `apply`) chain: the clock
//! is read once per boundary and the time since the previous one goes to
//! the stage that just ended, so those totals partition the thread's time
//! between [`reset`] and [`take`]. Inside the quad loop, one quad in
//! [`SAMPLE_EVERY`] times its texel and depth/colour sections; each sample,
//! less the cost of an empty span measured at [`reset`], is scaled by
//! `SAMPLE_EVERY`, and [`take`] moves those estimates out of the quad
//! loop's total, leaving the raster walk as the rest.

/// One stage of the render kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The quad loop: triangle setup and the rasterizer's walk, once
    /// [`take`] has moved the sampled texel and depth/colour estimates out.
    Raster = 0,
    /// Texel addressing and the batched texel-line probe.
    Texel = 1,
    /// Z read, quad depth test, colour writes and the Z write.
    DepthColour = 2,
    /// `NumaTiming::apply` of each quantum's traffic.
    Fabric = 3,
    /// Everything else.
    Other = 4,
}

/// One quad in this many is timed inside the quad loop.
pub const SAMPLE_EVERY: u32 = 64;

/// Host nanoseconds per [`Stage`], indexed by `Stage as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSplit {
    /// Nanoseconds charged to each stage.
    pub ns: [u64; 5],
}

/// Ends the current coarse span: charges the time since the last boundary
/// to `stage`. A no-op unless the `stage-spans` feature is on.
#[inline(always)]
pub(crate) fn lap(stage: Stage) {
    #[cfg(feature = "stage-spans")]
    clock::lap(stage);
    #[cfg(not(feature = "stage-spans"))]
    let _ = stage;
}

/// Starts a quad inside the quad loop; every [`SAMPLE_EVERY`]th one is
/// timed through the returned probe.
#[cfg(feature = "stage-spans")]
#[inline(always)]
pub(crate) fn quad() -> QuadProbe {
    QuadProbe(clock::sample())
}

/// Starts a quad (nothing is timed without the `stage-spans` feature).
#[cfg(not(feature = "stage-spans"))]
#[inline(always)]
pub(crate) fn quad() -> QuadProbe {
    QuadProbe()
}

/// The timing state of one quad (zero-sized without the feature).
pub(crate) struct QuadProbe(#[cfg(feature = "stage-spans")] Option<std::time::Instant>);

impl QuadProbe {
    /// Ends the quad's `stage` section (`Texel` or `DepthColour`).
    #[inline(always)]
    pub(crate) fn mark(&mut self, stage: Stage) {
        #[cfg(feature = "stage-spans")]
        if let Some(start) = self.0 {
            self.0 = Some(clock::charge_sample(stage, start));
        }
        #[cfg(not(feature = "stage-spans"))]
        let _ = stage;
    }
}

#[cfg(feature = "stage-spans")]
pub use clock::{reset, take};

#[cfg(feature = "stage-spans")]
mod clock {
    use std::cell::Cell;
    use std::time::Instant;

    use super::{Stage, StageSplit, SAMPLE_EVERY};

    thread_local! {
        static LAST: Cell<Option<Instant>> = const { Cell::new(None) };
        static SPLIT: Cell<StageSplit> = const { Cell::new(StageSplit { ns: [0; 5] }) };
        /// Scaled sampled nanoseconds of the texel and depth/colour stages.
        static SAMPLED: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
        static QUADS: Cell<u32> = const { Cell::new(0) };
        /// Nanoseconds of an empty span: two back-to-back clock reads.
        static EMPTY_NS: Cell<u64> = const { Cell::new(0) };
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

    #[inline(always)]
    pub(super) fn sample() -> Option<Instant> {
        let n = QUADS.get();
        QUADS.set(n.wrapping_add(1));
        n.is_multiple_of(SAMPLE_EVERY).then(Instant::now)
    }

    pub(super) fn charge_sample(stage: Stage, start: Instant) -> Instant {
        let now = Instant::now();
        let ns = ((now - start).as_nanos() as u64).saturating_sub(EMPTY_NS.get());
        let mut sampled = SAMPLED.get();
        sampled[stage as usize - Stage::Texel as usize] += ns * u64::from(SAMPLE_EVERY);
        SAMPLED.set(sampled);
        now
    }

    /// Zeroes this thread's split, measures the cost of an empty span (the
    /// median of many back-to-back clock read pairs) and starts the clock.
    pub fn reset() {
        let mut empty: Vec<u64> = (0..1001)
            .map(|_| {
                let t = Instant::now();
                (Instant::now() - t).as_nanos() as u64
            })
            .collect();
        empty.sort_unstable();
        EMPTY_NS.set(empty[empty.len() / 2]);
        SPLIT.set(StageSplit::default());
        SAMPLED.set([0; 2]);
        QUADS.set(0);
        LAST.set(Some(Instant::now()));
    }

    /// Charges the time since the last boundary to [`Stage::Other`], moves
    /// the sampled texel and depth/colour estimates out of the quad loop's
    /// total, and returns this thread's split since [`reset`].
    pub fn take() -> StageSplit {
        lap(Stage::Other);
        let mut split = SPLIT.replace(StageSplit::default());
        let [texel, depth_colour] = SAMPLED.replace([0; 2]);
        let raster = split.ns[Stage::Raster as usize];
        split.ns[Stage::Texel as usize] = texel.min(raster);
        split.ns[Stage::DepthColour as usize] = depth_colour.min(raster - texel.min(raster));
        split.ns[Stage::Raster as usize] = raster - split.ns[1] - split.ns[2];
        split
    }
}
