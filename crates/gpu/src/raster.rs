//! Quad-granularity tiled rasterization.
//!
//! The raster engine walks a triangle's bounding box in 2×2 pixel quads (the
//! granularity real GPUs shade and sample at), emitting covered quads with
//! interpolated texel coordinates. Triangles are clipped to an optional
//! screen rectangle (tile schemes, per-eye SMP clipping).
//!
//! # Tiled walk
//!
//! [`rasterize`] classifies 8×8-pixel tiles before touching their pixels.
//! The three edge functions are affine in the sample point (the bilinear
//! terms of the cross products cancel), so evaluating them at a tile's four
//! corner sample points bounds them over every sample point inside: a tile
//! whose corners are all strictly outside one edge is **trivially rejected**
//! (no per-pixel work), and a tile strictly inside all three is **trivially
//! accepted** (full 2×2 quads, no per-pixel edge or bounds tests). Corner
//! tests run in `f64` against a conservative margin covering both the `f64`
//! corner rounding and the worst-case `f32` rounding of the per-pixel test,
//! so a classification never contradicts what [`TriSampler::sample`] would
//! decide — borderline tiles simply fall back to the per-pixel **partial**
//! walk. Emission therefore stays bit-identical to the retained per-pixel
//! reference [`rasterize_scalar`] (quad order, masks, and UV bits), which
//! `tests/prop_differential.rs` holds over arbitrary triangles and clips.
//!
//! Coordinates are assumed to be screen-scale (|v| ≲ 1e6 pixels, true by
//! construction for every scene this simulator builds): the margin analysis
//! models `f32` rounding, not overflow of the edge products.

use std::sync::atomic::{AtomicU64, Ordering};

use oovr_scene::{Rect, ScreenTriangle, TriSampler, Vec2};

/// Tile edge length in pixels (4×4 quads).
const TILE: u32 = 8;

/// Minimum walk-rect span (either axis, in pixels) for the tiled path.
/// Below this the classifier setup costs more than the per-pixel tests it
/// could skip, so [`rasterize`] bails to the per-pixel walk.
const MIN_TILED_SPAN: u32 = 16;

/// Widest frame (in tile columns) the tiled walk handles with its stack
/// buffer; wider frames fall back to the per-pixel walk.
const MAX_TILE_COLS: usize = 1024;

static TILES_ACCEPTED: AtomicU64 = AtomicU64::new(0);
static TILES_REJECTED: AtomicU64 = AtomicU64::new(0);
static TILES_PARTIAL: AtomicU64 = AtomicU64::new(0);

/// Process-wide tile-classification counters (diagnostics only; no
/// simulated state reads them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterTileStats {
    /// Tiles fully covered: emitted as whole quads with no per-pixel tests.
    pub accepted: u64,
    /// Tiles fully outside: skipped with no per-pixel work.
    pub rejected: u64,
    /// Tiles crossed by an edge (or clipped): walked per pixel.
    pub partial: u64,
}

/// Current process-wide raster tile counters.
pub fn raster_tile_stats() -> RasterTileStats {
    RasterTileStats {
        accepted: TILES_ACCEPTED.load(Ordering::Relaxed),
        rejected: TILES_REJECTED.load(Ordering::Relaxed),
        partial: TILES_PARTIAL.load(Ordering::Relaxed),
    }
}

/// A shaded 2×2 quad of fragments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadFragment {
    /// X of the quad's top-left pixel (even).
    pub x: u32,
    /// Y of the quad's top-left pixel (even).
    pub y: u32,
    /// Coverage mask: bit 0 = (x,y), bit 1 = (x+1,y), bit 2 = (x,y+1),
    /// bit 3 = (x+1,y+1).
    pub mask: u8,
    /// Texel coordinates at the quad centroid (mean of covered samples).
    pub uv: Vec2,
    /// Depth of the quad (constant per triangle in this model).
    pub z: f32,
}

impl QuadFragment {
    /// Number of covered fragments in the quad (1–4).
    pub fn coverage(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Pixel bounds of the walk after bbox clamping and clipping:
/// `[x0, x1) × [y0, y1)` are the sampled pixels, `(qx0, qy0)` the even quad
/// origin. `None` when the clipped bounds are empty.
fn walk_bounds(
    tri: &ScreenTriangle,
    clip: Option<&Rect>,
    frame_w: u32,
    frame_h: u32,
) -> Option<(u32, u32, u32, u32, u32, u32)> {
    let (mut x0, mut y0, mut x1, mut y1) = tri.bounds_clamped(frame_w, frame_h);
    if let Some(c) = clip {
        x0 = x0.max(c.x.floor().max(0.0) as u32);
        y0 = y0.max(c.y.floor().max(0.0) as u32);
        x1 = x1.min(c.x1().ceil().max(0.0) as u32);
        y1 = y1.min(c.y1().ceil().max(0.0) as u32);
    }
    if x0 >= x1 || y0 >= y1 {
        return None;
    }
    Some((x0, y0, x1, y1, x0 & !1, y0 & !1))
}

/// One 2×2 quad of the per-pixel walk: samples each in-bounds pixel and
/// emits the covered mask. This is the reference emission; the tiled walk's
/// accepted tiles must (and provably do) produce the same bits.
#[inline]
fn emit_quad_scalar(
    sampler: &TriSampler<'_>,
    z: f32,
    x: u32,
    y: u32,
    bounds: (u32, u32, u32, u32),
    quads: &mut u64,
    sink: &mut impl FnMut(QuadFragment),
) {
    let (x0, y0, x1, y1) = bounds;
    let mut mask = 0u8;
    let mut usum = 0.0f32;
    let mut vsum = 0.0f32;
    let mut n = 0u32;
    for i in 0..4u32 {
        let px = x + (i & 1);
        let py = y + (i >> 1);
        if px < x0 || px >= x1 || py < y0 || py >= y1 {
            continue;
        }
        if let Some(uv) = sampler.sample(px, py) {
            mask |= 1 << i;
            usum += uv.x;
            vsum += uv.y;
            n += 1;
        }
    }
    if mask != 0 {
        *quads += 1;
        sink(QuadFragment { x, y, mask, uv: Vec2::new(usum / n as f32, vsum / n as f32), z });
    }
}

/// Per-pixel reference rasterizer: the pre-tiling walk, kept as the scalar
/// model the tiled [`rasterize`] is differentially tested against. It is a
/// thin wrapper over `scalar_walk`, the same walk `rasterize` calls
/// directly for small triangles and for frames wider than the tiled walk's
/// stack buffer; nothing in the simulator calls this wrapper.
pub fn rasterize_scalar(
    tri: &ScreenTriangle,
    clip: Option<&Rect>,
    frame_w: u32,
    frame_h: u32,
    mut sink: impl FnMut(QuadFragment),
) -> u64 {
    let Some((x0, y0, x1, y1, qx0, qy0)) = walk_bounds(tri, clip, frame_w, frame_h) else {
        return 0;
    };
    let sampler = tri.sampler();
    scalar_walk(&sampler, tri.z, (x0, y0, x1, y1), qx0, qy0, &mut sink)
}

/// Shared inner walk of [`rasterize_scalar`]: quad-steps the walk rect with
/// per-pixel coverage tests. Takes an already-built sampler and bounds so
/// [`rasterize`]'s bail-outs (small or over-wide triangles) reuse theirs
/// instead of redoing `walk_bounds` + sampler setup per triangle.
fn scalar_walk(
    sampler: &TriSampler<'_>,
    z: f32,
    bounds: (u32, u32, u32, u32),
    qx0: u32,
    qy0: u32,
    sink: &mut impl FnMut(QuadFragment),
) -> u64 {
    let (_, _, x1, y1) = bounds;
    let mut quads = 0;
    let mut y = qy0;
    while y < y1 {
        let mut x = qx0;
        while x < x1 {
            emit_quad_scalar(sampler, z, x, y, bounds, &mut quads, sink);
            x += 2;
        }
        y += 2;
    }
    quads
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileClass {
    Reject,
    Accept,
    Partial,
}

/// Conservative `f64` tile classifier over the triangle's edge functions.
///
/// The per-pixel test decides coverage from the **`f32`-computed** edge
/// numerators `n0`, `n1` and from `w2 = 1 - n0/d - n1/d`; the classifier
/// must never contradict it. Each edge function is exactly affine in the
/// sample point, so its real value over a tile is bounded by its values at
/// the four corner sample points. Corner values are computed in `f64`
/// (error ~2⁻⁵³ relative, absorbed by the margin) and compared against `MARGIN_EPS ×
/// (magnitude bound of the f32 intermediates)`, which over-bounds the
/// accumulated `f32` rounding (≲ 8 ε₃₂ relative) of the per-pixel
/// evaluation with a 4× safety factor. A tile classifies as
/// `Reject`/`Accept` only when every corner clears the margin; anything
/// within it stays `Partial` and is decided per pixel.
///
/// The margins are hoisted: magnitude bounds are taken once over the whole
/// walk rect (not per tile), so the per-tile work is four shared corner
/// evaluations and a handful of min/max/compares. Rect-wide margins are
/// larger than per-tile ones, but only by the rect/tile magnitude ratio —
/// sub-pixel in the demotion band they induce — and demotion is always
/// sound (a `Partial` tile is decided exactly, per pixel).
struct TileClassifier {
    ax: f64,
    ay: f64,
    bx: f64,
    by: f64,
    cx: f64,
    cy: f64,
    d: f64,
    /// +1 for counter-clockwise winding, −1 for clockwise: `s·nᵢ ≥ 0` is
    /// then the inside test for every edge, matching the sign dance in
    /// [`TriSampler::sample`].
    s: f64,
    /// Margin for edge 0 (`n0`), valid over the whole walk rect.
    e0: f64,
    /// Margin for edge 1 (`n1`).
    e1: f64,
    /// Margin for the third test (`w2`, scaled back by `|d|`).
    e2: f64,
}

/// Margin per unit of magnitude bound: 32 ε₃₂ against a worst-case
/// per-pixel `f32` error of ≲ 8 ε₃₂ relative to the same bound.
const MARGIN_EPS: f64 = 32.0 * (f32::EPSILON as f64);

/// One classified corner: `(s·n0, s·n1, s·n2)` at a corner sample point.
type Corner = (f64, f64, f64);

impl TileClassifier {
    /// Builds the classifier with margins valid over the walk rect whose
    /// corner sample coordinates span `sx × sy` (each `[lo, hi]`).
    fn new(tri: &ScreenTriangle, ccw: bool, sx: [f64; 2], sy: [f64; 2]) -> Self {
        let [a, b, c] = tri.v;
        let (ax, ay) = (f64::from(a.x), f64::from(a.y));
        let (bx, by) = (f64::from(b.x), f64::from(b.y));
        let (cx, cy) = (f64::from(c.x), f64::from(c.y));
        let d = f64::from(tri.double_area());
        // Magnitude bounds of the edge-product factors over the rect (each
        // factor is monotone in one coordinate, so the extremes bound it).
        let mag = |v: f64, lohi: [f64; 2]| (v - lohi[0]).abs().max((v - lohi[1]).abs());
        let m_ax = mag(ax, sx);
        let m_ay = mag(ay, sy);
        let m_bx = mag(bx, sx);
        let m_by = mag(by, sy);
        let m_cx = mag(cx, sx);
        let m_cy = mag(cy, sy);
        let e0 = MARGIN_EPS * (m_bx * m_cy + m_cx * m_by);
        let e1 = MARGIN_EPS * (m_cx * m_ay + m_ax * m_cy);
        // w2's test divides by d, so its margin carries the n0/n1 errors
        // plus the division/subtraction rounding scaled back by |d|. The
        // same products that bound the errors also bound |n0| and |n1|
        // themselves (`|n0| ≤ e0 / MARGIN_EPS`), folding the bound to
        // `2(e0 + e1) + MARGIN_EPS·|d|`.
        let e2 = 2.0 * (e0 + e1) + MARGIN_EPS * d.abs();
        TileClassifier { ax, ay, bx, by, cx, cy, d, s: if ccw { 1.0 } else { -1.0 }, e0, e1, e2 }
    }

    /// Evaluates the three signed edge functions at one corner sample
    /// point. Corners are shared: a tile's right pair is its neighbor's
    /// left pair, so the band loop evaluates each corner once.
    #[inline]
    fn corner(&self, x: f64, y: f64) -> Corner {
        let n0 = (self.bx - x) * (self.cy - y) - (self.cx - x) * (self.by - y);
        let n1 = (self.cx - x) * (self.ay - y) - (self.ax - x) * (self.cy - y);
        let n2 = self.d - n0 - n1;
        (self.s * n0, self.s * n1, self.s * n2)
    }

    /// Classifies the tile spanned by corner pairs `l` (left, top/bottom)
    /// and `r` (right, top/bottom).
    #[inline]
    fn classify(&self, l: [Corner; 2], r: [Corner; 2]) -> TileClass {
        let max0 = l[0].0.max(l[1].0).max(r[0].0).max(r[1].0);
        let max1 = l[0].1.max(l[1].1).max(r[0].1).max(r[1].1);
        let max2 = l[0].2.max(l[1].2).max(r[0].2).max(r[1].2);
        if max0 < -self.e0 || max1 < -self.e1 || max2 < -self.e2 {
            return TileClass::Reject;
        }
        let min0 = l[0].0.min(l[1].0).min(r[0].0).min(r[1].0);
        let min1 = l[0].1.min(l[1].1).min(r[0].1).min(r[1].1);
        let min2 = l[0].2.min(l[1].2).min(r[0].2).min(r[1].2);
        if min0 > self.e0 && min1 > self.e1 && min2 > self.e2 {
            return TileClass::Accept;
        }
        TileClass::Partial
    }
}

/// Rasterizes `tri` clipped to `clip` (in stereo-frame pixels) over a frame
/// of `frame_w × frame_h`, invoking `sink` for every covered quad.
///
/// Emission (quad order, coverage masks, UV bits) is bit-identical to the
/// per-pixel reference [`rasterize_scalar`]; the tiled walk only changes
/// how much arithmetic decides it (see the [module docs](self)).
///
/// Returns the number of covered quads emitted.
pub fn rasterize(
    tri: &ScreenTriangle,
    clip: Option<&Rect>,
    frame_w: u32,
    frame_h: u32,
    mut sink: impl FnMut(QuadFragment),
) -> u64 {
    let Some((x0, y0, x1, y1, qx0, qy0)) = walk_bounds(tri, clip, frame_w, frame_h) else {
        return 0;
    };
    let sampler = tri.sampler();
    // Degenerate triangles cover no sample; the reference walk would emit
    // nothing after testing every pixel.
    if sampler.is_degenerate() {
        return 0;
    }
    // Small triangles don't amortize even the shared-corner classifier:
    // bail to the per-pixel reference below a one-to-two-tile footprint.
    if x1 - x0 < MIN_TILED_SPAN || y1 - y0 < MIN_TILED_SPAN {
        return scalar_walk(&sampler, tri.z, (x0, y0, x1, y1), qx0, qy0, &mut sink);
    }
    let n_cols = ((x1 - qx0) as usize).div_ceil(TILE as usize);
    if n_cols > MAX_TILE_COLS {
        return scalar_walk(&sampler, tri.z, (x0, y0, x1, y1), qx0, qy0, &mut sink);
    }
    let n_bands = ((y1 - qy0) as usize).div_ceil(TILE as usize);
    // Corner sample coordinates walk the tile grid at pixel multiples of
    // `TILE`. They bracket every in-tile sample point because the f32
    // image of `px + 0.5 + ε` is monotone in `px`; the right/bottom
    // corners of edge tiles overshoot the walk rect by up to a tile, which
    // is sound (corner extremes still bound the contained samples, so the
    // overshoot can only demote) and is what makes corner sharing work.
    let corner_x = |t: usize| f64::from((qx0 + TILE * t as u32) as f32 + 0.5 + 1.0 / 64.0);
    let corner_y = |py: u32| f64::from(py as f32 + 0.5 + 1.0 / 128.0);
    let classifier = TileClassifier::new(
        tri,
        sampler.is_ccw(),
        [corner_x(0), corner_x(n_cols)],
        [corner_y(qy0), corner_y(qy0 + TILE * n_bands as u32)],
    );
    let mut cls = [TileClass::Partial; MAX_TILE_COLS];
    let (mut accepted, mut rejected, mut partial) = (0u64, 0u64, 0u64);
    let mut quads = 0u64;
    let bounds = (x0, y0, x1, y1);
    let mut ty = qy0;
    while ty < y1 {
        let band_y1 = (ty + TILE).min(y1);
        let yt = corner_y(ty);
        let yb = corner_y(ty + TILE);
        let x_left = corner_x(0);
        let mut left = [classifier.corner(x_left, yt), classifier.corner(x_left, yb)];
        for (t, slot) in cls.iter_mut().enumerate().take(n_cols) {
            let xr = corner_x(t + 1);
            let right = [classifier.corner(xr, yt), classifier.corner(xr, yb)];
            let mut c = classifier.classify(left, right);
            left = right;
            let tx0 = qx0 + TILE * t as u32;
            // The accepted fast path emits full 8×8 tiles; a tile truncated
            // by the walk bounds keeps its per-pixel bounds tests.
            if c == TileClass::Accept
                && !(tx0 >= x0 && tx0 + TILE <= x1 && ty >= y0 && ty + TILE <= y1)
            {
                c = TileClass::Partial;
            }
            *slot = c;
            match c {
                TileClass::Accept => accepted += 1,
                TileClass::Reject => rejected += 1,
                TileClass::Partial => partial += 1,
            }
        }
        let mut y = ty;
        while y < band_y1 {
            for (t, &c) in cls.iter().enumerate().take(n_cols) {
                let tx0 = qx0 + TILE * t as u32;
                let tx1 = (tx0 + TILE).min(x1);
                match c {
                    TileClass::Reject => {}
                    TileClass::Accept => {
                        // Every sample in the tile is covered: emit full
                        // quads, accumulating the four UVs in the same
                        // order (and with the same f32 sums) as the
                        // per-pixel walk would.
                        let mut x = tx0;
                        while x < tx1 {
                            let s0 = sampler.sample_covered(x, y);
                            let s1 = sampler.sample_covered(x + 1, y);
                            let s2 = sampler.sample_covered(x, y + 1);
                            let s3 = sampler.sample_covered(x + 1, y + 1);
                            let mut usum = 0.0f32;
                            let mut vsum = 0.0f32;
                            usum += s0.x;
                            vsum += s0.y;
                            usum += s1.x;
                            vsum += s1.y;
                            usum += s2.x;
                            vsum += s2.y;
                            usum += s3.x;
                            vsum += s3.y;
                            quads += 1;
                            sink(QuadFragment {
                                x,
                                y,
                                mask: 0b1111,
                                uv: Vec2::new(usum / 4.0, vsum / 4.0),
                                z: tri.z,
                            });
                            x += 2;
                        }
                    }
                    TileClass::Partial => {
                        let mut x = tx0;
                        while x < tx1 {
                            emit_quad_scalar(&sampler, tri.z, x, y, bounds, &mut quads, &mut sink);
                            x += 2;
                        }
                    }
                }
            }
            y += 2;
        }
        ty += TILE;
    }
    if accepted > 0 {
        TILES_ACCEPTED.fetch_add(accepted, Ordering::Relaxed);
    }
    if rejected > 0 {
        TILES_REJECTED.fetch_add(rejected, Ordering::Relaxed);
    }
    if partial > 0 {
        TILES_PARTIAL.fetch_add(partial, Ordering::Relaxed);
    }
    quads
}

/// Counts the fragments (covered pixels) a triangle produces under a clip —
/// a cheaper call when only counts matter.
pub fn fragment_count(
    tri: &ScreenTriangle,
    clip: Option<&Rect>,
    frame_w: u32,
    frame_h: u32,
) -> u64 {
    let mut frags = 0u64;
    rasterize(tri, clip, frame_w, frame_h, |q| frags += u64::from(q.coverage()));
    frags
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::TextureId;

    fn tri(v: [(f32, f32); 3]) -> ScreenTriangle {
        ScreenTriangle {
            v: [Vec2::new(v[0].0, v[0].1), Vec2::new(v[1].0, v[1].1), Vec2::new(v[2].0, v[2].1)],
            uv: [Vec2::new(0.0, 0.0), Vec2::new(32.0, 0.0), Vec2::new(0.0, 32.0)],
            z: 0.5,
            texture: TextureId(0),
        }
    }

    /// Byte-level emission record for exact tiled-vs-scalar comparison.
    fn emissions(
        t: &ScreenTriangle,
        clip: Option<&Rect>,
        w: u32,
        h: u32,
        tiled: bool,
    ) -> Vec<(u32, u32, u8, u32, u32, u32)> {
        let mut out = Vec::new();
        let sink = |q: QuadFragment| {
            out.push((q.x, q.y, q.mask, q.uv.x.to_bits(), q.uv.y.to_bits(), q.z.to_bits()));
        };
        if tiled {
            rasterize(t, clip, w, h, sink);
        } else {
            rasterize_scalar(t, clip, w, h, sink);
        }
        out
    }

    fn assert_tiled_matches_scalar(t: &ScreenTriangle, clip: Option<&Rect>, w: u32, h: u32) {
        assert_eq!(
            emissions(t, clip, w, h, true),
            emissions(t, clip, w, h, false),
            "tiled emission diverged for {t:?} clip {clip:?}"
        );
    }

    #[test]
    fn right_triangle_covers_half_its_box() {
        let t = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let frags = fragment_count(&t, None, 64, 64);
        // Half of 256 pixels, within rasterization tolerance.
        assert!((100..=156).contains(&frags), "frags = {frags}");
    }

    #[test]
    fn full_square_from_two_triangles_covers_exactly() {
        let a = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let b = tri([(16.0, 0.0), (16.0, 16.0), (0.0, 16.0)]);
        let frags = fragment_count(&a, None, 64, 64) + fragment_count(&b, None, 64, 64);
        assert_eq!(frags, 256, "two triangles tile the 16×16 square");
    }

    #[test]
    fn clip_restricts_coverage() {
        let t = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let clip = Rect::new(0.0, 0.0, 8.0, 16.0);
        let clipped = fragment_count(&t, Some(&clip), 64, 64);
        let full = fragment_count(&t, None, 64, 64);
        assert!(clipped < full);
        assert!(clipped > 0);
    }

    #[test]
    fn disjoint_clip_is_empty() {
        let t = tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]);
        let clip = Rect::new(32.0, 32.0, 8.0, 8.0);
        assert_eq!(fragment_count(&t, Some(&clip), 64, 64), 0);
    }

    #[test]
    fn quads_have_valid_masks_and_pixels() {
        let t = tri([(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]);
        let mut total = 0;
        rasterize(&t, None, 64, 64, |q| {
            assert!(q.mask != 0 && q.mask < 16);
            assert_eq!(q.x % 2, 0);
            assert_eq!(q.y % 2, 0);
            for i in (0..4u32).filter(|i| q.mask & (1 << i) != 0) {
                assert!(q.x + (i & 1) < 8 && q.y + (i >> 1) < 8);
            }
            total += q.coverage();
        });
        assert!(total > 0);
    }

    #[test]
    fn offscreen_triangle_emits_nothing() {
        let t = tri([(100.0, 100.0), (120.0, 100.0), (100.0, 120.0)]);
        assert_eq!(fragment_count(&t, None, 64, 64), 0);
    }

    #[test]
    fn uv_interpolation_increases_along_x() {
        let t = tri([(0.0, 0.0), (32.0, 0.0), (0.0, 32.0)]);
        let mut left_uv = None;
        let mut right_uv = None;
        rasterize(&t, None, 64, 64, |q| {
            if q.x == 0 && q.y == 0 {
                left_uv = Some(q.uv.x);
            }
            if q.x == 16 && q.y == 0 {
                right_uv = Some(q.uv.x);
            }
        });
        assert!(right_uv.unwrap() > left_uv.unwrap());
    }

    #[test]
    fn tiled_matches_scalar_on_assorted_triangles() {
        let cases = [
            tri([(0.0, 0.0), (16.0, 0.0), (0.0, 16.0)]),
            tri([(0.0, 0.0), (64.0, 0.0), (0.0, 64.0)]),
            tri([(-20.0, -20.0), (90.0, 3.0), (5.0, 90.0)]),
            tri([(3.3, 7.7), (3.9, 7.1), (3.5, 8.2)]), // sub-pixel sliver
            tri([(0.0, 0.0), (64.0, 0.1), (0.0, 0.2)]), // thin horizontal
            tri([(10.0, 10.0), (20.0, 20.0), (30.0, 30.0)]), // degenerate
            tri([(5.0, 5.0), (5.0, 60.0), (60.0, 5.0)]), // clockwise
            tri([(31.0, 1.0), (62.5, 61.0), (1.5, 61.5)]),
        ];
        let clips =
            [None, Some(Rect::new(8.0, 8.0, 30.0, 30.0)), Some(Rect::new(3.0, 5.0, 61.0, 59.0))];
        for t in &cases {
            for clip in &clips {
                assert_tiled_matches_scalar(t, clip.as_ref(), 64, 64);
            }
        }
    }

    #[test]
    fn large_triangle_trivially_accepts_interior_tiles() {
        let before = raster_tile_stats();
        let t = tri([(0.0, 0.0), (128.0, 0.0), (0.0, 128.0)]);
        assert_tiled_matches_scalar(&t, None, 128, 128);
        let after = raster_tile_stats();
        assert!(after.accepted > before.accepted, "interior tiles should trivially accept");
        assert!(after.rejected > before.rejected, "outside-the-hypotenuse tiles should reject");
    }
}
