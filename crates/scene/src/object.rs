//! Rendering objects.
//!
//! A [`RenderObject`] corresponds to one draw command in the paper's Table 3
//! accounting: a screen-space rectangle tessellated into a triangle grid,
//! bound to one or more textures. Objects carry everything the paper's
//! schedulers look at: triangle counts (load prediction, Eq. 3), texture
//! usage percentages (TSL, Eq. 1), viewports (tile assignment), and optional
//! dependencies (forced batch merging in §5.1).

use crate::geometry::{Rect, ScreenTriangle, Vec2};
use crate::pose::Pose;
use crate::types::{Eye, ObjectId, Resolution, TextureId, Viewport};
use std::ops::Range;

/// How much of an object's sampling goes to one texture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextureUse {
    /// The texture.
    pub texture: TextureId,
    /// Fraction of the object's fragments sampling this texture, in `(0,1]`.
    /// All shares of an object sum to 1. This is the paper's `Pr(t)`.
    pub share: f32,
}

/// A rendering object (one draw command).
#[derive(Debug, Clone, PartialEq)]
pub struct RenderObject {
    id: ObjectId,
    name: String,
    /// Normalized per-eye rect in `[0,1]²` of the canonical (cyclopean) view.
    rect: Rect,
    /// Depth in `(0,1)`; smaller is nearer the viewer.
    depth: f32,
    /// Stereo disparity in *normalized* units: the horizontal shift between
    /// the two eyes' images of this object.
    disparity: f32,
    /// Triangle grid extent: `cols × rows` quads, 2 triangles each.
    grid: (u32, u32),
    textures: Vec<TextureUse>,
    /// Texels per pixel of texture sampling (level-of-detail proxy; higher
    /// values enlarge the texture footprint like anisotropic filtering does).
    uv_scale: f32,
    /// Swap the U/V axes of the texture mapping. Real meshes are textured in
    /// arbitrary orientations; without this, texture rows would always align
    /// with screen rows and horizontal screen partitions would get
    /// unrealistically disjoint texture footprints.
    uv_transpose: bool,
    depends_on: Option<ObjectId>,
}

impl RenderObject {
    /// The object's identifier (also its programmer-defined submission order).
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Normalized screen rectangle of the canonical view.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Depth in `(0,1)`.
    pub fn depth(&self) -> f32 {
        self.depth
    }

    /// Triangle count of one eye's instance (`cols * rows * 2`).
    pub fn triangle_count(&self) -> u64 {
        u64::from(self.grid.0) * u64::from(self.grid.1) * 2
    }

    /// Unique vertex count of the indexed grid mesh for one eye.
    pub fn vertex_count(&self) -> u64 {
        u64::from(self.grid.0 + 1) * u64::from(self.grid.1 + 1)
    }

    /// Texture usage with shares summing to 1 (the `Pr(t)` of TSL, Eq. 1).
    pub fn textures(&self) -> &[TextureUse] {
        &self.textures
    }

    /// Texels sampled per pixel (anisotropy / level-of-detail proxy).
    pub fn uv_scale(&self) -> f32 {
        self.uv_scale
    }

    /// Whether the texture mapping swaps the U/V axes.
    pub fn uv_transpose(&self) -> bool {
        self.uv_transpose
    }

    /// The object this one must be rendered after, if any.
    pub fn depends_on(&self) -> Option<ObjectId> {
        self.depends_on
    }

    /// Pixel-space viewport of this object's image for `eye` at `res`,
    /// including the stereo disparity shift (left eye shifts left, right eye
    /// right — the `±W/2` shift of the paper's SMP engine, Fig. 5).
    pub fn viewport(&self, res: Resolution, eye: Eye) -> Viewport {
        let eye_w = res.width as f32;
        let eye_h = res.height as f32;
        let shift = eye.disparity_sign() * self.disparity * 0.5 * eye_w * (1.0 - self.depth);
        Viewport::new(
            eye.index() as f32 * eye_w + self.rect.x * eye_w + shift,
            self.rect.y * eye_h,
            self.rect.w * eye_w,
            self.rect.h * eye_h,
        )
    }

    /// Pixel-space bounding rect across *both* eyes at `res` (used by tile
    /// schemes to find which tiles the object overlaps).
    pub fn stereo_bounds(&self, res: Resolution) -> Rect {
        let l = self.viewport(res, Eye::Left);
        let r = self.viewport(res, Eye::Right);
        let x0 = l.x.min(r.x);
        let y0 = l.y.min(r.y);
        let x1 = l.x1().max(r.x1());
        let y1 = l.y1().max(r.y1());
        Rect::new(x0, y0, (x1 - x0).max(0.0), (y1 - y0).max(0.0))
    }

    /// Precomputed reprojection probe of this object's viewport bound at
    /// `res`, detached from the object and measured by the same
    /// [`MotionKernel`] that walks a whole scene. Its
    /// [`motion`](MotionProbe::motion) is the projected-bound motion
    /// (pixels) between two poses: the view-matrix delta applied to the
    /// viewport bound, plus a depth-scaled positional parallax term.
    /// Deterministic f64 — no randomness, no wall clock — so identical pose
    /// pairs always measure identical motion.
    pub fn motion_probe(&self, res: Resolution) -> MotionProbe {
        MotionProbe(MotionKernel::new(std::slice::from_ref(self), res))
    }

    /// Emits the screen-space triangles of this object's `eye` instance.
    ///
    /// The grid mesh is deterministic; triangle `k` (0-based, row-major, two
    /// per cell) is assigned a texture by striping the texture shares across
    /// the triangle index range, so an object with `[("stone", 0.75),
    /// ("moss", 0.25)]` dedicates the first ~75% of its triangles to stone.
    pub fn triangles(&self, res: Resolution, eye: Eye) -> Triangles<'_> {
        Triangles { obj: self, vp: self.viewport(res, eye), next: 0, total: self.triangle_count() }
    }

    /// Like [`triangles`](Self::triangles), but starting at triangle index
    /// `start` (clamped to the mesh size). Used by resumable executors.
    pub fn triangles_from(&self, res: Resolution, eye: Eye, start: u64) -> Triangles<'_> {
        let total = self.triangle_count();
        Triangles { obj: self, vp: self.viewport(res, eye), next: start.min(total), total }
    }

    /// Texture used by triangle `k` of `triangle_count()` (striped by share).
    pub fn texture_for_triangle(&self, k: u64) -> TextureId {
        debug_assert!(!self.textures.is_empty());
        let total = self.triangle_count().max(1);
        let frac = (k as f64 + 0.5) / total as f64;
        let mut acc = 0.0f64;
        for tu in &self.textures {
            acc += f64::from(tu.share);
            if frac <= acc {
                return tu.texture;
            }
        }
        self.textures.last().expect("object has at least one texture").texture
    }
}

/// Iterator over an object's screen-space triangles. See
/// [`RenderObject::triangles`].
#[derive(Debug, Clone)]
pub struct Triangles<'a> {
    obj: &'a RenderObject,
    vp: Viewport,
    next: u64,
    total: u64,
}

impl Triangles<'_> {
    /// Repositions the iterator at triangle index `k` (clamped to the mesh
    /// size). Each triangle is a pure function of its index, so strided
    /// consumers can jump between selected indices instead of generating and
    /// discarding the triangles in between.
    pub fn skip_to(&mut self, k: u64) {
        self.next = k.min(self.total);
    }
}

impl Iterator for Triangles<'_> {
    type Item = ScreenTriangle;

    fn next(&mut self) -> Option<ScreenTriangle> {
        if self.next >= self.total {
            return None;
        }
        let k = self.next;
        self.next += 1;
        let (cols, rows) = self.obj.grid;
        let cell = k / 2;
        let upper = k.is_multiple_of(2);
        let cx = (cell % u64::from(cols)) as f32;
        let cy = (cell / u64::from(cols)) as f32;
        let dx = self.vp.width / cols as f32;
        let dy = self.vp.height / rows as f32;
        let x0 = self.vp.x + cx * dx;
        let y0 = self.vp.y + cy * dy;
        // Texel coordinates: tile the texture across the object at uv_scale
        // texels per pixel, with a common origin so objects sharing a texture
        // touch overlapping texel regions (that shared footprint is exactly
        // what TSL batching exploits).
        let s = self.obj.uv_scale;
        let u0 = (cx * dx) * s;
        let v0 = (cy * dy) * s;
        let swap = |p: Vec2| {
            if self.obj.uv_transpose {
                Vec2::new(p.y, p.x)
            } else {
                p
            }
        };
        let (v, uv) = if upper {
            (
                [Vec2::new(x0, y0), Vec2::new(x0 + dx, y0), Vec2::new(x0, y0 + dy)],
                [
                    swap(Vec2::new(u0, v0)),
                    swap(Vec2::new(u0 + dx * s, v0)),
                    swap(Vec2::new(u0, v0 + dy * s)),
                ],
            )
        } else {
            (
                [Vec2::new(x0 + dx, y0), Vec2::new(x0 + dx, y0 + dy), Vec2::new(x0, y0 + dy)],
                [
                    swap(Vec2::new(u0 + dx * s, v0)),
                    swap(Vec2::new(u0 + dx * s, v0 + dy * s)),
                    swap(Vec2::new(u0, v0 + dy * s)),
                ],
            )
        };
        Some(ScreenTriangle { v, uv, z: self.obj.depth, texture: self.obj.texture_for_triangle(k) })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.total - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Triangles<'_> {}

/// One reprojection probe of an object's viewport bound — see
/// [`RenderObject::motion_probe`]. It is a one-object [`MotionKernel`], so
/// a single probe measures with exactly the arithmetic of the whole-scene
/// walk.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionProbe(MotionKernel);

impl MotionProbe {
    /// Projected-bound motion in pixels between `from` and `to` — see
    /// [`MotionKernel`].
    pub fn motion(&self, from: &Pose, to: &Pose) -> f64 {
        let mut motion = 0.0;
        self.0.for_each_block(&PoseDelta::new(from, to), |_, m| motion = m[0]);
        motion
    }
}

/// The pose-only half of a projected-motion measurement: both view bases,
/// the rotation between them and the head-position shift between two
/// poses. One delta serves every probe of a frame, so a walk over a
/// scene's objects pays the trigonometry and the shift's square root once.
#[derive(Debug, Clone, Copy)]
pub struct PoseDelta {
    /// The poses are equal: every probe measures zero motion.
    still: bool,
    /// View matrix of the old pose.
    from: [[f64; 3]; 3],
    /// View matrix of the new pose.
    to: [[f64; 3]; 3],
    /// `R = R_to·R_fromᵀ`, which carries an old view ray into the new
    /// view: the scene bound and the mask filter read its rows `a, b, c`.
    rotation: [[f64; 3]; 3],
    /// Euclidean head-position shift in meters.
    shift: f64,
}

impl PoseDelta {
    /// The delta that carries view rays from `from` into `to`.
    pub fn new(from: &Pose, to: &Pose) -> Self {
        Self::with_views(from, &from.view_matrix(), to, &to.view_matrix())
    }

    /// [`new`](Self::new) from view matrices the caller already holds:
    /// `from_view` is `from.view_matrix()` and `to_view` is
    /// `to.view_matrix()`. A walk over consecutive poses builds each
    /// pose's matrix once and hands it to two deltas.
    pub fn with_views(
        from: &Pose,
        from_view: &[[f64; 3]; 3],
        to: &Pose,
        to_view: &[[f64; 3]; 3],
    ) -> Self {
        // Bits, not values: a NaN pose's matrix equals itself bit for bit.
        let bits = |m: &[[f64; 3]; 3]| m.map(|row| row.map(f64::to_bits));
        debug_assert_eq!(bits(&from.view_matrix()), bits(from_view), "view of the old pose");
        debug_assert_eq!(bits(&to.view_matrix()), bits(to_view), "view of the new pose");
        let dp = [
            to.position[0] - from.position[0],
            to.position[1] - from.position[1],
            to.position[2] - from.position[2],
        ];
        let (rf, rt) = (from_view, to_view);
        PoseDelta {
            still: from == to,
            from: *rf,
            to: *rt,
            rotation: rt.map(|row| rf.map(|f| row[0] * f[0] + row[1] * f[1] + row[2] * f[2])),
            shift: (dp[0] * dp[0] + dp[1] * dp[1] + dp[2] * dp[2]).sqrt(),
        }
    }
}

/// Projected-bound motion of many objects' viewport bounds, laid out as
/// structure-of-arrays columns so flat loops walk every corner.
///
/// A probe's motion between two poses is the maximum screen displacement
/// of its bound's four corners when their view rays are carried from the
/// old view basis into the new one, plus a positional parallax term
/// scaled by `(1 - depth)`, capped at the viewport diagonal. A corner
/// whose reprojected ray leaves the forward frustum counts as a
/// full-screen move (the object must be re-rendered, not warped). The
/// kernel assumes the canonical 90° symmetric frustum (`tan(fov/2) = 1` on
/// both axes), which is all the motion *metric* needs: it ranks pose
/// deltas, it does not rasterize. Deterministic f64 — identical pose pairs
/// measure bit-identical motions on every host (DESIGN §14 says why each
/// rewrite of the per-corner arithmetic keeps every bit).
///
/// The kernel also keeps a scene bound: its corners binned into a 4×4
/// grid over NDC, one box per occupied cell, and for each probe the cells
/// its corners bin into. [`cells_below`](Self::cells_below) bounds every
/// corner's motion per cell from those boxes alone, so a probe whose cells
/// all pass is proven below a threshold without measuring it (DESIGN §14,
/// "scene bound" and "per-cell bound"). One more box over every corner,
/// tested by [`whole_below`](Self::whole_below), clears most all-reuse
/// deltas at a sixteenth of the grid's arithmetic. Past both bounds,
/// [`for_each_mask_in`](Self::for_each_mask_in) decides each remaining
/// probe's `motion < threshold` by a filter without a division or a
/// square root, and measures only what the filter leaves open (DESIGN
/// §14, "mask filter").
#[derive(Debug, Clone, PartialEq)]
pub struct MotionKernel {
    /// Corner view rays' NDC `x` at `z = 1`, four per probe
    /// (`[probe × 4 + corner]`).
    ray_x: Vec<f64>,
    /// Corner view rays' NDC `y`, laid out like `ray_x`.
    ray_y: Vec<f64>,
    /// Pixel-space corner `x` of each left-eye viewport bound.
    px: Vec<f64>,
    /// Pixel-space corner `y`, laid out like `px`.
    py: Vec<f64>,
    /// Per-probe parallax weight `1 - depth`: nearer objects shift more.
    near: Vec<f64>,
    /// The grid cells each probe's corners bin into, one bit per cell.
    probe_cells: Vec<u16>,
    /// Half the per-eye viewport width in pixels.
    half_width: f64,
    /// Half the per-eye viewport height in pixels.
    half_height: f64,
    /// Viewport diagonal in pixels: the full-screen move motion saturates at.
    diag: f64,
    /// The scene bound's grid of corner boxes.
    grid: Grid<CELLS>,
    /// One box over every corner, with the scene's largest parallax
    /// weight: the coarse bound tested before the grid.
    whole: Grid<1>,
    /// The corners lie within the envelope where the scene bound's slack
    /// covers every rounding error; outside it no delta passes.
    bounded: bool,
}

/// Cells of the scene bound's grid.
const CELLS: usize = MotionKernel::GRID * MotionKernel::GRID;

/// One block's stack scratch for the exact kernel: its corners' rays in
/// the new view, their squared screen displacements and the probes'
/// motions.
struct Scratch {
    view: [[f64; 4 * MotionKernel::BLOCK]; 3],
    dist2: [f64; 4 * MotionKernel::BLOCK],
    motions: [f64; MotionKernel::BLOCK],
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            view: [[0.0; 4 * MotionKernel::BLOCK]; 3],
            dist2: [0.0; 4 * MotionKernel::BLOCK],
            motions: [0.0; MotionKernel::BLOCK],
        }
    }
}

/// One block's stack scratch for the mask filter: its corners' `q` and
/// `D` (DESIGN §14, "mask filter").
struct Corners {
    q: [f64; 4 * MotionKernel::BLOCK],
    d: [f64; 4 * MotionKernel::BLOCK],
}

impl Corners {
    fn new() -> Self {
        Corners { q: [0.0; 4 * MotionKernel::BLOCK], d: [0.0; 4 * MotionKernel::BLOCK] }
    }
}

/// A scene bound as columns over its `N` cells, so one flat loop tests
/// every cell. Cell `row × GRID + col` of the 4×4 grid sits at that index
/// and bit; the whole-scene box is the one cell of a `Grid<1>`. An
/// occupied cell holds the box its corners' NDC rays span, the box's
/// squares and cross product as intervals, and its largest parallax
/// weight; an unoccupied cell holds zeros.
#[derive(Debug, Clone, PartialEq)]
struct Grid<const N: usize> {
    /// Every interval as a pair of columns `[lo, hi]`.
    x: [[f64; N]; 2],
    y: [[f64; N]; 2],
    xx: [[f64; N]; 2],
    yy: [[f64; N]; 2],
    xy: [[f64; N]; 2],
    near: [f64; N],
    /// The cells that hold some corner, one bit each.
    occupied: u16,
}

impl<const N: usize> Grid<N> {
    /// No cell occupied.
    fn empty() -> Self {
        let zeros = [[0.0; N]; 2];
        Grid { x: zeros, y: zeros, xx: zeros, yy: zeros, xy: zeros, near: [0.0; N], occupied: 0 }
    }

    /// Cell `i`'s box grown to cover the corner `(x, y)` of a probe with
    /// parallax weight `near`; the products are filled in by
    /// [`fill_products`](Self::fill_products).
    fn cover(&mut self, i: usize, x: f64, y: f64, near: f64) {
        if self.occupied & 1 << i == 0 {
            self.occupied |= 1 << i;
            [self.x[0][i], self.x[1][i], self.y[0][i], self.y[1][i]] = [x, x, y, y];
            self.near[i] = near;
        } else {
            self.x[0][i] = self.x[0][i].min(x);
            self.x[1][i] = self.x[1][i].max(x);
            self.y[0][i] = self.y[0][i].min(y);
            self.y[1][i] = self.y[1][i].max(y);
            self.near[i] = self.near[i].max(near);
        }
    }

    /// Fills in `x²`, `y²` and `xy` over every cell's box.
    fn fill_products(&mut self) {
        let square = |lo: f64, hi: f64| {
            let (a, b) = (lo * lo, hi * hi);
            [if lo <= 0.0 && hi >= 0.0 { 0.0 } else { a.min(b) }, a.max(b)]
        };
        for i in 0..N {
            let ([x0, x1], [y0, y1]) = ([self.x[0][i], self.x[1][i]], [self.y[0][i], self.y[1][i]]);
            let p = [x0 * y0, x0 * y1, x1 * y0, x1 * y1];
            [self.xx[0][i], self.xx[1][i]] = square(x0, x1);
            [self.yy[0][i], self.yy[1][i]] = square(y0, y1);
            self.xy[0][i] = p.iter().copied().fold(f64::INFINITY, f64::min);
            self.xy[1][i] = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        }
    }
}

/// `k · [lo, hi]` over every cell, as `k` and the columns it multiplies
/// into the product's low and high ends. A NaN `k` makes both ends NaN.
type Scaled<'a, const N: usize> = (f64, &'a [f64; N], &'a [f64; N]);

fn scale<const N: usize>(k: f64, [lo, hi]: &[[f64; N]; 2]) -> Scaled<'_, N> {
    if k < 0.0 {
        (k, hi, lo)
    } else {
        (k, lo, hi)
    }
}

/// The largest magnitude over `c + Σ terms` in cell `i`, each term an
/// interval.
fn magnitude<const N: usize>(c: f64, terms: &[Scaled<'_, N>; 4], i: usize) -> f64 {
    let [lo, hi] = terms.iter().fold([c, c], |[lo, hi], &(k, l, h)| [lo + k * l[i], hi + k * h[i]]);
    (-lo).max(hi)
}

impl MotionKernel {
    /// Probes measured per block: the kernel's stack scratch holds one
    /// block's corner distances and motions.
    pub const BLOCK: usize = 64;

    /// Cells per NDC axis of the scene bound's grid. An 8×8 grid passed
    /// 1–2.5 points more decides but cost 2.8× more per test (DESIGN §14).
    const GRID: usize = 4;

    /// Largest `max(half_width, half_height) · reach²` (pixels, with
    /// `reach` the largest corner `|x|`, `|y|` or 1) at which the scene
    /// bound's slack covers every rounding error (DESIGN §14).
    const ENVELOPE: f64 = (1u64 << 20) as f64;

    /// The kernel over `objects`' left-eye viewport bounds at `res`, one
    /// probe per object in order.
    pub fn new<'a>(objects: impl IntoIterator<Item = &'a RenderObject>, res: Resolution) -> Self {
        let (width, height) = (f64::from(res.width), f64::from(res.height));
        let mut kernel = MotionKernel {
            ray_x: Vec::new(),
            ray_y: Vec::new(),
            px: Vec::new(),
            py: Vec::new(),
            near: Vec::new(),
            probe_cells: Vec::new(),
            half_width: 0.5 * width,
            half_height: 0.5 * height,
            diag: (width * width + height * height).sqrt(),
            grid: Grid::empty(),
            whole: Grid::empty(),
            bounded: true,
        };
        for o in objects {
            let vp = o.viewport(res, Eye::Left);
            let (x0, y0, x1, y1) =
                (f64::from(vp.x), f64::from(vp.y), f64::from(vp.x1()), f64::from(vp.y1()));
            for [px, py] in [[x0, y0], [x1, y0], [x0, y1], [x1, y1]] {
                // Pixel -> NDC -> view-space ray `(x, y, 1)`.
                kernel.ray_x.push(px / width * 2.0 - 1.0);
                kernel.ray_y.push(py / height * 2.0 - 1.0);
                kernel.px.push(px);
                kernel.py.push(py);
            }
            kernel.near.push(1.0 - f64::from(o.depth));
        }
        // Bin each corner by its NDC ray; the disparity shift can carry a
        // corner past ±1, which the clamp puts in an edge cell.
        let bin = |v: f64| {
            (((v + 1.0) * 0.5 * Self::GRID as f64).floor().clamp(0.0, (Self::GRID - 1) as f64))
                as usize
        };
        let mut reach = 1.0f64;
        kernel.probe_cells = vec![0; kernel.near.len()];
        for (i, (&x, &y)) in kernel.ray_x.iter().zip(&kernel.ray_y).enumerate() {
            let cell = bin(y) * Self::GRID + bin(x);
            kernel.grid.cover(cell, x, y, kernel.near[i / 4]);
            kernel.whole.cover(0, x, y, kernel.near[i / 4]);
            kernel.probe_cells[i / 4] |= 1 << cell;
            reach = reach.max(x.abs()).max(y.abs());
        }
        kernel.bounded =
            kernel.half_width.max(kernel.half_height) * reach * reach <= Self::ENVELOPE;
        kernel.grid.fill_products();
        kernel.whole.fill_products();
        kernel
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.near.len()
    }

    /// True if the kernel holds no probe.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty()
    }

    /// The grid cells each probe's four corners bin into, one bit per
    /// cell as in [`cells_below`](Self::cells_below), in probe order.
    pub fn probe_cells(&self) -> &[u16] {
        &self.probe_cells
    }

    /// Every probe index, ordered so that probes with equal
    /// [`probe_cells`](Self::probe_cells) are adjacent and in probe order.
    /// Groups inside the centre columns come first, then those reaching
    /// the left edge column, the right one and both, each split by whether
    /// they reach the top or bottom row. A head turn fails the edge
    /// columns first, and usually one more than the other, so the groups
    /// that fail together tend to be adjacent.
    pub fn probe_order(&self) -> Vec<usize> {
        let cell = |row: usize, col: usize| 1u16 << (row * Self::GRID + col);
        let column = |c: usize| (0..Self::GRID).fold(0, |m, r| m | cell(r, c));
        let row = |r: usize| (0..Self::GRID).fold(0, |m, c| m | cell(r, c));
        let (left, right) = (column(0), column(Self::GRID - 1));
        let outer_rows = row(0) | row(Self::GRID - 1);
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| {
            let m = self.probe_cells[i];
            (m & right != 0, m & left != 0, m & outer_rows != 0, m)
        });
        order
    }

    /// The cells that hold some probe's corner, one bit per cell.
    pub fn occupied_cells(&self) -> u16 {
        self.grid.occupied
    }

    /// Measures every probe's motion under `delta` and hands them out in
    /// probe order, one block of at most [`BLOCK`](Self::BLOCK) at a time:
    /// `each(first, motions)` receives the motions of probes
    /// `first..first + motions.len()`. Allocates nothing.
    pub fn for_each_block(&self, delta: &PoseDelta, mut each: impl FnMut(usize, &[f64])) {
        let mut scratch = Scratch::new();
        for (first, n) in Self::blocks(std::iter::once(0..self.len())) {
            each(first, self.measure(delta, first, n, &mut scratch));
        }
    }

    /// Every probe's reuse mask under `delta` over the probes in `ranges`,
    /// range by range and one block of at most [`BLOCK`](Self::BLOCK) at a
    /// time: `each(first, masks)` receives, for probes `first..first +
    /// masks.len()`, all ones where the probe's
    /// [`for_each_block`](Self::for_each_block) motion is below
    /// `threshold` and zero where it is not. No block spans two ranges.
    ///
    /// The division-free mask filter (whose verdicts
    /// [`certified`](Self::certified) lists) decides each block; a block
    /// in which it leaves some probe open is measured by the exact kernel
    /// instead, so every mask is the one the motion gives. Returns how
    /// many blocks the kernel measured. Allocates nothing.
    pub fn for_each_mask_in(
        &self,
        delta: &PoseDelta,
        threshold: f64,
        ranges: impl IntoIterator<Item = Range<usize>>,
        mut each: impl FnMut(usize, &[u64]),
    ) -> usize {
        let (mut masks, mut corners) = ([0; Self::BLOCK], Corners::new());
        // The kernel's scratch is filled only if a block needs it.
        let mut scratch = None;
        let mut measured = 0;
        for (first, n) in Self::blocks(ranges) {
            let masks = &mut masks[..n];
            if self.certify(delta, threshold, first, masks, &mut corners) != 0 {
                measured += 1;
                let motions =
                    self.measure(delta, first, n, scratch.get_or_insert_with(Scratch::new));
                for (m, &motion) in masks.iter_mut().zip(motions) {
                    *m = u64::from(motion < threshold).wrapping_neg();
                }
            }
            each(first, masks);
        }
        measured
    }

    /// The mask filter's verdict on every probe under `delta`, in probe
    /// order: `Some(true)` where it proves the motion below `threshold`,
    /// `Some(false)` where it proves it at or above, `None` where only
    /// the exact kernel can tell (DESIGN §14, "mask filter").
    /// [`for_each_mask_in`](Self::for_each_mask_in) uses the same test
    /// block by block without allocating.
    pub fn certified(&self, delta: &PoseDelta, threshold: f64) -> Vec<Option<bool>> {
        let mut verdicts = Vec::with_capacity(self.len());
        let (mut masks, mut corners) = ([0; Self::BLOCK], Corners::new());
        for (first, n) in Self::blocks(std::iter::once(0..self.len())) {
            let open = self.certify(delta, threshold, first, &mut masks[..n], &mut corners);
            let known = |i: usize| open >> i & 1 == 0;
            verdicts.extend((0..n).map(|i| known(i).then_some(masks[i] != 0)));
        }
        verdicts
    }

    /// The `(first, len)` blocks of at most [`BLOCK`](Self::BLOCK) probes
    /// that cover `ranges` in order, none spanning two ranges.
    fn blocks(
        ranges: impl IntoIterator<Item = Range<usize>>,
    ) -> impl Iterator<Item = (usize, usize)> {
        ranges.into_iter().flat_map(|r| {
            (r.start..r.end)
                .step_by(Self::BLOCK)
                .map(move |first| (first, Self::BLOCK.min(r.end - first)))
        })
    }

    /// The exact motions of probes `first..first + n` under `delta`, in
    /// `s`'s `motions`.
    fn measure<'s>(
        &self,
        delta: &PoseDelta,
        first: usize,
        n: usize,
        s: &'s mut Scratch,
    ) -> &'s [f64] {
        // A still delta never writes: every motion stays exactly zero.
        if !delta.still {
            let (rf, rt) = (&delta.from, &delta.to);
            let c = 4 * first..4 * (first + n);
            let [vx, vy, vz] = &mut s.view;
            let rays = self.ray_x[c.clone()].iter().zip(&self.ray_y[c.clone()]);
            let out = vx.iter_mut().zip(vy.iter_mut()).zip(vz.iter_mut());
            // Products and sums only, so this pass vectorizes; the
            // divisions below would keep a fused loop scalar.
            for (((nx, ny), nz), (&x, &y)) in out.zip(rays) {
                // View matrices map world->view with orthonormal rows, so
                // the world ray is R_fromᵀ·(x, y, 1) and the new view ray
                // R_to·w. The two products stay separate: fusing them into
                // one matrix would round differently and move every
                // motion's low bits.
                let w0 = rf[0][0] * x + rf[1][0] * y + rf[2][0];
                let w1 = rf[0][1] * x + rf[1][1] * y + rf[2][1];
                let w2 = rf[0][2] * x + rf[1][2] * y + rf[2][2];
                *nx = rt[0][0] * w0 + rt[0][1] * w1 + rt[0][2] * w2;
                *ny = rt[1][0] * w0 + rt[1][1] * w1 + rt[1][2] * w2;
                *nz = rt[2][0] * w0 + rt[2][1] * w1 + rt[2][2] * w2;
            }
            let rays = vx.iter().zip(vy.iter()).zip(vz.iter());
            let pixels = self.px[c.clone()].iter().zip(&self.py[c]);
            for (d2, (((&nx, &ny), &nz), (&px, &py))) in s.dist2.iter_mut().zip(rays.zip(pixels)) {
                let dx = (nx / nz + 1.0) * self.half_width - px;
                let dy = (ny / nz + 1.0) * self.half_height - py;
                // A corner behind the eye is an infinite move, which the
                // diagonal cap below turns into exactly `diag`.
                *d2 = if nz <= 1e-9 { f64::INFINITY } else { dx * dx + dy * dy };
            }
            let probes = s.motions.iter_mut().zip(s.dist2.chunks_exact(4)).zip(&self.near[first..]);
            for ((m, d2), &near) in probes {
                let worst = d2.iter().fold(0.0f64, |a, &b| a.max(b)).sqrt();
                *m = (worst + delta.shift * near * self.half_width).min(self.diag);
            }
        }
        &s.motions[..n]
    }

    /// The mask filter over probes `first..first + masks.len()`: writes
    /// all ones to the mask of each probe it proves below `threshold`
    /// under `delta` and zero to the others, and returns the probes it
    /// could not decide, bit `i` for probe `first + i`. Decided masks are
    /// the ones the exact kernel's motion gives.
    ///
    /// No division and no square root: with `R`'s rows `a, b, c`, a
    /// corner's squared displacement is `q / D²` for `q = (hw·N_x)² +
    /// (hh·N_y)²`, and with `t = threshold − shift·near·hw` a probe is
    /// below if every corner has `D > 0.5`, `t > ε` and `q < ((t −
    /// ε)·D)²`, above if every corner has `D > 0.5` and some `q > ((t +
    /// ε)·D)²`. The slack `ε` covers the kernel's rounding and the
    /// filter's own (DESIGN §14, "mask filter"). A still delta, an
    /// unbounded kernel and a threshold past the diagonal leave every
    /// probe open, and a NaN its own probe.
    fn certify(
        &self,
        delta: &PoseDelta,
        threshold: f64,
        first: usize,
        masks: &mut [u64],
        s: &mut Corners,
    ) -> u64 {
        let n = masks.len();
        let all = u64::MAX >> (Self::BLOCK - n);
        if delta.still || !self.bounded || threshold > self.diag {
            return all;
        }
        let [a, b, c] = &delta.rotation;
        let (hw, hh) = (self.half_width, self.half_height);
        let slack = 1e-6 + 1e-9 * threshold;
        // Every corner's `q` and `D`, in one flat loop of products and sums:
        // the ray `(x, y, 1)` lands at `n = R·(x, y, 1)`, and `N_x = n_x −
        // x·D`, `N_y = n_y − y·D` with `D = n_z`.
        let corners = 4 * first..4 * (first + n);
        let rays = self.ray_x[corners.clone()].iter().zip(&self.ray_y[corners]);
        for ((q, d), (&x, &y)) in s.q.iter_mut().zip(s.d.iter_mut()).zip(rays) {
            let nz = c[0] * x + c[1] * y + c[2];
            let sx = hw * (a[0] * x + a[1] * y + a[2] - x * nz);
            let sy = hh * (b[0] * x + b[1] * y + b[2] - y * nz);
            *q = sx * sx + sy * sy;
            *d = nz;
        }
        // Each probe's verdict over its four corners. A NaN anywhere fails
        // every comparison, which leaves the probe open.
        let corners = s.q.chunks_exact(4).zip(s.d.chunks_exact(4));
        let probes = masks.iter_mut().zip(corners).zip(&self.near[first..]);
        let mut open = 0;
        for (i, ((m, (q, d)), &near)) in probes.enumerate() {
            let t = threshold - delta.shift * near * hw;
            let (lo, hi) = (t - slack, t + slack);
            let (mut front, mut below, mut above) = (true, lo > 0.0, false);
            for (&q, &d) in q.iter().zip(d) {
                let (l, h) = (lo * d, hi * d);
                front &= d > 0.5;
                below &= q < l * l;
                above |= q > h * h;
            }
            *m = u64::from(below).wrapping_neg();
            open |= u64::from(!(front & (below | above))) << i;
        }
        open
    }

    /// True only if every probe's [`for_each_block`](Self::for_each_block)
    /// motion under `delta` is provably below `threshold`: every occupied
    /// cell passes [`cells_below`](Self::cells_below). False says nothing
    /// about any probe.
    pub fn all_below(&self, delta: &PoseDelta, threshold: f64) -> bool {
        self.cells_below(delta, threshold) == self.occupied_cells()
    }

    /// The occupied cells, one bit each, in which every corner's
    /// displacement plus the parallax of every probe with a corner there
    /// is provably below `threshold` under `delta`. A probe whose
    /// [`probe_cells`](Self::probe_cells) all pass measures a
    /// [`for_each_block`](Self::for_each_block) motion below `threshold`;
    /// a failing cell says nothing about its probes.
    ///
    /// Takes O(cells), not O(probes): it bounds the displacement of every
    /// corner in a grid cell by interval arithmetic over the cell's box,
    /// with a slack that covers the kernel's rounding (DESIGN §14).
    pub fn cells_below(&self, delta: &PoseDelta, threshold: f64) -> u16 {
        self.boxes_below(&self.grid, delta, threshold)
    }

    /// True only if every probe's motion under `delta` is provably below
    /// `threshold` by one box over every corner with the scene's largest
    /// parallax weight: the [`cells_below`](Self::cells_below) test on a
    /// single cell. The box holds every cell's box and weight, so in exact
    /// arithmetic it passes only where every cell does; it costs one
    /// cell's arithmetic instead of sixteen. False says nothing about any
    /// probe.
    pub fn whole_below(&self, delta: &PoseDelta, threshold: f64) -> bool {
        self.boxes_below(&self.whole, delta, threshold) == self.whole.occupied
    }

    /// The occupied cells of `g` whose bound passes `threshold` under
    /// `delta`, one bit each (DESIGN §14).
    fn boxes_below<const N: usize>(&self, g: &Grid<N>, delta: &PoseDelta, threshold: f64) -> u16 {
        if delta.still {
            // Every motion is exactly zero.
            return if threshold > 0.0 { g.occupied } else { 0 };
        }
        if !self.bounded {
            return 0;
        }
        // R = R_to·R_fromᵀ carries an old view ray into the new view; its
        // rows are `a`, `b`, `c`.
        let [a, b, c] = delta.rotation;
        // The corner `(x, y, 1)` lands at `n = R·(x, y, 1)`, in front of the
        // eye while `D = n_z > 0`, which is linear in the box.
        let dz = [scale(c[0], &g.x), scale(c[1], &g.y)];
        // The kernel's `(n_x / n_z + 1)·hw − px` is `hw·N_x / D`.
        let nx =
            [scale(a[0] - c[2], &g.x), scale(a[1], &g.y), scale(-c[0], &g.xx), scale(-c[1], &g.xy)];
        let ny =
            [scale(b[0], &g.x), scale(b[1] - c[2], &g.y), scale(-c[0], &g.xy), scale(-c[1], &g.yy)];
        // Every cell is tested, branch-free, so the loop vectorizes.
        let pass: [bool; N] = std::array::from_fn(|i| {
            let d_min = c[2] + dz[0].0 * dz[0].1[i] + dz[1].0 * dz[1].1[i];
            let dx = self.half_width * magnitude(a[2], &nx, i) / d_min;
            let dy = self.half_height * magnitude(b[2], &ny, i) / d_min;
            let bound = (dx * dx + dy * dy).sqrt() + delta.shift * g.near[i] * self.half_width;
            // A NaN pose reaches every interval end, and every comparison
            // with NaN is false.
            (d_min > 0.5) & (bound * (1.0 + 1e-9) + 1e-6 < threshold)
        });
        let mask = pass.iter().enumerate().fold(0, |mask, (i, &p)| mask | u16::from(p) << i);
        mask & g.occupied
    }
}

/// Builder for [`RenderObject`]; obtained from
/// [`SceneBuilder::object`](crate::scene::SceneBuilder::object).
#[derive(Debug)]
pub struct ObjectBuilder {
    pub(crate) id: ObjectId,
    pub(crate) name: String,
    pub(crate) rect: Rect,
    pub(crate) depth: f32,
    pub(crate) disparity: f32,
    pub(crate) grid: (u32, u32),
    pub(crate) textures: Vec<(String, f32)>,
    pub(crate) uv_scale: f32,
    pub(crate) uv_transpose: bool,
    pub(crate) depends_on: Option<ObjectId>,
}

impl ObjectBuilder {
    pub(crate) fn new(id: ObjectId, name: String) -> Self {
        ObjectBuilder {
            id,
            name,
            rect: Rect::new(0.25, 0.25, 0.5, 0.5),
            depth: 0.5,
            disparity: 0.05,
            grid: (4, 4),
            textures: Vec::new(),
            uv_scale: 1.0,
            uv_transpose: false,
            depends_on: None,
        }
    }

    /// Sets the normalized screen rect (`[0,1]²` of one eye's view).
    pub fn rect(&mut self, x: f32, y: f32, w: f32, h: f32) -> &mut Self {
        self.rect = Rect::new(x, y, w, h);
        self
    }

    /// Sets the depth in `(0,1)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `(0,1)`.
    pub fn depth(&mut self, depth: f32) -> &mut Self {
        assert!(depth > 0.0 && depth < 1.0, "depth must be in (0,1)");
        self.depth = depth;
        self
    }

    /// Sets the stereo disparity (normalized horizontal eye separation).
    pub fn disparity(&mut self, disparity: f32) -> &mut Self {
        self.disparity = disparity;
        self
    }

    /// Sets the triangle grid (`cols × rows` quads, two triangles each).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(&mut self, cols: u32, rows: u32) -> &mut Self {
        assert!(cols > 0 && rows > 0, "grid must be nonzero");
        self.grid = (cols, rows);
        self
    }

    /// Adds a texture binding by pool name with the given share.
    pub fn texture(&mut self, name: &str, share: f32) -> &mut Self {
        assert!(share > 0.0, "texture share must be positive");
        self.textures.push((name.to_string(), share));
        self
    }

    /// Sets texels sampled per pixel.
    pub fn uv_scale(&mut self, s: f32) -> &mut Self {
        assert!(s > 0.0, "uv_scale must be positive");
        self.uv_scale = s;
        self
    }

    /// Swaps the U/V axes of the texture mapping.
    pub fn uv_transpose(&mut self, t: bool) -> &mut Self {
        self.uv_transpose = t;
        self
    }

    /// Declares a rendering-order dependency on an earlier object.
    pub fn depends_on(&mut self, id: ObjectId) -> &mut Self {
        self.depends_on = Some(id);
        self
    }

    /// Fallible build: `resolve` returns `None` for unknown texture names,
    /// reported as a typed error along with texture-less objects.
    pub(crate) fn try_build(
        self,
        resolve: impl Fn(&str) -> Option<TextureId>,
    ) -> Result<RenderObject, crate::error::SceneError> {
        if self.textures.is_empty() {
            return Err(crate::error::SceneError::ObjectWithoutTexture(self.name));
        }
        let total: f32 = self.textures.iter().map(|(_, s)| s).sum();
        let mut textures = Vec::with_capacity(self.textures.len());
        for (n, s) in &self.textures {
            let texture = resolve(n).ok_or_else(|| crate::error::SceneError::UnknownTexture {
                object: self.name.clone(),
                texture: n.clone(),
            })?;
            textures.push(TextureUse { texture, share: s / total });
        }
        Ok(RenderObject {
            id: self.id,
            name: self.name,
            rect: self.rect,
            depth: self.depth,
            disparity: self.disparity,
            grid: self.grid,
            textures,
            uv_scale: self.uv_scale,
            uv_transpose: self.uv_transpose,
            depends_on: self.depends_on,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> RenderObject {
        let mut b = ObjectBuilder::new(ObjectId(0), "o".into());
        b.rect(0.0, 0.0, 0.5, 0.5).grid(2, 3).texture("a", 3.0).texture("b", 1.0);
        b.try_build(|n| Some(if n == "a" { TextureId(0) } else { TextureId(1) }))
            .expect("test object builds")
    }

    #[test]
    fn counts() {
        let o = obj();
        assert_eq!(o.triangle_count(), 12);
        assert_eq!(o.vertex_count(), 12);
        assert_eq!(o.triangles(Resolution::new(64, 64), Eye::Left).len(), 12);
    }

    #[test]
    fn texture_shares_normalized_and_striped() {
        let o = obj();
        assert!((o.textures()[0].share - 0.75).abs() < 1e-6);
        // First 75% of triangles use texture a, rest texture b.
        assert_eq!(o.texture_for_triangle(0), TextureId(0));
        assert_eq!(o.texture_for_triangle(8), TextureId(0));
        assert_eq!(o.texture_for_triangle(11), TextureId(1));
    }

    #[test]
    fn triangles_tile_the_viewport() {
        let o = obj();
        let res = Resolution::new(128, 128);
        let total_area: f32 = o.triangles(res, Eye::Left).map(|t| t.area()).sum();
        let vp = o.viewport(res, Eye::Left);
        assert!((total_area - vp.area() as f32).abs() < 1.0, "mesh covers its viewport");
    }

    #[test]
    fn eyes_are_disparity_shifted() {
        let o = obj();
        let res = Resolution::new(100, 100);
        let l = o.viewport(res, Eye::Left);
        let r = o.viewport(res, Eye::Right);
        // Right-eye viewport lives in the right half, shifted further right.
        assert!(r.x - 100.0 > l.x, "l={l:?} r={r:?}");
        // Nearer objects (smaller depth) shift more.
        let mut b = ObjectBuilder::new(ObjectId(1), "near".into());
        b.rect(0.0, 0.0, 0.5, 0.5).depth(0.1).disparity(0.05).texture("a", 1.0);
        let near = b.try_build(|_| Some(TextureId(0))).expect("near object builds");
        let near_shift = near.viewport(res, Eye::Right).x - 100.0;
        let far_shift = r.x - 100.0;
        assert!(near_shift > far_shift);
    }

    #[test]
    fn zero_pose_delta_measures_zero_motion() {
        let o = obj();
        let res = Resolution::new(128, 96);
        let mut t = crate::pose::PoseTrajectory::new(11);
        for _ in 0..8 {
            let p = t.step();
            assert_eq!(o.motion_probe(res).motion(&p, &p), 0.0);
        }
    }

    #[test]
    fn larger_rotation_moves_the_bound_further() {
        let o = obj();
        let res = Resolution::new(128, 96);
        let p0 = Pose::identity();
        let small = Pose { yaw: 0.01, ..Pose::identity() };
        let big = Pose { yaw: 0.1, ..Pose::identity() };
        let m_small = o.motion_probe(res).motion(&p0, &small);
        let m_big = o.motion_probe(res).motion(&p0, &big);
        assert!(m_small > 0.0, "any rotation must register motion");
        assert!(m_big > m_small, "10x the yaw delta must move the bound further");
        // ~0.01 rad of yaw at a 64 px half-width is on the order of a pixel.
        assert!(m_small < 5.0, "small delta stays small: {m_small}");
    }

    #[test]
    fn nearer_objects_parallax_more_under_translation() {
        let res = Resolution::new(128, 96);
        let mut near = ObjectBuilder::new(ObjectId(1), "near".into());
        near.rect(0.25, 0.25, 0.5, 0.5).depth(0.1).texture("a", 1.0);
        let near = near.try_build(|_| Some(TextureId(0))).expect("builds");
        let mut far = ObjectBuilder::new(ObjectId(2), "far".into());
        far.rect(0.25, 0.25, 0.5, 0.5).depth(0.9).texture("a", 1.0);
        let far = far.try_build(|_| Some(TextureId(0))).expect("builds");
        let p0 = Pose::identity();
        let moved = Pose { position: [0.05, 0.0, 0.0], ..Pose::identity() };
        let m_near = near.motion_probe(res).motion(&p0, &moved);
        let m_far = far.motion_probe(res).motion(&p0, &moved);
        assert!(m_near > m_far, "near {m_near} must out-parallax far {m_far}");
    }

    #[test]
    fn probe_motion_matches_object_motion_and_is_bounded() {
        let o = obj();
        let res = Resolution::new(128, 96);
        let probe = o.motion_probe(res);
        let mut t = crate::pose::PoseTrajectory::new(3);
        let mut prev = t.current();
        let diag = (128.0f64 * 128.0 + 96.0 * 96.0).sqrt();
        for _ in 0..32 {
            let next = t.step();
            let m = o.motion_probe(res).motion(&prev, &next);
            assert_eq!(m, probe.motion(&prev, &next), "a reused probe must equal a fresh one");
            assert!((0.0..=diag).contains(&m), "motion {m} outside [0, diag]");
            prev = next;
        }
    }

    #[test]
    fn backward_facing_delta_is_a_full_screen_move() {
        let o = obj();
        let res = Resolution::new(128, 96);
        let probe = o.motion_probe(res);
        let diag = (128.0f64 * 128.0 + 96.0 * 96.0).sqrt();
        let ahead = Pose::identity();
        // A half-turn of yaw carries every corner ray behind the viewer
        // (`n_z <= 1e-9`), which measures exactly the diagonal, even with
        // the head moving too: the parallax cannot lift it past the cap.
        let behind = Pose { yaw: std::f64::consts::PI, position: [0.3, 0.0, 0.0], ..ahead };
        let kernel = MotionKernel::new(std::slice::from_ref(&o), res);
        let mut motions = Vec::<f64>::new();
        kernel.for_each_block(&PoseDelta::new(&ahead, &behind), |_, m| motions.extend(m));
        assert_eq!(motions, [diag]);
        assert_eq!(probe.motion(&behind, &ahead), diag);
        assert!(probe.motion(&ahead, &Pose { yaw: 0.1, ..ahead }) < diag);
    }

    #[test]
    fn scene_bound_passes_a_still_delta_above_zero_only() {
        let kernel = MotionKernel::new(&[obj()], Resolution::new(128, 96));
        let p = Pose { yaw: 0.3, position: [0.1, 0.0, 0.0], ..Pose::identity() };
        let still = PoseDelta::new(&p, &p);
        assert!(kernel.all_below(&still, 1e-9));
        assert!(!kernel.all_below(&still, 0.0));
    }

    #[test]
    fn scene_bound_never_passes_a_half_turn() {
        let kernel = MotionKernel::new(&[obj()], Resolution::new(128, 96));
        let half = Pose { yaw: std::f64::consts::PI, ..Pose::identity() };
        let delta = PoseDelta::new(&Pose::identity(), &half);
        for t in [16.0, 1e9, f64::MAX] {
            assert!(!kernel.all_below(&delta, t), "passed {t}");
        }
        let nan = Pose { roll: f64::NAN, ..Pose::identity() };
        assert!(!kernel.all_below(&PoseDelta::new(&Pose::identity(), &nan), f64::MAX));
    }

    #[test]
    fn scene_bound_of_a_translation_is_the_nearest_parallax_plus_slack() {
        let res = Resolution::new(128, 96);
        let mut near = ObjectBuilder::new(ObjectId(1), "near".into());
        near.rect(0.1, 0.6, 0.3, 0.3).depth(0.2).texture("a", 1.0);
        let near = near.try_build(|_| Some(TextureId(0))).expect("builds");
        let kernel = MotionKernel::new(&[obj(), near], res);
        let moved = Pose { position: [0.05, 0.0, 0.0], ..Pose::identity() };
        let delta = PoseDelta::new(&Pose::identity(), &moved);
        // The rotation is exactly the identity, so the bound is the
        // parallax of the nearest probe, computed as the kernel does.
        let parallax = (0.05f64 * 0.05).sqrt() * (1.0 - f64::from(0.2f32)) * 64.0;
        let slack = parallax * (1.0 + 1e-9) + 1e-6;
        assert!(!kernel.all_below(&delta, parallax));
        assert!(!kernel.all_below(&delta, slack));
        assert!(kernel.all_below(&delta, slack.next_up()));
    }

    #[test]
    fn cell_bound_fails_only_the_cells_of_the_nearer_probe() {
        let res = Resolution::new(128, 96);
        let mut near = ObjectBuilder::new(ObjectId(1), "near".into());
        near.rect(0.1, 0.6, 0.3, 0.3).depth(0.2).texture("a", 1.0);
        let near = near.try_build(|_| Some(TextureId(0))).expect("builds");
        let far = obj();
        assert!(far.depth() > near.depth());
        let kernel = MotionKernel::new([&far, &near], res);
        let [far_cells, near_cells] = [kernel.probe_cells()[0], kernel.probe_cells()[1]];
        assert_eq!(far_cells.count_ones(), 4, "a rect's corners in four cells");
        assert_eq!(kernel.occupied_cells(), far_cells | near_cells);
        assert!(far_cells & near_cells != 0 && far_cells & !near_cells != 0);
        // A pure translation moves each probe by its own parallax, so a
        // threshold between the two passes exactly the cells only the far
        // probe reaches; it shares a cell with the near one, so it is not
        // proven still.
        let moved = Pose { position: [0.05, 0.0, 0.0], ..Pose::identity() };
        let delta = PoseDelta::new(&Pose::identity(), &moved);
        let parallax = |o: &RenderObject| 0.05 * (1.0 - f64::from(o.depth())) * 64.0;
        let t = 0.5 * (parallax(&far) + parallax(&near));
        assert_eq!(kernel.cells_below(&delta, t), far_cells & !near_cells);
        assert!(!kernel.all_below(&delta, t));
        assert_eq!(kernel.cells_below(&delta, 2.0 * parallax(&near)), kernel.occupied_cells());
    }

    #[test]
    fn probe_order_puts_centre_groups_first_and_edge_spanning_ones_last() {
        let rect = |id: u32, x0: f32, x1: f32| {
            let mut b = ObjectBuilder::new(ObjectId(id), format!("o{id}"));
            b.rect(x0, 0.3, x1 - x0, 0.15).texture("a", 1.0);
            b.try_build(|_| Some(TextureId(0))).expect("builds")
        };
        let objects =
            [rect(0, 0.05, 0.9), rect(1, 0.8, 0.9), rect(2, 0.3, 0.45), rect(3, 0.05, 0.15)];
        let kernel = MotionKernel::new(&objects, Resolution::new(128, 96));
        // The objects reach both edge columns, the right one, the centre
        // and the left one, in that order.
        assert_eq!(kernel.probe_order(), [2, 3, 1, 0]);
    }

    #[test]
    fn empty_scene_bound_passes_any_positive_threshold() {
        let kernel = MotionKernel::new(&[], Resolution::new(128, 96));
        let turned =
            Pose { yaw: std::f64::consts::PI, position: [0.3, 0.0, 0.0], ..Pose::identity() };
        for to in [Pose::identity(), turned] {
            let delta = PoseDelta::new(&Pose::identity(), &to);
            for t in [1e-9, 16.0, f64::INFINITY] {
                assert!(kernel.all_below(&delta, t));
            }
        }
    }

    #[test]
    fn stereo_bounds_cover_both_eyes() {
        let o = obj();
        let res = Resolution::new(100, 100);
        let b = o.stereo_bounds(res);
        let l = o.viewport(res, Eye::Left);
        let r = o.viewport(res, Eye::Right);
        assert!(b.x <= l.x && b.x1() >= r.x1());
    }
}
