//! Scene memory layout: where vertex buffers, textures and the framebuffer
//! live in the unified multi-GPM address space.
//!
//! The graphics driver pre-allocates these before rendering (§2.2 of the
//! paper); *placement* (which GPM's DRAM holds which page) is decided by the
//! NUMA policies in `oovr-mem`, not by this layout.

use oovr_mem::address::AddressSpace;
use oovr_mem::{Addr, Region, LINE_SIZE};
use oovr_scene::{Scene, TextureId};

/// Bytes per framebuffer pixel (RGBA8).
pub const FB_BYTES_PER_PIXEL: u64 = 4;

/// Bytes per depth-buffer sample (D32).
pub const ZB_BYTES_PER_PIXEL: u64 = 4;

/// Address-space layout for one scene.
#[derive(Debug, Clone)]
pub struct SceneLayout {
    vertex_regions: Vec<Region>,
    texture_regions: Vec<Region>,
    framebuffer: Region,
    zbuffer: Region,
    stereo_width: u64,
    command_region: Region,
    /// Per-GPM color scratch buffers for deferred (composed) color output.
    scratch: Vec<Region>,
}

impl SceneLayout {
    /// Allocates regions for every object's vertex buffer, every texture,
    /// the stereo framebuffer + depth buffer, and one color scratch buffer
    /// per GPM (used by schemes that compose explicitly).
    pub fn new(scene: &Scene, n_gpms: usize) -> Self {
        let mut space = AddressSpace::new();
        let vertex_regions =
            scene.objects().iter().map(|o| space.alloc(o.vertex_count() * 32)).collect();
        let texture_regions =
            scene.textures().iter().map(|t| space.alloc(t.size_bytes())).collect();
        let res = scene.resolution();
        let stereo_pixels = res.stereo_pixels();
        let framebuffer = space.alloc(stereo_pixels * FB_BYTES_PER_PIXEL);
        let zbuffer = space.alloc(stereo_pixels * ZB_BYTES_PER_PIXEL);
        let command_region = space.alloc(scene.draw_count() as u64 * 1024);
        let scratch =
            (0..n_gpms).map(|_| space.alloc(stereo_pixels * FB_BYTES_PER_PIXEL)).collect();
        SceneLayout {
            vertex_regions,
            texture_regions,
            framebuffer,
            zbuffer,
            stereo_width: u64::from(res.stereo_width()),
            command_region,
            scratch,
        }
    }

    /// The color scratch region of one GPM.
    pub fn scratch(&self, gpm: usize) -> Region {
        self.scratch[gpm]
    }

    /// Address of the scratch color sample of GPM `gpm` at pixel `(x, y)`.
    pub fn scratch_addr(&self, gpm: usize, x: u32, y: u32) -> Addr {
        self.scratch[gpm].at((u64::from(y) * self.stereo_width + u64::from(x)) * FB_BYTES_PER_PIXEL)
    }

    /// Vertex buffer region of an object.
    pub fn vertex_region(&self, object: usize) -> Region {
        self.vertex_regions[object]
    }

    /// Memory region of a texture.
    pub fn texture_region(&self, tex: TextureId) -> Region {
        self.texture_regions[tex.0 as usize]
    }

    /// The stereo color framebuffer region.
    pub fn framebuffer(&self) -> Region {
        self.framebuffer
    }

    /// The stereo depth buffer region.
    pub fn zbuffer(&self) -> Region {
        self.zbuffer
    }

    /// The command stream region.
    pub fn command_region(&self) -> Region {
        self.command_region
    }

    /// Address of the color sample at stereo-frame pixel `(x, y)`.
    pub fn fb_addr(&self, x: u32, y: u32) -> Addr {
        self.framebuffer.at((u64::from(y) * self.stereo_width + u64::from(x)) * FB_BYTES_PER_PIXEL)
    }

    /// Whether pixels `(x, y)` and `(x+1, y)` share a cache line for every
    /// even `x`, in the framebuffer and in every scratch buffer: true when
    /// each buffer's base and its row pitch are multiples of a pixel pair.
    pub fn pixel_pairs_share_lines(&self) -> bool {
        let pair = 2 * FB_BYTES_PER_PIXEL;
        LINE_SIZE.is_multiple_of(pair)
            && (self.stereo_width * FB_BYTES_PER_PIXEL).is_multiple_of(pair)
            && std::iter::once(&self.framebuffer)
                .chain(&self.scratch)
                .all(|r| r.base.is_multiple_of(pair))
    }

    /// Address of the depth sample at stereo-frame pixel `(x, y)`.
    pub fn zb_addr(&self, x: u32, y: u32) -> Addr {
        self.zbuffer.at((u64::from(y) * self.stereo_width + u64::from(x)) * ZB_BYTES_PER_PIXEL)
    }
}

/// Functional stereo depth buffer: resolves per-pixel visibility so color
/// traffic reflects the Z test, deterministically across schemes.
#[derive(Debug, Clone)]
pub struct ZBuffer {
    width: u32,
    height: u32,
    depth: Vec<f32>,
}

impl ZBuffer {
    /// Creates a cleared (far plane) depth buffer for a stereo frame of
    /// `width × height` pixels.
    pub fn new(width: u32, height: u32) -> Self {
        ZBuffer {
            width,
            height,
            depth: [f32::INFINITY].repeat((width as usize) * (height as usize)),
        }
    }

    /// Stereo frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Stereo frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Depth-tests pixel `(x, y)` against `z`; on pass, writes `z` and
    /// returns `true`. Out-of-bounds pixels fail.
    pub fn test_and_set(&mut self, x: u32, y: u32, z: f32) -> bool {
        if x >= self.width || y >= self.height {
            return false;
        }
        let idx = y as usize * self.width as usize + x as usize;
        if z < self.depth[idx] {
            self.depth[idx] = z;
            true
        } else {
            false
        }
    }

    /// Depth-tests the pixels of the 2×2 quad at `(x, y)` selected by
    /// `mask` (bit 0 = `(x, y)`, 1 = `(x+1, y)`, 2 = `(x, y+1)`,
    /// 3 = `(x+1, y+1)`) against `z` and returns the mask of those that
    /// passed (and were written). The same outcome as one
    /// [`test_and_set`](Self::test_and_set) per selected pixel, since the
    /// four pixels are distinct: a quad wholly inside the frame needs one
    /// bounds check instead of four; one on the right or bottom edge takes
    /// the per-pixel path.
    #[inline]
    pub fn test_quad(&mut self, x: u32, y: u32, mask: u8, z: f32) -> u8 {
        if x + 1 >= self.width || y + 1 >= self.height {
            return (0..4u8)
                .filter(|&i| mask & (1 << i) != 0)
                .filter(|&i| self.test_and_set(x + u32::from(i & 1), y + u32::from(i >> 1), z))
                .fold(0, |m, i| m | 1 << i);
        }
        let w = self.width as usize;
        let i0 = y as usize * w + x as usize;
        let mut passed = 0;
        for (bit, idx) in [i0, i0 + 1, i0 + w, i0 + w + 1].into_iter().enumerate() {
            if mask & (1 << bit) != 0 && z < self.depth[idx] {
                self.depth[idx] = z;
                passed |= 1 << bit;
            }
        }
        passed
    }

    /// Clears to the far plane.
    pub fn clear(&mut self) {
        self.depth.fill(f32::INFINITY);
    }

    /// Fraction of pixels covered by at least one surviving fragment.
    pub fn coverage(&self) -> f64 {
        let covered = self.depth.iter().filter(|d| d.is_finite()).count();
        covered as f64 / self.depth.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oovr_scene::SceneBuilder;

    fn scene() -> Scene {
        SceneBuilder::new(64, 64)
            .texture("t", 64, 64)
            .object("o", |o| {
                o.grid(2, 2).texture("t", 1.0);
            })
            .build()
    }

    #[test]
    fn regions_are_disjoint_and_sized() {
        let s = scene();
        let l = SceneLayout::new(&s, 4);
        let v = l.vertex_region(0);
        let t = l.texture_region(TextureId(0));
        assert_eq!(v.size, 9 * 32);
        assert_eq!(t.size, 64 * 64 * 4);
        assert!(v.end() <= t.base);
        assert_eq!(l.framebuffer().size, 64 * 64 * 2 * 4);
        assert_eq!(l.zbuffer().size, 64 * 64 * 2 * 4);
    }

    #[test]
    fn fb_addressing_is_row_major_stereo() {
        let s = scene();
        let l = SceneLayout::new(&s, 4);
        let a0 = l.fb_addr(0, 0);
        let a1 = l.fb_addr(1, 0);
        let arow = l.fb_addr(0, 1);
        assert_eq!(a1.0 - a0.0, 4);
        assert_eq!(arow.0 - a0.0, 128 * 4, "stereo width is 128");
    }

    #[test]
    fn zbuffer_nearer_wins() {
        let mut z = ZBuffer::new(4, 4);
        assert!(z.test_and_set(1, 1, 0.5));
        assert!(!z.test_and_set(1, 1, 0.7), "farther fragment fails");
        assert!(z.test_and_set(1, 1, 0.2), "nearer fragment passes");
        assert!(!z.test_and_set(9, 0, 0.1), "out of bounds fails");
        assert!(z.coverage() > 0.0);
        z.clear();
        assert_eq!(z.coverage(), 0.0);
    }

    #[test]
    fn quad_test_passes_only_nearer_covered_pixels() {
        let mut z = ZBuffer::new(4, 3);
        assert_eq!(z.test_quad(0, 0, 0b1011, 0.5), 0b1011);
        assert_eq!(z.test_quad(0, 0, 0b1111, 0.6), 0b0100, "only the untouched pixel");
        assert_eq!(z.test_quad(0, 0, 0b1111, 0.1), 0b1111);
        // Bottom edge: the second row is outside the 3-pixel-high frame.
        assert_eq!(z.test_quad(2, 2, 0b1111, 0.5), 0b0011);
    }
}
