//! Fundamental identifier and screen-space types shared across the workspace.

use std::fmt;

/// Identifier of a rendering object (one draw command in the Table 3 sense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Identifier of a texture in the scene's texture pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TextureId(pub u32);

impl fmt::Display for TextureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tex{}", self.0)
    }
}

/// Which eye a stereo view belongs to.
///
/// VR stereo rendering produces a pair of frames (Fig. 1 of the paper); most
/// scheduling decisions in the baselines treat the two eyes' instances of an
/// object as independent work, which is exactly the redundancy OO-VR removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Eye {
    /// Left eye view.
    Left,
    /// Right eye view.
    Right,
}

impl Eye {
    /// Both eyes, in canonical (left, right) order.
    pub const BOTH: [Eye; 2] = [Eye::Left, Eye::Right];

    /// Index of the eye: 0 for left, 1 for right.
    pub fn index(self) -> usize {
        match self {
            Eye::Left => 0,
            Eye::Right => 1,
        }
    }

    /// Sign of the stereo disparity shift applied to this eye's projection
    /// (the SMP engine shifts the viewport by ±W/2, §3 of the paper).
    pub fn disparity_sign(self) -> f32 {
        match self {
            Eye::Left => -1.0,
            Eye::Right => 1.0,
        }
    }
}

impl fmt::Display for Eye {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Eye::Left => write!(f, "L"),
            Eye::Right => write!(f, "R"),
        }
    }
}

/// Per-eye rendering resolution in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// Horizontal pixels per eye.
    pub width: u32,
    /// Vertical pixels per eye.
    pub height: u32,
}

impl Resolution {
    /// Creates a resolution.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "resolution dimensions must be nonzero");
        Resolution { width, height }
    }

    /// Pixels in one eye's image.
    pub fn pixels_per_eye(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Pixels in the full stereo frame (both eyes).
    pub fn stereo_pixels(&self) -> u64 {
        self.pixels_per_eye() * 2
    }

    /// Width of the full stereo frame when the two eye images are laid out
    /// side by side (left eye occupying x in `[0, width)`, right eye
    /// `[width, 2*width)`), as the paper's Fig. 5 does with the `±W` offset.
    pub fn stereo_width(&self) -> u32 {
        self.width * 2
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// A screen-space viewport: an axis-aligned pixel region of the stereo frame.
///
/// The OO-VR programming model replaces an object's single viewport with a
/// `viewportL`/`viewportR` pair (§5.1); this type is used for both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    /// Left edge in pixels (stereo-frame coordinates).
    pub x: f32,
    /// Top edge in pixels.
    pub y: f32,
    /// Width in pixels.
    pub width: f32,
    /// Height in pixels.
    pub height: f32,
}

impl Viewport {
    /// Creates a viewport.
    ///
    /// # Panics
    ///
    /// Panics if width or height are negative.
    pub fn new(x: f32, y: f32, width: f32, height: f32) -> Self {
        assert!(width >= 0.0 && height >= 0.0, "viewport extent must be non-negative");
        Viewport { x, y, width, height }
    }

    /// Right edge in pixels.
    pub fn x1(&self) -> f32 {
        self.x + self.width
    }

    /// Bottom edge in pixels.
    pub fn y1(&self) -> f32 {
        self.y + self.height
    }

    /// Area in pixels.
    pub fn area(&self) -> f64 {
        f64::from(self.width) * f64::from(self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_pixel_counts() {
        let r = Resolution::new(1280, 1024);
        assert_eq!(r.pixels_per_eye(), 1280 * 1024);
        assert_eq!(r.stereo_pixels(), 2 * 1280 * 1024);
        assert_eq!(r.stereo_width(), 2560);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn resolution_rejects_zero() {
        let _ = Resolution::new(0, 480);
    }

    #[test]
    fn eye_indices_and_signs() {
        assert_eq!(Eye::Left.index(), 0);
        assert_eq!(Eye::Right.index(), 1);
        assert!(Eye::Left.disparity_sign() < 0.0);
        assert!(Eye::Right.disparity_sign() > 0.0);
    }

    #[test]
    fn viewport_eye_layout_is_side_by_side() {
        // Eye `e` of a side-by-side frame starts `e.index()` eye widths in.
        let r = Resolution::new(640, 480);
        let (w, h) = (r.width as f32, r.height as f32);
        let l = Viewport::new(Eye::Left.index() as f32 * w, 0.0, w, h);
        let rgt = Viewport::new(Eye::Right.index() as f32 * w, 0.0, w, h);
        assert_eq!(l.x, 0.0);
        assert_eq!(rgt.x, 640.0);
        assert_eq!(l.x1(), rgt.x);
        assert_eq!(rgt.x1(), r.stereo_width() as f32);
        assert_eq!(l.area(), rgt.area());
    }

    #[test]
    fn ids_are_ordered_and_display() {
        assert!(ObjectId(1) < ObjectId(2));
        assert_eq!(ObjectId(3).to_string(), "obj3");
        assert_eq!(TextureId(7).to_string(), "tex7");
    }
}
