//! Scenes: a texture pool plus an ordered list of rendering objects.

use std::collections::HashMap;

use crate::object::{ObjectBuilder, RenderObject};
use crate::texture::TextureDesc;
use crate::types::{ObjectId, Resolution, TextureId};

/// A complete frame description: what the application submits per frame.
///
/// Object order is the programmer-defined submission order the paper's
/// middleware must respect when objects carry dependencies.
#[derive(Debug, Clone)]
pub struct Scene {
    name: String,
    resolution: Resolution,
    textures: Vec<TextureDesc>,
    objects: Vec<RenderObject>,
}

impl Scene {
    /// The scene's name (benchmark abbreviation for generated workloads).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-eye rendering resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The texture pool.
    pub fn textures(&self) -> &[TextureDesc] {
        &self.textures
    }

    /// Looks up a texture by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in this scene's pool.
    pub fn texture(&self, id: TextureId) -> &TextureDesc {
        &self.textures[id.0 as usize]
    }

    /// The ordered object list (submission order).
    pub fn objects(&self) -> &[RenderObject] {
        &self.objects
    }

    /// Looks up an object by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in this scene.
    pub fn object(&self, id: ObjectId) -> &RenderObject {
        &self.objects[id.0 as usize]
    }

    /// Total triangles across all objects for a single eye.
    pub fn total_triangles_per_eye(&self) -> u64 {
        self.objects.iter().map(|o| o.triangle_count()).sum()
    }

    /// Total unique vertices across all objects for a single eye.
    pub fn total_vertices_per_eye(&self) -> u64 {
        self.objects.iter().map(|o| o.vertex_count()).sum()
    }

    /// Total texture pool footprint in bytes.
    pub fn texture_bytes(&self) -> u64 {
        self.textures.iter().map(|t| t.size_bytes()).sum()
    }

    /// Number of draw commands (== objects) in this scene; the Table 3
    /// `#Draw` column.
    pub fn draw_count(&self) -> usize {
        self.objects.len()
    }

    /// The reprojection kernel over every object at this scene's
    /// resolution, one probe per object in submission order: the
    /// temporal-reuse layer measures a whole frame's motions with one call.
    pub fn motion_kernel(&self) -> crate::object::MotionKernel {
        crate::object::MotionKernel::new(&self.objects, self.resolution)
    }

    /// One reprojection probe per object at this scene's resolution, in
    /// submission order; probe `i` measures the same motion as probe `i`
    /// of [`motion_kernel`](Self::motion_kernel).
    pub fn motion_probes(&self) -> Vec<crate::object::MotionProbe> {
        self.objects.iter().map(|o| o.motion_probe(self.resolution)).collect()
    }
}

/// Builder for [`Scene`]. See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct SceneBuilder {
    name: String,
    resolution: Resolution,
    textures: Vec<TextureDesc>,
    by_name: HashMap<String, TextureId>,
    objects: Vec<ObjectBuilder>,
}

impl SceneBuilder {
    /// Starts a scene at the given per-eye resolution.
    pub fn new(width: u32, height: u32) -> Self {
        SceneBuilder {
            name: "custom".to_string(),
            resolution: Resolution::new(width, height),
            textures: Vec::new(),
            by_name: HashMap::new(),
            objects: Vec::new(),
        }
    }

    /// Names the scene.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Adds a texture to the pool.
    ///
    /// # Panics
    ///
    /// Panics if a texture with this name already exists, or extents are not
    /// powers of two.
    pub fn texture(mut self, name: &str, width: u32, height: u32) -> Self {
        match self.add_texture(name, width, height) {
            Ok(()) => self,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`texture`](Self::texture): reports duplicate
    /// names and bad extents as typed errors instead of panicking.
    pub fn try_texture(
        mut self,
        name: &str,
        width: u32,
        height: u32,
    ) -> Result<Self, crate::error::SceneError> {
        self.add_texture(name, width, height)?;
        Ok(self)
    }

    fn add_texture(
        &mut self,
        name: &str,
        width: u32,
        height: u32,
    ) -> Result<(), crate::error::SceneError> {
        let id = TextureId(self.textures.len() as u32);
        let desc = TextureDesc::try_new(id, name, width, height)?;
        if self.by_name.insert(name.to_string(), id).is_some() {
            return Err(crate::error::SceneError::DuplicateTexture(name.to_string()));
        }
        self.textures.push(desc);
        Ok(())
    }

    /// Adds an object, configured through the closure.
    pub fn object(mut self, name: &str, f: impl FnOnce(&mut ObjectBuilder)) -> Self {
        let id = ObjectId(self.objects.len() as u32);
        let mut b = ObjectBuilder::new(id, name.to_string());
        f(&mut b);
        self.objects.push(b);
        self
    }

    /// Finalizes the scene.
    ///
    /// # Panics
    ///
    /// Panics if any object references an unknown texture name, has no
    /// texture, or depends on a later/unknown object.
    pub fn build(self) -> Scene {
        match self.try_build() {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`build`](Self::build): reports unknown texture
    /// references, texture-less objects, and forward dependencies as typed
    /// errors instead of panicking.
    pub fn try_build(self) -> Result<Scene, crate::error::SceneError> {
        let by_name = self.by_name;
        let objects: Vec<RenderObject> = self
            .objects
            .into_iter()
            .map(|b| b.try_build(|n| by_name.get(n).copied()))
            .collect::<Result<_, _>>()?;
        for o in &objects {
            if let Some(dep) = o.depends_on() {
                if dep >= o.id() {
                    return Err(crate::error::SceneError::ForwardDependency {
                        object: o.id().0,
                        depends_on: dep.0,
                    });
                }
            }
        }
        Ok(Scene { name: self.name, resolution: self.resolution, textures: self.textures, objects })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scene() -> Scene {
        SceneBuilder::new(320, 240)
            .name("test")
            .texture("stone", 256, 256)
            .texture("cloth", 128, 128)
            .object("pillar1", |o| {
                o.rect(0.0, 0.0, 0.3, 0.9).grid(2, 8).texture("stone", 1.0);
            })
            .object("flag", |o| {
                o.rect(0.4, 0.1, 0.2, 0.2).grid(2, 2).texture("cloth", 1.0);
            })
            .object("pillar2", |o| {
                o.rect(0.7, 0.0, 0.3, 0.9).grid(2, 8).texture("stone", 1.0);
            })
            .build()
    }

    #[test]
    fn totals() {
        let s = scene();
        assert_eq!(s.draw_count(), 3);
        assert_eq!(s.total_triangles_per_eye(), 32 + 8 + 32);
        assert_eq!(s.texture_bytes(), 256 * 256 * 4 + 128 * 128 * 4);
        assert_eq!(s.texture(TextureId(1)).name(), "cloth");
        assert_eq!(s.object(ObjectId(2)).name(), "pillar2");
    }

    #[test]
    #[should_panic(expected = "unknown texture")]
    fn unknown_texture_panics() {
        let _ = SceneBuilder::new(64, 64)
            .object("o", |o| {
                o.texture("missing", 1.0);
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate texture")]
    fn duplicate_texture_panics() {
        let _ = SceneBuilder::new(64, 64).texture("a", 64, 64).texture("a", 64, 64);
    }

    #[test]
    fn try_build_reports_typed_errors() {
        use crate::error::SceneError;
        let err = SceneBuilder::new(64, 64)
            .object("o", |o| {
                o.texture("missing", 1.0);
            })
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SceneError::UnknownTexture { .. }));

        let err = SceneBuilder::new(64, 64).object("bare", |_| {}).try_build().unwrap_err();
        assert_eq!(err, SceneError::ObjectWithoutTexture("bare".to_string()));

        let err = SceneBuilder::new(64, 64)
            .texture("t", 64, 64)
            .object("a", |o| {
                o.texture("t", 1.0).depends_on(ObjectId(1));
            })
            .try_build()
            .unwrap_err();
        assert_eq!(err, SceneError::ForwardDependency { object: 0, depends_on: 1 });
    }

    #[test]
    fn try_texture_reports_typed_errors() {
        use crate::error::SceneError;
        let err =
            SceneBuilder::new(64, 64).texture("a", 64, 64).try_texture("a", 64, 64).unwrap_err();
        assert_eq!(err, SceneError::DuplicateTexture("a".to_string()));
        let err = SceneBuilder::new(64, 64).try_texture("np2", 48, 64).unwrap_err();
        assert!(matches!(err, SceneError::BadTextureExtent { .. }));
    }

    #[test]
    fn dependencies_must_point_backwards() {
        let s = SceneBuilder::new(64, 64)
            .texture("t", 64, 64)
            .object("a", |o| {
                o.texture("t", 1.0);
            })
            .object("b", |o| {
                o.texture("t", 1.0).depends_on(ObjectId(0));
            })
            .build();
        assert_eq!(s.object(ObjectId(1)).depends_on(), Some(ObjectId(0)));
    }
}
