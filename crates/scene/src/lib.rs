//! # oovr-scene
//!
//! Scene representation and synthetic workload generation for the OO-VR
//! reproduction (Xie et al., ISCA 2019).
//!
//! The paper evaluates on rendering traces of five real games (Table 3:
//! Doom 3, Half-Life 2, Need For Speed, Unreal Tournament 3, Wolfenstein).
//! Those traces are not redistributable, so this crate generates
//! *deterministic synthetic scenes* whose externally-visible properties match
//! what the paper's experiments depend on:
//!
//! * the draw-command count and rendering resolution of each benchmark
//!   (Table 3),
//! * heavy-tailed object sizes (the source of the load imbalance in Fig. 10),
//! * a texture pool with Zipf-distributed sharing across objects (the
//!   locality that OO-VR's TSL batching exploits),
//! * stereo disparity between the left and right eye views of every object
//!   (the cross-eye redundancy that SMP exploits).
//!
//! # Example
//!
//! ```
//! use oovr_scene::{benchmarks, SceneBuilder};
//!
//! // A paper benchmark...
//! let scene = benchmarks::hl2_640().build();
//! assert_eq!(scene.objects().len(), 328);
//!
//! // ...or a hand-built scene.
//! let scene = SceneBuilder::new(640, 480)
//!     .texture("stone", 512, 512)
//!     .object("pillar1", |o| {
//!         o.rect(0.1, 0.1, 0.2, 0.8).texture("stone", 1.0);
//!     })
//!     .object("pillar2", |o| {
//!         o.rect(0.7, 0.1, 0.2, 0.8).texture("stone", 1.0);
//!     })
//!     .build();
//! assert_eq!(scene.objects().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod error;
pub mod generator;
pub mod geometry;
pub mod object;
pub mod pose;
pub mod scene;
pub mod stats;
pub mod texture;
pub mod types;
pub mod vr;

pub use error::SceneError;
pub use generator::{BenchmarkSpec, Personality};
pub use geometry::{Rect, ScreenTriangle, TriSampler, Vec2};
pub use object::{MotionKernel, MotionProbe, ObjectBuilder, PoseDelta, RenderObject, TextureUse};
pub use pose::{Pose, PoseTrajectory};
pub use scene::{Scene, SceneBuilder};
pub use texture::TextureDesc;
pub use types::{Eye, ObjectId, Resolution, TextureId, Viewport};
