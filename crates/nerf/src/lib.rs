//! # fusion3d-nerf
//!
//! The NeRF algorithm substrate of the Fusion-3D reproduction (MICRO
//! 2024): a from-scratch Instant-NGP-style radiance field with the
//! complete three-stage pipeline the accelerator targets —
//!
//! * **Stage I — sampling** ([`sampler`], [`occupancy`], [`camera`],
//!   [`math`]): per-pixel ray generation, normalized-model-cube
//!   partitioning into octants, and occupancy-grid-gated ray marching;
//! * **Stage II — feature interpolation** ([`encoding`], [`hash`]):
//!   multiresolution hash-grid encoding with forward gather and
//!   backward scatter, plus access tracing for the memory-subsystem
//!   simulator;
//! * **Stage III — post-processing** ([`mlp`], [`render`]): tiny
//!   density/color MLPs and differentiable volumetric compositing.
//!
//! On top of the stages sit the [`pipeline`] (end-to-end inference and
//! workload tracing), the [`trainer`] (instant reconstruction, and the
//! per-step data volumes behind Fig. 3), INT8 [`quant`]ization
//! experiments, and procedural [`scenes`]/[`dataset`]s standing in for
//! NeRF-Synthetic and NeRF-360.
//!
//! ## Quickstart
//!
//! ```
//! use fusion3d_nerf::dataset::Dataset;
//! use fusion3d_nerf::model::{ModelConfig, NerfModel};
//! use fusion3d_nerf::scenes::{ProceduralScene, SyntheticScene};
//! use fusion3d_nerf::trainer::{Trainer, TrainerConfig};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
//! let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
//! let model = NerfModel::new(ModelConfig::default(), &mut rng);
//! let mut trainer = Trainer::new(model, TrainerConfig::default());
//! let stats = trainer.step(&dataset, &mut rng);
//! assert!(stats.loss.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adam;
pub mod batch;
pub mod camera;
pub mod dataset;
pub mod dense_grid;
pub mod dirty;
pub mod encoding;
pub mod hash;
pub mod image;
pub mod io;
pub mod math;
pub mod mlp;
pub mod model;
pub mod occupancy;
pub mod pipeline;
pub mod quant;
pub mod reference;
pub mod render;
pub mod sampler;
pub mod scenes;
pub mod trainer;

pub use batch::{KernelScratch, SampleBatch};
pub use camera::{Camera, Pose};
pub use dataset::Dataset;
pub use dense_grid::{DenseGrid, DenseGridConfig};
pub use encoding::{Encoding, HashGrid, HashGridConfig};
pub use image::Image;
pub use math::{Aabb, Ray, Vec3};
pub use model::{ModelConfig, NerfModel};
pub use occupancy::OccupancyGrid;
pub use pipeline::{render_image, trace_frame, trace_rays, FrameTrace, PipelineConfig, TracedRay};
pub use sampler::{PairJob, RayWorkload, SamplerConfig};
pub use scenes::{LargeScene, ProceduralScene, SyntheticScene};
pub use trainer::{DataVolume, Trainer, TrainerConfig};
