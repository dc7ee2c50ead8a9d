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
//! workload tracing), the [`trainer`] (instant reconstruction with a
//! byte-accurate data-volume ledger), INT8 [`quant`]ization
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
#[cfg(feature = "obs")]
pub mod probes;
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

/// Hot-path probe hook. With the `obs` feature the body is compiled
/// in verbatim; without it the macro expands to nothing and its
/// arguments are never evaluated (or even type-checked), so probe
/// sites cost zero in the default build. Keep bodies to a few integer
/// adds per *batch* — never per sample (see [`probes`]).
#[cfg(feature = "obs")]
macro_rules! probe {
    ($($body:tt)*) => {
        $($body)*
    };
}
/// No-op twin of the `obs`-enabled probe hook (see above).
#[cfg(not(feature = "obs"))]
macro_rules! probe {
    ($($body:tt)*) => {};
}
pub(crate) use probe;

#[cfg(test)]
mod probe_macro_tests {
    #[test]
    #[cfg(feature = "obs")]
    fn probe_bodies_run_with_obs() {
        let mut hits = 0u32;
        crate::probe!({
            hits += 1;
        });
        assert_eq!(hits, 1);
    }

    /// The default build must carry zero probe code. The body below
    /// calls a function that does not exist, so this test *compiling*
    /// already proves the macro discards its body before type-checking
    /// — there is nothing left to execute, let alone pay for.
    #[test]
    #[cfg(not(feature = "obs"))]
    fn probe_bodies_compile_out() {
        #[allow(unused_mut)]
        let mut hits = 0u32;
        crate::probe!({
            hits += 1;
            calling_a_function_that_does_not_exist();
        });
        assert_eq!(hits, 0);
    }
}
