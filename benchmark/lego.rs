//! The trained-scene inputs shared by `render_orbit` and `train_recon`:
//! the Lego scene, a held-out split of its orbit views, and the model
//! and trainer settings of the `fusion3d` CLI (`src/bin/fusion3d.rs`),
//! which is what a user of the tool trains with.

use fusion3d_nerf::encoding::HashGridConfig;
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::{Dataset, ModelConfig, ProceduralScene, SyntheticScene, TrainerConfig};

/// Every `HOLDOUT_EVERY`-th orbit view is held out for PSNR.
const HOLDOUT_EVERY: usize = 8;
/// Vertical field of view of every camera, radians.
pub const FOV_Y: f32 = 0.9;

/// The CLI's model: 6 hash-grid levels up to 128³, 32-wide MLPs.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        grid: HashGridConfig {
            levels: 6,
            features_per_level: 2,
            log2_table_size: 13,
            base_resolution: 8,
            max_resolution: 128,
        },
        hidden_dim: 32,
        geo_feature_dim: 7,
    }
}

/// The CLI's trainer: 128 rays per step, occupancy refresh every 24.
pub fn trainer_config(background: Vec3) -> TrainerConfig {
    TrainerConfig {
        rays_per_batch: 128,
        sampler: SamplerConfig { steps_per_diagonal: 96, max_samples_per_ray: 64 },
        occupancy_resolution: 24,
        occupancy_update_interval: 24,
        occupancy_warmup: 48,
        background,
        ..TrainerConfig::default()
    }
}

/// The Lego scene every NeRF workload reconstructs or renders.
pub fn scene() -> ProceduralScene {
    ProceduralScene::synthetic(SyntheticScene::Lego)
}

/// The `(train, held-out)` split of `views` orbit views of the scene.
pub fn split_views(scene: &ProceduralScene, views: usize, resolution: u32) -> (Dataset, Dataset) {
    Dataset::from_scene(scene, views, resolution, FOV_Y).split(HOLDOUT_EVERY)
}
