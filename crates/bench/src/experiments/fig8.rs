//! Fig. 8: visualization of the MoE-based multi-chip design — which
//! expert dominates each pixel after training.
//!
//! The paper renders region colors per expert; here a short MoE
//! training run is followed by an ASCII dominance map: each foreground
//! pixel is labeled with the index of the expert whose own field
//! absorbs the ray the most ('.' where the background dominates). The
//! visible structure — contiguous regions owned by single experts with
//! shared boundaries — is the specialization the Level-1 tiling relies
//! on. At reproduction scale the regional structure is seeded through
//! the gates (`MoeNerf::with_partitioned_gates`); training maintains
//! and refines it.

use fusion3d_multichip::moe::{MoeNerf, MoeTrainer};
use fusion3d_nerf::camera::Camera;
use fusion3d_nerf::dataset::Dataset;
use fusion3d_nerf::encoding::HashGridConfig;
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::ModelConfig;
use fusion3d_nerf::pipeline::render_layer;
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::scenes::{LargeScene, ProceduralScene};
use fusion3d_nerf::trainer::TrainerConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Renders the per-pixel dominant-expert map of a trained MoE.
///
/// Dominance is by per-expert opacity, `1 − T` of the expert's own
/// layer: the expert whose field absorbs the ray the most owns the
/// pixel, regardless of its color brightness.
pub fn dominance_map(
    moe: &MoeNerf,
    camera: &Camera,
    sampler: &SamplerConfig,
) -> Vec<Option<usize>> {
    // Per pixel: the most opaque expert so far, and the total opacity.
    let mut pixels = vec![(None::<(usize, f32)>, 0.0f32); camera.pixel_count() as usize];
    for (e, expert) in moe.experts().iter().enumerate() {
        let layer = render_layer(&expert.model, &expert.occupancy, camera, sampler);
        for ((best, total_opacity), (_, transmittance)) in pixels.iter_mut().zip(layer) {
            let opacity = 1.0 - transmittance;
            *total_opacity += opacity;
            if best.is_none_or(|(_, b)| opacity > b) {
                *best = Some((e, opacity));
            }
        }
    }
    pixels
        .into_iter()
        // Background-dominated pixels absorb almost nothing.
        .map(|(best, total_opacity)| match best {
            Some((e, o)) if o > 0.2 && total_opacity > 0.3 => Some(e),
            _ => None,
        })
        .collect()
}

/// Trains a 4-expert MoE on the Room scene and prints the dominance
/// map.
pub fn run() {
    let scene = ProceduralScene::large(LargeScene::Room);
    let dataset = Dataset::from_scene(&scene, 5, 24, 0.9);
    let config = TrainerConfig {
        rays_per_batch: 64,
        sampler: SamplerConfig { steps_per_diagonal: 40, max_samples_per_ray: 28 },
        occupancy_resolution: 16,
        occupancy_update_interval: 24,
        occupancy_warmup: 60,
        background: Vec3::new(0.55, 0.7, 0.9),
        ..TrainerConfig::default()
    };
    let model_cfg = ModelConfig {
        grid: HashGridConfig {
            levels: 4,
            features_per_level: 2,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 32,
        },
        hidden_dim: 16,
        geo_feature_dim: 7,
    };
    let mut rng = SmallRng::seed_from_u64(2);
    let moe =
        MoeNerf::with_partitioned_gates(4, model_cfg, 16, config.occupancy_threshold, &mut rng);
    let mut trainer = MoeTrainer::new(moe, config);
    for _ in 0..300 {
        trainer.step(&dataset, &mut rng);
    }
    let moe = trainer.into_moe();

    let camera = dataset.views()[0].camera;
    let map = dominance_map(&moe, &camera, &config.sampler);
    println!("\n=== Fig. 8: per-pixel dominant expert (Room scene, 4 experts) ===");
    let w = camera.width() as usize;
    for row in map.chunks(w) {
        let line: String = row
            .iter()
            .map(|d| match d {
                Some(e) => char::from_digit(*e as u32, 10).unwrap_or('?'),
                None => '.',
            })
            .collect();
        println!("  {line}");
    }
    // Share of foreground pixels per expert.
    let mut counts = [0usize; 4];
    let mut fg = 0usize;
    for e in map.iter().flatten() {
        counts[*e] += 1;
        fg += 1;
    }
    if fg > 0 {
        println!("\nForeground share per expert:");
        for (e, c) in counts.iter().enumerate() {
            println!("  expert {e}: {:.0}%", 100.0 * *c as f64 / fg as f64);
        }
    }
    println!(
        "\nPaper reference: different experts automatically dominate different\n\
         regions, with some regions shared by two experts."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_map_has_frame_shape() {
        // An untrained MoE still produces a map of the right shape;
        // with symmetric random init no expert should own everything.
        let mut rng = SmallRng::seed_from_u64(1);
        let moe = MoeNerf::new(
            3,
            ModelConfig {
                grid: HashGridConfig {
                    levels: 2,
                    features_per_level: 2,
                    log2_table_size: 8,
                    base_resolution: 4,
                    max_resolution: 8,
                },
                hidden_dim: 8,
                geo_feature_dim: 3,
            },
            8,
            0.5,
            &mut rng,
        );
        let pose = fusion3d_nerf::camera::orbit_poses(Vec3::splat(0.5), 1.2, 1)[0];
        let camera = Camera::new(pose, 12, 12, 0.9);
        let sampler = SamplerConfig { steps_per_diagonal: 32, max_samples_per_ray: 16 };
        let map = dominance_map(&moe, &camera, &sampler);
        assert_eq!(map.len(), 144);
        for d in map.iter().flatten() {
            assert!(*d < 3);
        }
    }
}
