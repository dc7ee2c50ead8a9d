//! Large-scale scenes on the four-chip Mixture-of-Experts system.
//!
//! Trains a four-expert MoE NeRF (the Technique T3 model — one
//! complete small model per chip, fused by pixel addition) on a
//! NeRF-360-class procedural scene, compares it against a single model
//! of the same total capacity, and then simulates the four-chip
//! system's performance and communication on the trained gates.
//!
//! ```text
//! cargo run --release --example large_scene_moe
//! ```

use fusion3d::multichip::comm::{layer_split_bytes, moe_bytes, FrameWorkload};
use fusion3d::multichip::moe::{MoeNerf, MoeTrainer};
use fusion3d::multichip::system::MultiChipSystem;
use fusion3d::nerf::encoding::HashGridConfig;
use fusion3d::nerf::{
    Dataset, LargeScene, ModelConfig, NerfModel, ProceduralScene, SamplerConfig, Trainer,
    TrainerConfig, Vec3,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn expert_config(log2_table: u32) -> ModelConfig {
    ModelConfig {
        grid: HashGridConfig {
            levels: 4,
            features_per_level: 2,
            log2_table_size: log2_table,
            base_resolution: 4,
            max_resolution: 32,
        },
        hidden_dim: 16,
        geo_feature_dim: 7,
    }
}

fn main() {
    let scene = ProceduralScene::large(LargeScene::Room);
    let dataset = Dataset::from_scene(&scene, 6, 24, 0.9);
    let config = TrainerConfig {
        rays_per_batch: 64,
        sampler: SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: 32 },
        occupancy_resolution: 16,
        occupancy_update_interval: 24,
        occupancy_warmup: 60,
        background: Vec3::new(0.55, 0.7, 0.9),
        ..TrainerConfig::default()
    };
    let iterations = 300;

    // Single large model: hash tables of 2^12 entries.
    let mut rng = SmallRng::seed_from_u64(1);
    let mut single = Trainer::new(NerfModel::new(expert_config(12), &mut rng), config);
    for _ in 0..iterations {
        single.step(&dataset, &mut rng);
    }
    let single_psnr = single.evaluate_psnr(&dataset);
    println!("Single 2^12 model:   PSNR {single_psnr:.2} dB");

    // MoE: four experts with 2^10 tables each (same total capacity).
    let mut rng = SmallRng::seed_from_u64(2);
    let moe = MoeNerf::new(4, expert_config(10), 16, config.occupancy_threshold, &mut rng);
    println!(
        "MoE 4 x 2^10 model:  {} parameters across {} experts",
        moe.param_count(),
        moe.expert_count()
    );
    let mut trainer = MoeTrainer::new(moe, config);
    for _ in 0..iterations {
        trainer.step(&dataset, &mut rng);
    }
    let moe_psnr = trainer.evaluate_psnr(&dataset);
    println!("MoE 4 x 2^10 model:  PSNR {moe_psnr:.2} dB (Δ {:+.2} dB)", moe_psnr - single_psnr);

    // Expert specialization: per-expert occupancy after training.
    let moe = trainer.into_moe();
    for (i, expert) in moe.experts().iter().enumerate() {
        println!(
            "  expert {i}: occupancy {:.0}% of the model cube",
            expert.occupancy.occupancy_ratio() * 100.0
        );
    }

    // Simulate the four-chip system on the trained gates.
    let system = MultiChipSystem::fusion3d();
    let view = &dataset.views()[0];
    let per_chip = moe.per_chip_workloads(&view.camera, &config.sampler);
    let report = system.simulate(&per_chip, false);
    println!(
        "\nFour-chip inference: {:.2} ms/frame at this resolution, imbalance {:.2}, \
         {:.1} uJ/frame",
        report.total_seconds * 1e3,
        report.imbalance(),
        report.energy_j * 1e6
    );

    // Communication: MoE Level-1 tiling vs a layer-split mapping.
    let workload = FrameWorkload {
        rays: view.camera.pixel_count(),
        samples: per_chip.iter().map(|trace| trace.total_samples).sum(),
        feature_dim: 8,
        training: false,
    };
    let moe_traffic = moe_bytes(&workload, 4);
    let split_traffic = layer_split_bytes(&workload, 4);
    println!(
        "Chip-to-chip traffic: MoE {:.1} KB vs layer-split {:.1} KB ({:.0}% saving)",
        moe_traffic as f64 / 1024.0,
        split_traffic as f64 / 1024.0,
        (1.0 - moe_traffic as f64 / split_traffic as f64) * 100.0
    );
}
