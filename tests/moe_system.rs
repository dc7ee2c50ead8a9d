//! Integration tests of the multi-chip path: MoE training, expert
//! specialization, system simulation, and the scalability claims.

use fusion3d::multichip::comm::{layer_split_bytes, moe_bytes, FrameWorkload};
use fusion3d::multichip::moe::{MoeNerf, MoeTrainer};
use fusion3d::multichip::system::{MultiChipConfig, MultiChipSystem};
use fusion3d::nerf::encoding::HashGridConfig;
use fusion3d::nerf::{
    Dataset, LargeScene, ModelConfig, ProceduralScene, SamplerConfig, TrainerConfig, Vec3,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn expert_config() -> ModelConfig {
    ModelConfig {
        grid: HashGridConfig {
            levels: 3,
            features_per_level: 2,
            log2_table_size: 9,
            base_resolution: 4,
            max_resolution: 16,
        },
        hidden_dim: 12,
        geo_feature_dim: 3,
    }
}

fn moe_trainer_config() -> TrainerConfig {
    TrainerConfig {
        rays_per_batch: 48,
        sampler: SamplerConfig { steps_per_diagonal: 40, max_samples_per_ray: 24 },
        occupancy_resolution: 12,
        occupancy_update_interval: 20,
        occupancy_warmup: 40,
        background: Vec3::new(0.55, 0.7, 0.9),
        ..TrainerConfig::default()
    }
}

/// MoE training on a large scene converges and the per-expert
/// occupancy grids diverge from full coverage (the gating
/// specialization of Fig. 8).
#[test]
fn moe_trains_and_experts_specialize() {
    let scene = ProceduralScene::large(LargeScene::Room);
    let dataset = Dataset::from_scene(&scene, 4, 18, 0.9);
    let mut rng = SmallRng::seed_from_u64(1);
    let moe = MoeNerf::new(3, expert_config(), 12, 0.5, &mut rng);
    let mut trainer = MoeTrainer::new(moe, moe_trainer_config());

    let first: f64 = (0..3).map(|_| trainer.step(&dataset, &mut rng)).sum::<f64>() / 3.0;
    for _ in 0..160 {
        trainer.step(&dataset, &mut rng);
    }
    let last: f64 = (0..3).map(|_| trainer.step(&dataset, &mut rng)).sum::<f64>() / 3.0;
    assert!(last < first * 0.7, "MoE loss should fall: {first:.4} -> {last:.4}");

    let moe = trainer.into_moe();
    for (i, expert) in moe.experts().iter().enumerate() {
        let ratio = expert.occupancy.occupancy_ratio();
        assert!(ratio < 1.0, "expert {i} never pruned its gate");
        assert!(ratio > 0.0, "expert {i} pruned everything");
    }
}

/// The trained MoE's per-chip workloads drive the four-chip system to
/// a complete, energy-accounted report, and the fused communication is
/// a tiny fraction of a layer-split mapping's.
#[test]
fn multichip_system_runs_trained_moe_workloads() {
    let scene = ProceduralScene::large(LargeScene::Counter);
    let dataset = Dataset::from_scene(&scene, 3, 16, 0.9);
    let mut rng = SmallRng::seed_from_u64(2);
    let moe = MoeNerf::new(4, expert_config(), 12, 0.5, &mut rng);
    let mut trainer = MoeTrainer::new(moe, moe_trainer_config());
    for _ in 0..100 {
        trainer.step(&dataset, &mut rng);
    }
    let moe = trainer.into_moe();

    let camera = dataset.views()[0].camera;
    let per_chip = moe.per_chip_workloads(&camera, &moe_trainer_config().sampler);
    assert_eq!(per_chip.len(), 4);

    let system = MultiChipSystem::fusion3d();
    let inference = system.simulate(&per_chip, false);
    let training = system.simulate(&per_chip, true);
    assert!(inference.total_seconds > 0.0);
    assert!(training.total_seconds > inference.total_seconds);
    assert!(inference.energy_j > 0.0);
    assert!(inference.imbalance() >= 1.0);

    let samples: u64 = per_chip.iter().map(|trace| trace.total_samples).sum();
    let workload =
        FrameWorkload { rays: camera.pixel_count(), samples, feature_dim: 6, training: false };
    assert!(moe_bytes(&workload, 4) * 5 < layer_split_bytes(&workload, 4));
}

/// The multi-chip resource claims compose from the single chip plus
/// the published I/O-module overheads (Table IV envelope).
#[test]
fn system_resources_compose_from_chips() {
    let cfg = MultiChipConfig::fusion3d();
    let single_area = cfg.chip.die_area_mm2;
    let single_sram = cfg.chip.total_sram_kb();
    assert!(cfg.total_area_mm2() > 4.0 * single_area);
    assert!(cfg.total_area_mm2() < 4.1 * single_area);
    assert!(cfg.total_sram_kb() > 4.0 * single_sram);
    assert!(cfg.total_power_w() < 4.0 * cfg.chip.typical_power_w + 0.2);
    // The whole system stays inside the AR/VR power envelope (~8 W).
    assert!(cfg.total_power_w() < 8.0);
}

/// Scaling the chip count: more chips raise capacity linearly while
/// the MoE fusion traffic stays per-ray, so communication grows only
/// linearly in chips (not in samples).
#[test]
fn moe_scales_with_chip_count() {
    let w = FrameWorkload { rays: 10_000, samples: 500_000, feature_dim: 20, training: false };
    let two = moe_bytes(&w, 2);
    let four = moe_bytes(&w, 4);
    let eight = moe_bytes(&w, 8);
    assert_eq!(four, 2 * two);
    assert_eq!(eight, 2 * four);
    // Layer-split traffic scales with samples and chips.
    assert!(layer_split_bytes(&w, 8) > layer_split_bytes(&w, 4));
}
