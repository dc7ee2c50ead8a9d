//! Cross-crate integration tests: the complete flow from procedural
//! scene through training, rendering, and the chip simulator, checking
//! the paper's headline claims at reproduction scale.

use fusion3d::core::bandwidth::{required_bandwidth_gbs, DesignBoundary, USB_BANDWIDTH_GBS};
use fusion3d::core::chip::FusionChip;
use fusion3d::nerf::encoding::HashGridConfig;
use fusion3d::nerf::pipeline::trace_frame;
use fusion3d::nerf::trainer::estimate_step_volume;
use fusion3d::nerf::{
    DataVolume, Dataset, ModelConfig, NerfModel, ProceduralScene, SamplerConfig, SyntheticScene,
    Trainer, TrainerConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn small_config() -> ModelConfig {
    ModelConfig {
        grid: HashGridConfig {
            levels: 4,
            features_per_level: 2,
            log2_table_size: 11,
            base_resolution: 4,
            max_resolution: 32,
        },
        hidden_dim: 16,
        geo_feature_dim: 7,
    }
}

fn small_model(seed: u64) -> NerfModel {
    NerfModel::new(small_config(), &mut SmallRng::seed_from_u64(seed))
}

fn quick_config() -> TrainerConfig {
    TrainerConfig {
        rays_per_batch: 96,
        sampler: SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: 32 },
        occupancy_resolution: 16,
        occupancy_update_interval: 24,
        occupancy_warmup: 48,
        ..TrainerConfig::default()
    }
}

/// Training a compact field on a procedural scene reaches a PSNR that
/// clearly separates signal from noise, and the learned occupancy grid
/// prunes empty space.
#[test]
fn training_reconstructs_a_scene() {
    let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
    let dataset = Dataset::from_scene(&scene, 6, 24, 0.9);
    let mut trainer = Trainer::new(small_model(1), quick_config());
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..300 {
        trainer.step(&dataset, &mut rng);
    }
    let psnr = trainer.evaluate_psnr(&dataset);
    assert!(psnr > 18.0, "reconstruction PSNR too low: {psnr:.2} dB");
    let occ = trainer.occupancy().occupancy_ratio();
    assert!(occ < 0.6, "occupancy grid failed to prune: {occ:.2}");
}

/// The trained pipeline's Stage-I workload replayed through the chip
/// simulator sustains the paper-class throughput and meets the
/// real-time bar when scaled to 800x800.
#[test]
fn trained_workload_meets_realtime_on_chip() {
    let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
    let dataset = Dataset::from_scene(&scene, 4, 24, 0.9);
    let mut trainer = Trainer::new(small_model(3), quick_config());
    let mut rng = SmallRng::seed_from_u64(4);
    for _ in 0..200 {
        trainer.step(&dataset, &mut rng);
    }
    let view = &dataset.views()[0];
    let trace = trace_frame(trainer.occupancy(), &view.camera, &trainer.config().sampler);
    assert!(trace.total_samples > 0);

    let chip = FusionChip::scaled_up();
    let report = chip.simulate_frame(&trace);
    // Scale frame time to 800x800.
    let scale = 800.0 * 800.0 / trace.ray_count() as f64;
    let fps = 1.0 / (report.seconds * scale);
    assert!(fps > 30.0, "real-time bar missed: {fps:.1} FPS");
    // Sustained throughput in the hundreds of M pts/s.
    assert!(
        report.points_per_second() > 1.0e8,
        "sustained {:.1} M pts/s",
        report.points_per_second() / 1e6
    );
}

/// The instant-training claim: at the simulated chip's training rate,
/// a paper-scale training run (≈ 400 M samples to 25 PSNR) finishes
/// within the 2-second budget.
#[test]
fn instant_training_budget_holds() {
    let chip = FusionChip::scaled_up();
    let samples_to_quality = 398e6;
    let seconds = samples_to_quality / chip.peak_training_points_per_second();
    assert!(seconds <= 2.05, "training takes {seconds:.2} s");
}

/// The bandwidth claim: the end-to-end boundary of a real (small)
/// training run fits USB with margin, while every partial design
/// boundary exceeds it once scaled to the paper's 2-second schedule.
#[test]
fn end_to_end_boundary_fits_usb() {
    let scene = ProceduralScene::synthetic(SyntheticScene::Chair);
    let dataset = Dataset::from_scene(&scene, 4, 20, 0.9);
    let mut trainer = Trainer::new(small_model(5), quick_config());
    let mut rng = SmallRng::seed_from_u64(6);
    let mut volume = DataVolume::default();
    for _ in 0..120 {
        let stats = trainer.step(&dataset, &mut rng);
        volume =
            volume + estimate_step_volume(&small_config(), stats.rays as u64, stats.samples as u64);
    }
    // End-to-end I/O: the training images in (RGB f32 pixels plus 12
    // floats of camera pose per view) and the trained parameters out.
    volume.end_to_end_io = dataset.total_rays() * 12
        + dataset.views().len() as u64 * 48
        + trainer.model().param_count() as u64 * 4;

    // Scale the measured run to the paper's sample budget.
    let scale = 398e6 / (120.0 * 96.0 * 20.0); // paper samples / run samples
    let scaled = fusion3d::nerf::DataVolume {
        stage1_to_stage2: (volume.stage1_to_stage2 as f64 * scale) as u64,
        stage2_internal: (volume.stage2_internal as f64 * scale) as u64,
        stage2_to_stage3: (volume.stage2_to_stage3 as f64 * scale) as u64,
        stage3_internal: (volume.stage3_internal as f64 * scale) as u64,
        end_to_end_io: volume.end_to_end_io, // images + params do not scale with steps
    };
    let e2e = required_bandwidth_gbs(DesignBoundary::EndToEnd.offchip_bytes(&scaled), 2.0);
    assert!(e2e < USB_BANDWIDTH_GBS, "end-to-end needs {e2e:.3} GB/s");
    for boundary in [DesignBoundary::Stage2, DesignBoundary::Stages23, DesignBoundary::Stages12] {
        let bw = required_bandwidth_gbs(boundary.offchip_bytes(&scaled), 2.0);
        assert!(
            bw > USB_BANDWIDTH_GBS,
            "{} unexpectedly fits USB at {bw:.3} GB/s",
            boundary.label()
        );
    }
}

/// Rendering through the pipeline agrees with the algorithm substrate:
/// the same model and occupancy grid produce identical images whether
/// driven from the trainer or the standalone pipeline entry point.
#[test]
fn pipeline_and_trainer_render_identically() {
    let scene = ProceduralScene::synthetic(SyntheticScene::Mic);
    let dataset = Dataset::from_scene(&scene, 3, 16, 0.9);
    let mut trainer = Trainer::new(small_model(7), quick_config());
    let mut rng = SmallRng::seed_from_u64(8);
    for _ in 0..60 {
        trainer.step(&dataset, &mut rng);
    }
    let camera = dataset.views()[1].camera;
    let a = trainer.render(&camera);
    let cfg = fusion3d::nerf::PipelineConfig {
        sampler: trainer.config().sampler,
        background: trainer.config().background,
        early_stop: true,
    };
    let (model, occupancy) = trainer.into_parts();
    let b = fusion3d::nerf::render_image(&model, &occupancy, &camera, &cfg);
    assert_eq!(a.pixels(), b.pixels());
}
