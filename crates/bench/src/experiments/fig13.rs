//! Fig. 13: (a) MoE (4 small experts) versus one large model — PSNR
//! against training iterations on the Room scene; (b) PSNR and
//! required off-chip bandwidth for 2-second training across model
//! sizes.

use crate::experiments::fig3::paper_training_volume;
use crate::support::print_table;
use fusion3d_core::bandwidth::{bandwidth_for_model_size, USB_BANDWIDTH_GBS};
use fusion3d_multichip::moe::{MoeNerf, MoeTrainer};
use fusion3d_nerf::dataset::Dataset;
use fusion3d_nerf::encoding::HashGridConfig;
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::scenes::{LargeScene, ProceduralScene};
use fusion3d_nerf::trainer::{Trainer, TrainerConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn room_dataset() -> Dataset {
    Dataset::from_scene(&ProceduralScene::large(LargeScene::Room), 5, 20, 0.9)
}

fn trainer_config() -> TrainerConfig {
    TrainerConfig {
        rays_per_batch: 64,
        sampler: SamplerConfig { steps_per_diagonal: 40, max_samples_per_ray: 28 },
        occupancy_resolution: 14,
        occupancy_update_interval: 24,
        occupancy_warmup: 60,
        background: fusion3d_nerf::math::Vec3::new(0.55, 0.7, 0.9),
        ..TrainerConfig::default()
    }
}

fn model_config(log2_table: u32) -> ModelConfig {
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

/// A PSNR learning curve: `(iteration, psnr)` checkpoints.
pub type PsnrCurve = Vec<(u32, f64)>;

/// One Fig. 13(a) measurement: PSNR checkpoints over training for the
/// large single model (table size `2^large`) and an MoE of
/// `experts` small models (each `2^small`).
pub fn moe_vs_large(
    large: u32,
    small: u32,
    experts: usize,
    checkpoints: &[u32],
) -> (PsnrCurve, PsnrCurve) {
    let dataset = room_dataset();
    let cfg = trainer_config();

    let mut rng = SmallRng::seed_from_u64(11);
    let mut single = Trainer::new(NerfModel::new(model_config(large), &mut rng), cfg);
    let mut single_curve = Vec::new();
    let mut done = 0;
    for &cp in checkpoints {
        let mut step_rng = SmallRng::seed_from_u64(100 + cp as u64);
        for _ in done..cp {
            single.step(&dataset, &mut step_rng);
        }
        done = cp;
        single_curve.push((cp, single.evaluate_psnr(&dataset)));
    }

    let mut rng = SmallRng::seed_from_u64(12);
    let moe = MoeNerf::new(
        experts,
        model_config(small),
        cfg.occupancy_resolution,
        cfg.occupancy_threshold,
        &mut rng,
    );
    let mut moe_trainer = MoeTrainer::new(moe, cfg);
    let mut moe_curve = Vec::new();
    let mut done = 0;
    for &cp in checkpoints {
        let mut step_rng = SmallRng::seed_from_u64(200 + cp as u64);
        for _ in done..cp {
            moe_trainer.step(&dataset, &mut step_rng);
        }
        done = cp;
        moe_curve.push((cp, moe_trainer.evaluate_psnr(&dataset)));
    }
    (single_curve, moe_curve)
}

/// Prints the Fig. 13(a) reproduction.
pub fn run_fig13a() {
    let checkpoints = [40, 120, 240];
    let (single, moe) = moe_vs_large(12, 10, 4, &checkpoints);
    let mut body = Vec::new();
    for ((iter, s), (_, m)) in single.iter().zip(&moe) {
        body.push(vec![iter.to_string(), format!("{s:.2}"), format!("{m:.2}")]);
    }
    print_table(
        "Fig. 13(a): PSNR vs training iterations on the Room scene",
        &["Iteration", "Single 2^12", "MoE 4 x 2^10"],
        &body,
    );
    println!(
        "\nPaper reference: the MoE of four small experts matches the single\n\
         large model's convergence (hash 4 x 2^14 vs 2^16)."
    );
}

/// Prints the Fig. 13(b) reproduction: bandwidth across model sizes at
/// paper scale, plus measured PSNR at three reduced-scale sizes.
pub fn run_fig13b() {
    // Bandwidth at paper scale, with the chip's 640 KB hash SRAM.
    let volume = paper_training_volume();
    let sram_bytes = 640 * 1024u64;
    let mut body = Vec::new();
    for log2 in [13u32, 14, 15, 16, 17, 18, 19] {
        let params = (1u64 << log2) * 10 * 2 * 2; // 10 levels, F=2, f16 storage
        let point = bandwidth_for_model_size(&volume, params, sram_bytes, 2.0);
        body.push(vec![
            format!("2^{log2}"),
            format!("{:.1} KB", params as f64 / 1024.0),
            if point.fits_on_chip { "yes".into() } else { "no".into() },
            format!("{:.2}", point.bandwidth_gbs),
        ]);
    }
    print_table(
        "Fig. 13(b): required off-chip bandwidth for 2 s training vs model size",
        &["Table size", "Params", "Fits on-chip", "BW (GB/s)"],
        &body,
    );
    println!(
        "\nUSB budget: {USB_BANDWIDTH_GBS} GB/s. With the on-chip configuration every\n\
         hash table is resident and the requirement stays at ~0.4-0.6 GB/s; prior\n\
         stage-partitioned designs at 2^16+2^18 need >40 GB/s (76% higher than ours)."
    );

    // Reduced-scale PSNR trend across model sizes.
    let dataset = room_dataset();
    let cfg = trainer_config();
    let mut rows = Vec::new();
    for log2 in [9u32, 11, 13] {
        let mut rng = SmallRng::seed_from_u64(31);
        let mut trainer = Trainer::new(NerfModel::new(model_config(log2), &mut rng), cfg);
        let mut step_rng = SmallRng::seed_from_u64(32);
        for _ in 0..160 {
            trainer.step(&dataset, &mut step_rng);
        }
        rows.push(vec![format!("2^{log2}"), format!("{:.2}", trainer.evaluate_psnr(&dataset))]);
    }
    print_table(
        "Fig. 13(b) inset: PSNR vs model size (reduced-scale training)",
        &["Table size", "PSNR (dB)"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moe_matches_single_large_model() {
        // Short-budget version of Fig. 13(a): after the same number of
        // iterations, the 4-expert MoE's PSNR is within 2 dB of the
        // single larger model (paper: comparable convergence). The
        // tolerance leaves headroom for the vendored RNG's stream
        // (see vendor/README.md), which shifts this margin slightly.
        let (single, moe) = moe_vs_large(11, 9, 4, &[80]);
        let s = single[0].1;
        let m = moe[0].1;
        assert!(s.is_finite() && m.is_finite());
        assert!(m > s - 2.0, "MoE ({m:.2} dB) should track the large model ({s:.2} dB)");
    }

    #[test]
    fn bandwidth_knee_at_sram_capacity() {
        let volume = paper_training_volume();
        let sram = 640 * 1024u64;
        let small = bandwidth_for_model_size(&volume, (1u64 << 13) * 40, sram, 2.0);
        let large = bandwidth_for_model_size(&volume, (1u64 << 19) * 40, sram, 2.0);
        assert!(small.fits_on_chip);
        assert!(small.bandwidth_gbs < USB_BANDWIDTH_GBS);
        assert!(!large.fits_on_chip);
        assert!(large.bandwidth_gbs > 10.0);
    }
}
