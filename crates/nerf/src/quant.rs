//! INT8 quantization of model parameters and the quantized-training
//! experiment behind the paper's Table II.
//!
//! Table II shows that *training* cannot tolerate aggressive INT8
//! quantization: quantizing every iteration diverges, every 200
//! iterations costs ~5.7 dB, every 1000 iterations ~1.6 dB, while
//! quantizing only the final model is benign. This motivates the
//! accelerator's mixed-precision datapath (floating point for
//! training, Technique T2-2).

use crate::dataset::Dataset;
use crate::encoding::Encoding;
use crate::model::NerfModel;
use crate::trainer::{Trainer, TrainerConfig};
use rand::Rng;

/// How often training weights are quantized in the Table II sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantSchedule {
    /// Never quantize during training (quality reference).
    Never,
    /// Quantize all weights every `N` iterations.
    Every(u32),
}

impl QuantSchedule {
    /// Whether iteration `iter` triggers a quantization.
    pub fn triggers_at(self, iter: u32) -> bool {
        match self {
            QuantSchedule::Never => false,
            QuantSchedule::Every(n) => n > 0 && iter > 0 && iter.is_multiple_of(n),
        }
    }

    /// Human-readable label matching the paper's column headers.
    pub fn label(self) -> String {
        match self {
            QuantSchedule::Never => "Never".to_string(),
            QuantSchedule::Every(1) => "Every Iter.".to_string(),
            QuantSchedule::Every(n) => format!("{n} Iter."),
        }
    }
}

/// Symmetric per-tensor INT8 quantization: returns the scale such that
/// `value ≈ round(value / scale) * scale` with the quantized integer
/// in `[-127, 127]`.
///
/// An all-zero tensor returns scale 1 (any scale reproduces zeros).
pub fn int8_scale(values: &[f32]) -> f32 {
    let max = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max == 0.0 {
        1.0
    } else {
        max / 127.0
    }
}

/// Quantizes a tensor to INT8 and immediately dequantizes in place —
/// the "fake quantization" used to measure quality impact.
pub fn fake_quantize_int8(values: &mut [f32]) {
    let scale = int8_scale(values);
    for v in values.iter_mut() {
        let q = (*v / scale).round().clamp(-127.0, 127.0);
        *v = q * scale;
    }
}

/// Applies fake INT8 quantization to every parameter group of a model
/// (grid and both MLPs, each with its own scale) — the benign
/// *post-training* quantization used by the inference datapath.
pub fn quantize_model_int8<E: Encoding>(model: &mut NerfModel<E>) {
    fake_quantize_int8(model.grid_mut().params_mut());
    fake_quantize_int8(model.density_mlp_mut().params_mut());
    fake_quantize_int8(model.color_mlp_mut().params_mut());
}

/// Quantizes *all* weights with a single shared INT8 scale — the
/// Table II protocol ("quantize all the weights after every N
/// iteration"). A shared scale is what a uniform INT8 training
/// datapath implies, and it is what makes frequent quantization
/// destructive: the MLP weights (order 1) set the scale, so the
/// hash-grid features (order 10⁻⁴ early in training, 10⁻² later)
/// round toward zero and the field repeatedly loses what it learned.
pub fn quantize_model_int8_shared_scale<E: Encoding>(model: &mut NerfModel<E>) {
    let max = model
        .grid()
        .params()
        .iter()
        .chain(model.density_mlp().params())
        .chain(model.color_mlp().params())
        .fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
    let quantize = |values: &mut [f32]| {
        for v in values.iter_mut() {
            *v = (*v / scale).round().clamp(-127.0, 127.0) * scale;
        }
    };
    quantize(model.grid_mut().params_mut());
    quantize(model.density_mlp_mut().params_mut());
    quantize(model.color_mlp_mut().params_mut());
}

/// Result of one quantized-training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantTrainResult {
    /// The schedule used.
    pub schedule: QuantSchedule,
    /// Test PSNR after training (dB).
    pub psnr: f64,
    /// Whether training diverged (non-finite or absurd loss).
    pub diverged: bool,
}

/// Trains `model` with weights fake-quantized to INT8 on `schedule`,
/// returning the final PSNR on `dataset` — one cell of Table II.
///
/// Divergence is detected from non-finite losses or a final loss
/// worse than the starting loss by a large factor.
pub fn train_with_quantization<E: Encoding, R: Rng>(
    model: NerfModel<E>,
    dataset: &Dataset,
    config: TrainerConfig,
    schedule: QuantSchedule,
    iterations: u32,
    rng: &mut R,
) -> QuantTrainResult {
    let mut trainer = Trainer::new(model, config);
    let mut diverged = false;
    let mut first_loss = None;
    for i in 0..iterations {
        let stats = trainer.step(dataset, rng);
        if first_loss.is_none() {
            first_loss = Some(stats.loss);
        }
        if !stats.loss.is_finite() {
            diverged = true;
            break;
        }
        if schedule.triggers_at(i + 1) {
            quantize_model_int8_shared_scale(trainer.model_mut());
        }
    }
    // A quantized-training run deploys the quantized weights — the
    // final model is evaluated as the INT8 datapath would hold it.
    if !matches!(schedule, QuantSchedule::Never) {
        quantize_model_int8_shared_scale(trainer.model_mut());
    }
    let psnr = if diverged { f64::NEG_INFINITY } else { trainer.evaluate_psnr(dataset) };
    // A run that ends no better than it started counts as
    // non-convergent for Table II purposes.
    if let Some(first) = first_loss {
        if psnr.is_finite() && !diverged {
            let final_mse = 10f64.powf(-psnr / 10.0);
            if final_mse > first {
                diverged = true;
            }
        }
    }
    QuantTrainResult { schedule, psnr, diverged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::HashGridConfig;
    use crate::model::ModelConfig;
    use crate::scenes::{ProceduralScene, SyntheticScene};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_triggering() {
        assert!(!QuantSchedule::Never.triggers_at(100));
        assert!(QuantSchedule::Every(10).triggers_at(10));
        assert!(QuantSchedule::Every(10).triggers_at(20));
        assert!(!QuantSchedule::Every(10).triggers_at(15));
        assert!(!QuantSchedule::Every(10).triggers_at(0));
        assert!(QuantSchedule::Every(1).triggers_at(1));
    }

    #[test]
    fn schedule_labels() {
        assert_eq!(QuantSchedule::Never.label(), "Never");
        assert_eq!(QuantSchedule::Every(1).label(), "Every Iter.");
        assert_eq!(QuantSchedule::Every(200).label(), "200 Iter.");
    }

    #[test]
    fn int8_scale_covers_range() {
        assert_eq!(int8_scale(&[0.0, 0.0]), 1.0);
        let s = int8_scale(&[-2.54, 1.0]);
        assert!((s - 2.54 / 127.0).abs() < 1e-7);
    }

    #[test]
    fn fake_quantization_bounds_error() {
        let mut vals: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) / 37.0).collect();
        let orig = vals.clone();
        fake_quantize_int8(&mut vals);
        let scale = int8_scale(&orig);
        for (q, o) in vals.iter().zip(&orig) {
            assert!((q - o).abs() <= scale * 0.5 + 1e-6, "{q} vs {o}");
        }
        // Quantization is idempotent.
        let once = vals.clone();
        fake_quantize_int8(&mut vals);
        for (a, b) in once.iter().zip(&vals) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn quantizing_a_model_perturbs_but_preserves_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut model = NerfModel::new(
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
            &mut rng,
        );
        let before = model.param_count();
        quantize_model_int8(&mut model);
        assert_eq!(model.param_count(), before);
        assert!(model.grid().params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn frequent_quantization_hurts_quality() {
        // A miniature version of Table II: training with per-iteration
        // INT8 quantization must end up no better than training with
        // final-only quantization.
        let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
        let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
        let cfg = TrainerConfig {
            rays_per_batch: 48,
            occupancy_warmup: 1000, // keep the grid full for determinism
            ..TrainerConfig::default()
        };
        let model_cfg = ModelConfig {
            grid: HashGridConfig {
                levels: 3,
                features_per_level: 2,
                log2_table_size: 10,
                base_resolution: 4,
                max_resolution: 16,
            },
            hidden_dim: 16,
            geo_feature_dim: 3,
        };
        let iters = 80;
        let mut rng = SmallRng::seed_from_u64(7);
        let base_model = NerfModel::new(model_cfg, &mut rng);

        let mut rng_a = SmallRng::seed_from_u64(11);
        let never = train_with_quantization(
            base_model.clone(),
            &dataset,
            cfg,
            QuantSchedule::Never,
            iters,
            &mut rng_a,
        );
        let mut rng_b = SmallRng::seed_from_u64(11);
        let every = train_with_quantization(
            base_model,
            &dataset,
            cfg,
            QuantSchedule::Every(1),
            iters,
            &mut rng_b,
        );
        assert!(never.psnr.is_finite());
        assert!(
            every.diverged || every.psnr <= never.psnr + 0.2,
            "per-iteration quantization should not beat float training: {} vs {}",
            every.psnr,
            never.psnr
        );
    }
}
