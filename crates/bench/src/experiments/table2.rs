//! Table II: rendering quality of INT8-quantized training at
//! different quantization frequencies.
//!
//! The paper trains Instant-NGP for 5000 iterations and quantizes all
//! weights every N iterations: never / 1000 / 200 / every iteration,
//! observing 31.7 / 30.1 / 26.0 / not-convergent PSNR. We run the same
//! protocol at reduced scale (the schedule periods scale with the
//! iteration budget) and print a shape verdict computed from the
//! measured numbers.

use crate::support::print_table;
use fusion3d_nerf::dataset::Dataset;
use fusion3d_nerf::encoding::HashGridConfig;
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::quant::{train_with_quantization, QuantSchedule};
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::scenes::{ProceduralScene, SyntheticScene};
use fusion3d_nerf::trainer::TrainerConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Iteration budget of the reduced-scale runs (the paper uses 5000).
pub const ITERATIONS: u32 = 240;

/// The schedules, scaled from the paper's {never, 1000, 200, 1} at
/// 5000 iterations to the reduced budget.
pub fn schedules() -> [QuantSchedule; 4] {
    [
        QuantSchedule::Never,
        QuantSchedule::Every(ITERATIONS / 5), // paper: 1000/5000
        QuantSchedule::Every(ITERATIONS / 25), // paper: 200/5000
        QuantSchedule::Every(1),
    ]
}

fn bench_model(rng: &mut SmallRng) -> NerfModel {
    NerfModel::new(
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
        },
        rng,
    )
}

fn bench_trainer_config() -> TrainerConfig {
    TrainerConfig {
        rays_per_batch: 96,
        sampler: SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: 32 },
        occupancy_resolution: 16,
        occupancy_update_interval: 24,
        occupancy_warmup: 48,
        ..TrainerConfig::default()
    }
}

/// One Table II row: PSNR per schedule, averaged over the scenes.
pub fn measure(scenes: &[SyntheticScene]) -> Vec<(QuantSchedule, f64, bool)> {
    let mut results = Vec::new();
    for schedule in schedules() {
        let mut psnr_sum = 0.0;
        let mut any_diverged = false;
        for (i, &scene) in scenes.iter().enumerate() {
            let dataset = Dataset::from_scene(&ProceduralScene::synthetic(scene), 5, 20, 0.9);
            let mut rng = SmallRng::seed_from_u64(42 + i as u64);
            let model = bench_model(&mut rng);
            let mut train_rng = SmallRng::seed_from_u64(7);
            let r = train_with_quantization(
                model,
                &dataset,
                bench_trainer_config(),
                schedule,
                ITERATIONS,
                &mut train_rng,
            );
            any_diverged |= r.diverged;
            if r.psnr.is_finite() {
                psnr_sum += r.psnr;
            }
        }
        results.push((schedule, psnr_sum / scenes.len() as f64, any_diverged));
    }
    results
}

/// The shape verdict under the table, computed from the PSNRs as
/// printed (one decimal); a diverged run counts as the worst.
fn verdict(results: &[(QuantSchedule, f64, bool)]) -> String {
    let printed: Vec<f64> = results
        .iter()
        .map(
            |&(_, psnr, diverged)| {
                if diverged {
                    f64::NEG_INFINITY
                } else {
                    (psnr * 10.0).round() / 10.0
                }
            },
        )
        .collect();
    let label = |k: usize| results[k].0.label();
    let Some(worst) = (0..results.len()).min_by(|&a, &b| printed[a].total_cmp(&printed[b])) else {
        return String::new();
    };
    let worst = if results[worst].2 {
        format!("{} does not converge.", label(worst))
    } else {
        format!(
            "{} is the worst schedule ({:+.1} dB vs {}).",
            label(worst),
            printed[worst] - printed[0],
            label(0)
        )
    };
    let shape = match (1..results.len()).find(|&k| printed[k] > printed[k - 1]) {
        None => "PSNR falls monotonically with quantization frequency.".to_string(),
        Some(k) => format!(
            "PSNR is not monotone in quantization frequency: {} reads {:.1} dB,\n\
             above {}'s {:.1} dB.",
            label(k),
            printed[k],
            label(k - 1),
            printed[k - 1]
        ),
    };
    format!("Measured here: {worst}\n{shape}")
}

/// Prints the Table II reproduction.
pub fn run() {
    let scenes = [SyntheticScene::Hotdog, SyntheticScene::Lego, SyntheticScene::Chair];
    let results = measure(&scenes);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|&(schedule, psnr, diverged)| {
            vec![
                schedule.label(),
                if diverged {
                    "degraded / not convergent".to_string()
                } else {
                    format!("{psnr:.1}")
                },
            ]
        })
        .collect();
    print_table(
        "Table II: PSNR with INT8-quantized training (reduced-scale protocol)",
        &["Quantization frequency", "PSNR (dB)"],
        &rows,
    );
    println!(
        "\nPaper reference at full scale: Never 31.7, 1000-iter 30.1 (-1.6),\n\
         200-iter 26.0 (-5.7), every-iteration not convergent.\n{}",
        verdict(&results)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_iteration_quantization_is_the_worst_schedule() {
        // One scene keeps the test quick. Table II's claim that holds
        // at this scale is that every-iteration quantization is the
        // worst schedule; the rarer ones need not degrade monotonically.
        let results = measure(&[SyntheticScene::Hotdog]);
        let never = results[0].1;
        let rare = results[1].1;
        let frequent = results[2].1;
        let every = results[3].1;
        assert!(never.is_finite() && never > 10.0, "baseline PSNR {never}");
        assert!(rare <= never + 0.3, "rare quantization should not beat float: {rare} vs {never}");
        assert!(
            every <= never - 0.5 || results[3].2,
            "per-iteration quantization must hurt: {every} vs {never}"
        );
        // The most frequent schedules sit at or below the rare one.
        assert!(every <= rare + 0.3, "every {every} vs rare {rare}");
        assert!(
            every < frequent || results[3].2,
            "per-iteration quantization must be the worst schedule: {every} vs {frequent}"
        );
    }
}
