//! Chip-count scaling: the multi-chip system "flexibly adapts to
//! varying numbers of chips" (Sec. V-A, Fig. 8 top row), and the
//! convergent PSNR improves with the number of experts (Fig. 13(a)).

use crate::support::{large_scene_occupancy, print_table, trace_camera, trace_sampler, TRACE_RES};
use fusion3d_multichip::moe::{partition_occupancy, MoeNerf, MoeTrainer};
use fusion3d_multichip::system::{MultiChipConfig, MultiChipSystem};
use fusion3d_nerf::dataset::Dataset;
use fusion3d_nerf::encoding::HashGridConfig;
use fusion3d_nerf::model::ModelConfig;
use fusion3d_nerf::pipeline::{trace_frame, FrameTrace};
use fusion3d_nerf::scenes::{LargeScene, ProceduralScene};
use fusion3d_nerf::trainer::TrainerConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Resource and performance envelope of an `n`-chip system on a large
/// scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Compute chips.
    pub chips: usize,
    /// Total area in mm².
    pub area_mm2: f64,
    /// Total power in watts.
    pub power_w: f64,
    /// Total model capacity in KB (per-chip hash SRAM × chips).
    pub capacity_kb: f64,
    /// System frame time on the probe scene, seconds.
    pub frame_seconds: f64,
}

/// Sweeps the system across chip counts on one large scene.
pub fn sweep_chips(scene: LargeScene, counts: &[usize]) -> Vec<ScalePoint> {
    let full = large_scene_occupancy(scene);
    let camera = trace_camera(TRACE_RES);
    let sampler = trace_sampler();
    counts
        .iter()
        .map(|&n| {
            let config = MultiChipConfig { chips: n, ..MultiChipConfig::fusion3d() };
            let system = MultiChipSystem::new(config.clone());
            let per_chip: Vec<FrameTrace> = partition_occupancy(&full, n)
                .iter()
                .map(|gate| trace_frame(gate, &camera, &sampler))
                .collect();
            let report = system.simulate(&per_chip, false);
            ScalePoint {
                chips: n,
                area_mm2: config.total_area_mm2(),
                power_w: config.total_power_w(),
                capacity_kb: 640.0 * n as f64,
                frame_seconds: report.total_seconds,
            }
        })
        .collect()
}

/// Trains MoEs of 1, 2, and 4 experts (same per-expert size) on the
/// Room scene, returning `(experts, psnr)` — the Fig. 13(a) claim that
/// more experts converge to a higher PSNR.
pub fn psnr_vs_expert_count(iterations: u32) -> Vec<(usize, f64)> {
    let scene = ProceduralScene::large(LargeScene::Room);
    let dataset = Dataset::from_scene(&scene, 5, 20, 0.9);
    let config = TrainerConfig {
        rays_per_batch: 64,
        sampler: fusion3d_nerf::sampler::SamplerConfig {
            steps_per_diagonal: 40,
            max_samples_per_ray: 28,
        },
        occupancy_resolution: 16,
        occupancy_update_interval: 24,
        occupancy_warmup: 60,
        background: fusion3d_nerf::math::Vec3::new(0.55, 0.7, 0.9),
        ..TrainerConfig::default()
    };
    let per_expert = ModelConfig {
        grid: HashGridConfig {
            levels: 4,
            features_per_level: 2,
            log2_table_size: 9,
            base_resolution: 4,
            max_resolution: 32,
        },
        hidden_dim: 16,
        geo_feature_dim: 7,
    };
    [1usize, 2, 4]
        .iter()
        .map(|&n| {
            let mut rng = SmallRng::seed_from_u64(50 + n as u64);
            let moe = if n == 1 {
                MoeNerf::new(1, per_expert, 16, config.occupancy_threshold, &mut rng)
            } else {
                MoeNerf::with_partitioned_gates(
                    n,
                    per_expert,
                    16,
                    config.occupancy_threshold,
                    &mut rng,
                )
            };
            let mut trainer = MoeTrainer::new(moe, config);
            let mut step_rng = SmallRng::seed_from_u64(60);
            for _ in 0..iterations {
                trainer.step(&dataset, &mut step_rng);
            }
            (n, trainer.evaluate_psnr(&dataset))
        })
        .collect()
}

/// Prints the scaling study.
pub fn run() {
    let points = sweep_chips(LargeScene::Garden, &[1, 2, 4, 8]);
    let body: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.chips.to_string(),
                format!("{:.1}", p.area_mm2),
                format!("{:.1}", p.power_w),
                format!("{:.0}", p.capacity_kb),
                format!("{:.2}", p.frame_seconds * 1e3),
            ]
        })
        .collect();
    print_table(
        "Chip-count scaling on the garden scene",
        &["Chips", "Area mm^2", "Power W", "Capacity KB", "Frame ms"],
        &body,
    );
    println!(
        "\nEach added chip brings its own model capacity at linear area/power\n\
         while frame time stays near-flat (compute shrinks per chip; only the\n\
         per-ray fusion traffic grows) — the alternative to a larger die whose\n\
         yield drops and bandwidth balloons (Sec. II-D)."
    );

    let psnr = psnr_vs_expert_count(260);
    let body: Vec<Vec<String>> =
        psnr.iter().map(|(n, p)| vec![n.to_string(), format!("{p:.2}")]).collect();
    print_table(
        "Convergent PSNR vs expert count (Room scene, equal per-expert size)",
        &["Experts", "PSNR (dB)"],
        &body,
    );
    println!("\nPaper reference (Fig. 13(a)): PSNR improves with the number of experts.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resources_scale_linearly_with_chips() {
        let points = sweep_chips(LargeScene::Room, &[1, 2, 4]);
        assert!((points[1].area_mm2 / points[0].area_mm2 - 2.0).abs() < 0.05);
        assert!(points[1].power_w > 1.8 * points[0].power_w);
        assert_eq!(points[2].capacity_kb, 4.0 * points[0].capacity_kb);
        // Per-chip gates shrink with more chips, so compute stays
        // roughly flat; the added pixel-fusion traffic grows only
        // per-ray. Frame time must stay within ~1.6x of one chip while
        // capacity quadruples.
        assert!(
            points[2].frame_seconds <= points[0].frame_seconds * 1.6,
            "4-chip frame {} vs 1-chip {}",
            points[2].frame_seconds,
            points[0].frame_seconds
        );
    }

    #[test]
    fn more_experts_do_not_lose_quality() {
        // Short-budget version of the Fig. 13(a) claim: with equal
        // per-expert capacity, 4 experts end at least as high as 1.
        let psnr = psnr_vs_expert_count(100);
        let one = psnr[0].1;
        let four = psnr[2].1;
        assert!(one.is_finite() && four.is_finite());
        assert!(four > one - 0.75, "4 experts ({four:.2} dB) should match or beat 1 ({one:.2} dB)");
    }
}
