//! Sec. VI-C ablations without their own table/figure number: the T2
//! shared-pipeline and FIEM study, the per-stage speedup breakdown,
//! and the TensoRF transfer study.

use crate::support::{for_each_scene, print_table, scene_trace};
use fusion3d_arith::cost::{compare_fiem, WEIGHT_BITS};
use fusion3d_baselines::devices;
use fusion3d_core::chip::FusionChip;
use fusion3d_core::interp::{reconfigured_area_fraction, shared_area_fraction, DATAPATH_BLOCKS};
use fusion3d_core::transfer::tensorf_savings;
use fusion3d_nerf::scenes::SyntheticScene;

/// Prints the Technique T2 ablation (shared pipeline + FIEM).
pub fn run_t2() {
    println!("\n=== Ablation: Technique T2 (shared pipeline & FIEM) ===");
    let body: Vec<Vec<String>> = DATAPATH_BLOCKS
        .iter()
        .map(|b| {
            vec![
                b.name.to_string(),
                format!("{:.1}%", b.area_fraction * 100.0),
                if b.directly_shared { "shared" } else { "reconfigured" }.to_string(),
            ]
        })
        .collect();
    print_table("Stage II datapath sharing", &["Block", "Area", "Mode"], &body);
    println!(
        "\nDirectly shared: {:.1}% of Stage II area; reused via reconfiguration: {:.1}%\n(paper: 87.4% / 12.6%).",
        shared_area_fraction() * 100.0,
        reconfigured_area_fraction() * 100.0
    );
    let cmp = compare_fiem(WEIGHT_BITS);
    println!(
        "\nFIEM vs INT2FP+FPMUL at {WEIGHT_BITS}-bit weights: {:.0}% area saving, {:.0}% power saving\n(paper: 55% / 65%).",
        cmp.area_saving * 100.0,
        cmp.power_saving * 100.0
    );

    // T2-1 TDM: the inference task co-scheduled into training's idle
    // memory slot renders a live preview "for free".
    use fusion3d_core::interp::InterpModuleConfig;
    let interp = InterpModuleConfig::fusion3d(10, 10);
    let chip = fusion3d_core::config::ChipConfig::scaled_up();
    let tdm_pts = interp.tdm_inference_points_per_cycle() * chip.cycles_per_second();
    let preview_fps = tdm_pts / (800.0 * 800.0 * 13.0);
    println!(
        "\nTDM co-scheduling (Fig. 6(c)): while training at full rate, the idle\n\
         memory slots host {:.0} M inference points/s — a {preview_fps:.0}-FPS live\n\
         800x800 preview at zero cost to training throughput.",
        tdm_pts / 1e6
    );
}

/// Prints the per-stage speedup breakdown versus the Jetson XNX.
pub fn run_breakdown() {
    println!("\n=== Ablation: speedup breakdown vs Nvidia Jetson XNX ===");
    let chip = FusionChip::scaled_up();
    let xnx = devices::jetson_xnx();
    let per_scene = for_each_scene(&SyntheticScene::ALL, |scene| {
        let trace = scene_trace(scene);
        (
            chip.simulate_frame(&trace).points_per_second(),
            chip.simulate_training_step(&trace).points_per_second(),
        )
    });
    let inf = per_scene.iter().map(|&(i, _)| i).sum::<f64>() / SyntheticScene::ALL.len() as f64;
    let train = per_scene.iter().map(|&(_, t)| t).sum::<f64>() / SyntheticScene::ALL.len() as f64;
    let inf_speedup = inf / (xnx.inference_mpts.unwrap_or(1.0) * 1e6);
    let train_speedup = train / (xnx.training_mpts.unwrap_or(1.0) * 1e6);
    println!(
        "All stages are rate-matched by construction (cores per stage sized to\n\
         Stage II's point rate), so every stage carries the same speedup:\n\
         inference {inf_speedup:.0}x, training {train_speedup:.0}x (paper: 47x and 76x)."
    );
}

/// Prints the TensoRF transfer ablation.
pub fn run_transfer() {
    println!("\n=== Ablation: transferring modules to TensoRF (RT-NeRF) ===");
    let s = tensorf_savings();
    println!(
        "Replacing RT-NeRF's sampling and post-processing modules with this\n\
         work's (keeping its feature module): {:.0}% power and {:.0}% area\n\
         reduction (paper: 39% / 11%). The MoE Level-1 tiling applies to any\n\
         pipeline with an additive output stage; the paper measures a -0.5 PSNR\n\
         cost for 4 x 128^3 TensoRF experts vs one 4 x larger model.",
        s.power * 100.0,
        s.area * 100.0
    );
}

/// Trains TensoRF-class dense-grid models — one large versus an MoE of
/// four small experts — returning `(single_psnr, moe_psnr)`. The
/// paper reports a −0.5 dB difference for 4 × 128³ experts against a
/// single 4×-larger model; this runs the same comparison at reduced
/// scale.
pub fn dense_moe_comparison(iterations: u32) -> (f64, f64) {
    use fusion3d_multichip::moe::{Expert, MoeNerf, MoeTrainer};
    use fusion3d_nerf::dataset::Dataset;
    use fusion3d_nerf::dense_grid::{DenseGrid, DenseGridConfig};
    use fusion3d_nerf::model::NerfModel;
    use fusion3d_nerf::occupancy::OccupancyGrid;
    use fusion3d_nerf::sampler::SamplerConfig;
    use fusion3d_nerf::scenes::ProceduralScene;
    use fusion3d_nerf::trainer::{Trainer, TrainerConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
    let dataset = Dataset::from_scene(&scene, 4, 20, 0.9);
    let config = TrainerConfig {
        rays_per_batch: 64,
        sampler: SamplerConfig { steps_per_diagonal: 40, max_samples_per_ray: 28 },
        occupancy_resolution: 14,
        occupancy_update_interval: 24,
        occupancy_warmup: 48,
        ..TrainerConfig::default()
    };

    // Single large dense grid: ~4x the parameters of one expert.
    let mut rng = SmallRng::seed_from_u64(21);
    let large = DenseGrid::with_random_init(
        DenseGridConfig { resolution: 25, features_per_vertex: 4 },
        &mut rng,
    );
    let mut single = Trainer::new(NerfModel::with_encoding(large, 16, 7, &mut rng), config);
    let mut step_rng = SmallRng::seed_from_u64(22);
    for _ in 0..iterations {
        single.step(&dataset, &mut step_rng);
    }
    let single_psnr = single.evaluate_psnr(&dataset);

    // MoE of four small dense experts, each scoped to one XZ quadrant
    // (with a margin) so its vertex budget concentrates there — how a
    // dense-grid MoE recovers the single model's resolution. The gates
    // are the quadrants; they are kept static (a dense expert has no
    // collision-driven self-pruning).
    let margin = 0.1f32;
    let mut rng = SmallRng::seed_from_u64(23);
    let experts = (0..4usize)
        .map(|q| {
            use fusion3d_nerf::math::{Aabb, Vec3};
            let (x0, z0) = ((q & 1) as f32 * 0.5, ((q >> 1) & 1) as f32 * 0.5);
            let domain = Aabb::new(
                Vec3::new((x0 - margin).max(0.0), 0.0, (z0 - margin).max(0.0)),
                Vec3::new((x0 + 0.5 + margin).min(1.0), 1.0, (z0 + 0.5 + margin).min(1.0)),
            );
            let grid = DenseGrid::with_random_init_in_domain(
                DenseGridConfig { resolution: 16, features_per_vertex: 4 },
                domain,
                &mut rng,
            );
            let mut model = NerfModel::with_encoding(grid, 16, 7, &mut rng);
            *model.density_mlp_mut().output_bias_mut(0) -= 4f32.ln();
            let mut occupancy = OccupancyGrid::new(config.occupancy_resolution, 0.5);
            for cell in 0..occupancy.cell_count() {
                let c = occupancy.cell_center(cell);
                occupancy.set_cell(cell, domain.contains(c));
            }
            Expert { model, occupancy }
        })
        .collect();
    // Static gates: disable occupancy refreshes for the dense MoE.
    let moe_config = TrainerConfig { occupancy_warmup: iterations + 1, ..config };
    let mut moe_trainer = MoeTrainer::new(MoeNerf::from_experts(experts), moe_config);
    let mut step_rng = SmallRng::seed_from_u64(24);
    for _ in 0..iterations {
        moe_trainer.step(&dataset, &mut step_rng);
    }
    let moe_psnr = moe_trainer.evaluate_psnr(&dataset);
    (single_psnr, moe_psnr)
}

/// Prints the dense-grid (TensoRF-class) MoE comparison.
pub fn run_dense_moe() {
    let (single, moe) = dense_moe_comparison(220);
    println!(
        "\nMoE on a dense-grid (TensoRF-class) pipeline: single large model\n\
         {single:.2} dB vs 4-expert MoE {moe:.2} dB (d {:+.2} dB; paper: -0.5 dB\n\
         for 4 x 128^3 experts vs one 4x-larger model).",
        moe - single
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_moe_tracks_single_model() {
        // The TensoRF-transfer claim: a 4-expert dense-grid MoE lands
        // within ~1 dB of the single 4x-larger dense model (the paper
        // reports -0.5 dB at full scale).
        let (single, moe) = dense_moe_comparison(120);
        assert!(single.is_finite() && moe.is_finite());
        assert!(
            moe > single - 1.5,
            "dense MoE ({moe:.2} dB) strays too far from single ({single:.2} dB)"
        );
    }

    #[test]
    fn breakdown_speedups_in_paper_band() {
        let chip = FusionChip::scaled_up();
        let xnx = devices::jetson_xnx();
        let trace = scene_trace(SyntheticScene::Lego);
        let inf =
            chip.simulate_frame(&trace).points_per_second() / (xnx.inference_mpts.unwrap() * 1e6);
        let train = chip.simulate_training_step(&trace).points_per_second()
            / (xnx.training_mpts.unwrap() * 1e6);
        assert!((15.0..=80.0).contains(&inf), "inference speedup {inf}");
        assert!((30.0..=120.0).contains(&train), "training speedup {train}");
        // Training speedup exceeds inference speedup, as in the paper
        // (76x vs 47x) — GPUs are worse at the scattered updates.
        assert!(train > inf);
    }
}
