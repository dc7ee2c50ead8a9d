//! The probed render observes, never perturbs:
//! [`fusion3d_nerf::pipeline::render_image_probed`] must return
//! bitwise-identical pixels to the plain [`render_image`], and counters
//! that are independent of the thread count, apart from how its rows
//! spread over the workers.

use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::encoding::{HashGrid, HashGridConfig};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{render_image, render_image_probed, PipelineConfig};
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::{ProceduralScene, SyntheticScene};
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn setup() -> (NerfModel<HashGrid>, OccupancyGrid, Camera, PipelineConfig) {
    let mut rng = SmallRng::seed_from_u64(19);
    let model = NerfModel::new(
        ModelConfig {
            grid: HashGridConfig {
                levels: 4,
                features_per_level: 2,
                log2_table_size: 10,
                base_resolution: 4,
                max_resolution: 32,
            },
            hidden_dim: 16,
            geo_feature_dim: 7,
        },
        &mut rng,
    );
    let occupancy = ProceduralScene::synthetic(SyntheticScene::Lego).occupancy_grid(16);
    let pose = orbit_poses(Vec3::splat(0.5), 1.2, 4)[1];
    let camera = Camera::new(pose, 24, 24, 0.9);
    let config = PipelineConfig {
        sampler: SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: 32 },
        background: Vec3::ONE,
        early_stop: true,
    };
    (model, occupancy, camera, config)
}

fn bits(image: &fusion3d_nerf::image::Image) -> Vec<u32> {
    image.pixels().iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

#[test]
fn probed_render_matches_unprobed_bitwise() {
    let (model, occupancy, camera, config) = setup();
    let plain = render_image(&model, &occupancy, &camera, &config);
    let (probed, counters) = render_image_probed(&model, &occupancy, &camera, &config);
    assert_eq!(bits(&plain), bits(&probed), "probing changed the rendered pixels");
    // The probed run actually observed the work it shadowed.
    assert!(counters.rounds > 0 && counters.samples_evaluated > 0, "{counters:?}");
}

#[test]
fn early_termination_evaluates_no_more_than_stage_one_retains() {
    let (model, occupancy, camera, config) = setup();
    let evaluated_and_retained = |early_stop| {
        let config = PipelineConfig { early_stop, ..config };
        let (_, counters) = render_image_probed(&model, &occupancy, &camera, &config);
        (counters.samples_evaluated, counters.samples_retained)
    };
    let (evaluated, retained) = evaluated_and_retained(true);
    assert!(retained > 0, "Stage I retained no samples");
    assert!(evaluated <= retained, "evaluated {evaluated} of {retained} retained samples");
    let (evaluated, retained) = evaluated_and_retained(false);
    assert_eq!(evaluated, retained, "without early termination every retained sample is evaluated");
}

/// Renders at 1 and 4 threads in one test, so no second test races on
/// the global thread override.
#[test]
fn probe_counters_are_thread_count_independent() {
    let (model, occupancy, camera, config) = setup();
    let counters = |threads: usize| {
        set_thread_override(Some(threads));
        let (_, mut counters) = render_image_probed(&model, &occupancy, &camera, &config);
        set_thread_override(None);
        // Which worker shades which row depends on scheduling; that
        // every row is shaded once, by at most `threads` workers, does
        // not.
        let rows = std::mem::take(&mut counters.rows_per_worker);
        assert_eq!(rows.iter().sum::<u64>(), u64::from(camera.height()), "threads={threads}");
        assert!(!rows.is_empty() && rows.len() <= threads, "threads={threads}: {rows:?}");
        counters
    };
    assert_eq!(counters(1), counters(4), "counters diverged between 1 and 4 threads");
}
