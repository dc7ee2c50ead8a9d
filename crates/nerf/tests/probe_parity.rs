//! Probes observe, never perturb: with the `obs` feature enabled,
//! [`fusion3d_nerf::pipeline::render_image_probed`] must return
//! bitwise-identical pixels to the unprobed [`render_image`], and the
//! counters it records must be independent of the thread count. (The
//! complementary guarantee — that the *default* build carries no probe
//! code at all — is checked by the `probe_macro_tests` unit tests,
//! whose no-op expansion discards even un-compilable bodies.) The
//! dispatch diagnostics it records cover every row exactly once and
//! stay out of the deterministic stream.
#![cfg(feature = "obs")]

use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::encoding::{HashGrid, HashGridConfig};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{render_image, render_image_probed, PipelineConfig};
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::{ProceduralScene, SyntheticScene};
use fusion3d_obs::{Metric, MetricValue, Report};
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
    let mut report = Report::new("probe_parity");
    let probed = render_image_probed(&model, &occupancy, &camera, &config, &mut report);
    assert_eq!(bits(&plain), bits(&probed), "probes changed the rendered pixels");
    // The probed run actually observed the work it shadowed.
    let rays = counter(&report, "kernel.rays");
    assert_eq!(rays, u64::from(camera.width()) * u64::from(camera.height()));
}

fn counter(report: &Report, name: &str) -> u64 {
    match report.metrics.get(name) {
        Some(Metric { value: MetricValue::Counter(n), .. }) => *n,
        other => panic!("probed render must record {name}, got {other:?}"),
    }
}

#[test]
fn early_termination_evaluates_no_more_than_stage_one_retains() {
    let (model, occupancy, camera, config) = setup();
    let evaluated_and_retained = |early_stop| {
        let mut report = Report::new("probe_parity");
        let config = PipelineConfig { early_stop, ..config };
        let _ = render_image_probed(&model, &occupancy, &camera, &config, &mut report);
        (
            counter(&report, "kernel.encode.points"),
            counter(&report, "kernel.render.samples_retained"),
        )
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
    let stream = |threads| {
        set_thread_override(Some(threads));
        let mut report = Report::new("probe_parity");
        let _ = render_image_probed(&model, &occupancy, &camera, &config, &mut report);
        set_thread_override(None);
        check_dispatch_diagnostics(&report, threads as u64, u64::from(camera.height()));
        report.deterministic_jsonl()
    };
    assert_eq!(stream(1), stream(4), "probe stream diverged between 1 and 4 threads");
}

/// The probed render's scheduling diagnostics: per-worker row counts
/// that cover every row exactly once, a worker count within the thread
/// and row counts, a balance in (0, 1] — all diagnostic, so none of
/// them reaches the deterministic stream.
fn check_dispatch_diagnostics(report: &Report, threads: u64, rows: u64) {
    let per_worker: Vec<u64> = report
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("render.worker."))
        .map(|(name, metric)| {
            assert!(name.ends_with(".tasks") && metric.diagnostic, "{name}: {metric:?}");
            match metric.value {
                MetricValue::Counter(n) => n,
                ref other => panic!("{name} must be a counter, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(per_worker.iter().sum::<u64>(), rows, "threads={threads}: every row shaded once");
    let workers = match report.metrics.get("render.workers") {
        Some(Metric { value: MetricValue::Counter(n), diagnostic: true, .. }) => *n,
        other => panic!("render.workers must be a diagnostic counter, got {other:?}"),
    };
    assert_eq!(workers, per_worker.len() as u64, "threads={threads}");
    assert!(workers <= threads && workers <= rows, "threads={threads}: {workers} workers");
    let balance = match report.metrics.get("render.balance") {
        Some(Metric { value: MetricValue::Gauge(g), diagnostic: true, .. }) => *g,
        other => panic!("render.balance must be a diagnostic gauge, got {other:?}"),
    };
    assert!(balance > 0.0 && balance <= 1.0, "threads={threads}: balance {balance}");

    let stream = report.deterministic_jsonl();
    assert!(stream.contains("kernel.rays"), "the kernel counters are deterministic");
    for name in ["render.worker.", "render.workers", "render.balance"] {
        assert!(!stream.contains(name), "diagnostic {name} leaked into the deterministic stream");
    }
}
