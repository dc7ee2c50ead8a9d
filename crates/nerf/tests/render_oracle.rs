//! Every render entry point against the scalar oracle
//! [`fusion3d_nerf::reference::render_ray`]: pixels and depths must be
//! bit-identical with early termination on and off, at 1 and 4
//! threads; `render_layer` must match the same scalar pieces
//! composited over black. The models raise the density bias so that
//! rays retire inside the first wavefront round and inside later ones,
//! and the camera sees rays that miss the occupied ball (zero samples)
//! and rays through its middle (at the `max_samples_per_ray` cap).

use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::encoding::{HashGrid, HashGridConfig};
use fusion3d_nerf::math::{Ray, Vec3};
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{
    render_depth_image, render_image, render_layer, render_views_into, PipelineConfig,
};
use fusion3d_nerf::reference::{model_forward, render_ray};
use fusion3d_nerf::render::{composite, ShadedSample};
use fusion3d_nerf::sampler::{sample_ray, SamplerConfig};
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const CAP: usize = 16;

fn model(density_bias: f32) -> NerfModel<HashGrid> {
    let mut rng = SmallRng::seed_from_u64(23);
    let mut model = NerfModel::new(
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
    *model.density_mlp_mut().output_bias_mut(0) += density_bias;
    model
}

fn cameras() -> Vec<Camera> {
    let poses = orbit_poses(Vec3::splat(0.5), 1.3, 3);
    vec![Camera::new(poses[0], 20, 14, 0.9), Camera::new(poses[1], 9, 11, 0.9)]
}

fn rays(camera: &Camera) -> Vec<Ray> {
    (0..camera.height())
        .flat_map(|y| (0..camera.width()).map(move |x| camera.ray_for_pixel(x, y)))
        .collect()
}

fn bits(pixels: &[Vec3]) -> Vec<[u32; 3]> {
    pixels.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

/// The bits of one `render_layer` pixel: radiance, then transmittance.
fn layer_bits(color: Vec3, transmittance: f32) -> [u32; 4] {
    [color.x.to_bits(), color.y.to_bits(), color.z.to_bits(), transmittance.to_bits()]
}

/// `render_depth_image`'s normalization, applied to oracle depths.
fn depth_pixels(depths: &[Option<f32>]) -> Vec<Vec3> {
    let max = depths.iter().flatten().cloned().fold(0.0f32, f32::max).max(1e-6);
    depths
        .iter()
        .map(|d| Vec3::splat(d.map_or(0.0, |t| 1.0 - (t / max).clamp(0.0, 1.0) * 0.9)))
        .collect()
}

/// A ray's samples shaded through the scalar pieces: `sample_ray`
/// and the per-sample `model_forward`.
fn shaded_ray(
    model: &NerfModel<HashGrid>,
    occupancy: &OccupancyGrid,
    ray: &Ray,
    sampler: &SamplerConfig,
) -> Vec<ShadedSample> {
    let (samples, _) = sample_ray(ray, occupancy, sampler);
    let positions: Vec<Vec3> = samples.iter().map(|s| s.position).collect();
    let (sigmas, colors) = model_forward(model, &positions, ray.direction);
    samples
        .iter()
        .zip(sigmas.iter().zip(&colors))
        .map(|(s, (&sigma, &color))| ShadedSample { sigma, color, dt: s.dt })
        .collect()
}

/// A ray's retained sample count, and how many samples it composites
/// before early termination stops it (`None` if it never saturates).
fn saturation_point(
    model: &NerfModel<HashGrid>,
    occupancy: &OccupancyGrid,
    ray: &Ray,
    config: &PipelineConfig,
) -> (usize, Option<usize>) {
    let shaded = shaded_ray(model, occupancy, ray, &config.sampler);
    let stop = (1..shaded.len())
        .find(|&i| composite(&shaded[..i], config.background, false).final_transmittance < 1e-4);
    (shaded.len(), stop)
}

fn ball() -> OccupancyGrid {
    OccupancyGrid::from_oracle(16, 0.0, |p| (p - Vec3::splat(0.5)).length() < 0.42)
}

#[test]
fn every_entry_point_matches_the_scalar_oracle() {
    let occupancy = ball();
    let cameras = cameras();
    let sampler = SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: CAP };
    let (mut empty, mut capped, mut first_round, mut later_round) = (0, 0, 0, 0);
    let (mut opaque, mut clear) = (0, 0);

    for density_bias in [3.0f32, 6.0] {
        let model = model(density_bias);
        // `render_layer`'s oracle: the scalar pieces composited over
        // black, as (radiance, transmittance) bits per pixel.
        let layer_oracle: Vec<Vec<[u32; 4]>> = cameras
            .iter()
            .map(|c| {
                rays(c)
                    .iter()
                    .map(|r| {
                        let shaded = shaded_ray(&model, &occupancy, r, &sampler);
                        let out = composite(&shaded, Vec3::ZERO, false);
                        opaque += usize::from(out.final_transmittance < 1e-4);
                        clear += usize::from(out.final_transmittance == 1.0);
                        layer_bits(out.color, out.final_transmittance)
                    })
                    .collect()
            })
            .collect();
        for early_stop in [true, false] {
            let config =
                PipelineConfig { sampler, background: Vec3::new(0.2, 0.5, 0.9), early_stop };
            let oracle: Vec<Vec<(Vec3, Option<f32>)>> = cameras
                .iter()
                .map(|c| {
                    rays(c).iter().map(|r| render_ray(&model, &occupancy, r, &config)).collect()
                })
                .collect();
            if early_stop {
                for ray in cameras.iter().flat_map(rays) {
                    let (n, stop) = saturation_point(&model, &occupancy, &ray, &config);
                    empty += usize::from(n == 0);
                    capped += usize::from(n == CAP);
                    first_round += usize::from(stop.is_some_and(|i| i < 4));
                    later_round += usize::from(stop.is_some_and(|i| i > 4 && i % 4 != 0));
                }
            }
            for threads in [1, 4] {
                set_thread_override(Some(threads));
                let what =
                    format!("bias {density_bias}, early_stop {early_stop}, {threads} threads");
                let mut frames: Vec<Vec<Vec3>> =
                    cameras.iter().map(|c| vec![Vec3::ZERO; c.pixel_count() as usize]).collect();
                let mut samples = vec![0u64; cameras.len()];
                {
                    let mut slices: Vec<&mut [Vec3]> =
                        frames.iter_mut().map(|f| f.as_mut_slice()).collect();
                    render_views_into(
                        &model,
                        &occupancy,
                        &cameras,
                        &config,
                        &mut slices,
                        &mut samples,
                    );
                }
                for (v, camera) in cameras.iter().enumerate() {
                    let colors: Vec<Vec3> = oracle[v].iter().map(|o| o.0).collect();
                    let depths: Vec<Option<f32>> = oracle[v].iter().map(|o| o.1).collect();
                    let image = render_image(&model, &occupancy, camera, &config);
                    assert_eq!(
                        bits(image.pixels()),
                        bits(&colors),
                        "render_image, view {v}, {what}"
                    );
                    assert_eq!(
                        bits(&frames[v]),
                        bits(&colors),
                        "render_views_into, view {v}, {what}"
                    );
                    let retained: usize = rays(camera)
                        .iter()
                        .map(|r| sample_ray(r, &occupancy, &sampler).0.len())
                        .sum();
                    assert_eq!(
                        samples[v], retained as u64,
                        "render_views_into samples, view {v}, {what}"
                    );
                    let depth = render_depth_image(&model, &occupancy, camera, &config);
                    assert_eq!(
                        bits(depth.pixels()),
                        bits(&depth_pixels(&depths)),
                        "render_depth_image, {what}"
                    );
                    let layer: Vec<[u32; 4]> = render_layer(&model, &occupancy, camera, &sampler)
                        .into_iter()
                        .map(|(color, transmittance)| layer_bits(color, transmittance))
                        .collect();
                    assert_eq!(layer, layer_oracle[v], "render_layer, view {v}, {what}");
                    #[cfg(feature = "obs")]
                    {
                        let mut report = fusion3d_obs::Report::new("render_oracle");
                        let probed = fusion3d_nerf::pipeline::render_image_probed(
                            &model,
                            &occupancy,
                            camera,
                            &config,
                            &mut report,
                        );
                        assert_eq!(
                            bits(probed.pixels()),
                            bits(&colors),
                            "render_image_probed, {what}"
                        );
                    }
                }
                set_thread_override(None);
            }
        }
    }
    assert!(empty > 0, "no ray misses the occupied ball");
    assert!(capped > 0, "no ray reaches the sample cap");
    assert!(first_round > 0, "no ray saturates inside the first round");
    assert!(later_round > 0, "no ray saturates inside a later round");
    assert!(opaque > 0 && clear > 0, "{opaque} opaque and {clear} clear layer pixels");
}
