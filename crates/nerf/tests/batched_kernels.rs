//! Differential tests of the batched SoA kernels against the scalar
//! reference path.
//!
//! The batched hot-path kernels ([`fusion3d_nerf::batch`],
//! `interpolate_batch` / `backward_batch`, `forward_batch` /
//! `backward_batch`) carry a bitwise-determinism contract: identical
//! inputs must produce bit-for-bit identical f32 results to looping
//! the scalar kernels one sample at a time. These tests enforce the
//! contract at batch sizes 0, 1, 7, 64, and 1000 — deliberately
//! including sizes that are not multiples of the GEMM tile widths —
//! at every residue of the MLP kernels' 4 × 8 register tiles, across
//! the weight layouts each `Mlp` rebuilds after a parameter update,
//! and re-check thread-count independence on the batched pipeline.

use fusion3d_nerf::adam::AdamConfig;
use fusion3d_nerf::batch::{KernelScratch, SampleBatch};
use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::encoding::{EncodingScratch, HashGrid, HashGridConfig};
use fusion3d_nerf::math::{Ray, Vec3};
use fusion3d_nerf::mlp::{Activation, Mlp, MlpBatchCache};
use fusion3d_nerf::model::{ModelConfig, ModelOptimizer, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{render_image, trace_frame, trace_rays, FrameTrace, PipelineConfig};
use fusion3d_nerf::reference;
use fusion3d_nerf::sampler::{sample_ray, sample_ray_into, PairJob, RayWorkload, SamplerConfig};
use fusion3d_nerf::trainer::{Trainer, TrainerConfig};
use fusion3d_nerf::{Dataset, ProceduralScene, SyntheticScene};
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod sweep;
use sweep::{jobs_of, sweep_configs, sweep_grids, sweep_rays};

/// Batch sizes exercised by every differential test: empty, singleton,
/// non-multiples of the 4-wide GEMM tiles, and a large batch.
const BATCH_SIZES: [usize; 5] = [0, 1, 7, 64, 1000];

fn positions(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect()
}

fn randoms(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

fn assert_bits_eq(batched: &[f32], scalar: &[f32], what: &str) {
    assert_eq!(batched.len(), scalar.len(), "{what}: length mismatch");
    for (i, (b, s)) in batched.iter().zip(scalar).enumerate() {
        assert_eq!(b.to_bits(), s.to_bits(), "{what}[{i}]: batched {b} vs scalar {s}");
    }
}

fn test_grid(features_per_level: usize, seed: u64) -> HashGrid {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Resolutions straddle the dense/hash threshold so both addressing
    // modes are exercised.
    HashGrid::with_random_init(
        HashGridConfig {
            levels: 4,
            features_per_level,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 32,
        },
        &mut rng,
    )
}

#[test]
fn grid_interpolate_batch_is_bitwise_scalar() {
    // f = 2 exercises the two-accumulator fast path; f = 3 the generic
    // per-feature path.
    for features in [2, 3] {
        let grid = test_grid(features, 11);
        let dim = grid.config().output_dim();
        let mut scratch = EncodingScratch::new();
        for n in BATCH_SIZES {
            let pts = positions(n, 100 + n as u64);
            let scalar = reference::encode_points(&grid, &pts);
            let mut batched = vec![0.0f32; n * dim];
            grid.interpolate_batch(&pts, &mut batched, &mut scratch);
            assert_bits_eq(&batched, &scalar, &format!("interpolate f={features} n={n}"));
        }
    }
}

#[test]
fn grid_interpolate_batch_infer_is_bitwise_scalar() {
    // The spill-free inference kernel must match the scalar path (and
    // therefore the retaining kernel) bit for bit.
    for features in [2, 3] {
        let grid = test_grid(features, 11);
        let dim = grid.config().output_dim();
        for n in BATCH_SIZES {
            let pts = positions(n, 100 + n as u64);
            let scalar = reference::encode_points(&grid, &pts);
            let mut batched = vec![0.0f32; n * dim];
            grid.interpolate_batch_infer(&pts, &mut batched);
            assert_bits_eq(&batched, &scalar, &format!("interpolate_infer f={features} n={n}"));
        }
    }
}

#[test]
fn grid_backward_batch_is_bitwise_scalar() {
    for features in [2, 3] {
        let grid = test_grid(features, 13);
        let dim = grid.config().output_dim();
        let mut scratch = EncodingScratch::new();
        for n in BATCH_SIZES {
            let pts = positions(n, 200 + n as u64);
            let d_out = randoms(n * dim, 300 + n as u64);
            let mut scalar = vec![0.0f32; grid.param_count()];
            reference::encode_backward(&grid, &pts, &d_out, &mut scalar);
            let mut batched = vec![0.0f32; grid.param_count()];
            grid.backward_batch(&pts, &d_out, &mut batched, &mut scratch);
            assert_bits_eq(&batched, &scalar, &format!("grid backward f={features} n={n}"));
        }
    }
}

#[test]
fn grid_backward_batch_reuses_forward_scratch() {
    // The backward pass must reuse the corner addresses/weights the
    // forward pass prepared — and still be correct when it cannot
    // (different positions in the scratch).
    let grid = test_grid(2, 17);
    let dim = grid.config().output_dim();
    let pts_a = positions(33, 400);
    let pts_b = positions(33, 401);
    let d_out = randoms(33 * dim, 402);
    let mut scratch = EncodingScratch::new();
    let mut out = vec![0.0f32; 33 * dim];
    // Forward on A, backward on B: the fingerprint must force a
    // re-prepare instead of scattering with stale A corners.
    grid.interpolate_batch(&pts_a, &mut out, &mut scratch);
    let mut batched = vec![0.0f32; grid.param_count()];
    grid.backward_batch(&pts_b, &d_out, &mut batched, &mut scratch);
    let mut scalar = vec![0.0f32; grid.param_count()];
    reference::encode_backward(&grid, &pts_b, &d_out, &mut scalar);
    assert_bits_eq(&batched, &scalar, "backward after mismatched forward");
}

#[test]
fn mlp_forward_batch_is_bitwise_scalar() {
    let mut rng = SmallRng::seed_from_u64(19);
    // Widths that are not multiples of the 4-wide tiles.
    let mlp = Mlp::new(&[13, 30, 5], Activation::Relu, Activation::Sigmoid, &mut rng);
    let mut cache = MlpBatchCache::new();
    for n in BATCH_SIZES {
        let inputs = randoms(n * mlp.input_dim(), 500 + n as u64);
        let scalar = reference::mlp_forward(&mlp, &inputs, n);
        let batched = mlp.forward_batch(&inputs, n, &mut cache).to_vec();
        assert_bits_eq(&batched, &scalar, &format!("mlp forward n={n}"));
    }
}

#[test]
fn mlp_backward_batch_is_bitwise_scalar() {
    let mut rng = SmallRng::seed_from_u64(23);
    let mlp = Mlp::new(&[9, 22, 22, 6], Activation::Relu, Activation::None, &mut rng);
    let mut cache = MlpBatchCache::new();
    for n in BATCH_SIZES {
        let inputs = randoms(n * mlp.input_dim(), 600 + n as u64);
        let d_out = randoms(n * mlp.output_dim(), 700 + n as u64);
        let (scalar_d_in, scalar_grads) = reference::mlp_backward(&mlp, &inputs, n, &d_out);
        mlp.forward_batch(&inputs, n, &mut cache);
        let mut batched_d_in = vec![0.0f32; n * mlp.input_dim()];
        let mut batched_grads = vec![0.0f32; mlp.param_count()];
        mlp.backward_batch(&mut cache, &d_out, &mut batched_d_in, &mut batched_grads);
        assert_bits_eq(&batched_d_in, &scalar_d_in, &format!("mlp d_input n={n}"));
        assert_bits_eq(&batched_grads, &scalar_grads, &format!("mlp grads n={n}"));
    }
}

/// Batch sizes of the tile sweep: every residue of the 4-sample tile
/// (and of two of them), one either side of 64, and a large batch.
const TILE_SWEEP_SIZES: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 1000];

/// Every input width 1..=17 and output width 1..=9 reaches every
/// residue of the 8-lane tiles (the forward's outputs, the gradient
/// kernels' inputs) and of the 4-row tiles (samples, weight-gradient
/// outputs). The `[i, o, i]` network puts each width on both sides of
/// a layer. One cache serves every shape, so stale slack from a larger
/// shape is in place when a smaller one runs.
#[test]
fn mlp_kernels_are_bitwise_scalar_at_every_tile_residue() {
    let mut rng = SmallRng::seed_from_u64(53);
    let mut cache = MlpBatchCache::new();
    for i in 1..=17 {
        for o in 1..=9 {
            let mlp = Mlp::new(&[i, o, i], Activation::Relu, Activation::Sigmoid, &mut rng);
            for n in TILE_SWEEP_SIZES {
                let what = format!("dims [{i}, {o}, {i}] n={n}");
                let inputs = randoms(n * i, (i * 100 + o * 10 + n) as u64);
                let scalar = reference::mlp_forward(&mlp, &inputs, n);
                let batched = mlp.forward_batch(&inputs, n, &mut cache).to_vec();
                assert_bits_eq(&batched, &scalar, &format!("forward {what}"));

                // Two backward calls accumulate onto the gradient
                // buffer: the second must add onto what the first left,
                // as the scalar walk over the batch twice does.
                let d_out = randoms(n * i, (i * 100 + o * 10 + n + 7) as u64);
                let twice_inputs = [inputs.as_slice(), &inputs].concat();
                let twice_d_out = [d_out.as_slice(), &d_out].concat();
                let (scalar_d_in, scalar_grads) =
                    reference::mlp_backward(&mlp, &twice_inputs, 2 * n, &twice_d_out);
                let mut d_in = vec![0.0f32; n * i];
                let mut grads = vec![0.0f32; mlp.param_count()];
                for _ in 0..2 {
                    mlp.backward_batch(&mut cache, &d_out, &mut d_in, &mut grads);
                }
                assert_bits_eq(&d_in, &scalar_d_in[n * i..], &format!("d_input {what}"));
                assert_bits_eq(&grads, &scalar_grads, &format!("grads {what}"));
            }
        }
    }
}

fn test_model(seed: u64) -> NerfModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    NerfModel::new(
        ModelConfig {
            grid: HashGridConfig {
                levels: 3,
                features_per_level: 2,
                log2_table_size: 9,
                base_resolution: 4,
                max_resolution: 16,
            },
            hidden_dim: 10,
            geo_feature_dim: 5,
        },
        &mut rng,
    )
}

#[test]
fn model_forward_batch_is_bitwise_scalar() {
    let model = test_model(29);
    let dir = Vec3::new(0.3, -0.6, 0.9).normalize();
    let mut scratch = KernelScratch::new();
    for n in BATCH_SIZES {
        let pts = positions(n, 800 + n as u64);
        let (scalar_sigma, scalar_color) = reference::model_forward(&model, &pts, dir);
        model.forward_batch(&pts, dir, &mut scratch);
        assert_bits_eq(scratch.sigma(), &scalar_sigma, &format!("model sigma n={n}"));
        let batched_rgb: Vec<f32> = scratch.color().iter().flat_map(|c| c.to_array()).collect();
        let scalar_rgb: Vec<f32> = scalar_color.iter().flat_map(|c| c.to_array()).collect();
        assert_bits_eq(&batched_rgb, &scalar_rgb, &format!("model color n={n}"));
    }
}

#[test]
fn model_forward_batch_infer_is_bitwise_scalar() {
    // The render path's non-retaining forward must produce the same
    // bits as the scalar model walk (and hence the retaining forward).
    let model = test_model(29);
    let dir = Vec3::new(0.3, -0.6, 0.9).normalize();
    let mut scratch = KernelScratch::new();
    for n in BATCH_SIZES {
        let pts = positions(n, 800 + n as u64);
        let (scalar_sigma, scalar_color) = reference::model_forward(&model, &pts, dir);
        model.forward_batch_infer(&pts, dir, &mut scratch);
        assert_bits_eq(scratch.sigma(), &scalar_sigma, &format!("infer sigma n={n}"));
        let batched_rgb: Vec<f32> = scratch.color().iter().flat_map(|c| c.to_array()).collect();
        let scalar_rgb: Vec<f32> = scalar_color.iter().flat_map(|c| c.to_array()).collect();
        assert_bits_eq(&batched_rgb, &scalar_rgb, &format!("infer color n={n}"));
    }
}

/// The model's backward skips the color network's view-encoding input
/// gradient; the parameter gradients must not notice. Checked on a
/// small model and at the default configuration, whose layers are the
/// ones training runs, at every residue of the 4-sample tile.
#[test]
fn model_backward_batch_is_bitwise_scalar() {
    let default = NerfModel::new(ModelConfig::default(), &mut SmallRng::seed_from_u64(59));
    let dir = Vec3::new(-0.2, 0.5, 0.7).normalize();
    let mut scratch = KernelScratch::new();
    for (model, name) in [(test_model(31), "small"), (default, "default")] {
        for n in TILE_SWEEP_SIZES {
            let pts = positions(n, 900 + n as u64);
            let d_sigma = randoms(n, 1000 + n as u64);
            let d_color: Vec<Vec3> = randoms(n * 3, 1100 + n as u64)
                .chunks_exact(3)
                .map(|c| Vec3::new(c[0], c[1], c[2]))
                .collect();
            let mut scalar = model.alloc_grads();
            reference::model_backward(&model, &pts, dir, &d_sigma, &d_color, &mut scalar);
            model.forward_batch(&pts, dir, &mut scratch);
            let mut batched = model.alloc_grads();
            model.backward_batch(&pts, &d_sigma, &d_color, &mut scratch, &mut batched);
            let what = format!("{name} n={n}");
            assert_bits_eq(&batched.grid, &scalar.grid, &format!("grid grads {what}"));
            assert_bits_eq(&batched.density, &scalar.density, &format!("density grads {what}"));
            assert_bits_eq(&batched.color, &scalar.color, &format!("color grads {what}"));
        }
    }
}

/// Asserts `model`'s batched forward and backward through `scratch`
/// equal the per-sample reference of its current parameters.
fn assert_kernels_are_current(model: &NerfModel, scratch: &mut KernelScratch, what: &str) {
    let pts = positions(13, 1500);
    let dir = Vec3::new(0.1, 0.9, 0.3).normalize();
    let (scalar_sigma, scalar_color) = reference::model_forward(model, &pts, dir);
    let mut sigma = vec![0.0f32; pts.len()];
    model.density_batch(&pts, &mut sigma, scratch);
    assert_bits_eq(&sigma, &scalar_sigma, &format!("{what}: density_batch"));
    model.forward_batch(&pts, dir, scratch);
    assert_bits_eq(scratch.sigma(), &scalar_sigma, &format!("{what}: sigma"));
    let batched_rgb: Vec<f32> = scratch.color().iter().flat_map(|c| c.to_array()).collect();
    let scalar_rgb: Vec<f32> = scalar_color.iter().flat_map(|c| c.to_array()).collect();
    assert_bits_eq(&batched_rgb, &scalar_rgb, &format!("{what}: color"));
    let d_sigma = randoms(pts.len(), 1501);
    let d_color = vec![Vec3::new(-0.3, 0.6, 0.2); pts.len()];
    let mut scalar = model.alloc_grads();
    reference::model_backward(model, &pts, dir, &d_sigma, &d_color, &mut scalar);
    let mut batched = model.alloc_grads();
    model.backward_batch(&pts, &d_sigma, &d_color, scratch, &mut batched);
    assert_bits_eq(&batched.grid, &scalar.grid, &format!("{what}: grid grads"));
    assert_bits_eq(&batched.density, &scalar.density, &format!("{what}: density grads"));
    assert_bits_eq(&batched.color, &scalar.color, &format!("{what}: color grads"));
}

/// Each `Mlp` keeps the weight layouts its kernels read and rebuilds
/// them after a parameter change. One scratch alternated between two
/// models, across an optimizer step, an `output_bias_mut` and a clone,
/// must always see the weights of the model it is called with, in the
/// forward and in the backward.
#[test]
fn one_scratch_follows_each_model_across_parameter_updates() {
    let mut a = test_model(61);
    let mut b = test_model(67);
    let mut scratch = KernelScratch::new();
    assert_kernels_are_current(&a, &mut scratch, "a");
    assert_kernels_are_current(&b, &mut scratch, "b");
    assert_kernels_are_current(&a, &mut scratch, "a again");

    // An optimizer step on `a`, from the gradients of one batch.
    let pts = positions(9, 1600);
    let dir = Vec3::new(-0.4, 0.3, 0.8).normalize();
    a.forward_batch(&pts, dir, &mut scratch);
    let mut grads = a.alloc_grads();
    let d_color = vec![Vec3::new(0.5, -0.25, 1.0); pts.len()];
    a.backward_batch(&pts, &randoms(pts.len(), 1601), &d_color, &mut scratch, &mut grads);
    let mut optimizer = ModelOptimizer::new(AdamConfig::default(), &a);
    let before = a.color_mlp().params().to_vec();
    optimizer.step(&mut a, &grads);
    assert_ne!(a.color_mlp().params(), before.as_slice(), "the step moved no color weight");
    assert_kernels_are_current(&a, &mut scratch, "a after a step");
    assert_kernels_are_current(&b, &mut scratch, "b after a's step");

    *b.density_mlp_mut().output_bias_mut(0) += 0.75;
    assert_kernels_are_current(&b, &mut scratch, "b after output_bias_mut");
    assert_kernels_are_current(&a, &mut scratch, "a after b's bias");

    let mut c = a.clone();
    c.color_mlp_mut().params_mut()[0] += 0.5;
    assert_kernels_are_current(&c, &mut scratch, "a changed clone");
    assert_kernels_are_current(&a, &mut scratch, "a after its clone changed");
}

/// The counting walk behind `trace_frame` keeps no sample, yet must
/// count exactly what `sample_ray` counts: per ray its valid pairs and,
/// per marched pair, retained samples, marching steps and lattice
/// steps. Rays the sample cap stops before their last valid pair march
/// fewer pairs than they intersect; the sweep includes such rays.
#[test]
fn traced_rays_match_sample_ray_workloads() {
    // A one-sample cap stops most rays in their first occupied pair.
    let mut configs = sweep_configs().to_vec();
    configs.push(SamplerConfig { steps_per_diagonal: 150, max_samples_per_ray: 1 });
    let mut rng = SmallRng::seed_from_u64(41);
    let (mut rays_checked, mut cut_short) = (0, 0);
    for grid in &sweep_grids() {
        let rays = sweep_rays(grid, &mut rng);
        for config in &configs {
            let trace = trace_rays(rays.iter().copied(), grid, config);
            assert_eq!(trace.ray_count(), rays.len());
            let (mut samples, mut steps) = (0u64, 0u64);
            for (ray, traced) in rays.iter().zip(trace.rays()) {
                let (kept, workload) = sample_ray(ray, grid, config);
                let what = format!(
                    "res {} ray {ray:?} cap {}",
                    grid.resolution(),
                    config.max_samples_per_ray
                );
                assert_eq!(traced.valid_pairs, workload.valid_pairs, "valid pairs: {what}");
                assert_eq!(traced.jobs, jobs_of(&workload).as_slice(), "pair jobs: {what}");
                assert_eq!(traced.total_samples(), kept.len() as u64, "samples: {what}");
                samples += kept.len() as u64;
                steps += u64::from(workload.total_steps());
                rays_checked += 1;
                cut_short += usize::from(traced.jobs.len() < usize::from(traced.valid_pairs));
            }
            assert_eq!((trace.total_samples, trace.total_steps), (samples, steps));
        }
    }
    assert!(rays_checked > 10_000, "only {rays_checked} rays checked");
    assert!(cut_short > 100, "only {cut_short} rays stopped before their last valid pair");
}

/// `trace_frame` traces rows as pool tasks and concatenates them; at
/// any thread count it must equal a serial per-pixel `sample_ray`
/// sweep in raster order, pair job for pair job.
#[test]
fn trace_frame_matches_a_serial_sample_ray_sweep_at_any_thread_count() {
    let occupancy = ProceduralScene::synthetic(SyntheticScene::Ship).occupancy_grid(32);
    let pose = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, 8)[2];
    // Not square, so a swapped row and column would show.
    let camera = Camera::new(pose, 40, 27, 0.9);
    for sampler in [
        SamplerConfig { steps_per_diagonal: 512, max_samples_per_ray: 256 },
        SamplerConfig { steps_per_diagonal: 150, max_samples_per_ray: 2 },
    ] {
        let mut serial = FrameTrace::default();
        for (_, _, ray) in camera.rays() {
            let (_, workload) = sample_ray(&ray, &occupancy, &sampler);
            serial.push_ray(workload.valid_pairs, &jobs_of(&workload));
        }
        assert!(serial.total_samples > 0);
        for threads in [1, 4] {
            set_thread_override(Some(threads));
            let traced = trace_frame(&occupancy, &camera, &sampler);
            set_thread_override(None);
            assert_eq!(traced, serial, "{threads} threads, {sampler:?}");
        }
    }
}

/// `sample_ray_into` skips the ray–octant spans and span tails that the
/// occupancy grid's empty-space summary rules out, yet must emit
/// exactly `sample_ray`'s samples: t, δt and positions bit for bit,
/// on the sweep grids, where that skip is tightest.
#[test]
fn sample_ray_into_matches_sample_ray() {
    let configs = sweep_configs();
    let mut batch = SampleBatch::new();
    let mut rng = SmallRng::seed_from_u64(37);
    let (mut rays_with_samples, mut capped, mut gaps) = (0, 0, 0);
    for grid in &sweep_grids() {
        for ray in sweep_rays(grid, &mut rng) {
            for config in &configs {
                let (scalar, _) = sample_ray(&ray, grid, config);
                sample_ray_into(&ray, grid, config, &mut batch);
                let what = format!(
                    "res {} ray {ray:?} cap {}",
                    grid.resolution(),
                    config.max_samples_per_ray
                );
                assert_eq!(batch.len(), scalar.len(), "sample count diverged: {what}");
                for (i, s) in scalar.iter().enumerate() {
                    assert_eq!(batch.ts()[i].to_bits(), s.t.to_bits(), "t[{i}]: {what}");
                    assert_eq!(batch.dts()[i].to_bits(), s.dt.to_bits(), "dt[{i}]: {what}");
                    let p = batch.positions()[i];
                    assert_eq!(
                        [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()],
                        [s.position.x.to_bits(), s.position.y.to_bits(), s.position.z.to_bits()],
                        "position[{i}]: {what}"
                    );
                }
                rays_with_samples += usize::from(!scalar.is_empty());
                capped += usize::from(scalar.len() == config.max_samples_per_ray);
                gaps += scalar
                    .windows(2)
                    .filter(|w| w[0].cube == w[1].cube && w[1].t - w[0].t > 1.5 * config.step())
                    .count();
            }
        }
    }
    // The sweep reaches every case it is built for.
    assert!(rays_with_samples > 5000, "only {rays_with_samples} rays sampled anything");
    assert!(capped > 1000, "only {capped} rays reached the sample cap");
    assert!(gaps > 100, "only {gaps} empty gaps inside a ray–octant pair");
}

/// Renders a frame and runs a few training steps with `threads`
/// workers; returns every result as raw bits.
fn batched_pipeline_bits(threads: usize) -> (Vec<u32>, Vec<u32>) {
    set_thread_override(Some(threads));
    let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
    let dataset = Dataset::from_scene(&scene, 3, 16, 0.9);
    let mut trainer = Trainer::new(
        test_model(43),
        TrainerConfig {
            rays_per_batch: 37,
            sampler: SamplerConfig { steps_per_diagonal: 32, max_samples_per_ray: 16 },
            occupancy_resolution: 12,
            occupancy_warmup: 1000,
            ..TrainerConfig::default()
        },
    );
    let mut rng = SmallRng::seed_from_u64(47);
    for _ in 0..8 {
        trainer.step(&dataset, &mut rng);
    }
    let pose = orbit_poses(Vec3::splat(0.5), 1.2, 4)[2];
    let camera = Camera::new(pose, 16, 16, 0.9);
    let config = PipelineConfig {
        sampler: trainer.config().sampler,
        background: Vec3::ONE,
        early_stop: true,
    };
    let image = render_image(trainer.model(), trainer.occupancy(), &camera, &config);
    let params: Vec<u32> = trainer.model().grid().params().iter().map(|p| p.to_bits()).collect();
    let pixels: Vec<u32> =
        image.pixels().iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect();
    set_thread_override(None);
    (params, pixels)
}

#[test]
fn batched_pipeline_is_bitwise_identical_across_thread_counts() {
    let (params_1, pixels_1) = batched_pipeline_bits(1);
    let (params_4, pixels_4) = batched_pipeline_bits(4);
    assert_eq!(params_1, params_4, "trained parameters diverged between 1 and 4 threads");
    assert_eq!(pixels_1, pixels_4, "rendered pixels diverged between 1 and 4 threads");
    assert!(!params_1.is_empty() && pixels_1.len() == 16 * 16 * 3);
}
