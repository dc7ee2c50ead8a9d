//! Hot-path throughput harness: single-thread points/s of the batched
//! SoA kernels against the scalar reference kernels, plus end-to-end
//! render and train-step rates.
//!
//! Emits `BENCH_perf.json` — the perf-trajectory seed future PRs
//! regress against. `--smoke` runs tiny batch counts (wired into
//! `scripts/check.sh` so the harness itself cannot rot); `--out PATH`
//! overrides the output path.
//!
//! Both sides of every comparison run through this harness with the
//! same chunking, so the reported speedups measure kernel layout, not
//! harness differences. Comparative speedups are the **median of
//! per-round ratios** from alternating batched/scalar rounds
//! ([`time_paired`]); best-of throughput numbers from separate windows
//! drift with host load, per-round ratios do not.

use std::hint::black_box;
use std::time::Instant;

use fusion3d_bench::support::{scene_occupancy, trace_camera};
use fusion3d_nerf::camera::Camera;
use fusion3d_nerf::encoding::{HashGrid, HashGridConfig};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::mlp::{Activation, Mlp, MlpBatchCache};
use fusion3d_nerf::model::{ModelConfig, ModelGrads, ModelOptimizer, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{render_image, PipelineConfig};
use fusion3d_nerf::reference;
use fusion3d_nerf::render::{composite, composite_backward, ShadedSample};
use fusion3d_nerf::sampler::{sample_ray, SamplerConfig};
use fusion3d_nerf::trainer::{Trainer, TrainerConfig};
use fusion3d_nerf::{Dataset, ProceduralScene, SyntheticScene};
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One microbenchmark line of the JSON report.
struct BenchLine {
    name: &'static str,
    points: usize,
    batched_pts_per_s: f64,
    scalar_pts_per_s: Option<f64>,
    speedup: Option<f64>,
}

/// Times the two sides of a comparison in alternating rounds and
/// returns `(best_a, best_b, median per-round b/a ratio)`. The ratio
/// comes from adjacent measurements, so a host-speed drift between
/// windows (shared machine, frequency scaling) shifts both sides of a
/// round together instead of skewing the reported speedup.
fn time_paired<A: FnMut(), B: FnMut()>(rounds: usize, mut a: A, mut b: B) -> (f64, f64, f64) {
    a();
    b();
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    let mut ratios = Vec::new();
    for _ in 0..rounds {
        let start = Instant::now();
        a();
        let ta = start.elapsed().as_secs_f64();
        let start = Instant::now();
        b();
        let tb = start.elapsed().as_secs_f64();
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
        ratios.push(tb / ta);
    }
    ratios.sort_by(|x, y| x.partial_cmp(y).expect("benchmark times are finite"));
    (best_a, best_b, ratios[ratios.len() / 2])
}

fn random_positions(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen())).collect()
}

/// Hash-grid encode at Instant-NGP's canonical scale (16 levels × 2
/// features): the batched level-major inference gather vs the scalar
/// per-point reference, identical 4096-point chunking. Neither side
/// retains backward state — the training-side spill is costed by
/// `train_step` instead. Points are uniform over the unit cube, the
/// standard gather-kernel workload; ray-coherent batches are costed
/// end-to-end by the `render` and `train_step` lines.
fn bench_encode(smoke: bool) -> BenchLine {
    let mut rng = SmallRng::seed_from_u64(11);
    let grid = HashGrid::with_random_init(
        HashGridConfig {
            levels: 16,
            features_per_level: 2,
            log2_table_size: if smoke { 12 } else { 17 },
            base_resolution: 16,
            max_resolution: if smoke { 128 } else { 512 },
        },
        &mut rng,
    );
    let chunk = if smoke { 512 } else { 4096 };
    let chunks = if smoke { 2 } else { 16 };
    let points: Vec<Vec<Vec3>> =
        (0..chunks).map(|c| random_positions(chunk, 100 + c as u64)).collect();
    let total = chunk * chunks;
    let dim = grid.config().output_dim();
    let reps = if smoke { 1 } else { 10 };

    let mut out = vec![0.0f32; chunk * dim];
    let (batched, scalar, speedup) = time_paired(
        reps,
        || {
            for pts in &points {
                grid.interpolate_batch_infer(pts, &mut out);
                black_box(&out);
            }
        },
        || {
            for pts in &points {
                black_box(reference::encode_points(&grid, pts));
            }
        },
    );
    BenchLine {
        name: "hash_grid_encode",
        points: total,
        batched_pts_per_s: total as f64 / batched,
        scalar_pts_per_s: Some(total as f64 / scalar),
        speedup: Some(speedup),
    }
}

/// MLP forward at Instant-NGP-like width: blocked GEMM vs the scalar
/// per-sample reference.
fn bench_mlp_forward(smoke: bool) -> BenchLine {
    let mut rng = SmallRng::seed_from_u64(13);
    let mlp = Mlp::new(&[32, 64, 64, 16], Activation::Relu, Activation::None, &mut rng);
    let n = if smoke { 256 } else { 4096 };
    let inputs: Vec<f32> = {
        let mut r = SmallRng::seed_from_u64(17);
        (0..n * mlp.input_dim()).map(|_| r.gen::<f32>() * 2.0 - 1.0).collect()
    };
    let reps = if smoke { 1 } else { 12 };

    let mut cache = MlpBatchCache::new();
    let (batched, scalar, speedup) = time_paired(
        reps,
        || {
            black_box(mlp.forward_batch(&inputs, n, &mut cache));
        },
        || {
            black_box(reference::mlp_forward(&mlp, &inputs, n));
        },
    );
    BenchLine {
        name: "mlp_forward",
        points: n,
        batched_pts_per_s: n as f64 / batched,
        scalar_pts_per_s: Some(n as f64 / scalar),
        speedup: Some(speedup),
    }
}

fn bench_model() -> ModelConfig {
    ModelConfig {
        grid: HashGridConfig {
            levels: 8,
            features_per_level: 2,
            log2_table_size: 14,
            base_resolution: 16,
            max_resolution: 256,
        },
        hidden_dim: 32,
        geo_feature_dim: 7,
    }
}

/// Renders every pixel through the scalar reference kernels: Stage I
/// via [`sample_ray`], Stage II one point at a time via
/// [`reference::model_forward`], Stage III via the allocating
/// [`composite`]. The pre-batched pipeline, preserved as a baseline.
fn scalar_render(
    model: &NerfModel,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    sampler: &SamplerConfig,
    background: Vec3,
) {
    for y in 0..camera.height() {
        for x in 0..camera.width() {
            let ray = camera.ray_for_pixel(x, y);
            let (samples, _) = sample_ray(&ray, occupancy, sampler);
            let positions: Vec<Vec3> = samples.iter().map(|s| s.position).collect();
            let (sigmas, colors) = reference::model_forward(model, &positions, ray.direction);
            let shaded: Vec<ShadedSample> = samples
                .iter()
                .zip(sigmas.iter().zip(colors.iter()))
                .map(|(s, (&sigma, &color))| ShadedSample { sigma, color, dt: s.dt })
                .collect();
            black_box(composite(&shaded, background, false).color);
        }
    }
}

/// Full single-thread render (Stage I–III): the batched SoA pipeline
/// vs the scalar per-point reference path, in retained samples per
/// second.
fn bench_render(smoke: bool) -> BenchLine {
    let mut rng = SmallRng::seed_from_u64(19);
    let model = NerfModel::new(bench_model(), &mut rng);
    let occupancy = scene_occupancy(SyntheticScene::Lego);
    let res = if smoke { 16u32 } else { 64 };
    let camera = trace_camera(res);
    let sampler = SamplerConfig { steps_per_diagonal: 128, max_samples_per_ray: 128 };
    let config = PipelineConfig { sampler, background: Vec3::ONE, early_stop: false };

    // Count the retained samples once (Stage I is deterministic).
    let mut samples = 0usize;
    for y in 0..res {
        for x in 0..res {
            samples += sample_ray(&camera.ray_for_pixel(x, y), &occupancy, &sampler).0.len();
        }
    }

    let reps = if smoke { 1 } else { 3 };
    let (batched, scalar, speedup) = time_paired(
        reps,
        || {
            black_box(render_image(&model, &occupancy, &camera, &config));
        },
        || {
            scalar_render(&model, &occupancy, &camera, &sampler, config.background);
        },
    );
    BenchLine {
        name: "render",
        points: samples,
        batched_pts_per_s: samples as f64 / batched,
        scalar_pts_per_s: Some(samples as f64 / scalar),
        speedup: Some(speedup),
    }
}

/// Per-sample gradient rows reused by every ray of the scalar
/// training baseline.
#[derive(Default)]
struct GradRows {
    d_sigma: Vec<f32>,
    d_color: Vec<Vec3>,
}

/// One training step through the scalar reference kernels: per ray,
/// Stage I via [`sample_ray`], a scalar forward per sample for
/// compositing, the allocating [`composite_backward`], then
/// [`reference::model_backward`]'s second scalar forward and backward
/// per sample — the O(1)-context design the batched trainer replaced.
/// Gradients accumulate into one buffer and Adam applies once,
/// matching [`Trainer::step`]'s update structure. Returns the
/// processed sample count.
#[allow(clippy::too_many_arguments)]
fn scalar_train_step<R: Rng>(
    model: &mut NerfModel,
    optimizer: &mut ModelOptimizer,
    grads: &mut ModelGrads,
    occupancy: &OccupancyGrid,
    dataset: &Dataset,
    config: &TrainerConfig,
    rows: &mut GradRows,
    rng: &mut R,
) -> usize {
    let batch = dataset.sample_batch(config.rays_per_batch, rng);
    let inv_norm = 1.0 / (batch.len() as f32 * 3.0);
    grads.zero();
    let mut total = 0usize;
    for (ray, target) in &batch {
        let (samples, _) = sample_ray(ray, occupancy, &config.sampler);
        total += samples.len();
        let positions: Vec<Vec3> = samples.iter().map(|s| s.position).collect();
        let (sigmas, colors) = reference::model_forward(model, &positions, ray.direction);
        let shaded: Vec<ShadedSample> = samples
            .iter()
            .zip(sigmas.iter().zip(colors.iter()))
            .map(|(s, (&sigma, &color))| ShadedSample { sigma, color, dt: s.dt })
            .collect();
        let out = composite(&shaded, config.background, false);
        let err = out.color - *target;
        let d_pixel = err * (2.0 * inv_norm);
        let sample_grads = composite_backward(&shaded, config.background, d_pixel);
        rows.d_sigma.clear();
        rows.d_sigma.extend(sample_grads.iter().map(|g| g.d_sigma));
        rows.d_color.clear();
        rows.d_color.extend(sample_grads.iter().map(|g| g.d_color));
        reference::model_backward(
            model,
            &positions,
            ray.direction,
            &rows.d_sigma,
            &rows.d_color,
            grads,
        );
    }
    optimizer.step(model, grads);
    total
}

/// Full single-thread training step (forward + backward + Adam): the
/// batched sharded trainer vs the scalar per-sample reference loop,
/// in processed samples per second. Both sides draw identical ray
/// batches (same seed, same draw count per step) against the same
/// fully-occupied warmup grid, so every paired round does the same
/// Stage-I work.
fn bench_train_step(smoke: bool) -> BenchLine {
    let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
    let dataset = Dataset::from_scene(&scene, 4, 64, 0.9);
    let mut rng = SmallRng::seed_from_u64(23);
    let model = NerfModel::new(bench_model(), &mut rng);
    let config = TrainerConfig {
        rays_per_batch: if smoke { 32 } else { 256 },
        sampler: SamplerConfig { steps_per_diagonal: 96, max_samples_per_ray: 64 },
        occupancy_warmup: u32::MAX,
        ..TrainerConfig::default()
    };
    let mut trainer = Trainer::new(model.clone(), config);
    let mut batched_rng = SmallRng::seed_from_u64(29);

    let mut scalar_model = model;
    let mut optimizer = ModelOptimizer::new(config.adam, &scalar_model);
    let mut grads = scalar_model.alloc_grads();
    let mut occupancy = OccupancyGrid::new(config.occupancy_resolution, config.occupancy_threshold);
    occupancy.fill();
    let mut rows = GradRows::default();
    let mut scalar_rng = SmallRng::seed_from_u64(29);

    let steps = if smoke { 1 } else { 10 };
    let mut samples = 0usize;
    let mut calls = 0usize;
    let (batched, scalar, speedup) = time_paired(
        steps,
        || {
            samples += trainer.step(&dataset, &mut batched_rng).samples;
            calls += 1;
        },
        || {
            black_box(scalar_train_step(
                &mut scalar_model,
                &mut optimizer,
                &mut grads,
                &occupancy,
                &dataset,
                &config,
                &mut rows,
                &mut scalar_rng,
            ));
        },
    );
    // Batch contents vary per step; report the mean samples per step
    // (both sides process the same batches, so one count serves both).
    let samples = samples / calls.max(1);
    BenchLine {
        name: "train_step",
        points: samples,
        batched_pts_per_s: samples as f64 / batched,
        scalar_pts_per_s: Some(samples as f64 / scalar),
        speedup: Some(speedup),
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:.1}"))
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_perf.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    // Single-thread: the microbenchmark speedups measure kernel
    // layout, not the PR-1 worker pool.
    set_thread_override(Some(1));
    let lines = [
        bench_encode(smoke),
        bench_mlp_forward(smoke),
        bench_render(smoke),
        bench_train_step(smoke),
    ];
    set_thread_override(None);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"fusion3d-perf-v1\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str("  \"threads\": 1,\n");
    json.push_str("  \"benches\": [\n");
    for (i, line) in lines.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"points\": {}, \"batched_pts_per_s\": {:.1}, \
             \"scalar_pts_per_s\": {}, \"speedup\": {}}}{}\n",
            line.name,
            line.points,
            line.batched_pts_per_s,
            json_opt(line.scalar_pts_per_s),
            line.speedup.map_or_else(|| "null".to_string(), |x| format!("{x:.2}")),
            if i + 1 == lines.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    if let Err(err) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {err}");
        std::process::exit(1);
    }

    println!(
        "{:<18} {:>12} {:>16} {:>16} {:>8}",
        "bench", "points", "batched pts/s", "scalar pts/s", "speedup"
    );
    for line in &lines {
        println!(
            "{:<18} {:>12} {:>16.0} {:>16} {:>8}",
            line.name,
            line.points,
            line.batched_pts_per_s,
            json_opt(line.scalar_pts_per_s),
            line.speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
        );
    }
    println!("wrote {out_path}");
}
