//! Scalar reference kernels for differential testing of the batched
//! hot path.
//!
//! Every function here evaluates the same mathematics as the batched
//! kernels in [`crate::encoding`], [`crate::mlp`], and
//! [`crate::model`], but one sample at a time through the original
//! scalar entry points. The model's per-sample forward and backward
//! are crate-private: this module is their only caller outside the
//! model's own unit tests. The batched kernels carry a bitwise-
//! determinism contract: for identical inputs they must produce
//! bit-for-bit identical f32 results to these loops. The differential
//! tests in `tests/batched_kernels.rs` enforce that contract at
//! several batch sizes, including sizes that are not multiples of the
//! GEMM tile widths.
//!
//! [`TrainOracle`] is the same idea one level up: a training step with
//! a dense gradient merge and per-cell occupancy probes, which
//! [`crate::trainer::Trainer::step`] must match bit for bit.
//!
//! These functions allocate freely and are deliberately unoptimized —
//! they exist to be obviously correct, not fast. Production code paths
//! must use the batched kernels.

use crate::batch::{KernelScratch, SampleBatch};
use crate::dataset::Dataset;
use crate::encoding::Encoding;
use crate::math::{Ray, Vec3};
use crate::mlp::{Mlp, MlpCache};
use crate::model::{ModelGrads, ModelOptimizer, NerfModel, PointContext};
use crate::occupancy::OccupancyGrid;
use crate::pipeline::PipelineConfig;
use crate::render::{composite, composite_backward_into, composite_into, ShadedSample};
use crate::sampler::{sample_ray, sample_ray_into};
use crate::trainer::{StepStats, TrainerConfig, GRAD_SHARDS};
use rand::Rng;

/// Encodes every position through the scalar [`Encoding::interpolate`]
/// path, returning point-major rows of `encoding.output_dim()`
/// features.
pub fn encode_points<E: Encoding>(encoding: &E, positions: &[Vec3]) -> Vec<f32> {
    let dim = encoding.output_dim();
    let mut out = vec![0.0f32; positions.len() * dim];
    for (p, row) in positions.iter().zip(out.chunks_exact_mut(dim)) {
        encoding.interpolate(*p, row);
    }
    out
}

/// Scatters feature gradients through the scalar
/// [`Encoding::backward`] path, accumulating into `grads`. `d_out`
/// holds point-major rows of `encoding.output_dim()` gradients.
///
/// # Panics
///
/// Panics if `d_out` is not `positions.len() * output_dim` long.
pub fn encode_backward<E: Encoding>(
    encoding: &E,
    positions: &[Vec3],
    d_out: &[f32],
    grads: &mut [f32],
) {
    let dim = encoding.output_dim();
    assert_eq!(d_out.len(), positions.len() * dim, "gradient rows do not match positions");
    for (p, row) in positions.iter().zip(d_out.chunks_exact(dim)) {
        encoding.backward(*p, row, grads);
    }
}

/// Runs `n` sample-major input rows through the scalar
/// [`Mlp::forward`] one at a time, returning sample-major output rows.
///
/// # Panics
///
/// Panics if `inputs` is not `n * mlp.input_dim()` long.
pub fn mlp_forward(mlp: &Mlp, inputs: &[f32], n: usize) -> Vec<f32> {
    let in_dim = mlp.input_dim();
    assert_eq!(inputs.len(), n * in_dim, "input rows do not match the batch size");
    let mut cache = MlpCache::new();
    let mut out = Vec::with_capacity(n * mlp.output_dim());
    for row in inputs.chunks_exact(in_dim) {
        out.extend_from_slice(mlp.forward(row, &mut cache));
    }
    out
}

/// Runs `n` samples through the scalar [`Mlp::forward`] /
/// [`Mlp::backward`] pair one at a time, returning
/// `(d_inputs, param_grads)` with per-element gradient contributions
/// accumulated in ascending sample order — the order the batched
/// [`Mlp::backward_batch`] reproduces bitwise.
///
/// # Panics
///
/// Panics if `inputs` or `d_outputs` do not match the batch size.
pub fn mlp_backward(
    mlp: &Mlp,
    inputs: &[f32],
    n: usize,
    d_outputs: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let in_dim = mlp.input_dim();
    let out_dim = mlp.output_dim();
    assert_eq!(inputs.len(), n * in_dim, "input rows do not match the batch size");
    assert_eq!(d_outputs.len(), n * out_dim, "gradient rows do not match the batch size");
    let mut cache = MlpCache::new();
    let mut d_inputs = vec![0.0f32; n * in_dim];
    let mut grads = vec![0.0f32; mlp.param_count()];
    for ((x, d_y), d_x) in inputs
        .chunks_exact(in_dim)
        .zip(d_outputs.chunks_exact(out_dim))
        .zip(d_inputs.chunks_exact_mut(in_dim))
    {
        mlp.forward(x, &mut cache);
        mlp.backward(&cache, d_y, d_x, &mut grads);
    }
    (d_inputs, grads)
}

/// Evaluates the full field one sample at a time through the model's
/// per-sample forward pass, returning `(sigmas, colors)`.
pub fn model_forward<E: Encoding>(
    model: &NerfModel<E>,
    positions: &[Vec3],
    direction: Vec3,
) -> (Vec<f32>, Vec<Vec3>) {
    let mut ctx = PointContext::new();
    let mut sigmas = Vec::with_capacity(positions.len());
    let mut colors = Vec::with_capacity(positions.len());
    for &p in positions {
        let eval = model.forward(p, direction, &mut ctx);
        sigmas.push(eval.sigma);
        colors.push(eval.color);
    }
    (sigmas, colors)
}

/// Backpropagates per-sample density/color gradients through the
/// model's per-sample backward pass one sample at a time (forward `s`,
/// then backward `s`), accumulating the parameter gradients into
/// `grads`.
///
/// Within every parameter element the contributions land in ascending
/// sample order after whatever `grads` already holds — the same order
/// [`NerfModel::backward_batch`] produces — so the result is
/// bitwise-comparable to the batched path.
///
/// # Panics
///
/// Panics if `d_sigma` or `d_color` do not match `positions`, or if
/// `grads` does not match the model.
pub fn model_backward<E: Encoding>(
    model: &NerfModel<E>,
    positions: &[Vec3],
    direction: Vec3,
    d_sigma: &[f32],
    d_color: &[Vec3],
    grads: &mut ModelGrads,
) {
    assert_eq!(d_sigma.len(), positions.len(), "density gradients do not match positions");
    assert_eq!(d_color.len(), positions.len(), "color gradients do not match positions");
    let mut ctx = PointContext::new();
    for ((&p, &ds), &dc) in positions.iter().zip(d_sigma).zip(d_color) {
        model.forward(p, direction, &mut ctx);
        model.backward(p, &ctx, ds, dc, grads);
    }
}

/// Renders one ray through the scalar pieces alone — [`sample_ray`],
/// [`model_forward`] and [`composite`] — returning its pixel color and
/// its depth: the blend-weighted mean sample parameter with early
/// termination off, or `None` for a ray that never absorbs.
///
/// This is the oracle the render pipeline's entry points must match
/// bit for bit, whatever the batching and thread count.
pub fn render_ray<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    ray: &Ray,
    config: &PipelineConfig,
) -> (Vec3, Option<f32>) {
    let (samples, _) = sample_ray(ray, occupancy, &config.sampler);
    let positions: Vec<Vec3> = samples.iter().map(|s| s.position).collect();
    let (sigmas, colors) = model_forward(model, &positions, ray.direction);
    let shaded: Vec<ShadedSample> = samples
        .iter()
        .zip(sigmas.iter().zip(&colors))
        .map(|(s, (&sigma, &color))| ShadedSample { sigma, color, dt: s.dt })
        .collect();
    let color = composite(&shaded, config.background, config.early_stop).color;
    let exact = composite(&shaded, config.background, false);
    let opacity = 1.0 - exact.final_transmittance;
    let depth = if opacity < 1e-3 {
        None
    } else {
        Some(samples.iter().zip(&exact.weights).map(|(s, &w)| s.t * w).sum::<f32>() / opacity)
    };
    (color, depth)
}

/// The training step with nothing sparse or batched across rays:
/// shards run one after another, every ray through the batched kernels
/// on its own, every shard gradient zeroed and merged densely in shard
/// order, one dense Adam step, and occupancy refreshes that probe one
/// cell at a time through the per-sample forward pass.
///
/// This is the oracle [`crate::trainer::Trainer::step`] must match bit
/// for bit: losses, parameters, occupancy and Adam state, from the same
/// model, configuration and random stream.
#[derive(Debug)]
pub struct TrainOracle<E: Encoding> {
    /// The model being trained.
    pub model: NerfModel<E>,
    /// The occupancy grid, full until the first refresh.
    pub occupancy: OccupancyGrid,
    /// The Adam state of the three parameter groups.
    pub optimizer: ModelOptimizer,
    /// The last step's merged gradient.
    pub grads: ModelGrads,
    config: TrainerConfig,
    iteration: u32,
}

impl<E: Encoding> TrainOracle<E> {
    /// Starts from `model` as [`crate::trainer::Trainer::new`] does.
    pub fn new(model: NerfModel<E>, config: TrainerConfig) -> Self {
        let mut occupancy =
            OccupancyGrid::new(config.occupancy_resolution, config.occupancy_threshold);
        occupancy.fill();
        let optimizer = ModelOptimizer::new(config.adam, &model);
        let grads = model.alloc_grads();
        TrainOracle { model, occupancy, optimizer, grads, config, iteration: 0 }
    }

    /// One optimization step on a random batch from `dataset`. (Not
    /// named `step`: the lint resolves method calls by name, and every
    /// `.step(` call on a hot path would then reach this oracle.)
    pub fn oracle_step<R: Rng>(&mut self, dataset: &Dataset, rng: &mut R) -> StepStats {
        let config = self.config;
        let it = self.iteration;
        if config.lr_decay != 1.0
            && config.lr_decay_interval > 0
            && it > 0
            && it.is_multiple_of(config.lr_decay_interval)
        {
            let decays = it / config.lr_decay_interval;
            self.optimizer
                .set_learning_rate(config.adam.learning_rate * config.lr_decay.powi(decays as i32));
        }
        if it >= config.occupancy_warmup && it.is_multiple_of(config.occupancy_update_interval) {
            let model = &self.model;
            let sigma = |p| model.forward(p, Vec3::Z, &mut PointContext::new()).sigma;
            self.occupancy.update(sigma, config.occupancy_decay, rng);
        }
        let batch = dataset.sample_batch(config.rays_per_batch, rng);
        let rays_per_shard = batch.len().div_ceil(GRAD_SHARDS.min(batch.len()).max(1));
        let shard_count = batch.len().div_ceil(rays_per_shard.max(1)).max(1);
        let inv_norm = 1.0 / (batch.len() as f32 * 3.0);

        self.grads.zero();
        let mut shard_grads = self.model.alloc_grads();
        let mut samples = SampleBatch::new();
        let mut kernel = KernelScratch::new();
        let mut sample_grads = Vec::new();
        let (mut loss_sum, mut sample_count) = (0.0f64, 0usize);
        for shard in 0..shard_count {
            shard_grads.zero();
            let start = (shard * rays_per_shard).min(batch.len());
            let end = (start + rays_per_shard).min(batch.len());
            let mut shard_loss = 0.0f64;
            for (ray, target) in &batch[start..end] {
                sample_ray_into(ray, &self.occupancy, &config.sampler, &mut samples);
                sample_count += samples.len();
                self.model.forward_batch(samples.positions(), ray.direction, &mut kernel);
                let shaded: Vec<ShadedSample> = kernel
                    .sigma()
                    .iter()
                    .zip(kernel.color())
                    .zip(samples.dts())
                    .map(|((&sigma, &color), &dt)| ShadedSample { sigma, color, dt })
                    .collect();
                let (color, _) = composite_into(&shaded, config.background, false, &mut Vec::new());
                let err = color - *target;
                shard_loss += (err.length_squared() / 3.0) as f64;
                let d_pixel = err * (2.0 * inv_norm);
                composite_backward_into(&shaded, config.background, d_pixel, &mut sample_grads);
                let d_sigma: Vec<f32> = sample_grads.iter().map(|g| g.d_sigma).collect();
                let d_color: Vec<Vec3> = sample_grads.iter().map(|g| g.d_color).collect();
                self.model.backward_batch(
                    samples.positions(),
                    &d_sigma,
                    &d_color,
                    &mut kernel,
                    &mut shard_grads,
                );
            }
            loss_sum += shard_loss;
            self.grads.accumulate(&shard_grads);
        }
        self.optimizer.step(&mut self.model, &self.grads);
        self.iteration += 1;
        StepStats { loss: loss_sum / batch.len() as f64, rays: batch.len(), samples: sample_count }
    }
}
