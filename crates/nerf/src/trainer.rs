//! The training loop: instant 3D reconstruction on the algorithm side.
//!
//! Each step samples a batch of training rays, runs the full
//! three-stage pipeline forward, computes an L2 photometric loss,
//! backpropagates through compositing, the MLPs, and the hash grid,
//! and applies Adam. The trainer also maintains the occupancy grid
//! (periodically refreshed from the current density field). Each step
//! reports its batch statistics, from which [`estimate_step_volume`]
//! gives the inter- and intra-stage data volumes behind the paper's
//! Fig. 3 bandwidth analysis. The one step ([`TrainState::fused_step`])
//! trains any number of experts whose pixels add: [`Trainer`] runs it
//! over one, the multi-chip MoE over several.

use crate::adam::{AdamConfig, AdamStep};
use crate::batch::{KernelScratch, SampleBatch};
use crate::dataset::Dataset;
use crate::dirty::{DirtyBlocks, DirtyChunk, WORD_FLOATS};
use crate::encoding::{Encoding, HashGrid};
use crate::image::Image;
use crate::math::{Ray, Vec3};
use crate::mlp::SH_DIM;
use crate::model::{sh_row, GridStep, ModelGrads, ModelOptimizer, NerfModel};
use crate::occupancy::OccupancyGrid;
use crate::pipeline::{render_image, PipelineConfig};
use crate::render::{composite_backward_into, composite_into, SampleGrad};
use crate::sampler::{append_ray_samples, SamplerConfig};
use fusion3d_par::Pool;
use rand::Rng;
use std::ops::Range;

/// Number of gradient shards per training step. Fixed (never derived
/// from the thread count) so the shard boundaries — and therefore the
/// f32 gradient-accumulation order — are identical no matter how many
/// workers execute them. Thread counts above this see no further
/// training speedup.
pub const GRAD_SHARDS: usize = 16;

/// Cells per task of the batched occupancy refresh: one model call
/// each. Fixed, like [`GRAD_SHARDS`], so the chunk boundaries never
/// depend on the thread count.
const REFRESH_CHUNK: usize = 512;

/// Dirty-bitmap words per task of the split shard merge and grid Adam
/// step: whole words, so no two tasks share one. A word covers 64
/// blocks, 1024 floats, so a task spans 32 KiB of each buffer (one-word
/// tasks measured slower at two threads). Fixed, like [`GRAD_SHARDS`];
/// and since every float goes through the same operations whichever
/// task owns it, neither this nor the thread count can move a bit.
const MERGE_CHUNK_WORDS: usize = 8;

/// Bytes moved by training, split along the paper's Fig. 3 stage
/// boundaries.
///
/// "Internal" volumes are the partial sums that a stage-local
/// accelerator would have to spill off-chip; "boundary" volumes are
/// the hand-offs between stages; `end_to_end_io` is the only traffic
/// the fully fused end-to-end accelerator must move off-chip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataVolume {
    /// Stage I → Stage II hand-off (sample positions, `t`, `δt`).
    pub stage1_to_stage2: u64,
    /// Stage II internal traffic (feature-table gathers forward,
    /// read-modify-write scatters backward).
    pub stage2_internal: u64,
    /// Stage II → Stage III hand-off (encoded features forward,
    /// feature gradients backward).
    pub stage2_to_stage3: u64,
    /// Stage III internal traffic (MLP activations forward and
    /// backward, compositing state).
    pub stage3_internal: u64,
    /// True end-to-end input/output: training images in, final model
    /// parameters out.
    pub end_to_end_io: u64,
}

impl DataVolume {
    /// Total intermediate volume (everything except end-to-end I/O).
    pub fn total_intermediate(&self) -> u64 {
        self.stage1_to_stage2 + self.stage2_internal + self.stage2_to_stage3 + self.stage3_internal
    }
}

impl std::ops::Add for DataVolume {
    type Output = DataVolume;
    fn add(self, rhs: DataVolume) -> DataVolume {
        DataVolume {
            stage1_to_stage2: self.stage1_to_stage2 + rhs.stage1_to_stage2,
            stage2_internal: self.stage2_internal + rhs.stage2_internal,
            stage2_to_stage3: self.stage2_to_stage3 + rhs.stage2_to_stage3,
            stage3_internal: self.stage3_internal + rhs.stage3_internal,
            end_to_end_io: self.end_to_end_io + rhs.end_to_end_io,
        }
    }
}

/// The data volume one training step moves, from the model
/// architecture and the step's batch statistics alone, so Fig. 3 /
/// Fig. 13(b) volumes project to paper scale without running a
/// full-size training job.
///
/// `rays` and `samples` are the step's batch statistics (a
/// [`StepStats`]'s `rays` and `samples`). The end-to-end I/O is not a
/// per-step volume, so it reads 0.
pub fn estimate_step_volume(
    config: &crate::model::ModelConfig,
    rays: u64,
    samples: u64,
) -> DataVolume {
    let enc_dim = config.grid.output_dim() as u64;
    DataVolume {
        // Stage I → II: position (12 B) + t (4 B) + δt (4 B) per
        // sample, plus a per-ray direction.
        stage1_to_stage2: samples * 20 + rays * 12,
        // Stage II internal: the per-level interpolated-feature
        // partial sums — read-modify-written during the training
        // scatter (3 passes). The eight corner fetches behind each
        // level stay inside the interpolation array's registers and
        // are modelled as SRAM traffic by `fusion3d-mem`, not as
        // spillable intermediate volume.
        stage2_internal: samples * enc_dim * 4 * 3,
        // Stage II → III: encoded features forward + gradients back.
        stage2_to_stage3: samples * enc_dim * 4 * 2,
        // Stage III internal: per-sample compositing terms (weight,
        // transmittance, α) plus per-ray accumulators; the tiny MLPs
        // are fully fused (as in Instant-NGP and the chip's MLP
        // engine), so their activations never spill.
        stage3_internal: samples * 48 + rays * 32,
        end_to_end_io: 0,
    }
}

/// Trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Rays per optimization step.
    pub rays_per_batch: usize,
    /// Adam settings (applied to all three parameter groups).
    pub adam: AdamConfig,
    /// Stage-I sampler settings.
    pub sampler: SamplerConfig,
    /// Occupancy-grid resolution per axis.
    pub occupancy_resolution: u32,
    /// Density threshold for occupancy.
    pub occupancy_threshold: f32,
    /// Refresh the occupancy grid every this many iterations.
    pub occupancy_update_interval: u32,
    /// EMA decay used in occupancy refreshes.
    pub occupancy_decay: f32,
    /// Iterations before the first occupancy refresh (the grid starts
    /// fully occupied).
    pub occupancy_warmup: u32,
    /// Background color composited behind the last sample.
    pub background: Vec3,
    /// Multiplicative learning-rate decay applied every
    /// `lr_decay_interval` iterations (1.0 disables the schedule).
    pub lr_decay: f32,
    /// Iterations between learning-rate decays.
    pub lr_decay_interval: u32,
}

impl Default for TrainerConfig {
    /// Settings tuned for fast CPU training of the compact default
    /// model while retaining the structure of Instant-NGP's schedule.
    fn default() -> Self {
        TrainerConfig {
            rays_per_batch: 128,
            adam: AdamConfig::default(),
            sampler: SamplerConfig { steps_per_diagonal: 96, max_samples_per_ray: 64 },
            occupancy_resolution: 24,
            occupancy_threshold: 0.5,
            occupancy_update_interval: 24,
            occupancy_decay: 0.9,
            occupancy_warmup: 48,
            background: Vec3::ONE,
            // Instant-NGP-style schedule: a gentle exponential decay
            // keeps late iterations from oscillating.
            lr_decay: 0.85,
            lr_decay_interval: 160,
        }
    }
}

/// Statistics of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mean squared photometric error over the batch.
    pub loss: f64,
    /// Rays processed.
    pub rays: usize,
    /// Sample points processed.
    pub samples: usize,
}

/// One expert: a complete model plus the occupancy grid that gates its
/// samples. [`Trainer`] trains one; the multi-chip MoE trains several
/// whose pixels add.
#[derive(Debug)]
pub struct Expert<E: Encoding = HashGrid> {
    /// The expert's field.
    pub model: NerfModel<E>,
    /// The expert's occupancy grid (the MoE gate).
    pub occupancy: OccupancyGrid,
}

/// A gradient buffer plus a bitmap of the grid-gradient blocks it may
/// hold nonzero values in, so zeroing and merging visit only those.
#[derive(Debug)]
struct SparseGrads {
    grads: ModelGrads,
    dirty: DirtyBlocks,
}

impl SparseGrads {
    fn new<E: Encoding>(model: &NerfModel<E>) -> Self {
        SparseGrads {
            grads: model.alloc_grads(),
            dirty: DirtyBlocks::new(model.grid().param_count()),
        }
    }
}

/// One expert's layer of the ray group a worker is training on: the
/// group's Stage-I samples, ray after ray, and the forward state its
/// backward pass reuses, kept until every fused pixel's loss is known.
#[derive(Debug, Default)]
struct LayerScratch {
    samples: SampleBatch,
    /// Where each ray of the group ends in `samples`.
    ends: Vec<usize>,
    /// The group ray of each sample.
    ray_of: Vec<u32>,
    kernel: KernelScratch,
    /// The transmittance left behind the layer's last sample of the
    /// ray being composited.
    transmittance: f32,
    /// Per sample, the loss gradient of its density and color.
    d_sigma: Vec<f32>,
    d_color: Vec<Vec3>,
}

impl LayerScratch {
    /// The samples of group ray `r`.
    fn range(&self, r: usize) -> Range<usize> {
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        start..self.ends[r]
    }
}

/// The working memory of one pool worker: one layer per expert, the
/// group's view encodings and the per-sample gradient rows, reused by
/// every task the worker runs, so the hot loop allocates nothing per
/// ray.
#[derive(Debug, Default)]
struct WorkerScratch {
    layers: Vec<LayerScratch>,
    /// The view encoding of each ray of the group.
    sh: Vec<[f32; SH_DIM]>,
    sample_grads: Vec<SampleGrad>,
}

/// One task of the split shard merge and grid Adam step: the floats of
/// one expert's grid that [`MERGE_CHUNK_WORDS`] bitmap words cover, with
/// the union's words, the merged gradient, the parameters and their
/// moments there.
#[derive(Debug)]
struct GridChunk<'a> {
    expert: usize,
    union: DirtyChunk<'a>,
    merged: &'a mut [f32],
    step: AdamStep,
    params: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
}

impl<'a> GridChunk<'a> {
    /// The chunks of `expert`'s grid, whose merged gradient and union
    /// are `merged` and whose step is `grid`.
    fn split(
        expert: usize,
        grid: GridStep<'a>,
        merged: &'a mut SparseGrads,
    ) -> impl Iterator<Item = GridChunk<'a>> {
        let GridStep { step, params, m, v } = grid;
        let floats = MERGE_CHUNK_WORDS * WORD_FLOATS;
        let vectors = params.chunks_mut(floats).zip(m.chunks_mut(floats)).zip(v.chunks_mut(floats));
        let grads = merged.grads.grid.chunks_mut(floats);
        merged.dirty.chunks_mut(MERGE_CHUNK_WORDS).zip(grads).zip(vectors).map(
            move |((union, merged), ((params, m), v))| GridChunk {
                expert,
                union,
                merged,
                step,
                params,
                m,
                v,
            },
        )
    }

    /// Zeroes the chunk where the last step's union was dirty, adds
    /// each of `shards`' dirty runs in shard order, ORs their bitmaps
    /// into the union and Adam-steps the union's runs: the chunk's
    /// share of a dense merge and [`ModelOptimizer::step`], bit for
    /// bit (see [`TrainState::fused_step`]).
    fn merge_and_step<'s>(self, shards: impl Iterator<Item = &'s SparseGrads>) {
        let GridChunk { mut union, merged, step, params, m, v, .. } = self;
        for Range { start, end } in union.runs() {
            merged[start..end].fill(0.0);
        }
        union.clear();
        let (floats, words) = (union.floats(), union.words());
        for SparseGrads { grads, dirty } in shards {
            let grid = &grads.grid[floats.start..floats.end];
            for Range { start, end } in dirty.runs_in(words.start..words.end) {
                for (a, b) in merged[start..end].iter_mut().zip(&grid[start..end]) {
                    *a += b;
                }
            }
            union.union_with(dirty);
        }
        for Range { start, end } in union.runs() {
            step.apply(
                &mut params[start..end],
                &merged[start..end],
                &mut m[start..end],
                &mut v[start..end],
            );
        }
    }
}

/// The worker scratches for `pool` running `tasks` tasks, grown to
/// `min(threads, tasks)` (at least one) the first time. Every caller
/// of [`Pool::run_tasks`] sizes its scratch here.
pub(crate) fn worker_scratches<'a, W: Default>(
    workers: &'a mut Vec<W>,
    pool: &Pool,
    tasks: usize,
) -> &'a mut [W] {
    let n = pool.threads().min(tasks).max(1);
    if workers.len() < n {
        workers.resize_with(n, W::default);
    }
    workers
}

impl WorkerScratch {
    /// Empties the group: its view encodings and every layer's samples.
    fn begin_group(&mut self) {
        self.sh.clear();
        for layer in &mut self.layers {
            layer.samples.clear();
            layer.ends.clear();
        }
    }
}

/// Trains one group of a shard's rays, `rays` with their targets, whose
/// Stage-I samples and view encodings `w` holds, adding each ray's loss
/// to `loss_sum` in ray order and the gradients to `shard`.
///
/// Each expert runs one forward over the group, each sample reading its
/// ray's view encoding; each ray composites and runs its composite
/// backward on its own range; then each expert runs one backward and
/// one `mark_written`. A sample's forward does not depend on its batch;
/// the backward adds each gradient element's samples in ascending
/// order onto the stored value, and the grid scatter is point-ascending
/// per slot, so the group performs the additions of one call per ray,
/// in the same order.
fn train_group<E: Encoding>(
    experts: &[Expert<E>],
    rays: &[(Ray, Vec3)],
    config: &TrainerConfig,
    inv_norm: f32,
    w: &mut WorkerScratch,
    shard: &mut [SparseGrads],
    loss_sum: &mut f64,
) {
    let WorkerScratch { layers, sh, sample_grads } = w;
    for (expert, layer) in experts.iter().zip(layers.iter_mut()) {
        let LayerScratch { samples, ends, ray_of, kernel, d_sigma, d_color, .. } = layer;
        ray_of.clear();
        for (r, &end) in ends.iter().enumerate() {
            ray_of.resize(end, r as u32);
        }
        expert.model.forward_batch_impl(
            samples.positions(),
            |s| &sh[ray_of[s] as usize],
            kernel,
            true,
        );
        kernel.build_shaded(samples.dts());
        d_sigma.resize(samples.len(), 0.0);
        d_color.resize(samples.len(), Vec3::ZERO);
    }
    for (r, (_, target)) in rays.iter().enumerate() {
        // Colors add and transmittances multiply in expert order.
        let mut color = Vec3::ZERO;
        for layer in layers.iter_mut() {
            let range = layer.range(r);
            let kernel = &mut layer.kernel;
            let (c, t) =
                composite_into(&kernel.shaded[range], Vec3::ZERO, false, &mut kernel.weights);
            color += c;
            layer.transmittance = t;
        }
        let behind: f32 = layers.iter().map(|l| l.transmittance).product();
        let err = color + config.background * behind - *target;
        *loss_sum += (err.length_squared() / 3.0) as f64;
        // d(mean squared error)/d(pixel color).
        let d_pixel = err * (2.0 * inv_norm);
        for e in 0..layers.len() {
            // `background · Π_{j≠e} T_j`: the product in expert order,
            // skipping `e`.
            let others: f32 = layers
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != e)
                .map(|(_, l)| l.transmittance)
                .product();
            let layer = &mut layers[e];
            let Range { start, end } = layer.range(r);
            let background = config.background * others;
            let shaded = &layer.kernel.shaded[start..end];
            composite_backward_into(shaded, background, d_pixel, sample_grads);
            let rows = layer.d_sigma[start..end].iter_mut().zip(&mut layer.d_color[start..end]);
            for ((ds, dc), g) in rows.zip(sample_grads.iter()) {
                (*ds, *dc) = (g.d_sigma, g.d_color);
            }
        }
    }
    for ((expert, layer), g) in experts.iter().zip(layers.iter_mut()).zip(shard.iter_mut()) {
        let LayerScratch { samples, kernel, d_sigma, d_color, .. } = layer;
        expert.model.backward_batch(samples.positions(), d_sigma, d_color, kernel, &mut g.grads);
        expert.model.grid().mark_written(&kernel.enc, &mut g.dirty);
    }
}

/// Everything the training step keeps across steps except the experts
/// themselves: the configuration and iteration count, per expert the
/// Adam state and the last step's merged gradient, per gradient shard
/// one sparse gradient per expert, one scratch per pool worker, and the
/// occupancy refresh's per-cell buffers.
///
/// [`Trainer`] steps it over one expert; the multi-chip MoE trainer
/// over all of its experts, whose pixels fuse as
/// `Σ_e C_e + background · Π_e T_e`.
#[derive(Debug)]
pub struct TrainState {
    config: TrainerConfig,
    iteration: u32,
    optimizers: Vec<ModelOptimizer>,
    /// Per expert, the merged gradient of the last step and the union
    /// of the shard bitmaps.
    merged: Vec<SparseGrads>,
    /// Per shard, one sparse gradient per expert.
    shards: Vec<Vec<SparseGrads>>,
    workers: Vec<WorkerScratch>,
    points: Vec<Vec3>,
    densities: Vec<f32>,
}

impl TrainState {
    /// The state for training `experts` under `config`: each expert's
    /// optimizer takes its settings from `config.adam`.
    pub fn new<E: Encoding>(config: TrainerConfig, experts: &[Expert<E>]) -> Self {
        TrainState {
            config,
            iteration: 0,
            optimizers: experts
                .iter()
                .map(|e| ModelOptimizer::new(config.adam, &e.model))
                .collect(),
            merged: experts.iter().map(|e| SparseGrads::new(&e.model)).collect(),
            shards: Vec::new(),
            workers: Vec::new(),
            points: Vec::new(),
            densities: Vec::new(),
        }
    }

    /// The trainer configuration.
    #[inline]
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Iterations completed.
    #[inline]
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Refreshes `expert`'s occupancy grid from its density field,
    /// bit-identically to [`OccupancyGrid::update`] with
    /// [`NerfModel::density_at`]: the probe points are drawn in cell
    /// order, their densities evaluated in fixed chunks of cells across
    /// the pool through [`NerfModel::density_batch`], and the EMA
    /// applied in cell order.
    fn refresh_occupancy<E: Encoding, R: Rng>(&mut self, expert: &mut Expert<E>, rng: &mut R) {
        let TrainState { config, workers, points, densities, .. } = self;
        let grid = &mut expert.occupancy;
        points.resize(grid.cell_count(), Vec3::ZERO);
        densities.resize(grid.cell_count(), 0.0);
        grid.draw_probe_points(rng, points);
        let pool = Pool::new();
        let workers = worker_scratches(workers, &pool, points.len().div_ceil(REFRESH_CHUNK));
        let chunks = points.chunks(REFRESH_CHUNK).zip(densities.chunks_mut(REFRESH_CHUNK));
        let model = &expert.model;
        pool.run_tasks(chunks, workers, |_, (points, out), worker| {
            // Any layer's kernel scratch serves; the first step makes one
            // per expert.
            worker.layers.resize_with(worker.layers.len().max(1), LayerScratch::default);
            model.density_batch(points, out, &mut worker.layers[0].kernel);
        });
        grid.apply_densities(densities, config.occupancy_decay);
    }

    /// One optimization step of `experts` on a random batch from
    /// `dataset`, with their pixels fused by addition.
    ///
    /// The learning-rate schedule applies first, then the occupancy
    /// refreshes in expert order. Per ray, every expert runs Stage I, a
    /// batched forward and compositing over black; the pixel is
    /// `Σ_e C_e + background · Π_e T_e`, and expert `e`'s backward sees
    /// the background attenuated by the other experts,
    /// `background · Π_{j≠e} T_j`. The batch splits into fixed ray-range
    /// shards, each with one sparse gradient per expert, whose rays
    /// share model calls in groups (see `train_group`); every expert's
    /// shards merge in shard order and its Adam step visits only the
    /// blocks they wrote, both split across the pool in fixed chunks.
    ///
    /// With one expert this is exactly the single-model step: its color
    /// over black plus `+0.0` is its color, `1.0 · T` is `T`, and the
    /// empty product is `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is not the expert count the state was built
    /// for.
    pub fn fused_step<E: Encoding, R: Rng>(
        &mut self,
        experts: &mut [Expert<E>],
        dataset: &Dataset,
        rng: &mut R,
    ) -> StepStats {
        assert_eq!(experts.len(), self.optimizers.len(), "the state was built for other experts");
        let config = self.config;
        let it = self.iteration;
        if config.lr_decay != 1.0
            && config.lr_decay_interval > 0
            && it > 0
            && it.is_multiple_of(config.lr_decay_interval)
        {
            let decays = it / config.lr_decay_interval;
            let lr = config.adam.learning_rate * config.lr_decay.powi(decays as i32);
            for optimizer in &mut self.optimizers {
                optimizer.set_learning_rate(lr);
            }
        }
        if it >= config.occupancy_warmup && it.is_multiple_of(config.occupancy_update_interval) {
            for expert in experts.iter_mut() {
                self.refresh_occupancy(expert, rng);
            }
        }
        let batch = dataset.sample_batch(config.rays_per_batch, rng);

        // Shard the batch into contiguous ray ranges, one gradient
        // buffer per shard and expert. Shard geometry depends only on
        // the batch size, and shards merge in shard-index order below,
        // so the updated parameters are bitwise-identical for any
        // thread count.
        let max_shards = GRAD_SHARDS.min(batch.len()).max(1);
        let rays_per_shard = batch.len().div_ceil(max_shards);
        // Re-derive the count from the shard size so the last shard
        // ends exactly at the batch boundary: batch sizes that are not
        // multiples of GRAD_SHARDS would otherwise leave trailing
        // shards whose start lies past the end of the batch.
        let shard_count = batch.len().div_ceil(rays_per_shard.max(1)).max(1);
        while self.shards.len() < shard_count {
            // lint: allow(h2): shards grow lazily to the shard count
            // on the first step, then are reused by every later one
            self.shards.push(experts.iter().map(|e| SparseGrads::new(&e.model)).collect());
        }
        let inv_norm = 1.0 / (batch.len() as f32 * 3.0);

        // Workers read the experts while holding exclusive access to
        // their shard and scratch.
        let pool = Pool::new();
        let workers = worker_scratches(&mut self.workers, &pool, shard_count);
        let experts_ref: &[Expert<E>] = experts;
        let shards = self.shards[..shard_count].iter_mut();
        let stats = pool.run_tasks(shards, workers, |index, shard, w| {
            // Only the blocks this shard wrote last step are nonzero.
            shard.iter_mut().for_each(|g| g.grads.zero_dirty(&mut g.dirty));
            w.layers.resize_with(experts_ref.len(), LayerScratch::default);
            let start = (index * rays_per_shard).min(batch.len());
            let end = (start + rays_per_shard).min(batch.len());
            let mut loss_sum = 0.0f64;
            let mut sample_count = 0usize;
            // Consecutive rays form a group, closed once its samples,
            // summed over experts, reach one ray's cap: each expert runs
            // one forward and one backward call per group. Stage I
            // appends each ray's samples to the group's batches.
            let mut group = start;
            for r in start..end {
                if r == group {
                    w.begin_group();
                }
                let ray = &batch[r].0;
                w.sh.push(sh_row(ray.direction)); // lint: allow(h2): amortized into retained scratch capacity
                let mut group_samples = 0;
                for (expert, layer) in experts_ref.iter().zip(w.layers.iter_mut()) {
                    append_ray_samples(ray, &expert.occupancy, &config.sampler, &mut layer.samples);
                    layer.ends.push(layer.samples.len()); // lint: allow(h2): amortized into retained scratch capacity
                    group_samples += layer.samples.len();
                }
                if group_samples >= config.sampler.max_samples_per_ray || r + 1 == end {
                    let rays = &batch[group..r + 1];
                    train_group(experts_ref, rays, &config, inv_norm, w, shard, &mut loss_sum);
                    sample_count += group_samples;
                    group = r + 1;
                }
            }
            (loss_sum, sample_count)
        });

        // Fixed-order merge: losses and shard gradients accumulate in
        // shard-index order regardless of which worker finished first.
        let mut loss_sum = 0.0f64;
        let mut sample_count = 0usize;
        for (loss, samples) in stats {
            loss_sum += loss;
            sample_count += samples;
        }
        // The dense MLP gradients merge and step here; the grid
        // gradients merge over dirty blocks only, in chunks of whole
        // bitmap words across the pool, every expert's chunks in one
        // dispatch. That is bit-identical to zeroing the merged buffer
        // and adding every shard densely in shard order. A shard's grid
        // gradient is +0.0 outside its bitmap (it was zeroed there and
        // its backward wrote nothing else), and the merged buffer is
        // +0.0 outside the last step's union, zeroed by each chunk. An
        // f32 sum that starts at +0.0 never becomes -0.0 under
        // round-to-nearest (a sum is -0.0 only when both addends are),
        // so adding an untouched shard's +0.0 never changes a bit and
        // skipping it is exact. And Adam skips entries whose gradient is
        // exactly zero, so stepping only this step's union performs the
        // same updates. Each float sees the same operations whichever
        // chunk holds it, and every chunk shares its expert's step
        // coefficients.
        let TrainState { optimizers, merged, shards, workers, .. } = self;
        let shards = &shards[..shard_count];
        let mut chunks = Vec::new();
        let updates = optimizers.iter_mut().zip(merged.iter_mut());
        for (e, (expert, (optimizer, merged))) in experts.iter_mut().zip(updates).enumerate() {
            merged.grads.merge_mlps(shards.iter().map(|s| &s[e].grads));
            let grid = optimizer.step_mlps(&mut expert.model, &merged.grads);
            chunks.extend(GridChunk::split(e, grid, merged));
        }
        let workers = worker_scratches(workers, &pool, chunks.len());
        pool.run_tasks(chunks, workers, |_, chunk, _| {
            let e = chunk.expert;
            chunk.merge_and_step(shards.iter().map(|s| &s[e]));
        });
        self.iteration += 1;
        StepStats { loss: loss_sum / batch.len() as f64, rays: batch.len(), samples: sample_count }
    }
}

/// A NeRF trainer owning the model, occupancy grid, and optimizer
/// state: the one-expert caller of [`TrainState::fused_step`]. Generic
/// over the model's spatial encoding (hash grid by default).
#[derive(Debug)]
pub struct Trainer<E: Encoding = HashGrid> {
    expert: Expert<E>,
    state: TrainState,
}

impl<E: Encoding> Trainer<E> {
    /// Creates a trainer for `model`. The occupancy grid starts fully
    /// occupied (no gating) until the first refresh.
    pub fn new(model: NerfModel<E>, config: TrainerConfig) -> Self {
        let mut occupancy =
            OccupancyGrid::new(config.occupancy_resolution, config.occupancy_threshold);
        occupancy.fill();
        let expert = Expert { model, occupancy };
        let state = TrainState::new(config, std::slice::from_ref(&expert));
        Trainer { expert, state }
    }

    /// The model being trained.
    #[inline]
    pub fn model(&self) -> &NerfModel<E> {
        &self.expert.model
    }

    /// Mutable model access (used by quantized-training experiments).
    #[inline]
    pub fn model_mut(&mut self) -> &mut NerfModel<E> {
        &mut self.expert.model
    }

    /// The current occupancy grid.
    #[inline]
    pub fn occupancy(&self) -> &OccupancyGrid {
        &self.expert.occupancy
    }

    /// The trainer configuration.
    #[inline]
    pub fn config(&self) -> &TrainerConfig {
        self.state.config()
    }

    /// Iterations completed.
    #[inline]
    pub fn iteration(&self) -> u32 {
        self.state.iteration()
    }

    /// Consumes the trainer, returning the trained model and occupancy
    /// grid.
    pub fn into_parts(self) -> (NerfModel<E>, OccupancyGrid) {
        (self.expert.model, self.expert.occupancy)
    }

    /// Runs one optimization step on a random batch from `dataset`.
    pub fn step<R: Rng>(&mut self, dataset: &Dataset, rng: &mut R) -> StepStats {
        self.state.fused_step(std::slice::from_mut(&mut self.expert), dataset, rng)
    }

    /// Runs `iterations` steps and returns the mean loss of the final
    /// quarter of them.
    pub fn train<R: Rng>(&mut self, dataset: &Dataset, iterations: u32, rng: &mut R) -> f64 {
        tail_mean(iterations, || self.step(dataset, rng).loss)
    }

    /// Renders every view of `dataset` with the current model and
    /// returns the mean PSNR.
    pub fn evaluate_psnr(&self, dataset: &Dataset) -> f64 {
        let cfg = PipelineConfig {
            sampler: self.config().sampler,
            background: self.config().background,
            early_stop: false,
        };
        let mut total = 0.0;
        for view in dataset.views() {
            let rendered = render_image(self.model(), self.occupancy(), &view.camera, &cfg);
            total += rendered.psnr(&view.image);
        }
        total / dataset.views().len() as f64
    }

    /// Renders an arbitrary view with the current model.
    pub fn render(&self, camera: &crate::camera::Camera) -> Image {
        let cfg = PipelineConfig {
            sampler: self.config().sampler,
            background: self.config().background,
            early_stop: true,
        };
        render_image(self.model(), self.occupancy(), camera, &cfg)
    }
}

/// Runs `step` `iterations` times and returns the mean of the losses
/// of the final quarter of them (0.0 for no iterations): what
/// [`Trainer::train`] and the MoE trainer's `train` report.
pub fn tail_mean(iterations: u32, mut step: impl FnMut() -> f64) -> f64 {
    let tail = iterations.div_ceil(4);
    let mut sum = 0.0;
    for i in 0..iterations {
        let loss = step();
        if i >= iterations - tail {
            sum += loss;
        }
    }
    sum / tail.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::HashGridConfig;
    use crate::model::ModelConfig;
    use crate::scenes::{ProceduralScene, SyntheticScene};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_model_config() -> ModelConfig {
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
        }
    }

    fn test_model(seed: u64) -> NerfModel {
        NerfModel::new(test_model_config(), &mut SmallRng::seed_from_u64(seed))
    }

    fn test_config() -> TrainerConfig {
        TrainerConfig {
            rays_per_batch: 64,
            sampler: SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: 32 },
            occupancy_resolution: 16,
            occupancy_update_interval: 20,
            occupancy_warmup: 40,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn data_volume_accounting() {
        let v = DataVolume {
            stage1_to_stage2: 10,
            stage2_internal: 100,
            stage2_to_stage3: 20,
            stage3_internal: 200,
            end_to_end_io: 5,
        };
        assert_eq!(v.total_intermediate(), 330);
        let sum = v + v;
        assert_eq!(sum.total_intermediate(), 660);
        assert_eq!(sum.end_to_end_io, 10);
    }

    #[test]
    fn training_reduces_loss_on_a_scene() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
        let dataset = Dataset::from_scene(&scene, 6, 24, 0.9);
        let mut trainer = Trainer::new(test_model(1), test_config());
        let mut rng = SmallRng::seed_from_u64(2);

        let first: f64 = (0..5).map(|_| trainer.step(&dataset, &mut rng).loss).sum::<f64>() / 5.0;
        for _ in 0..120 {
            trainer.step(&dataset, &mut rng);
        }
        let last: f64 = (0..5).map(|_| trainer.step(&dataset, &mut rng).loss).sum::<f64>() / 5.0;
        assert!(last < first * 0.5, "loss should drop by >2x: first {first}, last {last}");
        assert_eq!(trainer.iteration(), 130);
    }

    #[test]
    fn occupancy_tightens_during_training() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Mic);
        let dataset = Dataset::from_scene(&scene, 5, 20, 0.9);
        let mut trainer = Trainer::new(test_model(3), test_config());
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(trainer.occupancy().occupancy_ratio(), 1.0);
        for _ in 0..150 {
            trainer.step(&dataset, &mut rng);
        }
        let ratio = trainer.occupancy().occupancy_ratio();
        assert!(ratio < 0.9, "occupancy grid should prune empty space, got {ratio}");
    }

    #[test]
    fn step_volumes_grow_every_step() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
        let dataset = Dataset::from_scene(&scene, 3, 16, 0.9);
        let mut trainer = Trainer::new(test_model(5), test_config());
        let mut rng = SmallRng::seed_from_u64(6);
        let mut step_volume = || {
            let stats = trainer.step(&dataset, &mut rng);
            estimate_step_volume(&test_model_config(), stats.rays as u64, stats.samples as u64)
        };
        let v1 = step_volume();
        let v2 = v1 + step_volume();
        assert!(v2.total_intermediate() > v1.total_intermediate());
        assert!(v1.stage2_internal > v1.stage2_to_stage3, "gathers dominate hand-offs");
    }

    #[test]
    fn step_handles_batch_sizes_not_multiple_of_shard_count() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Chair);
        let dataset = Dataset::from_scene(&scene, 3, 16, 0.9);
        // Sizes where ceil-division sharding would place a shard start
        // past the end of the batch if the count were not re-derived.
        for rays_per_batch in [17, 50, 100] {
            let config = TrainerConfig { rays_per_batch, ..test_config() };
            let mut trainer = Trainer::new(test_model(9), config);
            let mut rng = SmallRng::seed_from_u64(10);
            let stats = trainer.step(&dataset, &mut rng);
            assert_eq!(stats.rays, rays_per_batch);
            assert!(stats.loss.is_finite() && stats.loss >= 0.0);
        }
    }

    /// Trains `model` with [`Trainer::step`] and with the dense per-ray
    /// oracle side by side, asserting the loss and merged-gradient bits
    /// of every step and the final parameter, occupancy and Adam-moment
    /// bits. Returns the share of grid-gradient floats the last step's
    /// merge visited, and every step's sample count.
    fn assert_matches_the_oracle<E: Encoding + Clone>(
        model: NerfModel<E>,
        config: TrainerConfig,
        dataset: &Dataset,
        steps: u32,
    ) -> (f64, Vec<usize>) {
        let mut trainer = Trainer::new(model.clone(), config);
        let mut oracle = crate::reference::TrainOracle::new(model, config);
        let (mut rng, mut oracle_rng) = (SmallRng::seed_from_u64(21), SmallRng::seed_from_u64(21));
        let mut samples = Vec::new();
        for step in 0..steps {
            let got = trainer.step(dataset, &mut rng);
            let expected = oracle.oracle_step(dataset, &mut oracle_rng);
            assert_eq!(got.loss.to_bits(), expected.loss.to_bits(), "loss of step {step}");
            assert_eq!(got.samples, expected.samples, "samples of step {step}");
            samples.push(got.samples);
            // The sparse merge leaves the same buffer as the dense one,
            // untouched blocks included.
            let grads = &trainer.state.merged[0].grads;
            for (x, y) in [
                (&grads.grid, &oracle.grads.grid),
                (&grads.density, &oracle.grads.density),
                (&grads.color, &oracle.grads.color),
            ] {
                assert!(x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits()), "step {step}");
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (a, b) = (trainer.model(), &oracle.model);
        assert_eq!(bits(a.grid().params()), bits(b.grid().params()), "grid parameters");
        assert_eq!(bits(a.density_mlp().params()), bits(b.density_mlp().params()), "density MLP");
        assert_eq!(bits(a.color_mlp().params()), bits(b.color_mlp().params()), "color MLP");
        let cells = |g: &OccupancyGrid| {
            (0..g.cell_count()).map(|c| g.is_cell_occupied(c)).collect::<Vec<_>>()
        };
        assert_eq!(cells(trainer.occupancy()), cells(&oracle.occupancy), "occupancy bits");
        assert!(trainer.occupancy().occupancy_ratio() < 1.0, "the refreshes never cleared a cell");
        for (group, (x, y)) in
            trainer.state.optimizers[0].groups().iter().zip(oracle.optimizer.groups()).enumerate()
        {
            assert_eq!(x.step_count(), y.step_count(), "Adam steps of group {group}");
            assert_eq!(bits(x.moments().0), bits(y.moments().0), "first moments of group {group}");
            assert_eq!(bits(x.moments().1), bits(y.moments().1), "second moments of group {group}");
        }
        let merged = &trainer.state.merged[0];
        let visited: usize = merged.dirty.runs().map(|run| run.len()).sum();
        (visited as f64 / merged.grads.grid.len() as f64, samples)
    }

    /// Asserts that the steps' sample counts reach both ends of the
    /// grouped model calls: a warm-up step whose shards average more
    /// than two capped rays, so some shard spans several calls, and a
    /// step after the first refresh whose shards average less than one,
    /// so some shard is one call.
    fn assert_covers_both_group_shapes(samples: &[usize], config: &TrainerConfig) {
        let per_shard = |s: usize| s as f64 / GRAD_SHARDS as f64;
        let cap = config.sampler.max_samples_per_ray as f64;
        let (warm_up, after) = samples.split_at(config.occupancy_warmup as usize);
        let most = warm_up.iter().map(|&s| per_shard(s)).fold(0.0, f64::max);
        assert!(most > 2.0 * cap, "no warm-up shard spans several calls: {most} samples");
        let least = after.iter().map(|&s| per_shard(s)).fold(f64::INFINITY, f64::min);
        assert!(least < cap, "no refreshed shard is one call: {least} samples");
    }

    #[test]
    fn sparse_step_matches_the_dense_per_ray_oracle() {
        use crate::dense_grid::{DenseGrid, DenseGridConfig};
        let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
        let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
        // 110 steps cross the refreshes at steps 40, 60, 80 and 100,
        // and the learning-rate decay at step 100.
        let config = TrainerConfig { lr_decay_interval: 100, ..test_config() };
        assert_eq!(config.rays_per_batch, 4 * GRAD_SHARDS, "four rays per shard");
        let steps = 110;
        // Two threads are the first count that splits the merge.
        for threads in [1, 2, 4] {
            fusion3d_par::set_thread_override(Some(threads));
            let model = test_model(11);
            let chunks = model.grid().param_count().div_ceil(MERGE_CHUNK_WORDS * WORD_FLOATS);
            assert!(chunks > 1, "the hash-grid merge is one task");
            let (visited, samples) = assert_matches_the_oracle(model, config, &dataset, steps);
            assert!(visited < 0.9, "{threads} threads: the hash-grid merge visited {visited}");
            assert_covers_both_group_shapes(&samples, &config);
            // The dense grid marks the vertices its backward wrote, and
            // its gradient ends inside a bitmap word: the last merge
            // chunk is ragged.
            let mut rng = SmallRng::seed_from_u64(12);
            let grid = DenseGrid::with_random_init(
                DenseGridConfig { resolution: 10, features_per_vertex: 4 },
                &mut rng,
            );
            let dense = NerfModel::with_encoding(grid, 16, 7, &mut rng);
            let floats = dense.grid().param_count();
            assert_eq!(floats, 11 * 11 * 11 * 4);
            assert!(!floats.is_multiple_of(WORD_FLOATS), "{floats} floats fill whole words");
            let (visited, samples) = assert_matches_the_oracle(dense, config, &dataset, steps);
            assert!(visited < 1.0, "{threads} threads: the dense-grid merge visited {visited}");
            assert_covers_both_group_shapes(&samples, &config);
        }
        fusion3d_par::set_thread_override(None);
    }

    #[test]
    fn tail_mean_averages_the_final_quarter() {
        let mut losses = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0].into_iter();
        // Seven steps: the mean of the last ceil(7 / 4) = 2 losses.
        assert_eq!(tail_mean(7, || losses.next().unwrap()), 2.5);
        assert_eq!(losses.next(), None, "every step ran");
        assert_eq!(tail_mean(0, || unreachable!()), 0.0);
    }

    #[test]
    fn step_stats_are_consistent() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Chair);
        let dataset = Dataset::from_scene(&scene, 3, 16, 0.9);
        let mut trainer = Trainer::new(test_model(7), test_config());
        let mut rng = SmallRng::seed_from_u64(8);
        let stats = trainer.step(&dataset, &mut rng);
        assert_eq!(stats.rays, 64);
        assert!(stats.samples > 0);
        assert!(stats.loss.is_finite() && stats.loss >= 0.0);
    }
}

#[cfg(test)]
mod lr_schedule_tests {
    use super::*;
    use crate::encoding::HashGridConfig;
    use crate::model::{ModelConfig, NerfModel};
    use crate::scenes::{ProceduralScene, SyntheticScene};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn learning_rate_decays_on_schedule() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Mic);
        let dataset = Dataset::from_scene(&scene, 2, 12, 0.9);
        let mut rng = SmallRng::seed_from_u64(1);
        let model = NerfModel::new(
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
        let config = TrainerConfig {
            rays_per_batch: 8,
            sampler: SamplerConfig { steps_per_diagonal: 16, max_samples_per_ray: 8 },
            occupancy_warmup: 1000,
            lr_decay: 0.5,
            lr_decay_interval: 4,
            ..TrainerConfig::default()
        };
        let mut trainer = Trainer::new(model, config);
        // Parameter movement shrinks once the decays kick in: compare
        // the parameter delta of an early step against a late one on
        // comparable gradients.
        let snapshot = |t: &Trainer| t.model().grid().params().to_vec();
        let delta = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
        };
        let before = snapshot(&trainer);
        trainer.step(&dataset, &mut rng);
        let early = delta(&before, &snapshot(&trainer));
        for _ in 0..16 {
            trainer.step(&dataset, &mut rng);
        }
        let before_late = snapshot(&trainer);
        trainer.step(&dataset, &mut rng);
        let late = delta(&before_late, &snapshot(&trainer));
        // After 4 decays of 0.5x the max per-step movement (which Adam
        // ties to the learning rate) must be much smaller.
        assert!(late < early * 0.5, "late step moved {late}, early step moved {early}");
    }
}
