//! The complete NeRF field: hash-grid encoding plus density and color
//! networks, with an end-to-end backward pass.
//!
//! This is the Instant-NGP architecture the paper's accelerator
//! targets: Stage II ([`HashGrid`]) feeds a one-hidden-layer density
//! MLP whose first output becomes the volume density (through an
//! exponential activation) and whose remaining outputs are geometric
//! features; those features concatenated with a spherical-harmonics
//! view-direction encoding feed the color MLP.

use crate::adam::{Adam, AdamConfig, AdamStep};
use crate::batch::KernelScratch;
use crate::dirty::DirtyBlocks;
use crate::encoding::{Encoding, HashGrid, HashGridConfig};
use crate::math::Vec3;
use crate::mlp::{sh_encode, Activation, Mlp, MlpCache, SH_DIM};
use rand::Rng;

/// Clamp on the raw density logit before the exponential.
const RAW_DENSITY_CLAMP: f32 = 12.0;

/// The spherical-harmonics view encoding of a ray direction, the
/// color network's per-ray input.
#[inline]
pub(crate) fn sh_row(direction: Vec3) -> [f32; SH_DIM] {
    let mut sh = [0.0f32; SH_DIM];
    sh_encode(direction.to_array(), &mut sh);
    sh
}

/// Architecture of a [`NerfModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Hash-grid encoding configuration.
    pub grid: HashGridConfig,
    /// Hidden width of both MLPs (Instant-NGP uses 64).
    pub hidden_dim: usize,
    /// Number of geometric features passed from the density network to
    /// the color network (Instant-NGP uses 15).
    pub geo_feature_dim: usize,
}

impl Default for ModelConfig {
    /// A compact configuration that trains in seconds on a CPU while
    /// preserving the architecture shape: 32-wide MLPs and 7 geometric
    /// features over the default hash grid.
    fn default() -> Self {
        ModelConfig { grid: HashGridConfig::default(), hidden_dim: 32, geo_feature_dim: 7 }
    }
}

impl ModelConfig {
    /// Total learnable parameters (grid + both MLPs) for this
    /// configuration, without instantiating a model.
    pub fn param_count(&self) -> usize {
        let enc = self.grid.param_count();
        let d_in = self.grid.output_dim();
        let d_out = 1 + self.geo_feature_dim;
        let density = d_in * self.hidden_dim + self.hidden_dim + self.hidden_dim * d_out + d_out;
        let c_in = self.geo_feature_dim + SH_DIM;
        let color = c_in * self.hidden_dim
            + self.hidden_dim
            + self.hidden_dim * self.hidden_dim
            + self.hidden_dim
            + self.hidden_dim * 3
            + 3;
        enc + density + color
    }
}

/// Density and color of a point evaluated by the per-sample field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PointEval {
    /// Volume density `σ ≥ 0`.
    pub(crate) sigma: f32,
    /// RGB radiance in `[0, 1]`.
    pub(crate) color: Vec3,
}

/// Forward-pass state for one sample point, retained for the
/// per-sample backward pass. Reusable across points to avoid
/// allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct PointContext {
    encoded: Vec<f32>,
    density_cache: MlpCache,
    color_cache: MlpCache,
    color_input: Vec<f32>,
    sigma: f32,
    raw_clamped: bool,
}

impl PointContext {
    /// Creates an empty context.
    pub(crate) fn new() -> Self {
        PointContext::default()
    }
}

/// Gradient buffers matching a [`NerfModel`]'s three parameter groups.
#[derive(Debug, Clone)]
pub struct ModelGrads {
    /// Hash-grid gradients.
    pub grid: Vec<f32>,
    /// Density-MLP gradients.
    pub density: Vec<f32>,
    /// Color-MLP gradients.
    pub color: Vec<f32>,
}

impl ModelGrads {
    /// Resets all gradients to zero.
    pub fn zero(&mut self) {
        self.grid.iter_mut().for_each(|g| *g = 0.0);
        self.density.iter_mut().for_each(|g| *g = 0.0);
        self.color.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Total number of gradient entries.
    pub fn len(&self) -> usize {
        self.grid.len() + self.density.len() + self.color.len()
    }

    /// Whether the buffers are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `other`'s gradients into `self` element-wise. Used to merge
    /// per-shard gradient buffers in shard-index order after a parallel
    /// training step, keeping the f32 accumulation order fixed.
    ///
    /// # Panics
    ///
    /// Panics if the buffer shapes differ.
    pub fn accumulate(&mut self, other: &ModelGrads) {
        assert_eq!(self.grid.len(), other.grid.len(), "grid gradient shape mismatch");
        assert_eq!(self.density.len(), other.density.len(), "density gradient shape mismatch");
        assert_eq!(self.color.len(), other.color.len(), "color gradient shape mismatch");
        self.grid.iter_mut().zip(&other.grid).for_each(|(a, b)| *a += b);
        self.density.iter_mut().zip(&other.density).for_each(|(a, b)| *a += b);
        self.color.iter_mut().zip(&other.color).for_each(|(a, b)| *a += b);
    }

    /// [`ModelGrads::zero`] for buffers whose grid gradient is zero
    /// outside the blocks `dirty` marks: zeroes those blocks and the
    /// dense MLP gradients, then marks every block clean.
    pub(crate) fn zero_dirty(&mut self, dirty: &mut DirtyBlocks) {
        for run in dirty.runs() {
            self.grid[run].fill(0.0);
        }
        dirty.clear();
        self.density.fill(0.0);
        self.color.fill(0.0);
    }

    /// The MLP half of zeroing and then accumulating `shards` in order:
    /// sets the density and color gradients to the shards' sum, added
    /// from `+0.0` in iteration order. The grid half is the caller's.
    ///
    /// # Panics
    ///
    /// Panics if the MLP buffer shapes differ.
    pub(crate) fn merge_mlps<'a>(&mut self, shards: impl Iterator<Item = &'a ModelGrads>) {
        self.density.fill(0.0);
        self.color.fill(0.0);
        for other in shards {
            assert_eq!(self.density.len(), other.density.len(), "density gradient shape mismatch");
            assert_eq!(self.color.len(), other.color.len(), "color gradient shape mismatch");
            self.density.iter_mut().zip(&other.density).for_each(|(a, b)| *a += b);
            self.color.iter_mut().zip(&other.color).for_each(|(a, b)| *a += b);
        }
    }
}

/// The grid group's share of a [`ModelOptimizer::step_mlps`]: the
/// step's coefficients with the grid parameters and their moments,
/// for the caller to update in disjoint ranges through
/// [`AdamStep::apply`].
#[derive(Debug)]
pub(crate) struct GridStep<'a> {
    pub(crate) step: AdamStep,
    pub(crate) params: &'a mut [f32],
    pub(crate) m: &'a mut [f32],
    pub(crate) v: &'a mut [f32],
}

/// Adam optimizer states for a model's three parameter groups.
#[derive(Debug, Clone)]
pub struct ModelOptimizer {
    grid: Adam,
    density: Adam,
    color: Adam,
}

impl ModelOptimizer {
    /// Creates optimizer state for `model` with the given settings.
    pub fn new<E: Encoding>(config: AdamConfig, model: &NerfModel<E>) -> Self {
        ModelOptimizer {
            grid: Adam::new(config, model.encoding.param_count()),
            density: Adam::new(config, model.density_mlp.param_count()),
            color: Adam::new(config, model.color_mlp.param_count()),
        }
    }

    /// Applies one update step from the accumulated gradients.
    pub fn step<E: Encoding>(&mut self, model: &mut NerfModel<E>, grads: &ModelGrads) {
        self.grid.step(model.encoding.params_mut(), &grads.grid);
        self.density.step(model.density_mlp.params_mut(), &grads.density);
        self.color.step(model.color_mlp.params_mut(), &grads.color);
    }

    /// [`ModelOptimizer::step`] split for a grid gradient the caller
    /// merges and steps in chunks: steps the MLP groups from `grads`
    /// and starts the grid group's step, whose ranges the caller then
    /// updates from the returned [`GridStep`]. Updating every range
    /// whose gradient may be nonzero performs the same updates as
    /// [`ModelOptimizer::step`], bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shapes differ from the model's.
    pub(crate) fn step_mlps<'a, E: Encoding>(
        &'a mut self,
        model: &'a mut NerfModel<E>,
        grads: &ModelGrads,
    ) -> GridStep<'a> {
        self.density.step(model.density_mlp.params_mut(), &grads.density);
        self.color.step(model.color_mlp.params_mut(), &grads.color);
        let params = model.encoding.params_mut();
        assert_eq!(params.len(), grads.grid.len(), "grid gradient shape mismatch");
        let (step, m, v) = self.grid.begin_step();
        GridStep { step, params, m, v }
    }

    /// The Adam states of the grid, density and color groups.
    #[cfg(test)]
    pub(crate) fn groups(&self) -> [&Adam; 3] {
        [&self.grid, &self.density, &self.color]
    }

    /// Sets the learning rate on all three groups.
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.grid.set_learning_rate(lr);
        self.density.set_learning_rate(lr);
        self.color.set_learning_rate(lr);
    }
}

/// A trainable NeRF field, generic over its spatial [`Encoding`]
/// (multiresolution hash grid by default).
#[derive(Debug, Clone)]
pub struct NerfModel<E: Encoding = HashGrid> {
    encoding: E,
    density_mlp: Mlp,
    color_mlp: Mlp,
    geo_feature_dim: usize,
}

impl NerfModel<HashGrid> {
    /// Creates a hash-grid model with randomly initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if the grid configuration is invalid or `hidden_dim` /
    /// `geo_feature_dim` is zero.
    pub fn new<R: Rng>(config: ModelConfig, rng: &mut R) -> Self {
        let grid = HashGrid::with_random_init(config.grid, rng);
        NerfModel::with_encoding(grid, config.hidden_dim, config.geo_feature_dim, rng)
    }
}

impl<E: Encoding> NerfModel<E> {
    /// Builds a model around an arbitrary spatial encoding (e.g. a
    /// [`crate::dense_grid::DenseGrid`] for TensoRF-class pipelines).
    ///
    /// # Panics
    ///
    /// Panics if `hidden_dim` or `geo_feature_dim` is zero.
    pub fn with_encoding<R: Rng>(
        encoding: E,
        hidden_dim: usize,
        geo_feature_dim: usize,
        rng: &mut R,
    ) -> Self {
        assert!(hidden_dim > 0, "hidden_dim must be positive");
        assert!(geo_feature_dim > 0, "geo_feature_dim must be positive");
        let density_mlp = Mlp::new(
            &[encoding.output_dim(), hidden_dim, 1 + geo_feature_dim],
            Activation::Relu,
            Activation::None,
            rng,
        );
        let color_mlp = Mlp::new(
            &[geo_feature_dim + SH_DIM, hidden_dim, hidden_dim, 3],
            Activation::Relu,
            Activation::Sigmoid,
            rng,
        );
        NerfModel { encoding, density_mlp, color_mlp, geo_feature_dim }
    }

    /// The number of geometric features handed from the density to the
    /// color network.
    #[inline]
    pub fn geo_feature_dim(&self) -> usize {
        self.geo_feature_dim
    }

    /// The spatial encoding (Stage II parameters) — a hash grid by
    /// default.
    #[inline]
    pub fn grid(&self) -> &E {
        &self.encoding
    }

    /// Mutable access to the spatial encoding (used by quantization
    /// experiments).
    #[inline]
    pub fn grid_mut(&mut self) -> &mut E {
        &mut self.encoding
    }

    /// The density MLP.
    #[inline]
    pub fn density_mlp(&self) -> &Mlp {
        &self.density_mlp
    }

    /// Mutable access to the density MLP.
    #[inline]
    pub fn density_mlp_mut(&mut self) -> &mut Mlp {
        &mut self.density_mlp
    }

    /// The color MLP.
    #[inline]
    pub fn color_mlp(&self) -> &Mlp {
        &self.color_mlp
    }

    /// Mutable access to the color MLP.
    #[inline]
    pub fn color_mlp_mut(&mut self) -> &mut Mlp {
        &mut self.color_mlp
    }

    /// Total learnable parameters.
    pub fn param_count(&self) -> usize {
        self.encoding.param_count() + self.density_mlp.param_count() + self.color_mlp.param_count()
    }

    /// Allocates zeroed gradient buffers for this model.
    pub fn alloc_grads(&self) -> ModelGrads {
        ModelGrads {
            // lint: allow(h2): gradient buffers allocated once per
            // shard at setup, then reused by every step
            grid: vec![0.0; self.encoding.param_count()],
            // lint: allow(h2): same — one-time setup allocation
            density: vec![0.0; self.density_mlp.param_count()],
            // lint: allow(h2): same — one-time setup allocation
            color: vec![0.0; self.color_mlp.param_count()],
        }
    }

    /// The density activation: `σ = exp(clamp(raw))`, returning the
    /// density and whether the clamp bound.
    #[inline]
    fn density_activation(raw: f32) -> (f32, bool) {
        let clamped = raw.clamp(-RAW_DENSITY_CLAMP, RAW_DENSITY_CLAMP);
        (clamped.exp(), clamped != raw)
    }

    /// The density at one point: a one-point
    /// [`NerfModel::density_batch`].
    pub fn density_at(&self, p: Vec3) -> f32 {
        let mut sigma = [0.0];
        self.density_batch(&[p], &mut sigma, &mut KernelScratch::new());
        sigma[0]
    }

    /// Densities of a batch of points into `out`, through the encoding
    /// and the density network alone: the occupancy refresh's model
    /// call. Bit-identical to the `σ` of [`NerfModel::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `out` and `positions` differ in length.
    pub fn density_batch(&self, positions: &[Vec3], out: &mut [f32], scratch: &mut KernelScratch) {
        let n = positions.len();
        assert_eq!(out.len(), n, "density buffer does not match the positions");
        let enc_dim = self.encoding.output_dim();
        scratch.resize(n, enc_dim, self.color_mlp.input_dim());
        self.encoding.interpolate_batch_infer(positions, &mut scratch.encoded[..n * enc_dim]);
        let raw = self.density_mlp.forward_batch(
            &scratch.encoded[..n * enc_dim],
            n,
            &mut scratch.density_cache,
        );
        let d_out_dim = self.density_mlp.output_dim();
        for (sigma, row) in out.iter_mut().zip(raw.chunks_exact(d_out_dim)) {
            *sigma = Self::density_activation(row[0]).0;
        }
    }

    /// Full forward pass for one sample point, retaining the state
    /// needed by [`NerfModel::backward`] in `ctx`: the per-sample
    /// oracle behind `reference`, which the batched kernels must match
    /// bit for bit.
    pub(crate) fn forward(
        &self,
        position: Vec3,
        direction: Vec3,
        ctx: &mut PointContext,
    ) -> PointEval {
        ctx.encoded.resize(self.encoding.output_dim(), 0.0);
        self.encoding.interpolate(position, &mut ctx.encoded);
        let d_out: Vec<f32> = {
            let out = self.density_mlp.forward(&ctx.encoded, &mut ctx.density_cache);
            out.to_vec()
        };
        let (sigma, clamped) = Self::density_activation(d_out[0]);
        ctx.sigma = sigma;
        ctx.raw_clamped = clamped;

        let mut sh = [0.0f32; SH_DIM];
        sh_encode(direction.to_array(), &mut sh);
        ctx.color_input.clear();
        ctx.color_input.extend_from_slice(&d_out[1..]);
        ctx.color_input.extend_from_slice(&sh);
        let rgb = self.color_mlp.forward(&ctx.color_input, &mut ctx.color_cache);
        PointEval { sigma, color: Vec3::new(rgb[0], rgb[1], rgb[2]) }
    }

    /// Backward pass for one sample point previously run through
    /// [`NerfModel::forward`] with `ctx`.
    ///
    /// `d_sigma` and `d_color` are the loss gradients w.r.t. the
    /// point's density and color; parameter gradients are accumulated
    /// into `grads`.
    pub(crate) fn backward(
        &self,
        position: Vec3,
        ctx: &PointContext,
        d_sigma: f32,
        d_color: Vec3,
        grads: &mut ModelGrads,
    ) {
        // Color MLP backward.
        let d_rgb = [d_color.x, d_color.y, d_color.z];
        // lint: allow(h2): scalar reference path — the batched
        // pipeline uses backward_batch
        let mut d_color_in = vec![0.0f32; self.color_mlp.input_dim()];
        self.color_mlp.backward(&ctx.color_cache, &d_rgb, &mut d_color_in, &mut grads.color);

        // Density MLP backward: output 0 is the density logit
        // (dσ/draw = σ through the exponential, zero where clamped);
        // outputs 1.. are the geometric features feeding the color
        // network.
        // lint: allow(h2): scalar reference path — see `d_color_in`
        let mut d_density_out = vec![0.0f32; self.density_mlp.output_dim()];
        d_density_out[0] = if ctx.raw_clamped { 0.0 } else { d_sigma * ctx.sigma };
        d_density_out[1..].copy_from_slice(&d_color_in[..self.geo_feature_dim]);
        // lint: allow(h2): scalar reference path — see `d_color_in`
        let mut d_encoded = vec![0.0f32; self.density_mlp.input_dim()];
        self.density_mlp.backward(
            &ctx.density_cache,
            &d_density_out,
            &mut d_encoded,
            &mut grads.density,
        );

        // Encoding backward: scatter into the feature tables.
        self.encoding.backward(position, &d_encoded, &mut grads.grid);
    }

    /// Sizes the forward buffers of `scratch` for a batch of `n`
    /// samples of this model so the batched forward never allocates
    /// inside its sample loops. With `retain`, also reserves the
    /// encoding's corner spill; inference touches neither it nor the
    /// backward buffers, which [`NerfModel::backward_batch`] sizes.
    fn begin_batch(&self, scratch: &mut KernelScratch, n: usize, retain: bool) {
        scratch.resize(n, self.encoding.output_dim(), self.color_mlp.input_dim());
        if retain {
            self.encoding.reserve_batch_scratch(&mut scratch.enc, n);
        }
        scratch.density_cache.begin(self.density_mlp.dims(), n);
        scratch.color_cache.begin(self.color_mlp.dims(), n);
    }

    /// Full forward pass for one ray's batch of sample points: all
    /// positions share `direction` (one SH evaluation per ray instead
    /// of one per sample). Results land in [`KernelScratch::sigma`] /
    /// [`KernelScratch::color`]; the scratch retains everything
    /// [`NerfModel::backward_batch`] needs.
    ///
    /// Bitwise-identical to evaluating each sample on its own through
    /// [`crate::reference::model_forward`] — the `reference` module's
    /// differential tests enforce this.
    pub fn forward_batch(&self, positions: &[Vec3], direction: Vec3, scratch: &mut KernelScratch) {
        let sh = sh_row(direction);
        self.forward_batch_impl(positions, |_| &sh, scratch, true);
    }

    /// [`NerfModel::forward_batch`] for inference: identical results,
    /// but the encoding retains nothing for a backward pass, skipping
    /// the corner-address/weight spill training needs. The render
    /// pipeline uses this; calling [`NerfModel::backward_batch`] after
    /// it recomputes the corner data instead of reusing it.
    pub fn forward_batch_infer(
        &self,
        positions: &[Vec3],
        direction: Vec3,
        scratch: &mut KernelScratch,
    ) {
        let sh = sh_row(direction);
        self.forward_batch_impl(positions, |_| &sh, scratch, false);
    }

    /// The batched forward behind [`NerfModel::forward_batch`],
    /// [`NerfModel::forward_batch_infer`] and the render pipeline's row
    /// wavefront. `sh_of(s)` yields sample `s`'s view encoding (see
    /// [`sh_row`]), so one batch may mix samples of many rays; each
    /// sample's result is bit-identical to a one-ray call with its
    /// ray's direction. `retain` keeps the encoding state a backward
    /// pass needs.
    pub(crate) fn forward_batch_impl<'a>(
        &self,
        positions: &[Vec3],
        sh_of: impl Fn(usize) -> &'a [f32; SH_DIM],
        scratch: &mut KernelScratch,
        retain: bool,
    ) {
        let n = positions.len();
        self.begin_batch(scratch, n, retain);
        #[cfg(debug_assertions)]
        let stamp = scratch.capacity_fingerprint();

        crate::probe!({
            let (dense, hashed) = self.encoding.gather_locality();
            scratch.probes.encode_batches += 1;
            scratch.probes.encode_points += n as u64;
            scratch.probes.gathers_dense += (dense * n) as u64;
            scratch.probes.gathers_hashed += (hashed * n) as u64;
            scratch.probes.mlp_forward_batches += 1;
            scratch.probes.mlp_forward_samples += n as u64;
        });

        // Stage II: level-major batched gather.
        let enc_dim = self.encoding.output_dim();
        if retain {
            self.encoding.interpolate_batch(
                positions,
                &mut scratch.encoded[..n * enc_dim],
                &mut scratch.enc,
            );
        } else {
            self.encoding.interpolate_batch_infer(positions, &mut scratch.encoded[..n * enc_dim]);
        }

        // Density network over the whole batch.
        self.density_mlp.forward_batch(
            &scratch.encoded[..n * enc_dim],
            n,
            &mut scratch.density_cache,
        );

        // Density activation + color-network input assembly. The SH
        // view encoding depends only on the ray direction, so callers
        // evaluate it once per ray and every sample copies its ray's.
        let d_out_dim = self.density_mlp.output_dim();
        let c_in = self.color_mlp.input_dim();
        {
            let d_out = scratch.density_cache.output();
            for s in 0..n {
                let row = &d_out[s * d_out_dim..(s + 1) * d_out_dim];
                let (sigma, clamped) = Self::density_activation(row[0]);
                scratch.sigma[s] = sigma;
                scratch.raw_clamped[s] = clamped;
                let ci = &mut scratch.color_input[s * c_in..(s + 1) * c_in];
                ci[..self.geo_feature_dim].copy_from_slice(&row[1..]);
                ci[self.geo_feature_dim..].copy_from_slice(sh_of(s));
            }
        }

        // Color network over the whole batch.
        self.color_mlp.forward_batch(&scratch.color_input[..n * c_in], n, &mut scratch.color_cache);
        {
            let rgb = scratch.color_cache.output();
            for (s, c) in scratch.color[..n].iter_mut().enumerate() {
                *c = Vec3::new(rgb[s * 3], rgb[s * 3 + 1], rgb[s * 3 + 2]);
            }
        }

        #[cfg(debug_assertions)]
        debug_assert_eq!(
            stamp,
            scratch.capacity_fingerprint(),
            "batched forward allocated inside the kernel"
        );
    }

    /// Backward pass for the batch previously run through
    /// [`NerfModel::forward_batch`] with `scratch`.
    ///
    /// `d_sigma[i]` / `d_color[i]` are the loss gradients w.r.t.
    /// sample `i`'s density and color; parameter gradients accumulate
    /// into `grads` with every element's per-sample contributions in
    /// ascending sample order, so the result is bitwise-identical to
    /// [`crate::reference::model_backward`].
    ///
    /// # Panics
    ///
    /// Panics if `positions`, `d_sigma`, or `d_color` disagree with
    /// the batch length of the last forward pass.
    pub fn backward_batch(
        &self,
        positions: &[Vec3],
        d_sigma: &[f32],
        d_color: &[Vec3],
        scratch: &mut KernelScratch,
        grads: &mut ModelGrads,
    ) {
        let n = scratch.batch;
        assert_eq!(positions.len(), n, "position batch does not match the forward pass");
        assert_eq!(d_sigma.len(), n, "density gradient batch size mismatch");
        assert_eq!(d_color.len(), n, "color gradient batch size mismatch");
        let geo = self.geo_feature_dim;
        scratch.resize_backward(self.encoding.output_dim(), self.density_mlp.output_dim(), geo);
        scratch.density_cache.begin_backward(self.density_mlp.dims());
        scratch.color_cache.begin_backward(self.color_mlp.dims());
        self.encoding.reserve_batch_scratch(&mut scratch.enc, n);
        #[cfg(debug_assertions)]
        let stamp = scratch.capacity_fingerprint();

        crate::probe!({
            scratch.probes.mlp_backward_batches += 1;
            scratch.probes.mlp_backward_samples += n as u64;
        });

        // Color MLP backward over the whole batch. Only the geometric
        // features' input gradient flows on; the view encoding's
        // columns would reach no parameter, so they are not computed.
        for (row, d) in scratch.d_rgb[..n * 3].chunks_exact_mut(3).zip(d_color.iter()) {
            row[0] = d.x;
            row[1] = d.y;
            row[2] = d.z;
        }
        self.color_mlp.backward_batch_cols(
            &mut scratch.color_cache,
            &scratch.d_rgb[..n * 3],
            &mut scratch.d_color_in[..n * geo],
            geo,
            &mut grads.color,
        );

        // Density MLP backward: output 0 is the density logit (dσ/draw
        // = σ through the exponential, zero where clamped); outputs
        // 1.. are the geometric features feeding the color network.
        let d_out_dim = self.density_mlp.output_dim();
        for (s, &ds) in d_sigma.iter().take(n).enumerate() {
            let row = &mut scratch.d_density_out[s * d_out_dim..(s + 1) * d_out_dim];
            row[0] = if scratch.raw_clamped[s] { 0.0 } else { ds * scratch.sigma[s] };
            row[1..].copy_from_slice(&scratch.d_color_in[s * geo..(s + 1) * geo]);
        }
        let enc_dim = self.density_mlp.input_dim();
        self.density_mlp.backward_batch(
            &mut scratch.density_cache,
            &scratch.d_density_out[..n * d_out_dim],
            &mut scratch.d_encoded[..n * enc_dim],
            &mut grads.density,
        );

        // Encoding backward: level-major scatter reusing the corner
        // addresses and weights prepared by the forward pass.
        self.encoding.backward_batch(
            positions,
            &scratch.d_encoded[..n * enc_dim],
            &mut grads.grid,
            &mut scratch.enc,
        );

        #[cfg(debug_assertions)]
        debug_assert_eq!(
            stamp,
            scratch.capacity_fingerprint(),
            "batched backward allocated inside the kernel"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::HashGridConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            grid: HashGridConfig {
                levels: 3,
                features_per_level: 2,
                log2_table_size: 8,
                base_resolution: 4,
                max_resolution: 16,
            },
            hidden_dim: 8,
            geo_feature_dim: 3,
        }
    }

    fn tiny_model(seed: u64) -> NerfModel {
        let mut rng = SmallRng::seed_from_u64(seed);
        NerfModel::new(tiny_config(), &mut rng)
    }

    #[test]
    fn param_count_matches_config_prediction() {
        let model = tiny_model(0);
        assert_eq!(model.param_count(), tiny_config().param_count());
        let grads = model.alloc_grads();
        assert_eq!(grads.len(), model.param_count());
        assert!(!grads.is_empty());
    }

    #[test]
    fn forward_produces_valid_outputs() {
        let model = tiny_model(1);
        let mut ctx = PointContext::new();
        let eval = model.forward(Vec3::splat(0.4), Vec3::Z, &mut ctx);
        assert!(eval.sigma >= 0.0 && eval.sigma.is_finite());
        for c in eval.color.to_array() {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn density_at_matches_forward_sigma() {
        let model = tiny_model(2);
        let p = Vec3::new(0.2, 0.7, 0.5);
        let mut ctx = PointContext::new();
        let eval = model.forward(p, Vec3::X, &mut ctx);
        assert_eq!(model.density_at(p).to_bits(), eval.sigma.to_bits());
    }

    #[test]
    fn color_depends_on_view_direction() {
        // With random weights the SH features almost surely influence
        // the output; verify view dependence exists.
        let model = tiny_model(3);
        let mut ctx = PointContext::new();
        let p = Vec3::splat(0.5);
        let a = model.forward(p, Vec3::X, &mut ctx).color;
        let b = model.forward(p, -Vec3::X, &mut ctx).color;
        assert!((a - b).length() > 1e-6, "color should be view-dependent");
    }

    #[test]
    fn backward_matches_finite_differences_on_grid_params() {
        let mut model = tiny_model(4);
        let p = Vec3::new(0.31, 0.47, 0.63);
        let dir = Vec3::new(0.4, -0.3, 0.8).normalize();
        let (d_sigma, d_color) = (0.7f32, Vec3::new(1.0, -0.5, 0.25));

        let mut ctx = PointContext::new();
        model.forward(p, dir, &mut ctx);
        let mut grads = model.alloc_grads();
        model.backward(p, &ctx, d_sigma, d_color, &mut grads);

        let loss = |m: &NerfModel| {
            let mut c = PointContext::new();
            let e = m.forward(p, dir, &mut c);
            d_sigma * e.sigma + d_color.dot(e.color)
        };

        // Check nonzero grid gradients against central differences.
        let h = 1e-3f32;
        let nonzero: Vec<usize> =
            grads.grid.iter().enumerate().filter(|(_, g)| g.abs() > 1e-4).map(|(i, _)| i).collect();
        assert!(!nonzero.is_empty(), "expected nonzero grid gradients");
        for &i in nonzero.iter().take(12) {
            let orig = model.grid().params()[i];
            model.grid_mut().params_mut()[i] = orig + h;
            let up = loss(&model);
            model.grid_mut().params_mut()[i] = orig - h;
            let down = loss(&model);
            model.grid_mut().params_mut()[i] = orig;
            let fd = (up - down) / (2.0 * h);
            assert!(
                (fd - grads.grid[i]).abs() < 3e-2 * (1.0 + fd.abs()),
                "grid param {i}: fd {fd} vs analytic {}",
                grads.grid[i]
            );
        }
    }

    #[test]
    fn backward_matches_finite_differences_on_mlp_params() {
        let mut model = tiny_model(5);
        let p = Vec3::new(0.55, 0.25, 0.75);
        let dir = Vec3::Y;
        let (d_sigma, d_color) = (1.0f32, Vec3::splat(1.0));

        let mut ctx = PointContext::new();
        model.forward(p, dir, &mut ctx);
        let mut grads = model.alloc_grads();
        model.backward(p, &ctx, d_sigma, d_color, &mut grads);

        let loss = |m: &NerfModel| {
            let mut c = PointContext::new();
            let e = m.forward(p, dir, &mut c);
            d_sigma * e.sigma + d_color.dot(e.color)
        };
        let h = 1e-3f32;
        let mid = loss(&model);
        for i in (0..model.density_mlp.param_count()).step_by(11) {
            // A parameter with exactly-zero analytic gradient feeds a
            // dead ReLU unit; the finite difference can still be
            // nonzero because the perturbation crosses the kink.
            if grads.density[i] == 0.0 {
                continue;
            }
            let orig = model.density_mlp.params()[i];
            model.density_mlp_mut().params_mut()[i] = orig + h;
            let up = loss(&model);
            model.density_mlp_mut().params_mut()[i] = orig - h;
            let down = loss(&model);
            model.density_mlp_mut().params_mut()[i] = orig;
            // A live unit whose pre-activation sits within h of a ReLU
            // kink makes the one-sided differences disagree; the
            // central difference is meaningless across the kink.
            let (fwd, bwd) = ((up - mid) / h, (mid - down) / h);
            if (fwd - bwd).abs() > 0.25 * (fwd.abs() + bwd.abs()).max(1e-3) {
                continue;
            }
            let fd = (up - down) / (2.0 * h);
            assert!(
                (fd - grads.density[i]).abs() < 5e-2 * (1.0 + fd.abs()),
                "density param {i}: fd {fd} vs analytic {}",
                grads.density[i]
            );
        }
        for i in (0..model.color_mlp.param_count()).step_by(13) {
            if grads.color[i] == 0.0 {
                continue;
            }
            let orig = model.color_mlp.params()[i];
            model.color_mlp_mut().params_mut()[i] = orig + h;
            let up = loss(&model);
            model.color_mlp_mut().params_mut()[i] = orig - h;
            let down = loss(&model);
            model.color_mlp_mut().params_mut()[i] = orig;
            let (fwd, bwd) = ((up - mid) / h, (mid - down) / h);
            if (fwd - bwd).abs() > 0.25 * (fwd.abs() + bwd.abs()).max(1e-3) {
                continue;
            }
            let fd = (up - down) / (2.0 * h);
            assert!(
                (fd - grads.color[i]).abs() < 5e-2 * (1.0 + fd.abs()),
                "color param {i}: fd {fd} vs analytic {}",
                grads.color[i]
            );
        }
    }

    #[test]
    fn optimizer_reduces_pointwise_loss() {
        // Push the model to output sigma -> 0 and color -> 1 at a
        // point; a few Adam steps must reduce the loss.
        let mut model = tiny_model(6);
        let mut opt = ModelOptimizer::new(
            AdamConfig { learning_rate: 1e-2, ..AdamConfig::default() },
            &model,
        );
        let p = Vec3::splat(0.5);
        let dir = Vec3::Z;
        let loss_of = |m: &NerfModel| {
            let mut c = PointContext::new();
            let e = m.forward(p, dir, &mut c);
            e.sigma + (e.color - Vec3::ONE).length_squared()
        };
        let initial = loss_of(&model);
        let mut grads = model.alloc_grads();
        for _ in 0..60 {
            let mut ctx = PointContext::new();
            let e = model.forward(p, dir, &mut ctx);
            grads.zero();
            model.backward(p, &ctx, 1.0, (e.color - Vec3::ONE) * 2.0, &mut grads);
            opt.step(&mut model, &grads);
        }
        let final_loss = loss_of(&model);
        assert!(final_loss < initial * 0.5, "loss did not drop: {initial} -> {final_loss}");
    }
}
