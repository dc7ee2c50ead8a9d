//! Structure-of-arrays batches and reusable kernel scratch for the
//! NeRF hot path.
//!
//! The batched compute core ([`crate::encoding`] gathers,
//! [`crate::mlp`] GEMMs, [`crate::render`] compositing) operates on
//! many samples at once instead of one point per call: a ray's samples
//! in training, a round of a pixel row's live samples in rendering. The
//! types here own every buffer those kernels touch:
//!
//! * [`SampleBatch`] — Stage I output as parallel `t`/`δt`/position
//!   arrays, filled in place by [`crate::sampler::sample_ray_into`];
//! * [`KernelScratch`] — all Stage II/III working memory (encoded
//!   features, MLP activation caches, per-sample densities/colors and
//!   their gradients), allocated once and reused across rays and
//!   training steps.
//!
//! The batched kernels take a capacity fingerprint of the scratch on
//! entry and `debug_assert` it unchanged on exit, so any allocation
//! sneaking into a per-sample loop fails loudly in debug builds.

use crate::encoding::EncodingScratch;
use crate::math::Vec3;
use crate::mlp::MlpBatchCache;
use crate::render::ShadedSample;

/// Structure-of-arrays batch of retained ray samples (Stage I output).
///
/// Parallel arrays indexed by sample: `ts()[i]`, `dts()[i]`, and
/// `positions()[i]` describe sample `i`, in marching order. Reuse one
/// batch per worker; [`crate::sampler::sample_ray_into`] clears and
/// refills it without allocating once the buffers have grown to the
/// ray cap, and the render kernel fills one per pixel row.
#[derive(Debug, Clone, Default)]
pub struct SampleBatch {
    ts: Vec<f32>,
    dts: Vec<f32>,
    positions: Vec<Vec3>,
}

impl SampleBatch {
    /// Creates an empty batch sized lazily on first use.
    pub fn new() -> Self {
        SampleBatch::default()
    }

    /// Number of samples in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the batch holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Ray parameters of the samples, in marching order.
    #[inline]
    pub fn ts(&self) -> &[f32] {
        &self.ts
    }

    /// Integration intervals of the samples.
    #[inline]
    pub fn dts(&self) -> &[f32] {
        &self.dts
    }

    /// Sample positions in normalized model coordinates.
    #[inline]
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Removes all samples, keeping the buffer capacity.
    pub fn clear(&mut self) {
        self.ts.clear();
        self.dts.clear();
        self.positions.clear();
    }

    /// Appends one sample.
    #[inline]
    pub fn push(&mut self, t: f32, dt: f32, position: Vec3) {
        self.ts.push(t); // lint: allow(h2): amortized into reserved SoA capacity
        self.dts.push(dt); // lint: allow(h2): amortized into reserved SoA capacity
        self.positions.push(position); // lint: allow(h2): amortized into reserved SoA capacity
    }
}

/// Resizes `buf` to exactly `len` elements, leaving a buffer of that
/// length untouched.
fn fit<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() != len {
        buf.resize(len, T::default());
    }
}

/// All Stage II/III working memory for one worker: encoded features,
/// MLP activation caches, per-sample outputs, and the gradient
/// buffers of the backward pass — allocated once and resized only
/// when the batch shape changes.
///
/// Filled by [`crate::model::NerfModel::forward_batch`] /
/// [`crate::model::NerfModel::backward_batch`]; the per-sample
/// results are exposed through [`KernelScratch::sigma`] and
/// [`KernelScratch::color`].
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    /// Hash-grid corner address/weight scratch shared by the encoding
    /// forward and backward kernels.
    pub(crate) enc: EncodingScratch,
    /// Point-major encoded features (`batch × enc_dim`).
    pub(crate) encoded: Vec<f32>,
    /// Density-MLP activation cache.
    pub(crate) density_cache: MlpBatchCache,
    /// Color-MLP activation cache.
    pub(crate) color_cache: MlpBatchCache,
    /// Sample-major color-MLP input (geo features ‖ SH coefficients).
    pub(crate) color_input: Vec<f32>,
    /// Per-sample densities `σ`.
    pub(crate) sigma: Vec<f32>,
    /// Per-sample RGB radiance.
    pub(crate) color: Vec<Vec3>,
    /// Whether the raw density logit hit the clamp (zero gradient).
    pub(crate) raw_clamped: Vec<bool>,
    /// Sample-major color gradient rows fed to the color MLP backward.
    pub(crate) d_rgb: Vec<f32>,
    /// Gradient w.r.t. the color-MLP input's geometric features (the
    /// view-encoding columns get none: no parameter depends on them).
    pub(crate) d_color_in: Vec<f32>,
    /// Gradient w.r.t. the density-MLP output.
    pub(crate) d_density_out: Vec<f32>,
    /// Gradient w.r.t. the encoded features.
    pub(crate) d_encoded: Vec<f32>,
    /// Per-sample compositing inputs built by
    /// [`KernelScratch::build_shaded`].
    pub(crate) shaded: Vec<ShadedSample>,
    /// Per-sample blend weights from `composite_into`.
    pub(crate) weights: Vec<f32>,
    /// Samples the scratch is currently sized for.
    pub(crate) batch: usize,
}

impl KernelScratch {
    /// Creates an empty scratch sized lazily by the first batched
    /// kernel call.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Number of samples in the batch the scratch currently holds.
    #[inline]
    pub fn batch_len(&self) -> usize {
        self.batch
    }

    /// Per-sample densities written by the last
    /// [`crate::model::NerfModel::forward_batch`].
    #[inline]
    pub fn sigma(&self) -> &[f32] {
        &self.sigma
    }

    /// Per-sample colors written by the last
    /// [`crate::model::NerfModel::forward_batch`].
    #[inline]
    pub fn color(&self) -> &[Vec3] {
        &self.color
    }

    /// Sizes every forward buffer for a batch of `n` samples with the
    /// given feature dimensions. Idempotent for a matching shape.
    pub(crate) fn resize(&mut self, n: usize, enc_dim: usize, color_in_dim: usize) {
        fit(&mut self.encoded, n * enc_dim);
        fit(&mut self.color_input, n * color_in_dim);
        fit(&mut self.sigma, n);
        fit(&mut self.color, n);
        fit(&mut self.raw_clamped, n);
        self.batch = n;
    }

    /// Sizes the backward-only gradient buffers for the current batch.
    /// Only a backward pass calls this, so inference never grows or
    /// zero-fills memory it does not read.
    pub(crate) fn resize_backward(
        &mut self,
        enc_dim: usize,
        density_out_dim: usize,
        geo_dim: usize,
    ) {
        let n = self.batch;
        fit(&mut self.d_rgb, n * 3);
        fit(&mut self.d_color_in, n * geo_dim);
        fit(&mut self.d_density_out, n * density_out_dim);
        fit(&mut self.d_encoded, n * enc_dim);
    }

    /// Builds the compositing input from the forward results and the
    /// batch's integration intervals.
    ///
    /// # Panics
    ///
    /// Panics if `dts.len()` differs from the current batch length.
    pub(crate) fn build_shaded(&mut self, dts: &[f32]) {
        assert_eq!(dts.len(), self.batch, "dt buffer does not match the batch");
        self.shaded.clear();
        for ((&sigma, &color), &dt) in self.sigma.iter().zip(self.color.iter()).zip(dts.iter()) {
            // lint: allow(h2): amortized — `shaded` is cleared and
            // refilled within capacity retained across rays
            self.shaded.push(ShadedSample { sigma, color, dt });
        }
    }

    /// Sum of every buffer's capacity, in elements. The batched
    /// kernels assert this is unchanged across their per-sample loops
    /// (debug builds), which is what "allocation-free hot path" means
    /// operationally.
    #[cfg(debug_assertions)]
    pub(crate) fn capacity_fingerprint(&self) -> usize {
        self.enc.capacity()
            + self.encoded.capacity()
            + self.density_cache.capacity()
            + self.color_cache.capacity()
            + self.color_input.capacity()
            + self.sigma.capacity()
            + self.color.capacity()
            + self.raw_clamped.capacity()
            + self.d_rgb.capacity()
            + self.d_color_in.capacity()
            + self.d_density_out.capacity()
            + self.d_encoded.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_batch_push_and_clear() {
        let mut batch = SampleBatch::new();
        assert!(batch.is_empty());
        batch.push(0.5, 0.1, Vec3::splat(0.3));
        batch.push(0.6, 0.1, Vec3::splat(0.4));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.ts(), &[0.5, 0.6]);
        assert_eq!(batch.dts(), &[0.1, 0.1]);
        assert_eq!(batch.positions()[1], Vec3::splat(0.4));
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn kernel_scratch_resize_is_idempotent() {
        let mut scratch = KernelScratch::new();
        scratch.resize(5, 4, 7);
        scratch.resize_backward(4, 3, 7);
        assert_eq!(scratch.batch_len(), 5);
        assert_eq!(scratch.sigma().len(), 5);
        #[cfg(debug_assertions)]
        let stamp = scratch.capacity_fingerprint();
        scratch.resize(5, 4, 7);
        scratch.resize_backward(4, 3, 7);
        #[cfg(debug_assertions)]
        assert_eq!(scratch.capacity_fingerprint(), stamp, "matching shape must not reallocate");
    }

    #[test]
    fn build_shaded_mirrors_forward_outputs() {
        let mut scratch = KernelScratch::new();
        scratch.resize(2, 2, 2);
        scratch.sigma.copy_from_slice(&[1.0, 2.0]);
        scratch.color.copy_from_slice(&[Vec3::X, Vec3::Y]);
        scratch.build_shaded(&[0.25, 0.5]);
        assert_eq!(scratch.shaded.len(), 2);
        assert_eq!(scratch.shaded[1].sigma, 2.0);
        assert_eq!(scratch.shaded[1].color, Vec3::Y);
        assert_eq!(scratch.shaded[0].dt, 0.25);
    }
}
