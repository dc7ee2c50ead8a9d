//! Small fully-connected networks (Stage III of the NeRF pipeline).
//!
//! Instant-NGP pairs the hash encoding with deliberately tiny MLPs: a
//! one-hidden-layer density network and a two-hidden-layer color
//! network. This module provides a from-scratch [`Mlp`] with explicit
//! forward and backward passes and a flat parameter layout that the
//! optimizer and the INT8 quantization experiments operate on.

use rand::Rng;
use std::sync::OnceLock;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (used for RGB outputs).
    Sigmoid,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// The activation derivative expressed in terms of the *output*
    /// value `y = f(x)` (all three supported activations admit this
    /// form, which avoids caching pre-activations).
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::None => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// A multi-layer perceptron with a flat `f32` parameter vector.
///
/// Weights are stored layer-major, each layer as a row-major
/// `out_dim × in_dim` matrix followed by its `out_dim` bias vector.
///
/// # Examples
///
/// ```
/// use fusion3d_nerf::mlp::{Activation, Mlp, MlpCache};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mlp = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::None, &mut rng);
/// let mut cache = MlpCache::for_mlp(&mlp);
/// let out = mlp.forward(&[0.1, -0.2, 0.3, 0.4], &mut cache);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    dims: Vec<usize>,
    params: Vec<f32>,
    hidden_activation: Activation,
    output_activation: Activation,
    /// Per layer, the forward GEMM's weight layout for the current
    /// `params`: built by the first batched forward after a change and
    /// dropped by every mutable access to the parameters, so it is
    /// built once per optimizer step, never per call, and never stale.
    forward_layouts: OnceLock<Vec<ForwardLayout>>,
    /// Per layer, the input-gradient GEMM's row-major weights, each row
    /// padded to `padded(in_dim)` inputs so the kernel loads one
    /// contiguous vector of inputs per output feature. Built by the
    /// first batched backward after a change and dropped with the
    /// forward layouts, so a model that only renders never holds them.
    backward_rows: OnceLock<Vec<Vec<f32>>>,
}

/// One layer's weights as the forward GEMM reads them, zero-padded to
/// whole [`LANES`]-wide vectors so every tile runs at full width.
#[derive(Debug, Clone)]
struct ForwardLayout {
    /// Column-major (`[k][o]`) weights, each column of inputs padded to
    /// `padded(out_dim)` outputs: the forward GEMM loads one contiguous
    /// vector of outputs per input feature.
    columns: Vec<f32>,
    /// The biases, padded to `padded(out_dim)`.
    bias: Vec<f32>,
}

impl ForwardLayout {
    /// Lays out one layer's row-major `weights` (`out_dim × in_dim`)
    /// and `biases`.
    fn new(weights: &[f32], biases: &[f32], in_dim: usize, out_dim: usize) -> Self {
        debug_assert!(weights.len() == out_dim * in_dim && biases.len() == out_dim);
        let out_pad = padded(out_dim);
        // lint: allow(h2): built once per parameter update, not per call
        let mut columns = vec![0.0; in_dim * out_pad];
        // lint: allow(h2): built once per parameter update, not per call
        let mut bias = vec![0.0; out_pad];
        for (o, row) in weights.chunks_exact(in_dim).enumerate() {
            for (k, &w) in row.iter().enumerate() {
                columns[k * out_pad + o] = w;
            }
        }
        bias[..out_dim].copy_from_slice(biases);
        ForwardLayout { columns, bias }
    }
}

/// One layer's row-major `weights` (`out_dim × in_dim`) with each row
/// zero-padded to `padded(in_dim)` inputs.
fn padded_rows(weights: &[f32], in_dim: usize, out_dim: usize) -> Vec<f32> {
    debug_assert!(weights.len() == out_dim * in_dim);
    let in_pad = padded(in_dim);
    // lint: allow(h2): built once per parameter update, not per call
    let mut rows = vec![0.0; out_dim * in_pad];
    for (padded_row, row) in rows.chunks_exact_mut(in_pad).zip(weights.chunks_exact(in_dim)) {
        padded_row[..in_dim].copy_from_slice(row);
    }
    rows
}

/// Per-sample forward-pass activations retained for the backward pass.
///
/// Reuse one cache per worker to avoid reallocation; `forward` resizes
/// it as needed.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `activations[0]` is the input; `activations[i]` the output of
    /// layer `i - 1` *after* its activation function.
    activations: Vec<Vec<f32>>,
}

impl MlpCache {
    /// Creates an empty cache sized lazily on first use.
    pub fn new() -> Self {
        MlpCache::default()
    }

    /// Creates a cache pre-sized for `mlp`.
    pub fn for_mlp(mlp: &Mlp) -> Self {
        MlpCache { activations: mlp.dims.iter().map(|&d| vec![0.0; d]).collect() }
    }

    /// The network output stored by the last `forward` call.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has populated the cache.
    pub fn output(&self) -> &[f32] {
        // lint: allow(p1): documented panic — reading before forward() is a caller bug
        self.activations.last().expect("cache is empty; call forward first")
    }
}

/// Structure-of-arrays forward/backward scratch for the batched MLP
/// kernels.
///
/// Activations are stored sample-major: entry `(s, d)` of layer `l`
/// lives at `activations[l][s * dims[l] + d]`. One cache serves both
/// [`Mlp::forward_batch`] and [`Mlp::backward_batch`], for any number
/// of networks (the weight layouts live in each [`Mlp`]); keep one per
/// worker and the kernels resize it only when the batch shape changes.
#[derive(Debug, Clone, Default)]
pub struct MlpBatchCache {
    /// `activations[0]` is the input batch; `activations[l]` the
    /// post-activation output batch of layer `l - 1`. Every layer
    /// input carries [`LANES`] values of slack past its `n` rows, so
    /// the weight-gradient tiles read whole vectors at the last row.
    activations: Vec<Vec<f32>>,
    /// dL/d(pre-activation) of the layer currently being walked, with
    /// the same [`LANES`] of slack.
    delta: Vec<f32>,
    /// dL/d(post-activation) of the previous layer.
    d_prev: Vec<f32>,
    batch: usize,
}

impl MlpBatchCache {
    /// Creates an empty cache sized lazily on first use.
    pub fn new() -> Self {
        MlpBatchCache::default()
    }

    /// Number of samples in the batch the cache currently holds.
    #[inline]
    pub fn batch_len(&self) -> usize {
        self.batch
    }

    /// Total buffer capacity in elements, for the hot-loop
    /// allocation-freedom debug assertion.
    #[cfg(debug_assertions)]
    pub(crate) fn capacity(&self) -> usize {
        self.activations.iter().map(Vec::capacity).sum::<usize>()
            + self.delta.capacity()
            + self.d_prev.capacity()
    }

    /// Sizes the forward buffers for a batch of `n` samples of an MLP
    /// with layer dimensions `dims`. Idempotent: a matching shape
    /// leaves the buffers untouched, so pre-sizing here keeps the
    /// kernels allocation-free afterwards.
    pub(crate) fn begin(&mut self, dims: &[usize], n: usize) {
        self.activations.resize_with(dims.len(), Vec::default);
        let last = dims.len() - 1;
        for (l, (a, &d)) in self.activations.iter_mut().zip(dims.iter()).enumerate() {
            let len = if l == last { n * d } else { n * d + LANES };
            if a.len() != len {
                a.resize(len, 0.0);
            }
        }
        self.batch = n;
    }

    /// Sizes the backward-only gradient buffers for the cached batch,
    /// so inference never grows or zero-fills them. Idempotent like
    /// [`MlpBatchCache::begin`].
    pub(crate) fn begin_backward(&mut self, dims: &[usize]) {
        let len = self.batch * dims.iter().copied().max().unwrap_or(0);
        if self.delta.len() != len + LANES {
            self.delta.resize(len + LANES, 0.0);
        }
        if self.d_prev.len() != len {
            self.d_prev.resize(len, 0.0);
        }
    }

    /// The sample-major output batch (`batch_len() * output_dim`
    /// values) stored by the last [`Mlp::forward_batch`] call.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has populated the cache.
    pub fn output(&self) -> &[f32] {
        // lint: allow(p1): documented panic — reading before forward_batch() is a caller bug
        self.activations.last().expect("cache is empty; call forward_batch first")
    }
}

/// Rows per register tile of the blocked GEMM kernels: samples in the
/// forward and input-gradient kernels, output features in the
/// weight-gradient kernel.
const TILE_ROWS: usize = 4;
// The forward and input-gradient reductions unpack a tile's rows by
// name.
const _: () = assert!(TILE_ROWS == 4, "the reductions zip four tile rows");
/// Columns per register tile: one 256-bit vector of f32 lanes, so
/// every tile row is one vector multiply and one vector add per step
/// of the reduction. Tiling never changes results: each output element
/// keeps its own accumulation chain, in the scalar path's order.
const LANES: usize = 8;

/// `d` rounded up to whole [`LANES`]-wide vectors.
fn padded(d: usize) -> usize {
    d.next_multiple_of(LANES)
}

impl Mlp {
    /// Creates an MLP with the given layer dimensions (input first,
    /// output last), He-initialized weights, and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given or any dimension
    /// is zero.
    pub fn new<R: Rng>(
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "layer dimensions must be positive");
        let mut params = Vec::new();
        for w in dims.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let std = (2.0 / fan_in as f32).sqrt();
            for _ in 0..fan_in * fan_out {
                // Uniform approximation of a He-normal initialization.
                params.push(rng.gen_range(-std..std));
            }
            params.extend(std::iter::repeat_n(0.0, fan_out));
        }
        Mlp {
            dims: dims.to_vec(),
            params,
            hidden_activation,
            output_activation,
            forward_layouts: OnceLock::new(),
            backward_rows: OnceLock::new(),
        }
    }

    /// Layer dimensions, input first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Input dimension.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output dimension.
    #[inline]
    pub fn output_dim(&self) -> usize {
        // lint: allow(p1): invariant — Mlp::new asserts dims.len() >= 2
        *self.dims.last().expect("dims is never empty")
    }

    /// Number of layers (linear transforms).
    #[inline]
    pub fn layer_count(&self) -> usize {
        self.dims.len() - 1
    }

    /// Flat parameter vector.
    #[inline]
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable flat parameter vector (used by the optimizer and the
    /// quantization experiments).
    #[inline]
    pub fn params_mut(&mut self) -> &mut [f32] {
        self.drop_layouts();
        &mut self.params
    }

    /// Number of parameters.
    #[inline]
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Multiply-accumulate operations per forward pass — the dominant
    /// arithmetic cost the accelerator's post-processing module models.
    pub fn macs_per_forward(&self) -> u64 {
        self.dims.windows(2).map(|w| (w[0] * w[1]) as u64).sum()
    }

    /// Mutable access to the bias of output `index` of the final
    /// layer, for output-scale initialization tweaks (e.g. the MoE
    /// density normalization).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.output_dim()`.
    pub fn output_bias_mut(&mut self, index: usize) -> &mut f32 {
        assert!(index < self.output_dim(), "output index {index} out of range");
        let last = self.layer_count() - 1;
        let (in_dim, out_dim) = (self.dims[last], self.dims[last + 1]);
        let off = self.layer_offset(last) + in_dim * out_dim + index;
        self.drop_layouts();
        &mut self.params[off]
    }

    /// Offset of layer `l`'s weight matrix in the flat vector.
    fn layer_offset(&self, layer: usize) -> usize {
        let mut off = 0;
        for w in self.dims.windows(2).take(layer) {
            off += w[0] * w[1] + w[1];
        }
        off
    }

    /// Layer `layer`'s row-major weights and its biases.
    fn layer_params(&self, layer: usize) -> (&[f32], &[f32]) {
        debug_assert!(layer < self.layer_count(), "layer {layer} of {}", self.layer_count());
        let (in_dim, out_dim) = (self.dims[layer], self.dims[layer + 1]);
        let (weights, rest) = self.params[self.layer_offset(layer)..].split_at(in_dim * out_dim);
        (weights, &rest[..out_dim])
    }

    /// The forward GEMM's weight layouts for the current parameters,
    /// built on the first call after a change.
    fn forward_layouts(&self) -> &[ForwardLayout] {
        self.forward_layouts.get_or_init(|| {
            (0..self.layer_count())
                .map(|layer| {
                    let (weights, biases) = self.layer_params(layer);
                    ForwardLayout::new(weights, biases, self.dims[layer], self.dims[layer + 1])
                })
                // lint: allow(h2): built once per parameter update, not per call
                .collect()
        })
    }

    /// The input-gradient GEMM's padded weight rows for the current
    /// parameters, built on the first call after a change.
    fn backward_rows(&self) -> &[Vec<f32>] {
        self.backward_rows.get_or_init(|| {
            (0..self.layer_count())
                .map(|layer| {
                    let (weights, _) = self.layer_params(layer);
                    padded_rows(weights, self.dims[layer], self.dims[layer + 1])
                })
                // lint: allow(h2): built once per parameter update, not per call
                .collect()
        })
    }

    /// Drops the kernels' weight layouts ahead of a parameter change.
    fn drop_layouts(&mut self) {
        self.forward_layouts.take();
        self.backward_rows.take();
    }

    fn activation_for_layer(&self, layer: usize) -> Activation {
        if layer + 1 == self.layer_count() {
            self.output_activation
        } else {
            self.hidden_activation
        }
    }

    /// Runs the forward pass, retaining activations in `cache`, and
    /// returns the output slice.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward<'c>(&self, input: &[f32], cache: &'c mut MlpCache) -> &'c [f32] {
        assert_eq!(input.len(), self.input_dim(), "input size mismatch");
        cache.activations.resize_with(self.dims.len(), Vec::new);
        cache.activations[0].clear();
        cache.activations[0].extend_from_slice(input);
        for layer in 0..self.layer_count() {
            let (in_dim, out_dim) = (self.dims[layer], self.dims[layer + 1]);
            let off = self.layer_offset(layer);
            let weights = &self.params[off..off + in_dim * out_dim];
            let biases = &self.params[off + in_dim * out_dim..off + in_dim * out_dim + out_dim];
            let act = self.activation_for_layer(layer);
            // Split the borrow: read activations[layer], write
            // activations[layer + 1].
            let (head, tail) = cache.activations.split_at_mut(layer + 1);
            let x = &head[layer];
            let y = &mut tail[0];
            y.clear();
            y.reserve(out_dim);
            for o in 0..out_dim {
                let row = &weights[o * in_dim..(o + 1) * in_dim];
                let mut acc = biases[o];
                for (w, v) in row.iter().zip(x.iter()) {
                    acc += w * v;
                }
                y.push(act.apply(acc));
            }
        }
        cache.output()
    }

    /// Runs the backward pass for the sample whose activations are in
    /// `cache`.
    ///
    /// * `d_output` — gradient of the loss w.r.t. the network output
    ///   (post-activation).
    /// * `d_input` — filled with the gradient w.r.t. the input
    ///   (post-activation of the encoding); must have length
    ///   `input_dim`.
    /// * `grads` — flat gradient accumulator with the same layout as
    ///   [`Mlp::params`]; gradients are *added*, enabling batched
    ///   accumulation.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches or if `cache` does not hold a forward
    /// pass for this network.
    pub fn backward(
        &self,
        cache: &MlpCache,
        d_output: &[f32],
        d_input: &mut [f32],
        grads: &mut [f32],
    ) {
        assert_eq!(d_output.len(), self.output_dim(), "output gradient size mismatch");
        assert_eq!(d_input.len(), self.input_dim(), "input gradient size mismatch");
        assert_eq!(grads.len(), self.params.len(), "parameter gradient size mismatch");
        assert_eq!(cache.activations.len(), self.dims.len(), "cache does not match network");

        // delta = dL/d(pre-activation) of the current layer.
        let mut delta: Vec<f32> = d_output
            .iter()
            .zip(cache.activations[self.layer_count()].iter())
            .map(|(&d, &y)| {
                d * self.activation_for_layer(self.layer_count() - 1).derivative_from_output(y)
            })
            // lint: allow(h2): scalar reference path — hot loops use
            // backward_batch
            .collect();

        for layer in (0..self.layer_count()).rev() {
            let (in_dim, out_dim) = (self.dims[layer], self.dims[layer + 1]);
            let off = self.layer_offset(layer);
            let x = &cache.activations[layer];
            assert_eq!(x.len(), in_dim, "cached activation size mismatch");

            // Weight and bias gradients.
            {
                let (gw, gb) =
                    grads[off..off + in_dim * out_dim + out_dim].split_at_mut(in_dim * out_dim);
                for o in 0..out_dim {
                    let d = delta[o];
                    let row = &mut gw[o * in_dim..(o + 1) * in_dim];
                    for (g, &v) in row.iter_mut().zip(x.iter()) {
                        *g += d * v;
                    }
                    gb[o] += d;
                }
            }

            // Propagate to the previous layer (or the input).
            let weights = &self.params[off..off + in_dim * out_dim];
            // lint: allow(h2): scalar reference path — hot loops use backward_batch
            let mut d_prev = vec![0.0f32; in_dim];
            for o in 0..out_dim {
                let d = delta[o];
                let row = &weights[o * in_dim..(o + 1) * in_dim];
                for (dp, &w) in d_prev.iter_mut().zip(row.iter()) {
                    *dp += d * w;
                }
            }

            if layer == 0 {
                d_input.copy_from_slice(&d_prev);
            } else {
                let act = self.activation_for_layer(layer - 1);
                delta = d_prev
                    .iter()
                    .zip(cache.activations[layer].iter())
                    .map(|(&d, &y)| d * act.derivative_from_output(y))
                    // lint: allow(h2): scalar reference path — hot
                    // loops use backward_batch
                    .collect();
            }
        }
    }

    /// Runs the forward pass for a sample-major batch of `n` inputs
    /// (`inputs[s * input_dim() ..]` is sample `s`), retaining
    /// activations in `cache`, and returns the sample-major output
    /// slice (`n * output_dim()` values).
    ///
    /// Layers are evaluated with a blocked GEMM (`TILE_ROWS` samples ×
    /// `LANES` outputs per register tile) whose inner reduction walks
    /// input features in ascending order per output element —
    /// **bitwise-identical** to calling [`Mlp::forward`] on each
    /// sample, which is the determinism contract the `reference`
    /// module's differential tests enforce.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n * self.input_dim()`.
    pub fn forward_batch<'c>(
        &self,
        inputs: &[f32],
        n: usize,
        cache: &'c mut MlpBatchCache,
    ) -> &'c [f32] {
        assert_eq!(inputs.len(), n * self.input_dim(), "input batch size mismatch");
        cache.begin(&self.dims, n);
        cache.activations[0][..inputs.len()].copy_from_slice(inputs);
        for (layer, layout) in self.forward_layouts().iter().enumerate() {
            let (in_dim, out_dim) = (self.dims[layer], self.dims[layer + 1]);
            let act = self.activation_for_layer(layer);
            // Split the borrow: read activations[layer], write
            // activations[layer + 1].
            let (head, tail) = cache.activations.split_at_mut(layer + 1);
            gemm_bias_act(&head[layer], layout, act, n, in_dim, out_dim, &mut tail[0]);
        }
        cache.output()
    }

    /// Runs the backward pass for the batch whose activations are in
    /// `cache`, the batched counterpart of [`Mlp::backward`].
    ///
    /// * `d_output` — sample-major gradient w.r.t. the network output
    ///   (`batch * output_dim()` values).
    /// * `d_input` — filled with the sample-major gradient w.r.t. the
    ///   input (`batch * input_dim()` values).
    /// * `grads` — flat gradient accumulator with the layout of
    ///   [`Mlp::params`]; gradients are *added*.
    ///
    /// Every gradient element accumulates its per-sample contributions
    /// in ascending sample order, so the result is bitwise-identical
    /// to looping [`Mlp::backward`] over the samples.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches or if `cache` does not hold a
    /// forward pass for this network.
    pub fn backward_batch(
        &self,
        cache: &mut MlpBatchCache,
        d_output: &[f32],
        d_input: &mut [f32],
        grads: &mut [f32],
    ) {
        self.backward_batch_cols(cache, d_output, d_input, self.input_dim(), grads);
    }

    /// [`Mlp::backward_batch`] that computes only the first `cols`
    /// input-gradient columns: `d_input` holds `batch` rows of `cols`
    /// values. The parameter gradients are the same either way; the
    /// model skips the input gradient of its view encoding, which no
    /// parameter depends on.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches, if `cols` exceeds the input width, or
    /// if `cache` does not hold a forward pass for this network.
    pub(crate) fn backward_batch_cols(
        &self,
        cache: &mut MlpBatchCache,
        d_output: &[f32],
        d_input: &mut [f32],
        cols: usize,
        grads: &mut [f32],
    ) {
        cache.begin_backward(&self.dims);
        let rows = self.backward_rows();
        let MlpBatchCache { activations, delta, d_prev, batch, .. } = cache;
        let n = *batch;
        assert_eq!(d_output.len(), n * self.output_dim(), "output gradient size mismatch");
        assert!(cols <= self.input_dim(), "{cols} input-gradient columns of {}", self.input_dim());
        assert_eq!(d_input.len(), n * cols, "input gradient size mismatch");
        assert_eq!(grads.len(), self.params.len(), "parameter gradient size mismatch");
        assert_eq!(activations.len(), self.dims.len(), "cache does not match network");

        // delta = dL/d(pre-activation) of the output layer.
        let out_dim = self.output_dim();
        let act = self.activation_for_layer(self.layer_count() - 1);
        for ((d, &g), &y) in delta[..n * out_dim]
            .iter_mut()
            .zip(d_output.iter())
            .zip(activations[self.layer_count()].iter())
        {
            *d = g * act.derivative_from_output(y);
        }

        for layer in (0..self.layer_count()).rev() {
            let (in_dim, out_dim) = (self.dims[layer], self.dims[layer + 1]);
            let off = self.layer_offset(layer);
            let x = &activations[layer];
            assert_eq!(x.len(), n * in_dim + LANES, "cached activation size mismatch");

            // Weight and bias gradients.
            {
                let (gw, gb) =
                    grads[off..off + in_dim * out_dim + out_dim].split_at_mut(in_dim * out_dim);
                grad_gemm(delta, x, n, in_dim, out_dim, gw, gb);
            }

            // Propagate to the input, or to the previous layer.
            let weights = &rows[layer];
            if layer == 0 {
                dinput_gemm(delta, weights, n, in_dim, out_dim, cols, d_input);
            } else {
                dinput_gemm(delta, weights, n, in_dim, out_dim, in_dim, d_prev);
                let act = self.activation_for_layer(layer - 1);
                for ((d, &dp), &y) in
                    delta[..n * in_dim].iter_mut().zip(d_prev[..n * in_dim].iter()).zip(x.iter())
                {
                    *d = dp * act.derivative_from_output(y);
                }
            }
        }
    }
}

// The three GEMMs below stay out of line, so each tile loop is
// register-allocated on its own. Each keeps its accumulator tile a
// fixed-size array indexed only by constants (tail rows and lanes go
// through `load_lanes` and `store_lanes`), so the tile lives in vector
// registers; one dynamic index sends it to the stack and the loop back
// to scalar code. The forward and input-gradient reductions zip the
// weight rows with the tile rows' values rather than index them, so
// no reduction step carries a bounds check.

/// The first `lanes` values of `src` as a full vector, zero beyond.
#[inline(always)]
fn load_lanes(src: &[f32], lanes: usize) -> [f32; LANES] {
    debug_assert!(lanes <= LANES && src.len() >= lanes, "{lanes} lanes of {}", src.len());
    let mut v = [0.0; LANES];
    if lanes == LANES {
        v.copy_from_slice(&src[..LANES]);
    } else {
        v[..lanes].copy_from_slice(&src[..lanes]);
    }
    v
}

/// Stores the first `lanes` values of `v` into `dst`.
#[inline(always)]
fn store_lanes(dst: &mut [f32], v: [f32; LANES], lanes: usize) {
    debug_assert!(lanes <= v.len() && dst.len() >= lanes, "{lanes} lanes of {}", dst.len());
    if lanes == LANES {
        dst[..LANES].copy_from_slice(&v);
    } else {
        dst[..lanes].copy_from_slice(&v[..lanes]);
    }
}

/// Blocked GEMM + bias + activation: `y[s][o] = act(b[o] + Σ_k
/// w[o][k] · x[s][k])` over a sample-major batch.
///
/// Each [`TILE_ROWS`] × [`LANES`] register tile holds thirty-two
/// independent accumulation chains, and the layout's padded
/// column-major weights make the inner loop one contiguous vector
/// load per input feature. The output-feature tail runs the same tile
/// over zero-padded weights, and the sample tail repeats the last
/// sample's row; only valid lanes and rows are stored. Every `(s, o)`
/// element starts from its bias and adds `k` in ascending order — the
/// addition sequence, and so the bits, of [`Mlp::forward`].
#[inline(never)]
fn gemm_bias_act(
    x: &[f32],
    layout: &ForwardLayout,
    act: Activation,
    n: usize,
    in_dim: usize,
    out_dim: usize,
    y: &mut [f32],
) {
    let out_pad = padded(out_dim);
    debug_assert!(x.len() >= n * in_dim, "x holds n × in_dim inputs");
    debug_assert!(y.len() >= n * out_dim, "y holds n × out_dim outputs");
    debug_assert!(layout.columns.len() == in_dim * out_pad && layout.bias.len() == out_pad);
    for s in (0..n).step_by(TILE_ROWS) {
        let valid = TILE_ROWS.min(n - s);
        let xr: [&[f32]; TILE_ROWS] =
            std::array::from_fn(|si| &x[(s + si.min(valid - 1)) * in_dim..][..in_dim]);
        for o in (0..out_dim).step_by(LANES) {
            let bias = load_lanes(&layout.bias[o..], LANES);
            let mut acc = [bias; TILE_ROWS];
            let xk = xr[0].iter().zip(xr[1]).zip(xr[2]).zip(xr[3]);
            for (column, (((&x0, &x1), &x2), &x3)) in layout.columns.chunks_exact(out_pad).zip(xk) {
                let w = &column[o..o + LANES];
                for (row, xv) in acc.iter_mut().zip([x0, x1, x2, x3]) {
                    for (a, &wk) in row.iter_mut().zip(w.iter()) {
                        *a += wk * xv;
                    }
                }
            }
            let lanes = LANES.min(out_dim - o);
            for (si, row) in acc.iter().enumerate() {
                if si < valid {
                    let out = row.map(|a| act.apply(a));
                    store_lanes(&mut y[(s + si) * out_dim + o..], out, lanes);
                }
            }
        }
    }
}

/// Weight/bias gradient GEMM: `gw[o][i] += Σ_s delta[s][o] · x[s][i]`
/// and `gb[o] += Σ_s delta[s][o]`.
///
/// Each gradient element is read, accumulated over samples in
/// ascending order, and written back — exactly the addition sequence
/// the scalar path produces when it walks one sample at a time, so
/// the bits match [`Mlp::backward`] looped over the batch. Tiles are
/// [`TILE_ROWS`] outputs × [`LANES`] inputs, and the biases
/// [`LANES`] outputs at a time. Tail tiles run at full width: their
/// extra lanes read the next row, or the [`LANES`] of slack that
/// `delta` and `x` carry past their last row, and are never stored.
#[inline(never)]
fn grad_gemm(
    delta: &[f32],
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    gw: &mut [f32],
    gb: &mut [f32],
) {
    debug_assert!(delta.len() >= n * out_dim + LANES, "delta holds n × out_dim deltas + slack");
    debug_assert!(x.len() >= n * in_dim + LANES, "x holds n × in_dim inputs + slack");
    debug_assert!(gw.len() >= out_dim * in_dim && gb.len() >= out_dim);
    // Bias gradients: per output, sample-ascending accumulation.
    for o in (0..out_dim).step_by(LANES) {
        let lanes = LANES.min(out_dim - o);
        let mut acc = load_lanes(&gb[o..], lanes);
        for s in 0..n {
            let ds = &delta[s * out_dim + o..][..LANES];
            for (a, &d) in acc.iter_mut().zip(ds.iter()) {
                *a += d;
            }
        }
        store_lanes(&mut gb[o..], acc, lanes);
    }
    for o in (0..out_dim).step_by(TILE_ROWS) {
        let valid = TILE_ROWS.min(out_dim - o);
        for i in (0..in_dim).step_by(LANES) {
            let lanes = LANES.min(in_dim - i);
            let mut acc = [[0.0f32; LANES]; TILE_ROWS];
            for (oi, row) in acc.iter_mut().enumerate() {
                if oi < valid {
                    *row = load_lanes(&gw[(o + oi) * in_dim + i..], lanes);
                }
            }
            for s in 0..n {
                let ds = &delta[s * out_dim + o..][..TILE_ROWS];
                let xs = &x[s * in_dim + i..][..LANES];
                for (row, &d) in acc.iter_mut().zip(ds.iter()) {
                    for (a, &v) in row.iter_mut().zip(xs.iter()) {
                        *a += d * v;
                    }
                }
            }
            for (oi, &row) in acc.iter().enumerate() {
                if oi < valid {
                    store_lanes(&mut gw[(o + oi) * in_dim + i..], row, lanes);
                }
            }
        }
    }
}

/// Input-gradient GEMM over the first `cols` inputs: `d_in[s][i] =
/// Σ_o delta[s][o] · w[o][i]`, with `d_in` holding `n` rows of `cols`.
/// Each element accumulates outputs in ascending order from `+0.0` —
/// the sequence the scalar backward's `d_prev` loop produces.
///
/// Tiles are [`TILE_ROWS`] samples × [`LANES`] inputs over the
/// layout's input-padded row-major `weights` (`out_dim ×
/// padded(in_dim)`);
/// the sample tail repeats the last sample's deltas, and only valid
/// rows and lanes are stored.
#[inline(never)]
fn dinput_gemm(
    delta: &[f32],
    weights: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    cols: usize,
    d_in: &mut [f32],
) {
    let in_pad = padded(in_dim);
    debug_assert!(delta.len() >= n * out_dim, "delta holds n × out_dim deltas");
    debug_assert!(weights.len() == out_dim * in_pad && cols <= in_dim && d_in.len() >= n * cols);
    for s in (0..n).step_by(TILE_ROWS) {
        let valid = TILE_ROWS.min(n - s);
        let dr: [&[f32]; TILE_ROWS] =
            std::array::from_fn(|si| &delta[(s + si.min(valid - 1)) * out_dim..][..out_dim]);
        for i in (0..cols).step_by(LANES) {
            let mut acc = [[0.0f32; LANES]; TILE_ROWS];
            let d_o = dr[0].iter().zip(dr[1]).zip(dr[2]).zip(dr[3]);
            for (w_row, (((&d0, &d1), &d2), &d3)) in weights.chunks_exact(in_pad).zip(d_o) {
                let wr = &w_row[i..i + LANES];
                for (row, d) in acc.iter_mut().zip([d0, d1, d2, d3]) {
                    for (a, &w) in row.iter_mut().zip(wr.iter()) {
                        *a += d * w;
                    }
                }
            }
            let lanes = LANES.min(cols - i);
            for (si, &row) in acc.iter().enumerate() {
                if si < valid {
                    store_lanes(&mut d_in[(s + si) * cols + i..], row, lanes);
                }
            }
        }
    }
}

/// Number of spherical-harmonics coefficients produced by
/// [`sh_encode`] (degree 4, as used by Instant-NGP's color network).
pub const SH_DIM: usize = 16;

/// Evaluates the real spherical-harmonics basis up to degree 4 (16
/// coefficients) for a unit direction, the view-direction encoding of
/// the color network.
///
/// The input need not be perfectly normalized; it is renormalized
/// internally (zero vectors map to the +Z basis evaluation).
pub fn sh_encode(dir: [f32; 3], out: &mut [f32; SH_DIM]) {
    let len = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
    let (x, y, z) =
        if len > 1e-9 { (dir[0] / len, dir[1] / len, dir[2] / len) } else { (0.0, 0.0, 1.0) };
    let (xx, yy, zz) = (x * x, y * y, z * z);
    let (xy, yz, xz) = (x * y, y * z, x * z);

    out[0] = 0.282_094_79;
    out[1] = -0.488_602_51 * y;
    out[2] = 0.488_602_51 * z;
    out[3] = -0.488_602_51 * x;
    out[4] = 1.092_548_4 * xy;
    out[5] = -1.092_548_4 * yz;
    out[6] = 0.315_391_57 * (3.0 * zz - 1.0);
    out[7] = -1.092_548_4 * xz;
    out[8] = 0.546_274_2 * (xx - yy);
    out[9] = -0.590_043_6 * y * (3.0 * xx - yy);
    out[10] = 2.890_611_4 * xy * z;
    out[11] = -0.457_045_8 * y * (5.0 * zz - 1.0);
    out[12] = 0.373_176_33 * z * (5.0 * zz - 3.0);
    out[13] = -0.457_045_8 * x * (5.0 * zz - 1.0);
    out[14] = 1.445_305_7 * z * (xx - yy);
    out[15] = -0.590_043_6 * x * (xx - 3.0 * yy);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Mlp {
        let mut rng = SmallRng::seed_from_u64(seed);
        Mlp::new(&[3, 8, 8, 2], Activation::Relu, Activation::None, &mut rng)
    }

    #[test]
    fn activation_functions() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::None.apply(-3.5), -3.5);
        let s = Activation::Sigmoid.apply(0.0);
        assert!((s - 0.5).abs() < 1e-6);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(1.5), 1.0);
        assert!((Activation::Sigmoid.derivative_from_output(0.5) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn shapes_and_param_layout() {
        let mlp = tiny_mlp(1);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        assert_eq!(mlp.layer_count(), 3);
        assert_eq!(mlp.param_count(), 3 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(mlp.macs_per_forward(), 3 * 8 + 8 * 8 + 8 * 2);
    }

    #[test]
    fn forward_output_is_finite_and_deterministic() {
        let mlp = tiny_mlp(2);
        let mut cache = MlpCache::for_mlp(&mlp);
        let out1: Vec<f32> = mlp.forward(&[0.5, -0.5, 0.25], &mut cache).to_vec();
        let out2: Vec<f32> = mlp.forward(&[0.5, -0.5, 0.25], &mut cache).to_vec();
        assert_eq!(out1, out2);
        assert!(out1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut mlp = tiny_mlp(3);
        let input = [0.3f32, -0.7, 0.9];
        let d_output = [1.0f32, -2.0];

        let mut cache = MlpCache::new();
        mlp.forward(&input, &mut cache);
        let mut d_input = [0.0f32; 3];
        let mut grads = vec![0.0f32; mlp.param_count()];
        mlp.backward(&cache, &d_output, &mut d_input, &mut grads);

        let loss = |mlp: &Mlp, input: &[f32]| -> f32 {
            let mut c = MlpCache::new();
            let out = mlp.forward(input, &mut c);
            out[0] * 1.0 + out[1] * -2.0
        };

        // Parameter gradients.
        let h = 1e-3f32;
        for i in (0..mlp.param_count()).step_by(7) {
            let orig = mlp.params()[i];
            mlp.params_mut()[i] = orig + h;
            let up = loss(&mlp, &input);
            mlp.params_mut()[i] = orig - h;
            let down = loss(&mlp, &input);
            mlp.params_mut()[i] = orig;
            let fd = (up - down) / (2.0 * h);
            assert!(
                (fd - grads[i]).abs() < 2e-2 * (1.0 + fd.abs()),
                "param {i}: fd {fd} vs analytic {}",
                grads[i]
            );
        }

        // Input gradients.
        for i in 0..3 {
            let mut plus = input;
            plus[i] += h;
            let mut minus = input;
            minus[i] -= h;
            let fd = (loss(&mlp, &plus) - loss(&mlp, &minus)) / (2.0 * h);
            assert!(
                (fd - d_input[i]).abs() < 2e-2 * (1.0 + fd.abs()),
                "input {i}: fd {fd} vs analytic {}",
                d_input[i]
            );
        }
    }

    #[test]
    fn sigmoid_output_bounded() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mlp = Mlp::new(&[4, 8, 3], Activation::Relu, Activation::Sigmoid, &mut rng);
        let mut cache = MlpCache::new();
        let out = mlp.forward(&[10.0, -10.0, 5.0, -5.0], &mut cache);
        for &v in out {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn gradient_accumulation_is_additive() {
        let mlp = tiny_mlp(8);
        let mut cache = MlpCache::new();
        mlp.forward(&[0.1, 0.2, 0.3], &mut cache);
        let mut d_input = [0.0f32; 3];
        let mut grads_once = vec![0.0f32; mlp.param_count()];
        mlp.backward(&cache, &[1.0, 1.0], &mut d_input, &mut grads_once);
        let mut grads_twice = vec![0.0f32; mlp.param_count()];
        mlp.backward(&cache, &[1.0, 1.0], &mut d_input, &mut grads_twice);
        mlp.backward(&cache, &[1.0, 1.0], &mut d_input, &mut grads_twice);
        for (a, b) in grads_once.iter().zip(&grads_twice) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn forward_rejects_wrong_input() {
        let mlp = tiny_mlp(9);
        let mut cache = MlpCache::new();
        mlp.forward(&[1.0], &mut cache);
    }

    #[test]
    fn sh_basis_constant_term_and_norm() {
        let mut out = [0.0f32; SH_DIM];
        sh_encode([0.0, 0.0, 1.0], &mut out);
        assert!((out[0] - 0.282_094_79).abs() < 1e-6);
        // Degree-1 terms for +Z: only Y_1^0 (index 2) nonzero.
        assert!(out[1].abs() < 1e-6);
        assert!(out[2] > 0.4);
        assert!(out[3].abs() < 1e-6);
    }

    #[test]
    fn sh_handles_unnormalized_and_zero_directions() {
        let mut a = [0.0f32; SH_DIM];
        let mut b = [0.0f32; SH_DIM];
        sh_encode([0.0, 0.0, 10.0], &mut a);
        sh_encode([0.0, 0.0, 1.0], &mut b);
        assert_eq!(a, b);
        let mut z = [0.0f32; SH_DIM];
        sh_encode([0.0, 0.0, 0.0], &mut z);
        assert_eq!(z, b, "zero direction falls back to +Z");
    }

    #[test]
    fn sh_orthogonality_numerically() {
        // Monte-Carlo check: distinct SH basis functions are
        // orthogonal over the sphere (loose tolerance at 20k samples).
        let mut rng = SmallRng::seed_from_u64(42);
        use rand::Rng;
        let n = 20_000;
        let mut gram = [[0.0f64; 4]; 4];
        for _ in 0..n {
            // Uniform direction via normalized Gaussian-ish sampling
            // (Box–Muller-free approximation: rejection from cube).
            let v = loop {
                let v = [
                    rng.gen_range(-1.0f32..1.0),
                    rng.gen_range(-1.0f32..1.0),
                    rng.gen_range(-1.0f32..1.0),
                ];
                let l2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                if l2 > 1e-4 && l2 <= 1.0 {
                    break v;
                }
            };
            let mut out = [0.0f32; SH_DIM];
            sh_encode(v, &mut out);
            for (i, row) in gram.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell += (out[i] * out[j]) as f64;
                }
            }
        }
        let norm = 4.0 * std::f64::consts::PI / n as f64;
        for (i, row) in gram.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                let v = cell * norm;
                if i == j {
                    assert!((v - 1.0).abs() < 0.1, "diag {i}: {v}");
                } else {
                    assert!(v.abs() < 0.1, "off-diag ({i},{j}): {v}");
                }
            }
        }
    }
}
