//! Small fully-connected networks (Stage III of the NeRF pipeline).
//!
//! Instant-NGP pairs the hash encoding with deliberately tiny MLPs: a
//! one-hidden-layer density network and a two-hidden-layer color
//! network. This module provides a from-scratch [`Mlp`] with explicit
//! forward and backward passes and a flat parameter layout that the
//! optimizer and the INT8 quantization experiments operate on.

use rand::Rng;

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
/// [`Mlp::forward_batch`] and [`Mlp::backward_batch`]; keep one per
/// worker and the kernels resize it only when the batch shape changes.
#[derive(Debug, Clone, Default)]
pub struct MlpBatchCache {
    /// `activations[0]` is the input batch; `activations[l]` the
    /// post-activation output batch of layer `l - 1`.
    activations: Vec<Vec<f32>>,
    /// dL/d(pre-activation) of the layer currently being walked.
    delta: Vec<f32>,
    /// dL/d(post-activation) of the previous layer.
    d_prev: Vec<f32>,
    /// Column-major (`[k][o]`) copy of the current layer's weights, so
    /// the forward GEMM's inner loop loads one contiguous weight row
    /// per input feature instead of [`OUTPUT_TILE`] strided values.
    wt: Vec<f32>,
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
            + self.wt.capacity()
    }

    /// Sizes the forward buffers for a batch of `n` samples of an MLP
    /// with layer dimensions `dims`. Idempotent: a matching shape
    /// leaves the buffers untouched, so pre-sizing here keeps the
    /// kernels allocation-free afterwards.
    pub(crate) fn begin(&mut self, dims: &[usize], n: usize) {
        self.activations.resize_with(dims.len(), Vec::default);
        for (a, &d) in self.activations.iter_mut().zip(dims.iter()) {
            if a.len() != n * d {
                a.resize(n * d, 0.0);
            }
        }
        let max_weights = dims.windows(2).map(|w| w[0] * w[1]).max().unwrap_or(0);
        if self.wt.len() != max_weights {
            self.wt.resize(max_weights, 0.0);
        }
        self.batch = n;
    }

    /// Sizes the backward-only gradient buffers for the cached batch,
    /// so inference never grows or zero-fills them. Idempotent like
    /// [`MlpBatchCache::begin`].
    pub(crate) fn begin_backward(&mut self, dims: &[usize]) {
        let len = self.batch * dims.iter().copied().max().unwrap_or(0);
        if self.delta.len() != len {
            self.delta.resize(len, 0.0);
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

/// Samples per register tile of the blocked GEMM kernels.
const SAMPLE_TILE: usize = 4;
/// Output features per register tile of the blocked GEMM kernels.
/// Eight features give the forward kernel one 256-bit lane of
/// independent accumulation chains per sample; widening tiles never
/// changes results because each output element keeps its own
/// k-ascending chain.
const OUTPUT_TILE: usize = 8;
/// Input features per register tile of the gradient GEMM kernels.
const INPUT_TILE: usize = 4;

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
        Mlp { dims: dims.to_vec(), params, hidden_activation, output_activation }
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
    /// Layers are evaluated with a blocked GEMM
    /// (`SAMPLE_TILE` × `OUTPUT_TILE` register tiles) whose inner
    /// reduction walks input features in ascending order per output
    /// element — **bitwise-identical** to calling [`Mlp::forward`] on
    /// each sample, which is the determinism contract the `reference`
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
        cache.activations[0].copy_from_slice(inputs);
        for layer in 0..self.layer_count() {
            let (in_dim, out_dim) = (self.dims[layer], self.dims[layer + 1]);
            let off = self.layer_offset(layer);
            let weights = &self.params[off..off + in_dim * out_dim];
            let biases = &self.params[off + in_dim * out_dim..off + in_dim * out_dim + out_dim];
            let act = self.activation_for_layer(layer);
            // Re-lay the weights column-major so the GEMM's inner loop
            // reads them contiguously; the copy is amortized over the
            // whole batch. Transposition reorders loads, not sums, so
            // results stay bit-identical.
            let wt = &mut cache.wt[..in_dim * out_dim];
            for (o, row) in weights.chunks_exact(in_dim).enumerate() {
                for (k, &w) in row.iter().enumerate() {
                    wt[k * out_dim + o] = w;
                }
            }
            // Split the borrow: read activations[layer], write
            // activations[layer + 1].
            let (head, tail) = cache.activations.split_at_mut(layer + 1);
            gemm_bias_act(&head[layer], weights, wt, biases, act, n, in_dim, out_dim, &mut tail[0]);
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
        cache.begin_backward(&self.dims);
        let MlpBatchCache { activations, delta, d_prev, batch, .. } = cache;
        let n = *batch;
        assert_eq!(d_output.len(), n * self.output_dim(), "output gradient size mismatch");
        assert_eq!(d_input.len(), n * self.input_dim(), "input gradient size mismatch");
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
            assert_eq!(x.len(), n * in_dim, "cached activation size mismatch");

            // Weight and bias gradients.
            {
                let (gw, gb) =
                    grads[off..off + in_dim * out_dim + out_dim].split_at_mut(in_dim * out_dim);
                grad_gemm(&delta[..n * out_dim], x, n, in_dim, out_dim, gw, gb);
            }

            // Propagate to the previous layer (or the input).
            let weights = &self.params[off..off + in_dim * out_dim];
            dinput_gemm(
                &delta[..n * out_dim],
                weights,
                n,
                in_dim,
                out_dim,
                &mut d_prev[..n * in_dim],
            );

            if layer == 0 {
                d_input.copy_from_slice(&d_prev[..n * in_dim]);
            } else {
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

/// Blocked GEMM + bias + activation: `y[s][o] = act(b[o] + Σ_k
/// w[o][k] · x[s][k])` over a sample-major batch.
///
/// [`SAMPLE_TILE`] × [`OUTPUT_TILE`] register tiles give the CPU
/// thirty-two independent accumulation chains instead of the scalar
/// path's one, and `wt` (the column-major copy of `weights` the
/// caller maintains) makes the inner loop's weight loads contiguous.
/// The `k` reduction stays in ascending order for every `(s, o)`
/// element — the per-element addition sequence, and so the bits,
/// match [`Mlp::forward`] exactly.
#[allow(clippy::too_many_arguments)] // flat GEMM signature: dims + both weight layouts
fn gemm_bias_act(
    x: &[f32],
    weights: &[f32],
    wt: &[f32],
    biases: &[f32],
    act: Activation,
    n: usize,
    in_dim: usize,
    out_dim: usize,
    y: &mut [f32],
) {
    debug_assert!(x.len() >= n * in_dim, "x holds n × in_dim inputs");
    debug_assert!(y.len() >= n * out_dim, "y holds n × out_dim outputs");
    debug_assert!(weights.len() >= out_dim * in_dim && wt.len() >= in_dim * out_dim);
    debug_assert!(biases.len() >= out_dim);
    let s_full = n - n % SAMPLE_TILE;
    let o_full = out_dim - out_dim % OUTPUT_TILE;
    for s in (0..s_full).step_by(SAMPLE_TILE) {
        let xr: [&[f32]; SAMPLE_TILE] =
            std::array::from_fn(|si| &x[(s + si) * in_dim..(s + si + 1) * in_dim]);
        for o in (0..o_full).step_by(OUTPUT_TILE) {
            let mut acc = [[0.0f32; OUTPUT_TILE]; SAMPLE_TILE];
            for row in &mut acc {
                row.copy_from_slice(&biases[o..o + OUTPUT_TILE]);
            }
            for k in 0..in_dim {
                let w = &wt[k * out_dim + o..k * out_dim + o + OUTPUT_TILE];
                for (si, row) in acc.iter_mut().enumerate() {
                    let xv = xr[si][k];
                    for (a, &wk) in row.iter_mut().zip(w.iter()) {
                        *a += wk * xv;
                    }
                }
            }
            for (si, row) in acc.iter().enumerate() {
                let ys = &mut y[(s + si) * out_dim + o..(s + si) * out_dim + o + OUTPUT_TILE];
                for (out, &a) in ys.iter_mut().zip(row.iter()) {
                    *out = act.apply(a);
                }
            }
        }
        // Output-feature tail: four samples share each weight row.
        for o in o_full..out_dim {
            let row = &weights[o * in_dim..(o + 1) * in_dim];
            let mut acc = [biases[o]; SAMPLE_TILE];
            for (k, &wk) in row.iter().enumerate() {
                for (a, xs) in acc.iter_mut().zip(xr.iter()) {
                    *a += wk * xs[k];
                }
            }
            for (si, &a) in acc.iter().enumerate() {
                y[(s + si) * out_dim + o] = act.apply(a);
            }
        }
    }
    // Sample tail: plain per-sample evaluation, same math as above.
    for s in s_full..n {
        let xs = &x[s * in_dim..(s + 1) * in_dim];
        let ys = &mut y[s * out_dim..(s + 1) * out_dim];
        for (o, out) in ys.iter_mut().enumerate() {
            let row = &weights[o * in_dim..(o + 1) * in_dim];
            let mut acc = biases[o];
            for (w, v) in row.iter().zip(xs.iter()) {
                acc += w * v;
            }
            *out = act.apply(acc);
        }
    }
}

/// Weight/bias gradient GEMM: `gw[o][i] += Σ_s delta[s][o] · x[s][i]`
/// and `gb[o] += Σ_s delta[s][o]`.
///
/// Each gradient element is read, accumulated over samples in
/// ascending order, and written back — exactly the addition sequence
/// the scalar path produces when it walks one sample at a time, so
/// the bits match [`Mlp::backward`] looped over the batch. The
/// [`OUTPUT_TILE`] × [`INPUT_TILE`] tiling only widens the number of
/// concurrent accumulation chains.
fn grad_gemm(
    delta: &[f32],
    x: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    gw: &mut [f32],
    gb: &mut [f32],
) {
    debug_assert!(delta.len() >= n * out_dim, "delta holds n × out_dim deltas");
    debug_assert!(x.len() >= n * in_dim, "x holds n × in_dim inputs");
    debug_assert!(gw.len() >= out_dim * in_dim && gb.len() >= out_dim);
    // Bias gradients: per output, sample-ascending accumulation.
    for (o, g) in gb.iter_mut().enumerate() {
        let mut acc = *g;
        for s in 0..n {
            acc += delta[s * out_dim + o];
        }
        *g = acc;
    }
    let o_full = out_dim - out_dim % OUTPUT_TILE;
    let i_full = in_dim - in_dim % INPUT_TILE;
    for o in (0..o_full).step_by(OUTPUT_TILE) {
        for i in (0..i_full).step_by(INPUT_TILE) {
            let mut acc = [[0.0f32; INPUT_TILE]; OUTPUT_TILE];
            for (oi, row) in acc.iter_mut().enumerate() {
                let g = &gw[(o + oi) * in_dim + i..(o + oi) * in_dim + i + INPUT_TILE];
                row.copy_from_slice(g);
            }
            for s in 0..n {
                let ds = &delta[s * out_dim + o..s * out_dim + o + OUTPUT_TILE];
                let xs = &x[s * in_dim + i..s * in_dim + i + INPUT_TILE];
                for (row, &d) in acc.iter_mut().zip(ds.iter()) {
                    for (a, &v) in row.iter_mut().zip(xs.iter()) {
                        *a += d * v;
                    }
                }
            }
            for (oi, row) in acc.iter().enumerate() {
                let g = &mut gw[(o + oi) * in_dim + i..(o + oi) * in_dim + i + INPUT_TILE];
                g.copy_from_slice(row);
            }
        }
        // Input-feature tail.
        for i in i_full..in_dim {
            let mut acc = [0.0f32; OUTPUT_TILE];
            for (oi, a) in acc.iter_mut().enumerate() {
                *a = gw[(o + oi) * in_dim + i];
            }
            for s in 0..n {
                let xv = x[s * in_dim + i];
                let ds = &delta[s * out_dim + o..s * out_dim + o + OUTPUT_TILE];
                for (a, &d) in acc.iter_mut().zip(ds.iter()) {
                    *a += d * xv;
                }
            }
            for (oi, &a) in acc.iter().enumerate() {
                gw[(o + oi) * in_dim + i] = a;
            }
        }
    }
    // Output-feature tail: per element, sample-ascending.
    for o in o_full..out_dim {
        for i in 0..in_dim {
            let mut acc = gw[o * in_dim + i];
            for s in 0..n {
                acc += delta[s * out_dim + o] * x[s * in_dim + i];
            }
            gw[o * in_dim + i] = acc;
        }
    }
}

/// Input-gradient GEMM: `d_prev[s][i] = Σ_o delta[s][o] · w[o][i]`,
/// accumulating outputs in ascending order from zero per element —
/// the same sequence the scalar backward's `d_prev` loop produces.
fn dinput_gemm(
    delta: &[f32],
    weights: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    d_prev: &mut [f32],
) {
    debug_assert!(delta.len() >= n * out_dim, "delta holds n × out_dim deltas");
    debug_assert!(weights.len() >= out_dim * in_dim && d_prev.len() >= n * in_dim);
    let s_full = n - n % SAMPLE_TILE;
    let i_full = in_dim - in_dim % INPUT_TILE;
    for s in (0..s_full).step_by(SAMPLE_TILE) {
        for i in (0..i_full).step_by(INPUT_TILE) {
            let mut acc = [[0.0f32; INPUT_TILE]; SAMPLE_TILE];
            for o in 0..out_dim {
                let wr = &weights[o * in_dim + i..o * in_dim + i + INPUT_TILE];
                for (si, row) in acc.iter_mut().enumerate() {
                    let d = delta[(s + si) * out_dim + o];
                    for (a, &w) in row.iter_mut().zip(wr.iter()) {
                        *a += d * w;
                    }
                }
            }
            for (si, row) in acc.iter().enumerate() {
                let dp = &mut d_prev[(s + si) * in_dim + i..(s + si) * in_dim + i + INPUT_TILE];
                dp.copy_from_slice(row);
            }
        }
        // Input-feature tail.
        for i in i_full..in_dim {
            let mut acc = [0.0f32; SAMPLE_TILE];
            for o in 0..out_dim {
                let w = weights[o * in_dim + i];
                for (si, a) in acc.iter_mut().enumerate() {
                    *a += delta[(s + si) * out_dim + o] * w;
                }
            }
            for (si, &a) in acc.iter().enumerate() {
                d_prev[(s + si) * in_dim + i] = a;
            }
        }
    }
    // Sample tail: plain per-sample propagation.
    for s in s_full..n {
        let dp = &mut d_prev[s * in_dim..(s + 1) * in_dim];
        dp.fill(0.0);
        let ds = &delta[s * out_dim..(s + 1) * out_dim];
        for (o, &d) in ds.iter().enumerate() {
            let row = &weights[o * in_dim..(o + 1) * in_dim];
            for (a, &w) in dp.iter_mut().zip(row.iter()) {
                *a += d * w;
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
