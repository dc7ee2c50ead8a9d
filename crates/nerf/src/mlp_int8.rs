//! Bit-accurate INT8 inference for the tiny MLPs — the integer half of
//! the accelerator's mixed-precision datapath (Technique T2-2).
//!
//! Training stays in floating point (Table II), but a *trained* MLP
//! can run inference in INT8: weights are quantized per layer with a
//! symmetric scale, activations are quantized dynamically per layer,
//! and products accumulate in `i32` exactly as an integer MAC array
//! would. [`QuantizedMlp::forward`] reproduces the arithmetic the
//! chip's MLP engine performs, so quality comparisons against the
//! float path measure the real deployment error.

use crate::mlp::{Activation, Mlp};

/// Widest layer for which the `i8 × i8 → i32` MAC accumulation is
/// provably exact. `fusion3d-lint`'s A4 audit re-derives the claim on
/// every run: `MAX_EXACT_MAC_WIDTH * 127 * 128 ≤ i32::MAX` (the worst
/// per-term magnitude is `|-128| · 127` — activations are clamped to
/// the symmetric code range but `i8` weights could in principle reach
/// `-128`). The accelerator's layers are 22–64 wide; 2^16 leaves four
/// orders of headroom while keeping the proof airtight.
pub const MAX_EXACT_MAC_WIDTH: usize = 1 << 16;

/// One INT8-quantized linear layer.
#[derive(Debug, Clone)]
struct QuantizedLayer {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out × in` INT8 weights.
    weights: Vec<i8>,
    /// Dequantization scale of the weights.
    weight_scale: f32,
    /// Biases stay in f32 (added after dequantization, as in the
    /// chip's accumulator path).
    biases: Vec<f32>,
    activation: Activation,
}

/// An MLP with INT8 weights and an integer MAC forward path.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedLayer>,
    input_dim: usize,
}

impl QuantizedMlp {
    /// Quantizes a trained float MLP, layer by layer.
    pub fn quantize(mlp: &Mlp) -> Self {
        let dims = mlp.dims();
        let layers = (0..mlp.layer_count())
            .map(|l| {
                let (w, b) = mlp.layer_params(l);
                let max = w.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                // Symmetric quantization: scale by `max/127` and clamp
                // to ±127, deliberately wasting the `-128` code so the
                // representable range is sign-symmetric. An asymmetric
                // scheme would buy 0.4 % extra range on one side at
                // the price of a zero-point term in every MAC; the
                // chip's MAC array (and the A4 width audit above)
                // assume the symmetric form.
                let weight_scale = if max == 0.0 { 1.0 } else { max / 127.0 };
                QuantizedLayer {
                    in_dim: dims[l],
                    out_dim: dims[l + 1],
                    weights: w
                        .iter()
                        .map(|v| (v / weight_scale).round().clamp(-127.0, 127.0) as i8)
                        .collect(),
                    weight_scale,
                    biases: b.to_vec(),
                    activation: mlp.layer_activation(l),
                }
            })
            .collect();
        QuantizedMlp { layers, input_dim: mlp.input_dim() }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(self.input_dim, |l| l.out_dim)
    }

    /// Total INT8 weight bytes (the engine's weight-store footprint —
    /// a quarter of the float model's).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len()).sum()
    }

    /// Runs inference through the integer MAC path.
    ///
    /// Per layer: activations quantize to INT8 with a dynamic
    /// symmetric scale, the `i8 × i8` products accumulate in `i32`,
    /// and the accumulator dequantizes through the product of the two
    /// scales before bias and activation. The accumulation is exact:
    /// `fusion3d-lint`'s A2 interval analysis proves from the
    /// [`MAX_EXACT_MAC_WIDTH`] preconditions below that `acc` stays
    /// inside `i32` — deleting either `debug_assert!` makes the lint
    /// gate fail.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.input_dim, "input size mismatch");
        let mut x = input.to_vec();
        for layer in &self.layers {
            debug_assert!(
                layer.in_dim <= MAX_EXACT_MAC_WIDTH && layer.out_dim <= MAX_EXACT_MAC_WIDTH,
                "layer wider than the proven-exact i32 MAC bound"
            );
            // Dynamic activation quantization.
            let max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let x_scale = if max == 0.0 { 1.0 } else { max / 127.0 };
            let xq: Vec<i8> =
                x.iter().map(|v| (v / x_scale).round().clamp(-127.0, 127.0) as i8).collect();
            let dequant = layer.weight_scale * x_scale;
            let mut y = Vec::with_capacity(layer.out_dim);
            for o in 0..layer.out_dim {
                let row = &layer.weights[o * layer.in_dim..(o + 1) * layer.in_dim];
                let mut acc: i32 = 0;
                for i in 0..layer.in_dim {
                    acc += row[i] as i32 * xq[i] as i32;
                }
                let val = acc as f32 * dequant + layer.biases[o];
                y.push(layer.activation.apply(val));
            }
            x = y;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpCache;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn trained_like_mlp(seed: u64) -> Mlp {
        // A randomly-initialized MLP stands in for a trained one: the
        // quantization error bound depends only on weight/activation
        // magnitudes.
        let mut rng = SmallRng::seed_from_u64(seed);
        Mlp::new(&[22, 32, 32, 3], Activation::Relu, Activation::Sigmoid, &mut rng)
    }

    #[test]
    fn quantized_forward_tracks_float_forward() {
        let mlp = trained_like_mlp(1);
        let q = QuantizedMlp::quantize(&mlp);
        assert_eq!(q.input_dim(), 22);
        assert_eq!(q.output_dim(), 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut cache = MlpCache::new();
        let mut worst = 0.0f32;
        for _ in 0..64 {
            let input: Vec<f32> = (0..22).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let float_out = mlp.forward(&input, &mut cache).to_vec();
            let q_out = q.forward(&input);
            for (a, b) in float_out.iter().zip(&q_out) {
                worst = worst.max((a - b).abs());
            }
        }
        // Sigmoid outputs in [0,1]: INT8 keeps them within ~2%.
        assert!(worst < 0.02, "worst-case deviation {worst}");
    }

    #[test]
    fn weight_store_shrinks_4x() {
        let mlp = trained_like_mlp(3);
        let q = QuantizedMlp::quantize(&mlp);
        let float_weight_bytes: usize =
            (0..mlp.layer_count()).map(|l| mlp.layer_params(l).0.len() * 4).sum();
        assert_eq!(q.weight_bytes() * 4, float_weight_bytes);
    }

    #[test]
    fn zero_input_is_exact() {
        let mlp = trained_like_mlp(4);
        let q = QuantizedMlp::quantize(&mlp);
        let mut cache = MlpCache::new();
        let zeros = vec![0.0f32; 22];
        let float_out = mlp.forward(&zeros, &mut cache).to_vec();
        let q_out = q.forward(&zeros);
        // With zero input only biases flow; both paths agree to float
        // rounding.
        for (a, b) in float_out.iter().zip(&q_out) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn symmetric_quantization_pins_code_range() {
        // The quantizer clamps to ±127 — the `-128` code is
        // deliberately unrepresentable so the range is sign-symmetric
        // (no zero-point term in the MAC). Feed weights that would
        // saturate both rails and check no code escapes [-127, 127].
        let mlp = trained_like_mlp(6);
        let q = QuantizedMlp::quantize(&mlp);
        let codes: Vec<i8> = q.layers.iter().flat_map(|l| l.weights.iter().copied()).collect();
        assert!(!codes.is_empty());
        assert!(codes.iter().all(|&c| (-127..=127).contains(&c)), "asymmetric code emitted");
        // The extremal magnitude weight maps to exactly ±127.
        assert!(codes.iter().any(|&c| c == 127 || c == -127));
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn rejects_wrong_input() {
        let q = QuantizedMlp::quantize(&trained_like_mlp(5));
        q.forward(&[1.0]);
    }
}
