//! Stage III: volumetric rendering (compositing) with forward and
//! backward passes.
//!
//! The renderer integrates per-sample densities and colors along a ray
//! using the standard NeRF quadrature:
//!
//! ```text
//! α_i = 1 − exp(−σ_i · δt_i)
//! T_i = Π_{j<i} (1 − α_j)
//! C   = Σ_i T_i · α_i · c_i + T_N · background
//! ```
//!
//! The backward pass distributes a pixel-color gradient onto every
//! sample's density and color — the inverse dataflow that, together
//! with Stage II's gather/scatter pair, motivates the accelerator's
//! shared reconfigurable pipeline (Technique T2-1).

use crate::math::Vec3;

/// Maximum value of `σ · δt` per sample; caps `α` below 1 so the
/// backward pass stays finite.
const MAX_SIGMA_DT: f32 = 15.0;

/// Density and color of one sample point, ready for compositing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadedSample {
    /// Volume density `σ ≥ 0`.
    pub sigma: f32,
    /// RGB radiance in `[0, 1]`.
    pub color: Vec3,
    /// Integration interval `δt`.
    pub dt: f32,
}

/// The output of compositing one ray.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeOutput {
    /// Final pixel color (including the background contribution).
    pub color: Vec3,
    /// Transmittance remaining after the last sample (the background
    /// weight).
    pub final_transmittance: f32,
    /// Per-sample blend weight `w_i = T_i · α_i`.
    pub weights: Vec<f32>,
}

/// Gradient of the loss with respect to one sample, produced by
/// [`composite_backward`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleGrad {
    /// `∂L/∂σ_i`.
    pub d_sigma: f32,
    /// `∂L/∂c_i`.
    pub d_color: Vec3,
}

/// Transmittance below which early ray termination skips every later
/// sample.
const EARLY_STOP_TRANSMITTANCE: f32 = 1e-4;

/// Front-to-back compositing state of one ray: the color blended so
/// far and the transmittance left. [`composite_into`] and the render
/// pipeline's row wavefront both advance it one sample at a time
/// through [`CompositeState::step`], so they share one order of
/// operations and agree bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompositeState {
    pub(crate) color: Vec3,
    pub(crate) transmittance: f32,
}

impl CompositeState {
    /// The state before the first sample.
    pub(crate) const START: CompositeState =
        CompositeState { color: Vec3::ZERO, transmittance: 1.0 };

    /// Whether early ray termination skips every later sample.
    #[inline]
    pub(crate) fn saturated(&self) -> bool {
        self.transmittance < EARLY_STOP_TRANSMITTANCE
    }

    /// Blends one sample behind everything composited so far and
    /// returns its weight `w = T · α`.
    #[inline]
    pub(crate) fn step(&mut self, s: &ShadedSample) -> f32 {
        let alpha = 1.0 - (-(s.sigma * s.dt).min(MAX_SIGMA_DT)).exp();
        let w = self.transmittance * alpha;
        self.color += s.color * w;
        self.transmittance *= 1.0 - alpha;
        w
    }

    /// The pixel color with `background` behind the last sample.
    #[inline]
    pub(crate) fn pixel(&self, background: Vec3) -> Vec3 {
        self.color + background * self.transmittance
    }
}

/// Composites samples front to back.
///
/// `early_stop` enables inference-mode early ray termination: once the
/// transmittance falls below `1e-4` the remaining samples are skipped
/// (their weights are zero). Training must pass `false` so that the
/// forward pass matches the backward pass exactly.
pub fn composite(samples: &[ShadedSample], background: Vec3, early_stop: bool) -> CompositeOutput {
    let mut weights = Vec::new();
    let (color, final_transmittance) =
        composite_into(samples, background, early_stop, &mut weights);
    CompositeOutput { color, final_transmittance, weights }
}

/// [`composite`] writing the per-sample weights into a caller-owned
/// buffer, so the render and training hot loops can reuse one `Vec`
/// per worker instead of allocating per ray. `weights` is cleared and
/// resized to `samples.len()`; returns the pixel color and the final
/// transmittance. Bitwise-identical to [`composite`].
pub fn composite_into(
    samples: &[ShadedSample],
    background: Vec3,
    early_stop: bool,
    weights: &mut Vec<f32>,
) -> (Vec3, f32) {
    let mut state = CompositeState::START;
    weights.clear();
    weights.resize(samples.len(), 0.0);
    for (s, w_out) in samples.iter().zip(weights.iter_mut()) {
        if early_stop && state.saturated() {
            break;
        }
        *w_out = state.step(s);
    }
    (state.pixel(background), state.transmittance)
}

/// Backward pass of [`composite`]: given `d_color = ∂L/∂C`, returns
/// `∂L/∂σ_i` and `∂L/∂c_i` for every sample.
///
/// Uses the suffix-sum identity
/// `∂C/∂σ_i = δt_i · (T_{i+1} · c_i − S_i)` where
/// `S_i = Σ_{j>i} w_j c_j + T_N · background`, avoiding any division.
pub fn composite_backward(
    samples: &[ShadedSample],
    background: Vec3,
    d_color: Vec3,
) -> Vec<SampleGrad> {
    let mut grads = Vec::with_capacity(samples.len());
    composite_backward_into(samples, background, d_color, &mut grads);
    grads
}

/// [`composite_backward`] writing into a caller-owned buffer, so the
/// training hot loop can reuse one `Vec` per worker instead of
/// allocating per ray. `grads` is cleared first; no other temporary
/// buffers are allocated.
pub fn composite_backward_into(
    samples: &[ShadedSample],
    background: Vec3,
    d_color: Vec3,
    grads: &mut Vec<SampleGrad>,
) {
    grads.clear();
    // Forward quantities (no early stop: must mirror training forward).
    // Each entry temporarily stashes what the reverse sweep needs —
    // `T_i` in `d_sigma` and `α_i` in `d_color.x` — so the pass needs
    // no side buffers for the transmittance prefix.
    let mut transmittance = 1.0f32;
    for s in samples {
        let alpha = 1.0 - (-(s.sigma * s.dt).min(MAX_SIGMA_DT)).exp();
        // lint: allow(h2): amortized — the caller-owned vec is cleared,
        // not dropped, so capacity is retained across rays
        grads.push(SampleGrad { d_sigma: transmittance, d_color: Vec3::new(alpha, 0.0, 0.0) });
        transmittance *= 1.0 - alpha;
    }
    let t_final = transmittance;
    debug_assert_eq!(grads.len(), samples.len(), "one stash entry per sample");

    // Backward sweep with the suffix sum S, replacing each stash with
    // the real gradient. `t_next` carries `T_{i+1}` (the stash of
    // entry `i + 1`, or `T_N` for the last sample).
    let mut suffix = background * t_final;
    let mut t_next = t_final;
    for i in (0..samples.len()).rev() {
        let t_i = grads[i].d_sigma;
        let alpha = grads[i].d_color.x;
        let w = t_i * alpha;
        let s = &samples[i];
        // ∂C/∂σ_i = δt_i (T_{i+1} c_i − S_i).
        let dc_dsigma = s.color * (t_next * s.dt) - suffix * s.dt;
        grads[i] = SampleGrad { d_sigma: d_color.dot(dc_dsigma), d_color: d_color * w };
        suffix += s.color * w;
        t_next = t_i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sigma: f32, color: Vec3, dt: f32) -> ShadedSample {
        ShadedSample { sigma, color, dt }
    }

    #[test]
    fn empty_ray_returns_background() {
        let out = composite(&[], Vec3::new(0.2, 0.4, 0.6), false);
        assert_eq!(out.color, Vec3::new(0.2, 0.4, 0.6));
        assert_eq!(out.final_transmittance, 1.0);
        assert!(out.weights.is_empty());
    }

    #[test]
    fn opaque_sample_dominates() {
        let samples = [
            sample(1000.0, Vec3::new(1.0, 0.0, 0.0), 0.1),
            sample(1000.0, Vec3::new(0.0, 1.0, 0.0), 0.1),
        ];
        let out = composite(&samples, Vec3::ONE, false);
        // First sample is effectively opaque: pixel is red.
        assert!(out.color.x > 0.999);
        assert!(out.color.y < 1e-3);
        assert!(out.final_transmittance < 1e-6);
        assert!(out.weights[0] > 0.999);
        assert!(out.weights[1] < 1e-3);
    }

    #[test]
    fn zero_density_is_transparent() {
        let samples = [sample(0.0, Vec3::X, 0.5); 4];
        let out = composite(&samples, Vec3::new(0.0, 0.0, 1.0), false);
        assert_eq!(out.color, Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(out.final_transmittance, 1.0);
        assert!(out.weights.iter().all(|&w| w == 0.0));
    }

    #[test]
    fn weights_plus_final_transmittance_sum_to_one() {
        let samples =
            [sample(2.0, Vec3::X, 0.3), sample(1.0, Vec3::Y, 0.2), sample(4.0, Vec3::Z, 0.1)];
        let out = composite(&samples, Vec3::ZERO, false);
        let total: f32 = out.weights.iter().sum::<f32>() + out.final_transmittance;
        assert!((total - 1.0).abs() < 1e-6, "partition of unity: {total}");
    }

    #[test]
    fn early_stop_skips_occluded_samples() {
        let mut samples = vec![sample(1000.0, Vec3::X, 0.1)];
        samples.extend(std::iter::repeat_n(sample(1.0, Vec3::Y, 0.1), 10));
        let eager = composite(&samples, Vec3::ZERO, true);
        let exact = composite(&samples, Vec3::ZERO, false);
        assert!((eager.color - exact.color).length() < 1e-4);
        // Early-stopped weights for the tail are exactly zero.
        assert!(eager.weights[5..].iter().all(|&w| w == 0.0));
    }

    #[test]
    fn alpha_saturation_is_clamped() {
        // Enormous sigma*dt must not produce NaN/inf.
        let samples = [sample(1e30, Vec3::X, 1e10)];
        let out = composite(&samples, Vec3::ZERO, false);
        assert!(out.color.is_finite());
        let grads = composite_backward(&samples, Vec3::ZERO, Vec3::ONE);
        assert!(grads[0].d_sigma.is_finite());
        assert!(grads[0].d_color.is_finite());
    }

    #[test]
    fn backward_color_gradient_equals_weight() {
        let samples = [
            sample(1.5, Vec3::new(0.2, 0.3, 0.4), 0.2),
            sample(0.7, Vec3::new(0.9, 0.1, 0.5), 0.3),
        ];
        let out = composite(&samples, Vec3::splat(0.5), false);
        let grads = composite_backward(&samples, Vec3::splat(0.5), Vec3::new(1.0, 0.0, 0.0));
        for (g, &w) in grads.iter().zip(&out.weights) {
            // dC_r/dc_i = w_i on the red channel, 0 elsewhere.
            assert!((g.d_color.x - w).abs() < 1e-6);
            assert_eq!(g.d_color.y, 0.0);
            assert_eq!(g.d_color.z, 0.0);
        }
    }

    #[test]
    fn backward_sigma_matches_finite_differences() {
        let base = vec![
            sample(1.2, Vec3::new(0.8, 0.2, 0.1), 0.25),
            sample(0.4, Vec3::new(0.1, 0.9, 0.3), 0.15),
            sample(2.5, Vec3::new(0.3, 0.3, 0.9), 0.30),
            sample(0.0, Vec3::new(0.5, 0.5, 0.5), 0.20),
        ];
        let bg = Vec3::new(0.2, 0.1, 0.0);
        // Scalar loss: dot(C, v) for an arbitrary direction v.
        let v = Vec3::new(0.7, -0.3, 1.1);
        let loss = |samples: &[ShadedSample]| composite(samples, bg, false).color.dot(v);
        let grads = composite_backward(&base, bg, v);
        let h = 1e-3;
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i].sigma += h;
            let mut minus = base.clone();
            minus[i].sigma -= h;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * h);
            assert!(
                (fd - grads[i].d_sigma).abs() < 1e-3 * (1.0 + fd.abs()),
                "sample {i}: fd {fd} vs analytic {}",
                grads[i].d_sigma
            );
        }
    }

    #[test]
    fn backward_includes_background_interaction() {
        // Raising sigma of the only sample reduces the background
        // contribution: with a bright background and dark sample the
        // sigma gradient of dot(C, 1) must be negative.
        let samples = [sample(1.0, Vec3::ZERO, 0.5)];
        let grads = composite_backward(&samples, Vec3::ONE, Vec3::ONE);
        assert!(grads[0].d_sigma < 0.0);
        // And positive with a dark background and bright sample.
        let grads = composite_backward(&[sample(1.0, Vec3::ONE, 0.5)], Vec3::ZERO, Vec3::ONE);
        assert!(grads[0].d_sigma > 0.0);
    }
}
