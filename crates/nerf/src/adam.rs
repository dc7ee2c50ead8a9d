//! Adam optimizer operating on flat parameter vectors.

use std::ops::Range;

/// Hyper-parameters for [`Adam`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub epsilon: f32,
    /// L2 regularization applied to the parameters (decoupled weight
    /// decay; zero disables it).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    /// Instant-NGP's published settings (`lr = 1e-2`, `β₁ = 0.9`,
    /// `β₂ = 0.99`, `ε = 1e-15`), which suit hash-grid training.
    fn default() -> Self {
        AdamConfig {
            learning_rate: 1e-2,
            beta1: 0.9,
            beta2: 0.99,
            epsilon: 1e-15,
            weight_decay: 0.0,
        }
    }
}

/// Adam optimizer state for one flat parameter vector.
///
/// # Examples
///
/// ```
/// use fusion3d_nerf::adam::{Adam, AdamConfig};
///
/// let mut params = vec![1.0f32; 4];
/// let grads = vec![0.5f32; 4];
/// let mut opt = Adam::new(AdamConfig::default(), params.len());
/// opt.step(&mut params, &grads);
/// assert!(params.iter().all(|&p| p < 1.0), "gradient descent moved params down");
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates optimizer state for `param_count` parameters.
    pub fn new(config: AdamConfig, param_count: usize) -> Self {
        Adam { config, m: vec![0.0; param_count], v: vec![0.0; param_count], t: 0 }
    }

    /// The optimizer configuration.
    #[inline]
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Sets the learning rate (for schedules).
    #[inline]
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.config.learning_rate = lr;
    }

    /// Number of steps taken so far.
    #[inline]
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update. Entries whose gradient is exactly zero
    /// are skipped entirely (moments untouched) — the sparse-update
    /// rule Instant-NGP uses for hash tables, where a training batch
    /// touches only a small fraction of the entries.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length from the state.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.step_runs(params, grads, std::iter::once(0..params.len()));
    }

    /// [`Adam::step`] visiting only the entries in `runs` (ascending,
    /// disjoint index ranges). When every entry outside the runs has a
    /// zero gradient, the update is bit-identical to [`Adam::step`]:
    /// that one skips exactly those entries.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length from the state,
    /// or a run reaches past them.
    pub(crate) fn step_runs(
        &mut self,
        params: &mut [f32],
        grads: &[f32],
        runs: impl IntoIterator<Item = Range<usize>>,
    ) {
        assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        let (step, m, v) = self.begin_step();
        for Range { start, end } in runs {
            step.apply(
                &mut params[start..end],
                &grads[start..end],
                &mut m[start..end],
                &mut v[start..end],
            );
        }
    }

    /// Advances the step counter and returns the step's coefficients
    /// with the first and second moments, for a caller that updates
    /// disjoint ranges of the group separately (and, through
    /// [`AdamStep::apply`], exactly as [`Adam::step_runs`] would).
    pub(crate) fn begin_step(&mut self) -> (AdamStep, &mut [f32], &mut [f32]) {
        self.t += 1;
        let c = self.config;
        let bias1 = 1.0 - c.beta1.powi(self.t as i32);
        let bias2 = 1.0 - c.beta2.powi(self.t as i32);
        (AdamStep { config: c, bias1, bias2 }, &mut self.m, &mut self.v)
    }

    /// The first and second moment estimates.
    #[cfg(test)]
    pub(crate) fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// Resets all moment estimates and the step counter.
    pub fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }
}

/// The coefficients one Adam step shares across its parameter group:
/// the settings and the step's two bias corrections. Every entry
/// updates through [`AdamStep::apply`] with the same ones, so how the
/// group is split into ranges cannot change a bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    config: AdamConfig,
    bias1: f32,
    bias2: f32,
}

impl AdamStep {
    /// Updates one range of entries: `params`, their `grads` and their
    /// moments `m` and `v`, all of one length. An entry whose gradient
    /// is zero (either sign) keeps its parameter and moments.
    #[inline]
    pub(crate) fn apply(&self, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
        let AdamStep { config: c, bias1, bias2 } = *self;
        // Every entry computes its update, and a zero gradient selects
        // the old values back: the same skip as a branch, but the loop
        // vectorizes.
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            let keep = g == 0.0;
            let g = g + c.weight_decay * *p;
            let m_new = c.beta1 * *m + (1.0 - c.beta1) * g;
            let v_new = c.beta2 * *v + (1.0 - c.beta2) * g * g;
            let m_hat = m_new / bias1;
            let v_hat = v_new / bias2;
            let p_new = *p - c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
            *m = if keep { *m } else { m_new };
            *v = if keep { *v } else { v_new };
            *p = if keep { *p } else { p_new };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        // f(x) = (x - 3)^2, df/dx = 2(x - 3).
        let mut params = vec![0.0f32];
        let mut opt = Adam::new(AdamConfig { learning_rate: 0.1, ..AdamConfig::default() }, 1);
        for _ in 0..500 {
            let g = 2.0 * (params[0] - 3.0);
            opt.step(&mut params, &[g]);
        }
        assert!((params[0] - 3.0).abs() < 0.05, "converged to {}", params[0]);
    }

    #[test]
    fn zero_gradients_leave_params_untouched() {
        let mut params = vec![1.0f32, 2.0, 3.0];
        let mut opt = Adam::new(AdamConfig::default(), 3);
        opt.step(&mut params, &[0.0, 1.0, 0.0]);
        assert_eq!(params[0], 1.0);
        assert_ne!(params[1], 2.0);
        assert_eq!(params[2], 3.0);
    }

    #[test]
    fn sparse_skip_preserves_moments() {
        // A zero gradient must not decay the moments: a second update
        // with the same gradient should act as if the zero step never
        // happened for that entry.
        let cfg = AdamConfig { learning_rate: 0.01, ..AdamConfig::default() };
        let mut a = vec![1.0f32];
        let mut ob = Adam::new(cfg, 1);
        ob.step(&mut a, &[0.5]);
        ob.step(&mut a, &[0.0]); // skipped
        ob.step(&mut a, &[0.5]);

        let mut b = vec![1.0f32];
        let mut oc = Adam::new(cfg, 1);
        oc.step(&mut b, &[0.5]);
        oc.step(&mut b, &[0.5]);
        // The only difference is the step counter used for bias
        // correction, so results are close but the moment state paths
        // match; assert agreement within a small tolerance.
        assert!((a[0] - b[0]).abs() < 5e-3, "{} vs {}", a[0], b[0]);
    }

    #[test]
    fn run_walk_matches_the_dense_step_when_zeros_lie_outside() {
        let grads = [0.0, 0.3, -0.2, 0.0, 0.0, 0.7, 0.0, 1e-9, 0.0];
        let mut dense = vec![0.5f32; grads.len()];
        let mut sparse = dense.clone();
        let cfg = AdamConfig { weight_decay: 0.01, ..AdamConfig::default() };
        let (mut a, mut b) = (Adam::new(cfg, grads.len()), Adam::new(cfg, grads.len()));
        for _ in 0..3 {
            a.step(&mut dense, &grads);
            b.step_runs(&mut sparse, &grads, [1..3, 5..6, 7..8]);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dense), bits(&sparse));
        assert_eq!(bits(a.moments().0), bits(b.moments().0));
        assert_eq!(bits(a.moments().1), bits(b.moments().1));
        assert_eq!(a.step_count(), b.step_count());
    }

    /// The per-entry loop the step replaced, which branches past every
    /// zero gradient: the oracle for the branch-free step.
    fn branching_step(
        c: AdamConfig,
        t: u64,
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        let bias1 = 1.0 - c.beta1.powi(t as i32);
        let bias2 = 1.0 - c.beta2.powi(t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            if g == 0.0 {
                continue;
            }
            let g = g + c.weight_decay * params[i];
            m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g;
            v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g * g;
            let m_hat = m[i] / bias1;
            let v_hat = v[i] / bias2;
            params[i] -= c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
        }
    }

    #[test]
    fn branch_free_step_matches_the_branching_loop() {
        // Signed zeros must both skip, NaN must not, and a subnormal
        // is a gradient like any other. Long enough to vectorize.
        let specials = [0.0, -0.0, f32::NAN, f32::MIN_POSITIVE / 8.0];
        let grads: Vec<f32> = (0..37)
            .map(|i| specials.get(i % 6).copied().unwrap_or(0.3 * (i as f32).sin()))
            .collect();
        let cfg = AdamConfig { weight_decay: 0.01, ..AdamConfig::default() };
        let init: Vec<f32> = (0..grads.len()).map(|i| 0.1 * i as f32 - 1.0).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Every entry (in two adjacent runs), then runs with gaps.
        for runs in [vec![0..17, 17..grads.len()], vec![0..5, 9..30, 31..36]] {
            let (mut params, mut opt) = (init.clone(), Adam::new(cfg, grads.len()));
            let mut oracle = (init.clone(), vec![0.0f32; grads.len()], vec![0.0f32; grads.len()]);
            // Outside the runs the oracle sees zero gradients.
            let mut visible = vec![0.0f32; grads.len()];
            for run in &runs {
                visible[run.clone()].copy_from_slice(&grads[run.clone()]);
            }
            for t in 1..=3 {
                opt.step_runs(&mut params, &grads, runs.iter().cloned());
                let (p, m, v) = &mut oracle;
                branching_step(cfg, t, p, &visible, m, v);
                assert_eq!(bits(&params), bits(&oracle.0), "params, step {t}, runs {runs:?}");
                assert_eq!(bits(opt.moments().0), bits(&oracle.1), "m, step {t}");
                assert_eq!(bits(opt.moments().1), bits(&oracle.2), "v, step {t}");
            }
            assert!(params[2].is_nan() && params[0] == init[0] && params[1] == init[1]);
        }
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let cfg = AdamConfig { learning_rate: 0.05, weight_decay: 0.1, ..AdamConfig::default() };
        let mut params = vec![5.0f32];
        let mut opt = Adam::new(cfg, 1);
        for _ in 0..200 {
            // True gradient zero; only decay acts. Pass a tiny nonzero
            // gradient so the entry is not skipped.
            opt.step(&mut params, &[1e-12]);
        }
        assert!(params[0] < 5.0);
    }

    #[test]
    fn step_count_and_reset() {
        let mut opt = Adam::new(AdamConfig::default(), 2);
        let mut p = vec![1.0f32, 1.0];
        opt.step(&mut p, &[0.1, 0.1]);
        opt.step(&mut p, &[0.1, 0.1]);
        assert_eq!(opt.step_count(), 2);
        opt.reset();
        assert_eq!(opt.step_count(), 0);
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn rejects_mismatched_buffers() {
        let mut opt = Adam::new(AdamConfig::default(), 2);
        let mut p = vec![0.0f32; 3];
        opt.step(&mut p, &[0.0; 3]);
    }
}
