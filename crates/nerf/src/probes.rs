//! Hot-path probe counters (`obs` feature only).
//!
//! The batched kernels are the performance-critical core of the crate,
//! so their instrumentation follows two rules:
//!
//! 1. **Compile-out-able** — every increment sits behind the
//!    `crate::probe!` macro, which expands to nothing without the `obs`
//!    feature. The default build carries zero probe code; a regression
//!    test compiles both ways and the perf harness holds the default
//!    build to a 0% delta.
//! 2. **Once per batch** — probes count at batch/ray granularity
//!    (a handful of integer adds per `forward_batch` call), never
//!    inside per-sample or per-corner loops, keeping the probed build
//!    within 1% of the unprobed one.
//!
//! Counters accumulate in each worker's [`crate::batch::KernelScratch`]
//! and are surfaced by summing the scratches of one dispatch
//! ([`crate::pipeline::render_image_probed`]). Integer sums are exact
//! in any order, so recorded totals are independent of the thread
//! count.

/// Plain-integer hot-path counters carried by a worker's kernel
/// scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounters {
    /// Batched encoding invocations (one per model forward).
    pub encode_batches: u64,
    /// Points encoded across those batches: the samples evaluated.
    pub encode_points: u64,
    /// Samples Stage I retained for rendering. With early termination
    /// on, rendering evaluates at most this many (`encode_points`).
    pub samples_retained: u64,
    /// Point×level gather groups that hit *dense* levels (every corner
    /// lands in a contiguous per-level row — the local case).
    pub gathers_dense: u64,
    /// Point×level gather groups that hit *hashed* levels (corners
    /// scatter across the table — the conflict-prone case the paper's
    /// two-level tiling targets).
    pub gathers_hashed: u64,
    /// Batched MLP forward passes (density + color counted once).
    pub mlp_forward_batches: u64,
    /// Samples through the MLP forward path.
    pub mlp_forward_samples: u64,
    /// Batched backward passes (training).
    pub mlp_backward_batches: u64,
    /// Samples through the backward path.
    pub mlp_backward_samples: u64,
    /// Rays shaded end-to-end.
    pub rays: u64,
    /// Rays whose compositing saturated (final transmittance below the
    /// early-stop threshold) — the early-termination opportunity.
    pub rays_saturated: u64,
}

impl ProbeCounters {
    /// Counter-wise accumulation.
    pub fn add(&mut self, other: &ProbeCounters) {
        self.encode_batches += other.encode_batches;
        self.encode_points += other.encode_points;
        self.samples_retained += other.samples_retained;
        self.gathers_dense += other.gathers_dense;
        self.gathers_hashed += other.gathers_hashed;
        self.mlp_forward_batches += other.mlp_forward_batches;
        self.mlp_forward_samples += other.mlp_forward_samples;
        self.mlp_backward_batches += other.mlp_backward_batches;
        self.mlp_backward_samples += other.mlp_backward_samples;
        self.rays += other.rays;
        self.rays_saturated += other.rays_saturated;
    }

    /// Fraction of gather groups hitting hashed (scatter-prone)
    /// levels — the hash-grid gather-locality figure.
    pub fn hashed_gather_fraction(&self) -> f64 {
        let total = self.gathers_dense + self.gathers_hashed;
        if total == 0 {
            0.0
        } else {
            self.gathers_hashed as f64 / total as f64
        }
    }

    /// Record the counters under the `kernel.` prefix.
    pub fn record(&self, metrics: &mut fusion3d_obs::Metrics) {
        metrics.counter_add("kernel.encode.batches", "batches", self.encode_batches);
        metrics.counter_add("kernel.encode.points", "points", self.encode_points);
        metrics.counter_add("kernel.render.samples_retained", "samples", self.samples_retained);
        metrics.counter_add("kernel.gathers.dense", "groups", self.gathers_dense);
        metrics.counter_add("kernel.gathers.hashed", "groups", self.gathers_hashed);
        metrics.gauge_set("kernel.gathers.hashed_fraction", "ratio", self.hashed_gather_fraction());
        metrics.counter_add("kernel.mlp.forward_batches", "batches", self.mlp_forward_batches);
        metrics.counter_add("kernel.mlp.forward_samples", "samples", self.mlp_forward_samples);
        metrics.counter_add("kernel.mlp.backward_batches", "batches", self.mlp_backward_batches);
        metrics.counter_add("kernel.mlp.backward_samples", "samples", self.mlp_backward_samples);
        metrics.counter_add("kernel.rays", "rays", self.rays);
        metrics.counter_add("kernel.rays_saturated", "rays", self.rays_saturated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_counter_wise() {
        let a = ProbeCounters {
            encode_batches: 3,
            encode_points: 90,
            gathers_hashed: 40,
            ..ProbeCounters::default()
        };
        let b = ProbeCounters { encode_batches: 2, rays: 7, ..ProbeCounters::default() };
        let mut total = a;
        total.add(&b);
        assert_eq!(
            total,
            ProbeCounters {
                encode_batches: 5,
                encode_points: 90,
                gathers_hashed: 40,
                rays: 7,
                ..ProbeCounters::default()
            }
        );
        let before = total;
        total.add(&ProbeCounters::default());
        assert_eq!(total, before, "adding zero counters changes nothing");
    }

    #[test]
    fn hashed_fraction_handles_empty() {
        assert_eq!(ProbeCounters::default().hashed_gather_fraction(), 0.0);
        let c = ProbeCounters { gathers_dense: 1, gathers_hashed: 3, ..ProbeCounters::default() };
        assert_eq!(c.hashed_gather_fraction(), 0.75);
    }
}
