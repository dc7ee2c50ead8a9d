//! Planning an instant-training run on the chip — the timeline behind
//! the "≤ 2 seconds to 25 PSNR" headline.
//!
//! A training run is more than back-to-back optimizer steps: the
//! occupancy grid refreshes periodically (a density sweep over the
//! grid through the inference datapath), the training images stream in
//! up front, and the finished parameters stream out. The planner lays
//! these phases on the chip's cycle budget and reports whether the
//! whole run fits a wall-clock target at the configured clock.

use crate::chip::FusionChip;
use fusion3d_nerf::pipeline::FrameTrace;

/// A training recipe: how much work reaches the chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingRecipe {
    /// Optimizer iterations.
    pub iterations: u32,
    /// Occupancy-grid refresh interval in iterations.
    pub occupancy_interval: u32,
    /// Occupancy-grid cells (each refreshed cell costs one density
    /// query through the inference pipeline).
    pub occupancy_cells: u64,
    /// Training-image bytes streamed in before the run.
    pub input_bytes: u64,
    /// Parameter bytes streamed out after the run.
    pub output_bytes: u64,
    /// Off-chip bandwidth in bytes per second.
    pub offchip_bytes_per_sec: f64,
}

impl TrainingRecipe {
    /// The paper-scale recipe: 2000 iterations with refreshes every 16,
    /// a 64³ occupancy grid, 100 training views at 800×800 RGB f32 in,
    /// and an f16 model container out, over the 0.6 GB/s interface.
    pub fn paper_scale() -> Self {
        TrainingRecipe {
            iterations: 2000,
            occupancy_interval: 16,
            occupancy_cells: 64 * 64 * 64,
            input_bytes: 100 * 800 * 800 * 12,
            output_bytes: 2 * 1024 * 1024,
            offchip_bytes_per_sec: 0.6e9,
        }
    }
}

/// The planned timeline of one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingPlan {
    /// Seconds streaming the inputs in (overlapped with nothing — the
    /// conservative bound).
    pub input_seconds: f64,
    /// Seconds in optimizer steps.
    pub step_seconds: f64,
    /// Seconds in occupancy refreshes.
    pub occupancy_seconds: f64,
    /// Seconds streaming the trained parameters out.
    pub output_seconds: f64,
    /// Samples processed across all steps.
    pub total_samples: u64,
}

impl TrainingPlan {
    /// End-to-end wall-clock seconds with every phase serialized (the
    /// conservative bound).
    pub fn total_seconds(&self) -> f64 {
        self.input_seconds + self.step_seconds + self.occupancy_seconds + self.output_seconds
    }

    /// End-to-end seconds with input streaming overlapped against the
    /// compute phases: early iterations train on views that have
    /// already arrived while the rest stream in, so the run is bound
    /// by whichever of the two is longer. This is the paper's
    /// operating mode — its Fig. 3 budget streams ~700 MB *during*
    /// the 2-second run.
    pub fn overlapped_seconds(&self) -> f64 {
        self.input_seconds.max(self.step_seconds + self.occupancy_seconds) + self.output_seconds
    }

    /// Whether the overlapped run fits a wall-clock budget.
    pub fn fits(&self, budget_seconds: f64) -> bool {
        self.overlapped_seconds() <= budget_seconds
    }
}

/// Plans a training run: `batch_trace` is the Stage-I workload of one
/// representative optimizer step (one ray batch).
///
/// # Panics
///
/// Panics if the recipe's bandwidth is not positive or the interval is
/// zero.
pub fn plan_training(
    chip: &FusionChip,
    batch_trace: &FrameTrace,
    recipe: &TrainingRecipe,
) -> TrainingPlan {
    assert!(recipe.offchip_bytes_per_sec > 0.0, "bandwidth must be positive");
    assert!(recipe.occupancy_interval > 0, "refresh interval must be positive");
    let step = chip.simulate_training_step(batch_trace);
    let refreshes = (recipe.iterations / recipe.occupancy_interval) as f64;
    // A refresh evaluates density for each cell: one point through the
    // inference pipeline per cell, at the chip's peak inference rate.
    let refresh_seconds = recipe.occupancy_cells as f64 / chip.peak_inference_points_per_second();
    TrainingPlan {
        input_seconds: recipe.input_bytes as f64 / recipe.offchip_bytes_per_sec,
        step_seconds: step.seconds * recipe.iterations as f64,
        occupancy_seconds: refresh_seconds * refreshes,
        output_seconds: recipe.output_bytes as f64 / recipe.offchip_bytes_per_sec,
        total_samples: step.points * recipe.iterations as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_nerf::sampler::PairJob;

    /// A paper-scale optimizer batch: ~2^18 samples over ~15k rays
    /// (matching 199 M pts/s × 2 s / 2000 iterations).
    fn paper_batch() -> FrameTrace {
        let samples_per_ray = 13u16;
        let jobs = [
            PairJob {
                samples: samples_per_ray - 4,
                steps: samples_per_ray + 2,
                lattice_steps: 120,
            },
            PairJob { samples: 4, steps: 8, lattice_steps: 60 },
        ];
        let mut trace = FrameTrace::default();
        for _ in 0..15_000 {
            trace.push_ray(2, &jobs);
        }
        trace
    }

    #[test]
    fn paper_scale_run_is_instant() {
        let chip = FusionChip::scaled_up();
        let plan = plan_training(&chip, &paper_batch(), &TrainingRecipe::paper_scale());
        // ~390 M samples total, within the instant-training budget.
        assert!(plan.total_samples > 300_000_000, "{}", plan.total_samples);
        assert!(
            plan.fits(2.3),
            "plan takes {:.2} s overlapped (steps {:.2}, occ {:.2}, io {:.2})",
            plan.overlapped_seconds(),
            plan.step_seconds,
            plan.occupancy_seconds,
            plan.input_seconds + plan.output_seconds
        );
        // The serialized bound adds the full input stream.
        assert!(plan.total_seconds() > plan.overlapped_seconds());
        // Optimizer steps dominate; bookkeeping phases are small.
        assert!(plan.step_seconds > plan.occupancy_seconds);
        assert!(plan.step_seconds > plan.input_seconds + plan.output_seconds);
    }

    #[test]
    fn prototype_is_roughly_twice_as_slow() {
        let scaled =
            plan_training(&FusionChip::scaled_up(), &paper_batch(), &TrainingRecipe::paper_scale());
        let proto =
            plan_training(&FusionChip::prototype(), &paper_batch(), &TrainingRecipe::paper_scale());
        let ratio = proto.step_seconds / scaled.step_seconds;
        assert!((1.6..=2.4).contains(&ratio), "prototype/scaled step ratio {ratio}");
        // The prototype's measured 1.8 s to 25 PSNR corresponds to a
        // smaller sample budget; at the full paper budget it lands in
        // the 3-5 s band.
        assert!(
            (2.0..=6.0).contains(&proto.overlapped_seconds()),
            "{}",
            proto.overlapped_seconds()
        );
    }

    #[test]
    fn starved_interface_blows_the_budget() {
        let chip = FusionChip::scaled_up();
        let recipe = TrainingRecipe {
            offchip_bytes_per_sec: 10e6, // a 10 MB/s link
            ..TrainingRecipe::paper_scale()
        };
        let plan = plan_training(&chip, &paper_batch(), &recipe);
        assert!(!plan.fits(2.0), "starved link should miss the budget");
        // Even overlapped, the link dominates.
        assert!(plan.input_seconds > plan.step_seconds);
        assert!(plan.overlapped_seconds() > 10.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let chip = FusionChip::prototype();
        let recipe = TrainingRecipe { offchip_bytes_per_sec: 0.0, ..TrainingRecipe::paper_scale() };
        plan_training(&chip, &paper_batch(), &recipe);
    }
}
