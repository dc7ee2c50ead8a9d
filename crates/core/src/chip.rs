//! The assembled single-chip accelerator: all three stage models
//! composed into an end-to-end pipeline, with frame-level and
//! training-step simulation.
//!
//! Because the three stages run as a pipeline over shared memory
//! clusters (ping-pong buffered), steady-state frame time is set by
//! the slowest stage; the simulator reports per-stage cycles, the
//! bottleneck, throughput, and energy.

use crate::config::ChipConfig;
use crate::energy::EnergyModel;
use crate::interp::{InterpModuleConfig, PipelineMode};
use crate::postproc::PostProcConfig;
use crate::sampling::{simulate_sampling, SamplingModuleConfig};
use fusion3d_nerf::pipeline::FrameTrace;

/// Which pipeline stage bounds performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage I — sampling.
    Sampling,
    /// Stage II — feature interpolation.
    Interpolation,
    /// Stage III — post-processing.
    PostProcessing,
}

/// Per-stage cycle counts for one frame or training batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCycles {
    /// Stage I cycles.
    pub sampling: u64,
    /// Stage II cycles.
    pub interpolation: u64,
    /// Stage III cycles.
    pub post_processing: u64,
}

impl StageCycles {
    /// The pipelined makespan: the slowest stage.
    pub fn pipelined(&self) -> u64 {
        self.sampling.max(self.interpolation).max(self.post_processing)
    }

    /// The stage that bounds the pipeline.
    pub fn bottleneck(&self) -> Stage {
        if self.sampling >= self.interpolation && self.sampling >= self.post_processing {
            Stage::Sampling
        } else if self.interpolation >= self.post_processing {
            Stage::Interpolation
        } else {
            Stage::PostProcessing
        }
    }
}

/// A simulated frame or training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Per-stage cycles.
    pub stages: StageCycles,
    /// Total pipelined cycles.
    pub cycles: u64,
    /// Sample points processed.
    pub points: u64,
    /// Rays processed.
    pub rays: u64,
    /// Wall-clock seconds at the chip's nominal frequency.
    pub seconds: f64,
    /// Energy in joules at the nominal operating point.
    pub energy_j: f64,
}

impl SimReport {
    /// Sustained throughput in sampled points per second.
    pub fn points_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.points as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// The assembled Fusion-3D single-chip accelerator.
#[derive(Debug, Clone)]
pub struct FusionChip {
    config: ChipConfig,
    sampling: SamplingModuleConfig,
    interp: InterpModuleConfig,
    postproc: PostProcConfig,
    energy: EnergyModel,
}

impl FusionChip {
    /// Assembles a chip from a hardware configuration, using the
    /// Fusion-3D module settings throughout.
    pub fn new(config: ChipConfig) -> Self {
        let sampling = SamplingModuleConfig {
            cores: config.sampling_cores,
            ..SamplingModuleConfig::fusion3d()
        };
        let interp = InterpModuleConfig::fusion3d(config.interp_cores, config.model_levels);
        // Stage III sized to match Stage II's point rate: the MAC
        // array retires one paper-scale point per interp point slot.
        let postproc = PostProcConfig::fusion3d(5312);
        FusionChip { energy: EnergyModel::new(config), config, sampling, interp, postproc }
    }

    /// The taped-out prototype chip.
    pub fn prototype() -> Self {
        FusionChip::new(ChipConfig::prototype())
    }

    /// The scaled-up chip used in the Table III comparison.
    pub fn scaled_up() -> Self {
        FusionChip::new(ChipConfig::scaled_up())
    }

    /// Returns the chip with its Stage-II mean gather latency set to
    /// `cycles` (clamped to at least 1.0) — how a chip *without* the
    /// two-level hash tiling behaves, with bank conflicts stretching
    /// every eight-corner fetch. Used by the multi-chip Technique T4
    /// ablation.
    pub fn with_mean_gather_cycles(mut self, cycles: f64) -> Self {
        self.interp.mean_gather_cycles = cycles.max(1.0);
        self
    }

    /// The Stage-II mean gather latency currently configured.
    pub fn mean_gather_cycles(&self) -> f64 {
        self.interp.mean_gather_cycles
    }

    /// The chip's hardware configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The sampling-module configuration.
    pub fn sampling_config(&self) -> &SamplingModuleConfig {
        &self.sampling
    }

    /// The energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Peak inference throughput in points per second (Stage II/III
    /// bound, perfect Stage I feed).
    pub fn peak_inference_points_per_second(&self) -> f64 {
        let ppc = self
            .interp
            .points_per_cycle(PipelineMode::Inference)
            .min(self.postproc.points_per_cycle_inference());
        ppc * self.config.cycles_per_second()
    }

    /// Peak training throughput in points per second.
    pub fn peak_training_points_per_second(&self) -> f64 {
        let ppc = self
            .interp
            .points_per_cycle(PipelineMode::Training)
            .min(self.postproc.points_per_cycle_training());
        ppc * self.config.cycles_per_second()
    }

    /// Energy per point at peak inference throughput, in nanojoules.
    pub fn inference_energy_per_point_nj(&self) -> f64 {
        self.energy.energy_per_point_nj(self.peak_inference_points_per_second())
    }

    /// Energy per point at peak training throughput, in nanojoules.
    pub fn training_energy_per_point_nj(&self) -> f64 {
        self.energy.energy_per_point_nj(self.peak_training_points_per_second())
    }

    fn report(&self, stages: StageCycles, points: u64, rays: u64) -> SimReport {
        let cycles = stages.pipelined();
        SimReport {
            stages,
            cycles,
            points,
            rays,
            seconds: cycles as f64 / self.config.cycles_per_second(),
            energy_j: self.energy.energy_for_cycles_j(cycles),
        }
    }

    /// The analytic report of a frame (or, with `training`, a training
    /// step) over `trace`, whose Stage I took `sampling_cycles`.
    pub(crate) fn stage_report(
        &self,
        trace: &FrameTrace,
        sampling_cycles: u64,
        training: bool,
    ) -> SimReport {
        let (points, rays) = (trace.total_samples, trace.ray_count() as u64);
        let (mode, post_processing) = if training {
            (PipelineMode::Training, self.postproc.training_cycles(points, rays))
        } else {
            (PipelineMode::Inference, self.postproc.frame_cycles(points, rays))
        };
        let stages = StageCycles {
            sampling: sampling_cycles,
            interpolation: self.interp.cycles_for_points(points, rays, mode),
            post_processing,
        };
        self.report(stages, points, rays)
    }

    /// Simulates rendering one frame whose Stage-I workload was
    /// captured in `trace`.
    pub fn simulate_frame(&self, trace: &FrameTrace) -> SimReport {
        self.stage_report(trace, simulate_sampling(&self.sampling, trace).cycles, false)
    }

    /// Simulates one training step over a batch whose Stage-I workload
    /// was captured in `trace` (forward + backward + feature update).
    pub fn simulate_training_step(&self, trace: &FrameTrace) -> SimReport {
        self.stage_report(trace, simulate_sampling(&self.sampling, trace).cycles, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_nerf::sampler::PairJob;

    fn synthetic_trace(rays: usize, samples_per_ray: u16, steps_per_ray: u16) -> FrameTrace {
        let job = PairJob {
            samples: samples_per_ray,
            steps: steps_per_ray,
            lattice_steps: steps_per_ray.saturating_mul(3),
        };
        let mut trace = FrameTrace::default();
        for _ in 0..rays {
            trace.push_ray(1, &[job]);
        }
        trace
    }

    #[test]
    fn scaled_chip_reproduces_table_iii_peaks() {
        let chip = FusionChip::scaled_up();
        // Peak inference 600 M pts/s (paper reports 591 M sustained).
        let inf = chip.peak_inference_points_per_second();
        assert!((inf - 600e6).abs() < 1e-3, "{inf}");
        // Training at one third: 200 M (paper: 199 M).
        let train = chip.peak_training_points_per_second();
        assert!((train - 200e6).abs() < 1e-3, "{train}");
        // Energy per point: ~2.5 / ~7.4 nJ.
        assert!((chip.inference_energy_per_point_nj() - 2.46).abs() < 0.1);
        assert!((chip.training_energy_per_point_nj() - 7.4).abs() < 0.2);
    }

    #[test]
    fn prototype_is_half_rate() {
        let proto = FusionChip::prototype();
        let scaled = FusionChip::scaled_up();
        let ratio =
            scaled.peak_inference_points_per_second() / proto.peak_inference_points_per_second();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn frame_simulation_balances_stages() {
        let chip = FusionChip::scaled_up();
        // A dense frame: 640k rays... scaled down 100x for test speed.
        let trace = synthetic_trace(6400, 12, 20);
        let report = chip.simulate_frame(&trace);
        assert_eq!(report.points, 6400 * 12);
        assert!(report.cycles > 0);
        assert!(report.seconds > 0.0);
        assert!(report.energy_j > 0.0);
        // The matched design keeps stages within an order of
        // magnitude of each other.
        let s = report.stages;
        let max = s.pipelined() as f64;
        assert!(s.sampling as f64 > max / 20.0);
        assert!(s.interpolation as f64 > max / 20.0);
    }

    #[test]
    fn training_step_is_slower_than_frame() {
        let chip = FusionChip::scaled_up();
        let trace = synthetic_trace(1024, 16, 24);
        let frame = chip.simulate_frame(&trace);
        let step = chip.simulate_training_step(&trace);
        assert!(step.cycles > frame.cycles);
        // Training is about 3x inference when Stage II/III bound.
        let ratio = step.cycles as f64 / frame.cycles as f64;
        assert!((1.5..=4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bottleneck_detection() {
        let s = StageCycles { sampling: 10, interpolation: 30, post_processing: 20 };
        assert_eq!(s.pipelined(), 30);
        assert_eq!(s.bottleneck(), Stage::Interpolation);
        let s = StageCycles { sampling: 50, interpolation: 30, post_processing: 20 };
        assert_eq!(s.bottleneck(), Stage::Sampling);
        let s = StageCycles { sampling: 10, interpolation: 30, post_processing: 40 };
        assert_eq!(s.bottleneck(), Stage::PostProcessing);
    }

    #[test]
    fn empty_trace_renders_instantly() {
        let chip = FusionChip::prototype();
        let report = chip.simulate_frame(&FrameTrace::default());
        assert_eq!(report.cycles, 0);
        assert_eq!(report.points_per_second(), 0.0);
    }
}
