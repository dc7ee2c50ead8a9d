//! # fusion3d-core
//!
//! The Fusion-3D single-chip end-to-end NeRF accelerator — the paper's
//! primary contribution — as a cycle-level simulator calibrated to the
//! published 28 nm silicon measurements:
//!
//! * [`config`] — chip configurations (taped-out prototype and the
//!   scaled-up Table III design), module area/power breakdowns, and
//!   the measured voltage–frequency curve;
//! * [`sampling`] — the Stage-I Sampling Module with Technique T1:
//!   model normalization & partitioning and dynamic whole-ray
//!   scheduling, plus the naive baseline for the Table VI ablation;
//! * [`interp`] — the Stage-II Feature Interpolation Module with the
//!   shared/reconfigurable pipeline (T2-1), TDM train+infer
//!   co-scheduling, and bank-conflict sensitivity;
//! * [`postproc`] — the Stage-III MLP engine and volume renderer;
//! * [`noc`] — on-chip network and off-chip interface load checks;
//! * [`pipeline_sim`] — cycle-stepped pipeline with finite FIFOs and
//!   backpressure;
//! * [`chip`] — the assembled pipeline: frame and training-step
//!   simulation, throughput, FPS, and training-time reporting;
//! * [`energy`] — power/energy models calibrated to 1.21 W @ 600 MHz
//!   and the 2.5 / 7.4 nJ-per-point figures;
//! * [`bandwidth`] — design-boundary off-chip traffic analysis
//!   (Fig. 3, Table I, Fig. 13(b));
//! * [`transfer`] — the TensoRF transfer ablation.
//!
//! ```
//! use fusion3d_core::chip::FusionChip;
//!
//! let chip = FusionChip::scaled_up();
//! // The paper's headline single-chip numbers.
//! assert!(chip.peak_inference_points_per_second() > 5.9e8);
//! assert!(chip.inference_energy_per_point_nj() < 3.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bandwidth;
pub mod chip;
pub mod config;
pub mod design_space;
pub mod energy;
pub mod interp;
pub mod noc;
pub mod observe;
pub mod pipeline_sim;
pub mod postproc;
pub mod sampling;
pub mod training_schedule;
pub mod transfer;

pub use chip::{FusionChip, SimReport, Stage, StageCycles};
pub use config::{ChipConfig, Module};
pub use energy::EnergyModel;
pub use sampling::{simulate_sampling, t1_speedup, SamplingModuleConfig, SchedulingPolicy};

#[cfg(test)]
pub(crate) mod test_scenes {
    use fusion3d_nerf::camera::{orbit_poses, Camera};
    use fusion3d_nerf::math::Vec3;
    use fusion3d_nerf::pipeline::{trace_frame, FrameTrace};
    use fusion3d_nerf::sampler::SamplerConfig;
    use fusion3d_nerf::scenes::{ProceduralScene, SyntheticScene};

    /// Stage-I traces of the eight synthetic scenes' evaluation view at
    /// `res`² pixels, on the paper tables' fine sampler.
    pub(crate) fn synthetic_scene_traces(res: u32) -> Vec<FrameTrace> {
        let pose = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, 8)[2];
        let camera = Camera::new(pose, res, res, 0.9);
        let sampler = SamplerConfig { steps_per_diagonal: 512, max_samples_per_ray: 256 };
        SyntheticScene::ALL
            .iter()
            .map(|&s| {
                trace_frame(&ProceduralScene::synthetic(s).occupancy_grid(32), &camera, &sampler)
            })
            .collect()
    }
}
