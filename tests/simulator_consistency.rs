//! Cross-simulator consistency: the analytic chip model, the
//! cycle-stepped pipeline, the NoC checks, and the training planner
//! must agree with each other on real scene workloads — each models a
//! different aspect of the same hardware, so disagreement means a
//! modelling bug.

use fusion3d::core::chip::FusionChip;
use fusion3d::core::noc::{check_noc, interface_load, NocConfig};
use fusion3d::core::pipeline_sim::{simulate_pipeline, BufferConfig};
use fusion3d::core::training_schedule::{plan_training, TrainingRecipe};
use fusion3d::nerf::camera::{orbit_poses, Camera};
use fusion3d::nerf::pipeline::trace_frame;
use fusion3d::nerf::{ProceduralScene, SamplerConfig, SyntheticScene, Vec3};

fn scene_trace(kind: SyntheticScene) -> fusion3d::nerf::FrameTrace {
    let scene = ProceduralScene::synthetic(kind);
    let occupancy = scene.occupancy_grid(32);
    let pose = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, 8)[2];
    let camera = Camera::new(pose, 96, 96, 0.9);
    let sampler = SamplerConfig { steps_per_diagonal: 256, max_samples_per_ray: 192 };
    trace_frame(&occupancy, &camera, &sampler)
}

/// On every scene, the cycle-stepped pipeline lands between the
/// analytic makespan and a modest fill/drain margin above it — also on
/// a chip whose bank conflicts stretch every Stage-II gather, so the
/// stepped pipeline runs each stage at the chip's own rate.
#[test]
fn stepped_pipeline_brackets_the_analytic_model() {
    for chip in [FusionChip::scaled_up(), FusionChip::scaled_up().with_mean_gather_cycles(3.0)] {
        let gather = chip.mean_gather_cycles();
        for kind in SyntheticScene::ALL {
            let trace = scene_trace(kind);
            let analytic = chip.simulate_frame(&trace).cycles;
            let stepped = simulate_pipeline(&chip, &trace, &BufferConfig::fusion3d(), false);
            assert_eq!(stepped.points, trace.total_samples, "{}", kind.name());
            assert!(
                stepped.cycles >= analytic,
                "{} (gather {gather}): stepped {} < analytic {}",
                kind.name(),
                stepped.cycles,
                analytic
            );
            assert!(
                (stepped.cycles as f64) < analytic as f64 * 1.35,
                "{} (gather {gather}): pipeline overhead too large ({} vs {})",
                kind.name(),
                stepped.cycles,
                analytic
            );
        }
    }
}

/// The NoC never throttles any of the eight scene workloads, and the
/// off-chip interface stays inside the USB budget at the achieved
/// frame rate.
#[test]
fn noc_and_interface_have_headroom_on_every_scene() {
    let chip = FusionChip::scaled_up();
    let noc = NocConfig::fusion3d();
    for kind in SyntheticScene::ALL {
        let trace = scene_trace(kind);
        let report = chip.simulate_frame(&trace);
        let check = check_noc(&noc, &trace, 20, &report.stages);
        assert!(
            !check.is_bottleneck(),
            "{}: NoC throttles at {:.2}",
            kind.name(),
            check.peak_utilization()
        );
        // Interface at the display-capped frame rate (an HMD refreshes
        // at <= 90 Hz; the chip never streams faster than the panel),
        // scaled to 800x800 pixels per second.
        let scale = 800.0 * 800.0 / trace.ray_count() as f64;
        let fps = (1.0 / (report.seconds * scale)).min(90.0);
        let io = interface_load(&trace, fps * scale);
        assert!(
            io.required_gbs < 0.625,
            "{}: interface needs {:.3} GB/s",
            kind.name(),
            io.required_gbs
        );
    }
}

/// The training planner and the raw chip simulation agree on step
/// time, and every scene's paper-scale plan stays instant on the
/// scaled-up chip.
#[test]
fn training_plans_are_instant_on_every_scene() {
    let chip = FusionChip::scaled_up();
    for kind in SyntheticScene::ALL {
        let trace = scene_trace(kind);
        let step = chip.simulate_training_step(&trace);
        // Budget: the paper-scale run processes ~390 M samples at ~13
        // samples per ray. Sparse scenes retain fewer samples per ray,
        // so their budget is ray-bound (there is simply less content
        // to fit); dense scenes are sample-bound.
        let per_step = (trace.total_samples as f64).max(trace.ray_count() as f64 * 13.0);
        let iterations = (390e6 / per_step).ceil() as u32;
        let recipe = TrainingRecipe { iterations, ..TrainingRecipe::paper_scale() };
        let plan = plan_training(&chip, &trace, &recipe);
        // Planner's step time is exactly iterations × one step.
        let expected = step.seconds * iterations as f64;
        assert!(
            (plan.step_seconds - expected).abs() < 1e-9,
            "{}: planner disagrees with the chip simulation",
            kind.name()
        );
        assert!(plan.fits(2.6), "{}: plan takes {:.2} s", kind.name(), plan.overlapped_seconds());
    }
}
