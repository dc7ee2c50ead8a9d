//! Shared infrastructure for the experiment harness: deterministic
//! scene workloads, table formatting, and paper-scale constants.

use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{trace_frame, FrameTrace};
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::scenes::{LargeScene, ProceduralScene, SyntheticScene};
use fusion3d_par::Pool;

/// Resolution of the ground-truth occupancy grids used to drive the
/// simulator traces.
pub const OCCUPANCY_RES: u32 = 32;

/// Trace resolution: workload statistics are intensive (per-ray), so
/// traces run at 160×160 and FPS numbers scale to the paper's 800×800.
pub const TRACE_RES: u32 = 160;

/// The sampler settings used for all simulator traces: a fine lattice
/// (the paper quotes up to 255 samples per ray), so occupancy skipping
/// matters and per-scene Stage-I costs spread as in Table VI.
pub fn trace_sampler() -> SamplerConfig {
    SamplerConfig { steps_per_diagonal: 512, max_samples_per_ray: 256 }
}

/// A deterministic evaluation camera orbiting the scene.
pub fn trace_camera(resolution: u32) -> Camera {
    let pose = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, 8)[2];
    Camera::new(pose, resolution, resolution, 0.9)
}

/// Ground-truth occupancy grid of a synthetic scene.
pub fn scene_occupancy(scene: SyntheticScene) -> OccupancyGrid {
    ProceduralScene::synthetic(scene).occupancy_grid(OCCUPANCY_RES)
}

/// Ground-truth occupancy grid of a large scene.
pub fn large_scene_occupancy(scene: LargeScene) -> OccupancyGrid {
    ProceduralScene::large(scene).occupancy_grid(OCCUPANCY_RES)
}

/// The Stage-I workload trace of a synthetic scene's evaluation frame.
pub fn scene_trace(scene: SyntheticScene) -> FrameTrace {
    trace_frame(&scene_occupancy(scene), &trace_camera(TRACE_RES), &trace_sampler())
}

/// The Stage-I workload trace of a large scene's evaluation frame.
pub fn large_scene_trace(scene: LargeScene) -> FrameTrace {
    trace_frame(&large_scene_occupancy(scene), &trace_camera(TRACE_RES), &trace_sampler())
}

/// Evaluates `work` on every scene in `scenes` across the worker
/// pool, returning the results in scene order. The experiment tables
/// sweep independent per-scene simulations, so the whole sweep fans
/// out; the scene-order result vector keeps downstream averaging and
/// printing identical to a serial loop for any `FUSION3D_THREADS`.
pub fn for_each_scene<S, T, F>(scenes: &[S], work: F) -> Vec<T>
where
    S: Copy + Sync,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    Pool::new().parallel_chunks(scenes.len(), 1, |index, _| work(scenes[index]))
}

/// Formats one table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

/// Prints a titled table: a header row, a separator, and body rows.
pub fn print_table(title: &str, header: &[&str], body: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in body {
        for (i, cell) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    println!("\n=== {title} ===");
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    println!("{}", row(&header_cells, &widths));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for r in body {
        println!("{}", row(r, &widths));
    }
}

/// Unwraps a metric the static device tables are known to report.
/// Centralizes the panic so experiment code stays free of bare
/// `expect` calls on spec-table lookups.
pub fn reported(v: Option<f64>, what: &str) -> f64 {
    match v {
        Some(x) => x,
        // lint: allow(p1): the baselines device tables are static data
        None => panic!("device spec missing: {what}"),
    }
}

/// Formats an optional metric, using the paper's N/R marker for
/// missing cells.
pub fn opt(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) => format!("{x:.digits$}"),
        None => "N/R".to_string(),
    }
}

/// Formats a yes/no cell.
pub fn yn(v: bool) -> String {
    if v { "Yes" } else { "No" }.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_nonempty() {
        let a = scene_trace(SyntheticScene::Lego);
        let b = scene_trace(SyntheticScene::Lego);
        assert_eq!(a.total_samples, b.total_samples);
        assert!(a.total_samples > 0);
        assert_eq!(a.ray_count() as u64, (TRACE_RES as u64).pow(2));
    }

    #[test]
    fn sparse_scenes_have_fewer_samples() {
        let mic = scene_trace(SyntheticScene::Mic);
        let ship = scene_trace(SyntheticScene::Ship);
        assert!(
            mic.total_samples * 2 < ship.total_samples,
            "mic {} vs ship {}",
            mic.total_samples,
            ship.total_samples
        );
    }

    #[test]
    fn for_each_scene_preserves_scene_order() {
        let scenes = [1usize, 2, 3, 4, 5, 6, 7];
        let out = for_each_scene(&scenes, |s| s * 10);
        assert_eq!(out, vec![10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(opt(Some(1.234), 2), "1.23");
        assert_eq!(opt(None, 2), "N/R");
        assert_eq!(yn(true), "Yes");
        assert_eq!(yn(false), "No");
    }
}
