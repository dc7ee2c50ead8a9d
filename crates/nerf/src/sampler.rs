//! Stage I: point sampling along rays.
//!
//! The sampler implements the algorithmic side of Technique T1:
//!
//! * **Model normalization & partitioning** (T1-1): rays are tested
//!   against the eight octant cubes of the normalized model space
//!   using the cheap unit-cube intersection; only valid ray–cube pairs
//!   proceed ([`ray_cube_pairs`]).
//! * Within each valid pair, points are marched at a fixed step and
//!   filtered through the occupancy grid, so only points in non-empty
//!   space reach Stages II/III.
//!
//! Per-pair job lengths ([`PairJob`]) are counted for the accelerator
//! simulator, whose dynamic workload scheduler (T1-2) dispatches whole
//! rays onto sampling cores. [`crate::pipeline::trace_frame`] counts
//! them with an allocation-free walk; [`sample_ray`]'s [`RayWorkload`]
//! is that walk's oracle.

use crate::batch::SampleBatch;
use crate::math::{Aabb, Ray, TSpan, Vec3};
use crate::occupancy::OccupancyGrid;

/// Configuration of the ray-marching sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Number of equal steps across the model-cube diagonal; the march
    /// step is `sqrt(3) / steps_per_diagonal`.
    pub steps_per_diagonal: u32,
    /// Hard cap on retained samples per ray (the paper quotes 3–100
    /// samples per ray–cube pair).
    pub max_samples_per_ray: usize,
}

impl Default for SamplerConfig {
    /// 128 steps across the diagonal, at most 128 samples per ray —
    /// in the range of sample counts the paper reports for Stage I.
    fn default() -> Self {
        SamplerConfig { steps_per_diagonal: 128, max_samples_per_ray: 128 }
    }
}

impl SamplerConfig {
    /// The marching step length in normalized coordinates.
    #[inline]
    pub fn step(&self) -> f32 {
        3f32.sqrt() / self.steps_per_diagonal as f32
    }
}

/// One retained sample point on a ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaySample {
    /// Ray parameter of the sample.
    pub t: f32,
    /// Integration interval assigned to the sample.
    pub dt: f32,
    /// Sample position in normalized model coordinates.
    pub position: Vec3,
    /// Octant cube (0..8) the sample belongs to, for workload
    /// accounting.
    pub cube: u8,
}

/// One marched ray–cube pair: the job a sampling core runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairJob {
    /// Retained (occupied) samples.
    pub samples: u16,
    /// Marching steps (fine steps in occupied cells plus one DDA step
    /// per skipped empty cell) — the job length on a sampling core.
    pub steps: u16,
    /// Fine-lattice steps spanning the pair (`span / δt`), i.e. the
    /// cost a naive module without occupancy-grid DDA skipping would
    /// pay marching the pair.
    pub lattice_steps: u16,
}

/// Per-ray workload statistics of [`sample_ray`], kept as the oracle
/// of the counting walk behind [`crate::pipeline::trace_frame`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RayWorkload {
    /// Number of octant cubes the ray validly intersects (the paper:
    /// typically 1–3).
    pub valid_pairs: u8,
    /// Number of *retained* (occupied) samples per valid pair, in
    /// traversal order.
    pub samples_per_pair: Vec<u16>,
    /// Marching steps taken per valid pair (fine steps in occupied
    /// cells plus one DDA step per skipped empty cell) — the per-pair
    /// job length on a sampling core.
    pub steps_per_pair: Vec<u16>,
    /// Fine-lattice steps spanning each pair (`span / δt`), i.e. the
    /// cost a naive module without occupancy-grid DDA skipping would
    /// pay marching the pair.
    pub lattice_steps_per_pair: Vec<u16>,
}

impl RayWorkload {
    /// Total retained samples for the ray.
    pub fn total_samples(&self) -> u32 {
        self.samples_per_pair.iter().map(|&s| s as u32).sum()
    }

    /// Total marching steps for the ray.
    pub fn total_steps(&self) -> u32 {
        self.steps_per_pair.iter().map(|&s| s as u32).sum()
    }
}

/// Returns the valid ray–octant-cube pairs for a ray in normalized
/// model space, ordered by entry parameter (front to back).
///
/// Each pair is `(cube_index, span)`. Rays that miss the model cube
/// entirely return an empty vector and are discarded before reaching
/// the sampling cores.
pub fn ray_cube_pairs(ray: &Ray) -> Vec<(u8, TSpan)> {
    let mut pairs = Vec::new();
    ray_cube_pairs_into(ray, &mut pairs);
    pairs
}

/// [`ray_cube_pairs`] writing into a caller-owned buffer (cleared
/// first), so per-ray loops reuse one at-most-eight-entry vector
/// instead of allocating per ray. Identical output.
pub fn ray_cube_pairs_into(ray: &Ray, out: &mut Vec<(u8, TSpan)>) {
    out.clear();
    let octants = Aabb::unit_cube().octants();
    for (i, cube) in octants.iter().enumerate() {
        if let Some(span) = cube.intersect_general(ray) {
            // lint: allow(h2): amortized — pushes into the
            // caller-owned buffer this function exists to reuse
            out.push((i as u8, span));
        }
    }
    out.sort_by(|a, b| a.1.t_near.total_cmp(&b.1.t_near));
}

/// Marches a ray through the occupancy grid, returning the retained
/// samples and the ray's workload statistics.
///
/// The ray direction should be unit length so that `t` measures
/// distance. Sampling stops once `max_samples_per_ray` samples are
/// retained.
pub fn sample_ray(
    ray: &Ray,
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
) -> (Vec<RaySample>, RayWorkload) {
    let pairs = ray_cube_pairs(ray);
    let mut samples = Vec::new();
    let mut workload = RayWorkload {
        valid_pairs: pairs.len() as u8,
        samples_per_pair: Vec::with_capacity(pairs.len()),
        steps_per_pair: Vec::with_capacity(pairs.len()),
        lattice_steps_per_pair: Vec::with_capacity(pairs.len()),
    };
    let dt = config.step();
    'pairs: for (cube, span) in pairs {
        workload
            .lattice_steps_per_pair
            .push((span.length() / dt).ceil().min(u16::MAX as f32) as u16);
        let mut retained_in_pair = 0u16;
        let mut steps_in_pair = 0u16;
        // Offset the first sample half a step into the span so samples
        // sit at interval midpoints. All samples stay on this lattice:
        // empty-cell skips advance `t` to the next lattice point past
        // the cell exit, so occupancy pruning never moves a sample.
        let t0 = span.t_near + dt * 0.5;
        let mut t = t0;
        while t < span.t_far {
            steps_in_pair = steps_in_pair.saturating_add(1);
            let p = ray.at(t);
            if occupancy.is_occupied(p) {
                samples.push(RaySample { t, dt, position: p, cube });
                retained_in_pair += 1;
                if samples.len() >= config.max_samples_per_ray {
                    workload.samples_per_pair.push(retained_in_pair);
                    workload.steps_per_pair.push(steps_in_pair);
                    break 'pairs;
                }
                t += dt;
            } else {
                // Empty cell: one DDA step skips the whole cell
                // (Stage-I hardware walks the occupancy grid, not the
                // fine lattice, through empty space).
                let exit = occupancy.cell_exit_t(ray, t);
                let k = ((exit - t0) / dt).floor() + 1.0;
                t = (t0 + k * dt).max(t + dt);
            }
        }
        workload.samples_per_pair.push(retained_in_pair);
        workload.steps_per_pair.push(steps_in_pair);
    }
    (samples, workload)
}

/// The counting walk behind [`crate::pipeline::trace_frame`]: marches
/// `ray` exactly as [`sample_ray`] does, but keeps no sample. It
/// appends one [`PairJob`] per marched pair to `jobs` and returns the
/// ray's valid pair count. A ray stopped by the sample cap marches
/// fewer pairs than it validly intersects, as in [`sample_ray`].
/// `cube_pairs` is caller-owned scratch reused across rays.
pub(crate) fn count_ray(
    ray: &Ray,
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
    cube_pairs: &mut Vec<(u8, TSpan)>,
    jobs: &mut Vec<PairJob>,
) -> u8 {
    ray_cube_pairs_into(ray, cube_pairs);
    let dt = config.step();
    let mut retained = 0usize;
    for &(_, span) in cube_pairs.iter() {
        let lattice_steps = (span.length() / dt).ceil().min(u16::MAX as f32) as u16;
        let mut job = PairJob { samples: 0, steps: 0, lattice_steps };
        let mut capped = false;
        // The march of `sample_ray`, step for step.
        let t0 = span.t_near + dt * 0.5;
        let mut t = t0;
        while t < span.t_far {
            job.steps = job.steps.saturating_add(1);
            let p = ray.at(t);
            if occupancy.is_occupied(p) {
                job.samples += 1;
                retained += 1;
                if retained >= config.max_samples_per_ray {
                    capped = true;
                    break;
                }
                t += dt;
            } else {
                let exit = occupancy.cell_exit_t(ray, t);
                let k = ((exit - t0) / dt).floor() + 1.0;
                t = (t0 + k * dt).max(t + dt);
            }
        }
        // lint: allow(h2): amortized — appends to the row's flat job
        // vector, the frame trace's output product
        jobs.push(job);
        if capped {
            break;
        }
    }
    cube_pairs.len() as u8
}

/// [`sample_ray`] marching into a caller-owned [`SampleBatch`]
/// (cleared first) and skipping the workload bookkeeping — the
/// allocation-free Stage-I entry point of the batched render/train
/// hot path. Produces exactly the `t`/`δt`/position sequence of
/// [`sample_ray`]; per-cube statistics stay with the tracing path.
/// It takes fewer steps: the occupancy grid's empty-space summary
/// lets it skip spans and span tails that hold no sample, which
/// [`sample_ray`] and the trace walk still march because their step
/// counts are the sampling cores' job lengths.
pub fn sample_ray_into(
    ray: &Ray,
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
    out: &mut SampleBatch,
) {
    out.clear();
    sample_ray_append(ray, occupancy, config, out);
}

/// [`sample_ray_into`] without the clear: appends the ray's samples
/// behind those already in `out`, so the render pipeline can lay a
/// whole pixel row's Stage-I output end to end in one batch. The
/// `max_samples_per_ray` cap counts this ray's samples only.
pub(crate) fn sample_ray_append(
    ray: &Ray,
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
    out: &mut SampleBatch,
) {
    let start = out.len();
    let mut pairs = std::mem::take(&mut out.pairs);
    ray_cube_pairs_into(ray, &mut pairs);
    let dt = config.step();
    'pairs: for &(cube, span) in pairs.iter() {
        // Past the span's last non-empty summary block no lattice point
        // lies in an occupied cell, so the march ends there; a span
        // with no such block is skipped whole. The head is not skipped:
        // where a march lands after empty cells depends on its chain of
        // cell exits, so only marching from `t0` gives the same points.
        let Some(exit) = occupancy.last_occupied_block_exit(ray, cube, span) else { continue };
        let end = span.t_far.min(exit);
        // Same lattice as `sample_ray`: first sample half a step into
        // the span, empty-cell DDA skips land back on the lattice.
        let t0 = span.t_near + dt * 0.5;
        let mut t = t0;
        while t < end {
            let p = ray.at(t);
            if occupancy.is_occupied(p) {
                // lint: allow(h2): amortized — caller-owned
                // SampleBatch cleared per ray or row within capacity
                out.push(t, dt, p);
                if out.len() - start >= config.max_samples_per_ray {
                    break 'pairs;
                }
                t += dt;
            } else {
                let exit = occupancy.cell_exit_t(ray, t);
                let k = ((exit - t0) / dt).floor() + 1.0;
                t = (t0 + k * dt).max(t + dt);
            }
        }
    }
    out.pairs = pairs;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_grid() -> OccupancyGrid {
        let mut g = OccupancyGrid::new(16, 0.0);
        g.fill();
        g
    }

    #[test]
    fn config_step_length() {
        let cfg = SamplerConfig { steps_per_diagonal: 100, max_samples_per_ray: 64 };
        assert!((cfg.step() - 3f32.sqrt() / 100.0).abs() < 1e-7);
    }

    #[test]
    fn axis_ray_intersects_two_octants() {
        // A ray down the middle of the +X axis at y = z = 0.25 passes
        // through octants 0 (low XYZ) and 1 (high X).
        let ray = Ray::new(Vec3::new(-1.0, 0.25, 0.25), Vec3::X);
        let pairs = ray_cube_pairs(&ray);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, 0);
        assert_eq!(pairs[1].0, 1);
        // Front-to-back ordering.
        assert!(pairs[0].1.t_near <= pairs[1].1.t_near);
    }

    #[test]
    fn diagonal_ray_can_intersect_more_octants() {
        let ray = Ray::new(Vec3::new(-0.5, -0.5, -0.5), Vec3::new(1.0, 1.0, 1.0).normalize());
        let pairs = ray_cube_pairs(&ray);
        // The main diagonal touches at least the two diagonal octants.
        assert!(pairs.len() >= 2);
        assert_eq!(pairs.first().unwrap().0, 0);
        assert_eq!(pairs.last().unwrap().0, 7);
    }

    #[test]
    fn missing_ray_yields_no_pairs() {
        let ray = Ray::new(Vec3::new(-1.0, 5.0, 0.5), Vec3::X);
        assert!(ray_cube_pairs(&ray).is_empty());
        let (samples, wl) = sample_ray(&ray, &full_grid(), &SamplerConfig::default());
        assert!(samples.is_empty());
        assert_eq!(wl.valid_pairs, 0);
        assert_eq!(wl.total_samples(), 0);
    }

    #[test]
    fn full_grid_retains_every_step() {
        let ray = Ray::new(Vec3::new(-1.0, 0.4, 0.45), Vec3::X);
        let cfg = SamplerConfig { steps_per_diagonal: 64, max_samples_per_ray: 1000 };
        let (samples, wl) = sample_ray(&ray, &full_grid(), &cfg);
        assert_eq!(samples.len() as u32, wl.total_samples());
        assert_eq!(wl.total_steps() as usize, samples.len());
        // The ray crosses a unit of distance; expect about 1/dt samples.
        let expected = (1.0 / cfg.step()) as usize;
        assert!(
            samples.len() >= expected - 2 && samples.len() <= expected + 2,
            "got {} samples, expected about {expected}",
            samples.len()
        );
        // Samples are ordered and inside the cube.
        for w in samples.windows(2) {
            assert!(w[0].t < w[1].t);
        }
        for s in &samples {
            assert!(Aabb::unit_cube().contains(s.position));
        }
    }

    #[test]
    fn empty_grid_filters_all_samples_but_counts_steps() {
        let g = OccupancyGrid::new(16, 0.0); // all empty
        let ray = Ray::new(Vec3::new(-1.0, 0.4, 0.45), Vec3::X);
        let (samples, wl) = sample_ray(&ray, &g, &SamplerConfig::default());
        assert!(samples.is_empty());
        assert!(wl.total_steps() > 0, "steps still cost sampling-core time");
        assert_eq!(wl.valid_pairs, 2);
    }

    #[test]
    fn partial_occupancy_reduces_samples() {
        // Occupy only the x < 0.5 half.
        let g = OccupancyGrid::from_oracle(16, 0.0, |p| p.x < 0.5);
        let ray = Ray::new(Vec3::new(-1.0, 0.4, 0.45), Vec3::X);
        let cfg = SamplerConfig::default();
        let (samples, wl) = sample_ray(&ray, &g, &cfg);
        let (full_samples, _) = sample_ray(&ray, &full_grid(), &cfg);
        assert!(!samples.is_empty());
        assert!(samples.len() < full_samples.len(), "occupancy filtering must reduce sample count");
        // All retained samples lie in the occupied half (cell-quantized
        // boundary allows a half-cell of slack).
        for s in &samples {
            assert!(s.position.x < 0.5 + g.cell_size());
        }
        assert_eq!(wl.samples_per_pair.len(), wl.valid_pairs as usize);
    }

    #[test]
    fn max_samples_cap_is_enforced() {
        let ray = Ray::new(Vec3::new(-1.0, 0.4, 0.45), Vec3::X);
        let cfg = SamplerConfig { steps_per_diagonal: 512, max_samples_per_ray: 10 };
        let (samples, wl) = sample_ray(&ray, &full_grid(), &cfg);
        assert_eq!(samples.len(), 10);
        assert_eq!(wl.total_samples(), 10);
    }

    #[test]
    fn samples_carry_their_octant() {
        let ray = Ray::new(Vec3::new(-1.0, 0.25, 0.25), Vec3::X);
        let (samples, _) = sample_ray(&ray, &full_grid(), &SamplerConfig::default());
        // Samples in the low-x half belong to cube 0, high-x to cube 1.
        for s in &samples {
            if s.position.x < 0.49 {
                assert_eq!(s.cube, 0);
            } else if s.position.x > 0.51 {
                assert_eq!(s.cube, 1);
            }
        }
    }

    #[test]
    fn empty_cell_skipping_preserves_samples_and_cuts_steps() {
        // A sparse grid: only a thin slab around x = 0.5 is occupied.
        let sparse = OccupancyGrid::from_oracle(16, 0.0, |p| (p.x - 0.5).abs() < 0.06);
        let full = full_grid();
        let ray = Ray::new(Vec3::new(-1.0, 0.4, 0.45), Vec3::X);
        let cfg = SamplerConfig { steps_per_diagonal: 128, max_samples_per_ray: 1000 };
        let (sparse_samples, sparse_wl) = sample_ray(&ray, &sparse, &cfg);
        let (full_samples, full_wl) = sample_ray(&ray, &full, &cfg);
        // Sparse sampling retains exactly the lattice samples that lie
        // in occupied cells of the full run.
        let expected: Vec<_> =
            full_samples.iter().filter(|s| sparse.is_occupied(s.position)).collect();
        assert_eq!(sparse_samples.len(), expected.len());
        for (a, b) in sparse_samples.iter().zip(expected) {
            assert!((a.t - b.t).abs() < 1e-4, "sample moved: {} vs {}", a.t, b.t);
        }
        // And the DDA skip makes Stage-I work scene-dependent: far
        // fewer marching steps through the mostly-empty scene.
        assert!(
            sparse_wl.total_steps() * 2 < full_wl.total_steps(),
            "skipping saved too little: {} vs {}",
            sparse_wl.total_steps(),
            full_wl.total_steps()
        );
    }

    #[test]
    fn origin_inside_cube_starts_at_zero() {
        let ray = Ray::new(Vec3::splat(0.5), Vec3::X);
        let (samples, _) = sample_ray(&ray, &full_grid(), &SamplerConfig::default());
        assert!(!samples.is_empty());
        assert!(samples[0].t >= 0.0);
        assert!(samples[0].t < 0.1);
    }
}
