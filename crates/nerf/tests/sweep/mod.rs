//! The Stage-I sweep shared by the sampler's differential tests: rays
//! aimed at, along and around occupied cells of grids built to stress
//! empty-space skipping, and the samplers that march them. Included by
//! `batched_kernels.rs` and by the sampler's unit tests (its lane
//! kernel is private); each includer imports the types named below.

use super::{OccupancyGrid, PairJob, Ray, RayWorkload, SamplerConfig, Vec3};
use rand::rngs::SmallRng;
use rand::Rng;

/// A grid of resolution `r` with exactly the given cells occupied.
pub fn grid_with(r: u32, cells: &[[u32; 3]]) -> OccupancyGrid {
    let mut grid = OccupancyGrid::new(r, 0.0);
    for &[x, y, z] in cells {
        grid.set_cell((x + r * (y + r * z)) as usize, true);
    }
    grid
}

/// Every corner of the grid plus the centre cell of every face.
pub fn face_and_corner_cells(r: u32) -> Vec<[u32; 3]> {
    let (m, e) = (r / 2, r - 1);
    let mut cells: Vec<[u32; 3]> =
        (0..8).map(|k| [(k & 1) * e, (k >> 1 & 1) * e, (k >> 2 & 1) * e]).collect();
    cells.extend([[0, m, m], [e, m, m], [m, 0, m], [m, e, m], [m, m, 0], [m, m, e]]);
    cells
}

/// Two 2×2×2 clusters far apart along X, both in the low-X octants for
/// `r >= 12`, so an X-aligned ray samples both in one ray–octant pair
/// with an empty gap between them.
pub fn two_cluster_cells(r: u32) -> Vec<[u32; 3]> {
    let far = r / 2 - 2;
    let mut cells = Vec::new();
    for k in 0..8 {
        let (dx, dy, dz) = (k & 1, k >> 1 & 1, k >> 2 & 1);
        cells.push([1 + dx, 4 + dy, 3 + dz]);
        cells.push([far + dx, 4 + dy, 3 + dz]);
    }
    cells
}

/// Rays aimed at (and along the edges of) up to 24 occupied cells of
/// `grid`: from outside and inside the cube, axis-parallel, with one
/// zero direction component, grazing the cell's edges, and random.
pub fn sweep_rays(grid: &OccupancyGrid, rng: &mut SmallRng) -> Vec<Ray> {
    let (n, r) = (grid.resolution() as usize, grid.resolution() as f32);
    let axes = [Vec3::X, Vec3::Y, Vec3::Z];
    let stride = grid.occupied_cells().count().div_ceil(24);
    let mut rays = Vec::new();
    for cell in grid.occupied_cells().step_by(stride) {
        let center = grid.cell_center(cell);
        // The cell's low corner, exactly on cell planes (and on the
        // octant planes for cells starting at 0.5).
        let corner = Vec3::new(
            (cell % n) as f32 / r,
            (cell / n % n) as f32 / r,
            (cell / (n * n)) as f32 / r,
        );
        for axis in axes {
            for dir in [axis, -axis] {
                // Straight through the centre, from outside and inside.
                rays.push(Ray::new(center - dir * 2.0, dir));
                rays.push(Ray::new(center - dir * 0.05, dir));
                // Along an edge of the cell: the two coordinates off
                // the ray axis sit exactly on cell planes, or a hair
                // beside them.
                let edge = corner - dir * 2.0;
                for nudge in [0.0, 1e-6, -1e-6] {
                    rays.push(Ray::new(edge + (Vec3::ONE - axis) * nudge, dir));
                }
            }
        }
        // One zero direction component, through the centre and in a
        // plane of the cell's faces.
        for dir in [Vec3::new(1.0, 1.0, 0.0), Vec3::new(0.0, -1.0, 2.0), Vec3::new(-3.0, 0.0, 1.0)]
        {
            let dir = dir.normalize();
            rays.push(Ray::new(center - dir * 1.7, dir));
            rays.push(Ray::new(corner - dir * 1.7, dir));
        }
        // Random directions through a random point of the cell.
        for _ in 0..4 {
            let jitter = Vec3::new(rng.gen(), rng.gen(), rng.gen()) * (1.0 / r);
            let target = corner + jitter;
            let origin =
                Vec3::new(rng.gen::<f32>() * 4.0 - 1.5, rng.gen(), rng.gen::<f32>() * 3.0 - 1.0);
            rays.push(Ray::new(origin, (target - origin).normalize()));
        }
    }
    // Random rays starting inside the cube.
    for _ in 0..64 {
        let origin = Vec3::new(rng.gen(), rng.gen(), rng.gen());
        let dir = Vec3::new(rng.gen::<f32>() - 0.5, rng.gen::<f32>() - 0.5, rng.gen::<f32>() - 0.5);
        rays.push(Ray::new(origin, dir.normalize()));
    }
    rays
}

/// Grids that put occupied cells where Stage-I skipping is tightest
/// (alone, on faces and corners, on octant planes, with a gap inside
/// one pair), at resolutions that do and do not divide into summary
/// blocks.
pub fn sweep_grids() -> Vec<OccupancyGrid> {
    let sphere = OccupancyGrid::from_oracle(16, 0.0, |p| (p - Vec3::splat(0.5)).length() < 0.4);
    let mut grids = vec![sphere, grid_with(24, &[[7, 11, 3]]), grid_with(25, &[[12, 12, 12]])];
    for r in [5, 7, 24, 25] {
        grids.push(grid_with(r, &face_and_corner_cells(r)));
    }
    for r in [24, 25] {
        grids.push(grid_with(r, &two_cluster_cells(r)));
    }
    grids
}

/// Samplers of the sweep; the last caps rays after three samples.
pub fn sweep_configs() -> [SamplerConfig; 3] {
    [
        SamplerConfig { steps_per_diagonal: 64, max_samples_per_ray: 48 },
        SamplerConfig { steps_per_diagonal: 192, max_samples_per_ray: 128 },
        SamplerConfig { steps_per_diagonal: 97, max_samples_per_ray: 3 },
    ]
}

/// `sample_ray`'s workload as the flat trace's pair jobs.
pub fn jobs_of(workload: &RayWorkload) -> Vec<PairJob> {
    assert_eq!(workload.samples_per_pair.len(), workload.steps_per_pair.len());
    assert_eq!(workload.lattice_steps_per_pair.len(), workload.steps_per_pair.len());
    (0..workload.steps_per_pair.len())
        .map(|i| PairJob {
            samples: workload.samples_per_pair[i],
            steps: workload.steps_per_pair[i],
            lattice_steps: workload.lattice_steps_per_pair[i],
        })
        .collect()
}
