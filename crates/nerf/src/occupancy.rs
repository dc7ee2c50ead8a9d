//! Occupancy grid: the NeRF pipeline's built-in gating function.
//!
//! The occupancy grid stores one bit per cell of a coarse grid over
//! the normalized model cube. Stage I consults it to discard sample
//! points in empty space before Stages II/III ever see them. The paper
//! further observes (Sec. II-A, V-A) that the grid acts as a natural
//! *Mixture-of-Experts gating function* in the multi-chip system: a
//! chip whose expert has an empty cell contributes nothing for samples
//! in that cell, so expert outputs can be fused by simple addition.
//!
//! Beside the bits the grid keeps a coarse empty-space summary: for
//! each block of `BLOCK`³ cells, the number of occupied cells within
//! one cell of the block. The summary is derived from the bits, kept
//! in sync by every bit write and never serialized; the sampler walks
//! it to skip ray spans that cannot hold a sample.

use crate::math::{Ray, TSpan, Vec3};
use rand::Rng;

/// Side of the empty-space summary's blocks, in cells.
const BLOCK: usize = 2;

// A block's count covers at most `(BLOCK + 2)³` cells.
const _: () = assert!((BLOCK + 2).pow(3) <= u8::MAX as usize);

/// A cubical occupancy grid over `[0,1]^3`.
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    resolution: u32,
    /// One bit per cell, X-major within Y within Z.
    bits: Vec<u64>,
    /// Empty-space summary, one count per block of `BLOCK`³ cells in
    /// the same order: the occupied cells within one cell of the
    /// block. Every write to `bits` goes through [`Self::set_cell`] or
    /// [`Self::fill`], which keep it in sync.
    blocks: Vec<u8>,
    /// Exponential-moving-average density estimate per cell, updated
    /// by [`OccupancyGrid::update`].
    densities: Vec<f32>,
    threshold: f32,
}

impl OccupancyGrid {
    /// Creates an all-empty grid with `resolution^3` cells.
    ///
    /// `threshold` is the density above which a cell counts as
    /// occupied (Instant-NGP uses ~0.01 × grid diagonal steps).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero or the threshold is negative.
    pub fn new(resolution: u32, threshold: f32) -> Self {
        assert!(resolution > 0, "occupancy resolution must be positive");
        assert!(threshold >= 0.0, "occupancy threshold must be non-negative");
        let cells = (resolution as usize).pow(3);
        OccupancyGrid {
            resolution,
            bits: vec![0; cells.div_ceil(64)],
            blocks: vec![0; (resolution as usize).div_ceil(BLOCK).pow(3)],
            densities: vec![0.0; cells],
            threshold,
        }
    }

    /// Grid resolution per axis.
    #[inline]
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.resolution as usize).pow(3)
    }

    /// The occupancy threshold.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The linear index of the cell containing `p`, or `None` when `p`
    /// lies outside `[0,1]^3`.
    #[inline]
    pub fn cell_index(&self, p: Vec3) -> Option<usize> {
        if !(0.0..=1.0).contains(&p.x) || !(0.0..=1.0).contains(&p.y) || !(0.0..=1.0).contains(&p.z)
        {
            return None;
        }
        let r = self.resolution;
        let to_cell = |v: f32| ((v * r as f32) as u32).min(r - 1);
        let (x, y, z) = (to_cell(p.x), to_cell(p.y), to_cell(p.z));
        Some((x + r * (y + r * z)) as usize)
    }

    /// The center of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn cell_center(&self, index: usize) -> Vec3 {
        assert!(index < self.cell_count(), "cell index out of range");
        let r = self.resolution as usize;
        let x = index % r;
        let y = (index / r) % r;
        let z = index / (r * r);
        let inv = 1.0 / self.resolution as f32;
        Vec3::new((x as f32 + 0.5) * inv, (y as f32 + 0.5) * inv, (z as f32 + 0.5) * inv)
    }

    /// The side length of a cell.
    #[inline]
    pub fn cell_size(&self) -> f32 {
        1.0 / self.resolution as f32
    }

    /// Whether cell `index` is occupied.
    #[inline]
    pub fn is_cell_occupied(&self, index: usize) -> bool {
        debug_assert!(index / 64 < self.bits.len(), "cell index out of range");
        (self.bits[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Whether the cell containing `p` is occupied. Points outside the
    /// model cube are never occupied.
    #[inline]
    pub fn is_occupied(&self, p: Vec3) -> bool {
        self.cell_index(p).is_some_and(|i| self.is_cell_occupied(i))
    }

    /// Sets the occupancy bit for a cell.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set_cell(&mut self, index: usize, occupied: bool) {
        assert!(index < self.cell_count(), "cell index out of range");
        if self.is_cell_occupied(index) != occupied {
            self.bits[index / 64] ^= 1 << (index % 64);
            self.count_into_blocks(index, occupied);
        }
    }

    /// Marks every cell occupied — the state at the start of training,
    /// before any density estimates exist.
    pub fn fill(&mut self) {
        let cells = self.cell_count();
        for (i, word) in self.bits.iter_mut().enumerate() {
            let remaining = cells - (i * 64).min(cells);
            *word = if remaining >= 64 { u64::MAX } else { (1u64 << remaining) - 1 };
        }
        self.blocks.fill(0);
        for i in 0..cells {
            self.count_into_blocks(i, true);
        }
    }

    /// Adds cell `index` to (or, when `occupied` is false, removes it
    /// from) the summary count of every block within one cell of it.
    fn count_into_blocks(&mut self, index: usize, occupied: bool) {
        let r = self.resolution as usize;
        let blocks = r.div_ceil(BLOCK);
        debug_assert!(index < r * r * r, "cell index out of range");
        // The blocks holding cells `c - 1 ..= c + 1` of one axis.
        let near = |c: usize| c.saturating_sub(1) / BLOCK..=(c + 1).min(r - 1) / BLOCK;
        for bz in near(index / (r * r)) {
            for by in near(index / r % r) {
                for bx in near(index % r) {
                    let count = &mut self.blocks[bx + blocks * (by + blocks * bz)];
                    *count = if occupied { *count + 1 } else { *count - 1 };
                }
            }
        }
    }

    /// Fraction of cells currently occupied.
    pub fn occupancy_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.cell_count() as f64
    }

    /// Iterates over the indices of occupied cells.
    pub fn occupied_cells(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cell_count()).filter(move |&i| self.is_cell_occupied(i))
    }

    /// Refreshes the grid from a density field: each cell's EMA
    /// density is decayed by `decay` and raised to the density sampled
    /// at a jittered point inside the cell, then thresholded. This is
    /// Instant-NGP's periodic occupancy-grid update (run every few
    /// training iterations).
    ///
    /// The training step runs the same refresh with the densities
    /// evaluated in batches between its two halves, which draw every
    /// probe point and then apply every density.
    pub fn update<F, R>(&mut self, density: F, decay: f32, rng: &mut R)
    where
        F: Fn(Vec3) -> f32,
        R: Rng,
    {
        let mut points = vec![Vec3::ZERO; self.cell_count()];
        self.draw_probe_points(rng, &mut points);
        let densities: Vec<f32> = points.iter().map(|&p| density(p)).collect();
        self.apply_densities(&densities, decay);
    }

    /// The first half of a refresh: draws every cell's jittered probe
    /// point into `points`, in cell order.
    ///
    /// # Panics
    ///
    /// Panics if `points` does not hold one entry per cell.
    pub(crate) fn draw_probe_points<R: Rng>(&self, rng: &mut R, points: &mut [Vec3]) {
        assert_eq!(points.len(), self.cell_count(), "one probe point per cell");
        let size = self.cell_size();
        for (i, p) in points.iter_mut().enumerate() {
            let jitter = Vec3::new(
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
            ) * size;
            *p = (self.cell_center(i) + jitter).clamp(0.0, 1.0);
        }
    }

    /// The second half of a refresh: folds each cell's probed density
    /// into its EMA and re-thresholds it, in cell order.
    ///
    /// # Panics
    ///
    /// Panics if `densities` does not hold one entry per cell.
    pub(crate) fn apply_densities(&mut self, densities: &[f32], decay: f32) {
        assert_eq!(densities.len(), self.cell_count(), "one density per cell");
        for (i, &d) in densities.iter().enumerate() {
            self.densities[i] = (self.densities[i] * decay).max(d);
            self.set_cell(i, self.densities[i] > self.threshold);
        }
    }

    /// The ray parameter at which a ray leaves the grid cell
    /// containing `ray.at(t)`, used by the sampler to skip across
    /// empty cells in one step (DDA traversal).
    ///
    /// Returns a value strictly greater than `t`. If the point lies
    /// outside the grid or the direction is zero, returns `t` plus one
    /// cell size as a safe fallback.
    pub fn cell_exit_t(&self, ray: &Ray, t: f32) -> f32 {
        let p = ray.at(t);
        let size = self.cell_size();
        if self.cell_index(p).is_none() {
            return t + size;
        }
        let r = self.resolution as f32;
        let mut exit = f32::INFINITY;
        for axis in 0..3 {
            let d = ray.direction[axis];
            if d == 0.0 {
                continue;
            }
            let coord = p[axis] * r;
            let boundary = if d > 0.0 { coord.floor() + 1.0 } else { coord.ceil() - 1.0 };
            let t_axis = t + (boundary / r - p[axis]) / d;
            if t_axis > t {
                exit = exit.min(t_axis);
            }
        }
        if exit.is_finite() && exit > t {
            exit
        } else {
            t + size
        }
    }

    /// The ray parameter at which `ray` leaves the last summary block
    /// with a nonzero count that it crosses inside `span`, its pair
    /// with octant `cube` (indexed as [`crate::math::Aabb::octants`]),
    /// or `None` when every block it crosses there is empty. The exit
    /// of the block the span ends in counts as `INFINITY`.
    ///
    /// Walks the octant's blocks back to front with an incremental DDA,
    /// from the span's end to the first nonzero block, so a span that
    /// ends in occupied space costs one lookup. A point in an occupied
    /// cell lies in a nonzero block, and so does every point within one
    /// cell of it. So every point of the span in an occupied cell comes
    /// before the returned parameter, by about a cell: far more than
    /// the rounding of the walk, which does not accumulate because each
    /// crossing is computed afresh from its block plane. The walk never
    /// steps out of the blocks that overlap the octant, so it cannot
    /// stray into a neighbour's blocks where the span ends on their
    /// shared face.
    pub(crate) fn last_occupied_block_exit(&self, ray: &Ray, cube: u8, span: TSpan) -> Option<f32> {
        let r = self.resolution;
        let blocks = (r as usize).div_ceil(BLOCK);
        // Per axis, walking backwards: the block plane crossed next (in
        // blocks), its step, the move of the linear block index, and
        // the steps left before the octant's first block.
        let mut plane = [0.0f32; 3];
        let mut step = [0.0f32; 3];
        let mut stride = [0isize; 3];
        let mut left = [0usize; 3];
        let mut block = 0;
        let mut axis_stride = 1;
        for axis in 0..3 {
            // The blocks overlapping the octant's lower or upper half.
            let (lo, hi) = if cube >> axis & 1 == 0 {
                (0, (r as usize).div_ceil(2 * BLOCK) - 1)
            } else {
                (r as usize / (2 * BLOCK), blocks - 1)
            };
            let (o, d) = (ray.origin[axis], ray.direction[axis]);
            // Where the span ends (`ray.at(span.t_far)`, also when an
            // axis-parallel span is unbounded), looked up as in
            // `cell_index` and clamped into the octant's blocks.
            let end = if d == 0.0 { o } else { o + d * span.t_far };
            let b = (((end * r as f32) as u32).min(r - 1) as usize / BLOCK).clamp(lo, hi);
            block += b * axis_stride;
            if d > 0.0 {
                (plane[axis], step[axis], left[axis]) = (b as f32, -1.0, b - lo);
                stride[axis] = -(axis_stride as isize);
            } else if d < 0.0 {
                (plane[axis], step[axis], left[axis]) = ((b + 1) as f32, 1.0, hi - b);
                stride[axis] = axis_stride as isize;
            }
            axis_stride *= blocks;
        }
        if self.blocks[block] != 0 {
            return Some(f32::INFINITY);
        }
        // Each axis's next crossing is at `plane * scale + offset`.
        let side = BLOCK as f32 / r as f32;
        let mut scale = [0.0f32; 3];
        let mut offset = [0.0f32; 3];
        let mut t_cross = [f32::NEG_INFINITY; 3];
        for axis in 0..3 {
            if left[axis] > 0 {
                let d = ray.direction[axis];
                scale[axis] = side / d;
                offset[axis] = -ray.origin[axis] / d;
                t_cross[axis] = plane[axis] * scale[axis] + offset[axis];
            }
        }
        loop {
            let axis = if t_cross[0] >= t_cross[1] && t_cross[0] >= t_cross[2] {
                0
            } else if t_cross[1] >= t_cross[2] {
                1
            } else {
                2
            };
            // The latest crossing is the exit of the block behind it;
            // a finite one means the axis has that block left to enter.
            let exit = t_cross[axis];
            if exit > span.t_near {
                block = block.wrapping_add_signed(stride[axis]);
                if self.blocks[block] != 0 {
                    return Some(exit);
                }
                left[axis] -= 1;
                plane[axis] += step[axis];
                t_cross[axis] = if left[axis] > 0 {
                    plane[axis] * scale[axis] + offset[axis]
                } else {
                    f32::NEG_INFINITY
                };
            } else {
                return None;
            }
        }
    }

    /// Builds the grid directly from a boolean occupancy oracle, used
    /// to derive ground-truth grids from procedural scenes. Each cell
    /// is tested at its center and the eight half-offset corners.
    pub fn from_oracle<F>(resolution: u32, threshold: f32, occupied: F) -> Self
    where
        F: Fn(Vec3) -> bool,
    {
        let mut grid = OccupancyGrid::new(resolution, threshold);
        let size = grid.cell_size();
        for i in 0..grid.cell_count() {
            let c = grid.cell_center(i);
            let hit = occupied(c)
                || (0..8).any(|k| {
                    let off = Vec3::new(
                        if k & 1 == 0 { -0.45 } else { 0.45 },
                        if k & 2 == 0 { -0.45 } else { 0.45 },
                        if k & 4 == 0 { -0.45 } else { 0.45 },
                    ) * size;
                    occupied((c + off).clamp(0.0, 1.0))
                });
            grid.set_cell(i, hit);
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::HashGridConfig;
    use crate::io::{decode_model_into, encode_model, Precision};
    use crate::model::{ModelConfig, NerfModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn new_grid_is_empty() {
        let g = OccupancyGrid::new(8, 0.01);
        assert_eq!(g.cell_count(), 512);
        assert_eq!(g.occupancy_ratio(), 0.0);
        assert!(!g.is_occupied(Vec3::splat(0.5)));
    }

    #[test]
    fn fill_sets_every_cell() {
        let mut g = OccupancyGrid::new(5, 0.01); // 125 cells, not a multiple of 64
        g.fill();
        assert_eq!(g.occupancy_ratio(), 1.0);
        assert_eq!(g.occupied_cells().count(), 125);
    }

    #[test]
    fn set_and_query_round_trip() {
        let mut g = OccupancyGrid::new(4, 0.0);
        let p = Vec3::new(0.9, 0.1, 0.4);
        let idx = g.cell_index(p).unwrap();
        assert!(!g.is_occupied(p));
        g.set_cell(idx, true);
        assert!(g.is_occupied(p));
        g.set_cell(idx, false);
        assert!(!g.is_occupied(p));
    }

    #[test]
    fn points_outside_cube_are_never_occupied() {
        let mut g = OccupancyGrid::new(4, 0.0);
        g.fill();
        assert!(g.cell_index(Vec3::new(-0.1, 0.5, 0.5)).is_none());
        assert!(g.cell_index(Vec3::new(0.5, 1.1, 0.5)).is_none());
        assert!(!g.is_occupied(Vec3::splat(2.0)));
        // Boundary points belong to the cube.
        assert!(g.is_occupied(Vec3::ZERO));
        assert!(g.is_occupied(Vec3::ONE));
    }

    #[test]
    fn cell_center_round_trips_through_index() {
        let g = OccupancyGrid::new(6, 0.0);
        for i in [0, 1, 7, 35, 100, 215] {
            let c = g.cell_center(i);
            assert_eq!(g.cell_index(c), Some(i), "center of cell {i} maps back");
        }
    }

    #[test]
    fn update_marks_dense_region() {
        let mut g = OccupancyGrid::new(8, 0.5);
        let mut rng = SmallRng::seed_from_u64(1);
        // Density 10 inside a central ball of radius 0.25, zero outside.
        let density = |p: Vec3| {
            if p.distance(Vec3::splat(0.5)) < 0.25 {
                10.0
            } else {
                0.0
            }
        };
        g.update(density, 0.95, &mut rng);
        assert!(g.is_occupied(Vec3::splat(0.5)), "ball center occupied");
        assert!(!g.is_occupied(Vec3::new(0.05, 0.05, 0.05)), "corner empty");
        let ratio = g.occupancy_ratio();
        assert!(ratio > 0.01 && ratio < 0.35, "ratio {ratio} out of range");
    }

    #[test]
    fn update_decay_eventually_clears_cells() {
        let mut g = OccupancyGrid::new(4, 0.5);
        let mut rng = SmallRng::seed_from_u64(2);
        g.update(|_| 10.0, 0.5, &mut rng);
        assert_eq!(g.occupancy_ratio(), 1.0);
        // Density source disappears; EMA decays below threshold.
        for _ in 0..10 {
            g.update(|_| 0.0, 0.5, &mut rng);
        }
        assert_eq!(g.occupancy_ratio(), 0.0);
    }

    #[test]
    fn oracle_construction() {
        let g = OccupancyGrid::from_oracle(16, 0.0, |p| p.x < 0.5);
        assert!(g.is_occupied(Vec3::new(0.1, 0.5, 0.5)));
        assert!(!g.is_occupied(Vec3::new(0.9, 0.5, 0.5)));
        // Roughly half the cells are occupied (boundary cells inflate
        // the count slightly because corners are also tested).
        let r = g.occupancy_ratio();
        assert!(r > 0.45 && r < 0.65, "ratio {r}");
    }

    /// The summary recounted from the bits alone.
    fn recounted_blocks(g: &OccupancyGrid) -> Vec<u8> {
        let r = g.resolution() as usize;
        let blocks = r.div_ceil(BLOCK);
        // Cells of one axis within one cell of block `b`.
        let near = |b: usize| (b * BLOCK).saturating_sub(1)..(b * BLOCK + BLOCK + 1).min(r);
        let mut out = Vec::new();
        for bz in 0..blocks {
            for by in 0..blocks {
                for bx in 0..blocks {
                    let mut count = 0;
                    for z in near(bz) {
                        for y in near(by) {
                            for x in near(bx) {
                                count += u8::from(g.is_cell_occupied(x + r * (y + r * z)));
                            }
                        }
                    }
                    out.push(count);
                }
            }
        }
        out
    }

    fn assert_summary_in_sync(g: &OccupancyGrid, step: &str) {
        assert_eq!(
            g.blocks,
            recounted_blocks(g),
            "res {}: summary out of sync after {step}",
            g.resolution()
        );
    }

    #[test]
    fn summary_matches_a_recount_after_every_write() {
        let mut rng = SmallRng::seed_from_u64(11);
        for r in [1u32, 2, 5, 7, 24, 25] {
            let mut g = OccupancyGrid::new(r, 0.5);
            assert_summary_in_sync(&g, "new");
            // Every corner and face-centre cell on, then off again.
            let (m, e) = (r / 2, r - 1);
            let mut edges: Vec<[u32; 3]> =
                (0..8).map(|k| [(k & 1) * e, (k >> 1 & 1) * e, (k >> 2 & 1) * e]).collect();
            edges.extend([[0, m, m], [e, m, m], [m, 0, m], [m, e, m], [m, m, 0], [m, m, e]]);
            for on in [true, false] {
                for &[x, y, z] in &edges {
                    g.set_cell((x + r * (y + r * z)) as usize, on);
                    assert_summary_in_sync(&g, "a face or corner write");
                }
            }
            // Random on/off writes, repeats of the current value included.
            for _ in 0..300 {
                g.set_cell(rng.gen_range(0..g.cell_count()), rng.gen_bool(0.6));
                assert_summary_in_sync(&g, "a random write");
            }
            let random_bits: Vec<usize> = g.occupied_cells().collect();
            g.fill();
            assert_summary_in_sync(&g, "fill");
            // A density that decays: each update clears more cells.
            for step in 0..6 {
                let radius = 0.6 - 0.1 * step as f32;
                let density = |p: Vec3| if p.distance(Vec3::ZERO) < radius { 1.0 } else { 0.0 };
                g.update(density, 0.3, &mut rng);
                assert_summary_in_sync(&g, "update");
            }
            let oracle = OccupancyGrid::from_oracle(r, 0.0, |p| p.x + p.y * p.z < 0.4);
            assert_summary_in_sync(&oracle, "from_oracle");

            let mut random = OccupancyGrid::new(r, 0.0);
            for &i in &random_bits {
                random.set_cell(i, true);
            }
            let model = NerfModel::new(
                ModelConfig {
                    grid: HashGridConfig {
                        levels: 2,
                        features_per_level: 2,
                        log2_table_size: 6,
                        base_resolution: 2,
                        max_resolution: 4,
                    },
                    hidden_dim: 4,
                    geo_feature_dim: 2,
                },
                &mut rng,
            );
            for grid in [&random, &oracle] {
                let bytes = encode_model(&model, grid, Precision::F16);
                let mut shell = model.clone();
                let decoded = decode_model_into(&bytes, &mut shell).expect("decode");
                assert_eq!(decoded.bits, grid.bits);
                assert_summary_in_sync(&decoded, "decode");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_cell_rejects_out_of_range() {
        let mut g = OccupancyGrid::new(2, 0.0);
        g.set_cell(8, true);
    }
}
