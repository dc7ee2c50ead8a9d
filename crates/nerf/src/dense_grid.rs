//! Dense voxel-grid feature encoding — the TensoRF/RT-NeRF-class
//! alternative to the multiresolution hash grid.
//!
//! A [`DenseGrid`] stores features at every vertex of a single
//! `resolution^3` grid, addressed directly (no hashing, no
//! collisions). It implements the same [`Encoding`] interface as
//! [`crate::encoding::HashGrid`], which is what lets the paper's
//! Sampling and Post-Processing modules transfer to TensoRF-style
//! pipelines (Sec. VI-C) and lets the MoE Level-1 tiling wrap either
//! representation.
//!
//! [`Encoding`]: crate::encoding::Encoding

use crate::dirty::DirtyBlocks;
use crate::encoding::{Encoding, EncodingScratch};
use crate::hash::{cell_corners, dense_index};
use crate::math::{Aabb, Vec3};
use rand::Rng;

/// Configuration of a dense voxel grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseGridConfig {
    /// Grid resolution per axis (vertices per axis = resolution + 1).
    pub resolution: u32,
    /// Features stored per vertex.
    pub features_per_vertex: usize,
}

impl Default for DenseGridConfig {
    /// A 32³ grid with 4 features per vertex — TensoRF-class capacity
    /// at test-friendly scale.
    fn default() -> Self {
        DenseGridConfig { resolution: 32, features_per_vertex: 4 }
    }
}

impl DenseGridConfig {
    /// Number of grid vertices.
    pub const fn vertex_count(&self) -> usize {
        let v = self.resolution as usize + 1;
        v * v * v
    }

    /// Total learnable parameters.
    pub const fn param_count(&self) -> usize {
        self.vertex_count() * self.features_per_vertex
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.resolution == 0 {
            return Err("resolution must be at least 1".into());
        }
        if self.resolution > 512 {
            return Err(format!(
                "resolution {} would allocate {} vertices; cap is 512",
                self.resolution,
                (self.resolution as u64 + 1).pow(3)
            ));
        }
        if self.features_per_vertex == 0 {
            return Err("features_per_vertex must be at least 1".into());
        }
        Ok(())
    }
}

/// A dense trilinearly-interpolated feature grid over a configurable
/// spatial domain.
///
/// By default the grid spans the whole normalized model cube; scoping
/// it to a sub-box via [`DenseGrid::with_domain`] concentrates its
/// fixed vertex budget on that region — how each expert of a
/// dense-grid (TensoRF-class) MoE dedicates its capacity to its own
/// part of the scene.
#[derive(Debug, Clone)]
pub struct DenseGrid {
    config: DenseGridConfig,
    domain: Aabb,
    params: Vec<f32>,
}

impl DenseGrid {
    /// Creates a zero-initialized grid over the whole model cube.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DenseGridConfig::validate`].
    pub fn new(config: DenseGridConfig) -> Self {
        DenseGrid::with_domain(config, Aabb::unit_cube())
    }

    /// Creates a zero-initialized grid covering only `domain` (queries
    /// outside clamp to the domain boundary).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DenseGridConfig::validate`].
    pub fn with_domain(config: DenseGridConfig, domain: Aabb) -> Self {
        // lint: allow(p1): documented panic — constructors reject invalid configs
        config.validate().expect("invalid dense grid config");
        DenseGrid { config, domain, params: vec![0.0; config.param_count()] }
    }

    /// Creates a grid with features drawn uniformly from
    /// `[-1e-4, 1e-4]`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_random_init<R: Rng>(config: DenseGridConfig, rng: &mut R) -> Self {
        let mut grid = DenseGrid::new(config);
        for p in grid.params.iter_mut() {
            *p = rng.gen_range(-1e-4..1e-4);
        }
        grid
    }

    /// [`DenseGrid::with_random_init`] over a sub-domain.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_random_init_in_domain<R: Rng>(
        config: DenseGridConfig,
        domain: Aabb,
        rng: &mut R,
    ) -> Self {
        let mut grid = DenseGrid::with_domain(config, domain);
        for p in grid.params.iter_mut() {
            *p = rng.gen_range(-1e-4..1e-4);
        }
        grid
    }

    /// The grid configuration.
    pub fn config(&self) -> &DenseGridConfig {
        &self.config
    }

    /// The spatial domain the grid covers.
    pub fn domain(&self) -> &Aabb {
        &self.domain
    }

    /// Locates `p` (clamped to the unit cube): base vertex plus
    /// trilinear fractional position.
    fn locate(&self, p: Vec3) -> ([u32; 3], Vec3) {
        let res = self.config.resolution as f32;
        let q = self.domain.normalize_point(p).clamp(0.0, 1.0) * res;
        let max_base = self.config.resolution - 1;
        let bx = (q.x.floor() as u32).min(max_base);
        let by = (q.y.floor() as u32).min(max_base);
        let bz = (q.z.floor() as u32).min(max_base);
        let frac = Vec3::new(q.x - bx as f32, q.y - by as f32, q.z - bz as f32).clamp(0.0, 1.0);
        ([bx, by, bz], frac)
    }

    #[inline]
    fn corner_weight(frac: Vec3, i: usize) -> f32 {
        let wx = if i & 1 == 0 { 1.0 - frac.x } else { frac.x };
        let wy = if i & 2 == 0 { 1.0 - frac.y } else { frac.y };
        let wz = if i & 4 == 0 { 1.0 - frac.z } else { frac.z };
        wx * wy * wz
    }
}

impl Encoding for DenseGrid {
    fn output_dim(&self) -> usize {
        self.config.features_per_vertex
    }

    fn gather_locality(&self) -> (usize, usize) {
        // A single fully dense level: every gather is local.
        (1, 0)
    }

    fn interpolate(&self, p: Vec3, out: &mut [f32]) {
        assert_eq!(out.len(), self.output_dim(), "output buffer size mismatch");
        out.fill(0.0);
        let (base, frac) = self.locate(p);
        let f = self.config.features_per_vertex;
        for (i, &corner) in cell_corners(base).iter().enumerate() {
            let w = Self::corner_weight(frac, i);
            let slot = dense_index(corner, self.config.resolution) as usize * f;
            for (o, &v) in out.iter_mut().zip(&self.params[slot..slot + f]) {
                *o += w * v;
            }
        }
    }

    fn backward(&self, p: Vec3, d_out: &[f32], grads: &mut [f32]) {
        assert_eq!(d_out.len(), self.output_dim(), "gradient buffer size mismatch");
        assert_eq!(grads.len(), self.params.len(), "parameter gradient size mismatch");
        let (base, frac) = self.locate(p);
        let f = self.config.features_per_vertex;
        for (i, &corner) in cell_corners(base).iter().enumerate() {
            let w = Self::corner_weight(frac, i);
            let slot = dense_index(corner, self.config.resolution) as usize * f;
            for (g, &d) in grads[slot..slot + f].iter_mut().zip(d_out) {
                *g += w * d;
            }
        }
    }

    /// The scalar [`Encoding::backward`] per point, in point order,
    /// recording each point's corner vertices and weights in `scratch`
    /// as the hash grid's forward does; [`Encoding::mark_written`]
    /// reads the vertices back.
    fn backward_batch(
        &self,
        positions: &[Vec3],
        d_out: &[f32],
        grads: &mut [f32],
        scratch: &mut EncodingScratch,
    ) {
        let f = self.config.features_per_vertex;
        assert_eq!(d_out.len(), positions.len() * f, "gradient buffer size mismatch");
        assert_eq!(grads.len(), self.params.len(), "parameter gradient size mismatch");
        let (addrs, weights) = scratch.record_one_level(positions);
        let records = addrs.chunks_exact_mut(8).zip(weights.chunks_exact_mut(8));
        for ((&p, d), (addrs, weights)) in positions.iter().zip(d_out.chunks_exact(f)).zip(records)
        {
            let (base, frac) = self.locate(p);
            for (i, &corner) in cell_corners(base).iter().enumerate() {
                let w = Self::corner_weight(frac, i);
                let vertex = dense_index(corner, self.config.resolution);
                (addrs[i], weights[i]) = (vertex, w);
                let slot = vertex as usize * f;
                for (g, &d) in grads[slot..slot + f].iter_mut().zip(d) {
                    *g += w * d;
                }
            }
        }
    }

    fn reserve_batch_scratch(&self, scratch: &mut EncodingScratch, n: usize) {
        scratch.reserve_for(n, 1);
    }

    /// Marks the feature slots of the corner vertices the last
    /// [`Encoding::backward_batch`] recorded: the vertices it wrote.
    fn mark_written(&self, scratch: &EncodingScratch, dirty: &mut DirtyBlocks) {
        dirty.mark_slots(0, self.config.features_per_vertex, scratch.prepared_addrs());
    }

    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small() -> DenseGridConfig {
        DenseGridConfig { resolution: 8, features_per_vertex: 3 }
    }

    #[test]
    fn config_counts() {
        let c = small();
        assert_eq!(c.vertex_count(), 9 * 9 * 9);
        assert_eq!(c.param_count(), 9 * 9 * 9 * 3);
        assert!(c.validate().is_ok());
        assert!(DenseGridConfig { resolution: 0, ..c }.validate().is_err());
        assert!(DenseGridConfig { features_per_vertex: 0, ..c }.validate().is_err());
        assert!(DenseGridConfig { resolution: 1000, ..c }.validate().is_err());
    }

    #[test]
    fn constant_grid_interpolates_to_constant() {
        let mut grid = DenseGrid::new(small());
        for p in grid.params_mut() {
            *p = 0.25;
        }
        for probe in [Vec3::splat(0.1), Vec3::splat(0.77), Vec3::new(0.0, 1.0, 0.5)] {
            let mut out = vec![0.0; 3];
            grid.interpolate(probe, &mut out);
            for v in out {
                assert!((v - 0.25).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn interpolation_is_exact_at_vertices() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut grid = DenseGrid::with_random_init(small(), &mut rng);
        // Set a distinctive feature at vertex (2, 3, 4).
        let idx = dense_index([2, 3, 4], 8) as usize * 3;
        grid.params_mut()[idx] = 0.875;
        let p = Vec3::new(2.0 / 8.0, 3.0 / 8.0, 4.0 / 8.0);
        let mut out = vec![0.0; 3];
        grid.interpolate(p, &mut out);
        assert!((out[0] - 0.875).abs() < 1e-5, "vertex sample {}", out[0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut grid = DenseGrid::with_random_init(small(), &mut rng);
        let p = Vec3::new(0.41, 0.13, 0.77);
        let d_out = vec![1.0f32, -0.5, 2.0];
        let mut grads = vec![0.0f32; grid.param_count()];
        grid.backward(p, &d_out, &mut grads);
        let loss = |g: &DenseGrid| {
            let mut out = vec![0.0; 3];
            g.interpolate(p, &mut out);
            out[0] - 0.5 * out[1] + 2.0 * out[2]
        };
        let h = 1e-3;
        let nonzero: Vec<usize> =
            grads.iter().enumerate().filter(|(_, g)| g.abs() > 1e-4).map(|(i, _)| i).collect();
        assert!(!nonzero.is_empty());
        for &i in nonzero.iter().take(12) {
            let orig = grid.params()[i];
            grid.params_mut()[i] = orig + h;
            let up = loss(&grid);
            grid.params_mut()[i] = orig - h;
            let down = loss(&grid);
            grid.params_mut()[i] = orig;
            let fd = (up - down) / (2.0 * h);
            assert!((fd - grads[i]).abs() < 1e-3, "param {i}: {fd} vs {}", grads[i]);
        }
    }

    #[test]
    fn dense_grid_has_no_collisions() {
        // Unlike the hash grid, distinct cells never share storage:
        // writing one vertex leaves far-away queries untouched.
        let mut grid = DenseGrid::new(small());
        let idx = dense_index([0, 0, 0], 8) as usize;
        grid.params_mut()[idx] = 1.0;
        let mut out = vec![0.0; 3];
        grid.interpolate(Vec3::splat(0.9), &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "distant cell affected: {out:?}");
    }

    #[test]
    fn scoped_domain_concentrates_resolution() {
        // A grid scoped to the lower-X half maps its full resolution
        // onto that half: two points that fall in the same cell of an
        // unscoped grid land in different cells of the scoped one.
        let cfg = DenseGridConfig { resolution: 4, features_per_vertex: 1 };
        let domain = Aabb::new(Vec3::ZERO, Vec3::new(0.5, 1.0, 1.0));
        let mut scoped = DenseGrid::with_domain(cfg, domain);
        let idx = dense_index([1, 0, 0], 4) as usize;
        scoped.params_mut()[idx] = 1.0;
        // In domain coordinates x scales by 2: world x = 0.125 is
        // vertex 1 of the scoped grid.
        let mut out = [0.0f32];
        scoped.interpolate(Vec3::new(0.125, 0.0, 0.0), &mut out);
        assert!((out[0] - 1.0).abs() < 1e-6, "scoped vertex sample {}", out[0]);
        // Queries outside the domain clamp to its boundary.
        let mut edge = [0.0f32];
        scoped.interpolate(Vec3::new(0.5, 0.0, 0.0), &mut edge);
        let mut beyond = [0.0f32];
        scoped.interpolate(Vec3::new(0.9, 0.0, 0.0), &mut beyond);
        assert_eq!(edge, beyond);
    }

    #[test]
    fn out_of_range_points_clamp() {
        let mut rng = SmallRng::seed_from_u64(3);
        let grid = DenseGrid::with_random_init(small(), &mut rng);
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        grid.interpolate(Vec3::new(1.0, 0.5, 0.0), &mut a);
        grid.interpolate(Vec3::new(7.0, 0.5, -3.0), &mut b);
        assert_eq!(a, b);
    }
}
