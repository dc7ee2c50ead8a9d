//! Multiresolution hash-grid feature encoding (Stage II of the NeRF
//! pipeline).
//!
//! A [`HashGrid`] stores `L` levels of feature tables. Each level `l`
//! covers the normalized model cube `[0,1]^3` with a virtual grid of
//! resolution `N_l` (growing geometrically from `base_resolution` to
//! `max_resolution`) and stores `F` features per vertex in a table of
//! `2^log2_table_size` entries. Querying a point gathers the eight
//! surrounding vertices on every level, trilinearly interpolates their
//! features, and concatenates the per-level results.
//!
//! The forward pass (inference) *aggregates* features; the backward
//! pass (training) *distributes* gradients back onto the same eight
//! vertices — the symmetric workload pair that motivates the paper's
//! shared reconfigurable interpolation array (Technique T2-1).

use crate::dirty::DirtyBlocks;
use crate::hash::{
    cell_corners, dense_index, level_is_dense, vertex_address, GridVertex, HASH_PRIMES,
};
use crate::math::Vec3;
use rand::Rng;

/// Reusable corner-address and trilinear-weight buffers shared by the
/// batched encoding kernels.
///
/// [`HashGrid::interpolate_batch`] fills the buffers level-major
/// (entry `(level * n + point) * 8 + corner`) and
/// [`HashGrid::backward_batch`] reuses them, so the address
/// computation — `locate`, corner enumeration, dense-vs-hash branch —
/// runs once per (point, level) instead of twice. Keep one scratch per
/// worker; the kernels resize it only when the batch shape changes.
#[derive(Debug, Clone, Default)]
pub struct EncodingScratch {
    addrs: Vec<u32>,
    weights: Vec<f32>,
    prepared_points: usize,
    prepared_levels: usize,
    prepared_fingerprint: u64,
}

impl EncodingScratch {
    /// Creates an empty scratch sized lazily on first use.
    pub fn new() -> Self {
        EncodingScratch::default()
    }

    /// Total buffer capacity in elements, for the hot-loop
    /// allocation-freedom debug assertion.
    #[cfg(debug_assertions)]
    pub(crate) fn capacity(&self) -> usize {
        self.addrs.capacity() + self.weights.capacity()
    }

    /// Reserves capacity for `points * levels * 8` corner entries
    /// without touching the buffers' contents, so corners a forward
    /// pass prepared stay valid for the backward pass.
    pub(crate) fn reserve_for(&mut self, points: usize, levels: usize) {
        let need = points * levels * 8;
        self.addrs.reserve(need.saturating_sub(self.addrs.len()));
        self.weights.reserve(need.saturating_sub(self.weights.len()));
    }

    /// Sizes the buffers for `points * levels * 8` corner entries and
    /// marks them unprepared.
    fn resize_for(&mut self, points: usize, levels: usize) {
        let need = points * levels * 8;
        if self.addrs.len() != need {
            self.addrs.resize(need, 0);
        }
        if self.weights.len() != need {
            self.weights.resize(need, 0.0);
        }
        self.prepared_points = 0;
        self.prepared_levels = 0;
        self.prepared_fingerprint = 0;
    }

    /// Sizes the buffers for a one-level encoding's corners of
    /// `positions` and returns them, to be filled with each point's
    /// eight corner addresses and weights (entry `point * 8 + corner`):
    /// the record a [`Encoding::mark_written`] reads back through
    /// [`EncodingScratch::prepared_addrs`].
    pub(crate) fn record_one_level(&mut self, positions: &[Vec3]) -> (&mut [u32], &mut [f32]) {
        self.resize_for(positions.len(), 1);
        self.prepared_points = positions.len();
        self.prepared_levels = 1;
        self.prepared_fingerprint = position_fingerprint(positions);
        (&mut self.addrs, &mut self.weights)
    }

    /// The corner addresses of the prepared batch, level-major.
    pub(crate) fn prepared_addrs(&self) -> &[u32] {
        &self.addrs[..self.prepared_points * self.prepared_levels * 8]
    }
}

/// A cheap order-sensitive fingerprint of a position batch, used to
/// detect whether an [`EncodingScratch`] still describes the batch a
/// backward pass is asked about (so forward work is reused when it
/// matches and recomputed — never trusted — when it does not).
fn position_fingerprint(positions: &[Vec3]) -> u64 {
    match (positions.first(), positions.last()) {
        (Some(a), Some(b)) => {
            let mix = |v: Vec3| {
                (v.x.to_bits() as u64)
                    ^ ((v.y.to_bits() as u64) << 21)
                    ^ ((v.z.to_bits() as u64) << 42)
            };
            (positions.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ mix(*a)
                ^ mix(*b).rotate_left(17)
        }
        _ => 0,
    }
}

/// Addresses and trilinear weights of the eight corners of the cell
/// at `base` with fractional position `frac`, in the corner order of
/// [`cell_corners`].
///
/// The eight corner addresses share their per-axis terms, so they are
/// assembled from three products instead of calling
/// [`vertex_address`] eight times. Under wrapping arithmetic
/// `(y+1)·π₂ = y·π₂ + π₂`, so every address is bit-identical to the
/// scalar `spatial_hash` / `dense_index` result; the weight factors
/// multiply in exactly the order of the scalar `corner_weight`.
/// Points staged per block by the fused batched forward pass.
const ENC_BLOCK: usize = 16;

/// Per-axis SoA staging for a block of located points: base vertex
/// coordinates and fractional offsets, one lane per point.
///
/// Splitting `locate` out of the gather loop lets the compiler
/// vectorize its conversion-heavy body (clamp, scale, float→int
/// truncate, frac) across the block, which would otherwise serialize
/// against the latency-bound table gathers.
struct LocateBlock {
    bx: [u32; ENC_BLOCK],
    by: [u32; ENC_BLOCK],
    bz: [u32; ENC_BLOCK],
    fx: [f32; ENC_BLOCK],
    fy: [f32; ENC_BLOCK],
    fz: [f32; ENC_BLOCK],
}

impl LocateBlock {
    fn new() -> Self {
        LocateBlock {
            bx: [0; ENC_BLOCK],
            by: [0; ENC_BLOCK],
            bz: [0; ENC_BLOCK],
            fx: [0.0; ENC_BLOCK],
            fy: [0.0; ENC_BLOCK],
            fz: [0.0; ENC_BLOCK],
        }
    }

    /// Locates up to [`ENC_BLOCK`] points at one level. `q as u32`
    /// truncates exactly like `q.floor() as u32` for the clamped
    /// (non-negative, saturating for NaN) coordinates, so every lane
    /// is bit-identical to the scalar `locate`.
    fn locate(&mut self, pts: &[Vec3], res_f: f32, max_base: u32) {
        for (j, &p) in pts.iter().enumerate() {
            let q = p.clamp(0.0, 1.0) * res_f;
            let cx = (q.x as u32).min(max_base);
            let cy = (q.y as u32).min(max_base);
            let cz = (q.z as u32).min(max_base);
            self.bx[j] = cx;
            self.by[j] = cy;
            self.bz[j] = cz;
            self.fx[j] = (q.x - cx as f32).clamp(0.0, 1.0);
            self.fy[j] = (q.y - cy as f32).clamp(0.0, 1.0);
            self.fz[j] = (q.z - cz as f32).clamp(0.0, 1.0);
        }
    }

    #[inline]
    fn base(&self, j: usize) -> GridVertex {
        [self.bx[j], self.by[j], self.bz[j]]
    }

    #[inline]
    fn frac(&self, j: usize) -> Vec3 {
        Vec3::new(self.fx[j], self.fy[j], self.fz[j])
    }
}

#[inline(always)]
fn corner_addrs_weights(
    base: GridVertex,
    frac: Vec3,
    dense: bool,
    res: u32,
    mask: u32,
) -> ([u32; 8], [f32; 8]) {
    let mut addrs = [0u32; 8];
    if dense {
        let base_idx = dense_index(base, res);
        let dy = res + 1;
        let dz = dy * dy;
        for (i, a) in addrs.iter_mut().enumerate() {
            *a = base_idx
                + (i as u32 & 1)
                + if i & 2 == 0 { 0 } else { dy }
                + if i & 4 == 0 { 0 } else { dz };
        }
    } else {
        let hx0 = base[0].wrapping_mul(HASH_PRIMES[0]);
        let hx = [hx0, hx0.wrapping_add(HASH_PRIMES[0])];
        let hy0 = base[1].wrapping_mul(HASH_PRIMES[1]);
        let hy = [hy0, hy0.wrapping_add(HASH_PRIMES[1])];
        let hz0 = base[2].wrapping_mul(HASH_PRIMES[2]);
        let hz = [hz0, hz0.wrapping_add(HASH_PRIMES[2])];
        for (i, a) in addrs.iter_mut().enumerate() {
            *a = (hx[i & 1] ^ hy[(i >> 1) & 1] ^ hz[(i >> 2) & 1]) & mask;
        }
    }
    let wx = [1.0 - frac.x, frac.x];
    let wy = [1.0 - frac.y, frac.y];
    let wz = [1.0 - frac.z, frac.z];
    // The XY outer product is shared between the two Z faces; each
    // weight is still the scalar `corner_weight`'s `(wx * wy) * wz`
    // with the same left association, just with the common factor
    // computed once and in shuffle-free lane order.
    let wxy = [wx[0] * wy[0], wx[1] * wy[0], wx[0] * wy[1], wx[1] * wy[1]];
    let weights = [
        wxy[0] * wz[0],
        wxy[1] * wz[0],
        wxy[2] * wz[0],
        wxy[3] * wz[0],
        wxy[0] * wz[1],
        wxy[1] * wz[1],
        wxy[2] * wz[1],
        wxy[3] * wz[1],
    ];
    (addrs, weights)
}

/// A spatial feature encoding: a learnable map from points in the
/// normalized model cube to feature vectors, with an explicit backward
/// pass.
///
/// The crate ships two implementations: the multiresolution
/// [`HashGrid`] (Instant-NGP, the paper's primary target) and the
/// dense voxel grid of [`crate::dense_grid::DenseGrid`]
/// (TensoRF/RT-NeRF-class). [`crate::model::NerfModel`] is generic
/// over this trait, which is what lets the paper's modules transfer
/// across NeRF pipelines (Sec. VI-C).
///
/// `Send + Sync` is required so models can be shared immutably across
/// the worker threads of [`fusion3d_par::Pool`] during parallel
/// rendering and sharded-gradient training.
pub trait Encoding: std::fmt::Debug + Send + Sync {
    /// Dimension of the encoded feature vector.
    fn output_dim(&self) -> usize;

    /// `(dense_levels, hashed_levels)` of the encoding's gather
    /// structure: dense levels resolve every eight-corner fetch inside
    /// a contiguous per-level row (the local case), hashed levels
    /// scatter corners across the table (the conflict-prone case the
    /// chip's two-level tiling targets). Drives the probed render's
    /// gather counts.
    fn gather_locality(&self) -> (usize, usize);

    /// Encodes point `p` into `out` (length [`Encoding::output_dim`]).
    ///
    /// # Panics
    ///
    /// Implementations panic if `out` has the wrong length.
    fn interpolate(&self, p: Vec3, out: &mut [f32]);

    /// Scatters `d_out` (gradient w.r.t. the encoded features) into
    /// `grads` (length [`Encoding::param_count`]).
    ///
    /// # Panics
    ///
    /// Implementations panic on buffer size mismatches.
    fn backward(&self, p: Vec3, d_out: &[f32], grads: &mut [f32]);

    /// Encodes a batch of points into `out`, point-major: the row of
    /// `positions[i]` is `out[i * output_dim() .. (i + 1) * output_dim()]`.
    ///
    /// The default implementation loops the scalar
    /// [`Encoding::interpolate`]. Overrides may batch however they
    /// like but must stay **bitwise-identical** to that scalar loop —
    /// the determinism contract the `reference` module's differential
    /// tests enforce.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != positions.len() * output_dim()`.
    fn interpolate_batch(
        &self,
        positions: &[Vec3],
        out: &mut [f32],
        _scratch: &mut EncodingScratch,
    ) {
        let dim = self.output_dim();
        assert_eq!(out.len(), positions.len() * dim, "output buffer size mismatch");
        for (p, row) in positions.iter().zip(out.chunks_exact_mut(dim)) {
            self.interpolate(*p, row);
        }
    }

    /// Encodes a batch of points into `out` like
    /// [`Encoding::interpolate_batch`], but retains nothing for a
    /// backward pass — the pure-forward variant inference pipelines
    /// use, needing no scratch. Same bitwise contract: identical to
    /// looping the scalar [`Encoding::interpolate`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != positions.len() * output_dim()`.
    fn interpolate_batch_infer(&self, positions: &[Vec3], out: &mut [f32]) {
        let dim = self.output_dim();
        assert_eq!(out.len(), positions.len() * dim, "output buffer size mismatch");
        for (p, row) in positions.iter().zip(out.chunks_exact_mut(dim)) {
            self.interpolate(*p, row);
        }
    }

    /// Scatters a batch of feature gradients (`d_out`, point-major as
    /// in [`Encoding::interpolate_batch`]) into `grads`, accumulating
    /// in point order. Same bitwise contract as the forward batch:
    /// identical to looping the scalar [`Encoding::backward`].
    ///
    /// # Panics
    ///
    /// Panics on buffer size mismatches.
    fn backward_batch(
        &self,
        positions: &[Vec3],
        d_out: &[f32],
        grads: &mut [f32],
        scratch: &mut EncodingScratch,
    );

    /// Reserves `scratch`'s capacity for a batch of `n` points so the
    /// batched kernels never grow a buffer inside their per-sample
    /// loops. Capacity only: corners a forward pass prepared stay
    /// valid.
    fn reserve_batch_scratch(&self, scratch: &mut EncodingScratch, n: usize);

    /// Marks in `dirty` (over a gradient buffer of
    /// [`Encoding::param_count`] floats) every block the last
    /// [`Encoding::backward_batch`] with `scratch` wrote, so sparse
    /// gradient merges know what to visit.
    fn mark_written(&self, scratch: &EncodingScratch, dirty: &mut DirtyBlocks);

    /// Number of learnable parameters.
    fn param_count(&self) -> usize;

    /// Immutable view of the parameters.
    fn params(&self) -> &[f32];

    /// Mutable view of the parameters.
    fn params_mut(&mut self) -> &mut [f32];
}

/// Configuration of a multiresolution hash grid.
///
/// # Examples
///
/// ```
/// use fusion3d_nerf::encoding::HashGridConfig;
///
/// let cfg = HashGridConfig::default();
/// assert_eq!(cfg.output_dim(), cfg.levels * cfg.features_per_level);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashGridConfig {
    /// Number of resolution levels `L`.
    pub levels: usize,
    /// Features stored per vertex `F`.
    pub features_per_level: usize,
    /// Table size exponent: each level holds `2^log2_table_size`
    /// feature vectors.
    pub log2_table_size: u32,
    /// Coarsest virtual grid resolution `N_min`.
    pub base_resolution: u32,
    /// Finest virtual grid resolution `N_max`.
    pub max_resolution: u32,
}

impl Default for HashGridConfig {
    /// A mid-size configuration suitable for fast tests and examples:
    /// 8 levels × 2 features, `2^14` entries per level, resolutions
    /// 16 → 256. The paper's chip stores `2 × 5 × 64 KB` of hash SRAM,
    /// matching 2-feature tables at `2^14`–`2^15` entries per level.
    fn default() -> Self {
        HashGridConfig {
            levels: 8,
            features_per_level: 2,
            log2_table_size: 14,
            base_resolution: 16,
            max_resolution: 256,
        }
    }
}

impl HashGridConfig {
    /// Output feature dimension `L * F`.
    #[inline]
    pub const fn output_dim(&self) -> usize {
        self.levels * self.features_per_level
    }

    /// Entries per level table.
    #[inline]
    pub const fn table_size(&self) -> usize {
        1usize << self.log2_table_size
    }

    /// Total number of learnable parameters.
    #[inline]
    pub const fn param_count(&self) -> usize {
        self.levels * self.table_size() * self.features_per_level
    }

    /// Total parameter storage in bytes at `f32` precision. Drives the
    /// model-size axis of Fig. 13(b) and Fig. 14(b).
    #[inline]
    pub const fn param_bytes(&self) -> usize {
        self.param_count() * core::mem::size_of::<f32>()
    }

    /// The virtual grid resolution of level `l`, growing geometrically
    /// between `base_resolution` and `max_resolution` as in
    /// Instant-NGP.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.levels`.
    pub fn level_resolution(&self, level: usize) -> u32 {
        assert!(level < self.levels, "level {level} out of range");
        if self.levels == 1 {
            return self.base_resolution;
        }
        let b = (self.max_resolution as f64 / self.base_resolution as f64)
            .powf(1.0 / (self.levels as f64 - 1.0));
        (self.base_resolution as f64 * b.powi(level as i32)).round() as u32
    }

    /// Validates the configuration, returning a description of the
    /// first problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` when any dimension is zero, the resolution range
    /// is inverted, or the table exponent exceeds 31.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels == 0 {
            return Err("levels must be at least 1".into());
        }
        if self.features_per_level == 0 {
            return Err("features_per_level must be at least 1".into());
        }
        if self.log2_table_size == 0 || self.log2_table_size > 31 {
            return Err(format!("log2_table_size must be in 1..=31, got {}", self.log2_table_size));
        }
        if self.base_resolution == 0 {
            return Err("base_resolution must be at least 1".into());
        }
        if self.max_resolution < self.base_resolution {
            return Err(format!(
                "max_resolution ({}) must be >= base_resolution ({})",
                self.max_resolution, self.base_resolution
            ));
        }
        Ok(())
    }
}

/// One feature-table access performed while encoding a point, captured
/// for the memory-subsystem simulator (bank conflicts, Level-2/3
/// tiling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureAccess {
    /// Grid level of the access.
    pub level: u8,
    /// Corner index 0..8 (bit 0 = X offset, bit 1 = Y, bit 2 = Z).
    pub corner: u8,
    /// Table address within the level.
    pub address: u32,
}

/// A trained or trainable multiresolution hash grid.
///
/// Parameters are stored level-major: level `l`'s table occupies
/// `params[l * T * F .. (l + 1) * T * F]` with `F` contiguous features
/// per vertex.
#[derive(Debug, Clone)]
pub struct HashGrid {
    config: HashGridConfig,
    resolutions: Vec<u32>,
    params: Vec<f32>,
}

impl HashGrid {
    /// Creates a grid with all features initialized to zero.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HashGridConfig::validate`].
    pub fn new(config: HashGridConfig) -> Self {
        // lint: allow(p1): documented panic — constructors reject invalid configs
        config.validate().expect("invalid hash grid config");
        let resolutions = (0..config.levels).map(|l| config.level_resolution(l)).collect();
        HashGrid { config, resolutions, params: vec![0.0; config.param_count()] }
    }

    /// Creates a grid with features drawn uniformly from
    /// `[-1e-4, 1e-4]`, the Instant-NGP initialization.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HashGridConfig::validate`].
    pub fn with_random_init<R: Rng>(config: HashGridConfig, rng: &mut R) -> Self {
        let mut grid = HashGrid::new(config);
        for p in grid.params.iter_mut() {
            *p = rng.gen_range(-1e-4..1e-4);
        }
        grid
    }

    /// The grid's configuration.
    #[inline]
    pub fn config(&self) -> &HashGridConfig {
        &self.config
    }

    /// The virtual resolution of each level.
    #[inline]
    pub fn resolutions(&self) -> &[u32] {
        &self.resolutions
    }

    /// Immutable view of the parameter vector.
    #[inline]
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable view of the parameter vector (used by the optimizer).
    #[inline]
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Number of learnable parameters.
    #[inline]
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    #[inline]
    fn level_offset(&self, level: usize) -> usize {
        level * self.config.table_size() * self.config.features_per_level
    }

    /// Computes the cell base vertex and trilinear weights of `p` on
    /// `level`. `p` is clamped into `[0,1]^3`.
    fn locate(&self, level: usize, p: Vec3) -> (GridVertex, Vec3) {
        debug_assert!(level < self.resolutions.len(), "level out of range");
        let res = self.resolutions[level] as f32;
        let q = p.clamp(0.0, 1.0) * res;
        // Clamp the base so that base+1 stays within the virtual grid.
        let max_base = self.resolutions[level].saturating_sub(1);
        let bx = (q.x.floor() as u32).min(max_base);
        let by = (q.y.floor() as u32).min(max_base);
        let bz = (q.z.floor() as u32).min(max_base);
        let frac = Vec3::new(q.x - bx as f32, q.y - by as f32, q.z - bz as f32).clamp(0.0, 1.0);
        ([bx, by, bz], frac)
    }

    /// The trilinear weight of corner `i` for fractional position `w`.
    #[inline]
    fn corner_weight(frac: Vec3, i: usize) -> f32 {
        let wx = if i & 1 == 0 { 1.0 - frac.x } else { frac.x };
        let wy = if i & 2 == 0 { 1.0 - frac.y } else { frac.y };
        let wz = if i & 4 == 0 { 1.0 - frac.z } else { frac.z };
        wx * wy * wz
    }

    /// Encodes point `p` (normalized coordinates) into `out`, which
    /// must have length [`HashGridConfig::output_dim`]: size the buffer
    /// once, reuse it per point.
    ///
    /// # Examples
    ///
    /// ```
    /// use fusion3d_nerf::encoding::{Encoding, HashGrid, HashGridConfig};
    /// use fusion3d_nerf::math::Vec3;
    ///
    /// let grid = HashGrid::new(HashGridConfig::default());
    /// let mut features = vec![0.0; grid.config().output_dim()];
    /// grid.interpolate(Vec3::splat(0.5), &mut features);
    /// assert_eq!(features.len(), grid.output_dim());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.config().output_dim()`.
    pub fn interpolate(&self, p: Vec3, out: &mut [f32]) {
        assert_eq!(out.len(), self.config.output_dim(), "output buffer size mismatch");
        let f = self.config.features_per_level;
        for level in 0..self.config.levels {
            let (base, frac) = self.locate(level, p);
            let corners = cell_corners(base);
            let level_out = &mut out[level * f..(level + 1) * f];
            level_out.fill(0.0);
            let offset = self.level_offset(level);
            for (i, &corner) in corners.iter().enumerate() {
                let w = Self::corner_weight(frac, i);
                let addr =
                    vertex_address(corner, self.resolutions[level], self.config.log2_table_size)
                        as usize;
                let slot = offset + addr * f;
                for (o, &v) in level_out.iter_mut().zip(&self.params[slot..slot + f]) {
                    *o += w * v;
                }
            }
        }
    }

    /// Fills `scratch` with the corner addresses and trilinear weights
    /// of every (point, level) pair, **level-major**: all points of
    /// level 0 first, then level 1, and so on. The per-level
    /// dense-vs-hashed addressing decision is hoisted out of the point
    /// loop, and the per-axis weight factors are computed once per
    /// point and combined per corner in exactly the order of the
    /// scalar `corner_weight`, so downstream gathers/scatters stay
    /// bitwise-identical to the scalar kernels.
    fn prepare_batch_scratch(&self, positions: &[Vec3], scratch: &mut EncodingScratch) {
        let n = positions.len();
        let levels = self.config.levels;
        scratch.resize_for(n, levels);
        for level in 0..levels {
            let res = self.resolutions[level];
            let dense = level_is_dense(res, self.config.log2_table_size);
            let level_base = level * n * 8;
            let mask = (1u32 << self.config.log2_table_size) - 1;
            for (s, &p) in positions.iter().enumerate() {
                let (base, frac) = self.locate(level, p);
                let (addrs, weights) = corner_addrs_weights(base, frac, dense, res, mask);
                let entry = level_base + s * 8;
                scratch.addrs[entry..entry + 8].copy_from_slice(&addrs);
                scratch.weights[entry..entry + 8].copy_from_slice(&weights);
            }
        }
        scratch.prepared_points = n;
        scratch.prepared_levels = levels;
        scratch.prepared_fingerprint = position_fingerprint(positions);
    }

    /// One level of the fused f==2 forward pass over the whole batch.
    ///
    /// Points run through in [`ENC_BLOCK`]-sized blocks: a SoA locate
    /// pass vectorizes the coordinate conversions, then the gather
    /// consumes the block four points at a time — eight independent
    /// accumulation chains keep the latency-bound dependent loads
    /// overlapped. Each chain still adds corner-ascending, so blocking
    /// and interleaving change scheduling, not bits.
    ///
    /// The gather indexes a per-level table slice with re-masked
    /// addresses: `addr & mask` is a value no-op (hashed addresses are
    /// already masked; dense levels fit inside the table by
    /// definition) that lets the compiler prove `slot + 1` in bounds
    /// and drop the per-load bounds checks.
    ///
    /// With `SPILL`, the corner addresses and weights are also written
    /// to the level's `spill_addrs` / `spill_weights` slabs (each
    /// `n * 8` entries, `point * 8 + corner`) for a later
    /// [`HashGrid::backward_batch`]; inference skips the stores
    /// entirely.
    fn interpolate_level_f2<const SPILL: bool>(
        &self,
        level: usize,
        positions: &[Vec3],
        out: &mut [f32],
        spill_addrs: &mut [u32],
        spill_weights: &mut [f32],
    ) {
        let n = positions.len();
        let dim = self.config.output_dim();
        let col = level * 2;
        let res = self.resolutions[level];
        let dense = level_is_dense(res, self.config.log2_table_size);
        let mask = (1u32 << self.config.log2_table_size) - 1;
        let offset = self.level_offset(level);
        let table = &self.params[offset..offset + (mask as usize + 1) * 2];
        let mask_us = mask as usize;
        // Last valid pair-base slot. Clamping each gather index to it is
        // a value no-op (masked addresses never exceed it) that lets the
        // compiler prove `slot + 1 < table.len()` and drop the
        // per-corner bounds checks, replacing 2 branches per corner
        // with one branch-free `min`.
        let last = table.len() - 2;
        let res_f = res as f32;
        let max_base = res.saturating_sub(1);
        let mut block = LocateBlock::new();
        let mut s0 = 0usize;
        while s0 < n {
            let m = (n - s0).min(ENC_BLOCK);
            block.locate(&positions[s0..s0 + m], res_f, max_base);
            const GATHER_WIDTH: usize = 4;
            let mut j = 0usize;
            while j + GATHER_WIDTH <= m {
                let s = s0 + j;
                let cw: [([u32; 8], [f32; 8]); GATHER_WIDTH] = [
                    corner_addrs_weights(block.base(j), block.frac(j), dense, res, mask),
                    corner_addrs_weights(block.base(j + 1), block.frac(j + 1), dense, res, mask),
                    corner_addrs_weights(block.base(j + 2), block.frac(j + 2), dense, res, mask),
                    corner_addrs_weights(block.base(j + 3), block.frac(j + 3), dense, res, mask),
                ];
                if SPILL {
                    let entry = s * 8;
                    for (p, (aa, wa)) in cw.iter().enumerate() {
                        spill_addrs[entry + p * 8..entry + p * 8 + 8].copy_from_slice(aa);
                        spill_weights[entry + p * 8..entry + p * 8 + 8].copy_from_slice(wa);
                    }
                }
                let mut acc = [[0.0f32; 2]; GATHER_WIDTH];
                for i in 0..8 {
                    for (p, (aa, wa)) in cw.iter().enumerate() {
                        let slot = ((aa[i] as usize & mask_us) * 2).min(last);
                        acc[p][0] += wa[i] * table[slot];
                        acc[p][1] += wa[i] * table[slot + 1];
                    }
                }
                for (p, a) in acc.iter().enumerate() {
                    out[(s + p) * dim + col] = a[0];
                    out[(s + p) * dim + col + 1] = a[1];
                }
                j += GATHER_WIDTH;
            }
            while j < m {
                let s = s0 + j;
                let (addrs, weights) =
                    corner_addrs_weights(block.base(j), block.frac(j), dense, res, mask);
                if SPILL {
                    let entry = s * 8;
                    spill_addrs[entry..entry + 8].copy_from_slice(&addrs);
                    spill_weights[entry..entry + 8].copy_from_slice(&weights);
                }
                let mut a0 = 0.0f32;
                let mut a1 = 0.0f32;
                for (&addr, &w) in addrs.iter().zip(&weights) {
                    let slot = ((addr as usize & mask_us) * 2).min(last);
                    a0 += w * table[slot];
                    a1 += w * table[slot + 1];
                }
                out[s * dim + col] = a0;
                out[s * dim + col + 1] = a1;
                j += 1;
            }
            s0 += m;
        }
    }

    /// Batched [`HashGrid::interpolate`] for inference: encodes
    /// `positions` into `out` (point-major rows of `output_dim`
    /// features), iterating **level-major** so each level's feature
    /// table stays cache-resident across the whole batch. Unlike
    /// [`HashGrid::interpolate_batch`], nothing is retained for a
    /// backward pass — the pure-forward counterpart of the scalar
    /// kernel, used by the render pipeline.
    ///
    /// Bitwise-identical to looping the scalar kernel over the batch.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != positions.len() * output_dim()`.
    pub fn interpolate_batch_infer(&self, positions: &[Vec3], out: &mut [f32]) {
        let dim = self.config.output_dim();
        let n = positions.len();
        assert_eq!(out.len(), n * dim, "output buffer size mismatch");
        if self.config.features_per_level == 2 {
            for level in 0..self.config.levels {
                self.interpolate_level_f2::<false>(level, positions, out, &mut [], &mut []);
            }
        } else {
            for (p, row) in positions.iter().zip(out.chunks_exact_mut(dim)) {
                self.interpolate(*p, row);
            }
        }
    }

    /// Batched [`HashGrid::interpolate`]: encodes `positions` into
    /// `out` (point-major rows of `output_dim` features), iterating
    /// **level-major** so each level's feature table stays
    /// cache-resident across the whole batch. The corner addresses and
    /// weights are left in `scratch` for a following
    /// [`HashGrid::backward_batch`] on the same positions; inference
    /// paths that never run a backward should use
    /// [`HashGrid::interpolate_batch_infer`] instead.
    ///
    /// Bitwise-identical to looping the scalar kernel over the batch.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != positions.len() * output_dim()`.
    pub fn interpolate_batch(
        &self,
        positions: &[Vec3],
        out: &mut [f32],
        scratch: &mut EncodingScratch,
    ) {
        let dim = self.config.output_dim();
        let n = positions.len();
        assert_eq!(out.len(), n * dim, "output buffer size mismatch");
        let levels = self.config.levels;
        scratch.resize_for(n, levels);
        let f = self.config.features_per_level;
        // One fused level-major pass: the corner addresses and weights
        // are computed in registers, spilled to `scratch` for a later
        // `backward_batch`, and consumed by the gather immediately —
        // the forward path never reads them back from memory.
        for level in 0..levels {
            let res = self.resolutions[level];
            let dense = level_is_dense(res, self.config.log2_table_size);
            let mask = (1u32 << self.config.log2_table_size) - 1;
            let offset = self.level_offset(level);
            let level_base = level * n * 8;
            let col = level * f;
            if f == 2 {
                self.interpolate_level_f2::<true>(
                    level,
                    positions,
                    out,
                    &mut scratch.addrs[level_base..level_base + n * 8],
                    &mut scratch.weights[level_base..level_base + n * 8],
                );
            } else {
                for (s, &p) in positions.iter().enumerate() {
                    let (base, frac) = self.locate(level, p);
                    let (addrs, weights) = corner_addrs_weights(base, frac, dense, res, mask);
                    let entry = level_base + s * 8;
                    scratch.addrs[entry..entry + 8].copy_from_slice(&addrs);
                    scratch.weights[entry..entry + 8].copy_from_slice(&weights);
                    let row = &mut out[s * dim + col..s * dim + col + f];
                    row.fill(0.0);
                    for (&addr, &w) in addrs.iter().zip(&weights) {
                        let slot = offset + addr as usize * f;
                        for (o, &v) in row.iter_mut().zip(&self.params[slot..slot + f]) {
                            *o += w * v;
                        }
                    }
                }
            }
        }
        scratch.prepared_points = n;
        scratch.prepared_levels = levels;
        scratch.prepared_fingerprint = position_fingerprint(positions);
    }

    /// Batched [`HashGrid::backward`]: scatters point-major feature
    /// gradients `d_out` into `grads`, level-major, reusing the corner
    /// addresses/weights a preceding [`HashGrid::interpolate_batch`]
    /// left in `scratch` (they are recomputed if the scratch does not
    /// match `positions`). Accumulation order per table slot equals
    /// the scalar loop's — point-ascending, corner-ascending — so the
    /// result is bitwise-identical.
    ///
    /// # Panics
    ///
    /// Panics on buffer size mismatches.
    pub fn backward_batch(
        &self,
        positions: &[Vec3],
        d_out: &[f32],
        grads: &mut [f32],
        scratch: &mut EncodingScratch,
    ) {
        let dim = self.config.output_dim();
        let n = positions.len();
        assert_eq!(d_out.len(), n * dim, "gradient buffer size mismatch");
        assert_eq!(grads.len(), self.params.len(), "parameter gradient size mismatch");
        if scratch.prepared_points != n
            || scratch.prepared_levels != self.config.levels
            || scratch.prepared_fingerprint != position_fingerprint(positions)
        {
            self.prepare_batch_scratch(positions, scratch);
        }
        let f = self.config.features_per_level;
        for level in 0..self.config.levels {
            let offset = self.level_offset(level);
            let level_base = level * n * 8;
            let col = level * f;
            if f == 2 {
                // Same re-masked per-level slice as the forward
                // gather, eliminating the per-store bounds checks.
                let mask = (1u32 << self.config.log2_table_size) - 1;
                let table = &mut grads[offset..offset + (mask as usize + 1) * 2];
                for s in 0..n {
                    let entry = level_base + s * 8;
                    let addrs = &scratch.addrs[entry..entry + 8];
                    let weights = &scratch.weights[entry..entry + 8];
                    let d0 = d_out[s * dim + col];
                    let d1 = d_out[s * dim + col + 1];
                    for (&addr, &w) in addrs.iter().zip(weights) {
                        let slot = (addr & mask) as usize * 2;
                        table[slot] += w * d0;
                        table[slot + 1] += w * d1;
                    }
                }
            } else {
                for s in 0..n {
                    let entry = level_base + s * 8;
                    let d_level = &d_out[s * dim + col..s * dim + col + f];
                    for c in 0..8 {
                        let w = scratch.weights[entry + c];
                        let slot = offset + scratch.addrs[entry + c] as usize * f;
                        for (g, &d) in grads[slot..slot + f].iter_mut().zip(d_level) {
                            *g += w * d;
                        }
                    }
                }
            }
        }
    }

    /// Backward pass: scatters `d_out` (gradient w.r.t. the encoded
    /// features, length `output_dim`) into `grads` (gradient buffer of
    /// length [`HashGrid::param_count`]) using the same trilinear
    /// weights as the forward pass.
    ///
    /// # Panics
    ///
    /// Panics on buffer size mismatches.
    pub fn backward(&self, p: Vec3, d_out: &[f32], grads: &mut [f32]) {
        assert_eq!(d_out.len(), self.config.output_dim(), "gradient buffer size mismatch");
        assert_eq!(grads.len(), self.params.len(), "parameter gradient size mismatch");
        let f = self.config.features_per_level;
        for level in 0..self.config.levels {
            let (base, frac) = self.locate(level, p);
            let corners = cell_corners(base);
            let d_level = &d_out[level * f..(level + 1) * f];
            let offset = self.level_offset(level);
            for (i, &corner) in corners.iter().enumerate() {
                let w = Self::corner_weight(frac, i);
                let addr =
                    vertex_address(corner, self.resolutions[level], self.config.log2_table_size)
                        as usize;
                let slot = offset + addr * f;
                for (g, &d) in grads[slot..slot + f].iter_mut().zip(d_level) {
                    *g += w * d;
                }
            }
        }
    }

    /// Records the table accesses the encoding of `p` performs, for
    /// the memory-subsystem simulator. Appends `8 * levels` entries to
    /// `trace`.
    pub fn record_accesses(&self, p: Vec3, trace: &mut Vec<FeatureAccess>) {
        for level in 0..self.config.levels {
            let (base, _) = self.locate(level, p);
            for (i, &corner) in cell_corners(base).iter().enumerate() {
                trace.push(FeatureAccess {
                    level: level as u8,
                    corner: i as u8,
                    address: vertex_address(
                        corner,
                        self.resolutions[level],
                        self.config.log2_table_size,
                    ),
                });
            }
        }
    }
}

impl Encoding for HashGrid {
    fn output_dim(&self) -> usize {
        self.config.output_dim()
    }

    fn gather_locality(&self) -> (usize, usize) {
        let dense = self
            .resolutions
            .iter()
            .filter(|&&res| level_is_dense(res, self.config.log2_table_size))
            .count();
        (dense, self.config.levels - dense)
    }

    fn interpolate(&self, p: Vec3, out: &mut [f32]) {
        HashGrid::interpolate(self, p, out);
    }

    fn backward(&self, p: Vec3, d_out: &[f32], grads: &mut [f32]) {
        HashGrid::backward(self, p, d_out, grads);
    }

    fn interpolate_batch(
        &self,
        positions: &[Vec3],
        out: &mut [f32],
        scratch: &mut EncodingScratch,
    ) {
        HashGrid::interpolate_batch(self, positions, out, scratch);
    }

    fn interpolate_batch_infer(&self, positions: &[Vec3], out: &mut [f32]) {
        HashGrid::interpolate_batch_infer(self, positions, out);
    }

    fn backward_batch(
        &self,
        positions: &[Vec3],
        d_out: &[f32],
        grads: &mut [f32],
        scratch: &mut EncodingScratch,
    ) {
        HashGrid::backward_batch(self, positions, d_out, grads, scratch);
    }

    fn reserve_batch_scratch(&self, scratch: &mut EncodingScratch, n: usize) {
        scratch.reserve_for(n, self.config.levels);
    }

    /// Marks the feature slots of every corner in the spill: the
    /// addresses [`HashGrid::backward_batch`] scattered into.
    fn mark_written(&self, scratch: &EncodingScratch, dirty: &mut DirtyBlocks) {
        let n = scratch.prepared_points;
        if n == 0 {
            return;
        }
        let f = self.config.features_per_level;
        let levels = scratch.addrs.chunks_exact(n * 8).take(scratch.prepared_levels);
        for (level, corners) in levels.enumerate() {
            dirty.mark_slots(self.level_offset(level), f, corners);
        }
    }

    fn param_count(&self) -> usize {
        HashGrid::param_count(self)
    }

    fn params(&self) -> &[f32] {
        HashGrid::params(self)
    }

    fn params_mut(&mut self) -> &mut [f32] {
        HashGrid::params_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_config() -> HashGridConfig {
        HashGridConfig {
            levels: 4,
            features_per_level: 2,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 32,
        }
    }

    /// Allocating per-point encode.
    fn encode(grid: &HashGrid, p: Vec3) -> Vec<f32> {
        let mut out = vec![0.0; grid.config().output_dim()];
        grid.interpolate(p, &mut out);
        out
    }

    #[test]
    fn config_dimensions() {
        let cfg = small_config();
        assert_eq!(cfg.output_dim(), 8);
        assert_eq!(cfg.table_size(), 1024);
        assert_eq!(cfg.param_count(), 4 * 1024 * 2);
        assert_eq!(cfg.param_bytes(), cfg.param_count() * 4);
    }

    #[test]
    fn resolutions_grow_geometrically() {
        let cfg = small_config();
        let rs: Vec<u32> = (0..cfg.levels).map(|l| cfg.level_resolution(l)).collect();
        assert_eq!(rs.first(), Some(&4));
        assert_eq!(rs.last(), Some(&32));
        for w in rs.windows(2) {
            assert!(w[1] > w[0], "resolutions must strictly increase: {rs:?}");
        }
    }

    #[test]
    fn single_level_resolution() {
        let cfg = HashGridConfig { levels: 1, ..small_config() };
        assert_eq!(cfg.level_resolution(0), cfg.base_resolution);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(HashGridConfig { levels: 0, ..small_config() }.validate().is_err());
        assert!(HashGridConfig { features_per_level: 0, ..small_config() }.validate().is_err());
        assert!(HashGridConfig { log2_table_size: 0, ..small_config() }.validate().is_err());
        assert!(HashGridConfig { log2_table_size: 40, ..small_config() }.validate().is_err());
        assert!(HashGridConfig { base_resolution: 0, ..small_config() }.validate().is_err());
        assert!(HashGridConfig { max_resolution: 2, ..small_config() }.validate().is_err());
        assert!(small_config().validate().is_ok());
    }

    #[test]
    fn zero_grid_encodes_to_zero() {
        let grid = HashGrid::new(small_config());
        let out = encode(&grid, Vec3::splat(0.3));
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn constant_table_interpolates_to_constant() {
        // If every vertex stores the same value, trilinear
        // interpolation must return exactly that value (weights sum
        // to 1).
        let mut grid = HashGrid::new(small_config());
        for p in grid.params_mut() {
            *p = 0.75;
        }
        for p in [Vec3::splat(0.1), Vec3::splat(0.5), Vec3::new(0.9, 0.2, 0.7)] {
            let out = encode(&grid, p);
            for v in out {
                assert!((v - 0.75).abs() < 1e-5, "expected 0.75, got {v}");
            }
        }
    }

    #[test]
    fn interpolation_is_continuous_across_cell_boundaries() {
        let mut rng = SmallRng::seed_from_u64(7);
        let grid = HashGrid::with_random_init(small_config(), &mut rng);
        // Query two points straddling a cell boundary on the coarsest
        // level; the encoded features must be close.
        let eps = 1e-5;
        let a = encode(&grid, Vec3::new(0.25 - eps, 0.4, 0.4));
        let b = encode(&grid, Vec3::new(0.25 + eps, 0.4, 0.4));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "discontinuity: {x} vs {y}");
        }
    }

    #[test]
    fn out_of_range_points_are_clamped() {
        let mut rng = SmallRng::seed_from_u64(3);
        let grid = HashGrid::with_random_init(small_config(), &mut rng);
        let inside = encode(&grid, Vec3::new(0.0, 1.0, 0.5));
        let outside = encode(&grid, Vec3::new(-2.0, 5.0, 0.5));
        assert_eq!(inside, outside);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut grid = HashGrid::with_random_init(small_config(), &mut rng);
        let p = Vec3::new(0.31, 0.62, 0.18);
        let dim = grid.config().output_dim();
        // Loss = sum of outputs; dL/dout = ones.
        let d_out = vec![1.0f32; dim];
        let mut grads = vec![0.0f32; grid.param_count()];
        grid.backward(p, &d_out, &mut grads);

        // Check a handful of parameters with central differences.
        let mut checked = 0;
        let candidates: Vec<usize> =
            grads.iter().enumerate().filter(|(_, g)| g.abs() > 1e-4).map(|(i, _)| i).collect();
        for &i in candidates.iter().take(16) {
            let h = 1e-3f32;
            let orig = grid.params()[i];
            grid.params_mut()[i] = orig + h;
            let up: f32 = encode(&grid, p).iter().sum();
            grid.params_mut()[i] = orig - h;
            let down: f32 = encode(&grid, p).iter().sum();
            grid.params_mut()[i] = orig;
            let fd = (up - down) / (2.0 * h);
            assert!(
                (fd - grads[i]).abs() < 1e-3,
                "param {i}: finite diff {fd} vs analytic {}",
                grads[i]
            );
            checked += 1;
        }
        assert!(checked > 0, "no nonzero gradients found");
    }

    #[test]
    fn access_trace_has_expected_shape() {
        let grid = HashGrid::new(small_config());
        let mut trace = Vec::new();
        grid.record_accesses(Vec3::splat(0.4), &mut trace);
        assert_eq!(trace.len(), 8 * grid.config().levels);
        for a in &trace {
            assert!((a.level as usize) < grid.config().levels);
            assert!(a.corner < 8);
            assert!(
                (a.address as usize)
                    < grid
                        .config()
                        .table_size()
                        .max((grid.resolutions()[a.level as usize] as usize + 1).pow(3))
            );
        }
    }

    #[test]
    #[should_panic(expected = "output buffer size mismatch")]
    fn interpolate_rejects_wrong_buffer() {
        let grid = HashGrid::new(small_config());
        let mut out = vec![0.0; 3];
        grid.interpolate(Vec3::ZERO, &mut out);
    }
}
