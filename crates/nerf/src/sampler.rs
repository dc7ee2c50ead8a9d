//! Stage I: point sampling along rays.
//!
//! The sampler implements the algorithmic side of Technique T1:
//!
//! * **Model normalization & partitioning** (T1-1): rays are tested
//!   against the eight octant cubes of the normalized model space.
//!   Every octant bound is one of the planes 0, ½ and 1, so one
//!   reciprocal per axis and nine plane crossings give all eight spans;
//!   only valid ray–cube pairs proceed ([`ray_cube_pairs`]).
//! * Within each valid pair, points are marched at a fixed step and
//!   filtered through the occupancy grid, so only points in non-empty
//!   space reach Stages II/III.
//! * **Dynamic workload scheduling** (T1-2): a row of rays is marched
//!   sixteen at a time, one ray per lane, and a lane takes its ray's
//!   next pair, or the next ray, the moment its pair ends — the host
//!   analogue of the sampling cores' refill.
//!
//! Per-pair job lengths ([`PairJob`]) are counted for the accelerator
//! simulator, whose dynamic workload scheduler dispatches whole rays
//! onto sampling cores. [`crate::pipeline::trace_frame`] counts them
//! with the lane kernel; [`sample_ray`]'s [`RayWorkload`] is its oracle.
//! Calls that march one ray ([`sample_ray_into`], and training's Stage
//! I, which appends a shard's rays one by one) keep the scalar march:
//! a lone ray would leave fifteen lanes idle.

use std::ops::Range;

use crate::batch::SampleBatch;
use crate::math::{Ray, TSpan, Vec3};
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
/// of the lane kernel behind [`crate::pipeline::trace_frame`].
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

/// A ray's valid ray–octant pairs, front to back: at most one per
/// octant.
type OctantPairs = [(u8, TSpan); 8];

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
    let (pairs, count) = octant_pairs(ray);
    out.clear();
    out.extend_from_slice(&pairs[..count]);
}

/// The valid ray–octant pairs of `ray`, front to back, and their
/// count.
///
/// Each octant's span is what [`crate::math::Aabb::intersect_general`]
/// gives for it, bit for bit, at three divides per ray instead of
/// twenty-four. Every octant bound is exactly 0, ½ or 1, so an
/// octant's slab on one axis is a half-slab between two of those
/// planes, and its crossings are the same floats the general solve
/// computes: `(plane − o) · (1 / d)`. Each span intersects its three
/// half-slabs in axis order, with the general solve's inclusive test
/// for an axis-parallel ray. Pairs are then ordered by entry with the
/// same stable sort over octant order.
fn octant_pairs(ray: &Ray) -> (OctantPairs, usize) {
    const PLANES: [f32; 3] = [0.0, 0.5, 1.0];
    let unbounded = TSpan::new(f32::NEG_INFINITY, f32::INFINITY);
    // Per axis, the ray's span in the lower and the upper half-slab, or
    // `None` when it misses one. An axis-parallel ray inside a
    // half-slab is not bounded by it: intersecting with `unbounded`
    // leaves a span's bits as they are.
    let mut halves = [[None; 2]; 3];
    for (axis, halves) in halves.iter_mut().enumerate() {
        let (o, d) = (ray.origin[axis], ray.direction[axis]);
        if d == 0.0 {
            for (half, slab) in halves.iter_mut().enumerate() {
                let outside = o < PLANES[half] || o > PLANES[half + 1];
                *slab = (!outside).then_some(unbounded);
            }
        } else {
            let inv = 1.0 / d;
            let cross = PLANES.map(|plane| (plane - o) * inv);
            for (half, slab) in halves.iter_mut().enumerate() {
                let (t0, t1) = (cross[half], cross[half + 1]);
                *slab = Some(TSpan::new(t0.min(t1), t0.max(t1)));
            }
        }
    }
    let mut pairs = [(0, TSpan::EMPTY); 8];
    let mut count = 0;
    for octant in 0..8u8 {
        let mut span = Some(unbounded);
        for (axis, halves) in halves.iter().enumerate() {
            let half = halves[usize::from(octant >> axis & 1)];
            span = span.zip(half).map(|(span, slab)| span.intersect(&slab));
        }
        if let Some(span) = span.filter(TSpan::is_valid) {
            pairs[count] = (octant, span.clamped_to_front());
            count += 1;
        }
    }
    pairs[..count].sort_by(|a, b| a.1.t_near.total_cmp(&b.1.t_near));
    (pairs, count)
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

/// [`sample_ray`] marching into a caller-owned [`SampleBatch`]
/// (cleared first) and skipping the workload bookkeeping — the
/// allocation-free Stage-I entry point for one ray. Produces exactly
/// the `t`/`δt`/position sequence of [`sample_ray`]; per-cube
/// statistics stay with the tracing path. It takes fewer steps: the
/// occupancy grid's empty-space summary lets it skip spans and span
/// tails that hold no sample, which [`sample_ray`] and the trace walk
/// still march because their step counts are the sampling cores' job
/// lengths.
pub fn sample_ray_into(
    ray: &Ray,
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
    out: &mut SampleBatch,
) {
    out.clear();
    append_ray_samples(ray, occupancy, config, out);
}

/// [`sample_ray_into`] without the clear: appends the ray's samples
/// behind those `out` already holds, capped at
/// `config.max_samples_per_ray` for this ray alone. Training's Stage I
/// gathers a group of rays into one batch this way.
pub(crate) fn append_ray_samples(
    ray: &Ray,
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
    out: &mut SampleBatch,
) {
    let first = out.len();
    let (pairs, count) = octant_pairs(ray);
    let dt = config.step();
    'pairs: for &(cube, span) in &pairs[..count] {
        let Some(end) = sampled_end(occupancy, ray, cube, span) else { continue };
        // Same lattice as `sample_ray`: first sample half a step into
        // the span, empty-cell DDA skips land back on the lattice.
        let t0 = span.t_near + dt * 0.5;
        let mut t = t0;
        while t < end {
            let p = ray.at(t);
            if occupancy.is_occupied(p) {
                // lint: allow(h2): amortized — caller-owned
                // SampleBatch cleared per ray within capacity
                out.push(t, dt, p);
                if out.len() - first >= config.max_samples_per_ray {
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
}

/// Where a march that keeps samples can stop in `span`, `ray`'s pair
/// with octant `cube`, or `None` when the pair holds no sample.
///
/// Past the span's last non-empty summary block no lattice point lies
/// in an occupied cell, so the march ends there; a span with no such
/// block is skipped whole. The head is not skipped: where a march
/// lands after empty cells depends on its chain of cell exits, so only
/// marching from `t0` gives the same points.
fn sampled_end(occupancy: &OccupancyGrid, ray: &Ray, cube: u8, span: TSpan) -> Option<f32> {
    let exit = occupancy.last_occupied_block_exit(ray, cube, span)?;
    Some(span.t_far.min(exit))
}

/// Rays the lane kernel marches in lockstep: sixteen `f32` lanes fill
/// one 512-bit or two 256-bit vectors per operation of a step.
const LANES: usize = 16;

/// What the lane kernel does with the marches it runs. It calls these
/// only from its scalar parts: the sample loop and the refill.
trait Emit {
    /// Whether [`Emit::keep`] records anything; the kernel skips its
    /// per-sample loop when it does not.
    const KEEPS_SAMPLES: bool;
    /// Where the march over `span`, `ray`'s pair with octant `cube`,
    /// ends, or `None` to skip the pair.
    fn march_end(&self, ray: &Ray, cube: u8, span: TSpan) -> Option<f32>;
    /// A retained sample, at `t`, of the ray that `lane` marches.
    fn keep(&mut self, lane: usize, t: f32);
    /// One marched pair of row ray `ray`, in marching order.
    fn pair_done(&mut self, ray: usize, job: PairJob);
    /// The end of row ray `ray`, marched by `lane`, which validly
    /// intersects `valid_pairs` octants.
    fn ray_done(&mut self, lane: usize, ray: usize, valid_pairs: u8);
}

/// `Lanes::ray` of a lane that has not taken a ray yet.
const NO_RAY: usize = usize::MAX;

/// Structure-of-arrays state of the lane kernel: per lane, its ray,
/// the ray's pairs and the pair it marches.
struct Lanes {
    /// The march step.
    dt: f32,
    /// Ray origins and directions, one array per axis.
    origin: [[f32; LANES]; 3],
    direction: [[f32; LANES]; 3],
    /// Row index of each lane's ray.
    ray: [usize; LANES],
    /// Each ray's valid pairs, their count and the next to march.
    pairs: [OctantPairs; LANES],
    pair_count: [u8; LANES],
    next_pair: [u8; LANES],
    /// The pair being marched: its lattice origin, the current sample
    /// parameter and the march's end.
    t0: [f32; LANES],
    t: [f32; LANES],
    end: [f32; LANES],
    /// The pair's job so far.
    steps: [u16; LANES],
    samples: [u16; LANES],
    lattice_steps: [u16; LANES],
    /// Samples the ray has retained over all of its pairs.
    retained: [usize; LANES],
}

impl Lanes {
    fn idle(dt: f32) -> Self {
        Lanes {
            dt,
            origin: [[0.0; LANES]; 3],
            direction: [[0.0; LANES]; 3],
            ray: [NO_RAY; LANES],
            pairs: [[(0, TSpan::EMPTY); 8]; LANES],
            pair_count: [0; LANES],
            next_pair: [0; LANES],
            t0: [0.0; LANES],
            t: [0.0; LANES],
            end: [0.0; LANES],
            steps: [0; LANES],
            samples: [0; LANES],
            lattice_steps: [0; LANES],
            retained: [0; LANES],
        }
    }

    /// Hands `lane` its next pair to march: the next of its ray's
    /// pairs, or else the first of the next ray of `rays`. Pairs whose
    /// first lattice point lies past their end are done at once, with
    /// no step, as in the scalar march. Returns `false`, leaving the
    /// lane idle, when no ray is left.
    fn refill<E: Emit>(
        &mut self,
        lane: usize,
        rays: &[Ray],
        next_ray: &mut usize,
        emit: &mut E,
    ) -> bool {
        let dt = self.dt;
        loop {
            while self.next_pair[lane] < self.pair_count[lane] {
                let (cube, span) = self.pairs[lane][usize::from(self.next_pair[lane])];
                self.next_pair[lane] += 1;
                let Some(end) = emit.march_end(&rays[self.ray[lane]], cube, span) else {
                    continue;
                };
                let lattice_steps = (span.length() / dt).ceil().min(u16::MAX as f32) as u16;
                let t0 = span.t_near + dt * 0.5;
                if t0 < end {
                    (self.t0[lane], self.t[lane], self.end[lane]) = (t0, t0, end);
                    (self.steps[lane], self.samples[lane]) = (0, 0);
                    self.lattice_steps[lane] = lattice_steps;
                    return true;
                }
                emit.pair_done(self.ray[lane], PairJob { samples: 0, steps: 0, lattice_steps });
            }
            if self.ray[lane] != NO_RAY {
                emit.ray_done(lane, self.ray[lane], self.pair_count[lane]);
            }
            let Some(ray) = rays.get(*next_ray) else { return false };
            self.ray[lane] = *next_ray;
            *next_ray += 1;
            for axis in 0..3 {
                self.origin[axis][lane] = ray.origin[axis];
                self.direction[axis][lane] = ray.direction[axis];
            }
            let (pairs, count) = octant_pairs(ray);
            (self.pairs[lane], self.pair_count[lane]) = (pairs, count as u8);
            self.next_pair[lane] = 0;
            self.retained[lane] = 0;
        }
    }
}

/// The lane kernel: marches `rays` as [`sample_ray`] does, sixteen at a
/// time, and reports every marched pair, retained sample and finished
/// ray to `emit`.
///
/// Each step runs on all lanes, lane-major and without a branch, so
/// LLVM emits it as vector code: the sample point, its cell, both
/// successors of `t` (the occupied `t + δt` and the empty cell's DDA
/// skip, [`OccupancyGrid::cell_exit_t`] then the lattice re-landing),
/// and a select by occupancy. Only the occupancy lookup, the retained
/// samples and the refill of lanes whose pair ended are scalar. Every
/// lane runs the scalar march's IEEE operations in the scalar order —
/// Rust never contracts them into fused multiply-adds — so every `t`,
/// position and count is bit-identical to [`sample_ray`]'s.
// Each line of the step is a loop over the lanes that indexes several
// arrays: the form LLVM turns into vector instructions.
#[allow(clippy::needless_range_loop)]
fn march_lanes<E: Emit>(
    rays: &[Ray],
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
    emit: &mut E,
) {
    let dt = config.step();
    let cap = config.max_samples_per_ray;
    let res = occupancy.resolution();
    let (r, size) = (res as f32, occupancy.cell_size());
    let mut lanes = Lanes::idle(dt);
    let mut next_ray = 0;
    let mut active = 0u32;
    for lane in 0..LANES {
        if lanes.refill(lane, rays, &mut next_ray, emit) {
            active |= 1 << lane;
        }
    }
    while active != 0 {
        let (o, d, t, t0) = (&lanes.origin, &lanes.direction, &lanes.t, &lanes.t0);
        // `ray.at(t)`, and the point scaled to cell units.
        let mut p = [[0.0f32; LANES]; 3];
        let mut coord = [[0.0f32; LANES]; 3];
        for axis in 0..3 {
            for l in 0..LANES {
                p[axis][l] = o[axis][l] + d[axis][l] * t[l];
                coord[axis][l] = p[axis][l] * r;
            }
        }
        // `cell_index`: whether the point lies in the cube, and the cell
        // of its clamped coordinates (in range even for a point outside).
        let mut inside = [true; LANES];
        let mut cell = [0u32; LANES];
        for l in 0..LANES {
            let [x, y, z] = [0, 1, 2].map(|axis| (coord[axis][l] as u32).min(res - 1));
            cell[l] = x + res * (y + res * z);
            for axis in 0..3 {
                inside[l] &= (0.0 <= p[axis][l]) & (p[axis][l] <= 1.0);
            }
        }
        // `cell_exit_t`: the nearest cell-plane crossing ahead on the
        // axes the ray moves along, or one cell on from a point outside
        // the grid or with no crossing ahead.
        let mut exit = [f32::INFINITY; LANES];
        for axis in 0..3 {
            for l in 0..LANES {
                let (dl, c) = (d[axis][l], coord[axis][l]);
                let boundary = if dl > 0.0 { c.floor() + 1.0 } else { c.ceil() - 1.0 };
                let t_axis = t[l] + (boundary / r - p[axis][l]) / dl;
                let ahead = (dl != 0.0) & (t_axis > t[l]);
                exit[l] = if ahead { exit[l].min(t_axis) } else { exit[l] };
            }
        }
        // The empty cell's successor: the first lattice point past the
        // exit, and at least one step on.
        let mut skip = [0.0f32; LANES];
        for l in 0..LANES {
            let found = inside[l] & exit[l].is_finite() & (exit[l] > t[l]);
            let exit = if found { exit[l] } else { t[l] + size };
            let k = ((exit - t0[l]) / dt).floor() + 1.0;
            skip[l] = (t0[l] + k * dt).max(t[l] + dt);
        }
        let mut occupied = [false; LANES];
        for l in 0..LANES {
            occupied[l] = inside[l] & occupancy.is_cell_occupied(cell[l] as usize);
        }

        let mut kept = 0u32;
        for l in 0..LANES {
            lanes.steps[l] = lanes.steps[l].saturating_add(1);
            lanes.samples[l] = lanes.samples[l].wrapping_add(u16::from(occupied[l]));
            lanes.retained[l] += usize::from(occupied[l]);
            kept |= u32::from(occupied[l]) << l;
        }
        kept &= active;
        if E::KEEPS_SAMPLES {
            let mut lanes_kept = kept;
            while lanes_kept != 0 {
                let l = lanes_kept.trailing_zeros() as usize;
                lanes_kept &= lanes_kept - 1;
                emit.keep(l, lanes.t[l]);
            }
        }
        // Advance, and find the lanes whose pair ended: no longer before
        // its end, or at the sample cap, which also ends the ray.
        let mut marching = 0u32;
        let mut capped = 0u32;
        for l in 0..LANES {
            lanes.t[l] = if occupied[l] { lanes.t[l] + dt } else { skip[l] };
            marching |= u32::from(lanes.t[l] < lanes.end[l]) << l;
            capped |= u32::from(lanes.retained[l] >= cap) << l;
        }
        capped &= kept;
        let mut done = (!marching | capped) & active;
        while done != 0 {
            let lane = done.trailing_zeros() as usize;
            done &= done - 1;
            let job = PairJob {
                samples: lanes.samples[lane],
                steps: lanes.steps[lane],
                lattice_steps: lanes.lattice_steps[lane],
            };
            emit.pair_done(lanes.ray[lane], job);
            if capped >> lane & 1 == 1 {
                lanes.next_pair[lane] = lanes.pair_count[lane];
            }
            if !lanes.refill(lane, rays, &mut next_ray, emit) {
                active &= !(1 << lane);
            }
        }
    }
}

/// One ray's marched pairs, held by [`count_rays`] until its row ends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HeldRay {
    valid_pairs: u8,
    marched: u8,
    /// At most one marched pair per octant.
    jobs: [PairJob; 8],
}

/// The lane kernel's counting emitter: per ray its valid pairs and,
/// per marched pair, its job. It marches every pair to its end.
struct Count<'a> {
    held: &'a mut [HeldRay],
}

impl Emit for Count<'_> {
    const KEEPS_SAMPLES: bool = false;

    fn march_end(&self, _: &Ray, _: u8, span: TSpan) -> Option<f32> {
        Some(span.t_far)
    }

    fn keep(&mut self, _: usize, _: f32) {}

    fn pair_done(&mut self, ray: usize, job: PairJob) {
        if let Some(held) = self.held.get_mut(ray) {
            held.jobs[usize::from(held.marched)] = job;
            held.marched += 1;
        }
    }

    fn ray_done(&mut self, _: usize, ray: usize, valid_pairs: u8) {
        if let Some(held) = self.held.get_mut(ray) {
            held.valid_pairs = valid_pairs;
        }
    }
}

/// The Stage-I trace of a row of rays: marches `rays` as
/// [`sample_ray`] does, sixteen at a time, keeping no sample, and then
/// hands each ray's valid pair count and marched [`PairJob`]s to
/// `traced`, in row order. A ray stopped by the sample cap marches
/// fewer pairs than it validly intersects, as in [`sample_ray`].
/// `held` is caller-owned scratch, reused across rows.
pub(crate) fn count_rays(
    rays: &[Ray],
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
    held: &mut Vec<HeldRay>,
    mut traced: impl FnMut(u8, &[PairJob]),
) {
    held.clear();
    held.resize(rays.len(), HeldRay::default());
    march_lanes(rays, occupancy, config, &mut Count { held });
    for ray in held.iter() {
        traced(ray.valid_pairs, &ray.jobs[..usize::from(ray.marched)]);
    }
}

/// Each lane's kept sample parameters of the ray it marches, until the
/// ray ends: the per-worker scratch of [`sample_rays`].
#[derive(Debug, Default)]
pub(crate) struct LaneSamples([Vec<f32>; LANES]);

/// The lane kernel's sample emitter: it ends each pair's march at the
/// block summary's tail bound, as [`sample_ray_into`] does, and moves
/// each finished ray's samples to the end of `out` in one piece.
struct Keep<'a, F> {
    rays: &'a [Ray],
    occupancy: &'a OccupancyGrid,
    dt: f32,
    staged: &'a mut LaneSamples,
    out: &'a mut SampleBatch,
    sampled: F,
}

impl<F: FnMut(usize, Range<usize>)> Emit for Keep<'_, F> {
    const KEEPS_SAMPLES: bool = true;

    fn march_end(&self, ray: &Ray, cube: u8, span: TSpan) -> Option<f32> {
        sampled_end(self.occupancy, ray, cube, span)
    }

    fn keep(&mut self, lane: usize, t: f32) {
        // lint: allow(h2): amortized — each lane's buffer is cleared per
        // ray within the capacity its longest ray grew
        self.staged.0[lane].push(t);
    }

    fn pair_done(&mut self, _: usize, _: PairJob) {}

    fn ray_done(&mut self, lane: usize, ray: usize, _: u8) {
        let start = self.out.len();
        if let Some(marched) = self.rays.get(ray) {
            for &t in &self.staged.0[lane] {
                // The lane's sample point: `ray.at(t)` is the same
                // operations on the same floats.
                // lint: allow(h2): amortized — caller-owned row batch
                // cleared per row within capacity
                self.out.push(t, self.dt, marched.at(t));
            }
        }
        self.staged.0[lane].clear();
        (self.sampled)(ray, start..self.out.len());
    }
}

/// Stage I of a row of rays, sixteen at a time: appends each ray's
/// samples (exactly those of [`sample_ray_into`]) to `out` as one
/// contiguous range, and reports it as `sampled(ray, range)` with the
/// ray's index in `rays`. Ranges follow the order in which the rays
/// finish, not row order. `staged` is caller-owned scratch, reused
/// across rows.
pub(crate) fn sample_rays(
    rays: &[Ray],
    occupancy: &OccupancyGrid,
    config: &SamplerConfig,
    staged: &mut LaneSamples,
    out: &mut SampleBatch,
    sampled: impl FnMut(usize, Range<usize>),
) {
    let mut keep = Keep { rays, occupancy, dt: config.step(), staged, out, sampled };
    march_lanes(rays, occupancy, config, &mut keep);
}

#[cfg(test)]
#[path = "../tests/sweep/mod.rs"]
mod sweep;

#[cfg(test)]
mod tests {
    use super::sweep::{jobs_of, sweep_configs, sweep_grids, sweep_rays};
    use super::*;
    use crate::math::Aabb;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// `ray`'s pairs from the general slab solve against each octant
    /// box, ordered as `ray_cube_pairs` orders them: the oracle of the
    /// nine-plane form.
    fn general_pairs(ray: &Ray) -> Vec<(u8, TSpan)> {
        let octants = Aabb::unit_cube().octants();
        let mut pairs: Vec<(u8, TSpan)> = (0..8u8)
            .filter_map(|i| octants[usize::from(i)].intersect_general(ray).map(|span| (i, span)))
            .collect();
        pairs.sort_by(|a, b| a.1.t_near.total_cmp(&b.1.t_near));
        pairs
    }

    fn pair_bits(pairs: &[(u8, TSpan)]) -> Vec<(u8, u32, u32)> {
        pairs
            .iter()
            .map(|&(cube, span)| (cube, span.t_near.to_bits(), span.t_far.to_bits()))
            .collect()
    }

    #[test]
    fn octant_pairs_match_the_general_solve() {
        let mut rays = Vec::new();
        // Axis-parallel rays from on and between the planes 0, ½ and 1,
        // outside and inside the cube, with the other two coordinates
        // on, between and beyond those planes.
        let coords = [-0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25];
        let starts = [-1.0, 0.0, 0.3, 0.5, 0.8, 1.0, 2.0];
        for axis in 0..3 {
            for (u, v, start) in coords
                .iter()
                .flat_map(|&u| coords.iter().flat_map(move |&v| starts.map(|s| (u, v, s))))
            {
                let mut origin = [0.0; 3];
                (origin[axis], origin[(axis + 1) % 3], origin[(axis + 2) % 3]) = (start, u, v);
                let mut direction = [0.0; 3];
                for sign in [1.0, -1.0] {
                    direction[axis] = sign;
                    rays.push(Ray::new(Vec3::from(origin), Vec3::from(direction)));
                }
            }
        }
        // Edge and corner rays: from outside through every point whose
        // coordinates are all planes (corners, edge and face midpoints,
        // the centre), and along the planes' lines of intersection with
        // one or two zero components (±0), a subnormal one, or none.
        let planes = [0.0f32, 0.5, 1.0];
        let directions = [
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(-1.0, 0.0, 1.0),
            Vec3::new(0.0, -1.0, -1.0),
            Vec3::new(-0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(1e-40, 1.0, -1.0),
            Vec3::new(0.3, -0.7, 0.2),
        ];
        for x in planes {
            for y in planes {
                for z in planes {
                    let target = Vec3::new(x, y, z);
                    for dir in directions {
                        for d in [dir, -dir] {
                            rays.push(Ray::new(target - d * 1.5, d));
                            rays.push(Ray::new(target, d));
                        }
                    }
                }
            }
        }
        // Origins inside the cube, and seeded random rays from around it.
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..4000 {
            let dir = Vec3::new(rng.gen(), rng.gen(), rng.gen()) - Vec3::splat(0.5);
            let inside = Vec3::new(rng.gen(), rng.gen(), rng.gen());
            let around = Vec3::new(rng.gen(), rng.gen(), rng.gen()) * 4.0 - Vec3::splat(1.5);
            rays.push(Ray::new(inside, dir.normalize()));
            rays.push(Ray::new(around, dir));
        }
        let (mut hits, mut axis_parallel) = (0, 0);
        for ray in &rays {
            let pairs = ray_cube_pairs(ray);
            assert_eq!(pair_bits(&pairs), pair_bits(&general_pairs(ray)), "{ray:?}");
            hits += usize::from(!pairs.is_empty());
            axis_parallel += usize::from(!pairs.is_empty() && ray.direction.x == 0.0);
        }
        assert!(hits > 5000 && axis_parallel > 500, "{hits} hits, {axis_parallel} axis-parallel");
    }

    /// The bits of sample `i` of `batch`: `t`, `δt` and the position.
    fn sample_bits(batch: &SampleBatch, i: usize) -> [u32; 5] {
        let p = batch.positions()[i];
        [batch.ts()[i], batch.dts()[i], p.x, p.y, p.z].map(f32::to_bits)
    }

    /// What the scalar march gives one ray: `sample_ray`'s valid pairs
    /// and pair jobs, and `sample_ray_into`'s samples.
    type Scalar = (u8, Vec<PairJob>, Vec<[u32; 5]>);

    /// Both emitters of the lane kernel against the scalar march, on the
    /// sampler sweep cut into rows of every length up to 40 and of 128
    /// (every residue of the sixteen lanes, and rows that refill lanes
    /// many times), at the sweep's samplers and a one-sample cap.
    #[test]
    fn lane_kernel_matches_the_scalar_march_at_every_row_length() {
        let mut configs = sweep_configs().to_vec();
        configs.push(SamplerConfig { steps_per_diagonal: 150, max_samples_per_ray: 1 });
        let lengths: Vec<usize> = (0..=40).chain([128]).collect();
        let mut rng = SmallRng::seed_from_u64(43);
        let (mut held, mut staged) = (Vec::new(), LaneSamples::default());
        let (mut scalar, mut batch) = (SampleBatch::new(), SampleBatch::new());
        let (mut rows, mut capped, mut empty_pairs) = (0, 0, 0);
        for grid in &sweep_grids() {
            let mut rays = sweep_rays(grid, &mut rng);
            // Rays from far off: `ray.at(t)` rounds by more than the half
            // step that keeps a march's first point inside the cube, so
            // some steps land just outside it, where `cell_exit_t` falls
            // back to one cell on.
            for distance in [2e4f32, 1e5, 4e5] {
                for _ in 0..16 {
                    let target = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                    let dir =
                        (Vec3::new(rng.gen(), rng.gen(), rng.gen()) - Vec3::splat(0.5)).normalize();
                    rays.push(Ray::new(target - dir * distance, dir));
                }
            }
            for config in &configs {
                let oracle: Vec<Scalar> = rays
                    .iter()
                    .map(|ray| {
                        let (_, workload) = sample_ray(ray, grid, config);
                        sample_ray_into(ray, grid, config, &mut scalar);
                        let samples = (0..scalar.len()).map(|i| sample_bits(&scalar, i)).collect();
                        (workload.valid_pairs, jobs_of(&workload), samples)
                    })
                    .collect();
                capped += oracle.iter().filter(|o| o.2.len() == config.max_samples_per_ray).count();
                empty_pairs += oracle.iter().flat_map(|o| &o.1).filter(|j| j.steps == 0).count();
                for &len in &lengths {
                    let starts = (0..rays.len()).step_by(len.max(1));
                    for row in starts.map(|s| s..(s + len).min(rays.len())) {
                        let what = format!("res {} {config:?} row {row:?}", grid.resolution());
                        let row_rays = &rays[row.clone()];
                        let mut traced = Vec::new();
                        count_rays(row_rays, grid, config, &mut held, |valid, jobs| {
                            traced.push((valid, jobs.to_vec()));
                        });
                        let mut ranges = vec![None; row_rays.len()];
                        batch.clear();
                        sample_rays(
                            row_rays,
                            grid,
                            config,
                            &mut staged,
                            &mut batch,
                            |ray, range| {
                                assert!(
                                    ranges[ray].replace(range).is_none(),
                                    "ray {ray} twice: {what}"
                                );
                            },
                        );
                        assert_eq!(traced.len(), row_rays.len(), "traced rays: {what}");
                        let mut sampled = 0;
                        for (i, ((valid, jobs), range)) in traced.iter().zip(&ranges).enumerate() {
                            let (valid_pairs, pair_jobs, samples) = &oracle[row.start + i];
                            assert_eq!(valid, valid_pairs, "valid pairs of ray {i}: {what}");
                            assert_eq!(jobs, pair_jobs, "pair jobs of ray {i}: {what}");
                            let range = range.clone().unwrap_or_else(|| panic!("ray {i}: {what}"));
                            let kept: Vec<_> =
                                range.clone().map(|s| sample_bits(&batch, s)).collect();
                            assert_eq!(&kept, samples, "samples of ray {i}: {what}");
                            sampled += range.len();
                        }
                        assert_eq!(
                            sampled,
                            batch.len(),
                            "samples outside every ray's range: {what}"
                        );
                        rows += 1;
                    }
                }
            }
        }
        // The sweep reaches what the refill has to get right: rays the
        // cap stops, and pairs that end before their first step.
        assert!(rows > 10_000, "only {rows} rows");
        assert!(capped > 1000, "only {capped} rays reached the sample cap");
        assert!(empty_pairs > 0, "no pair ended before its first step");
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
