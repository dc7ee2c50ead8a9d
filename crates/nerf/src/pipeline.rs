//! The end-to-end three-stage inference pipeline and workload tracing.
//!
//! [`render_image`] chains Stage I (sampling), Stage II (feature
//! interpolation via the model's hash grid), and Stage III (MLP +
//! volumetric rendering) exactly as the accelerator does, while
//! [`trace_frame`] captures the per-ray workload statistics that the
//! cycle-level simulator in `fusion3d-core` replays.
//!
//! Every frame entry point — [`render_image`], [`render_views_into`],
//! [`render_depth_image`], [`render_layer`] and, in `obs` builds,
//! `render_image_probed` — is a short caller of one private dispatch
//! that shades each pixel row of each view as one task across the
//! [`fusion3d_par::Pool`] workers, each worker with its own row
//! scratch. The tasks and the view-then-row merge order are
//! independent of the thread count, so a frame is bitwise-identical
//! whether rendered on one core or sixteen.

use crate::batch::{KernelScratch, SampleBatch};
use crate::camera::Camera;
use crate::encoding::Encoding;
use crate::image::Image;
use crate::math::{Ray, Vec3};
use crate::mlp::SH_DIM;
use crate::model::{sh_row, NerfModel};
use crate::occupancy::OccupancyGrid;
use crate::render::{CompositeState, ShadedSample};
use crate::sampler::{count_rays, sample_rays, HeldRay, LaneSamples, PairJob, SamplerConfig};
use crate::trainer::worker_scratches;
use fusion3d_par::Pool;

/// Configuration shared by rendering and tracing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Stage-I sampler settings.
    pub sampler: SamplerConfig,
    /// Background radiance composited behind the last sample.
    pub background: Vec3,
    /// Enables early ray termination (inference only).
    pub early_stop: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            sampler: SamplerConfig::default(),
            background: Vec3::ONE,
            early_stop: true,
        }
    }
}

/// Samples each live ray contributes to one wavefront round. A ray
/// that saturates inside a round wastes at most `WAVEFRONT_K - 1`
/// model evaluations, while a round over a pixel row still gathers
/// hundreds of samples into one model call.
const WAVEFRONT_K: usize = 4;

/// One ray of a row wavefront.
#[derive(Debug, Clone, Copy)]
struct RayState {
    /// The ray's spherical-harmonics view encoding.
    sh: [f32; SH_DIM],
    /// Compositing state, carried from round to round.
    composite: CompositeState,
    /// `Σ t·w` over the composited samples: the depth numerator.
    depth_sum: f32,
    /// The ray's next unevaluated sample in the row's Stage-I batch.
    next: usize,
    /// One past the ray's last sample in the row's Stage-I batch.
    end: usize,
}

impl RayState {
    /// The blend-weighted mean sample parameter, or `None` for a ray
    /// that never absorbs. Exact only when every sample was composited
    /// (early termination off).
    fn depth(&self) -> Option<f32> {
        let opacity = 1.0 - self.composite.transmittance;
        if opacity < 1e-3 {
            None
        } else {
            Some(self.depth_sum / opacity)
        }
    }
}

/// One worker's row-wavefront working set, reused across rows.
#[derive(Debug, Default)]
struct RowScratch {
    /// The row's rays, in row order.
    row: Vec<Ray>,
    /// Stage I's per-lane samples of the rays in flight.
    staged: LaneSamples,
    /// Stage-I output of the whole row, one contiguous range per ray.
    samples: SampleBatch,
    /// Per-ray state in row order; retired rays keep their slot.
    rays: Vec<RayState>,
    /// Indices of the live rays, in row order.
    live: Vec<u32>,
    /// One round's gathered positions, sized for one row ×
    /// `WAVEFRONT_K`.
    positions: Vec<Vec3>,
    /// The ray each gathered position belongs to.
    ray_of: Vec<u32>,
    /// Stage-II/III working memory.
    kernel: KernelScratch,
    /// Rows this worker shaded in its dispatch: the probed render's
    /// scheduling diagnostics.
    #[cfg(feature = "obs")]
    rows_shaded: u64,
}

/// The render kernel behind every render entry point: shades one row
/// of rays as a wavefront.
///
/// * **Sample** — Stage I marches the row's rays sixteen at a time
///   into one row batch, each ray's samples in one contiguous range,
///   and each ray's view encoding is evaluated once.
/// * **Gather** — each round takes the next `WAVEFRONT_K` samples of
///   every live ray.
/// * **Evaluate** — one model forward runs over the whole gather; each
///   sample reads its own ray's view encoding.
/// * **Composite and retire** — each ray composites its share in
///   marching order and carries its state to the next round. A ray
///   retires when its samples run out or, with `early_stop`, once its
///   transmittance falls below the early-stop threshold. Retired rays
///   leave the live list, so their remaining samples are never
///   evaluated.
///
/// A sample's model output does not depend on the batch around it, and
/// every ray composites through [`CompositeState::step`] in the order
/// `composite_into` uses, so each pixel is bit-identical to shading
/// its ray on its own. Leaves one finished [`RayState`] per ray in
/// `scratch.rays`, in the order of `rays`, and returns the number of
/// samples Stage I retained.
fn shade_row<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    rays: impl Iterator<Item = Ray>,
    sampler: &SamplerConfig,
    early_stop: bool,
    scratch: &mut RowScratch,
) -> usize {
    let RowScratch {
        row,
        staged,
        samples,
        rays: states,
        live,
        positions,
        ray_of,
        kernel,
        #[cfg(feature = "obs")]
        rows_shaded,
    } = scratch;
    row.clear();
    row.extend(rays);
    states.clear();
    states.extend(row.iter().map(|ray| RayState {
        sh: sh_row(ray.direction),
        composite: CompositeState::START,
        depth_sum: 0.0,
        next: 0,
        end: 0,
    }));
    samples.clear();
    sample_rays(row, occupancy, sampler, staged, samples, |ray, range| {
        (states[ray].next, states[ray].end) = (range.start, range.end);
    });
    live.clear();
    live.extend(
        states.iter().enumerate().filter(|(_, ray)| ray.next < ray.end).map(|(r, _)| r as u32),
    );
    let round = states.len() * WAVEFRONT_K;
    if positions.len() < round {
        positions.resize(round, Vec3::ZERO);
        ray_of.resize(round, 0);
    }

    let (ts, dts, points) = (samples.ts(), samples.dts(), samples.positions());
    while !live.is_empty() {
        let mut n = 0;
        for &r in live.iter() {
            let ray = &states[r as usize];
            let take = (ray.end - ray.next).min(WAVEFRONT_K);
            positions[n..n + take].copy_from_slice(&points[ray.next..ray.next + take]);
            ray_of[n..n + take].fill(r);
            n += take;
        }

        model.forward_batch_impl(
            &positions[..n],
            |s| &states[ray_of[s] as usize].sh,
            kernel,
            false,
        );

        let mut at = 0;
        let mut kept = 0;
        for i in 0..live.len() {
            let r = live[i];
            let ray = &mut states[r as usize];
            let take = (ray.end - ray.next).min(WAVEFRONT_K);
            for (j, s) in (ray.next..ray.next + take).enumerate() {
                if early_stop && ray.composite.saturated() {
                    break;
                }
                let sample = ShadedSample {
                    sigma: kernel.sigma[at + j],
                    color: kernel.color[at + j],
                    dt: dts[s],
                };
                ray.depth_sum += ts[s] * ray.composite.step(&sample);
            }
            at += take;
            ray.next += take;
            if ray.next < ray.end && !(early_stop && ray.composite.saturated()) {
                live[kept] = r;
                kept += 1;
            }
        }
        live.truncate(kept);
    }

    crate::probe!({
        *rows_shaded += 1;
        kernel.probes.samples_retained += samples.len() as u64;
        kernel.probes.rays += states.len() as u64;
        kernel.probes.rays_saturated +=
            states.iter().filter(|ray| ray.composite.saturated()).count() as u64;
    });
    samples.len()
}

/// One pixel row shaded by [`shade_views`].
struct ShadedRow<T> {
    /// Index of the row's view.
    view: usize,
    /// The row's index within its view, top row first.
    y: u32,
    /// The caller's output for each ray of the row, left to right.
    rays: Vec<T>,
    /// Samples Stage I retained for the row.
    samples: usize,
}

/// The one render dispatch behind every frame entry point: shades each
/// pixel row of each `(view index, camera)` in `views` as one pool
/// task through [`shade_row`], and maps each finished ray through
/// `out`. Rows come back in view-then-row order, alongside the worker
/// scratches that shaded them. The tasks depend only on the views, so
/// the rows are bitwise-identical for any `FUSION3D_THREADS` setting.
fn shade_views<'c, E: Encoding, T: Send>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    views: impl Iterator<Item = (usize, &'c Camera)>,
    sampler: &SamplerConfig,
    early_stop: bool,
    out: impl Fn(&RayState) -> T + Sync,
) -> (Vec<ShadedRow<T>>, Vec<RowScratch>) {
    let rows: Vec<(usize, &Camera, u32)> = views
        .flat_map(|(view, camera)| (0..camera.height()).map(move |y| (view, camera, y)))
        // lint: allow(h2): per-dispatch row table — one entry per
        // pixel row, amortized over that row's rays
        .collect();
    let pool = Pool::new();
    let mut workers = Vec::new();
    let scratches = worker_scratches(&mut workers, &pool, rows.len());
    let shaded =
        pool.run_tasks(&rows, scratches, |_, &(view, camera, y), scratch: &mut RowScratch| {
            let rays = (0..camera.width()).map(|x| camera.ray_for_pixel(x, y));
            let samples = shade_row(model, occupancy, rays, sampler, early_stop, scratch);
            ShadedRow {
                view,
                y,
                // lint: allow(h2): per-task output row — one allocation
                // per row, amortized over its rays
                rays: scratch.rays.iter().map(&out).collect(),
                samples,
            }
        });
    (shaded, workers)
}

/// [`shade_views`] over one camera, flattened to one output per pixel
/// in raster order.
fn shade_view<E: Encoding, T: Send>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    sampler: &SamplerConfig,
    early_stop: bool,
    out: impl Fn(&RayState) -> T + Sync,
) -> Vec<T> {
    let (rows, _) =
        shade_views(model, occupancy, std::iter::once((0, camera)), sampler, early_stop, out);
    // lint: allow(h2): the flattened frame is the entry point's output
    rows.into_iter().flat_map(|row| row.rays).collect()
}

/// Renders a full frame through the end-to-end pipeline, dispatching
/// one pixel row per work chunk across the worker pool. The output is
/// bitwise-identical for any `FUSION3D_THREADS` setting.
pub fn render_image<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    config: &PipelineConfig,
) -> Image {
    let mut img = Image::new(camera.width(), camera.height());
    let cameras = std::slice::from_ref(camera);
    render_views_into(model, occupancy, cameras, config, &mut [img.pixels_mut()], &mut [0]);
    img
}

/// Renders several cameras against one scene in a single batched
/// dispatch — the serving layer's multi-request kernel. Every pixel
/// row of every view becomes one work chunk, so a batch of small
/// frames saturates the pool as well as one large frame does.
///
/// Pixels are written through `pixels_out` (one raster-order slice
/// per camera, each exactly `width * height` long) and each view's
/// retained Stage-II/III sample total lands in `samples_out` — the
/// quantity the serving scheduler's cost model charges cycles for.
/// A view whose output slice is shorter or longer than its camera's
/// frame is skipped whole: its slice is left untouched and its sample
/// total is zero. Chunk geometry and the merge order depend only on
/// the camera list, so the result is bitwise-identical for any
/// `FUSION3D_THREADS` setting.
pub fn render_views_into<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    cameras: &[Camera],
    config: &PipelineConfig,
    pixels_out: &mut [&mut [Vec3]],
    samples_out: &mut [u64],
) {
    debug_assert!(
        pixels_out.len() == cameras.len() && samples_out.len() == cameras.len(),
        "one pixel slice and one sample slot per camera"
    );
    let views = cameras.iter().enumerate().filter(|&(view, camera)| {
        pixels_out.get(view).map(|out| out.len() as u64) == Some(camera.pixel_count())
    });
    let (rows, _) =
        shade_views(model, occupancy, views, &config.sampler, config.early_stop, |ray| {
            ray.composite.pixel(config.background)
        });
    samples_out.fill(0);
    for row in &rows {
        let start = row.y as usize * row.rays.len();
        if let Some(dst) =
            pixels_out.get_mut(row.view).and_then(|out| out.get_mut(start..start + row.rays.len()))
        {
            dst.copy_from_slice(&row.rays);
        }
        if let Some(slot) = samples_out.get_mut(row.view) {
            *slot += row.samples as u64;
        }
    }
}

/// [`render_image`] with hot-path probe counters recorded into
/// `report` (`obs` builds only). Identical pixels to [`render_image`]:
/// the probes never influence the compute. The kernel counters are
/// integer sums over the dispatch's worker scratches, so the recorded
/// totals are identical for any `FUSION3D_THREADS` setting. The rows
/// each worker shaded are recorded as diagnostic metrics
/// (`render.worker.{i}.tasks`, `render.workers`, `render.balance`):
/// work stealing makes them scheduling-dependent, so they stay out of
/// the deterministic export.
#[cfg(feature = "obs")]
pub fn render_image_probed<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    config: &PipelineConfig,
    report: &mut fusion3d_obs::Report,
) -> Image {
    let views = std::iter::once((0, camera));
    let (rows, workers) =
        shade_views(model, occupancy, views, &config.sampler, config.early_stop, |ray| {
            ray.composite.pixel(config.background)
        });
    let mut img = Image::new(camera.width(), camera.height());
    let width = camera.width().max(1) as usize;
    for (row, dst) in rows.iter().zip(img.pixels_mut().chunks_exact_mut(width)) {
        dst.copy_from_slice(&row.rays);
    }

    let metrics = &mut report.metrics;
    let mut totals = crate::probes::ProbeCounters::default();
    for (i, worker) in workers.iter().enumerate() {
        totals.add(&worker.kernel.probes);
        // lint: allow(h2): opt-in observability — one metric name per
        // worker per probed frame
        let name = format!("render.worker.{i}.tasks");
        metrics.diagnostic_counter_add(&name, "tasks", worker.rows_shaded);
    }
    totals.record(metrics);
    // Load balance in (0, 1]: mean rows per worker over the busiest
    // worker's rows (1.0 = perfectly even).
    let busiest = workers.iter().map(|w| w.rows_shaded).max().unwrap_or(0).max(1);
    let balance = rows.len() as f64 / workers.len() as f64 / busiest as f64;
    metrics.diagnostic_counter_add("render.workers", "threads", workers.len() as u64);
    metrics.diagnostic_gauge_set("render.balance", "ratio", balance);
    img
}

/// Renders a normalized depth map: nearer surfaces brighter, rays
/// that escape black. A pixel's depth is its ray's blend-weighted mean
/// sample parameter; the normalization divides by the frame's maximum
/// depth, reduced serially over the raster-ordered result, so the
/// frame is thread-count independent.
pub fn render_depth_image<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    config: &PipelineConfig,
) -> Image {
    // Early termination off: the weighted-mean depth needs every
    // sample's exact blend weight.
    let depths = shade_view(model, occupancy, camera, &config.sampler, false, RayState::depth);
    let max = depths.iter().flatten().cloned().fold(0.0f32, f32::max).max(1e-6);
    let mut img = Image::new(camera.width(), camera.height());
    for (pixel, d) in img.pixels_mut().iter_mut().zip(&depths) {
        *pixel = Vec3::splat(d.map_or(0.0, |t| 1.0 - (t / max).clamp(0.0, 1.0) * 0.9));
    }
    img
}

/// Renders one layer of a Mixture-of-Experts frame: per pixel, in
/// raster order, the radiance composited over black and the
/// transmittance left behind the last sample, with early termination
/// off. Fusing several experts' layers as
/// `Σ radiance + background · Π transmittance` gives the MoE pixel —
/// the per-pixel partial sums the paper's Level-1 tiling exchanges
/// between chips.
pub fn render_layer<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    camera: &Camera,
    sampler: &SamplerConfig,
) -> Vec<(Vec3, f32)> {
    shade_view(model, occupancy, camera, sampler, false, |ray| {
        (ray.composite.pixel(Vec3::ZERO), ray.composite.transmittance)
    })
}

/// Stage-level workload statistics of one frame, consumed by the
/// accelerator simulator.
///
/// The layout is flat: every marched ray–cube pair's [`PairJob`] lies
/// in one vector, ray after ray (in raster order for [`trace_frame`]),
/// and each ray keeps its valid pair count and the end of its pairs in
/// that vector. Rays that miss the model cube are included with zero
/// pairs. Build a trace with [`trace_frame`], [`trace_rays`] or, for
/// synthetic workloads, [`FrameTrace::push_ray`]; read it through
/// [`FrameTrace::rays`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameTrace {
    /// Every marched pair of every ray, ray after ray.
    jobs: Vec<PairJob>,
    /// Per ray, in trace order.
    rays: Vec<RayEntry>,
    /// Total retained samples (Stage II/III workload).
    pub total_samples: u64,
    /// Total marching steps (Stage I workload).
    pub total_steps: u64,
}

/// One ray's entry in a [`FrameTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RayEntry {
    valid_pairs: u8,
    /// End of the ray's marched pairs in `FrameTrace::jobs`; the ray's
    /// pairs start where the previous ray's end.
    jobs_end: usize,
}

/// One ray of a [`FrameTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedRay<'a> {
    /// Octant cubes the ray validly intersects. The sample cap can stop
    /// the march before the last of them, so this can exceed
    /// `jobs.len()`.
    pub valid_pairs: u8,
    /// The marched pairs, front to back.
    pub jobs: &'a [PairJob],
}

impl TracedRay<'_> {
    /// Retained samples of the ray.
    pub fn total_samples(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.samples)).sum()
    }

    /// Marching steps of the ray.
    pub fn total_steps(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.steps)).sum()
    }
}

impl FrameTrace {
    /// Appends a ray that validly intersects `valid_pairs` octant cubes
    /// and marched `jobs`, and adds its samples and steps to the totals.
    pub fn push_ray(&mut self, valid_pairs: u8, jobs: &[PairJob]) {
        self.jobs.extend_from_slice(jobs);
        self.close_ray(valid_pairs);
    }

    /// Ends the ray whose marched pairs were appended to `self.jobs`
    /// since the previous ray ended, and adds them to the totals.
    fn close_ray(&mut self, valid_pairs: u8) {
        let start = self.rays.last().map_or(0, |r| r.jobs_end);
        for job in &self.jobs[start..] {
            self.total_samples += u64::from(job.samples);
            self.total_steps += u64::from(job.steps);
        }
        // lint: allow(h2): amortized — one entry per ray into the
        // frame trace's output product, sized per row
        self.rays.push(RayEntry { valid_pairs, jobs_end: self.jobs.len() });
    }

    /// The rays of the frame, in trace order.
    pub fn rays(&self) -> impl ExactSizeIterator<Item = TracedRay<'_>> + '_ {
        let mut start = 0;
        self.rays.iter().map(move |r| {
            let jobs = &self.jobs[start..r.jobs_end];
            start = r.jobs_end;
            TracedRay { valid_pairs: r.valid_pairs, jobs }
        })
    }

    /// Number of rays in the frame.
    pub fn ray_count(&self) -> usize {
        self.rays.len()
    }

    /// Mean retained samples per ray.
    pub fn mean_samples_per_ray(&self) -> f64 {
        if self.rays.is_empty() {
            0.0
        } else {
            self.total_samples as f64 / self.rays.len() as f64
        }
    }

    /// Fraction of rays with at least one valid ray–cube pair.
    pub fn hit_rate(&self) -> f64 {
        if self.rays.is_empty() {
            return 0.0;
        }
        let hits = self.rays.iter().filter(|r| r.valid_pairs > 0).count();
        hits as f64 / self.rays.len() as f64
    }
}

/// One worker's frame-trace working set, reused across rows.
#[derive(Debug, Default)]
struct TraceScratch {
    /// The row's rays, in row order.
    row: Vec<Ray>,
    /// The marched pairs of the row's rays, until the row ends.
    held: Vec<HeldRay>,
}

/// Captures the Stage-I workload of a frame without shading it. Each
/// pixel row is one pool task, traced as [`trace_rays`] traces it with
/// the worker's scratch; rows are concatenated in row order with their
/// offsets rebased, so the result matches a serial sweep exactly.
pub fn trace_frame(
    occupancy: &OccupancyGrid,
    camera: &Camera,
    sampler: &SamplerConfig,
) -> FrameTrace {
    let width = camera.width();
    let height = camera.height() as usize;
    let pool = Pool::new();
    let mut workers = Vec::new();
    let scratches = worker_scratches(&mut workers, &pool, height);
    let rows = pool.run_tasks(0..camera.height(), scratches, |_, y, scratch: &mut TraceScratch| {
        scratch.row.clear();
        scratch.row.extend((0..width).map(|x| camera.ray_for_pixel(x, y)));
        trace_row(&scratch.row, occupancy, sampler, &mut scratch.held)
    });
    let mut trace = FrameTrace {
        jobs: Vec::with_capacity(rows.iter().map(|r| r.jobs.len()).sum()),
        rays: Vec::with_capacity(width as usize * height),
        ..FrameTrace::default()
    };
    for row in rows {
        let base = trace.jobs.len();
        trace.jobs.extend_from_slice(&row.jobs);
        trace.rays.extend(row.rays.iter().map(|r| RayEntry { jobs_end: base + r.jobs_end, ..*r }));
        trace.total_samples += row.total_samples;
        trace.total_steps += row.total_steps;
    }
    trace
}

/// The Stage-I trace of `rays`, in order, on the calling thread: the
/// march of [`crate::sampler::sample_ray`], sixteen rays at a time and
/// keeping no sample, fills the flat job vector with no per-ray
/// allocation.
pub fn trace_rays(
    rays: impl IntoIterator<Item = Ray>,
    occupancy: &OccupancyGrid,
    sampler: &SamplerConfig,
) -> FrameTrace {
    let rays: Vec<Ray> = rays.into_iter().collect();
    trace_row(&rays, occupancy, sampler, &mut Vec::new())
}

/// The trace of one row of rays, with caller-owned scratch.
fn trace_row(
    rays: &[Ray],
    occupancy: &OccupancyGrid,
    sampler: &SamplerConfig,
    held: &mut Vec<HeldRay>,
) -> FrameTrace {
    let mut trace = FrameTrace {
        // Scene rays march about two pairs each.
        jobs: Vec::with_capacity(2 * rays.len()),
        rays: Vec::with_capacity(rays.len()),
        ..FrameTrace::default()
    };
    count_rays(rays, occupancy, sampler, held, |valid_pairs, jobs| {
        trace.push_ray(valid_pairs, jobs);
    });
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{orbit_poses, Camera, Pose};
    use crate::encoding::HashGridConfig;
    use crate::model::{ModelConfig, NerfModel};
    use crate::reference::render_ray;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model(seed: u64, config: ModelConfig, density_bias: f32) -> NerfModel {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = NerfModel::new(config, &mut rng);
        *model.density_mlp_mut().output_bias_mut(0) += density_bias;
        model
    }

    /// An untrained two-level model: density exp(~0) ≈ 1 everywhere.
    fn tiny_model(seed: u64) -> NerfModel {
        let grid = HashGridConfig {
            levels: 2,
            features_per_level: 2,
            log2_table_size: 8,
            base_resolution: 4,
            max_resolution: 8,
        };
        model(seed, ModelConfig { grid, hidden_dim: 8, geo_feature_dim: 3 }, 0.0)
    }

    fn test_camera() -> Camera {
        let pose = orbit_poses(Vec3::splat(0.5), 1.2, 1)[0];
        Camera::new(pose, 8, 8, 0.8)
    }

    #[test]
    fn empty_occupancy_renders_background() {
        let model = tiny_model(0);
        let occ = OccupancyGrid::new(8, 0.0);
        let cfg = PipelineConfig { background: Vec3::new(0.3, 0.6, 0.9), ..Default::default() };
        let img = render_image(&model, &occ, &test_camera(), &cfg);
        assert!(img.pixels().iter().all(|&p| p == cfg.background));
    }

    #[test]
    fn full_occupancy_renders_something_else() {
        let model = tiny_model(0);
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cfg = PipelineConfig { background: Vec3::ONE, ..Default::default() };
        let img = render_image(&model, &occ, &test_camera(), &cfg);
        // With density exp(~0) ≈ 1 everywhere, pixels through the cube
        // blend model colors with the background.
        let non_bg = img.pixels().iter().filter(|&&p| p != Vec3::ONE).count();
        assert!(non_bg > 0, "expected some non-background pixels");
        for p in img.pixels() {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn early_stop_matches_exact_within_tolerance() {
        let model = tiny_model(0);
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cam = test_camera();
        let exact = render_image(
            &model,
            &occ,
            &cam,
            &PipelineConfig { early_stop: false, ..Default::default() },
        );
        let eager = render_image(
            &model,
            &occ,
            &cam,
            &PipelineConfig { early_stop: true, ..Default::default() },
        );
        assert!(exact.psnr(&eager) > 40.0, "psnr {}", exact.psnr(&eager));
    }

    #[test]
    fn render_views_matches_per_view_render_image() {
        let model = tiny_model(0);
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cfg = PipelineConfig::default();
        let poses = orbit_poses(Vec3::splat(0.5), 1.2, 3);
        let cameras: Vec<Camera> = poses.iter().map(|&p| Camera::new(p, 8, 6, 0.8)).collect();
        let mut frames: Vec<Vec<Vec3>> = cameras.iter().map(|_| vec![Vec3::ZERO; 48]).collect();
        let mut samples = vec![0u64; cameras.len()];
        {
            let mut slices: Vec<&mut [Vec3]> =
                frames.iter_mut().map(|f| f.as_mut_slice()).collect();
            render_views_into(&model, &occ, &cameras, &cfg, &mut slices, &mut samples);
        }
        for (i, camera) in cameras.iter().enumerate() {
            let solo = render_image(&model, &occ, camera, &cfg);
            assert_eq!(frames[i].as_slice(), solo.pixels(), "view {i} pixels diverge");
            assert!(samples[i] > 0, "view {i} retained no samples");
        }
    }

    #[test]
    fn render_views_skips_a_wrongly_sized_slice_whole() {
        let model = tiny_model(0);
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cfg = PipelineConfig::default();
        let poses = orbit_poses(Vec3::splat(0.5), 1.2, 2);
        let cameras: Vec<Camera> = poses.iter().map(|&p| Camera::new(p, 8, 6, 0.8)).collect();
        let sentinel = Vec3::splat(-7.0);
        let mut short = vec![sentinel; 47];
        let mut fits = vec![sentinel; 48];
        let mut samples = vec![9u64; 2];
        render_views_into(&model, &occ, &cameras, &cfg, &mut [&mut short, &mut fits], &mut samples);
        assert!(short.iter().all(|&p| p == sentinel), "a one-pixel-short slice was written");
        assert_eq!(samples[0], 0);
        assert_eq!(fits.as_slice(), render_image(&model, &occ, &cameras[1], &cfg).pixels());
        assert!(samples[1] > 0);
    }

    #[test]
    fn render_views_handles_empty_batch() {
        let model = tiny_model(0);
        let occ = OccupancyGrid::new(8, 0.0);
        render_views_into(&model, &occ, &[], &PipelineConfig::default(), &mut [], &mut []);
    }

    #[test]
    fn frame_trace_statistics() {
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let cam = test_camera();
        let trace = trace_frame(&occ, &cam, &SamplerConfig::default());
        assert_eq!(trace.ray_count(), 64);
        assert!(trace.total_samples > 0);
        assert!(trace.total_steps >= trace.total_samples);
        assert!(trace.hit_rate() > 0.3, "hit rate {}", trace.hit_rate());
        assert!(trace.mean_samples_per_ray() > 1.0);
    }

    #[test]
    fn empty_trace_is_degenerate() {
        let t = FrameTrace::default();
        assert_eq!(t.ray_count(), 0);
        assert_eq!(t.mean_samples_per_ray(), 0.0);
        assert_eq!(t.hit_rate(), 0.0);
    }

    /// The dispatch's raw depth of the ray from `(-1, 0.4, 0.45)` along
    /// +x: the one pixel of a 1×1 camera looking down that ray.
    fn x_ray_depth(model: &NerfModel, occupancy: &OccupancyGrid) -> Option<f32> {
        let eye = Vec3::new(-1.0, 0.4, 0.45);
        let camera = Camera::new(Pose::look_at(eye, eye + Vec3::X, Vec3::Y), 1, 1, 0.8);
        assert_eq!(camera.ray_for_pixel(0, 0).direction, Vec3::X);
        shade_view(model, occupancy, &camera, &SamplerConfig::default(), false, RayState::depth)[0]
    }

    #[test]
    fn raw_depth_matches_the_scalar_oracle() {
        // The models, occupancy and cameras of tests/render_oracle.rs.
        let grid = HashGridConfig {
            levels: 4,
            features_per_level: 2,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 32,
        };
        let occupancy =
            OccupancyGrid::from_oracle(16, 0.0, |p| (p - Vec3::splat(0.5)).length() < 0.42);
        let poses = orbit_poses(Vec3::splat(0.5), 1.3, 3);
        let cameras = [Camera::new(poses[0], 20, 14, 0.9), Camera::new(poses[1], 9, 11, 0.9)];
        let config = PipelineConfig {
            sampler: SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: 16 },
            ..PipelineConfig::default()
        };
        let (mut absorbing, mut escaping) = (0, 0);
        for density_bias in [3.0f32, 6.0] {
            let model =
                model(23, ModelConfig { grid, hidden_dim: 16, geo_feature_dim: 7 }, density_bias);
            for camera in &cameras {
                let depths =
                    shade_view(&model, &occupancy, camera, &config.sampler, false, RayState::depth);
                assert_eq!(depths.len() as u64, camera.pixel_count());
                for ((x, y, ray), depth) in camera.rays().zip(&depths) {
                    let (_, oracle) = render_ray(&model, &occupancy, &ray, &config);
                    assert_eq!(
                        depth.map(f32::to_bits),
                        oracle.map(f32::to_bits),
                        "pixel ({x}, {y}), density bias {density_bias}"
                    );
                    absorbing += usize::from(depth.is_some());
                    escaping += usize::from(depth.is_none());
                }
            }
        }
        assert!(absorbing > 0 && escaping > 0, "{absorbing} absorbing, {escaping} escaping");
    }

    #[test]
    fn empty_space_has_no_depth() {
        let occ = OccupancyGrid::new(8, 0.0); // all empty
        assert_eq!(x_ray_depth(&tiny_model(3), &occ), None);
    }

    #[test]
    fn depth_lies_within_the_ray_span() {
        // Untrained density exp(~0) = 1 absorbs over the cube: the
        // expected depth must sit between entry and exit.
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let depth = x_ray_depth(&tiny_model(3), &occ).expect("ray absorbs");
        assert!((1.0..=2.0).contains(&depth), "depth {depth}");
    }

    #[test]
    fn nearer_geometry_reads_nearer() {
        // Occupancy restricted to the front slab vs the back slab:
        // front depth < back depth for the same ray.
        let model = tiny_model(3);
        let front = OccupancyGrid::from_oracle(8, 0.0, |p| p.x < 0.3);
        let back = OccupancyGrid::from_oracle(8, 0.0, |p| p.x > 0.7);
        let d_front = x_ray_depth(&model, &front).expect("front absorbs");
        let d_back = x_ray_depth(&model, &back).expect("back absorbs");
        assert!(d_front < d_back, "front {d_front} vs back {d_back}");
    }

    #[test]
    fn depth_image_shape_and_range() {
        let model = tiny_model(3);
        let mut occ = OccupancyGrid::new(8, 0.0);
        occ.fill();
        let img = render_depth_image(&model, &occ, &test_camera(), &PipelineConfig::default());
        assert_eq!(img.pixel_count(), 64);
        for p in img.pixels() {
            assert!(p.x >= 0.0 && p.x <= 1.0);
            assert_eq!(p.x, p.y);
            assert_eq!(p.y, p.z);
        }
    }
}
