//! Deterministic simulated-time scheduler: the event loop that turns
//! a request trace into rendered frames, latencies, and cache
//! behavior.
//!
//! Time is simulated cycles. The event loop itself is serial — the
//! only parallelism is *inside* each batched kernel dispatch, which
//! runs on the [`fusion3d_par::Pool`] under its bitwise-determinism
//! contract — so a replayed trace produces identical responses,
//! metrics, and spans at any worker count.

use crate::error::ServeError;
use crate::queue::{AdmissionQueue, Ticket};
use crate::registry::SceneRegistry;
use crate::store::{SceneId, SceneStore};
use crate::traffic::Request;
use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::pipeline::{render_views_into, PipelineConfig};
use fusion3d_obs::Report;
use std::fmt::Display;
use std::ops::RangeInclusive;

/// Registry residency budget in container bytes.
pub const BUDGET_BYTES: u64 = 192 * 1024;
/// Simulated batch engines draining the queue concurrently.
pub const EXECUTORS: usize = 2;
/// Most requests coalesced into one kernel dispatch.
pub const MAX_BATCH: usize = 4;

/// Service cost: cycles per retained Stage-II/III sample.
const CYCLES_PER_SAMPLE: u64 = 2;
/// Fixed cycles per kernel dispatch (scheduling + launch).
const BATCH_OVERHEAD_CYCLES: u64 = 2_000;
/// Fixed cycles per request (response readout).
const REQUEST_OVERHEAD_CYCLES: u64 = 500;
/// Container-load bandwidth in bytes per cycle (the paper's USB-link
/// streaming model).
const LOAD_BYTES_PER_CYCLE: u64 = 1;

/// Largest frame side [`ServeSim::new`] accepts, the CLI's render
/// bound.
const MAX_RESOLUTION: u32 = 4096;
/// Most response-frame pixels [`ServeSim::new`] preallocates, as
/// [`MAX_BATCH`] frames of `resolution²`: one frame at the largest
/// side.
const MAX_FRAME_PIXELS: u64 = MAX_RESOLUTION as u64 * MAX_RESOLUTION as u64;
/// Largest `path_len`; [`ServeSim::new`] builds one camera per pose.
const MAX_PATH_LEN: usize = 4096;
/// Largest per-scene `queue_capacity`; every scene's FIFO is reserved
/// at that capacity up front.
const MAX_QUEUE_CAPACITY: usize = 1 << 16;

/// Operating parameters of one serving simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Admission FIFO capacity per scene, in `1..=65536`; arrivals
    /// beyond it shed.
    pub queue_capacity: usize,
    /// Rendered frame side length in pixels (frames are square),
    /// in `1..=4096`, with at most `4096²` pixels in [`MAX_BATCH`]
    /// frames.
    pub resolution: u32,
    /// Vertical field of view of the replayed cameras, radians, in
    /// (0, π).
    pub fov_y: f32,
    /// Length of the orbit camera path requests replay, in
    /// `1..=4096`.
    pub path_len: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { queue_capacity: 64, resolution: 32, fov_y: 0.8, path_len: 12 }
    }
}

/// Everything one trace replay produced: per-request latencies, the
/// response checksum the determinism tests compare, cache counters,
/// and the full observability [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Requests rendered to completion.
    pub completed: u64,
    /// Requests shed at admission (FIFO full).
    pub rejected: u64,
    /// Cycle the last response finished at.
    pub makespan_cycles: u64,
    /// Per-request latency (arrival to response readout), in
    /// completion order.
    pub latencies: Vec<u64>,
    /// FNV-1a fold of every response frame's pixel bits, in
    /// completion order — the bitwise witness of the rendered output.
    pub response_checksum: u64,
    /// Registry hits during the replay.
    pub hits: u64,
    /// Registry misses (container decodes) during the replay.
    pub misses: u64,
    /// Registry evictions during the replay.
    pub evictions: u64,
    /// Container bytes streamed on misses during the replay.
    pub bytes_loaded: u64,
    /// Completed requests per scene id.
    pub per_scene_completed: Vec<u64>,
    /// Spans and metrics of the replay (label `serve`).
    pub report: Report,
}

impl ServeOutcome {
    /// Latency at quantile `q` in `[0, 1]` (nearest-rank over the
    /// completed requests), or 0 when nothing completed.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted.get(rank).copied().unwrap_or(0)
    }

    /// Fraction of registry lookups served without a container load.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Completed requests per second at the given simulated clock.
    pub fn throughput_rps(&self, clock_hz: f64) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.completed as f64 * clock_hz / self.makespan_cycles as f64
        }
    }
}

/// The serving simulation: store + registry + admission queue +
/// executors, replaying request traces deterministically.
///
/// All working memory — frame buffers, batch tables, sample slots —
/// is preallocated at construction and recycled per dispatch, so the
/// steady-state request path ([`AdmissionQueue::admit`] through the
/// private `render_batch` dispatch) never allocates.
#[derive(Debug)]
pub struct ServeSim {
    store: SceneStore,
    registry: SceneRegistry,
    queue: AdmissionQueue,
    /// The shared orbit camera path (poses are scene-independent).
    path: Vec<Camera>,
    /// Per-scene pipeline settings (each scene keeps its background).
    pipelines: Vec<PipelineConfig>,
    /// [`MAX_BATCH`] recycled response frame buffers.
    frames: Vec<Vec<Vec3>>,
    /// Per-view retained-sample counts of the last dispatch.
    samples: Vec<u64>,
    /// Tickets of the dispatch being assembled.
    batch: Vec<Ticket>,
    /// View table of the dispatch being assembled.
    batch_cameras: Vec<Camera>,
    /// Busy-until cycle per executor.
    executors: Vec<u64>,
}

/// [`ServeError::InvalidConfig`] for `field` unless `value` lies in
/// `range`.
fn check_range<T: PartialOrd + Display>(
    field: &'static str,
    value: T,
    range: RangeInclusive<T>,
) -> Result<(), ServeError> {
    if range.contains(&value) {
        return Ok(());
    }
    Err(ServeError::InvalidConfig {
        field,
        value: value.to_string(),
        expected: format!("{}..={}", range.start(), range.end()),
    })
}

impl ServeSim {
    /// Builds a simulation over `store` — validating every container
    /// against the budget up front — with all serving buffers
    /// preallocated.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`], before anything is allocated,
    /// for a `fov_y` outside (0, π), a `resolution` or `path_len`
    /// outside `1..=4096`, a `queue_capacity` outside `1..=65536`, or
    /// more than `4096²` response pixels ([`MAX_BATCH`]
    /// `× resolution²`); otherwise propagates [`SceneRegistry::new`]
    /// failures: oversized or malformed containers.
    pub fn new(store: SceneStore, config: &ServeConfig) -> Result<Self, ServeError> {
        // `Camera::new` asserts the same field-of-view range; NaN fails
        // both comparisons.
        if !(config.fov_y > 0.0 && config.fov_y < std::f32::consts::PI) {
            return Err(ServeError::InvalidConfig {
                field: "fov_y",
                value: config.fov_y.to_string(),
                expected: "(0, pi)".to_string(),
            });
        }
        check_range("resolution", config.resolution, 1..=MAX_RESOLUTION)?;
        check_range("queue_capacity", config.queue_capacity, 1..=MAX_QUEUE_CAPACITY)?;
        check_range("path_len", config.path_len, 1..=MAX_PATH_LEN)?;
        let resolution = config.resolution;
        // The resolution is bounded above, so the product cannot wrap.
        let frame_pixels = MAX_BATCH as u64 * u64::from(resolution) * u64::from(resolution);
        check_range("MAX_BATCH × resolution²", frame_pixels, 1..=MAX_FRAME_PIXELS)?;
        let registry = SceneRegistry::new(&store, BUDGET_BYTES)?;
        let queue = AdmissionQueue::new(store.len(), config.queue_capacity);
        let path: Vec<Camera> = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, config.path_len)
            .iter()
            .map(|&pose| Camera::new(pose, resolution, resolution, config.fov_y))
            .collect();
        let pipelines: Vec<PipelineConfig> = (0..store.len() as u32)
            .map(|k| PipelineConfig {
                background: store.background(SceneId(k)).unwrap_or(Vec3::ONE),
                ..PipelineConfig::default()
            })
            .collect();
        let pixels = resolution as usize * resolution as usize;
        Ok(Self {
            store,
            registry,
            queue,
            path,
            pipelines,
            frames: (0..MAX_BATCH).map(|_| vec![Vec3::ZERO; pixels]).collect(),
            samples: vec![0; MAX_BATCH],
            batch: Vec::with_capacity(MAX_BATCH),
            batch_cameras: Vec::with_capacity(MAX_BATCH),
            executors: vec![0; EXECUTORS],
        })
    }

    /// [`ServeSim::new`] over [`SceneStore::synthetic`] — the fixture
    /// used by tests, benchmarks, and the docs examples.
    pub fn synthetic(scene_count: usize, config: &ServeConfig) -> Result<Self, ServeError> {
        Self::new(SceneStore::synthetic(scene_count), config)
    }

    /// The registry, for residency inspection.
    pub fn registry(&self) -> &SceneRegistry {
        &self.registry
    }

    /// The scene store the simulation serves from.
    pub fn store(&self) -> &SceneStore {
        &self.store
    }

    /// Replays one request trace (arrival cycles must be
    /// non-decreasing, as [`crate::traffic::generate`] produces) to
    /// completion and returns what happened.
    ///
    /// Executors start idle at cycle 0 on every call; the registry
    /// stays warm across calls, so back-to-back traces model a warmed
    /// cache. Counters in the outcome are deltas for this replay.
    ///
    /// # Errors
    ///
    /// Propagates registry failures: a request for a scene id outside
    /// the store, or a container that fails to decode on a miss.
    /// [`ServeError::CycleOverflow`] when a response would finish past
    /// cycle `u64::MAX`. The requests a failed replay left queued are
    /// dropped by the next call, not served.
    pub fn run_trace(&mut self, trace: &[Request]) -> Result<ServeOutcome, ServeError> {
        for executor in self.executors.iter_mut() {
            *executor = 0;
        }
        while let Some(scene) = self.queue.oldest_scene() {
            self.queue.pop_batch_into(scene, MAX_BATCH, &mut self.batch);
        }
        let stats0 = self.registry.stats();
        let qstats0 = self.queue.stats();
        let mut report = Report::new("serve");
        let mut latencies: Vec<u64> = Vec::with_capacity(trace.len());
        let mut per_scene_completed = vec![0u64; self.store.len()];
        let mut checksum = FNV_OFFSET;
        let mut makespan = 0u64;
        let mut seq = 0u64;
        let mut next = 0usize;
        let mut now = 0u64;

        while next < trace.len() || !self.queue.is_empty() {
            if self.queue.is_empty() {
                // Idle: jump to the next arrival.
                now = now.max(trace.get(next).map_or(now, |r| r.cycle));
            }
            next = self.admit_until(trace, next, now, &mut seq, &mut report);
            if self.queue.is_empty() {
                continue;
            }
            // Earliest-free executor (ties towards the lower index).
            let (executor, free_at) = self
                .executors
                .iter()
                .copied()
                .enumerate()
                .map(|(k, busy_until)| (busy_until, k))
                .min()
                .map(|(busy_until, k)| (k, busy_until))
                .unwrap_or((0, 0));
            if free_at > now {
                now = free_at;
                next = self.admit_until(trace, next, now, &mut seq, &mut report);
            }

            // Batching policy: the scene whose head request has
            // waited longest, drained FIFO up to the batch limit.
            let Some(scene) = self.queue.oldest_scene() else { continue };
            let (hit, loaded) = self.registry.ensure_resident(&self.store, scene)?;
            let load_cycles = if hit { 0 } else { loaded.div_ceil(LOAD_BYTES_PER_CYCLE) };
            let mut batch = std::mem::take(&mut self.batch);
            self.queue.pop_batch_into(scene, MAX_BATCH, &mut batch);
            self.batch = batch;
            debug_assert!(!self.batch.is_empty(), "oldest_scene() implies a waiting ticket");

            let batch_span = report.trace.begin("serve/batch", now);
            let render_start = cycle_add(now, load_cycles)?;
            if load_cycles > 0 {
                report.trace.record("serve/load", now, render_start);
            }
            self.render_batch(scene);

            // Service cost: fixed dispatch overhead, then each
            // response pays for its retained samples plus readout.
            let mut done = cycle_add(render_start, BATCH_OVERHEAD_CYCLES)?;
            for k in 0..self.batch.len() {
                let ticket = self.batch.get(k).copied().unwrap_or(Ticket {
                    arrival_cycle: now,
                    pose: 0,
                    seq: 0,
                });
                let samples = self.samples.get(k).copied().unwrap_or(0);
                // A view holds at most its pixels times the sampler's
                // cap of samples, so only the clock, which starts from
                // the trace's arrival cycles, can pass `u64::MAX`.
                let cost = samples * CYCLES_PER_SAMPLE + REQUEST_OVERHEAD_CYCLES;
                done = cycle_add(done, cost)?;
                let latency = done.saturating_sub(ticket.arrival_cycle);
                latencies.push(latency);
                report.metrics.observe("serve.latency_cycles", "cycles", latency);
                report.metrics.observe("serve.samples_per_request", "samples", samples);
                report.trace.record("serve/request", ticket.arrival_cycle, done);
                if let Some(slot) = per_scene_completed.get_mut(scene.index()) {
                    *slot += 1;
                }
                if let Some(frame) = self.frames.get(k) {
                    checksum = fold_pixels(checksum, frame);
                }
            }
            report.trace.record("serve/render", render_start, done);
            report.trace.end(batch_span, done);
            report.metrics.observe("serve.batch_size", "requests", self.batch.len() as u64);
            if !hit {
                report.metrics.observe("serve.load_cycles", "cycles", load_cycles);
            }
            if let Some(slot) = self.executors.get_mut(executor) {
                *slot = done;
            }
            makespan = makespan.max(done);
        }

        let stats = self.registry.stats();
        let qstats = self.queue.stats();
        let completed = latencies.len() as u64;
        report.metrics.counter_add("serve.requests_completed", "requests", completed);
        report.metrics.counter_add(
            "serve.requests_rejected",
            "requests",
            qstats.rejected - qstats0.rejected,
        );
        report.metrics.counter_add("serve.registry_hits", "lookups", stats.hits - stats0.hits);
        report.metrics.counter_add(
            "serve.registry_misses",
            "lookups",
            stats.misses - stats0.misses,
        );
        report.metrics.counter_add(
            "serve.registry_evictions",
            "scenes",
            stats.evictions - stats0.evictions,
        );
        report.metrics.counter_add(
            "serve.bytes_loaded",
            "bytes",
            stats.bytes_loaded - stats0.bytes_loaded,
        );
        report.metrics.gauge_set(
            "serve.resident_bytes",
            "bytes",
            self.registry.resident_bytes() as f64,
        );
        Ok(ServeOutcome {
            completed,
            rejected: qstats.rejected - qstats0.rejected,
            makespan_cycles: makespan,
            latencies,
            response_checksum: checksum,
            hits: stats.hits - stats0.hits,
            misses: stats.misses - stats0.misses,
            evictions: stats.evictions - stats0.evictions,
            bytes_loaded: stats.bytes_loaded - stats0.bytes_loaded,
            per_scene_completed,
            report,
        })
    }

    /// Admits every arrival at or before `now`, recording queue depth
    /// after each admission. Returns the index of the first pending
    /// arrival.
    fn admit_until(
        &mut self,
        trace: &[Request],
        mut next: usize,
        now: u64,
        seq: &mut u64,
        report: &mut Report,
    ) -> usize {
        while let Some(request) = trace.get(next) {
            if request.cycle > now {
                break;
            }
            let ticket = Ticket { arrival_cycle: request.cycle, pose: request.pose, seq: *seq };
            *seq += 1;
            self.queue.admit(request.scene, ticket);
            report.metrics.observe("serve.queue_depth", "requests", self.queue.queued() as u64);
            next += 1;
        }
        next
    }

    /// Renders the assembled batch (`self.batch`) of one resident
    /// scene through the multi-view kernel into the recycled frame
    /// buffers, filling `self.samples` per view. This is the
    /// steady-state hot path: everything it touches is preallocated.
    fn render_batch(&mut self, scene: SceneId) {
        self.registry.touch(scene);
        let Some((model, occupancy)) = self.registry.scene(scene) else {
            debug_assert!(false, "render_batch on a cold scene");
            return;
        };
        let Some(pipeline) = self.pipelines.get(scene.index()) else { return };
        self.batch_cameras.clear();
        let path_len = self.path.len().max(1);
        let Some(&first_pose) = self.path.first() else { return };
        for ticket in self.batch.iter() {
            let camera =
                self.path.get(ticket.pose as usize % path_len).copied().unwrap_or(first_pose);
            // lint: allow(h2): refills the recycled view table within
            // its preallocated `MAX_BATCH` capacity, once per dispatch
            self.batch_cameras.push(camera);
        }
        let n = self.batch_cameras.len().min(self.frames.len());
        let mut views: Vec<&mut [Vec3]> = self
            .frames
            .iter_mut()
            .take(n)
            .map(|frame| frame.as_mut_slice())
            // lint: allow(h2): the view-slice table is the multi-view
            // kernel's calling convention — one small allocation per
            // dispatch, amortized over every ray in the batch
            .collect();
        let Some(samples) = self.samples.get_mut(..n) else { return };
        render_views_into(
            model,
            occupancy,
            self.batch_cameras.get(..n).unwrap_or(&[]),
            pipeline,
            &mut views,
            samples,
        );
    }
}

/// `a + b` in simulated cycles, or [`ServeError::CycleOverflow`] past
/// `u64::MAX`.
fn cycle_add(a: u64, b: u64) -> Result<u64, ServeError> {
    a.checked_add(b).ok_or(ServeError::CycleOverflow)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fold of a frame's raw pixel bits into `hash` — the cheap
/// bitwise fingerprint the determinism tests compare across thread
/// counts.
fn fold_pixels(mut hash: u64, pixels: &[Vec3]) -> u64 {
    for p in pixels {
        for bits in [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()] {
            hash ^= bits as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, TrafficConfig};

    fn small_config() -> ServeConfig {
        ServeConfig { resolution: 12, path_len: 6, ..ServeConfig::default() }
    }

    #[test]
    fn new_rejects_a_bad_field_of_view_or_frame_size() {
        for fov_y in [0.0, -0.5, 3.2, f32::NAN] {
            let config = ServeConfig { fov_y, ..small_config() };
            let err = ServeSim::synthetic(1, &config).err();
            assert!(
                matches!(err, Some(ServeError::InvalidConfig { field: "fov_y", .. })),
                "{fov_y}: {err:?}"
            );
        }
        for resolution in [0, MAX_RESOLUTION + 1, u32::MAX] {
            let config = ServeConfig { resolution, ..small_config() };
            let err = ServeSim::synthetic(1, &config).err();
            assert!(
                matches!(err, Some(ServeError::InvalidConfig { field: "resolution", .. })),
                "{resolution}: {err:?}"
            );
        }
        // The defaults and every configuration the repo serves with:
        // the benchmark's resolutions 32 and 6, the serve harness's 16
        // and 40 with 32-deep queues, and the determinism test's.
        assert!(ServeSim::synthetic(1, &ServeConfig::default()).is_ok());
        for resolution in [32, 6] {
            let config = ServeConfig { resolution, ..ServeConfig::default() };
            assert!(ServeSim::synthetic(1, &config).is_ok(), "{resolution}");
        }
        for resolution in [16, 40] {
            let config = ServeConfig { resolution, queue_capacity: 32, ..ServeConfig::default() };
            assert!(ServeSim::synthetic(8, &config).is_ok(), "{resolution}");
        }
        let config = ServeConfig { resolution: 20, path_len: 8, ..ServeConfig::default() };
        assert!(ServeSim::synthetic(3, &config).is_ok());
    }

    /// `ServeSim::new` returns `InvalidConfig` naming `field` for each
    /// config, without allocating what the config asks for.
    fn assert_rejected(field: &str, configs: &[ServeConfig]) {
        for config in configs {
            let err = ServeSim::synthetic(1, config).err();
            assert!(
                matches!(&err, Some(ServeError::InvalidConfig { field: f, .. }) if *f == field),
                "{field}: {config:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn new_rejects_queue_capacity_out_of_range() {
        let configs = [0, MAX_QUEUE_CAPACITY + 1, usize::MAX]
            .map(|queue_capacity| ServeConfig { queue_capacity, ..small_config() });
        assert_rejected("queue_capacity", &configs);
    }

    #[test]
    fn new_rejects_path_len_out_of_range() {
        let configs = [0, MAX_PATH_LEN + 1, usize::MAX]
            .map(|path_len| ServeConfig { path_len, ..small_config() });
        assert_rejected("path_len", &configs);
    }

    #[test]
    fn new_rejects_more_frame_pixels_than_one_largest_frame() {
        // The resolution in range, `MAX_BATCH` frames of it not.
        let configs = [2049, 3000, MAX_RESOLUTION]
            .map(|resolution| ServeConfig { resolution, ..small_config() });
        assert_rejected("MAX_BATCH × resolution²", &configs);
    }

    #[test]
    fn empty_trace_is_a_no_op() {
        let mut sim = ServeSim::synthetic(2, &small_config()).expect("sim");
        let outcome = sim.run_trace(&[]).expect("run");
        assert_eq!(outcome.completed, 0);
        assert_eq!(outcome.rejected, 0);
        assert_eq!(outcome.makespan_cycles, 0);
        assert_eq!(outcome.latency_percentile(0.99), 0);
        assert_eq!(outcome.throughput_rps(1e9), 0.0);
    }

    #[test]
    fn every_request_is_accounted_for() {
        let mut sim = ServeSim::synthetic(3, &small_config()).expect("sim");
        let trace = generate(&TrafficConfig::smoke(3), 5);
        let outcome = sim.run_trace(&trace).expect("run");
        assert_eq!(outcome.completed + outcome.rejected, trace.len() as u64);
        assert_eq!(outcome.latencies.len() as u64, outcome.completed);
        assert_eq!(outcome.per_scene_completed.iter().sum::<u64>(), outcome.completed);
        assert!(outcome.makespan_cycles > 0);
        assert!(outcome.misses >= 1, "first touch of each scene must miss");
        assert!(outcome.latency_percentile(0.99) >= outcome.latency_percentile(0.5));
    }

    #[test]
    fn overload_sheds_and_zero_offered_load_idles() {
        // Overload: everything arrives at cycle 0 against one tiny FIFO.
        let config = ServeConfig { queue_capacity: 2, ..small_config() };
        let mut sim = ServeSim::synthetic(1, &config).expect("sim");
        let burst: Vec<Request> =
            (0..16).map(|k| Request { cycle: 0, scene: SceneId(0), pose: k as u32 }).collect();
        let outcome = sim.run_trace(&burst).expect("run");
        assert!(outcome.rejected > 0, "burst must shed");
        assert_eq!(outcome.completed + outcome.rejected, 16);

        // Zero load after the burst drains: nothing new completes.
        let idle = sim.run_trace(&[]).expect("idle run");
        assert_eq!(idle.completed + idle.rejected, 0);
    }

    #[test]
    fn warm_cache_turns_misses_into_hits() {
        let mut sim = ServeSim::synthetic(2, &small_config()).expect("sim");
        let trace = generate(&TrafficConfig::smoke(2), 8);
        let cold = sim.run_trace(&trace).expect("cold");
        let warm = sim.run_trace(&trace).expect("warm");
        assert!(warm.hit_rate() >= cold.hit_rate());
        assert_eq!(warm.misses, 0, "both scenes fit the default budget");
    }

    #[test]
    fn unknown_scene_in_trace_errors() {
        let mut sim = ServeSim::synthetic(1, &small_config()).expect("sim");
        let trace = [Request { cycle: 0, scene: SceneId(5), pose: 0 }];
        // The queue rejects out-of-range ids at admission, so the
        // trace drains as a rejection rather than an error.
        let outcome = sim.run_trace(&trace).expect("run");
        assert_eq!(outcome.rejected, 1);
        assert_eq!(outcome.completed, 0);
    }

    /// Sixteen requests over eight scenes.
    fn traffic() -> TrafficConfig {
        TrafficConfig { requests: 16, path_len: 6, ..TrafficConfig::smoke(8) }
    }

    #[test]
    fn arrivals_past_the_cycle_range_return_err() {
        // An infinite gap puts every arrival at `u64::MAX`. A 1e18 gap
        // walks the arrivals up towards it, and for some seeds past it,
        // where they saturate at `u64::MAX`. A response that would
        // finish past `u64::MAX` fails the replay; any other pays at
        // least the fixed dispatch and readout cycles, so no latency
        // wrapped.
        let mut overflows = [0; 2];
        for (k, mean_interarrival_cycles) in [f64::INFINITY, 1e18].into_iter().enumerate() {
            for seed in 0..8 {
                let config = TrafficConfig { mean_interarrival_cycles, ..traffic() };
                let mut sim = ServeSim::synthetic(8, &small_config()).expect("sim");
                match sim.run_trace(&generate(&config, seed)) {
                    Err(err) => {
                        assert_eq!(err, ServeError::CycleOverflow, "{config:?}, seed {seed}");
                        // The failed trace's queued requests do not
                        // complete in the next replay.
                        let next = sim.run_trace(&[]).expect("an empty replay");
                        assert_eq!(next.completed, 0, "{config:?}, seed {seed}");
                        overflows[k] += 1;
                    }
                    Ok(outcome) => {
                        let least = BATCH_OVERHEAD_CYCLES + REQUEST_OVERHEAD_CYCLES;
                        assert!(
                            outcome.latencies.iter().all(|&latency| latency >= least),
                            "{config:?}, seed {seed}: {:?}",
                            outcome.latencies
                        );
                    }
                }
            }
        }
        assert_eq!(overflows[0], 8, "every all-`u64::MAX` trace overflows");
        assert!(overflows[1] > 0 && overflows[1] < 8, "1e18 gaps: {} of 8 overflow", overflows[1]);
    }

    #[test]
    fn degenerate_traffic_configs_give_traces_that_replay() {
        let base = traffic();
        let configs = [
            TrafficConfig { mean_interarrival_cycles: f64::NAN, ..base },
            TrafficConfig { mean_interarrival_cycles: -1.0, ..base },
            TrafficConfig { mean_interarrival_cycles: 0.0, ..base },
            TrafficConfig { zipf_exponent: f64::NAN, ..base },
            TrafficConfig { zipf_exponent: -3.0, ..base },
            TrafficConfig { scene_count: 0, ..base },
            TrafficConfig { path_len: 0, ..base },
        ];
        for config in configs {
            let trace = generate(&config, 3);
            assert_eq!(trace.len(), config.requests, "{config:?}");
            assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle), "{config:?}");
            for r in &trace {
                assert!((r.scene.0 as usize) < config.scene_count.max(1), "{config:?}: {r:?}");
                assert!(r.pose < config.path_len.max(1), "{config:?}: {r:?}");
            }
            let mut sim = ServeSim::synthetic(8, &small_config()).expect("sim");
            let outcome = sim.run_trace(&trace).unwrap_or_else(|e| panic!("{config:?}: {e}"));
            assert_eq!(outcome.completed, 16, "{config:?}");
        }
    }
}
