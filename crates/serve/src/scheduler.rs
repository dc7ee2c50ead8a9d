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

/// Largest frame side [`ServeSim::new`] accepts, the CLI's render
/// bound.
const MAX_RESOLUTION: u32 = 4096;
/// Most response-frame pixels [`ServeSim::new`] preallocates, as
/// `max_batch` frames of `resolution²`: one frame at the largest side.
const MAX_FRAME_PIXELS: u64 = MAX_RESOLUTION as u64 * MAX_RESOLUTION as u64;
/// Largest `executors`, `max_batch` and `path_len`, each of which
/// [`ServeSim::new`] preallocates per unit.
const MAX_UNITS: usize = 4096;
/// Largest per-scene `queue_capacity`; every scene's FIFO is reserved
/// at that capacity up front.
const MAX_QUEUE_CAPACITY: usize = 1 << 16;

/// Operating parameters of one serving simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Registry residency budget in container bytes.
    pub budget_bytes: u64,
    /// Simulated batch engines draining the queue concurrently, in
    /// `1..=4096`.
    pub executors: usize,
    /// Maximum requests coalesced into one kernel dispatch, in
    /// `1..=4096`; `max_batch × resolution²` is at most `4096²`.
    pub max_batch: usize,
    /// Admission FIFO capacity per scene, in `1..=65536`; arrivals
    /// beyond it shed.
    pub queue_capacity: usize,
    /// Rendered frame side length in pixels (frames are square),
    /// in `1..=4096`.
    pub resolution: u32,
    /// Vertical field of view of the replayed cameras, radians, in
    /// (0, π).
    pub fov_y: f32,
    /// Length of the orbit camera path requests replay, in
    /// `1..=4096`.
    pub path_len: usize,
    /// Service cost: cycles per retained Stage-II/III sample.
    pub cycles_per_sample: u64,
    /// Fixed cycles per kernel dispatch (scheduling + launch).
    pub batch_overhead_cycles: u64,
    /// Fixed cycles per request (response readout).
    pub request_overhead_cycles: u64,
    /// Container-load bandwidth in bytes per cycle (the paper's
    /// USB-link streaming model; values below 1 are clamped to 1).
    pub load_bytes_per_cycle: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 192 * 1024,
            executors: 2,
            max_batch: 4,
            queue_capacity: 64,
            resolution: 32,
            fov_y: 0.8,
            path_len: 12,
            cycles_per_sample: 2,
            batch_overhead_cycles: 2_000,
            request_overhead_cycles: 500,
            load_bytes_per_cycle: 1,
        }
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
    config: ServeConfig,
    /// The shared orbit camera path (poses are scene-independent).
    path: Vec<Camera>,
    /// Per-scene pipeline settings (each scene keeps its background).
    pipelines: Vec<PipelineConfig>,
    /// `max_batch` recycled response frame buffers.
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
    /// for a `fov_y` outside (0, π), a `resolution` outside
    /// `1..=4096`, an `executors`, `max_batch` or `path_len` outside
    /// `1..=4096`, a `queue_capacity` outside `1..=65536`, or more than
    /// `4096²` response pixels (`max_batch × resolution²`); otherwise
    /// propagates [`SceneRegistry::new`] failures: oversized or
    /// malformed containers.
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
        check_range("executors", config.executors, 1..=MAX_UNITS)?;
        check_range("max_batch", config.max_batch, 1..=MAX_UNITS)?;
        check_range("queue_capacity", config.queue_capacity, 1..=MAX_QUEUE_CAPACITY)?;
        check_range("path_len", config.path_len, 1..=MAX_UNITS)?;
        let resolution = config.resolution;
        // Both factors are bounded above, so the product cannot wrap.
        let frame_pixels = config.max_batch as u64 * u64::from(resolution) * u64::from(resolution);
        check_range("max_batch × resolution²", frame_pixels, 1..=MAX_FRAME_PIXELS)?;
        let registry = SceneRegistry::new(&store, config.budget_bytes)?;
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
        let max_batch = config.max_batch;
        let pixels = resolution as usize * resolution as usize;
        Ok(Self {
            store,
            registry,
            queue,
            config: *config,
            path,
            pipelines,
            frames: (0..max_batch).map(|_| vec![Vec3::ZERO; pixels]).collect(),
            samples: vec![0; max_batch],
            batch: Vec::with_capacity(max_batch),
            batch_cameras: Vec::with_capacity(max_batch),
            executors: vec![0; config.executors],
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
    pub fn run_trace(&mut self, trace: &[Request]) -> Result<ServeOutcome, ServeError> {
        for executor in self.executors.iter_mut() {
            *executor = 0;
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
            let load_cycles =
                if hit { 0 } else { loaded.div_ceil(self.config.load_bytes_per_cycle.max(1)) };
            let max_batch = self.config.max_batch.max(1);
            let mut batch = std::mem::take(&mut self.batch);
            self.queue.pop_batch_into(scene, max_batch, &mut batch);
            self.batch = batch;
            debug_assert!(!self.batch.is_empty(), "oldest_scene() implies a waiting ticket");

            let batch_span = report.trace.begin("serve/batch", now);
            if load_cycles > 0 {
                report.trace.record("serve/load", now, now + load_cycles);
            }
            let render_start = now + load_cycles;
            self.render_batch(scene);

            // Service cost: fixed dispatch overhead, then each
            // response pays for its retained samples plus readout.
            let mut done = render_start + self.config.batch_overhead_cycles;
            for k in 0..self.batch.len() {
                let ticket = self.batch.get(k).copied().unwrap_or(Ticket {
                    arrival_cycle: now,
                    pose: 0,
                    seq: 0,
                });
                let samples = self.samples.get(k).copied().unwrap_or(0);
                done +=
                    samples * self.config.cycles_per_sample + self.config.request_overhead_cycles;
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
            // its preallocated `max_batch` capacity, once per dispatch
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
    fn new_rejects_executors_out_of_range() {
        let configs = [0, MAX_UNITS + 1, usize::MAX]
            .map(|executors| ServeConfig { executors, ..small_config() });
        assert_rejected("executors", &configs);
    }

    #[test]
    fn new_rejects_max_batch_out_of_range() {
        let configs = [0, MAX_UNITS + 1, usize::MAX]
            .map(|max_batch| ServeConfig { max_batch, ..small_config() });
        assert_rejected("max_batch", &configs);
    }

    #[test]
    fn new_rejects_queue_capacity_out_of_range() {
        let configs = [0, MAX_QUEUE_CAPACITY + 1, usize::MAX]
            .map(|queue_capacity| ServeConfig { queue_capacity, ..small_config() });
        assert_rejected("queue_capacity", &configs);
    }

    #[test]
    fn new_rejects_path_len_out_of_range() {
        let configs = [0, MAX_UNITS + 1, usize::MAX]
            .map(|path_len| ServeConfig { path_len, ..small_config() });
        assert_rejected("path_len", &configs);
    }

    #[test]
    fn new_rejects_more_frame_pixels_than_one_largest_frame() {
        // Each field in range, their product of pixels not.
        let configs = [(2, MAX_RESOLUTION), (MAX_UNITS, 65), (5, 2048)]
            .map(|(max_batch, resolution)| ServeConfig { max_batch, resolution, ..small_config() });
        assert_rejected("max_batch × resolution²", &configs);
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
        let config = ServeConfig { queue_capacity: 2, executors: 1, ..small_config() };
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
}
