//! `serve_zipf`: multi-scene serving. One generated Poisson/Zipf trace
//! over the eight synthetic scenes is cut into consecutive segments;
//! each op replays one segment with `ServeSim::run_trace`, the
//! registry staying warm from op to op. The models are untrained and
//! rarely saturate a ray, which makes this the control for
//! early-termination work; the 192 KiB budget holds about five of the
//! eight scenes, so registry misses and container decodes show too.
//!
//! Serve latencies are simulated cycles from hand-set constants; the
//! host metrics here time the replay itself, and the simulated ones
//! are reported per layer only.
//!
//! The traced run times each `run_trace` whole and then re-runs, on
//! their own, the container decodes and view renders it did, so the
//! benchmark needs no copy of the scheduler.

use crate::measure::{median, ms_since, percentile, EndToEnd, Metrics, Window};
use crate::trace::{Kind, Replay, Tracer};
use crate::{Ctx, Outcome};
use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::io::decode_model_into;
use fusion3d_nerf::pipeline::render_views_into;
use fusion3d_nerf::{NerfModel, OccupancyGrid, PipelineConfig, Vec3};
use fusion3d_obs::MetricValue;
use fusion3d_par::set_thread_override;
use fusion3d_serve::{
    generate, Request, SceneId, SceneStore, ServeConfig, ServeError, ServeOutcome, ServeSim,
    TrafficConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

const SCENES: usize = 8;

/// What one `run_trace` call returned.
type Served = Result<ServeOutcome, ServeError>;

/// Workload dimensions.
struct Size {
    /// Segments per pass over the trace, and requests per segment.
    segments: usize,
    per_op: usize,
    resolution: u32,
}

const FULL: Size = Size { segments: 100, per_op: 8, resolution: 32 };
const SMOKE: Size = Size { segments: 3, per_op: 4, resolution: 6 };

fn size(ctx: &Ctx) -> &'static Size {
    if ctx.smoke {
        &SMOKE
    } else {
        &FULL
    }
}

fn serve_config(size: &Size) -> ServeConfig {
    ServeConfig { resolution: size.resolution, ..ServeConfig::default() }
}

/// The seeded trace, cut into segments whose arrival cycles restart
/// at 0 (each `run_trace` starts its executors idle at cycle 0).
fn segments(size: &Size, seed: u64) -> Vec<Vec<Request>> {
    let traffic = TrafficConfig {
        scene_count: SCENES,
        requests: size.segments * size.per_op,
        // Below simulated saturation, so no request is shed.
        mean_interarrival_cycles: 40_000.0,
        zipf_exponent: 0.9,
        path_len: serve_config(size).path_len as u32,
    };
    generate(&traffic, seed)
        .chunks(size.per_op)
        .map(|chunk| {
            let base = chunk[0].cycle;
            chunk.iter().map(|r| Request { cycle: r.cycle - base, ..*r }).collect()
        })
        .collect()
}

fn new_sim(size: &Size) -> Result<ServeSim, String> {
    ServeSim::synthetic(SCENES, &serve_config(size)).map_err(|e| e.to_string())
}

/// One op's output check: every request answered or shed, and the same
/// pixels as `expected`, the checksum of an earlier run of the segment
/// (an earlier pass, or a pass at another thread count).
fn check(
    out: &mut Outcome,
    k: usize,
    result: &Served,
    offered: usize,
    expected: Option<u64>,
) -> Option<u64> {
    match result {
        Ok(o) => {
            let ok = o.completed + o.rejected == offered as u64
                && expected.is_none_or(|c| c == o.response_checksum);
            out.op(ok, || {
                format!(
                    "segment {k}: {} completed + {} rejected of {offered}, checksum {:016x}",
                    o.completed, o.rejected, o.response_checksum
                )
            });
            Some(o.response_checksum)
        }
        Err(e) => {
            out.op(false, || format!("segment {k}: {e}"));
            None
        }
    }
}

/// End-to-end run: whole passes over the segments until the window
/// closes.
pub fn run(ctx: &Ctx, metrics: &mut Metrics) -> Result<Outcome, String> {
    let size = size(ctx);
    let mut e2e = EndToEnd::new(ctx.smoke);
    let (mut sim, segs) =
        e2e.setup(ctx.smoke, || Ok((new_sim(size)?, segments(size, ctx.seed))))?;
    let mut out = Outcome::default();
    let mut first: Vec<Option<u64>> = Vec::with_capacity(segs.len());
    let window = Window::start(ctx.seconds);
    for pass in 0.. {
        let pass_start = e2e.ops();
        for (k, seg) in segs.iter().enumerate() {
            let result = e2e.op(|| sim.run_trace(seg));
            let expected = if pass == 0 { None } else { first[k] };
            let checksum = check(&mut out, k, &result, seg.len(), expected);
            if pass == 0 {
                first.push(checksum);
            }
        }
        e2e.target(pass_start, e2e.ops() as f64);
        if window.expired() {
            break;
        }
    }
    e2e.record(metrics)?;
    Ok(out)
}

/// Decoded copies of every scene, and the views `ServeSim` renders for
/// each request pose, for re-running one op's decodes and renders
/// outside its timeline.
struct Shadow {
    scenes: Vec<(NerfModel, OccupancyGrid)>,
    path: Vec<Camera>,
    pipelines: Vec<PipelineConfig>,
    frame: Vec<Vec3>,
}

impl Shadow {
    fn new(store: &SceneStore, config: &ServeConfig) -> Result<Self, String> {
        let ids = || (0..store.len() as u32).map(SceneId);
        let scenes = ids()
            .map(|id| {
                let config = store.config(id).ok_or("scene without a config")?;
                let mut model = NerfModel::new(*config, &mut SmallRng::seed_from_u64(0));
                let container = store.container(id).ok_or("scene without a container")?;
                let occupancy =
                    decode_model_into(container, &mut model).map_err(|e| e.to_string())?;
                Ok((model, occupancy))
            })
            .collect::<Result<_, String>>()?;
        // The camera path and per-scene settings of `ServeSim::new`.
        let res = config.resolution;
        let path = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, config.path_len)
            .into_iter()
            .map(|pose| Camera::new(pose, res, res, config.fov_y))
            .collect();
        let pipelines = ids()
            .map(|id| PipelineConfig {
                background: store.background(id).unwrap_or(Vec3::ONE),
                ..PipelineConfig::default()
            })
            .collect();
        Ok(Shadow { scenes, path, pipelines, frame: vec![Vec3::ZERO; (res * res) as usize] })
    }

    /// Re-decodes the `cold` scenes' containers and re-renders every
    /// request's view on its own, one span per call.
    fn rerun(
        &mut self,
        store: &SceneStore,
        cold: &[SceneId],
        segment: &[Request],
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        for &id in cold {
            let container = store.container(id).ok_or("scene without a container")?;
            let (model, occupancy) = &mut self.scenes[id.index()];
            *occupancy = tracer
                .span(Kind::Decode, || decode_model_into(container, model))
                .map_err(|e| format!("decoding scene {}: {e}", id.0))?;
        }
        for r in segment {
            let (model, occupancy) = &self.scenes[r.scene.index()];
            let camera = [self.path[r.pose as usize % self.path.len()]];
            let pipeline = &self.pipelines[r.scene.index()];
            let mut views = [self.frame.as_mut_slice()];
            tracer.span(Kind::RenderViews, || {
                render_views_into(model, occupancy, &camera, pipeline, &mut views, &mut [0])
            });
        }
        Ok(())
    }
}

/// Traced run: one pass untraced at the end-to-end thread count, then
/// one at one thread with each `run_trace` timed whole (each on a fresh
/// simulation). After each op of the second pass, the containers its
/// registry misses decoded and the views it rendered are re-run on
/// their own, which splits the op into decode, render and the rest
/// (scheduling, admission, registry bookkeeping).
pub fn run_traced(
    ctx: &Ctx,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<Outcome, String> {
    let size = size(ctx);
    let segs = segments(size, ctx.seed);
    let mut sim = new_sim(size)?;
    let (nt_ms, nt_served): (Vec<f64>, Vec<Served>) = segs
        .iter()
        .map(|seg| {
            let t = Instant::now();
            let result = sim.run_trace(seg);
            (ms_since(t), result)
        })
        .unzip();

    set_thread_override(Some(1));
    let mut out = Outcome::default();
    let mut sim = new_sim(size)?;
    let mut shadow = Shadow::new(sim.store(), &serve_config(size))?;
    let (mut t1_ms, mut served) = (Vec::new(), Vec::new());
    for (k, seg) in segs.iter().enumerate() {
        let mut cold: Vec<SceneId> = Vec::new();
        for r in seg {
            if !sim.registry().is_resident(r.scene) && !cold.contains(&r.scene) {
                cold.push(r.scene);
            }
        }
        tracer.set_op(k as u64);
        tracer.begin(Kind::Op);
        let t = Instant::now();
        let result = sim.run_trace(seg);
        t1_ms.push(ms_since(t));
        tracer.end();
        let at_nt = nt_served[k].as_ref().ok().map(|o| o.response_checksum);
        check(&mut out, k, &result, seg.len(), at_nt);
        served.push(result);
        tracer.begin(Kind::Shadow);
        shadow.rerun(sim.store(), &cold, seg, tracer)?;
        tracer.end();
    }
    set_thread_override(Some(ctx.threads));

    let replay = Replay { tracer, t1_ms: &t1_ms, p50_ms: median(&nt_ms) };
    replay.record(&[Kind::RenderViews, Kind::Decode], metrics);
    let done: Vec<&ServeOutcome> = served.iter().filter_map(|o| o.as_ref().ok()).collect();
    let sum = |f: &dyn Fn(&ServeOutcome) -> u64| done.iter().map(|o| f(o)).sum::<u64>() as f64;
    let (hits, misses) = (sum(&|o| o.hits), sum(&|o| o.misses));
    let (completed, rejected) = (sum(&|o| o.completed), sum(&|o| o.rejected));
    let dispatches = sum(&|o| match o.report.metrics.get("serve.batch_size").map(|m| &m.value) {
        Some(MetricValue::Histogram(h)) => h.count,
        _ => 0,
    });
    let latencies: Vec<f64> =
        done.iter().flat_map(|o| o.latencies.iter().map(|&l| l as f64)).collect();
    metrics.set("nerf.pipeline.render_views_share", replay.share(&[Kind::RenderViews]));
    metrics.set("nerf.io.decode_share", replay.share(&[Kind::Decode]));
    metrics.set("serve.registry.hit_rate", hits / (hits + misses));
    metrics.set("serve.registry.misses_per_op", misses / segs.len() as f64);
    metrics.set("serve.sim_latency_cycles_p50", percentile(&latencies, 0.5));
    metrics.set("serve.sim_latency_cycles_p99", percentile(&latencies, 0.99));
    metrics.set("serve.batch_size_mean", completed / dispatches);
    metrics.set("serve.rejected_frac", rejected / (completed + rejected));
    Ok(out)
}
