//! `chip_eval`: regenerating the paper's chip numbers. One op is one
//! synthetic scene: Stage-I tracing of an evaluation frame
//! (`trace_frame`), then the chip model (`FusionChip::simulate_frame`,
//! `simulate_training_step`) and the cycle-attributed pipeline
//! (`observe_frame`). No encoding or MLP work runs here, so this is the
//! "no change" control for NeRF kernel work and the only workload
//! where simulator speed shows.
//!
//! Every op checks that the cycle attribution sums exactly to the
//! stepped makespan, and that every pass yields the same simulated
//! numbers for each scene.

use crate::measure::{median, ms_since, EndToEnd, Metrics, Window};
use crate::trace::{Kind, Replay, Tracer};
use crate::{Ctx, Outcome};
use fusion3d_core::chip::FusionChip;
use fusion3d_core::observe::observe_frame;
use fusion3d_core::pipeline_sim::BufferConfig;
use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::{
    trace_frame, OccupancyGrid, ProceduralScene, SamplerConfig, SyntheticScene, Vec3,
};
use fusion3d_obs::Report;
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Frame side length of the traced evaluation view. The paper-table
/// harness uses 160; 128 keeps an op short enough that a window holds
/// well over 200 ops, so p90 has 20 or more samples beyond it.
const FULL_RES: u32 = 128;
const SMOKE_RES: u32 = 8;

/// The simulator inputs for all eight scenes.
struct Chip {
    grids: Vec<OccupancyGrid>,
    camera: Camera,
    sampler: SamplerConfig,
    chip: FusionChip,
    buffers: BufferConfig,
}

fn build(ctx: &Ctx) -> Chip {
    let res = if ctx.smoke { SMOKE_RES } else { FULL_RES };
    let pose = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, 8)[2];
    Chip {
        grids: SyntheticScene::ALL
            .iter()
            .map(|&s| ProceduralScene::synthetic(s).occupancy_grid(32))
            .collect(),
        camera: Camera::new(pose, res, res, 0.9),
        // The paper-table traces' fine lattice.
        sampler: SamplerConfig { steps_per_diagonal: 512, max_samples_per_ray: 256 },
        chip: FusionChip::scaled_up(),
        buffers: BufferConfig::fusion3d(),
    }
}

/// The simulated results of one scene, which must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SceneStats {
    samples: u64,
    frame_cycles: u64,
    train_cycles: u64,
    stepped_cycles: u64,
}

/// Times `f` under a span when tracing.
fn span<T>(tracer: &mut Option<&mut Tracer>, kind: Kind, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(kind, f),
        None => f(),
    }
}

impl Chip {
    /// One op: trace, simulate and observe scene `k`. Returns its stats
    /// and whether the cycle attribution summed to the makespan.
    fn eval(&self, k: usize, mut tracer: Option<&mut Tracer>) -> (SceneStats, bool) {
        let trace = span(&mut tracer, Kind::TraceFrame, || {
            trace_frame(&self.grids[k], &self.camera, &self.sampler)
        });
        let (frame, train) = span(&mut tracer, Kind::ChipSimulate, || {
            (self.chip.simulate_frame(&trace), self.chip.simulate_training_step(&trace))
        });
        let mut report = Report::new("chip_eval");
        let obs = span(&mut tracer, Kind::Observe, || {
            observe_frame(&self.chip, &trace, &self.buffers, false, &mut report)
        });
        let exact = obs.attribution.total() == obs.stepped.cycles
            && report.trace.child_cycles(obs.root) == obs.stepped.cycles;
        let stats = SceneStats {
            samples: trace.total_samples,
            frame_cycles: frame.cycles,
            train_cycles: train.cycles,
            stepped_cycles: obs.stepped.cycles,
        };
        (stats, exact)
    }
}

/// A seeded scene order for each pass.
fn pass_order(rng: &mut SmallRng, scenes: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scenes).collect();
    for i in (1..scenes).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Checks one op against the first pass's stats for its scene.
fn check(
    out: &mut Outcome,
    k: usize,
    stats: SceneStats,
    exact: bool,
    first: &mut [Option<SceneStats>],
) {
    let expected = *first[k].get_or_insert(stats);
    out.op(exact && stats == expected, || {
        format!("scene {k}: attribution exact {exact}, stats {stats:?} vs {expected:?}")
    });
}

/// End-to-end run: whole passes over the eight scenes (in a seeded
/// order) until the window closes.
pub fn run(ctx: &Ctx, metrics: &mut Metrics) -> Result<Outcome, String> {
    let mut e2e = EndToEnd::new(ctx.smoke);
    let chip = e2e.setup(ctx.smoke, || Ok(build(ctx)))?;
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mut out = Outcome::default();
    let mut first = vec![None; chip.grids.len()];
    let window = Window::start(ctx.seconds);
    loop {
        let pass_start = e2e.ops();
        for k in pass_order(&mut rng, chip.grids.len()) {
            let (stats, exact) = e2e.op(|| chip.eval(k, None));
            check(&mut out, k, stats, exact, &mut first);
        }
        e2e.target(pass_start, e2e.ops() as f64);
        if window.expired() {
            break;
        }
    }
    e2e.record(metrics)?;
    Ok(out)
}

/// Traced run: one pass untraced at the end-to-end thread count and at
/// one thread, then one traced pass at one thread.
pub fn run_traced(
    ctx: &Ctx,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<Outcome, String> {
    let chip = build(ctx);
    let order = pass_order(&mut SmallRng::seed_from_u64(ctx.seed), chip.grids.len());
    let mut out = Outcome::default();
    let mut first = vec![None; chip.grids.len()];
    let mut timed_pass = |out: &mut Outcome| -> Vec<f64> {
        order
            .iter()
            .map(|&k| {
                let t = Instant::now();
                let (stats, exact) = chip.eval(k, None);
                let ms = ms_since(t);
                check(out, k, stats, exact, &mut first);
                ms
            })
            .collect()
    };
    let nt_ms = timed_pass(&mut out);
    set_thread_override(Some(1));
    let t1_ms = timed_pass(&mut out);
    for (op, &k) in order.iter().enumerate() {
        tracer.set_op(op as u64);
        tracer.begin(Kind::Op);
        let (stats, exact) = chip.eval(k, Some(&mut *tracer));
        tracer.end();
        check(&mut out, k, stats, exact, &mut first);
    }
    set_thread_override(Some(ctx.threads));

    let replay = Replay { tracer, t1_ms: &t1_ms, p50_ms: median(&nt_ms) };
    replay.record(&[Kind::TraceFrame, Kind::ChipSimulate, Kind::Observe], metrics);
    metrics.set("nerf.pipeline.trace_frame_share", replay.share(&[Kind::TraceFrame]));
    metrics.set("core.chip.simulate_share", replay.share(&[Kind::ChipSimulate]));
    metrics.set("core.observe.share", replay.share(&[Kind::Observe]));
    let pass: Vec<SceneStats> = first.iter().flatten().copied().collect();
    metrics.set(
        "core.sim.cycles_sum",
        pass.iter().map(|s| s.frame_cycles + s.train_cycles + s.stepped_cycles).sum::<u64>() as f64,
    );
    metrics.set("core.sim.samples_sum", pass.iter().map(|s| s.samples).sum::<u64>() as f64);
    Ok(out)
}
