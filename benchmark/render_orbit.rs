//! `render_orbit`: real-time novel-view rendering of a trained scene.
//!
//! Set-up trains Lego with the CLI's model and trainer settings, so
//! the occupancy grid is a *trained* one and rays keep only a few
//! samples each. Every op is one `render_image` call at the CLI
//! `render` settings (early termination on) along a closed orbit.
//!
//! The traced replay re-renders one orbit from the public pieces
//! `render_image` is built from (`sample_ray_into`, the model's
//! `forward_batch_infer`, `composite_into`), checked against its pixels
//! bit for bit. The model call is then split into its own public parts
//! (`HashGrid::interpolate_batch_infer` and the two `Mlp::forward_batch`
//! calls), re-run on the captured inputs.

use crate::layers::{self, Captured, RayCounts};
use crate::lego;
use crate::measure::{median, ms_since, EndToEnd, Metrics, Window};
use crate::roofline::Host;
use crate::trace::{Kind, Replay, Tracer};
use crate::{Ctx, Outcome};
use fusion3d_nerf::camera::{orbit_poses, Camera};
use fusion3d_nerf::render::{composite_into, ShadedSample};
use fusion3d_nerf::sampler::{sample_ray_into, SamplerConfig};
use fusion3d_nerf::{
    render_image, Image, KernelScratch, NerfModel, OccupancyGrid, PipelineConfig, SampleBatch,
    Trainer, Vec3,
};
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Workload dimensions.
struct Size {
    /// Orbit views rendered for training, and their resolution.
    views: usize,
    view_res: u32,
    train_steps: u32,
    /// Poses of the rendered orbit, and the frame resolution.
    poses: usize,
    res: u32,
}

const FULL: Size = Size { views: 16, view_res: 64, train_steps: 1000, poses: 24, res: 128 };
const SMOKE: Size = Size { views: 8, view_res: 12, train_steps: 8, poses: 2, res: 10 };

/// Floor on the first orbit's mean PSNR. The models of seeds 1 to 30
/// render the orbit at 26.64 to 27.49 dB, so a change that costs a few
/// tenths of a dB of quality fails the run.
const MIN_PSNR_DB: f64 = 26.3;

/// A trained scene and the orbit to render it along.
struct Orbit {
    model: NerfModel,
    occupancy: OccupancyGrid,
    cameras: Vec<Camera>,
    config: PipelineConfig,
}

fn size(ctx: &Ctx) -> &'static Size {
    if ctx.smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// Trains the scene (the timed set-up) and lays out the orbit.
fn build(size: &Size, seed: u64) -> Orbit {
    let scene = lego::scene();
    let (train, _) = lego::split_views(&scene, size.views, size.view_res);
    let mut rng = SmallRng::seed_from_u64(seed);
    let model = NerfModel::new(lego::model_config(), &mut rng);
    let mut trainer = Trainer::new(model, lego::trainer_config(scene.background()));
    for _ in 0..size.train_steps {
        trainer.step(&train, &mut rng);
    }
    let (model, occupancy) = trainer.into_parts();
    let cameras = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, size.poses)
        .into_iter()
        .map(|pose| Camera::new(pose, size.res, size.res, lego::FOV_Y))
        .collect();
    // The CLI `render` command's settings.
    let config = PipelineConfig {
        sampler: SamplerConfig { steps_per_diagonal: 192, max_samples_per_ray: 128 },
        background: scene.background(),
        early_stop: true,
    };
    Orbit { model, occupancy, cameras, config }
}

impl Orbit {
    fn render(&self, pose: usize) -> Image {
        render_image(&self.model, &self.occupancy, &self.cameras[pose], &self.config)
    }

    /// Mean PSNR of one rendered orbit against the scene's ground truth.
    fn psnr(&self, frames: &[Image]) -> f64 {
        let scene = lego::scene();
        let total: f64 =
            frames.iter().zip(&self.cameras).map(|(f, c)| f.psnr(&scene.render(c))).sum();
        total / frames.len() as f64
    }

    /// Renders one orbit untraced, returning per-frame ms and frames.
    fn timed_orbit(&self) -> (Vec<f64>, Vec<Image>) {
        (0..self.cameras.len())
            .map(|pose| {
                let t = std::time::Instant::now();
                let frame = self.render(pose);
                (ms_since(t), frame)
            })
            .unzip()
    }
}

/// End-to-end run: whole orbits until the window closes.
pub fn run(ctx: &Ctx, metrics: &mut Metrics) -> Result<Outcome, String> {
    let mut e2e = EndToEnd::new(ctx.smoke);
    let orbit = e2e.setup(ctx.smoke, || Ok(build(size(ctx), ctx.seed)))?;
    let n = orbit.cameras.len();
    let mut out = Outcome::default();
    let mut first: Vec<Image> = Vec::with_capacity(n);
    std::hint::black_box(orbit.render(0));
    let window = Window::start(ctx.seconds);
    for k in 0.. {
        let pose = k % n;
        let frame = e2e.op(|| orbit.render(pose));
        if k < n {
            out.op(frame.pixels().iter().all(|p| p.is_finite()), || {
                format!("frame {k} not finite")
            });
            first.push(frame);
        } else {
            out.op(frame.pixels() == first[pose].pixels(), || {
                format!("frame {k} differs from the first render of pose {pose}")
            });
        }
        if pose + 1 == n {
            e2e.target(k + 1 - n, (k + 1) as f64);
            if window.expired() {
                break;
            }
        }
    }
    e2e.record(metrics)?;

    let psnr = orbit.psnr(&first);
    eprintln!("  orbit PSNR {psnr:.2} dB");
    out.check(ctx.smoke || psnr >= MIN_PSNR_DB, || format!("orbit PSNR {psnr:.2} dB"));
    set_thread_override(Some(1));
    let single = orbit.render(0);
    set_thread_override(Some(ctx.threads));
    out.check(single.pixels() == first[0].pixels(), || {
        format!("frame 0 differs between 1 and {} threads", ctx.threads)
    });
    Ok(out)
}

/// Re-renders one frame from `render_image`'s public parts, one span
/// per call.
fn replay_frame(
    orbit: &Orbit,
    camera: &Camera,
    tracer: &mut Tracer,
    counts: &mut RayCounts,
    cap: &mut Captured,
) -> Vec<Vec3> {
    let (model, occupancy, config) = (&orbit.model, &orbit.occupancy, &orbit.config);
    let mut batch = SampleBatch::new();
    let mut kernel = KernelScratch::new();
    let mut shaded: Vec<ShadedSample> = Vec::new();
    let mut weights = Vec::new();
    let mut pixels = Vec::with_capacity(camera.pixel_count() as usize);
    for y in 0..camera.height() {
        for x in 0..camera.width() {
            let ray = camera.ray_for_pixel(x, y);
            tracer.span(Kind::Sampler, || {
                sample_ray_into(&ray, occupancy, &config.sampler, &mut batch)
            });
            tracer.span(Kind::ModelFwd, || {
                model.forward_batch_infer(batch.positions(), ray.direction, &mut kernel)
            });
            shaded.clear();
            shaded.extend(
                kernel
                    .sigma()
                    .iter()
                    .zip(kernel.color())
                    .zip(batch.dts())
                    .map(|((&sigma, &color), &dt)| ShadedSample { sigma, color, dt }),
            );
            let (color, transmittance) = tracer.span(Kind::Composite, || {
                composite_into(&shaded, config.background, config.early_stop, &mut weights)
            });
            pixels.push(color);
            counts.add(&shaded, transmittance);
            cap.push(ray.direction, batch.positions(), kernel.sigma(), kernel.color());
        }
    }
    pixels
}

/// Traced run: untraced orbits at the end-to-end thread count and at
/// one thread, then the traced replay of one orbit at one thread.
pub fn run_traced(
    ctx: &Ctx,
    tracer: &mut Tracer,
    host: &Host,
    metrics: &mut Metrics,
) -> Result<Outcome, String> {
    let orbit = build(size(ctx), ctx.seed);
    let mut out = Outcome::default();
    std::hint::black_box(orbit.render(0));
    let (nt_ms, nt_frames) = orbit.timed_orbit();
    set_thread_override(Some(1));
    let (t1_ms, frames) = orbit.timed_orbit();

    let mut counts = RayCounts::default();
    for (pose, camera) in orbit.cameras.iter().enumerate() {
        let frame = frames[pose].pixels();
        out.op(frame.iter().all(|p| p.is_finite()) && frame == nt_frames[pose].pixels(), || {
            format!("pose {pose} is not finite or differs between 1 and {} threads", ctx.threads)
        });
        let mut cap = Captured::default();
        tracer.set_op(pose as u64);
        tracer.begin(Kind::Op);
        let pixels = replay_frame(&orbit, camera, tracer, &mut counts, &mut cap);
        tracer.end();
        out.replica(pixels == frame, || {
            format!("traced replay of pose {pose} differs from render_image")
        });
        tracer.begin(Kind::Shadow);
        layers::run_parts(&orbit.model, &cap, tracer, &mut out);
        tracer.end();
    }
    set_thread_override(Some(ctx.threads));

    let replay = Replay { tracer, t1_ms: &t1_ms, p50_ms: median(&nt_ms) };
    replay.record(&[Kind::Sampler, Kind::ModelFwd, Kind::Composite], metrics);
    layers::record(&replay, &counts, &orbit.model, host, metrics);
    metrics.set("nerf.eval.psnr_db", orbit.psnr(&frames));
    Ok(out)
}
