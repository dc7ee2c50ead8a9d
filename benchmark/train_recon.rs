//! `train_recon`: instant reconstruction of Lego from random init with
//! the CLI's model and trainer settings. Each op is one
//! `Trainer::step`; the headline is the training wall time until the
//! held-out views reach a target PSNR.
//!
//! This is the only workload with backward passes, Adam and occupancy
//! refreshes, and the only one that writes the encoding table
//! (gradient scatter) besides reading it.
//!
//! The traced replay rebuilds `Trainer::step` from the public calls it
//! is made of (`OccupancyGrid::update`, `sample_ray_into`, the model's
//! `forward_batch`, `composite_into`, `composite_backward_into`, the
//! model's `backward_batch`, `ModelGrads::accumulate`,
//! `ModelOptimizer::step`), checked to reproduce the trainer's losses
//! and parameters bit for bit.

use crate::layers::{self, Captured, RayCounts};
use crate::lego;
use crate::measure::{median, ms_since, EndToEnd, Metrics};
use crate::roofline::Host;
use crate::trace::{Kind, Replay, Tracer};
use crate::{Ctx, Outcome};
use fusion3d_nerf::model::{ModelGrads, ModelOptimizer};
use fusion3d_nerf::render::{composite_backward_into, composite_into, SampleGrad, ShadedSample};
use fusion3d_nerf::sampler::sample_ray_into;
use fusion3d_nerf::{
    Dataset, KernelScratch, NerfModel, OccupancyGrid, SampleBatch, Trainer, TrainerConfig, Vec3,
};
use fusion3d_par::set_thread_override;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Workload dimensions.
struct Size {
    views: usize,
    view_res: u32,
    /// Steps of one reconstruction (and of the traced replay).
    steps: u32,
    /// Steps between held-out PSNR checks until the target is reached.
    eval_every: u32,
    target_db: f64,
    /// Floor on the median held-out PSNR the run's reconstructions end
    /// at after `steps` steps.
    min_final_db: f64,
}

/// The target sits on the steep part of the learning curve, which
/// every seed crosses within ~150 steps; the curve flattens near
/// 26 dB, where crossing times scatter over hundreds of steps. Single
/// reconstructions end at 23.8 to 25.9 dB after 300 steps, the median
/// of a run's reconstructions 24.8 to 25.2 dB (seeds 1 to 10), so the
/// floor on that median catches a change that costs a few tenths of a
/// dB of quality.
const FULL: Size = Size {
    views: 16,
    view_res: 64,
    steps: 300,
    eval_every: 25,
    target_db: 24.0,
    min_final_db: 24.6,
};
const SMOKE: Size =
    Size { views: 8, view_res: 12, steps: 4, eval_every: 2, target_db: 0.0, min_final_db: 0.0 };

/// `Trainer::step`'s fixed gradient shard count (shard boundaries fix
/// the float accumulation order, so the replay must use the same).
const GRAD_SHARDS: usize = 16;

fn size(ctx: &Ctx) -> &'static Size {
    if ctx.smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// The inputs every reconstruction of a run shares.
struct Recon {
    train: Dataset,
    test: Dataset,
    config: TrainerConfig,
}

fn build(size: &Size) -> Recon {
    let scene = lego::scene();
    let (train, test) = lego::split_views(&scene, size.views, size.view_res);
    Recon { train, test, config: lego::trainer_config(scene.background()) }
}

/// The seed of reconstruction `k` of a run seeded with `seed`.
fn episode_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(k)
}

fn init_model(seed: u64) -> NerfModel {
    NerfModel::new(lego::model_config(), &mut SmallRng::seed_from_u64(seed))
}

/// The ray-batch stream of a reconstruction (separate from the init
/// stream so the replay can restart it).
fn batch_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x0ba7_c4e5)
}

/// One reconstruction from the seeded init, every step timed as an
/// op. Returns the op position where the held-out PSNR first reached
/// the target, interpolated between the two checks around the crossing
/// (the checks themselves are untimed), or `None`, and the final
/// held-out PSNR.
fn reconstruct(
    recon: &Recon,
    size: &Size,
    seed: u64,
    e2e: &mut EndToEnd,
    out: &mut Outcome,
) -> (Option<f64>, f64) {
    let mut trainer = Trainer::new(init_model(seed), recon.config);
    let mut rng = batch_rng(seed);
    let mut last_check: Option<(f64, f64)> = None;
    let mut reached = None;
    for _ in 0..size.steps {
        let stats = e2e.op(|| trainer.step(&recon.train, &mut rng));
        out.op(stats.loss.is_finite(), || {
            format!("step {} loss {}", trainer.iteration(), stats.loss)
        });
        if reached.is_none() && trainer.iteration().is_multiple_of(size.eval_every) {
            let at = e2e.ops() as f64;
            let psnr = trainer.evaluate_psnr(&recon.test);
            if psnr >= size.target_db {
                reached = Some(last_check.map_or(at, |(at0, p0)| {
                    at0 + ((size.target_db - p0) / (psnr - p0)).clamp(0.0, 1.0) * (at - at0)
                }));
            }
            last_check = Some((at, psnr));
        }
    }
    (reached, trainer.evaluate_psnr(&recon.test))
}

/// End-to-end run: reconstructions from fresh seeded inits until
/// `--seconds` of step time have passed; `time_to_target_s` is their
/// median.
pub fn run(ctx: &Ctx, metrics: &mut Metrics) -> Result<Outcome, String> {
    let size = size(ctx);
    let mut e2e = EndToEnd::new(ctx.smoke);
    let recon = e2e.setup(ctx.smoke, || Ok(build(size)))?;
    let mut out = Outcome::default();
    let mut final_db = Vec::new();
    for k in 0.. {
        let (seed, first) = (episode_seed(ctx.seed, k), e2e.ops());
        let (reached, psnr) = reconstruct(&recon, size, seed, &mut e2e, &mut out);
        match reached {
            Some(end) => e2e.target(first, end),
            None => out
                .check(false, || format!("reconstruction {k} never reached {} dB", size.target_db)),
        }
        final_db.push(psnr);
        if e2e.op_s() >= ctx.seconds {
            break;
        }
    }
    e2e.record(metrics)?;
    let psnr = median(&final_db);
    eprintln!("  median final held-out PSNR {psnr:.2} dB");
    out.check(psnr >= size.min_final_db, || {
        format!("median final held-out PSNR {psnr:.2} dB is below {} dB", size.min_final_db)
    });
    Ok(out)
}

/// Times one reconstruction's steps, untraced.
fn timed_steps(recon: &Recon, seed: u64, steps: u32) -> (Vec<f64>, Vec<f64>, Trainer) {
    let mut trainer = Trainer::new(init_model(seed), recon.config);
    let mut rng = batch_rng(seed);
    let (ms, losses) = (0..steps)
        .map(|_| {
            let t = Instant::now();
            let loss = trainer.step(&recon.train, &mut rng).loss;
            (ms_since(t), loss)
        })
        .unzip();
    (ms, losses, trainer)
}

/// `Trainer::step` rebuilt from public calls, single-threaded.
struct ReplayTrainer {
    model: NerfModel,
    occupancy: OccupancyGrid,
    optimizer: ModelOptimizer,
    grads: ModelGrads,
    shard_grads: Vec<ModelGrads>,
    config: TrainerConfig,
    iteration: u32,
}

impl ReplayTrainer {
    fn new(model: NerfModel, config: TrainerConfig) -> Self {
        let mut occupancy =
            OccupancyGrid::new(config.occupancy_resolution, config.occupancy_threshold);
        occupancy.fill();
        let optimizer = ModelOptimizer::new(config.adam, &model);
        let grads = model.alloc_grads();
        ReplayTrainer {
            model,
            occupancy,
            optimizer,
            grads,
            shard_grads: Vec::new(),
            config,
            iteration: 0,
        }
    }

    /// One step, one span per public call; returns the mean loss.
    fn step(
        &mut self,
        dataset: &Dataset,
        rng: &mut SmallRng,
        tracer: &mut Tracer,
        counts: &mut RayCounts,
        cap: &mut Captured,
    ) -> f64 {
        let ReplayTrainer { model, occupancy, optimizer, grads, shard_grads, config, iteration } =
            self;
        let cfg = *config;
        let it = *iteration;
        if cfg.lr_decay != 1.0
            && cfg.lr_decay_interval > 0
            && it > 0
            && it.is_multiple_of(cfg.lr_decay_interval)
        {
            let decays = (it / cfg.lr_decay_interval) as i32;
            optimizer.set_learning_rate(cfg.adam.learning_rate * cfg.lr_decay.powi(decays));
        }
        if it >= cfg.occupancy_warmup && it.is_multiple_of(cfg.occupancy_update_interval) {
            let field = &*model;
            tracer.span(Kind::Occupancy, || {
                occupancy.update(|p| field.density_at(p), cfg.occupancy_decay, rng)
            });
        }
        let batch = dataset.sample_batch(cfg.rays_per_batch, rng);
        let per_shard = batch.len().div_ceil(GRAD_SHARDS.min(batch.len()).max(1));
        let shard_count = batch.len().div_ceil(per_shard.max(1)).max(1);
        while shard_grads.len() < shard_count {
            shard_grads.push(model.alloc_grads());
        }
        let inv_norm = 1.0 / (batch.len() as f32 * 3.0);
        let mut samples = SampleBatch::new();
        let mut kernel = KernelScratch::new();
        let mut shaded: Vec<ShadedSample> = Vec::new();
        let mut weights = Vec::new();
        let mut sample_grads: Vec<SampleGrad> = Vec::new();
        let (mut d_sigma, mut d_color): (Vec<f32>, Vec<Vec3>) = (Vec::new(), Vec::new());
        let mut loss_sum = 0.0f64;
        for (shard, shard_grad) in shard_grads.iter_mut().take(shard_count).enumerate() {
            tracer.span(Kind::Merge, || shard_grad.zero());
            let start = (shard * per_shard).min(batch.len());
            let end = (start + per_shard).min(batch.len());
            let mut shard_loss = 0.0f64;
            for (ray, target) in &batch[start..end] {
                tracer.span(Kind::Sampler, || {
                    sample_ray_into(ray, occupancy, &cfg.sampler, &mut samples)
                });
                tracer.span(Kind::ModelFwd, || {
                    model.forward_batch(samples.positions(), ray.direction, &mut kernel)
                });
                shaded.clear();
                shaded.extend(
                    kernel
                        .sigma()
                        .iter()
                        .zip(kernel.color())
                        .zip(samples.dts())
                        .map(|((&sigma, &color), &dt)| ShadedSample { sigma, color, dt }),
                );
                let (color, transmittance) = tracer.span(Kind::Composite, || {
                    composite_into(&shaded, cfg.background, false, &mut weights)
                });
                let err = color - *target;
                shard_loss += (err.length_squared() / 3.0) as f64;
                let d_pixel = err * (2.0 * inv_norm);
                tracer.span(Kind::CompositeBwd, || {
                    composite_backward_into(&shaded, cfg.background, d_pixel, &mut sample_grads)
                });
                d_sigma.clear();
                d_color.clear();
                d_sigma.extend(sample_grads.iter().map(|g| g.d_sigma));
                d_color.extend(sample_grads.iter().map(|g| g.d_color));
                cap.push(ray.direction, samples.positions(), kernel.sigma(), kernel.color());
                cap.push_grads(&d_sigma, &d_color);
                tracer.span(Kind::ModelBwd, || {
                    model.backward_batch(
                        samples.positions(),
                        &d_sigma,
                        &d_color,
                        &mut kernel,
                        shard_grad,
                    )
                });
                counts.add(&shaded, transmittance);
            }
            loss_sum += shard_loss;
        }
        tracer.span(Kind::Merge, || {
            grads.zero();
            for shard_grad in &shard_grads[..shard_count] {
                grads.accumulate(shard_grad);
            }
        });
        tracer.span(Kind::Adam, || optimizer.step(model, grads));
        *iteration += 1;
        loss_sum / batch.len() as f64
    }
}

/// Whether two models hold bit-identical parameters.
fn same_params(a: &NerfModel, b: &NerfModel) -> bool {
    let bits = |m: &NerfModel| -> Vec<u32> {
        [m.grid().params(), m.density_mlp().params(), m.color_mlp().params()]
            .iter()
            .flat_map(|p| p.iter().map(|x| x.to_bits()))
            .collect()
    };
    bits(a) == bits(b)
}

/// Traced run: the run's first reconstruction untraced at the
/// end-to-end thread count and at one thread, then traced as a replay.
pub fn run_traced(
    ctx: &Ctx,
    tracer: &mut Tracer,
    host: &Host,
    metrics: &mut Metrics,
) -> Result<Outcome, String> {
    let size = size(ctx);
    let recon = build(size);
    let seed = episode_seed(ctx.seed, 0);
    let mut out = Outcome::default();
    let (nt_ms, _, _) = timed_steps(&recon, seed, size.steps);
    set_thread_override(Some(1));
    let (t1_ms, losses, trainer) = timed_steps(&recon, seed, size.steps);

    let mut replay = ReplayTrainer::new(init_model(seed), recon.config);
    let mut rng = batch_rng(seed);
    let mut counts = RayCounts::default();
    for (step, &loss) in losses.iter().enumerate() {
        // The parts re-run against the parameters the step read.
        let before = replay.model.clone();
        let mut cap = Captured::default();
        tracer.set_op(step as u64);
        tracer.begin(Kind::Op);
        let replayed = replay.step(&recon.train, &mut rng, tracer, &mut counts, &mut cap);
        tracer.end();
        out.op(loss.is_finite(), || format!("step {step} loss {loss}"));
        out.replica(replayed.to_bits() == loss.to_bits(), || {
            format!("step {step}: replayed loss {replayed} vs Trainer::step {loss}")
        });
        tracer.begin(Kind::Shadow);
        layers::run_parts(&before, &cap, tracer, &mut out);
        tracer.end();
    }
    let occupancy = trainer.occupancy();
    out.replica(
        same_params(&replay.model, trainer.model())
            && (0..occupancy.cell_count())
                .all(|c| occupancy.is_cell_occupied(c) == replay.occupancy.is_cell_occupied(c)),
        || "replayed steps diverge from Trainer::step".to_string(),
    );
    let psnr = trainer.evaluate_psnr(&recon.test);
    set_thread_override(Some(ctx.threads));

    let replay_t = Replay { tracer, t1_ms: &t1_ms, p50_ms: median(&nt_ms) };
    replay_t.record(
        &[
            Kind::Occupancy,
            Kind::Sampler,
            Kind::ModelFwd,
            Kind::Composite,
            Kind::CompositeBwd,
            Kind::ModelBwd,
            Kind::Merge,
            Kind::Adam,
        ],
        metrics,
    );
    layers::record(&replay_t, &counts, &replay.model, host, metrics);
    metrics.set("nerf.occupancy.share", replay_t.share(&[Kind::Occupancy]));
    metrics.set("nerf.occupancy.occupied_frac", occupancy.occupancy_ratio());
    metrics.set("nerf.trainer.merge_share", replay_t.share(&[Kind::Merge]));
    metrics.set("nerf.adam.share", replay_t.share(&[Kind::Adam]));
    metrics.set("nerf.eval.psnr_db", psnr);
    eprintln!("  traced {} steps from init; held-out PSNR {psnr:.2} dB", size.steps);
    Ok(out)
}
