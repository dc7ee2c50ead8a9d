//! The Mixture-of-Experts NeRF model (Technique T3, Level-1 Tiling).
//!
//! Instead of one large model, the scene is learned by `N` complete
//! small models ("experts"), one per chip, each with its own hash
//! tables and — crucially — its own occupancy grid, which acts as the
//! MoE *gating function* the paper identifies in the NeRF pipeline
//! itself. A pixel is produced by compositing each expert's samples
//! independently on its chip and *adding* the per-expert pixel values
//! in the I/O module:
//!
//! ```text
//! C = Σ_e C_e + background · Π_e T_e
//! ```
//!
//! where `C_e` is expert `e`'s composited radiance (black background)
//! and `T_e` its residual transmittance. Each expert renders its layer
//! on the unchanged single-chip pipeline
//! ([`fusion3d_nerf::pipeline::render_layer`]) and trains on the same
//! batched kernels as [`fusion3d_nerf::trainer::Trainer`]. Only
//! per-pixel partial sums ever cross chips, which is what slashes
//! chip-to-chip communication by ~94 % (Fig. 12(a)). During training, gradients flow to each
//! expert through its own compositing (including the shared
//! background product), and the per-expert occupancy grids gradually
//! prune the regions an expert does not own — the specialization
//! visualized in the paper's Fig. 8.

use fusion3d_nerf::batch::{KernelScratch, SampleBatch};
use fusion3d_nerf::camera::Camera;
use fusion3d_nerf::dataset::Dataset;
use fusion3d_nerf::encoding::{Encoding, HashGrid};
use fusion3d_nerf::image::Image;
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::{ModelConfig, ModelGrads, ModelOptimizer, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{render_layer, trace_frame, FrameTrace};
use fusion3d_nerf::render::{composite_backward_into, composite_into, SampleGrad, ShadedSample};
use fusion3d_nerf::sampler::{sample_ray_into, SamplerConfig};
use fusion3d_nerf::trainer::{TrainScratch, TrainerConfig};
use rand::Rng;

/// One expert: a complete small NeRF model plus its gating occupancy
/// grid, resident on one chip.
#[derive(Debug)]
pub struct Expert<E: Encoding = HashGrid> {
    /// The expert's field.
    pub model: NerfModel<E>,
    /// The expert's occupancy grid (the MoE gate).
    pub occupancy: OccupancyGrid,
}

/// A Mixture-of-Experts NeRF: `N` complete small models whose pixel
/// outputs are fused by addition. Generic over the experts' spatial
/// encoding — the paper applies the same Level-1 tiling to TensoRF's
/// dense grids (Sec. VI-C).
#[derive(Debug)]
pub struct MoeNerf<E: Encoding = HashGrid> {
    experts: Vec<Expert<E>>,
}

impl MoeNerf<HashGrid> {
    /// Creates `expert_count` experts of the given per-expert
    /// architecture, with all occupancy grids initially full.
    ///
    /// # Panics
    ///
    /// Panics if `expert_count` is zero.
    pub fn new<R: Rng>(
        expert_count: usize,
        per_expert: ModelConfig,
        occupancy_resolution: u32,
        occupancy_threshold: f32,
        rng: &mut R,
    ) -> Self {
        assert!(expert_count > 0, "MoE needs at least one expert");
        let experts = (0..expert_count)
            .map(|_| {
                let mut model = NerfModel::new(per_expert, rng);
                // Pixel values are summed across experts, so each
                // expert's initial density is scaled down by 1/N
                // (through the exponential activation's bias) to keep
                // the fused output at single-model brightness.
                *model.density_mlp_mut().output_bias_mut(0) -= (expert_count as f32).ln();
                let mut occupancy = OccupancyGrid::new(occupancy_resolution, occupancy_threshold);
                occupancy.fill();
                Expert { model, occupancy }
            })
            .collect();
        MoeNerf { experts }
    }

    /// Creates experts whose gates are seeded with an azimuthal
    /// partition of the model cube (equal sectors around the vertical
    /// axis, with a 10 % overlap band shared between neighbours).
    ///
    /// At the paper's training scale expert specialization emerges by
    /// itself (Fig. 8); at reduced scale a symmetric start can
    /// collapse onto a single expert, so the reproduction seeds the
    /// regional structure through the gates — the occupancy-gating
    /// feedback then maintains and refines it, since an expert is
    /// never supervised (and therefore never exceeds the gating
    /// density threshold) outside its region.
    ///
    /// # Panics
    ///
    /// Panics if `expert_count` is zero.
    pub fn with_partitioned_gates<R: Rng>(
        expert_count: usize,
        per_expert: ModelConfig,
        occupancy_resolution: u32,
        occupancy_threshold: f32,
        rng: &mut R,
    ) -> Self {
        assert!(expert_count > 0, "MoE needs at least one expert");
        let sector = std::f32::consts::TAU / expert_count as f32;
        let experts = (0..expert_count)
            .map(|e| {
                let model = NerfModel::new(per_expert, rng);
                let mut occupancy = OccupancyGrid::new(occupancy_resolution, occupancy_threshold);
                for cell in 0..occupancy.cell_count() {
                    let c = occupancy.cell_center(cell);
                    let angle = (c.z - 0.5).atan2(c.x - 0.5) + std::f32::consts::PI;
                    let center = (e as f32 + 0.5) * sector;
                    let mut d = (angle - center).abs();
                    if d > std::f32::consts::PI {
                        d = std::f32::consts::TAU - d;
                    }
                    occupancy.set_cell(cell, d <= sector * 0.6);
                }
                Expert { model, occupancy }
            })
            .collect();
        MoeNerf { experts }
    }
}

impl<E: Encoding> MoeNerf<E> {
    /// Builds an MoE from pre-constructed experts (any encoding).
    ///
    /// # Panics
    ///
    /// Panics if `experts` is empty.
    pub fn from_experts(experts: Vec<Expert<E>>) -> Self {
        assert!(!experts.is_empty(), "MoE needs at least one expert");
        MoeNerf { experts }
    }

    /// The experts.
    pub fn experts(&self) -> &[Expert<E>] {
        &self.experts
    }

    /// Number of experts (chips).
    pub fn expert_count(&self) -> usize {
        self.experts.len()
    }

    /// Total learnable parameters across all experts.
    pub fn param_count(&self) -> usize {
        self.experts.iter().map(|e| e.model.param_count()).sum()
    }

    /// Renders a full frame: every expert renders its layer on the
    /// single-chip pipeline, and the layers fuse per pixel in expert
    /// order as `Σ C_e + background · Π T_e`.
    pub fn render_image(
        &self,
        camera: &Camera,
        sampler: &SamplerConfig,
        background: Vec3,
    ) -> Image {
        let mut fused = vec![(Vec3::ZERO, 1.0f32); camera.pixel_count() as usize];
        for expert in &self.experts {
            let layer = render_layer(&expert.model, &expert.occupancy, camera, sampler);
            for ((color, transmittance), (c, t)) in fused.iter_mut().zip(layer) {
                *color += c;
                *transmittance *= t;
            }
        }
        let mut img = Image::new(camera.width(), camera.height());
        for (pixel, (color, transmittance)) in img.pixels_mut().iter_mut().zip(fused) {
            *pixel = color + background * transmittance;
        }
        img
    }

    /// Captures per-expert (per-chip) Stage-I traces for one frame,
    /// for the multi-chip workload-balance analysis.
    pub fn per_chip_workloads(&self, camera: &Camera, sampler: &SamplerConfig) -> Vec<FrameTrace> {
        self.experts.iter().map(|e| trace_frame(&e.occupancy, camera, sampler)).collect()
    }
}

/// One expert's training working set, reused by every step: its
/// Stage-I samples, the forward state its backward pass reuses, and
/// the per-sample rows between compositing and the model.
#[derive(Debug, Default)]
struct ExpertScratch {
    samples: SampleBatch,
    kernel: KernelScratch,
    shaded: Vec<ShadedSample>,
    weights: Vec<f32>,
    sample_grads: Vec<SampleGrad>,
    d_sigma: Vec<f32>,
    d_color: Vec<Vec3>,
    /// The expert's transmittance behind the current ray.
    transmittance: f32,
}

/// Trains a [`MoeNerf`] end to end with pixel-sum fusion.
#[derive(Debug)]
pub struct MoeTrainer<E: Encoding = HashGrid> {
    moe: MoeNerf<E>,
    optimizers: Vec<ModelOptimizer>,
    grads: Vec<ModelGrads>,
    scratch: Vec<ExpertScratch>,
    /// The occupancy refresh's buffers, shared by the experts in turn.
    refresh: TrainScratch,
    config: TrainerConfig,
    iteration: u32,
}

impl<E: Encoding> MoeTrainer<E> {
    /// Creates a trainer over an existing MoE model. Every expert's
    /// optimizer takes its settings from `config.adam`.
    pub fn new(moe: MoeNerf<E>, config: TrainerConfig) -> Self {
        let optimizers =
            moe.experts.iter().map(|e| ModelOptimizer::new(config.adam, &e.model)).collect();
        let grads = moe.experts.iter().map(|e| e.model.alloc_grads()).collect();
        let scratch = moe.experts.iter().map(|_| ExpertScratch::default()).collect();
        let refresh = TrainScratch::new();
        MoeTrainer { moe, optimizers, grads, scratch, refresh, config, iteration: 0 }
    }

    /// The MoE model.
    pub fn moe(&self) -> &MoeNerf<E> {
        &self.moe
    }

    /// Iterations completed.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Consumes the trainer, returning the trained MoE.
    pub fn into_moe(self) -> MoeNerf<E> {
        self.moe
    }

    fn maybe_refresh_occupancy<R: Rng>(&mut self, rng: &mut R) {
        if self.iteration >= self.config.occupancy_warmup
            && self.iteration.is_multiple_of(self.config.occupancy_update_interval)
        {
            let decay = self.config.occupancy_decay;
            for expert in &mut self.moe.experts {
                self.refresh.refresh_occupancy(&mut expert.occupancy, &expert.model, decay, rng);
            }
        }
    }

    /// One optimization step on a random ray batch. Every expert runs
    /// each ray through the batched kernels — Stage I, one model
    /// forward, compositing over black — and keeps its forward state
    /// for the backward pass that follows the fused loss.
    pub fn step<R: Rng>(&mut self, dataset: &Dataset, rng: &mut R) -> f64 {
        self.maybe_refresh_occupancy(rng);
        let batch = dataset.sample_batch(self.config.rays_per_batch, rng);
        for g in &mut self.grads {
            g.zero();
        }
        let mut loss_sum = 0.0f64;
        let inv_norm = 1.0 / (batch.len() as f32 * 3.0);
        let MoeTrainer { moe, grads, scratch, config, .. } = &mut *self;

        for (ray, target) in &batch {
            let mut color = Vec3::ZERO;
            for (expert, s) in moe.experts.iter().zip(scratch.iter_mut()) {
                sample_ray_into(ray, &expert.occupancy, &config.sampler, &mut s.samples);
                expert.model.forward_batch(s.samples.positions(), ray.direction, &mut s.kernel);
                s.shaded.clear();
                s.shaded.extend(
                    s.kernel
                        .sigma()
                        .iter()
                        .zip(s.kernel.color())
                        .zip(s.samples.dts())
                        .map(|((&sigma, &color), &dt)| ShadedSample { sigma, color, dt }),
                );
                let (c, t) = composite_into(&s.shaded, Vec3::ZERO, false, &mut s.weights);
                color += c;
                s.transmittance = t;
            }
            let trans_product: f32 = scratch.iter().map(|s| s.transmittance).product();
            color += config.background * trans_product;

            let err = color - *target;
            loss_sum += (err.length_squared() / 3.0) as f64;
            let d_pixel = err * (2.0 * inv_norm);

            // Backward per expert: each expert sees the shared
            // background attenuated by the other experts'
            // transmittances, so composite_backward's background term
            // carries exactly ∂(bg · Π T)/∂(this expert).
            for (e, (expert, g)) in moe.experts.iter().zip(grads.iter_mut()).enumerate() {
                let others: f32 = scratch
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != e)
                    .map(|(_, s)| s.transmittance)
                    .product();
                let effective_bg = config.background * others;
                let s = &mut scratch[e];
                composite_backward_into(&s.shaded, effective_bg, d_pixel, &mut s.sample_grads);
                s.d_sigma.clear();
                s.d_sigma.extend(s.sample_grads.iter().map(|g| g.d_sigma));
                s.d_color.clear();
                s.d_color.extend(s.sample_grads.iter().map(|g| g.d_color));
                expert.model.backward_batch(
                    s.samples.positions(),
                    &s.d_sigma,
                    &s.d_color,
                    &mut s.kernel,
                    g,
                );
            }
        }

        for (expert, (opt, grads)) in
            self.moe.experts.iter_mut().zip(self.optimizers.iter_mut().zip(self.grads.iter()))
        {
            opt.step(&mut expert.model, grads);
        }
        self.iteration += 1;
        loss_sum / batch.len() as f64
    }

    /// Runs `iterations` steps, returning the mean loss of the final
    /// quarter.
    pub fn train<R: Rng>(&mut self, dataset: &Dataset, iterations: u32, rng: &mut R) -> f64 {
        let mut tail = Vec::new();
        for i in 0..iterations {
            let loss = self.step(dataset, rng);
            if i >= iterations - iterations.div_ceil(4) {
                tail.push(loss);
            }
        }
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }

    /// Mean PSNR of the MoE render against every dataset view.
    pub fn evaluate_psnr(&self, dataset: &Dataset) -> f64 {
        let mut total = 0.0;
        for view in dataset.views() {
            let rendered =
                self.moe.render_image(&view.camera, &self.config.sampler, self.config.background);
            total += rendered.psnr(&view.image);
        }
        total / dataset.views().len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_nerf::camera::orbit_poses;
    use fusion3d_nerf::encoding::HashGridConfig;
    use fusion3d_nerf::math::Ray;
    use fusion3d_nerf::reference;
    use fusion3d_nerf::render::{composite, composite_backward};
    use fusion3d_nerf::sampler::sample_ray;
    use fusion3d_nerf::scenes::{ProceduralScene, SyntheticScene};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_expert_config() -> ModelConfig {
        ModelConfig {
            grid: HashGridConfig {
                levels: 3,
                features_per_level: 2,
                log2_table_size: 9,
                base_resolution: 4,
                max_resolution: 16,
            },
            hidden_dim: 12,
            geo_feature_dim: 3,
        }
    }

    fn quick_trainer_config() -> TrainerConfig {
        TrainerConfig {
            rays_per_batch: 32,
            sampler: SamplerConfig { steps_per_diagonal: 32, max_samples_per_ray: 24 },
            occupancy_resolution: 12,
            occupancy_update_interval: 16,
            occupancy_warmup: 24,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn construction_and_capacity() {
        let mut rng = SmallRng::seed_from_u64(0);
        let moe = MoeNerf::new(4, small_expert_config(), 12, 0.5, &mut rng);
        assert_eq!(moe.expert_count(), 4);
        // Four experts hold four times one expert's parameters.
        let single = MoeNerf::new(1, small_expert_config(), 12, 0.5, &mut rng);
        assert_eq!(moe.param_count(), 4 * single.param_count());
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn zero_experts_rejected() {
        let mut rng = SmallRng::seed_from_u64(0);
        MoeNerf::new(0, small_expert_config(), 12, 0.5, &mut rng);
    }

    fn test_camera(size: u32) -> Camera {
        Camera::new(orbit_poses(Vec3::splat(0.5), 1.2, 1)[0], size, size, 0.8)
    }

    #[test]
    fn empty_gates_render_pure_background() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut moe = MoeNerf::new(2, small_expert_config(), 8, 0.5, &mut rng);
        for e in &mut moe.experts {
            e.occupancy = OccupancyGrid::new(8, 0.5); // all empty
        }
        let bg = Vec3::new(0.2, 0.5, 0.8);
        let img = moe.render_image(&test_camera(8), &SamplerConfig::default(), bg);
        assert!(img.pixels().iter().all(|&p| p == bg));
    }

    /// One expert's samples along `ray`, shaded one sample at a time
    /// through the scalar oracle.
    fn oracle_shade(
        expert: &Expert,
        ray: &Ray,
        sampler: &SamplerConfig,
    ) -> (Vec<Vec3>, Vec<ShadedSample>) {
        let (samples, _) = sample_ray(ray, &expert.occupancy, sampler);
        let positions: Vec<Vec3> = samples.iter().map(|s| s.position).collect();
        let (sigmas, colors) = reference::model_forward(&expert.model, &positions, ray.direction);
        let shaded = samples
            .iter()
            .zip(sigmas.iter().zip(&colors))
            .map(|(s, (&sigma, &color))| ShadedSample { sigma, color, dt: s.dt })
            .collect();
        (positions, shaded)
    }

    /// The per-sample MoE step: the same RNG draws, occupancy refreshes
    /// and Adam steps as [`MoeTrainer::step`], with every expert's
    /// samples evaluated through `reference::model_forward` and
    /// backpropagated through `reference::model_backward`.
    fn oracle_step(trainer: &mut MoeTrainer, dataset: &Dataset, rng: &mut SmallRng) -> f64 {
        trainer.maybe_refresh_occupancy(rng);
        let config = trainer.config;
        let batch = dataset.sample_batch(config.rays_per_batch, rng);
        for g in &mut trainer.grads {
            g.zero();
        }
        let inv_norm = 1.0 / (batch.len() as f32 * 3.0);
        let mut loss_sum = 0.0f64;
        for (ray, target) in &batch {
            let layers: Vec<_> = trainer
                .moe
                .experts
                .iter()
                .map(|expert| oracle_shade(expert, ray, &config.sampler))
                .collect();
            let mut color = Vec3::ZERO;
            let mut trans = Vec::new();
            for (_, shaded) in &layers {
                let out = composite(shaded, Vec3::ZERO, false);
                color += out.color;
                trans.push(out.final_transmittance);
            }
            color += config.background * trans.iter().product::<f32>();
            let err = color - *target;
            loss_sum += (err.length_squared() / 3.0) as f64;
            let d_pixel = err * (2.0 * inv_norm);
            for (e, (expert, (positions, shaded))) in
                trainer.moe.experts.iter().zip(&layers).enumerate()
            {
                let others: f32 =
                    trans.iter().enumerate().filter(|&(j, _)| j != e).map(|(_, &t)| t).product();
                let grads = composite_backward(shaded, config.background * others, d_pixel);
                let d_sigma: Vec<f32> = grads.iter().map(|g| g.d_sigma).collect();
                let d_color: Vec<Vec3> = grads.iter().map(|g| g.d_color).collect();
                reference::model_backward(
                    &expert.model,
                    positions,
                    ray.direction,
                    &d_sigma,
                    &d_color,
                    &mut trainer.grads[e],
                );
            }
        }
        for (expert, (opt, grads)) in
            trainer.moe.experts.iter_mut().zip(trainer.optimizers.iter_mut().zip(&trainer.grads))
        {
            opt.step(&mut expert.model, grads);
        }
        trainer.iteration += 1;
        loss_sum / batch.len() as f64
    }

    /// The MoE frame through the scalar oracle: per pixel, every
    /// expert composites over black and the layers fuse in expert
    /// order.
    fn oracle_render(
        moe: &MoeNerf,
        camera: &Camera,
        sampler: &SamplerConfig,
        bg: Vec3,
    ) -> Vec<Vec3> {
        camera
            .rays()
            .map(|(_, _, ray)| {
                let mut color = Vec3::ZERO;
                let mut transmittance = 1.0f32;
                for expert in moe.experts() {
                    let out = composite(&oracle_shade(expert, &ray, sampler).1, Vec3::ZERO, false);
                    color += out.color;
                    transmittance *= out.final_transmittance;
                }
                color + bg * transmittance
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn batched_step_matches_the_per_sample_oracle() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
        let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
        let config =
            TrainerConfig { background: Vec3::new(0.55, 0.7, 0.9), ..quick_trainer_config() };
        let trainer = || {
            let mut rng = SmallRng::seed_from_u64(5);
            let moe = MoeNerf::with_partitioned_gates(3, small_expert_config(), 12, 0.5, &mut rng);
            MoeTrainer::new(moe, config)
        };
        let (mut batched, mut oracle) = (trainer(), trainer());
        let gate = |x: &Expert| -> Vec<bool> {
            (0..x.occupancy.cell_count()).map(|c| x.occupancy.is_cell_occupied(c)).collect()
        };
        let initial_gates: Vec<Vec<bool>> = batched.moe().experts().iter().map(gate).collect();
        let (mut batched_rng, mut oracle_rng) =
            (SmallRng::seed_from_u64(6), SmallRng::seed_from_u64(6));
        let mut refreshes = 0;
        for step in 0..120u32 {
            refreshes += u32::from(
                step >= config.occupancy_warmup
                    && step.is_multiple_of(config.occupancy_update_interval),
            );
            let loss = batched.step(&dataset, &mut batched_rng);
            let expected = oracle_step(&mut oracle, &dataset, &mut oracle_rng);
            assert_eq!(loss.to_bits(), expected.to_bits(), "loss of step {step}");
        }
        assert!(refreshes >= 3, "{refreshes} occupancy refreshes");

        for (e, (b, o)) in batched.moe().experts().iter().zip(oracle.moe().experts()).enumerate() {
            assert_eq!(bits(b.model.grid().params()), bits(o.model.grid().params()), "grid {e}");
            assert_eq!(
                bits(b.model.density_mlp().params()),
                bits(o.model.density_mlp().params()),
                "density MLP {e}"
            );
            assert_eq!(
                bits(b.model.color_mlp().params()),
                bits(o.model.color_mlp().params()),
                "color MLP {e}"
            );
            assert_eq!(gate(b), gate(o), "gate {e}");
        }
        let final_gates: Vec<Vec<bool>> = batched.moe().experts().iter().map(gate).collect();
        assert_ne!(final_gates, initial_gates, "the refreshes never moved a gate");

        let camera = test_camera(12);
        let image = batched.moe().render_image(&camera, &config.sampler, config.background);
        let expected = oracle_render(oracle.moe(), &camera, &config.sampler, config.background);
        let flat =
            |pixels: &[Vec3]| bits(&pixels.iter().flat_map(|p| p.to_array()).collect::<Vec<_>>());
        assert_eq!(flat(image.pixels()), flat(&expected), "fused pixels");
    }

    #[test]
    fn step_uses_the_configs_adam_settings() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
        let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
        let mut config = quick_trainer_config();
        config.adam.learning_rate = 0.0;
        let mut rng = SmallRng::seed_from_u64(3);
        let moe = MoeNerf::new(2, small_expert_config(), 12, 0.5, &mut rng);
        let initial: Vec<Vec<f32>> =
            moe.experts().iter().map(|e| e.model.grid().params().to_vec()).collect();
        let mut trainer = MoeTrainer::new(moe, config);
        trainer.step(&dataset, &mut rng);
        for (e, (expert, before)) in trainer.moe().experts().iter().zip(&initial).enumerate() {
            assert!(expert.model.grid().params() == before.as_slice(), "expert {e} moved");
        }
    }

    #[test]
    fn moe_training_reduces_loss() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
        let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
        let mut rng = SmallRng::seed_from_u64(3);
        let moe = MoeNerf::new(2, small_expert_config(), 12, 0.5, &mut rng);
        let mut trainer = MoeTrainer::new(moe, quick_trainer_config());
        let first: f64 = (0..3).map(|_| trainer.step(&dataset, &mut rng)).sum::<f64>() / 3.0;
        for _ in 0..60 {
            trainer.step(&dataset, &mut rng);
        }
        let last: f64 = (0..3).map(|_| trainer.step(&dataset, &mut rng)).sum::<f64>() / 3.0;
        // The 0.8 factor leaves headroom for the vendored RNG's
        // stream (see vendor/README.md), which shifts this margin
        // slightly; the substantial-decrease intent is unchanged.
        assert!(last < first * 0.8, "MoE loss should drop: {first} -> {last}");
        assert_eq!(trainer.iteration(), 66);
    }

    #[test]
    fn partitioned_gates_cover_and_specialize() {
        let mut rng = SmallRng::seed_from_u64(9);
        let moe = MoeNerf::with_partitioned_gates(4, small_expert_config(), 12, 0.5, &mut rng);
        // Every cell is owned by at least one expert, and no expert
        // owns everything.
        let total_cells = moe.experts()[0].occupancy.cell_count();
        for cell in 0..total_cells {
            assert!(
                moe.experts().iter().any(|e| e.occupancy.is_cell_occupied(cell)),
                "cell {cell} unowned"
            );
        }
        for (i, e) in moe.experts().iter().enumerate() {
            let r = e.occupancy.occupancy_ratio();
            assert!(r > 0.1 && r < 0.6, "expert {i} gate ratio {r}");
        }
    }

    #[test]
    fn per_chip_workloads_have_frame_shape() {
        let mut rng = SmallRng::seed_from_u64(4);
        let moe = MoeNerf::new(3, small_expert_config(), 8, 0.5, &mut rng);
        let pose = fusion3d_nerf::camera::orbit_poses(Vec3::splat(0.5), 1.2, 1)[0];
        let cam = fusion3d_nerf::camera::Camera::new(pose, 8, 8, 0.8);
        let per_chip = moe.per_chip_workloads(&cam, &SamplerConfig::default());
        assert_eq!(per_chip.len(), 3);
        for chip in &per_chip {
            assert_eq!(chip.ray_count(), 64);
        }
    }
}
