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
//! ([`fusion3d_nerf::pipeline::render_layer`]). Only per-pixel partial
//! sums ever cross chips, which is what slashes chip-to-chip
//! communication by ~94 % (Fig. 12(a)).
//!
//! [`MoeTrainer`] trains on the single model's own step,
//! [`TrainState::fused_step`]: every expert runs each training ray
//! through Stage I, one batched forward and compositing over black, and
//! its gradient flows back through its own compositing, with the shared
//! background attenuated by the other experts' transmittances. The
//! batch shards, the sparse shard-order gradient merge, the
//! learning-rate schedule and the batched occupancy refreshes are
//! [`fusion3d_nerf::trainer::Trainer`]'s; a one-expert MoE trains bit
//! for bit as `Trainer` does. The per-expert occupancy grids gradually
//! prune the regions an expert does not own — the specialization
//! visualized in the paper's Fig. 8.

use fusion3d_nerf::camera::Camera;
use fusion3d_nerf::dataset::Dataset;
use fusion3d_nerf::encoding::{Encoding, HashGrid};
use fusion3d_nerf::image::Image;
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::{render_layer, trace_frame, FrameTrace};
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::trainer::{tail_mean, TrainState, TrainerConfig};
use rand::Rng;
use std::f32::consts::{PI, TAU};

pub use fusion3d_nerf::trainer::Expert;

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
        let sector = TAU / expert_count as f32;
        let experts = (0..expert_count)
            .map(|e| {
                let model = NerfModel::new(per_expert, rng);
                let mut occupancy = OccupancyGrid::new(occupancy_resolution, occupancy_threshold);
                for cell in 0..occupancy.cell_count() {
                    let d = sector_distance(occupancy.cell_center(cell), e, sector);
                    occupancy.set_cell(cell, d <= sector * 0.6);
                }
                Expert { model, occupancy }
            })
            .collect();
        MoeNerf { experts }
    }
}

/// The angle around the model cube's vertical axis between point `c`
/// and the center of sector `e` of width `sector`, in `[0, π]`.
fn sector_distance(c: Vec3, e: usize, sector: f32) -> f32 {
    let angle = (c.z - 0.5).atan2(c.x - 0.5) + PI;
    let d = (angle - (e as f32 + 0.5) * sector).abs();
    if d > PI {
        TAU - d
    } else {
        d
    }
}

/// Partitions a scene occupancy grid into `experts` per-chip gates,
/// emulating the *partial* spatial specialization MoE training
/// produces (Fig. 8: regions are dominated by one expert, but many are
/// shared by two or more). Cells deep inside another expert's
/// azimuthal sector (the inner half around its center) are pruned from
/// an expert's gate; boundary regions stay shared by all. The
/// simulator's multi-chip traces use these gates in place of trained
/// ones.
pub fn partition_occupancy(full: &OccupancyGrid, experts: usize) -> Vec<OccupancyGrid> {
    let mut grids: Vec<OccupancyGrid> =
        (0..experts).map(|_| OccupancyGrid::new(full.resolution(), full.threshold())).collect();
    if experts == 1 {
        grids[0] = full.clone();
        return grids;
    }
    let sector = TAU / experts as f32;
    for cell in full.occupied_cells() {
        let c = full.cell_center(cell);
        for (e, grid) in grids.iter_mut().enumerate() {
            let strongly_owned_by_other =
                (0..experts).any(|m| m != e && sector_distance(c, m, sector) < 0.25 * sector);
            if !strongly_owned_by_other {
                grid.set_cell(cell, true);
            }
        }
    }
    grids
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

/// Trains a [`MoeNerf`] end to end with pixel-sum fusion, on the
/// training step [`fusion3d_nerf::trainer::Trainer`] runs for one
/// model.
#[derive(Debug)]
pub struct MoeTrainer<E: Encoding = HashGrid> {
    moe: MoeNerf<E>,
    state: TrainState,
}

impl<E: Encoding> MoeTrainer<E> {
    /// Creates a trainer over an existing MoE model. Every expert's
    /// optimizer takes its settings from `config.adam`.
    pub fn new(moe: MoeNerf<E>, config: TrainerConfig) -> Self {
        let state = TrainState::new(config, &moe.experts);
        MoeTrainer { moe, state }
    }

    /// The MoE model.
    pub fn moe(&self) -> &MoeNerf<E> {
        &self.moe
    }

    /// Iterations completed.
    pub fn iteration(&self) -> u32 {
        self.state.iteration()
    }

    /// Consumes the trainer, returning the trained MoE.
    pub fn into_moe(self) -> MoeNerf<E> {
        self.moe
    }

    /// One optimization step on a random ray batch
    /// ([`TrainState::fused_step`] over every expert); returns the mean
    /// loss.
    pub fn step<R: Rng>(&mut self, dataset: &Dataset, rng: &mut R) -> f64 {
        self.state.fused_step(&mut self.moe.experts, dataset, rng).loss
    }

    /// Runs `iterations` steps, returning the mean loss of the final
    /// quarter.
    pub fn train<R: Rng>(&mut self, dataset: &Dataset, iterations: u32, rng: &mut R) -> f64 {
        tail_mean(iterations, || self.step(dataset, rng))
    }

    /// Mean PSNR of the MoE render against every dataset view.
    pub fn evaluate_psnr(&self, dataset: &Dataset) -> f64 {
        let config = self.state.config();
        let mut total = 0.0;
        for view in dataset.views() {
            let rendered = self.moe.render_image(&view.camera, &config.sampler, config.background);
            total += rendered.psnr(&view.image);
        }
        total / dataset.views().len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_nerf::adam::Adam;
    use fusion3d_nerf::camera::orbit_poses;
    use fusion3d_nerf::encoding::HashGridConfig;
    use fusion3d_nerf::math::Ray;
    use fusion3d_nerf::model::ModelGrads;
    use fusion3d_nerf::reference;
    use fusion3d_nerf::render::{composite, composite_backward, ShadedSample};
    use fusion3d_nerf::sampler::sample_ray;
    use fusion3d_nerf::scenes::{ProceduralScene, SyntheticScene};
    use fusion3d_nerf::trainer::{Trainer, GRAD_SHARDS};
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

    /// The MoE step with nothing batched, sparse or parallel, over its
    /// own copy of the experts: the same RNG draws, learning-rate
    /// schedule, occupancy refreshes and shard geometry as
    /// [`TrainState::fused_step`], with every expert's samples evaluated
    /// through `reference::model_forward` and backpropagated through
    /// `reference::model_backward`, the refreshes probing one cell at a
    /// time, the shard gradients merged densely in shard order and one
    /// dense Adam step per parameter group.
    struct MoeOracle {
        experts: Vec<Expert>,
        /// Per expert, the grid, density and color Adam states.
        adams: Vec<[Adam; 3]>,
        config: TrainerConfig,
        iteration: u32,
    }

    impl MoeOracle {
        fn new(moe: MoeNerf, config: TrainerConfig) -> Self {
            let adams = moe
                .experts
                .iter()
                .map(|Expert { model, .. }| {
                    [
                        Adam::new(config.adam, model.grid().param_count()),
                        Adam::new(config.adam, model.density_mlp().param_count()),
                        Adam::new(config.adam, model.color_mlp().param_count()),
                    ]
                })
                .collect();
            MoeOracle { experts: moe.experts, adams, config, iteration: 0 }
        }

        fn oracle_step(&mut self, dataset: &Dataset, rng: &mut SmallRng) -> f64 {
            let (config, it) = (self.config, self.iteration);
            if it > 0 && it.is_multiple_of(config.lr_decay_interval) {
                let decays = (it / config.lr_decay_interval) as i32;
                let lr = config.adam.learning_rate * config.lr_decay.powi(decays);
                self.adams.iter_mut().flatten().for_each(|adam| adam.set_learning_rate(lr));
            }
            if it >= config.occupancy_warmup && it.is_multiple_of(config.occupancy_update_interval)
            {
                for Expert { model, occupancy } in &mut self.experts {
                    let sigma = |p| reference::model_forward(model, &[p], Vec3::Z).0[0];
                    occupancy.update(sigma, config.occupancy_decay, rng);
                }
            }
            let batch = dataset.sample_batch(config.rays_per_batch, rng);
            let alloc = |experts: &[Expert]| -> Vec<ModelGrads> {
                experts.iter().map(|e| e.model.alloc_grads()).collect()
            };
            let mut grads = alloc(&self.experts);
            let inv_norm = 1.0 / (batch.len() as f32 * 3.0);
            let mut loss_sum = 0.0f64;
            for shard in batch.chunks(batch.len().div_ceil(GRAD_SHARDS)) {
                let mut shard_grads = alloc(&self.experts);
                let mut shard_loss = 0.0f64;
                for (ray, target) in shard {
                    let layers: Vec<_> = self
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
                    shard_loss += (err.length_squared() / 3.0) as f64;
                    let d_pixel = err * (2.0 * inv_norm);
                    for (e, (expert, (positions, shaded))) in
                        self.experts.iter().zip(&layers).enumerate()
                    {
                        let others: f32 = trans
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != e)
                            .map(|(_, &t)| t)
                            .product();
                        let grads = composite_backward(shaded, config.background * others, d_pixel);
                        let d_sigma: Vec<f32> = grads.iter().map(|g| g.d_sigma).collect();
                        let d_color: Vec<Vec3> = grads.iter().map(|g| g.d_color).collect();
                        reference::model_backward(
                            &expert.model,
                            positions,
                            ray.direction,
                            &d_sigma,
                            &d_color,
                            &mut shard_grads[e],
                        );
                    }
                }
                loss_sum += shard_loss;
                grads.iter_mut().zip(&shard_grads).for_each(|(total, g)| total.accumulate(g));
            }
            for ((expert, [grid, density, color]), g) in
                self.experts.iter_mut().zip(&mut self.adams).zip(&grads)
            {
                let model = &mut expert.model;
                grid.step(model.grid_mut().params_mut(), &g.grid);
                density.step(model.density_mlp_mut().params_mut(), &g.density);
                color.step(model.color_mlp_mut().params_mut(), &g.color);
            }
            self.iteration += 1;
            loss_sum / batch.len() as f64
        }
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
        // The learning rate decays at steps 50 and 100.
        let config = TrainerConfig {
            background: Vec3::new(0.55, 0.7, 0.9),
            lr_decay_interval: 50,
            ..quick_trainer_config()
        };
        let moe = || {
            let mut rng = SmallRng::seed_from_u64(5);
            MoeNerf::with_partitioned_gates(3, small_expert_config(), 12, 0.5, &mut rng)
        };
        let gate = |x: &Expert| -> Vec<bool> {
            (0..x.occupancy.cell_count()).map(|c| x.occupancy.is_cell_occupied(c)).collect()
        };
        for threads in [1, 4] {
            fusion3d_par::set_thread_override(Some(threads));
            let (mut batched, mut oracle) =
                (MoeTrainer::new(moe(), config), MoeOracle::new(moe(), config));
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
                let expected = oracle.oracle_step(&dataset, &mut oracle_rng);
                assert_eq!(
                    loss.to_bits(),
                    expected.to_bits(),
                    "{threads} threads: loss of step {step}"
                );
            }
            assert!(refreshes >= 3, "{refreshes} occupancy refreshes");

            for (e, (b, o)) in batched.moe().experts().iter().zip(&oracle.experts).enumerate() {
                assert_eq!(
                    bits(b.model.grid().params()),
                    bits(o.model.grid().params()),
                    "grid {e}"
                );
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
            let oracle_moe = MoeNerf::from_experts(oracle.experts);
            let expected = oracle_render(&oracle_moe, &camera, &config.sampler, config.background);
            let flat = |pixels: &[Vec3]| {
                bits(&pixels.iter().flat_map(|p| p.to_array()).collect::<Vec<_>>())
            };
            assert_eq!(flat(image.pixels()), flat(&expected), "fused pixels");
        }
        fusion3d_par::set_thread_override(None);
    }

    /// A one-expert MoE is the single model: from the same
    /// initialization and random stream, `MoeTrainer` and `Trainer`
    /// agree bit for bit in every loss, parameter and occupancy cell.
    #[test]
    fn one_expert_trains_as_the_single_model() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
        let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
        // Crosses the refreshes at steps 32 and 48 and the decay at
        // step 50.
        let config = TrainerConfig { lr_decay_interval: 50, ..quick_trainer_config() };
        let mut rng = SmallRng::seed_from_u64(8);
        let (resolution, threshold) = (config.occupancy_resolution, config.occupancy_threshold);
        let moe = MoeNerf::new(1, small_expert_config(), resolution, threshold, &mut rng);
        let mut moe_trainer = MoeTrainer::new(moe, config);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut trainer = Trainer::new(NerfModel::new(small_expert_config(), &mut rng), config);
        let (mut moe_rng, mut rng) = (SmallRng::seed_from_u64(9), SmallRng::seed_from_u64(9));
        for step in 0..60 {
            let moe_loss = moe_trainer.step(&dataset, &mut moe_rng);
            let loss = trainer.step(&dataset, &mut rng).loss;
            assert_eq!(moe_loss.to_bits(), loss.to_bits(), "loss of step {step}");
        }
        let (expert, model) = (&moe_trainer.moe().experts()[0], trainer.model());
        assert_eq!(bits(expert.model.grid().params()), bits(model.grid().params()), "grid");
        assert_eq!(
            bits(expert.model.density_mlp().params()),
            bits(model.density_mlp().params()),
            "density MLP"
        );
        assert_eq!(
            bits(expert.model.color_mlp().params()),
            bits(model.color_mlp().params()),
            "color MLP"
        );
        let cells = |g: &OccupancyGrid| {
            (0..g.cell_count()).map(|c| g.is_cell_occupied(c)).collect::<Vec<_>>()
        };
        assert_eq!(cells(&expert.occupancy), cells(trainer.occupancy()), "occupancy");
        assert!(trainer.occupancy().occupancy_ratio() < 1.0, "the refreshes never cleared a cell");
    }

    #[test]
    fn step_follows_the_learning_rate_schedule() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
        let dataset = Dataset::from_scene(&scene, 4, 16, 0.9);
        // The learning rate decays to zero from the second step on.
        let config =
            TrainerConfig { lr_decay: 0.0, lr_decay_interval: 1, ..quick_trainer_config() };
        let mut rng = SmallRng::seed_from_u64(3);
        let moe = MoeNerf::new(2, small_expert_config(), 12, 0.5, &mut rng);
        let mut trainer = MoeTrainer::new(moe, config);
        let params = |t: &MoeTrainer| -> Vec<u32> {
            t.moe()
                .experts()
                .iter()
                .flat_map(|e| {
                    let m = &e.model;
                    bits(m.grid().params())
                        .into_iter()
                        .chain(bits(m.density_mlp().params()))
                        .chain(bits(m.color_mlp().params()))
                })
                .collect()
        };
        let initial = params(&trainer);
        trainer.step(&dataset, &mut rng);
        let first = params(&trainer);
        assert_ne!(first, initial, "the first step moved nothing");
        for _ in 0..3 {
            trainer.step(&dataset, &mut rng);
        }
        assert_eq!(params(&trainer), first, "parameters moved at a zero learning rate");
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

    #[test]
    fn partition_covers_and_overlaps() {
        let full = ProceduralScene::synthetic(SyntheticScene::Hotdog).occupancy_grid(32);
        let parts = partition_occupancy(&full, 4);
        assert_eq!(parts.len(), 4);
        // Every occupied cell is owned by at least one expert.
        for cell in full.occupied_cells() {
            assert!(parts.iter().any(|g| g.is_cell_occupied(cell)));
        }
        // Each expert holds a strict subset.
        let total: f64 = parts.iter().map(|g| g.occupancy_ratio()).sum();
        assert!(total >= full.occupancy_ratio());
        for p in &parts {
            assert!(p.occupancy_ratio() < full.occupancy_ratio());
        }
    }
}
