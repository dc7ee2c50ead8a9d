//! Cycle-level simulator of the Sampling Module (Stage I).
//!
//! The module consists of a pre-processing path that computes ray–cube
//! intersections and a pool of sampling cores that march rays through
//! the occupancy grid. Technique T1 has two halves:
//!
//! * **T1-1 (Model Normalization & Partitioning)** replaces the
//!   general six-plane solve (18 DIV + 54 MUL + 54 ADD, run on the
//!   sampling core itself) with the normalized unit-cube test
//!   (3 MUL + 3 MAC per cube in eight parallel units of a dedicated,
//!   pipelined pre-processing stage), and partitions each ray into
//!   per-octant jobs. Partitioned marching walks the occupancy grid:
//!   fine steps in occupied cells cost one cycle, and empty cells are
//!   skipped [`SKIPS_PER_CYCLE`] at a time from the grid's bitmask.
//!   The unpartitioned baseline marches the full fine lattice of the
//!   ray span.
//! * **T1-2 (Dynamic Workload Scheduling)** changes how jobs are
//!   placed onto the sampling cores: the baseline processes rays in
//!   lock-step batches, while the dynamic scheduler dispatches a whole
//!   ray as soon as enough cores are free.
//!
//! The simulator replays per-ray workloads captured by
//! `fusion3d_nerf::trace_frame` and reports cycles, utilization, and
//! throughput. Table VI's per-scene speedups come from running the
//! same trace under both configurations.

use fusion3d_nerf::math::{GENERAL_INTERSECT_COST, NORMALIZED_INTERSECT_COST};
use fusion3d_nerf::pipeline::FrameTrace;
use fusion3d_nerf::sampler::PairJob;

/// Relative hardware cost of one division versus one multiply/add,
/// used to convert operation counts into pre-processing cycles.
pub const DIV_WEIGHT: u64 = 8;

/// Empty occupancy-grid cells skipped per cycle by the DDA walker
/// (one 64-bit occupancy word covers a run of cells, so skips are
/// cheaper than fine marching steps).
pub const SKIPS_PER_CYCLE: u64 = 4;

/// How ray–model intersections are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectionMode {
    /// General six-plane solve against an arbitrary bounding box, run
    /// serially on the sampling core before it can march (the pre-T1
    /// baseline). The un-normalized module also lacks octant
    /// partitioning, so it marches the full fine lattice of the span.
    General,
    /// Normalized unit-cube test (T1-1): fixed planes, eight parallel
    /// per-cube units in a dedicated pipelined pre-processing stage.
    Normalized,
}

impl IntersectionMode {
    /// Intersection cycles per ray on `alus` parallel ALUs.
    pub fn cycles_per_ray(self, alus: u64) -> u64 {
        match self {
            IntersectionMode::General => GENERAL_INTERSECT_COST.weighted(DIV_WEIGHT).div_ceil(alus),
            IntersectionMode::Normalized => {
                NORMALIZED_INTERSECT_COST.weighted(DIV_WEIGHT).div_ceil(alus * 2)
            }
        }
    }
}

/// How ray jobs are placed onto the sampling cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Baseline: one un-partitioned ray per core, dispatched in
    /// lock-step batches of `cores` rays; the batch completes when its
    /// slowest ray does.
    RayBatch,
    /// Each ray–cube pair is dispatched independently to the earliest
    /// free core (maximal packing, but per-pair control and partial-sum
    /// buffering for every in-flight ray).
    PairByPair,
    /// T1-2: a whole ray's pairs are dispatched together as soon as at
    /// least that many cores are free — near-PairByPair performance
    /// with per-ray control and buffering.
    DynamicWholeRay,
}

/// Configuration of the sampling module simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingModuleConfig {
    /// Number of sampling cores.
    pub cores: usize,
    /// Parallel ALUs in the intersection path.
    pub preproc_alus: u64,
    /// Intersection mode (T1-1 on/off).
    pub intersection: IntersectionMode,
    /// Scheduling policy (T1-2 on/off).
    pub policy: SchedulingPolicy,
    /// Fixed per-job overhead cycles (core setup / drain).
    pub job_overhead: u64,
}

impl SamplingModuleConfig {
    /// The Fusion-3D configuration: 16 cores, normalized
    /// intersections, dynamic whole-ray scheduling.
    pub fn fusion3d() -> Self {
        SamplingModuleConfig {
            cores: 16,
            preproc_alus: 4,
            intersection: IntersectionMode::Normalized,
            policy: SchedulingPolicy::DynamicWholeRay,
            job_overhead: 2,
        }
    }

    /// The pre-T1 baseline: same 16 cores, but general intersections
    /// computed on-core, full-lattice marching, and lock-step ray
    /// batches.
    pub fn naive_baseline() -> Self {
        SamplingModuleConfig {
            intersection: IntersectionMode::General,
            policy: SchedulingPolicy::RayBatch,
            ..SamplingModuleConfig::fusion3d()
        }
    }

    /// Whether this configuration uses the partitioned,
    /// occupancy-skipping march (T1-1 on).
    fn partitioned(&self) -> bool {
        self.intersection == IntersectionMode::Normalized
    }

    /// Marching cycles of one pair job.
    fn pair_march_cycles(&self, job: &PairJob) -> u64 {
        if self.partitioned() {
            let (samples, steps) = (u64::from(job.samples), u64::from(job.steps));
            samples + steps.saturating_sub(samples).div_ceil(SKIPS_PER_CYCLE)
        } else {
            u64::from(job.lattice_steps)
        }
    }
}

/// Result of simulating one frame's Stage-I workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingSimResult {
    /// Total cycles until the last core finishes.
    pub cycles: u64,
    /// Core-cycles spent doing useful work.
    pub busy_core_cycles: u64,
    /// Rays processed (including rays that missed the model).
    pub rays: u64,
    /// Ray–cube pair jobs executed.
    pub pairs: u64,
    /// Total marching steps executed.
    pub steps: u64,
    /// Cycles the dedicated pre-processing unit ran (zero when the
    /// intersection runs on-core).
    pub preproc_cycles: u64,
}

impl SamplingSimResult {
    /// Mean utilization of the sampling cores.
    pub fn core_utilization(&self, cores: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy_core_cycles as f64 / (self.cycles as f64 * cores as f64)
        }
    }

    /// Throughput in marching steps per cycle.
    pub fn steps_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.steps as f64 / self.cycles as f64
        }
    }
}

/// Simulates the sampling module over a frame's ray workloads.
///
/// # Panics
///
/// Panics if the configuration has zero cores or ALUs, or, under
/// [`SchedulingPolicy::DynamicWholeRay`], if a ray marches more pairs
/// than there are cores.
pub fn simulate_sampling(config: &SamplingModuleConfig, trace: &FrameTrace) -> SamplingSimResult {
    assert!(config.cores > 0, "sampling module needs at least one core");
    assert!(config.preproc_alus > 0, "intersection path needs at least one ALU");

    let intersect_cycles = config.intersection.cycles_per_ray(config.preproc_alus);
    // The normalized mode has a dedicated pipelined pre-processing
    // unit; the general mode computes intersections on the core.
    let (preproc_per_ray, oncore_intersect) =
        if config.partitioned() { (intersect_cycles, 0) } else { (0, intersect_cycles) };
    let rays = trace.ray_count();

    let mut result = SamplingSimResult {
        cycles: 0,
        busy_core_cycles: 0,
        rays: rays as u64,
        pairs: 0,
        steps: 0,
        preproc_cycles: preproc_per_ray * rays as u64,
    };

    // Pipelined pre-processing: ray i is ready at (i+1) × per-ray.
    let ready = |i: usize| (i as u64 + 1) * preproc_per_ray;
    // Marching cycles of a pair job, plus the on-core intersection
    // when it is the ray's first.
    let job_cycles = |pair_idx: usize, j: &PairJob| {
        let intersect = if pair_idx == 0 { oncore_intersect } else { 0 };
        config.pair_march_cycles(j) + config.job_overhead + intersect
    };

    match config.policy {
        SchedulingPolicy::RayBatch => {
            let mut batch_start = 0u64;
            let mut traced = trace.rays();
            for batch_idx in 0..rays.div_ceil(config.cores) {
                let last_ray = (batch_idx + 1) * config.cores;
                let ready_t = ready((last_ray - 1).min(rays - 1));
                let start = batch_start.max(ready_t);
                let mut makespan = 0u64;
                for ray in traced.by_ref().take(config.cores) {
                    let march: u64 = ray.jobs.iter().map(|j| config.pair_march_cycles(j)).sum();
                    let job = if ray.valid_pairs > 0 {
                        oncore_intersect + march + config.job_overhead
                    } else {
                        oncore_intersect
                    };
                    result.busy_core_cycles += job;
                    result.steps += ray.total_steps();
                    result.pairs += u64::from(ray.valid_pairs);
                    makespan = makespan.max(job);
                }
                batch_start = start + makespan;
            }
            result.cycles = batch_start;
        }
        SchedulingPolicy::PairByPair => {
            let mut core_free = vec![0u64; config.cores];
            for (i, ray) in trace.rays().enumerate() {
                let ready_t = ready(i);
                for (pair_idx, j) in ray.jobs.iter().enumerate() {
                    let job = job_cycles(pair_idx, j);
                    let core =
                        core_free.iter().enumerate().min_by_key(|(_, &t)| t).map_or(0, |(c, _)| c);
                    let start = core_free[core].max(ready_t);
                    core_free[core] = start + job;
                    result.busy_core_cycles += job;
                    result.steps += u64::from(j.steps);
                    result.pairs += 1;
                }
            }
            result.cycles = core_free.iter().copied().max().unwrap_or(0);
        }
        SchedulingPolicy::DynamicWholeRay => {
            // The cores are interchangeable, so only the multiset of
            // their free times matters: keep it sorted. A ray of k pairs
            // dispatches when k cores are free, at the k-th smallest
            // free time; its pairs take the k earliest-free cores, which
            // are then free at `dispatch + job` (each at least the k-th
            // smallest, so only the order against the rest can change).
            let mut free = vec![0u64; config.cores];
            for (i, ray) in trace.rays().enumerate() {
                let k = ray.jobs.len();
                if k == 0 {
                    continue;
                }
                assert!(
                    k <= config.cores,
                    "a ray marches {k} pairs but the sampling module has only {} cores",
                    config.cores
                );
                let dispatch = free[k - 1].max(ready(i));
                for ((pair_idx, j), slot) in ray.jobs.iter().enumerate().zip(free.iter_mut()) {
                    let job = job_cycles(pair_idx, j);
                    *slot = dispatch + job;
                    result.busy_core_cycles += job;
                    result.steps += u64::from(j.steps);
                    result.pairs += 1;
                }
                free.sort_unstable();
            }
            result.cycles = free.last().copied().unwrap_or(0);
        }
    }

    result.cycles = result.cycles.max(result.preproc_cycles);
    result
}

/// The Table VI ablation: speedup of the full Technique T1 over the
/// naive sampling module on the same workload.
pub fn t1_speedup(trace: &FrameTrace) -> f64 {
    let naive = simulate_sampling(&SamplingModuleConfig::naive_baseline(), trace);
    let fusion = simulate_sampling(&SamplingModuleConfig::fusion3d(), trace);
    if fusion.cycles == 0 {
        1.0
    } else {
        naive.cycles as f64 / fusion.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_scenes::synthetic_scene_traces;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A trace of rays given as `(samples, steps)` per pair. The fine
    /// lattice spans 4x the marched steps (the naive module cannot skip
    /// empty cells).
    fn trace(rays: &[&[(u16, u16)]]) -> FrameTrace {
        let mut trace = FrameTrace::default();
        for pairs in rays {
            let jobs: Vec<PairJob> = pairs
                .iter()
                .map(|&(samples, steps)| PairJob {
                    samples,
                    steps,
                    lattice_steps: steps.saturating_mul(4),
                })
                .collect();
            trace.push_ray(pairs.len() as u8, &jobs);
        }
        trace
    }

    /// The clone-and-argsort `DynamicWholeRay` scheduler that the
    /// sorted free-time vector replaced, kept as its oracle: per ray, a
    /// sorted copy of the per-core free times gives the dispatch time,
    /// and the ray's pairs go to the cores argsorted by free time.
    fn dynamic_whole_ray_oracle(
        config: &SamplingModuleConfig,
        trace: &FrameTrace,
    ) -> SamplingSimResult {
        assert_eq!(config.policy, SchedulingPolicy::DynamicWholeRay);
        let intersect = config.intersection.cycles_per_ray(config.preproc_alus);
        let (preproc, oncore) = if config.partitioned() { (intersect, 0) } else { (0, intersect) };
        let rays = trace.ray_count() as u64;
        let mut result = SamplingSimResult {
            cycles: 0,
            busy_core_cycles: 0,
            rays,
            pairs: 0,
            steps: 0,
            preproc_cycles: preproc * rays,
        };
        let mut core_free = vec![0u64; config.cores];
        for (i, ray) in trace.rays().enumerate() {
            let k = ray.jobs.len();
            if k == 0 {
                continue;
            }
            let ready = (i as u64 + 1) * preproc;
            let mut free_times = core_free.clone();
            free_times.sort_unstable();
            let dispatch = free_times[k - 1].max(ready);
            let mut chosen: Vec<usize> = (0..config.cores).collect();
            chosen.sort_unstable_by_key(|&c| core_free[c]);
            for ((pair_idx, j), &core) in ray.jobs.iter().enumerate().zip(chosen.iter()) {
                let mut job = config.pair_march_cycles(j) + config.job_overhead;
                if pair_idx == 0 {
                    job += oncore;
                }
                core_free[core] = dispatch + job;
                result.busy_core_cycles += job;
                result.steps += u64::from(j.steps);
                result.pairs += 1;
            }
        }
        result.cycles = core_free.iter().copied().max().unwrap_or(0).max(result.preproc_cycles);
        result
    }

    /// Every dynamic whole-ray configuration of the oracle sweep: core
    /// counts from the most pairs a scene ray marches (4) up, with and
    /// without job overhead, in both intersection modes.
    fn dynamic_sweep() -> Vec<SamplingModuleConfig> {
        let mut configs = Vec::new();
        for cores in [4, 8, 16, 32] {
            for job_overhead in [0, 2] {
                for intersection in [IntersectionMode::General, IntersectionMode::Normalized] {
                    configs.push(SamplingModuleConfig {
                        cores,
                        intersection,
                        job_overhead,
                        ..SamplingModuleConfig::fusion3d()
                    });
                }
            }
        }
        configs
    }

    #[test]
    fn sorted_free_times_match_the_argsort_oracle_on_the_scenes() {
        for (scene, trace) in synthetic_scene_traces(128).iter().enumerate() {
            for config in dynamic_sweep() {
                assert_eq!(
                    simulate_sampling(&config, trace),
                    dynamic_whole_ray_oracle(&config, trace),
                    "scene {scene}, {config:?}"
                );
            }
        }
    }

    #[test]
    fn sorted_free_times_match_the_argsort_oracle_under_ties() {
        // Job lengths from a handful of values, so many cores free up
        // at the same cycle and the oracle's argsort breaks ties.
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut trace = FrameTrace::default();
            for _ in 0..600 {
                let marched = rng.gen_range(0..=4usize);
                let jobs: Vec<PairJob> = (0..marched)
                    .map(|_| {
                        let samples = rng.gen_range(0..3u16);
                        PairJob {
                            samples,
                            steps: samples + 4 * rng.gen_range(0..2u16),
                            lattice_steps: rng.gen_range(1..4u16),
                        }
                    })
                    .collect();
                // Some rays are cut by the sample cap before their last
                // valid pair.
                let valid = if marched > 0 { marched + rng.gen_range(0..2usize) } else { 0 };
                trace.push_ray(valid as u8, &jobs);
            }
            for config in dynamic_sweep() {
                assert_eq!(
                    simulate_sampling(&config, &trace),
                    dynamic_whole_ray_oracle(&config, &trace),
                    "seed {seed}, {config:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "a ray marches 3 pairs but the sampling module has only 2 cores")]
    fn a_ray_wider_than_the_core_pool_is_rejected() {
        let cfg = SamplingModuleConfig { cores: 2, ..SamplingModuleConfig::fusion3d() };
        simulate_sampling(&cfg, &trace(&[&[(1, 2), (1, 2), (1, 2)]]));
    }

    #[test]
    fn intersection_cycle_costs() {
        // General: (18·8 + 54 + 54) / 4 = 63 cycles per ray.
        assert_eq!(IntersectionMode::General.cycles_per_ray(4), 63);
        // Normalized: 6 weighted ops across 8 parallel per-cube ALUs.
        assert_eq!(IntersectionMode::Normalized.cycles_per_ray(4), 1);
        assert!(
            IntersectionMode::General.cycles_per_ray(4)
                > 20 * IntersectionMode::Normalized.cycles_per_ray(4),
            "T1-1 must cut pre-processing by >20x"
        );
    }

    #[test]
    fn empty_workload_is_free() {
        let cfg = SamplingModuleConfig::fusion3d();
        let r = simulate_sampling(&cfg, &FrameTrace::default());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.rays, 0);
        assert_eq!(r.core_utilization(cfg.cores), 0.0);
    }

    #[test]
    fn single_ray_accounting() {
        let cfg = SamplingModuleConfig::fusion3d();
        // Pair A: 4 samples, 10 steps (6 skips -> 2 skip cycles).
        // Pair B: 2 samples, 6 steps (4 skips -> 1 skip cycle).
        let w = trace(&[&[(4, 10), (2, 6)]]);
        let r = simulate_sampling(&cfg, &w);
        assert_eq!(r.rays, 1);
        assert_eq!(r.pairs, 2);
        assert_eq!(r.steps, 16);
        // Both pairs run in parallel: makespan = preproc + longest job
        // = 1 + (4 + 2 + overhead).
        assert_eq!(r.cycles, 1 + 4 + 2 + cfg.job_overhead);
        assert_eq!(r.busy_core_cycles, (4 + 2) + (2 + 1) + 2 * cfg.job_overhead);
    }

    #[test]
    fn naive_marches_the_full_lattice_with_oncore_intersection() {
        let cfg = SamplingModuleConfig::naive_baseline();
        let w = trace(&[&[(4, 10)]]); // lattice = 40
        let r = simulate_sampling(&cfg, &w);
        // One core: 63 (intersection) + 40 (lattice) + 2 (overhead).
        assert_eq!(r.cycles, 63 + 40 + cfg.job_overhead);
        assert_eq!(r.preproc_cycles, 0);
    }

    #[test]
    fn ray_batch_waits_for_slowest() {
        let cfg = SamplingModuleConfig {
            cores: 2,
            preproc_alus: 4,
            intersection: IntersectionMode::Normalized,
            policy: SchedulingPolicy::RayBatch,
            job_overhead: 0,
        };
        // Two batches of two rays; each batch bounded by its longest
        // ray (100 dense samples vs 10).
        let w = trace(&[&[(100, 100)], &[(10, 10)], &[(100, 100)], &[(10, 10)]]);
        let r = simulate_sampling(&cfg, &w);
        assert!(r.cycles >= 200, "barrier makespan: {}", r.cycles);
        let dynamic = simulate_sampling(
            &SamplingModuleConfig { policy: SchedulingPolicy::DynamicWholeRay, ..cfg },
            &w,
        );
        assert!(dynamic.cycles < r.cycles);
    }

    #[test]
    fn dynamic_matches_pair_by_pair_closely() {
        let mut w = FrameTrace::default();
        for i in 0..64u16 {
            let a = 5 + (i * 7) % 40;
            let b = 3 + (i * 13) % 25;
            let jobs = [(a, a), (b, b)].map(|(samples, steps)| PairJob {
                samples,
                steps,
                lattice_steps: steps * 4,
            });
            w.push_ray(2, &jobs);
        }
        let base = SamplingModuleConfig::fusion3d();
        let pair = simulate_sampling(
            &SamplingModuleConfig { policy: SchedulingPolicy::PairByPair, ..base },
            &w,
        );
        let dynamic = simulate_sampling(&base, &w);
        assert!(dynamic.cycles >= pair.cycles, "pair-by-pair packs at least as well");
        assert!(
            (dynamic.cycles as f64) < pair.cycles as f64 * 1.3,
            "whole-ray dispatch should be within 30%: {} vs {}",
            dynamic.cycles,
            pair.cycles
        );
    }

    #[test]
    fn utilization_bounded_and_consistent() {
        let mut w = FrameTrace::default();
        for i in 0..100u16 {
            w.push_ray(
                1,
                &[PairJob { samples: 3, steps: 10 + i % 30, lattice_steps: 40 + 4 * (i % 30) }],
            );
        }
        for cfg in [SamplingModuleConfig::fusion3d(), SamplingModuleConfig::naive_baseline()] {
            let r = simulate_sampling(&cfg, &w);
            let u = r.core_utilization(cfg.cores);
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
            assert!(r.cycles >= r.preproc_cycles);
        }
    }

    #[test]
    fn t1_speedup_larger_for_sparse_workloads() {
        // Sparse scene: rays retain a couple of samples across long
        // mostly-empty spans.
        let mut sparse = FrameTrace::default();
        for i in 0..128u16 {
            sparse.push_ray(1, &[PairJob { samples: 2 + i % 3, steps: 40, lattice_steps: 250 }]);
        }
        // Dense scene: a large fraction of the span is occupied.
        let mut dense = FrameTrace::default();
        for i in 0..128u16 {
            let jobs = [
                PairJob { samples: 40 + i % 20, steps: 55 + i % 20, lattice_steps: 130 },
                PairJob { samples: 25, steps: 35, lattice_steps: 120 },
            ];
            dense.push_ray(2, &jobs);
        }
        let s_sparse = t1_speedup(&sparse);
        let s_dense = t1_speedup(&dense);
        assert!(s_sparse > 1.5 * s_dense, "sparse {s_sparse} vs dense {s_dense}");
        assert!(s_dense > 2.0, "even dense scenes speed up: {s_dense}");
        assert!(s_sparse < 64.0, "speedup stays physical: {s_sparse}");
    }

    #[test]
    fn rays_missing_the_model_cost_only_preprocessing() {
        let cfg = SamplingModuleConfig::fusion3d();
        let w = trace(&[&[] as &[_]; 32]);
        let r = simulate_sampling(&cfg, &w);
        assert_eq!(r.pairs, 0);
        assert_eq!(r.busy_core_cycles, 0);
        assert_eq!(r.cycles, r.preproc_cycles);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let cfg = SamplingModuleConfig { cores: 0, ..SamplingModuleConfig::fusion3d() };
        simulate_sampling(&cfg, &FrameTrace::default());
    }
}
