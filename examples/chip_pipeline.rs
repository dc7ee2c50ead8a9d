//! A tour of the single-chip accelerator's internals: per-stage cycle
//! budgets, scheduling policies, bank mappings, the FIEM datapath, and
//! the voltage–frequency operating range.
//!
//! ```text
//! cargo run --release --example chip_pipeline
//! ```

use fusion3d::arith::cost::{compare_fiem, WEIGHT_BITS};
use fusion3d::arith::fiem::{fiem_mul, int2fp_fpmul};
use fusion3d::core::chip::FusionChip;
use fusion3d::core::config::{frequency_at_voltage_mhz, Module};
use fusion3d::core::sampling::{simulate_sampling, SamplingModuleConfig, SchedulingPolicy};
use fusion3d::mem::banks::{group_from_addresses, simulate_groups, BankMapping, VertexRequest};
use fusion3d::nerf::camera::{orbit_poses, Camera};
use fusion3d::nerf::pipeline::trace_frame;
use fusion3d::nerf::{ProceduralScene, SamplerConfig, SyntheticScene, Vec3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let chip = FusionChip::scaled_up();
    let cfg = chip.config();
    println!(
        "Fusion-3D scaled-up chip: {:.1} mm^2, {:.0} KB SRAM, {:.0} MHz, {:.2} W",
        cfg.die_area_mm2,
        cfg.total_sram_kb(),
        cfg.clock_mhz,
        cfg.typical_power_w
    );
    println!("\nModule breakdown:");
    for m in Module::ALL {
        println!(
            "  {:<16} {:>5.2} mm^2  {:>6.3} W",
            m.name(),
            cfg.module_area_mm2(m),
            cfg.module_power_w(m)
        );
    }

    // Stage-level view of one frame.
    let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
    let occ = scene.occupancy_grid(32);
    let pose = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, 8)[2];
    let camera = Camera::new(pose, 128, 128, 0.9);
    let sampler = SamplerConfig { steps_per_diagonal: 512, max_samples_per_ray: 256 };
    let trace = trace_frame(&occ, &camera, &sampler);
    let frame = chip.simulate_frame(&trace);
    println!(
        "\nFrame on '{}': {} rays, {} samples",
        scene.name(),
        trace.ray_count(),
        trace.total_samples
    );
    println!(
        "  Stage I {:>9} cycles | Stage II {:>9} cycles | Stage III {:>9} cycles -> {:?} bound",
        frame.stages.sampling,
        frame.stages.interpolation,
        frame.stages.post_processing,
        frame.stages.bottleneck()
    );

    // Scheduling policies on the same Stage-I workload.
    println!("\nSampling-module scheduling (same workload):");
    for (name, policy) in [
        ("ray-batch (baseline)", SchedulingPolicy::RayBatch),
        ("pair-by-pair", SchedulingPolicy::PairByPair),
        ("dynamic whole-ray (T1-2)", SchedulingPolicy::DynamicWholeRay),
    ] {
        let cfg = SamplingModuleConfig { policy, ..SamplingModuleConfig::fusion3d() };
        let r = simulate_sampling(&cfg, &trace);
        println!(
            "  {:<26} {:>9} cycles, {:>5.1}% core utilization",
            name,
            r.cycles,
            r.core_utilization(cfg.cores) * 100.0
        );
    }

    // Bank mappings on real hash-grid access groups: the eight corner
    // addresses of random query points, exactly what Stage II fetches.
    let grid = fusion3d::nerf::HashGrid::new(fusion3d::nerf::HashGridConfig {
        levels: 8,
        features_per_level: 2,
        log2_table_size: 14,
        base_resolution: 32,
        max_resolution: 1024,
    });
    let mut rng = SmallRng::seed_from_u64(3);
    let mut accesses = Vec::new();
    let mut groups: Vec<[VertexRequest; 8]> = Vec::new();
    for _ in 0..250 {
        let p = Vec3::new(rng.gen(), rng.gen(), rng.gen());
        accesses.clear();
        grid.record_accesses(p, &mut accesses);
        for level in accesses.chunks(8) {
            let mut addrs = [0u32; 8];
            for (slot, a) in addrs.iter_mut().zip(level) {
                *slot = a.address;
            }
            groups.push(group_from_addresses(addrs));
        }
    }
    let refs: Vec<&[VertexRequest]> = groups.iter().map(|g| g.as_slice()).collect();
    println!("\nStage-II bank behaviour over {} fetch groups:", groups.len());
    for (name, mapping) in [
        ("naive low-order bits", BankMapping::LowOrderBits),
        ("two-level tiling (T4)", BankMapping::TwoLevelTiling),
    ] {
        let s = simulate_groups(mapping, refs.iter().copied());
        println!(
            "  {:<24} mean {:.2} cycles, variance {:.3}, conflicts {}",
            name,
            s.mean_cycles(),
            s.variance,
            s.conflict_cycles
        );
    }

    // The FIEM datapath: bit-exact and cheaper.
    let (f, i) = (0.8173f32, 741);
    assert_eq!(fiem_mul(f, i).to_bits(), int2fp_fpmul(f, i).to_bits());
    let cmp = compare_fiem(WEIGHT_BITS);
    println!(
        "\nFIEM at {WEIGHT_BITS}-bit weights: bit-exact vs INT2FP+FPMUL, \
         {:.0}% area / {:.0}% power saving",
        cmp.area_saving * 100.0,
        cmp.power_saving * 100.0
    );

    // Voltage-frequency operating range.
    println!("\nMeasured V/F curve:");
    for v in [0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.1] {
        println!("  {v:.2} V -> {:>4.0} MHz", frequency_at_voltage_mhz(v));
    }
}
