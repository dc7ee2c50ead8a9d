//! The assembled multi-chip system: four scaled-up chips plus an I/O
//! module on an 8-layer PCB (Fig. 4(b)), with system-level
//! performance, power, and balance reporting.

use crate::comm::{moe_bytes, FrameWorkload};
use fusion3d_core::chip::FusionChip;
use fusion3d_core::config::ChipConfig;
use fusion3d_nerf::pipeline::FrameTrace;

/// The chip-to-chip link substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Off-board (host) bandwidth in GB/s — the USB-class budget.
    pub offboard_gbs: f64,
    /// Intra-system (chip ↔ I/O module) aggregate bandwidth in GB/s.
    pub intra_gbs: f64,
    /// Per-transfer latency in microseconds.
    pub latency_us: f64,
    /// Link energy in picojoules per bit.
    pub energy_pj_per_bit: f64,
}

impl LinkModel {
    /// The measured PCB prototype: 0.6 GB/s off-board, 2.4 GB/s
    /// aggregate intra-system, board-level latencies, ~2 pJ/bit.
    pub fn pcb() -> Self {
        LinkModel { offboard_gbs: 0.6, intra_gbs: 2.4, latency_us: 1.0, energy_pj_per_bit: 2.0 }
    }

    /// Seconds to move `bytes` over the intra-system links.
    pub fn intra_transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / (self.intra_gbs * 1e9)
    }

    /// Joules to move `bytes` across chips.
    pub fn transfer_energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.energy_pj_per_bit * 1e-12
    }
}

/// Configuration of the multi-chip system.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChipConfig {
    /// Per-chip hardware configuration.
    pub chip: ChipConfig,
    /// Number of compute chips.
    pub chips: usize,
    /// Link substrate.
    pub link: LinkModel,
    /// I/O-module area overhead as a fraction of the compute chips'
    /// total (the paper: 0.5 %).
    pub io_area_overhead: f64,
    /// I/O-module SRAM overhead as a fraction of the compute chips'
    /// total (the paper: 2.3 %).
    pub io_sram_overhead: f64,
    /// I/O-module power in watts.
    pub io_power_w: f64,
}

impl MultiChipConfig {
    /// The paper's system: four scaled-up chips on the PCB prototype.
    pub fn fusion3d() -> Self {
        MultiChipConfig {
            chip: ChipConfig::scaled_up(),
            chips: 4,
            link: LinkModel::pcb(),
            io_area_overhead: 0.005,
            io_sram_overhead: 0.023,
            io_power_w: 0.1,
        }
    }

    /// Total die area including the I/O module, in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.chip.die_area_mm2 * self.chips as f64 * (1.0 + self.io_area_overhead)
    }

    /// Total SRAM including the I/O module, in KB.
    pub fn total_sram_kb(&self) -> f64 {
        self.chip.total_sram_kb() * self.chips as f64 * (1.0 + self.io_sram_overhead)
    }

    /// Typical total power in watts.
    pub fn total_power_w(&self) -> f64 {
        self.chip.typical_power_w * self.chips as f64 + self.io_power_w
    }
}

/// System-level simulation result for one frame or training step.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Per-chip compute seconds (sorted by chip index).
    pub chip_seconds: Vec<f64>,
    /// Communication seconds over the intra-system links.
    pub comm_seconds: f64,
    /// End-to-end seconds (slowest chip + fused communication).
    pub total_seconds: f64,
    /// Unique scene sample points processed (max over chips'
    /// assigned work measured at the system level).
    pub total_points: u64,
    /// Energy in joules (chips + links + I/O module).
    pub energy_j: f64,
}

impl SystemReport {
    /// Workload imbalance: slowest chip over mean chip time.
    pub fn imbalance(&self) -> f64 {
        if self.chip_seconds.is_empty() {
            return 1.0;
        }
        let max = self.chip_seconds.iter().cloned().fold(0.0, f64::max);
        let mean: f64 = self.chip_seconds.iter().sum::<f64>() / self.chip_seconds.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Scene points per second at the system level.
    pub fn points_per_second(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.total_points as f64 / self.total_seconds
        } else {
            0.0
        }
    }
}

/// The multi-chip system simulator.
#[derive(Debug)]
pub struct MultiChipSystem {
    config: MultiChipConfig,
    chips: Vec<FusionChip>,
}

impl MultiChipSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero chips.
    pub fn new(config: MultiChipConfig) -> Self {
        assert!(config.chips > 0, "system needs at least one chip");
        let chips = (0..config.chips).map(|_| FusionChip::new(config.chip)).collect();
        MultiChipSystem { config, chips }
    }

    /// The paper's four-chip system.
    pub fn fusion3d() -> Self {
        MultiChipSystem::new(MultiChipConfig::fusion3d())
    }

    /// Builds a system whose chips run *without* the two-level hash
    /// tiling: each chip's Stage-II gathers take its entry of
    /// `per_chip_gather_cycles` (mean cycles per eight-corner fetch,
    /// 1.0 being conflict-free). Because the conflict rate depends on
    /// each chip's own hash-table contents and access stream, the
    /// factors differ per chip — the Technique T4 imbalance mechanism
    /// (Challenge C4).
    ///
    /// # Panics
    ///
    /// Panics if the factor count differs from the chip count.
    pub fn with_per_chip_gather_cycles(
        config: MultiChipConfig,
        per_chip_gather_cycles: &[f64],
    ) -> Self {
        assert_eq!(per_chip_gather_cycles.len(), config.chips, "need one gather factor per chip");
        let chips = per_chip_gather_cycles
            .iter()
            .map(|&g| FusionChip::new(config.chip).with_mean_gather_cycles(g))
            .collect();
        MultiChipSystem { config, chips }
    }

    /// The system configuration.
    pub fn config(&self) -> &MultiChipConfig {
        &self.config
    }

    /// The compute chips.
    pub fn chips(&self) -> &[FusionChip] {
        &self.chips
    }

    /// Simulates one frame (or training batch) given each chip's
    /// Stage-I trace, as produced by `MoeNerf::per_chip_workloads`.
    ///
    /// `training` selects the training pipeline on every chip.
    ///
    /// # Panics
    ///
    /// Panics if `per_chip_workloads.len()` differs from the chip
    /// count.
    pub fn simulate(&self, per_chip_workloads: &[FrameTrace], training: bool) -> SystemReport {
        assert_eq!(per_chip_workloads.len(), self.chips.len(), "need one workload per chip");
        let mut chip_seconds = Vec::with_capacity(self.chips.len());
        let mut total_points = 0u64;
        let mut rays = 0u64;
        let mut chip_energy = 0.0f64;
        for (chip, trace) in self.chips.iter().zip(per_chip_workloads) {
            let report = if training {
                chip.simulate_training_step(trace)
            } else {
                chip.simulate_frame(trace)
            };
            chip_seconds.push(report.seconds);
            chip_energy += report.energy_j;
            total_points = total_points.max(trace.total_samples);
            rays = rays.max(trace.ray_count() as u64);
        }
        // Fusion traffic: ray broadcast + per-chip pixel partial sums.
        let comm = moe_bytes(
            &FrameWorkload { rays, samples: total_points, feature_dim: 20, training },
            self.chips.len() as u64,
        );
        let comm_seconds = self.config.link.intra_transfer_seconds(comm);
        let slowest = chip_seconds.iter().cloned().fold(0.0, f64::max);
        let io_energy = self.config.io_power_w * (slowest + comm_seconds);
        SystemReport {
            total_seconds: slowest + comm_seconds,
            comm_seconds,
            energy_j: chip_energy + self.config.link.transfer_energy_j(comm) + io_energy,
            chip_seconds,
            total_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use fusion3d_nerf::sampler::PairJob;

    /// A chip trace of `rays` one-pair rays.
    fn chip_trace(rays: usize, steps: u16, samples: u16) -> FrameTrace {
        let job = PairJob { samples, steps, lattice_steps: steps.saturating_mul(3) };
        let mut trace = FrameTrace::default();
        for _ in 0..rays {
            trace.push_ray(1, &[job]);
        }
        trace
    }

    fn uniform_chip_workloads(chips: usize, rays: usize, samples: u16) -> Vec<FrameTrace> {
        vec![chip_trace(rays, samples + 4, samples); chips]
    }

    #[test]
    fn table_iv_resource_totals() {
        let cfg = MultiChipConfig::fusion3d();
        // Table IV: 35 mm², 4500 KB, 6.0 W.
        assert!((cfg.total_area_mm2() - 35.0).abs() < 0.5, "{}", cfg.total_area_mm2());
        assert!((cfg.total_sram_kb() - 4500.0).abs() < 25.0, "{}", cfg.total_sram_kb());
        assert!((cfg.total_power_w() - 6.0).abs() < 0.1, "{}", cfg.total_power_w());
    }

    #[test]
    fn balanced_workloads_have_unit_imbalance() {
        let sys = MultiChipSystem::fusion3d();
        let report = sys.simulate(&uniform_chip_workloads(4, 256, 12), false);
        assert!((report.imbalance() - 1.0).abs() < 1e-9);
        assert!(report.total_seconds > 0.0);
        assert!(report.energy_j > 0.0);
        assert!(report.points_per_second() > 0.0);
    }

    #[test]
    fn straggler_chip_bounds_the_system() {
        let sys = MultiChipSystem::fusion3d();
        let mut wl = uniform_chip_workloads(4, 256, 12);
        // Chip 2 gets 4x the work.
        wl[2] = chip_trace(256, 52, 48);
        let report = sys.simulate(&wl, false);
        assert!(report.imbalance() > 1.5, "imbalance {}", report.imbalance());
        let balanced = sys.simulate(&uniform_chip_workloads(4, 256, 12), false);
        assert!(report.total_seconds > balanced.total_seconds);
    }

    #[test]
    fn training_is_slower_than_inference() {
        let sys = MultiChipSystem::fusion3d();
        let wl = uniform_chip_workloads(4, 128, 16);
        let inf = sys.simulate(&wl, false);
        let train = sys.simulate(&wl, true);
        assert!(train.total_seconds > inf.total_seconds);
    }

    #[test]
    fn untiled_chips_create_system_imbalance() {
        // Technique T4's system-level effect: per-chip bank-conflict
        // rates differ, so without tiling the chips finish at
        // different times and the slowest bounds the system.
        let wl = uniform_chip_workloads(4, 256, 12);
        let tiled = MultiChipSystem::fusion3d().simulate(&wl, false);
        let naive = MultiChipSystem::with_per_chip_gather_cycles(
            MultiChipConfig::fusion3d(),
            &[2.2, 2.7, 2.4, 2.5],
        )
        .simulate(&wl, false);
        assert!((tiled.imbalance() - 1.0).abs() < 1e-9, "tiled chips stay in lock step");
        assert!(naive.imbalance() > 1.02, "naive imbalance {}", naive.imbalance());
        // The slowdown is bounded by how often Stage II is the
        // bottleneck; it must be clearly visible either way.
        assert!(
            naive.total_seconds > 1.2 * tiled.total_seconds,
            "conflicts slow the system: {} vs {}",
            naive.total_seconds,
            tiled.total_seconds
        );
    }

    #[test]
    #[should_panic(expected = "one workload per chip")]
    fn workload_count_must_match() {
        let sys = MultiChipSystem::fusion3d();
        sys.simulate(&uniform_chip_workloads(3, 16, 4), false);
    }
}
