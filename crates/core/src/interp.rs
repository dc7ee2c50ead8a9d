//! Cycle-level model of the Feature Interpolation Module (Stage II)
//! and the Technique T2-1 shared-pipeline accounting.
//!
//! Each interpolation core retires one *level-gather* per cycle: the
//! eight corner features of one sample on one grid level, fetched from
//! the eight banks of its SRAM group (conflict-free under two-level
//! tiling, 1–8 cycles under naive banking). A sample needs
//! `levels` gathers, so the module's peak rate is
//! `cores / levels` points per cycle.
//!
//! Training replaces the gather with a three-step read–compute–write
//! feature update, tripling the per-level cost; the Technique T2-1
//! time-division multiplexing (Fig. 6(c)) re-uses the memory's idle
//! compute slot to run an inference gather "for free" alongside
//! training.

use fusion3d_mem::banks::BankMapping;

/// What the shared pipeline is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Forward-only feature aggregation.
    Inference,
    /// Three-step feature updates (read, compute, write back).
    Training,
    /// Training with an inference task co-scheduled into the memory's
    /// idle compute slot (T2-1 TDM).
    TrainingWithTdm,
}

/// Configuration of the interpolation module model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterpModuleConfig {
    /// Number of interpolation cores.
    pub cores: usize,
    /// Grid levels per sample point.
    pub levels: usize,
    /// Bank mapping of the feature SRAM groups.
    pub mapping: BankMapping,
    /// Mean cycles per eight-corner gather group (1.0 under two-level
    /// tiling; measured from a [`fusion3d_mem::banks::ConflictStats`]
    /// under naive banking).
    pub mean_gather_cycles: f64,
}

impl InterpModuleConfig {
    /// The Fusion-3D configuration at a given core count: two-level
    /// tiling, conflict-free single-cycle gathers.
    pub fn fusion3d(cores: usize, levels: usize) -> Self {
        InterpModuleConfig {
            cores,
            levels,
            mapping: BankMapping::TwoLevelTiling,
            mean_gather_cycles: 1.0,
        }
    }

    /// Cycles per level-access in the given mode. Training's
    /// read–compute–write takes three memory slots; the gather-cycle
    /// multiplier applies to each memory-touching slot.
    pub fn cycles_per_level(&self, mode: PipelineMode) -> f64 {
        match mode {
            PipelineMode::Inference => self.mean_gather_cycles,
            // Read and write each pay the conflict factor; the compute
            // slot is conflict-free.
            PipelineMode::Training | PipelineMode::TrainingWithTdm => {
                2.0 * self.mean_gather_cycles + 1.0
            }
        }
    }

    /// Sustained throughput in sample points per cycle for the whole
    /// module.
    pub fn points_per_cycle(&self, mode: PipelineMode) -> f64 {
        self.cores as f64 / (self.levels as f64 * self.cycles_per_level(mode))
    }

    /// Bonus *inference* points per cycle delivered by TDM while
    /// training: one gather fits into each idle compute slot, giving
    /// one inference level-access per training level-update.
    pub fn tdm_inference_points_per_cycle(&self) -> f64 {
        self.points_per_cycle(PipelineMode::Training)
    }

    /// Cycles to process `points` sample points across `rays` rays.
    /// Each ray costs one pipeline bubble while the module switches
    /// ray context (flushing per-ray accumulators into the renderer's
    /// FIFO); training pays the bubble on both passes.
    pub fn cycles_for_points(&self, points: u64, rays: u64, mode: PipelineMode) -> u64 {
        let bubbles = match mode {
            PipelineMode::Inference => rays,
            PipelineMode::Training | PipelineMode::TrainingWithTdm => rays * 2,
        };
        (points as f64 / self.points_per_cycle(mode)).ceil() as u64 + bubbles
    }
}

/// One functional block of the Stage II datapath and how Technique
/// T2-1 treats it across inference and training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatapathBlock {
    /// Block name.
    pub name: &'static str,
    /// Fraction of the Stage II area this block occupies
    /// (post-layout).
    pub area_fraction: f64,
    /// Whether the block is directly shared between the two modes
    /// (`true`) or reused through reconfiguration (`false`).
    pub directly_shared: bool,
}

/// The Stage II datapath blocks with their post-layout area shares.
/// Directly-shared blocks total 87.4 % and the reconfigurable
/// interpolation array 12.6 %, matching the paper's T2 ablation.
pub const DATAPATH_BLOCKS: [DatapathBlock; 5] = [
    DatapathBlock {
        name: "vertex coordinate generation",
        area_fraction: 0.141,
        directly_shared: true,
    },
    DatapathBlock {
        name: "feature index (hash) computation",
        area_fraction: 0.302,
        directly_shared: true,
    },
    DatapathBlock {
        name: "interpolation weight generation",
        area_fraction: 0.173,
        directly_shared: true,
    },
    DatapathBlock {
        name: "bank interface & accumulators",
        area_fraction: 0.258,
        directly_shared: true,
    },
    DatapathBlock {
        name: "reconfigurable interpolation array",
        area_fraction: 0.126,
        directly_shared: false,
    },
];

/// Fraction of Stage II area directly shared between inference and
/// training (the paper reports 87.4 %).
pub fn shared_area_fraction() -> f64 {
    DATAPATH_BLOCKS.iter().filter(|b| b.directly_shared).map(|b| b.area_fraction).sum()
}

/// Fraction of Stage II area reused via reconfiguration (the paper
/// reports 12.6 %).
pub fn reconfigured_area_fraction() -> f64 {
    DATAPATH_BLOCKS.iter().filter(|b| !b.directly_shared).map(|b| b.area_fraction).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_mem::banks::{group_from_addresses, simulate_groups};

    #[test]
    fn paper_scale_throughput() {
        // Scaled-up chip: 10 cores over a 10-level model retires one
        // point per cycle in inference...
        let cfg = InterpModuleConfig::fusion3d(10, 10);
        assert!((cfg.points_per_cycle(PipelineMode::Inference) - 1.0).abs() < 1e-12);
        // ...and one point per three cycles in training, reproducing
        // the paper's 591 vs 199 M points/s split at 600 MHz.
        assert!((cfg.points_per_cycle(PipelineMode::Training) - 1.0 / 3.0).abs() < 1e-12);
        // The prototype's 5 cores run at exactly half the rate.
        let proto = InterpModuleConfig::fusion3d(5, 10);
        assert!((proto.points_per_cycle(PipelineMode::Inference) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflicts_slow_the_module_down() {
        // An adversarial access pattern: all corners in one bank.
        let group = group_from_addresses([0, 8, 16, 24, 32, 40, 48, 56]);
        let stats = simulate_groups(BankMapping::LowOrderBits, [group.as_slice()]);
        let tiled = InterpModuleConfig::fusion3d(10, 10);
        let naive = InterpModuleConfig {
            mapping: BankMapping::LowOrderBits,
            mean_gather_cycles: stats.mean_cycles(),
            ..tiled
        };
        assert!(
            naive.points_per_cycle(PipelineMode::Inference)
                < tiled.points_per_cycle(PipelineMode::Inference) / 4.0
        );
    }

    #[test]
    fn cycles_for_points_rounds_up() {
        let cfg = InterpModuleConfig::fusion3d(10, 10);
        assert_eq!(cfg.cycles_for_points(0, 0, PipelineMode::Inference), 0);
        assert_eq!(cfg.cycles_for_points(600, 0, PipelineMode::Inference), 600);
        assert_eq!(cfg.cycles_for_points(600, 50, PipelineMode::Inference), 650);
        assert_eq!(cfg.cycles_for_points(1, 1, PipelineMode::Training), 5);
    }

    #[test]
    fn tdm_delivers_free_inference() {
        let cfg = InterpModuleConfig::fusion3d(10, 10);
        let tdm = cfg.tdm_inference_points_per_cycle();
        assert!(tdm > 0.0);
        // TDM inference rides along at the training rate.
        assert!((tdm - cfg.points_per_cycle(PipelineMode::Training)).abs() < 1e-12);
    }

    #[test]
    fn area_sharing_matches_paper_ablation() {
        let shared = shared_area_fraction();
        let reconf = reconfigured_area_fraction();
        assert!((shared - 0.874).abs() < 1e-9, "shared {shared}");
        assert!((reconf - 0.126).abs() < 1e-9, "reconfigured {reconf}");
        assert!((shared + reconf - 1.0).abs() < 1e-9);
    }
}
