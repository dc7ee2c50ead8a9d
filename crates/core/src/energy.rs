//! Power and energy models, calibrated to the prototype's silicon
//! measurements (1.21 W at 600 MHz / 0.95 V) and the paper's
//! per-point energies (2.5 nJ inference, 7.4 nJ training on the
//! scaled-up chip).

use crate::config::{ChipConfig, Module};

/// Dynamic-power scaling model for a chip: `P = P₀ · (V/V₀)² ·
/// (f/f₀)` around the calibrated operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    chip: ChipConfig,
}

impl EnergyModel {
    /// Creates a model for a chip configuration.
    pub fn new(chip: ChipConfig) -> Self {
        EnergyModel { chip }
    }

    /// The underlying chip.
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Total power at the nominal operating point, in watts.
    pub fn nominal_power_w(&self) -> f64 {
        self.chip.typical_power_w
    }

    /// Energy for a run of `cycles` at the nominal clock, in joules.
    pub fn energy_for_cycles_j(&self, cycles: u64) -> f64 {
        self.nominal_power_w() * cycles as f64 / self.chip.cycles_per_second()
    }

    /// Energy per processed point in nanojoules, given a sustained
    /// throughput in points per second.
    ///
    /// # Panics
    ///
    /// Panics if the throughput is not positive.
    pub fn energy_per_point_nj(&self, points_per_second: f64) -> f64 {
        assert!(points_per_second > 0.0, "throughput must be positive");
        self.nominal_power_w() / points_per_second * 1e9
    }

    /// Per-module power at the nominal point, in watts.
    pub fn module_power_w(&self, module: Module) -> f64 {
        self.chip.module_power_w(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_matches_silicon() {
        let m = EnergyModel::new(ChipConfig::prototype());
        assert_eq!(m.nominal_power_w(), 1.21);
    }

    #[test]
    fn paper_energy_per_point() {
        // Scaled-up chip at the paper's published throughputs.
        let m = EnergyModel::new(ChipConfig::scaled_up());
        let inference = m.energy_per_point_nj(591e6);
        let training = m.energy_per_point_nj(199e6);
        assert!((inference - 2.5).abs() < 0.1, "inference {inference} nJ/pt");
        assert!((training - 7.4).abs() < 0.2, "training {training} nJ/pt");
    }

    #[test]
    fn cycle_energy_accounting() {
        let m = EnergyModel::new(ChipConfig::prototype());
        // 600 M cycles = 1 second = 1.21 J.
        assert!((m.energy_for_cycles_j(600_000_000) - 1.21).abs() < 1e-9);
        assert_eq!(m.energy_for_cycles_j(0), 0.0);
    }

    #[test]
    fn module_power_sums_to_total() {
        let m = EnergyModel::new(ChipConfig::scaled_up());
        let total: f64 = Module::ALL.iter().map(|&x| m.module_power_w(x)).sum();
        assert!((total - m.nominal_power_w()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_throughput() {
        EnergyModel::new(ChipConfig::prototype()).energy_per_point_nj(0.0);
    }
}
