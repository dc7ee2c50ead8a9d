//! Chip configurations: the taped-out prototype and the scaled-up
//! single-chip accelerator used for baseline comparisons.
//!
//! All constants come from the paper's Fig. 9 (spec table, resource
//! breakdown) and Table III: 28 nm CMOS, 600 MHz at 0.95 V, a Sampling
//! Module with 16 cores, a Feature Interpolation Module with 5
//! (prototype) or 10 (scaled-up) cores, one Post-Processing Module,
//! and 2 or 5 Memory Clusters. The scaled-up chip occupies 8.7 mm²
//! with 1099 KB of SRAM.

use fusion3d_mem::sram::SramSpec;

/// The hardware modules of the single-chip accelerator (Fig. 4(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Module {
    /// Stage-I sampling module (pre-processing unit + sampling cores).
    Sampling,
    /// Stage-II feature interpolation module.
    Interpolation,
    /// Stage-III post-processing module (MLP engine + renderer).
    PostProcessing,
    /// Shared SRAM memory clusters.
    MemoryClusters,
    /// Network-on-chip.
    Noc,
    /// Top-level interface/controller.
    Controller,
}

impl Module {
    /// All modules in breakdown order.
    pub const ALL: [Module; 6] = [
        Module::Sampling,
        Module::Interpolation,
        Module::PostProcessing,
        Module::MemoryClusters,
        Module::Noc,
        Module::Controller,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Module::Sampling => "Sampling",
            Module::Interpolation => "Feature Interp.",
            Module::PostProcessing => "Post Proc.",
            Module::MemoryClusters => "Memory Clusters",
            Module::Noc => "NoC",
            Module::Controller => "Interface/Ctrl",
        }
    }

    /// Short stable identifier used in metric names and JSON reports.
    pub fn slug(self) -> &'static str {
        match self {
            Module::Sampling => "sampling",
            Module::Interpolation => "interp",
            Module::PostProcessing => "postproc",
            Module::MemoryClusters => "mem",
            Module::Noc => "noc",
            Module::Controller => "ctrl",
        }
    }
}

/// Static configuration of one Fusion-3D chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipConfig {
    /// Nominal clock frequency in MHz.
    pub clock_mhz: f64,
    /// Core supply voltage in volts.
    pub core_voltage: f64,
    /// Number of Stage-I sampling cores.
    pub sampling_cores: usize,
    /// Number of Stage-II feature-interpolation cores (each retires
    /// one level-gather per cycle across its eight banks).
    pub interp_cores: usize,
    /// Number of hash-grid levels the target model uses; together with
    /// `interp_cores` this sets Stage II's points-per-cycle.
    pub model_levels: usize,
    /// Number of shared memory clusters.
    pub memory_clusters: usize,
    /// SRAM arrays per memory cluster.
    pub arrays_per_cluster: usize,
    /// Spec of each SRAM array.
    pub array_spec: SramSpec,
    /// Additional (non-cluster) SRAM in KB: line buffers, FIFOs,
    /// weight store.
    pub support_sram_kb: f64,
    /// Die area in mm² (post-layout).
    pub die_area_mm2: f64,
    /// Typical total power in watts at the nominal operating point.
    pub typical_power_w: f64,
}

impl ChipConfig {
    /// The taped-out 28 nm prototype: 16 sampling cores, 5
    /// interpolation cores, 2 memory clusters, 600 MHz @ 0.95 V,
    /// 1.21 W measured.
    pub fn prototype() -> Self {
        ChipConfig {
            clock_mhz: 600.0,
            core_voltage: 0.95,
            sampling_cores: 16,
            interp_cores: 5,
            model_levels: 10,
            memory_clusters: 2,
            arrays_per_cluster: 5,
            array_spec: SramSpec::new(16384, 32), // 64 KB each
            support_sram_kb: 59.0,
            die_area_mm2: 6.0,
            typical_power_w: 1.21,
        }
    }

    /// The scaled-up single-chip accelerator used for the Table III
    /// comparison: five more interpolation cores and three more memory
    /// clusters than the prototype, 8.7 mm², 1099 KB SRAM.
    pub fn scaled_up() -> Self {
        ChipConfig {
            interp_cores: 10,
            memory_clusters: 5,
            // 5 clusters × 3 arrays × 64 KB = 960 KB cluster SRAM,
            // plus support SRAM totals the published 1099 KB.
            arrays_per_cluster: 3,
            support_sram_kb: 139.0,
            die_area_mm2: 8.7,
            typical_power_w: 1.475,
            ..ChipConfig::prototype()
        }
    }

    /// Total on-chip SRAM in KB.
    pub fn total_sram_kb(&self) -> f64 {
        self.memory_clusters as f64 * self.arrays_per_cluster as f64 * self.array_spec.kilobytes()
            + self.support_sram_kb
    }

    /// Cycles per second.
    pub fn cycles_per_second(&self) -> f64 {
        self.clock_mhz * 1e6
    }

    /// Peak Stage-II throughput in sampled points per cycle: each
    /// interpolation core retires one level-gather per cycle, and a
    /// point needs `model_levels` gathers.
    pub fn interp_points_per_cycle(&self) -> f64 {
        self.interp_cores as f64 / self.model_levels as f64
    }

    /// Fractional area breakdown by module (Fig. 10(c)). The
    /// interpolation module dominates: about half of it is hash SRAM
    /// (see the paper's 3D-stacked-memory discussion).
    pub fn area_breakdown(&self) -> [(Module, f64); 6] {
        // Post-layout shares from the die photo, normalized to 1.0.
        [
            (Module::Sampling, 0.12),
            (Module::Interpolation, 0.46),
            (Module::PostProcessing, 0.22),
            (Module::MemoryClusters, 0.13),
            (Module::Noc, 0.04),
            (Module::Controller, 0.03),
        ]
    }

    /// Fractional power breakdown by module (Fig. 10(c)).
    pub fn power_breakdown(&self) -> [(Module, f64); 6] {
        [
            (Module::Sampling, 0.10),
            (Module::Interpolation, 0.42),
            (Module::PostProcessing, 0.28),
            (Module::MemoryClusters, 0.14),
            (Module::Noc, 0.04),
            (Module::Controller, 0.02),
        ]
    }

    /// Area of one module in mm².
    pub fn module_area_mm2(&self, module: Module) -> f64 {
        self.area_breakdown()
            .iter()
            .find(|(m, _)| *m == module)
            .map(|(_, f)| f * self.die_area_mm2)
            .unwrap_or(0.0)
    }

    /// Power of one module in watts at the nominal point.
    pub fn module_power_w(&self, module: Module) -> f64 {
        self.power_breakdown()
            .iter()
            .find(|(m, _)| *m == module)
            .map(|(_, f)| f * self.typical_power_w)
            .unwrap_or(0.0)
    }
}

/// The measured voltage–frequency curve of the prototype (Fig. 10(d)),
/// modelled with the alpha-power law `f ∝ (V − V_t)^α / V` calibrated
/// to 600 MHz at 0.95 V.
///
/// # Panics
///
/// Panics if `voltage` is not above the threshold voltage (0.55 V).
pub fn frequency_at_voltage_mhz(voltage: f64) -> f64 {
    const V_T: f64 = 0.55;
    const ALPHA: f64 = 1.3;
    assert!(voltage > V_T, "voltage {voltage} below threshold {V_T}");
    let k = 600.0 / ((0.95 - V_T).powf(ALPHA) / 0.95);
    k * (voltage - V_T).powf(ALPHA) / voltage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_published_spec() {
        let p = ChipConfig::prototype();
        assert_eq!(p.clock_mhz, 600.0);
        assert_eq!(p.core_voltage, 0.95);
        assert_eq!(p.sampling_cores, 16);
        assert_eq!(p.interp_cores, 5);
        assert_eq!(p.memory_clusters, 2);
        assert_eq!(p.typical_power_w, 1.21);
        // 2 clusters × 5 × 64 KB hash SRAM (the paper's "2×5×64 KB").
        let cluster_kb =
            p.memory_clusters as f64 * p.arrays_per_cluster as f64 * p.array_spec.kilobytes();
        assert_eq!(cluster_kb, 640.0);
    }

    #[test]
    fn scaled_up_matches_table_iii() {
        let s = ChipConfig::scaled_up();
        assert_eq!(s.interp_cores, 10);
        assert_eq!(s.memory_clusters, 5);
        assert_eq!(s.die_area_mm2, 8.7);
        // Table III: 1099 KB SRAM.
        assert!((s.total_sram_kb() - 1099.0).abs() < 1.0, "{}", s.total_sram_kb());
        // Stage II retires about one point per cycle.
        assert!((s.interp_points_per_cycle() - 1.0).abs() < 1e-9);
        // The prototype is half that, consistent with its measured
        // 36 FPS vs the scaled chip's 72-FPS-equivalent throughput.
        assert_eq!(ChipConfig::prototype().interp_points_per_cycle(), 0.5);
    }

    #[test]
    fn breakdowns_are_normalized() {
        let p = ChipConfig::prototype();
        let area: f64 = p.area_breakdown().iter().map(|(_, f)| f).sum();
        let power: f64 = p.power_breakdown().iter().map(|(_, f)| f).sum();
        assert!((area - 1.0).abs() < 1e-9);
        assert!((power - 1.0).abs() < 1e-9);
        // Interpolation dominates both, as in the die photo.
        assert!(p.module_area_mm2(Module::Interpolation) > p.module_area_mm2(Module::Sampling));
        let total: f64 = Module::ALL.iter().map(|&m| p.module_power_w(m)).sum();
        assert!((total - p.typical_power_w).abs() < 1e-9);
    }

    #[test]
    fn vf_curve_calibration_and_monotonicity() {
        // Calibrated point: 600 MHz at 0.95 V.
        assert!((frequency_at_voltage_mhz(0.95) - 600.0).abs() < 1e-6);
        // Monotonically increasing over the measured range.
        let mut prev = 0.0;
        for step in 0..=10 {
            let v = 0.6 + 0.05 * step as f64;
            let f = frequency_at_voltage_mhz(v);
            assert!(f > prev, "V/F curve must increase: {f} at {v}");
            prev = f;
        }
        // The low end of the curve runs well below nominal.
        assert!(frequency_at_voltage_mhz(0.6) < 200.0);
    }

    #[test]
    #[should_panic(expected = "below threshold")]
    fn vf_curve_rejects_subthreshold() {
        frequency_at_voltage_mhz(0.5);
    }

    #[test]
    fn module_names_are_distinct() {
        let names: std::collections::HashSet<&str> = Module::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Module::ALL.len());
    }
}
