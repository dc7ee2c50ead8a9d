//! Design-space exploration around the published configuration.
//!
//! The paper's methodology (Sec. VI-C) fixes Stage II's rate and sizes
//! the other stages to match; Sec. II-D motivates flexibility across
//! high-end and mid/low-end AR/VR devices. This module sweeps the
//! main levers — interpolation cores, sampling cores, and clock — and
//! reports throughput/power/area points, so a downstream user can pick
//! a configuration for their device class the way the authors picked
//! the prototype (5 cores) and scaled-up (10 cores) designs.

use crate::chip::FusionChip;
use crate::config::{frequency_at_voltage_mhz, ChipConfig};
use fusion3d_nerf::pipeline::FrameTrace;

/// One evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Interpolation cores.
    pub interp_cores: usize,
    /// Sampling cores.
    pub sampling_cores: usize,
    /// Clock in MHz.
    pub clock_mhz: f64,
    /// Sustained inference throughput on the probe workload, points/s.
    pub inference_pts: f64,
    /// Sustained training throughput, points/s.
    pub training_pts: f64,
    /// Estimated power in watts.
    pub power_w: f64,
    /// Estimated die area in mm².
    pub area_mm2: f64,
}

impl DesignPoint {
    /// Inference throughput per watt, points/s/W.
    pub fn inference_per_watt(&self) -> f64 {
        self.inference_pts / self.power_w
    }
}

/// Scales the published chip configuration to a different core count
/// and clock, with area and power following the module breakdowns:
/// the interpolation module's share scales with its cores, the
/// sampling module's with its cores, and dynamic power additionally
/// scales with frequency.
pub fn scale_config(
    base: &ChipConfig,
    interp_cores: usize,
    sampling_cores: usize,
    clock_mhz: f64,
) -> ChipConfig {
    assert!(interp_cores > 0 && sampling_cores > 0, "core counts must be positive");
    assert!(clock_mhz > 0.0, "clock must be positive");
    let interp_ratio = interp_cores as f64 / base.interp_cores as f64;
    let sampling_ratio = sampling_cores as f64 / base.sampling_cores as f64;
    // Area: interpolation 46%, sampling 12% of the die scale with
    // their cores; the remainder is fixed.
    let area_scale = 0.46 * interp_ratio + 0.12 * sampling_ratio + 0.42;
    // Power: module shares 42% / 10%, scaled by frequency.
    let power_scale =
        (0.42 * interp_ratio + 0.10 * sampling_ratio + 0.48) * (clock_mhz / base.clock_mhz);
    ChipConfig {
        interp_cores,
        sampling_cores,
        clock_mhz,
        die_area_mm2: base.die_area_mm2 * area_scale,
        typical_power_w: base.typical_power_w * power_scale,
        ..*base
    }
}

/// Evaluates one configuration on a probe workload.
pub fn evaluate(config: ChipConfig, trace: &FrameTrace) -> DesignPoint {
    let chip = FusionChip::new(config);
    let frame = chip.simulate_frame(trace);
    let train = chip.simulate_training_step(trace);
    DesignPoint {
        interp_cores: config.interp_cores,
        sampling_cores: config.sampling_cores,
        clock_mhz: config.clock_mhz,
        inference_pts: frame.points_per_second(),
        training_pts: train.points_per_second(),
        power_w: config.typical_power_w,
        area_mm2: config.die_area_mm2,
    }
}

/// Sweeps interpolation core counts at the nominal clock.
pub fn sweep_interp_cores(trace: &FrameTrace, counts: &[usize]) -> Vec<DesignPoint> {
    let base = ChipConfig::scaled_up();
    counts
        .iter()
        .map(|&c| evaluate(scale_config(&base, c, base.sampling_cores, base.clock_mhz), trace))
        .collect()
}

/// Sweeps supply voltage along the measured V/F curve (DVFS operating
/// points), holding the core counts at the scaled-up design.
pub fn sweep_voltage(trace: &FrameTrace, voltages: &[f64]) -> Vec<DesignPoint> {
    let base = ChipConfig::scaled_up();
    voltages
        .iter()
        .map(|&v| {
            let clock = frequency_at_voltage_mhz(v);
            let mut cfg = scale_config(&base, base.interp_cores, base.sampling_cores, clock);
            // Dynamic power additionally scales with V².
            cfg.typical_power_w *= (v / base.core_voltage).powi(2);
            cfg.core_voltage = v;
            evaluate(cfg, trace)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_nerf::sampler::PairJob;

    fn probe() -> FrameTrace {
        let mut trace = FrameTrace::default();
        for i in 0..1024u16 {
            trace.push_ray(
                1,
                &[PairJob { samples: 10 + i % 8, steps: 16 + i % 8, lattice_steps: 64 }],
            );
        }
        trace
    }

    #[test]
    fn scale_config_reproduces_the_published_pair() {
        // Scaling the scaled-up design down to the prototype's 5 cores
        // lands near the prototype's area and power.
        let scaled = ChipConfig::scaled_up();
        let down = scale_config(&scaled, 5, 16, 600.0);
        assert!(
            (down.die_area_mm2 - ChipConfig::prototype().die_area_mm2).abs() < 1.5,
            "area {}",
            down.die_area_mm2
        );
        assert!(
            (down.typical_power_w - ChipConfig::prototype().typical_power_w).abs() < 0.2,
            "power {}",
            down.typical_power_w
        );
        // Identity scaling changes nothing.
        let same = scale_config(&scaled, scaled.interp_cores, scaled.sampling_cores, 600.0);
        assert_eq!(same.die_area_mm2, scaled.die_area_mm2);
        assert_eq!(same.typical_power_w, scaled.typical_power_w);
    }

    #[test]
    fn more_cores_buy_throughput_at_cost() {
        let t = probe();
        let points = sweep_interp_cores(&t, &[5, 10, 20]);
        assert!(points[1].inference_pts > points[0].inference_pts);
        assert!(points[2].area_mm2 > points[1].area_mm2);
        assert!(points[2].power_w > points[1].power_w);
        // Diminishing returns: doubling cores less-than-doubles
        // sustained throughput once another stage binds.
        let gain_1 = points[1].inference_pts / points[0].inference_pts;
        let gain_2 = points[2].inference_pts / points[1].inference_pts;
        assert!(gain_2 <= gain_1 + 1e-9, "gains {gain_1} then {gain_2}");
    }

    #[test]
    fn dvfs_trades_throughput_for_efficiency() {
        let t = probe();
        let points = sweep_voltage(&t, &[0.7, 0.95, 1.1]);
        // Power scales as (V/V₀)² · f/f₀ along the measured V/F curve:
        // the calibrated 0.95 V point draws nominal power, and 0.7 V
        // less than half of it.
        let nominal = ChipConfig::scaled_up().typical_power_w;
        assert!((points[1].power_w - nominal).abs() < 1e-9, "0.95 V power {}", points[1].power_w);
        assert!(points[0].power_w < 0.5 * nominal, "0.7 V power {}", points[0].power_w);
        assert!(points[2].power_w > nominal, "1.1 V power {}", points[2].power_w);
        // Higher voltage: faster but less efficient.
        assert!(points[2].inference_pts > points[0].inference_pts);
        assert!(
            points[0].inference_per_watt() > points[2].inference_per_watt(),
            "low-V point should win per-watt: {} vs {}",
            points[0].inference_per_watt(),
            points[2].inference_per_watt()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cores_rejected() {
        scale_config(&ChipConfig::scaled_up(), 0, 16, 600.0);
    }
}
