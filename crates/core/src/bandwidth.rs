//! Off-chip bandwidth analysis — the paper's central Motivation 1
//! (Fig. 3, Table I) and the model-size sweep of Fig. 13(b).
//!
//! A NeRF accelerator's off-chip traffic is whatever crosses its
//! *design boundary*: an accelerator covering only Stage II must
//! stream Stage I's sample points in and Stage III's features out
//! every iteration, while the end-to-end design moves only the true
//! pipeline inputs and outputs (training images in, trained parameters
//! out) — provided the model's hash tables fit in on-chip SRAM.

use fusion3d_nerf::trainer::DataVolume;

/// Which pipeline stages an accelerator design keeps on-chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignBoundary {
    /// Stage II only (e.g. hash-encoding engines).
    Stage2,
    /// Stages II and III (most prior NeRF accelerators).
    Stages23,
    /// Stages I and II.
    Stages12,
    /// All three stages — the Fusion-3D design.
    EndToEnd,
}

impl DesignBoundary {
    /// All boundaries, narrowest first.
    pub const ALL: [DesignBoundary; 4] = [
        DesignBoundary::Stage2,
        DesignBoundary::Stages23,
        DesignBoundary::Stages12,
        DesignBoundary::EndToEnd,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DesignBoundary::Stage2 => "Stage II only",
            DesignBoundary::Stages23 => "Stages II+III",
            DesignBoundary::Stages12 => "Stages I+II",
            DesignBoundary::EndToEnd => "End-to-end (this work)",
        }
    }

    /// The bytes that cross this design boundary for a training run
    /// that moves `volume`.
    pub fn offchip_bytes(self, volume: &DataVolume) -> u64 {
        match self {
            // Sample coordinates stream in, encoded features and
            // gradients stream back out.
            DesignBoundary::Stage2 => {
                volume.stage1_to_stage2 + volume.stage2_to_stage3 + volume.end_to_end_io
            }
            // Sample coordinates in; pixels/losses handled on-chip.
            DesignBoundary::Stages23 => volume.stage1_to_stage2 + volume.end_to_end_io,
            // Features/gradients cross to the host-side MLP.
            DesignBoundary::Stages12 => volume.stage2_to_stage3 + volume.end_to_end_io,
            DesignBoundary::EndToEnd => volume.end_to_end_io,
        }
    }
}

/// Bandwidth in GB/s to move `bytes` within `seconds`.
///
/// # Panics
///
/// Panics if `seconds` is not positive.
pub fn required_bandwidth_gbs(bytes: u64, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "time budget must be positive");
    bytes as f64 / seconds / 1e9
}

/// The USB 3.2 Gen 1 budget available on common edge devices
/// (Table I): 0.625 GB/s.
pub const USB_BANDWIDTH_GBS: f64 = 0.625;

/// One point of the Fig. 13(b) model-size sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSizePoint {
    /// Model parameter bytes (hash tables + MLPs).
    pub param_bytes: u64,
    /// Whether the parameters fit in the chip's cluster SRAM.
    pub fits_on_chip: bool,
    /// Required off-chip bandwidth in GB/s for a training run within
    /// the time budget.
    pub bandwidth_gbs: f64,
}

/// Computes the off-chip bandwidth an end-to-end accelerator needs
/// when training a model of `param_bytes` within `seconds`, given the
/// run's data volumes and the chip's usable parameter SRAM.
///
/// While the parameters fit on-chip, only the end-to-end I/O crosses
/// the boundary. Once they spill, the Stage-II table traffic spills
/// with them in proportion to the miss ratio — the knee in Fig. 13(b).
pub fn bandwidth_for_model_size(
    volume: &DataVolume,
    param_bytes: u64,
    sram_bytes: u64,
    seconds: f64,
) -> ModelSizePoint {
    let fits = param_bytes <= sram_bytes;
    // The else branch divides by `param_bytes`, which the branch
    // condition keeps nonzero: `param_bytes > sram_bytes >= 0`.
    let bytes = if param_bytes <= sram_bytes {
        volume.end_to_end_io
    } else {
        let miss_ratio = 1.0 - sram_bytes as f64 / param_bytes as f64;
        // lint: allow(a2): miss_ratio lies in (0, 1], so the floored product never
        // exceeds the u64 byte count it scales
        volume.end_to_end_io + (volume.stage2_internal as f64 * miss_ratio) as u64
    };
    ModelSizePoint {
        param_bytes,
        fits_on_chip: fits,
        bandwidth_gbs: required_bandwidth_gbs(bytes, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_like_volume() -> DataVolume {
        // Shaped like Fig. 3: ~155 GB of intermediates, 700 MB of
        // end-to-end I/O.
        DataVolume {
            stage1_to_stage2: 9_000_000_000,
            stage2_internal: 120_000_000_000,
            stage2_to_stage3: 16_000_000_000,
            stage3_internal: 10_000_000_000,
            end_to_end_io: 700_000_000,
        }
    }

    #[test]
    fn end_to_end_moves_orders_of_magnitude_less() {
        let v = paper_like_volume();
        let e2e = DesignBoundary::EndToEnd.offchip_bytes(&v);
        for b in [DesignBoundary::Stage2, DesignBoundary::Stages23, DesignBoundary::Stages12] {
            let partial = b.offchip_bytes(&v);
            assert!(partial > 10 * e2e, "{}: {partial} should dwarf end-to-end {e2e}", b.label());
        }
    }

    #[test]
    fn end_to_end_fits_usb_budget() {
        let v = paper_like_volume();
        // 2-second instant training.
        let bw = required_bandwidth_gbs(DesignBoundary::EndToEnd.offchip_bytes(&v), 2.0);
        assert!(bw < USB_BANDWIDTH_GBS, "end-to-end bandwidth {bw} GB/s");
        // Partial designs blow through it by an order of magnitude.
        let partial = required_bandwidth_gbs(DesignBoundary::Stages23.offchip_bytes(&v), 2.0);
        assert!(partial > 4.0, "partial design {partial} GB/s");
    }

    #[test]
    fn bandwidth_units() {
        assert_eq!(required_bandwidth_gbs(2_000_000_000, 2.0), 1.0);
        assert_eq!(required_bandwidth_gbs(0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_time() {
        required_bandwidth_gbs(1, 0.0);
    }

    #[test]
    fn model_size_sweep_has_a_knee() {
        let v = paper_like_volume();
        let sram = 640 * 1024; // 640 KB of hash-table SRAM, in bytes
        let small = bandwidth_for_model_size(&v, 500_000, sram, 2.0);
        let large = bandwidth_for_model_size(&v, 64_000_000, sram, 2.0);
        assert!(small.fits_on_chip);
        assert!(!large.fits_on_chip);
        // On-chip: sub-USB. Spilled: orders of magnitude more.
        assert!(small.bandwidth_gbs < USB_BANDWIDTH_GBS);
        assert!(large.bandwidth_gbs > 10.0 * small.bandwidth_gbs);
        // Bandwidth grows monotonically past the knee.
        let mid = bandwidth_for_model_size(&v, 8_000_000, sram, 2.0);
        assert!(mid.bandwidth_gbs > small.bandwidth_gbs);
        assert!(large.bandwidth_gbs > mid.bandwidth_gbs);
    }

    #[test]
    fn boundary_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            DesignBoundary::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), DesignBoundary::ALL.len());
    }
}
