//! Fig. 3: per-stage data volumes of NeRF training, and the design
//! boundaries prior accelerators draw through them.
//!
//! The paper measures ~155 GB of intermediate data (12.5 GB/s of
//! inter-stage plus 77.5 GB/s of intra-stage traffic over a 2-second
//! training run) against only ~700 MB of true end-to-end I/O. We
//! project the same quantities with `estimate_step_volume`, the
//! per-step volume formula, over the paper-scale model and batch
//! schedule.

use crate::support::print_table;
use fusion3d_core::bandwidth::{required_bandwidth_gbs, DesignBoundary, USB_BANDWIDTH_GBS};
use fusion3d_nerf::encoding::HashGridConfig;
use fusion3d_nerf::model::ModelConfig;
use fusion3d_nerf::trainer::{estimate_step_volume, DataVolume};

/// The paper-scale Instant-NGP configuration: 10 levels × 2 features
/// at 2^15 entries (the chip's 2 × 5 × 64 KB hash SRAM), 64-wide MLPs.
pub fn paper_model() -> ModelConfig {
    ModelConfig {
        grid: HashGridConfig {
            levels: 10,
            features_per_level: 2,
            log2_table_size: 15,
            base_resolution: 16,
            max_resolution: 2048,
        },
        hidden_dim: 64,
        geo_feature_dim: 15,
    }
}

/// The paper-scale training schedule reaching 25 PSNR in 2 s on the
/// scaled-up chip: 199 M points/s × 2 s of samples over ~2000 batches.
pub fn paper_training_volume() -> DataVolume {
    let model = paper_model();
    let total_samples: u64 = 398_000_000; // 199 M pts/s × 2 s
    let iterations = 2000u64;
    let samples_per_iter = total_samples / iterations;
    let rays_per_iter = samples_per_iter / 13; // ~13 samples per ray
    let mut volume = DataVolume::default();
    for _ in 0..iterations {
        volume = volume + estimate_step_volume(&model, rays_per_iter, samples_per_iter);
    }
    // End-to-end I/O: ~100 training images at 800x800 RGB f32 in,
    // trained parameters out.
    volume.end_to_end_io = 100 * 800 * 800 * 12 + model.param_count() as u64 * 4;
    volume
}

/// Prints the Fig. 3 reproduction.
pub fn run() {
    let v = paper_training_volume();
    let gb = |b: u64| b as f64 / 1e9;
    print_table(
        "Fig. 3: data volume per stage for a 2-second training run",
        &["Flow", "Volume (GB)", "BW for 2 s (GB/s)"],
        &[
            vec![
                "Stage I -> II hand-off".into(),
                format!("{:.1}", gb(v.stage1_to_stage2)),
                format!("{:.1}", required_bandwidth_gbs(v.stage1_to_stage2, 2.0)),
            ],
            vec![
                "Stage II internal".into(),
                format!("{:.1}", gb(v.stage2_internal)),
                format!("{:.1}", required_bandwidth_gbs(v.stage2_internal, 2.0)),
            ],
            vec![
                "Stage II -> III hand-off".into(),
                format!("{:.1}", gb(v.stage2_to_stage3)),
                format!("{:.1}", required_bandwidth_gbs(v.stage2_to_stage3, 2.0)),
            ],
            vec![
                "Stage III internal".into(),
                format!("{:.1}", gb(v.stage3_internal)),
                format!("{:.1}", required_bandwidth_gbs(v.stage3_internal, 2.0)),
            ],
            vec![
                "Total intermediate".into(),
                format!("{:.1}", gb(v.total_intermediate())),
                format!("{:.1}", required_bandwidth_gbs(v.total_intermediate(), 2.0)),
            ],
            vec![
                "End-to-end I/O (ours)".into(),
                format!("{:.2}", gb(v.end_to_end_io)),
                format!("{:.3}", required_bandwidth_gbs(v.end_to_end_io, 2.0)),
            ],
        ],
    );

    println!("\nDesign boundaries (off-chip traffic for a 2 s training run):");
    for b in DesignBoundary::ALL {
        let bytes = b.offchip_bytes(&v);
        let bw = required_bandwidth_gbs(bytes, 2.0);
        let fits = if bw <= USB_BANDWIDTH_GBS { "fits USB" } else { "exceeds USB" };
        println!("  {:<24} {:>8.2} GB/s  ({fits})", b.label(), bw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volumes_match_fig3_shape() {
        let v = paper_training_volume();
        // Intermediate data in the 100-200 GB band the paper reports.
        let total_gb = v.total_intermediate() as f64 / 1e9;
        assert!((80.0..=250.0).contains(&total_gb), "total {total_gb} GB");
        // End-to-end I/O under 1 GB (the paper: ~700 MB).
        let e2e_gb = v.end_to_end_io as f64 / 1e9;
        assert!((0.3..=1.0).contains(&e2e_gb), "end-to-end {e2e_gb} GB");
        // The end-to-end boundary fits the USB budget; all others
        // exceed it.
        let e2e_bw = required_bandwidth_gbs(DesignBoundary::EndToEnd.offchip_bytes(&v), 2.0);
        assert!(e2e_bw < USB_BANDWIDTH_GBS);
        for b in [DesignBoundary::Stage2, DesignBoundary::Stages23, DesignBoundary::Stages12] {
            let bw = required_bandwidth_gbs(b.offchip_bytes(&v), 2.0);
            assert!(bw > USB_BANDWIDTH_GBS, "{} only needs {bw}", b.label());
        }
    }
}
