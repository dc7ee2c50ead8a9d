//! The Network-on-Chip and Interface/Controller models — the chip's
//! two support modules (Sec. III-A items 5 and 6).
//!
//! The NoC interlinks the three computing modules and the memory
//! clusters; the interface streams the pipeline's true inputs and
//! outputs off-chip. Neither is allowed to become the bottleneck: the
//! NoC links are sized so that stage hand-off traffic always fits
//! under the compute time of the stages it connects, and the interface
//! needs only the end-to-end I/O bandwidth (0.6 GB/s).

use crate::chip::StageCycles;
use fusion3d_nerf::pipeline::FrameTrace;

/// Bytes per sample handed from Stage I to Stage II (position, `t`,
/// `δt`).
pub const S1_TO_S2_BYTES_PER_SAMPLE: u64 = 20;
/// Bytes per sample handed from Stage II to Stage III per encoded
/// feature dimension (f32).
pub const S2_TO_S3_BYTES_PER_FEATURE: u64 = 4;
/// Bytes per ray delivered to the interface (final RGB pixel).
pub const PIXEL_BYTES: u64 = 12;
/// Bytes per display-ready pixel crossing the off-chip interface
/// (8-bit RGB; the f32 radiance is tone-mapped on its way out).
pub const DISPLAY_PIXEL_BYTES: u64 = 3;

/// On-chip link configuration. The stage hand-offs are wide
/// point-to-point buses sized to their stage's per-cycle payload —
/// the Stage II → III features are the widest flow (an encoded
/// feature vector per cycle) — while the pixel path to the interface
/// is narrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Width of the Stage I → Stage II sample bus in bits.
    pub s1_s2_width_bits: u32,
    /// Width of the Stage II → Stage III feature bus in bits.
    pub s2_s3_width_bits: u32,
    /// Width of the Stage III → interface pixel link in bits.
    pub io_width_bits: u32,
    /// Router traversal latency per hop in cycles.
    pub hop_latency: u32,
}

impl NocConfig {
    /// The Fusion-3D configuration: a 256-bit sample bus, a 1024-bit
    /// feature bus (20 × f32 features per cycle with headroom), a
    /// 128-bit pixel link, single-cycle hops.
    pub fn fusion3d() -> Self {
        NocConfig {
            s1_s2_width_bits: 256,
            s2_s3_width_bits: 1024,
            io_width_bits: 128,
            hop_latency: 1,
        }
    }

    /// Cycles to move `bytes` over a link of `width_bits` (excluding
    /// hop latency).
    ///
    /// # Panics
    ///
    /// Panics if the link width is zero.
    pub fn transfer_cycles(width_bits: u32, bytes: u64) -> u64 {
        assert!(width_bits > 0, "link width must be positive");
        (bytes * 8).div_ceil(width_bits as u64)
    }
}

/// Traffic on the two stage-boundary links for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocTraffic {
    /// Stage I → Stage II bytes.
    pub s1_to_s2: u64,
    /// Stage II → Stage III bytes.
    pub s2_to_s3: u64,
    /// Stage III → interface bytes (pixels out).
    pub s3_to_io: u64,
}

/// Computes the per-frame NoC traffic from a Stage-I trace and the
/// model's encoded feature dimension.
pub fn frame_traffic(trace: &FrameTrace, feature_dim: u64) -> NocTraffic {
    NocTraffic {
        s1_to_s2: trace.total_samples * S1_TO_S2_BYTES_PER_SAMPLE,
        s2_to_s3: trace.total_samples * feature_dim * S2_TO_S3_BYTES_PER_FEATURE,
        s3_to_io: trace.ray_count() as u64 * PIXEL_BYTES,
    }
}

/// Utilization of each NoC link against the frame's pipelined compute
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocReport {
    /// Traffic that produced this report.
    pub traffic: NocTraffic,
    /// S1→S2 link utilization (transfer cycles / compute cycles).
    pub s1_s2_utilization: f64,
    /// S2→S3 link utilization.
    pub s2_s3_utilization: f64,
    /// S3→interface link utilization.
    pub s3_io_utilization: f64,
}

impl NocReport {
    /// Whether any link would throttle the pipeline.
    pub fn is_bottleneck(&self) -> bool {
        self.s1_s2_utilization >= 1.0
            || self.s2_s3_utilization >= 1.0
            || self.s3_io_utilization >= 1.0
    }

    /// The highest link utilization.
    pub fn peak_utilization(&self) -> f64 {
        self.s1_s2_utilization.max(self.s2_s3_utilization).max(self.s3_io_utilization)
    }
}

/// Checks the NoC against a frame's compute schedule: each link's
/// transfer time is compared with the pipeline's makespan.
///
/// # Panics
///
/// Panics if `stages` has a zero makespan while traffic is nonzero
/// (a transfer cannot happen in zero compute time).
pub fn check_noc(
    config: &NocConfig,
    trace: &FrameTrace,
    feature_dim: u64,
    stages: &StageCycles,
) -> NocReport {
    let traffic = frame_traffic(trace, feature_dim);
    let makespan = stages.pipelined();
    let util = |width: u32, bytes: u64| {
        if bytes == 0 {
            0.0
        } else {
            assert!(makespan > 0, "nonzero traffic with zero compute time");
            (NocConfig::transfer_cycles(width, bytes) + config.hop_latency as u64) as f64
                / makespan as f64
        }
    };
    NocReport {
        traffic,
        s1_s2_utilization: util(config.s1_s2_width_bits, traffic.s1_to_s2),
        s2_s3_utilization: util(config.s2_s3_width_bits, traffic.s2_to_s3),
        s3_io_utilization: util(config.io_width_bits, traffic.s3_to_io),
    }
}

/// The off-chip interface: checks that a frame's (or training step's)
/// true I/O fits the USB-class budget at the achieved frame rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterfaceReport {
    /// Bytes crossing the interface per frame.
    pub bytes_per_frame: u64,
    /// Required off-chip bandwidth in GB/s at the given frame rate.
    pub required_gbs: f64,
}

/// Computes the interface load for frames of `trace` at `fps`:
/// camera parameters in, display-ready 8-bit pixels out.
pub fn interface_load(trace: &FrameTrace, fps: f64) -> InterfaceReport {
    // Camera pose+intrinsics in (64 B) plus the rendered pixels out.
    let bytes = 64 + trace.ray_count() as u64 * DISPLAY_PIXEL_BYTES;
    InterfaceReport { bytes_per_frame: bytes, required_gbs: bytes as f64 * fps / 1e9 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::FusionChip;
    use fusion3d_nerf::sampler::PairJob;

    fn trace(rays: usize, samples_per_ray: u16) -> FrameTrace {
        let job = PairJob {
            samples: samples_per_ray,
            steps: samples_per_ray + 6,
            lattice_steps: samples_per_ray * 4,
        };
        let mut trace = FrameTrace::default();
        for _ in 0..rays {
            trace.push_ray(1, &[job]);
        }
        trace
    }

    #[test]
    fn transfer_cycle_accounting() {
        assert_eq!(NocConfig::transfer_cycles(128, 16), 1);
        assert_eq!(NocConfig::transfer_cycles(128, 17), 2);
        assert_eq!(NocConfig::transfer_cycles(128, 0), 0);
        assert_eq!(NocConfig::transfer_cycles(1024, 128), 1);
    }

    #[test]
    fn traffic_scales_with_workload() {
        let small = frame_traffic(&trace(100, 8), 20);
        let big = frame_traffic(&trace(100, 16), 20);
        assert_eq!(big.s1_to_s2, 2 * small.s1_to_s2);
        assert_eq!(big.s2_to_s3, 2 * small.s2_to_s3);
        assert_eq!(big.s3_to_io, small.s3_to_io, "pixel traffic is per-ray");
    }

    #[test]
    fn fusion3d_noc_is_never_the_bottleneck() {
        // Design check: on a representative frame, every link runs far
        // below the compute time.
        let chip = FusionChip::scaled_up();
        let t = trace(4096, 13);
        let report = chip.simulate_frame(&t);
        let noc = check_noc(&NocConfig::fusion3d(), &t, 20, &report.stages);
        assert!(!noc.is_bottleneck(), "NoC throttles: {noc:?}");
        // The S2->S3 link is the busiest (features are the widest
        // hand-off), but still keeps headroom.
        assert!(noc.s2_s3_utilization >= noc.s1_s2_utilization);
        assert!(noc.peak_utilization() < 0.9, "peak {}", noc.peak_utilization());
    }

    #[test]
    fn starved_links_are_detected() {
        // A toy feature bus cannot carry the feature stream.
        let narrow = NocConfig { s2_s3_width_bits: 16, ..NocConfig::fusion3d() };
        let chip = FusionChip::scaled_up();
        let t = trace(1024, 13);
        let report = chip.simulate_frame(&t);
        let noc = check_noc(&narrow, &t, 20, &report.stages);
        assert!(noc.is_bottleneck());
    }

    #[test]
    fn interface_fits_usb_at_paper_scale() {
        // 800x800 at 36 FPS: pixels out plus camera in.
        let t = trace(800 * 800 / 64, 13); // scaled trace; rays matter
        let rays = t.ray_count() as u64;
        let report = interface_load(&t, 36.0 * 64.0); // same pixels/s as 800^2 @ 36
        assert_eq!(report.bytes_per_frame, 64 + rays * 3);
        assert!(report.required_gbs < 0.625, "interface needs {} GB/s", report.required_gbs);
    }

    #[test]
    fn zero_traffic_zero_utilization() {
        let noc = check_noc(
            &NocConfig::fusion3d(),
            &FrameTrace::default(),
            20,
            &StageCycles { sampling: 0, interpolation: 0, post_processing: 0 },
        );
        assert_eq!(noc.peak_utilization(), 0.0);
        assert!(!noc.is_bottleneck());
    }
}
