//! Roofline inputs measured inside the harness: the host's peak
//! multiply-add rate and streaming bandwidth, plus computed FLOP and
//! byte counts per sample for the encoding and MLP layers.
//!
//! Bytes are *computed* from array sizes (every gathered corner and
//! every activation counted once), not measured; caches make the real
//! traffic smaller, so a layer can read above 100% of its roofline.

use fusion3d_nerf::encoding::HashGridConfig;
use fusion3d_nerf::mlp::Mlp;
use std::hint::black_box;
use std::time::Instant;

/// Measured host limits, single thread.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub peak_gflops: f64,
    pub stream_gbps: f64,
}

/// FLOPs and computed bytes of some amount of layer work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub flops: f64,
    pub bytes: f64,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, o: Cost) -> Cost {
        Cost { flops: self.flops + o.flops, bytes: self.bytes + o.bytes }
    }
}

impl std::ops::Mul<f64> for Cost {
    type Output = Cost;
    fn mul(self, k: f64) -> Cost {
        Cost { flops: self.flops * k, bytes: self.bytes * k }
    }
}

/// Measures both host limits (about half a second; a few ms at smoke
/// size, which only exercises the code).
pub fn measure_host(smoke: bool) -> Host {
    let floats = if smoke { 1 << 12 } else { STREAM_FLOATS };
    let host = Host { peak_gflops: peak_gflops(), stream_gbps: stream_gbps(floats) };
    eprintln!(
        "  host: {:.1} GFLOP/s mul+add peak, {:.1} GB/s triad over 3 x {} KiB arrays",
        host.peak_gflops,
        host.stream_gbps,
        (floats * 4) >> 10
    );
    host
}

/// Independent multiply-add chains: enough to cover the latency of
/// both FP ports with any SIMD width the compiler picks. Separate
/// multiply and add (no fusing), the same arithmetic the MLP and
/// encoding kernels execute.
fn peak_gflops() -> f64 {
    const LANES: usize = 128;
    const ITERS: usize = 400_000;
    let m = black_box(0.999_999_9f32);
    let c = black_box(1.0e-7f32);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut acc = black_box([1.0f32; LANES]);
        let t = Instant::now();
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = *a * m + c;
            }
        }
        let s = t.elapsed().as_secs_f64();
        black_box(&acc);
        best = best.max(2.0 * (LANES * ITERS) as f64 / s / 1e9);
    }
    best
}

/// Floats per triad array: 64 MiB each, 192 MiB per pass, larger than
/// the last-level caches of the hosts this runs on.
const STREAM_FLOATS: usize = 16 << 20;

/// STREAM-style triad `a = b + s * c` over arrays of `floats`,
/// counting 12 bytes per element.
fn stream_gbps(floats: usize) -> f64 {
    let b = vec![1.0f32; floats];
    let c = vec![2.0f32; floats];
    let mut a = vec![0.0f32; floats];
    let s = black_box(0.5f32);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(&a);
        best = best.max(12.0 * floats as f64 / secs / 1e9);
    }
    best
}

/// Forward hash-grid encode of one sample: per level, 8 corners of
/// `F` features weighted and summed (one multiply-add each); bytes are
/// the gathered corner features, the position and the output row.
pub fn encoding_fwd(grid: &HashGridConfig) -> Cost {
    let corner_values = (grid.levels * 8 * grid.features_per_level) as f64;
    Cost {
        flops: 2.0 * corner_values,
        bytes: 4.0 * corner_values + 12.0 + 4.0 * grid.output_dim() as f64,
    }
}

/// Backward scatter of one sample: the same multiply-adds into the
/// gradient table, each corner slot read and written.
pub fn encoding_bwd(grid: &HashGridConfig) -> Cost {
    let corner_values = (grid.levels * 8 * grid.features_per_level) as f64;
    Cost {
        flops: 2.0 * corner_values,
        bytes: 8.0 * corner_values + 12.0 + 4.0 * grid.output_dim() as f64,
    }
}

/// Forward of one sample through `mlps` (density and color networks)
/// when calls average `samples_per_call` samples: one multiply-add per
/// weight, activations read and written once, the weights read once
/// per call.
pub fn mlp_fwd(mlps: &[&Mlp], samples_per_call: f64) -> Cost {
    mlps.iter()
        .map(|m| Cost {
            flops: 2.0 * m.macs_per_forward() as f64,
            bytes: 4.0 * m.dims().iter().sum::<usize>() as f64
                + 4.0 * m.param_count() as f64 / samples_per_call.max(1.0),
        })
        .fold(Cost::default(), |a, b| a + b)
}

/// Backward of one sample: input and weight gradients (two
/// multiply-adds per weight), activations and deltas read, weight
/// gradients read and written once per call.
pub fn mlp_bwd(mlps: &[&Mlp], samples_per_call: f64) -> Cost {
    mlps.iter()
        .map(|m| Cost {
            flops: 4.0 * m.macs_per_forward() as f64,
            bytes: 8.0 * m.dims().iter().sum::<usize>() as f64
                + 12.0 * m.param_count() as f64 / samples_per_call.max(1.0),
        })
        .fold(Cost::default(), |a, b| a + b)
}

/// Achieved FLOP rate of `cost` done in `seconds`, as a percentage of
/// the roofline bound `min(peak, intensity * bandwidth)`.
pub fn pct_roofline(cost: Cost, seconds: f64, host: &Host) -> f64 {
    if seconds <= 0.0 || cost.bytes <= 0.0 {
        return 0.0;
    }
    let achieved = cost.flops / seconds / 1e9;
    let bound = host.peak_gflops.min(cost.flops / cost.bytes * host.stream_gbps);
    100.0 * achieved / bound
}
