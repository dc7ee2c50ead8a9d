//! The NeRF layers of a traced replay: ray counts, the split of the
//! model's bundled batch calls into their public parts, and the
//! per-layer metrics both give.
//!
//! `NerfModel::forward_batch` (and `_infer`) runs the hash-grid encode
//! and the density and color MLPs in one call; `backward_batch` runs
//! their backward passes. To attribute time to the encoding and MLP
//! layers, the traced replays capture each call's inputs and re-run the
//! parts (`HashGrid::interpolate_batch[_infer]`, `Mlp::forward_batch`,
//! `Mlp::backward_batch`, `HashGrid::backward_batch`) on them, one span
//! per call, outside the op timeline. The re-run is checked to
//! reproduce the bundled call's densities and colors bit for bit, which
//! shows that the split is the same computation.

use crate::measure::Metrics;
use crate::roofline::{self, Host};
use crate::trace::{Kind, Replay, Tracer};
use crate::Outcome;
use fusion3d_nerf::encoding::EncodingScratch;
use fusion3d_nerf::mlp::{sh_encode, MlpBatchCache, SH_DIM};
use fusion3d_nerf::render::ShadedSample;
use fusion3d_nerf::{NerfModel, Vec3};

/// Transmittance below which `composite_into` stops a ray early.
const SATURATED: f32 = 1e-4;
/// Cap on `sigma * dt` per sample in `composite_into`.
const MAX_SIGMA_DT: f32 = 15.0;
/// Clamp on the raw density logit before the model's exponential.
const RAW_DENSITY_CLAMP: f32 = 12.0;

/// Samples `composite_into` consumes with early termination: the model
/// evaluated the rest for nothing.
fn consumed_samples(shaded: &[ShadedSample]) -> usize {
    let mut transmittance = 1.0f32;
    for (i, s) in shaded.iter().enumerate() {
        if transmittance < SATURATED {
            return i;
        }
        let alpha = 1.0 - (-(s.sigma * s.dt).min(MAX_SIGMA_DT)).exp();
        transmittance *= 1.0 - alpha;
    }
    shaded.len()
}

/// Ray and sample counts of a traced replay.
#[derive(Debug, Default)]
pub struct RayCounts {
    rays: u64,
    samples: u64,
    /// Samples compositing consumed before the ray's transmittance
    /// saturated.
    useful: u64,
    saturated: u64,
}

impl RayCounts {
    /// Counts one composited ray.
    pub fn add(&mut self, shaded: &[ShadedSample], final_transmittance: f32) {
        self.rays += 1;
        self.samples += shaded.len() as u64;
        self.useful += consumed_samples(shaded) as u64;
        self.saturated += u64::from(final_transmittance < SATURATED);
    }
}

/// Records the sampler, encoding, MLP, model and compositing metrics
/// of a replay whose model calls `run_parts` split. Backward metrics
/// are recorded when the replay ran backward calls.
pub fn record(
    replay: &Replay<'_>,
    counts: &RayCounts,
    model: &NerfModel,
    host: &Host,
    metrics: &mut Metrics,
) {
    let tracer = replay.tracer;
    let s = |kinds: &[Kind]| kinds.iter().map(|&k| tracer.self_s(k)).sum::<f64>();
    let (rays, samples) = (counts.rays as f64, counts.samples as f64);
    let calls = tracer.count(Kind::ModelFwd) as f64;
    let backward = tracer.count(Kind::ModelBwd) > 0;
    let encoding = [Kind::EncodingFwd, Kind::EncodingBwd];
    let mlp = [Kind::MlpFwd, Kind::MlpBwd];
    metrics.set("nerf.sampler.share", replay.share(&[Kind::Sampler]));
    metrics.set("nerf.sampler.mrays_per_s", rays / s(&[Kind::Sampler]) / 1e6);
    metrics.set("nerf.sampler.samples_per_ray", samples / rays);
    metrics.set("nerf.encoding.share", replay.share(&encoding));
    metrics.set("nerf.encoding.fwd_msamples_per_s", samples / s(&[Kind::EncodingFwd]) / 1e6);
    metrics.set("nerf.mlp.share", replay.share(&mlp));
    metrics.set("nerf.mlp.fwd_msamples_per_s", samples / s(&[Kind::MlpFwd]) / 1e6);
    metrics.set("nerf.model.samples_per_call", samples / calls);
    metrics.set(
        "nerf.model.glue_share",
        replay.share(&[Kind::ModelFwd, Kind::ModelBwd]) - replay.share(&[encoding, mlp].concat()),
    );
    metrics.set("nerf.render.share", replay.share(&[Kind::Composite, Kind::CompositeBwd]));
    metrics.set("nerf.render.mrays_per_s", rays / s(&[Kind::Composite]) / 1e6);
    metrics.set("nerf.render.useful_sample_frac", counts.useful as f64 / samples);
    metrics.set("nerf.render.saturated_ray_frac", counts.saturated as f64 / rays);

    let grid = model.grid().config();
    let mlps = [model.density_mlp(), model.color_mlp()];
    let mut enc_cost = roofline::encoding_fwd(grid);
    let mut mlp_cost = roofline::mlp_fwd(&mlps, samples / calls);
    if backward {
        metrics.set("nerf.encoding.bwd_msamples_per_s", samples / s(&[Kind::EncodingBwd]) / 1e6);
        metrics.set("nerf.mlp.bwd_msamples_per_s", samples / s(&[Kind::MlpBwd]) / 1e6);
        metrics.set("nerf.render.bwd_mrays_per_s", rays / s(&[Kind::CompositeBwd]) / 1e6);
        enc_cost = enc_cost + roofline::encoding_bwd(grid);
        mlp_cost = mlp_cost + roofline::mlp_bwd(&mlps, samples / calls);
    }
    let enc_pct = roofline::pct_roofline(enc_cost * samples, s(&encoding), host);
    let mlp_pct = roofline::pct_roofline(mlp_cost * samples, s(&mlp), host);
    metrics.set("nerf.encoding.pct_roofline", enc_pct);
    metrics.set("nerf.mlp.pct_roofline", mlp_pct);
}

/// Per-ray inputs and outputs of the bundled model calls of one op.
#[derive(Debug, Default)]
pub struct Captured {
    directions: Vec<Vec3>,
    /// `ends[r]` is one past ray `r`'s last sample.
    ends: Vec<usize>,
    positions: Vec<Vec3>,
    sigma: Vec<f32>,
    color: Vec<Vec3>,
    /// Whether backward calls were captured too.
    backward: bool,
    /// Loss gradients per sample, when `backward`.
    d_sigma: Vec<f32>,
    d_color: Vec<Vec3>,
}

impl Captured {
    /// Records one ray's forward call: its samples and the model's
    /// densities and colors for them.
    pub fn push(&mut self, direction: Vec3, positions: &[Vec3], sigma: &[f32], color: &[Vec3]) {
        self.directions.push(direction);
        self.positions.extend_from_slice(positions);
        self.ends.push(self.positions.len());
        self.sigma.extend_from_slice(sigma);
        self.color.extend_from_slice(color);
    }

    /// Records the gradients the ray's backward call received.
    pub fn push_grads(&mut self, d_sigma: &[f32], d_color: &[Vec3]) {
        self.backward = true;
        self.d_sigma.extend_from_slice(d_sigma);
        self.d_color.extend_from_slice(d_color);
    }
}

/// Re-runs every captured call's parts under spans of their own kind:
/// the forward parts always, the backward parts when gradients were
/// captured. `model` must be the model the calls ran with.
pub fn run_parts(model: &NerfModel, cap: &Captured, tracer: &mut Tracer, out: &mut Outcome) {
    let training = cap.backward;
    let (grid, density, color) = (model.grid(), model.density_mlp(), model.color_mlp());
    let (enc_dim, d_out, c_in) =
        (grid.config().output_dim(), density.output_dim(), color.input_dim());
    let geo = model.geo_feature_dim();
    let mut grads = model.alloc_grads();
    let mut enc_scratch = EncodingScratch::new();
    let (mut d_cache, mut c_cache) = (MlpBatchCache::new(), MlpBatchCache::new());
    let (mut encoded, mut color_in, mut d_rgb, mut d_color_in, mut d_density_out, mut d_encoded) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut mismatched = 0usize;
    let mut start = 0;
    for (&end, &direction) in cap.ends.iter().zip(&cap.directions) {
        let positions = &cap.positions[start..end];
        let n = positions.len();
        encoded.resize(n * enc_dim, 0.0);
        if training {
            tracer.span(Kind::EncodingFwd, || {
                grid.interpolate_batch(positions, &mut encoded, &mut enc_scratch)
            });
        } else {
            tracer
                .span(Kind::EncodingFwd, || grid.interpolate_batch_infer(positions, &mut encoded));
        }
        tracer.span(Kind::MlpFwd, || {
            density.forward_batch(&encoded, n, &mut d_cache);
        });
        let mut sh = [0.0f32; SH_DIM];
        sh_encode(direction.to_array(), &mut sh);
        color_in.resize(n * c_in, 0.0);
        d_density_out.resize(n * d_out, 0.0);
        for (s, row) in d_cache.output().chunks_exact(d_out).enumerate() {
            let clamped = row[0].clamp(-RAW_DENSITY_CLAMP, RAW_DENSITY_CLAMP);
            let sigma = clamped.exp();
            mismatched += usize::from(sigma.to_bits() != cap.sigma[start + s].to_bits());
            color_in[s * c_in..s * c_in + geo].copy_from_slice(&row[1..]);
            color_in[s * c_in + geo..(s + 1) * c_in].copy_from_slice(&sh);
            // d(loss)/d(raw logit): zero where the clamp bound.
            d_density_out[s * d_out] =
                if !training || clamped != row[0] { 0.0 } else { cap.d_sigma[start + s] * sigma };
        }
        tracer.span(Kind::MlpFwd, || {
            color.forward_batch(&color_in, n, &mut c_cache);
        });
        for (s, rgb) in c_cache.output().chunks_exact(3).enumerate() {
            mismatched += usize::from(Vec3::new(rgb[0], rgb[1], rgb[2]) != cap.color[start + s]);
        }
        if training {
            d_rgb.clear();
            d_rgb.extend(cap.d_color[start..end].iter().flat_map(|d| [d.x, d.y, d.z]));
            d_color_in.resize(n * c_in, 0.0);
            tracer.span(Kind::MlpBwd, || {
                color.backward_batch(&mut c_cache, &d_rgb, &mut d_color_in, &mut grads.color)
            });
            for s in 0..n {
                d_density_out[s * d_out + 1..(s + 1) * d_out]
                    .copy_from_slice(&d_color_in[s * c_in..s * c_in + geo]);
            }
            d_encoded.resize(n * enc_dim, 0.0);
            tracer.span(Kind::MlpBwd, || {
                density.backward_batch(
                    &mut d_cache,
                    &d_density_out,
                    &mut d_encoded,
                    &mut grads.density,
                )
            });
            tracer.span(Kind::EncodingBwd, || {
                grid.backward_batch(positions, &d_encoded, &mut grads.grid, &mut enc_scratch)
            });
        }
        start = end;
    }
    out.replica(mismatched == 0, || {
        format!("{mismatched} samples differ between the bundled model call and its parts")
    });
}
