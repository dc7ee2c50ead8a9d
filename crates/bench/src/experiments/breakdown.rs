//! Per-module cycle/energy breakdown reports from the observability
//! trace stream (paper Tab. III / Fig. 14 territory).
//!
//! For each of the eight synthetic scenes this runs the cycle-stepped
//! pipeline simulator under [`fusion3d_core::observe::observe_frame`],
//! which attributes every simulated cycle to exactly one stage and
//! splits frame energy across the six chip modules. The tables printed
//! by `--bin breakdown` are rendered from the resulting
//! [`fusion3d_obs::Report`]s — the same JSON-lines stream an external
//! consumer would ingest — so the binary doubles as a worked example
//! for `docs/OBSERVABILITY.md`. Its last section records the host
//! render kernel's counters ([`kernel_probe_report`]).

use fusion3d_core::chip::FusionChip;
use fusion3d_core::config::Module;
use fusion3d_core::observe::{observe_frame, FrameObservation};
use fusion3d_core::pipeline_sim::BufferConfig;
use fusion3d_nerf::encoding::{Encoding, HashGridConfig};
use fusion3d_nerf::math::Vec3;
use fusion3d_nerf::model::{ModelConfig, NerfModel};
use fusion3d_nerf::pipeline::{render_image_probed, trace_frame, PipelineConfig, RenderCounters};
use fusion3d_nerf::sampler::SamplerConfig;
use fusion3d_nerf::scenes::SyntheticScene;
use fusion3d_obs::{MetricValue, Metrics, Report};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::support::{
    for_each_scene, print_table, scene_occupancy, trace_camera, trace_sampler, TRACE_RES,
};

/// One scene's observed frame: the report (spans + metrics) and the
/// raw simulation numbers it was built from.
#[derive(Debug, Clone)]
pub struct SceneBreakdown {
    /// Scene the frame was traced from.
    pub scene: SyntheticScene,
    /// The populated observability report.
    pub report: Report,
    /// Simulation results and span handles for direct assertions.
    pub frame: FrameObservation,
}

/// Observes one scene's evaluation frame at an explicit trace
/// resolution (tests use a smaller frame than the experiment binary).
pub fn scene_breakdown_at(scene: SyntheticScene, resolution: u32) -> SceneBreakdown {
    let chip = FusionChip::scaled_up();
    let trace = trace_frame(&scene_occupancy(scene), &trace_camera(resolution), &trace_sampler());
    let mut report = Report::new(scene.name());
    let frame = observe_frame(&chip, &trace, &BufferConfig::fusion3d(), false, &mut report);
    SceneBreakdown { scene, report, frame }
}

/// Observes all eight synthetic scenes at `resolution`, fanned out
/// across the worker pool, in scene order.
pub fn all_scene_breakdowns_at(resolution: u32) -> Vec<SceneBreakdown> {
    for_each_scene(&SyntheticScene::ALL, |scene| scene_breakdown_at(scene, resolution))
}

/// Reads a gauge out of a report's metric registry (0.0 if absent —
/// the callers only look up gauges [`observe_frame`] always records).
fn gauge(report: &Report, name: &str) -> f64 {
    match report.metrics.get(name).map(|m| &m.value) {
        Some(MetricValue::Gauge(g)) => *g,
        _ => 0.0,
    }
}

/// Percentage formatting for the cycle-share columns.
fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        return "0.0%".to_string();
    }
    format!("{:.1}%", 100.0 * part as f64 / total as f64)
}

/// Prints the per-stage cycle-attribution table.
pub fn print_cycle_table(rows: &[SceneBreakdown]) {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|sb| {
            let a = &sb.frame.attribution;
            let total = a.total();
            vec![
                sb.scene.name().to_string(),
                total.to_string(),
                a.sampling.to_string(),
                pct(a.sampling, total),
                a.interp.to_string(),
                pct(a.interp, total),
                a.postproc.to_string(),
                pct(a.postproc, total),
            ]
        })
        .collect();
    print_table(
        "Per-stage cycle attribution (stepped pipeline, exact)",
        &["scene", "cycles", "sampling", "%", "interp", "%", "postproc", "%"],
        &body,
    );
}

/// Prints the per-module energy table (all six chip modules, mJ).
pub fn print_energy_table(rows: &[SceneBreakdown]) {
    let mut header = vec!["scene", "total mJ"];
    let slugs: Vec<&'static str> = Module::ALL.iter().map(|m| m.slug()).collect();
    header.extend(slugs.iter().copied());
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|sb| {
            let mut cells = vec![
                sb.scene.name().to_string(),
                format!("{:.3}", gauge(&sb.report, "energy.total_j") * 1e3),
            ];
            for slug in &slugs {
                let joules = gauge(&sb.report, &format!("energy.{slug}_j"));
                cells.push(format!("{:.3}", joules * 1e3));
            }
            cells
        })
        .collect();
    print_table("Per-module energy breakdown (mJ per frame)", &header, &body);
}

/// Prints the Stage-I workload table that explains the per-scene
/// spreads (Tab. VI): hit rate, samples/ray, NoC peak utilization.
pub fn print_workload_table(rows: &[SceneBreakdown]) {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|sb| {
            vec![
                sb.scene.name().to_string(),
                format!("{:.3}", gauge(&sb.report, "frame.hit_rate")),
                format!("{:.1}", gauge(&sb.report, "frame.samples_per_ray")),
                format!("{:.3}", gauge(&sb.report, "sampling.core_utilization")),
                format!("{:.3}", gauge(&sb.report, "noc.peak_utilization")),
                format!("{:.3}", gauge(&sb.report, "pipeline.overhead_fraction")),
            ]
        })
        .collect();
    print_table(
        "Per-scene workload shape",
        &["scene", "hit rate", "samples/ray", "core util", "noc peak", "pipe ovh"],
        &body,
    );
}

/// Runs the full breakdown experiment: observe all scenes, print the
/// three tables, and show one scene's rendered span tree as the worked
/// example. With `jsonl` set, also dumps every scene's deterministic
/// JSON-lines stream (the machine-readable export).
pub fn run(jsonl: bool) {
    let rows = all_scene_breakdowns_at(TRACE_RES);
    print_cycle_table(&rows);
    print_energy_table(&rows);
    print_workload_table(&rows);
    if let Some(example) = rows.first() {
        println!("\n=== Span tree: {} (worked example) ===", example.scene.name());
        print!("{}", example.report.render_table());
    }
    if jsonl {
        println!("\n=== Deterministic JSON-lines export ===");
        for sb in &rows {
            print!("{}", sb.report.deterministic_jsonl());
        }
    }
}

/// Records a probed render's counters under `kernel.`, and how its
/// rows spread over the workers as diagnostic metrics
/// (`render.worker.{i}.tasks`, `render.workers`, `render.balance`):
/// scheduling decides that spread, so it stays out of the
/// deterministic export. `rays` is the frame's pixel count and
/// `(dense, hashed)` the model grid's
/// [`gather_locality`](fusion3d_nerf::encoding::Encoding::gather_locality):
/// each evaluated sample gathers once per level. Every round is one
/// encode and one MLP forward, so both kernels' batch and sample
/// counters read the rounds and the evaluated samples.
fn record_render_counters(
    counters: &RenderCounters,
    rays: u64,
    (dense, hashed): (usize, usize),
    metrics: &mut Metrics,
) {
    let RenderCounters { rounds, samples_evaluated: evaluated, .. } = *counters;
    let gathers_dense = dense as u64 * evaluated;
    let gathers_hashed = hashed as u64 * evaluated;
    metrics.counter_add("kernel.encode.batches", "batches", rounds);
    metrics.counter_add("kernel.encode.points", "points", evaluated);
    metrics.counter_add("kernel.render.samples_retained", "samples", counters.samples_retained);
    metrics.counter_add("kernel.gathers.dense", "groups", gathers_dense);
    metrics.counter_add("kernel.gathers.hashed", "groups", gathers_hashed);
    let gathers = gathers_dense + gathers_hashed;
    let hashed_fraction = if gathers == 0 { 0.0 } else { gathers_hashed as f64 / gathers as f64 };
    metrics.gauge_set("kernel.gathers.hashed_fraction", "ratio", hashed_fraction);
    metrics.counter_add("kernel.mlp.forward_batches", "batches", rounds);
    metrics.counter_add("kernel.mlp.forward_samples", "samples", evaluated);
    metrics.counter_add("kernel.rays", "rays", rays);
    metrics.counter_add("kernel.rays_saturated", "rays", counters.rays_saturated);

    let rows = &counters.rows_per_worker;
    for (i, &tasks) in rows.iter().enumerate() {
        metrics.diagnostic_counter_add(&format!("render.worker.{i}.tasks"), "tasks", tasks);
    }
    // Load balance in (0, 1]: mean rows per worker over the busiest
    // worker's rows (1.0 = perfectly even).
    let busiest = rows.iter().copied().max().unwrap_or(0).max(1);
    let balance = rows.iter().sum::<u64>() as f64 / rows.len() as f64 / busiest as f64;
    metrics.diagnostic_counter_add("render.workers", "threads", rows.len() as u64);
    metrics.diagnostic_gauge_set("render.balance", "ratio", balance);
}

/// Renders Lego at `resolution`² with an untrained eight-level model
/// through [`render_image_probed`] and returns a report of its
/// counters: deterministic `kernel.` metrics, and how the rows spread
/// over the workers as diagnostic `render.` metrics.
pub fn kernel_probe_report(resolution: u32) -> Report {
    let mut rng = SmallRng::seed_from_u64(19);
    let model = NerfModel::new(
        ModelConfig {
            grid: HashGridConfig {
                levels: 8,
                features_per_level: 2,
                log2_table_size: 14,
                base_resolution: 16,
                max_resolution: 256,
            },
            hidden_dim: 32,
            geo_feature_dim: 7,
        },
        &mut rng,
    );
    let config = PipelineConfig {
        sampler: SamplerConfig { steps_per_diagonal: 128, max_samples_per_ray: 128 },
        background: Vec3::ONE,
        early_stop: true,
    };
    let occupancy = scene_occupancy(SyntheticScene::Lego);
    let camera = trace_camera(resolution);
    let (_, counters) = render_image_probed(&model, &occupancy, &camera, &config);
    let mut report = Report::new("lego-kernel-probes");
    let locality = model.grid().gather_locality();
    record_render_counters(&counters, camera.pixel_count(), locality, &mut report.metrics);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_obs::Metric;

    fn recorded(counters: &RenderCounters, rays: u64, locality: (usize, usize)) -> Metrics {
        let mut metrics = Metrics::new();
        record_render_counters(counters, rays, locality, &mut metrics);
        metrics
    }

    /// Every deterministic `kernel.` metric, by name, with its value.
    fn kernel_values(metrics: &Metrics) -> Vec<(&str, MetricValue)> {
        metrics
            .iter()
            .filter(|(name, _)| name.starts_with("kernel."))
            .map(|(name, metric)| {
                assert!(!metric.diagnostic, "{name} must be deterministic");
                (name, metric.value.clone())
            })
            .collect()
    }

    #[test]
    fn each_counter_lands_under_its_own_name() {
        // Early termination left 30 of 90 retained samples unevaluated;
        // one dense level to three hashed ones.
        let counters = RenderCounters {
            rays_saturated: 5,
            samples_retained: 90,
            samples_evaluated: 60,
            rounds: 7,
            rows_per_worker: vec![3, 1],
        };
        let metrics = recorded(&counters, 12, (1, 3));
        use MetricValue::{Counter, Gauge};
        assert_eq!(
            kernel_values(&metrics),
            [
                ("kernel.encode.batches", Counter(7)),
                ("kernel.encode.points", Counter(60)),
                ("kernel.gathers.dense", Counter(60)),
                ("kernel.gathers.hashed", Counter(180)),
                ("kernel.gathers.hashed_fraction", Gauge(0.75)),
                ("kernel.mlp.forward_batches", Counter(7)),
                ("kernel.mlp.forward_samples", Counter(60)),
                ("kernel.rays", Counter(12)),
                ("kernel.rays_saturated", Counter(5)),
                ("kernel.render.samples_retained", Counter(90)),
            ]
        );
        let diagnostic = |name: &str| match metrics.get(name) {
            Some(Metric { value, diagnostic: true, .. }) => value.clone(),
            other => panic!("{name} must be diagnostic, got {other:?}"),
        };
        assert_eq!(diagnostic("render.worker.0.tasks"), Counter(3));
        assert_eq!(diagnostic("render.worker.1.tasks"), Counter(1));
        assert_eq!(diagnostic("render.workers"), Counter(2));
        assert_eq!(diagnostic("render.balance"), Gauge(2.0 / 3.0));
    }

    /// No gathers, from no evaluated sample or from a grid without
    /// levels, read a hashed fraction of 0 rather than 0/0.
    #[test]
    fn no_gathers_read_a_zero_hashed_fraction() {
        let idle = RenderCounters { rows_per_worker: vec![1], ..RenderCounters::default() };
        let levelless = RenderCounters { samples_evaluated: 8, ..idle.clone() };
        for (counters, locality) in [(idle, (1, 3)), (levelless, (0, 0))] {
            let metrics = recorded(&counters, 4, locality);
            let fraction = metrics.get("kernel.gathers.hashed_fraction").map(|m| &m.value);
            assert_eq!(fraction, Some(&MetricValue::Gauge(0.0)), "{counters:?}, {locality:?}");
        }
    }
}
