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
//! for `docs/OBSERVABILITY.md`.

use fusion3d_core::chip::FusionChip;
use fusion3d_core::config::Module;
use fusion3d_core::observe::{observe_frame, FrameObservation};
use fusion3d_core::pipeline_sim::BufferConfig;
use fusion3d_nerf::pipeline::trace_frame;
use fusion3d_nerf::scenes::SyntheticScene;
use fusion3d_obs::{MetricValue, Report};

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
