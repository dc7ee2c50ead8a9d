//! Integration tests for the breakdown report: exact cycle
//! attribution on every scene and bitwise-identical observability
//! output across worker-thread counts, with the kernel counters'
//! scheduling diagnostics kept out of it.

use fusion3d_bench::experiments::breakdown::{
    all_scene_breakdowns_at, kernel_probe_report, scene_breakdown_at,
};
use fusion3d_nerf::scenes::SyntheticScene;
use fusion3d_obs::{Metric, MetricValue, Report};
use fusion3d_par::set_thread_override;

/// Test trace resolution: small enough for debug-build CI, large
/// enough that every scene retains samples and multi-chunk dispatch
/// actually happens at 4 threads.
const TEST_RES: u32 = 64;

#[test]
fn attributed_cycles_sum_to_total_for_every_scene() {
    let rows = all_scene_breakdowns_at(TEST_RES);
    assert_eq!(rows.len(), SyntheticScene::ALL.len());
    for sb in &rows {
        let name = sb.scene.name();
        assert!(sb.frame.stepped.cycles > 0, "{name}: empty stepped sim");
        assert_eq!(
            sb.frame.attribution.total(),
            sb.frame.stepped.cycles,
            "{name}: attribution must cover every simulated cycle exactly once"
        );
        assert_eq!(
            sb.report.trace.child_cycles(sb.frame.root),
            sb.frame.stepped.cycles,
            "{name}: stage spans must sum to the frame root"
        );
    }
}

/// Both thread counts run in this one test, so no second test races on
/// the global thread override.
#[test]
fn reports_are_bitwise_identical_across_thread_counts() {
    let streams = |threads: usize| -> (Vec<String>, String) {
        set_thread_override(Some(threads));
        let rows = all_scene_breakdowns_at(TEST_RES);
        let kernel = kernel_probe_report(TEST_RES);
        set_thread_override(None);
        check_dispatch_diagnostics(&kernel, threads as u64, u64::from(TEST_RES));
        (
            rows.iter().map(|sb| sb.report.deterministic_jsonl()).collect(),
            kernel.deterministic_jsonl(),
        )
    };
    let (single, single_kernel) = streams(1);
    let (multi, multi_kernel) = streams(4);
    assert_eq!(single.len(), multi.len());
    for ((a, b), scene) in single.iter().zip(&multi).zip(SyntheticScene::ALL) {
        assert_eq!(a, b, "deterministic stream differs for {}", scene.name());
        assert!(!a.is_empty());
    }
    assert_eq!(single_kernel, multi_kernel, "kernel counters differ between 1 and 4 threads");
}

/// The kernel section's scheduling diagnostics: per-worker row counts
/// that cover every row exactly once, a worker count within the thread
/// and row counts, a balance in (0, 1] — all diagnostic, so none of
/// them reaches the deterministic stream, which holds the counters.
fn check_dispatch_diagnostics(report: &Report, threads: u64, rows: u64) {
    let per_worker: Vec<u64> = report
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("render.worker."))
        .map(|(name, metric)| {
            assert!(name.ends_with(".tasks") && metric.diagnostic, "{name}: {metric:?}");
            match metric.value {
                MetricValue::Counter(n) => n,
                ref other => panic!("{name} must be a counter, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(per_worker.iter().sum::<u64>(), rows, "threads={threads}: every row shaded once");
    let workers = match report.metrics.get("render.workers") {
        Some(Metric { value: MetricValue::Counter(n), diagnostic: true, .. }) => *n,
        other => panic!("render.workers must be a diagnostic counter, got {other:?}"),
    };
    assert_eq!(workers, per_worker.len() as u64, "threads={threads}");
    assert!(workers <= threads && workers <= rows, "threads={threads}: {workers} workers");
    let balance = match report.metrics.get("render.balance") {
        Some(Metric { value: MetricValue::Gauge(g), diagnostic: true, .. }) => *g,
        other => panic!("render.balance must be a diagnostic gauge, got {other:?}"),
    };
    assert!(balance > 0.0 && balance <= 1.0, "threads={threads}: balance {balance}");

    let rays = report.metrics.get("kernel.rays").map(|m| &m.value);
    assert_eq!(rays, Some(&MetricValue::Counter(rows * rows)), "one ray per pixel of the frame");
    let stream = report.deterministic_jsonl();
    assert!(stream.contains("kernel.rays"), "the kernel counters are deterministic");
    for name in ["render.worker.", "render.workers", "render.balance"] {
        assert!(!stream.contains(name), "diagnostic {name} leaked into the deterministic stream");
    }
}

#[test]
fn breakdown_reports_the_catalog_metrics() {
    let sb = scene_breakdown_at(SyntheticScene::Mic, TEST_RES);
    for name in [
        "frame.hit_rate",
        "frame.samples_per_ray",
        "ray.samples",
        "sampling.core_utilization",
        "noc.peak_utilization",
        "energy.total_j",
        "pipeline.cycles",
        "stage.interp.cycles",
    ] {
        assert!(sb.report.metrics.get(name).is_some(), "missing metric {name}");
    }
}
