//! Multi-scene serving harness: replays Poisson/Zipf request traces
//! against a fresh [`ServeSim`] at a sweep of offered loads and
//! reports latency percentiles, throughput, and registry cache
//! behavior across all eight synthetic scenes.
//!
//! Emits `BENCH_serve.json`. Every reported number is a simulated
//! quantity (cycles, counts, checksums) — never wall clock — so the
//! file is bitwise-reproducible across runs and worker counts.
//! `--smoke` runs a short trace at low resolution (wired into
//! `scripts/check.sh`); `--out PATH` overrides the output path;
//! `--threads N` pins the kernel worker pool, which `check.sh` uses
//! to diff a 1-thread run against a 4-thread run byte for byte.

use fusion3d_obs::MetricValue;
use fusion3d_par::set_thread_override;
use fusion3d_serve::{
    generate, SceneId, ServeConfig, ServeOutcome, ServeSim, TrafficConfig, BUDGET_BYTES, EXECUTORS,
    MAX_BATCH,
};

/// Simulated accelerator clock used to convert cycles to seconds in
/// the derived (`*_ms`, `*_rps`) fields. Cycle counts are primary.
const CLOCK_HZ: f64 = 1.0e9;

/// One offered-load point of the sweep.
struct LoadPoint {
    mean_interarrival_cycles: f64,
    outcome: ServeOutcome,
    queue_depth_p99: u64,
}

/// Sweeps offered load from idle to past saturation. Each point
/// replays a fresh (cold-cache) simulation so points are independent
/// and their hit rates comparable.
fn run_sweep(smoke: bool) -> (ServeConfig, TrafficConfig, Vec<LoadPoint>) {
    let config = ServeConfig {
        resolution: if smoke { 16 } else { 40 },
        queue_capacity: 32,
        ..ServeConfig::default()
    };
    let traffic = TrafficConfig {
        scene_count: 8,
        requests: if smoke { 48 } else { 400 },
        mean_interarrival_cycles: 0.0, // overridden per point
        zipf_exponent: 0.9,
        path_len: config.path_len as u32,
    };
    let means: &[f64] = if smoke {
        &[80_000.0, 20_000.0, 5_000.0]
    } else {
        &[160_000.0, 80_000.0, 40_000.0, 20_000.0, 10_000.0]
    };
    let mut points = Vec::new();
    for (k, &mean) in means.iter().enumerate() {
        let mut sim = match ServeSim::synthetic(8, &config) {
            Ok(sim) => sim,
            Err(err) => {
                eprintln!("serve bench: cannot build simulation: {err}");
                std::process::exit(1);
            }
        };
        let trace = generate(
            &TrafficConfig { mean_interarrival_cycles: mean, ..traffic },
            0xF3D0 + k as u64,
        );
        let outcome = match sim.run_trace(&trace) {
            Ok(outcome) => outcome,
            Err(err) => {
                eprintln!("serve bench: replay failed: {err}");
                std::process::exit(1);
            }
        };
        let queue_depth_p99 = match outcome.report.metrics.get("serve.queue_depth") {
            Some(metric) => match &metric.value {
                MetricValue::Histogram(h) => h.percentile_upper_bound(0.99),
                _ => 0,
            },
            None => 0,
        };
        points.push(LoadPoint { mean_interarrival_cycles: mean, outcome, queue_depth_p99 });
    }
    (config, traffic, points)
}

fn cycles_to_ms(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_HZ * 1e3
}

fn render_json(
    smoke: bool,
    config: &ServeConfig,
    traffic: &TrafficConfig,
    points: &[LoadPoint],
    scene_rows: &[(String, u64, u64)],
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"fusion3d-serve-v1\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(&format!("  \"clock_ghz\": {:.1},\n", CLOCK_HZ / 1e9));
    json.push_str(&format!("  \"scenes\": {},\n", scene_rows.len()));
    json.push_str(&format!("  \"budget_bytes\": {BUDGET_BYTES},\n"));
    json.push_str(&format!("  \"executors\": {EXECUTORS},\n"));
    json.push_str(&format!("  \"max_batch\": {MAX_BATCH},\n"));
    json.push_str(&format!("  \"queue_capacity\": {},\n", config.queue_capacity));
    json.push_str(&format!("  \"resolution\": {},\n", config.resolution));
    json.push_str(&format!("  \"requests_per_point\": {},\n", traffic.requests));
    json.push_str(&format!("  \"zipf_exponent\": {:.2},\n", traffic.zipf_exponent));
    json.push_str("  \"load_points\": [\n");
    for (k, point) in points.iter().enumerate() {
        let o = &point.outcome;
        json.push_str(&format!(
            "    {{\"mean_interarrival_cycles\": {:.1}, \"offered_rps\": {:.1}, \
             \"completed\": {}, \"rejected\": {}, \"throughput_rps\": {:.1}, \
             \"p50_latency_cycles\": {}, \"p99_latency_cycles\": {}, \
             \"p50_latency_ms\": {:.4}, \"p99_latency_ms\": {:.4}, \
             \"hit_rate\": {:.4}, \"misses\": {}, \"evictions\": {}, \
             \"bytes_loaded\": {}, \"queue_depth_p99\": {}, \
             \"response_checksum\": \"{:016x}\"}}{}\n",
            point.mean_interarrival_cycles,
            CLOCK_HZ / point.mean_interarrival_cycles,
            o.completed,
            o.rejected,
            o.throughput_rps(CLOCK_HZ),
            o.latency_percentile(0.5),
            o.latency_percentile(0.99),
            cycles_to_ms(o.latency_percentile(0.5)),
            cycles_to_ms(o.latency_percentile(0.99)),
            o.hit_rate(),
            o.misses,
            o.evictions,
            o.bytes_loaded,
            point.queue_depth_p99,
            o.response_checksum,
            if k + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scene_table\": [\n");
    for (k, (name, bytes, completed)) in scene_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"container_bytes\": {bytes}, \
             \"requests_completed\": {completed}}}{}\n",
            if k + 1 == scene_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() {
    let mut smoke = false;
    let mut threads = 1usize;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => {
                    eprintln!("--threads requires a positive integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    set_thread_override(Some(threads));
    let (config, traffic, points) = run_sweep(smoke);
    set_thread_override(None);

    // Aggregate the per-scene completion counts across the sweep and
    // price each scene's container for the table.
    let store = fusion3d_serve::SceneStore::synthetic(8);
    let mut scene_rows: Vec<(String, u64, u64)> = (0..store.len())
        .map(|k| {
            let id = SceneId(k as u32);
            let name = store.name(id).unwrap_or("?").to_string();
            let bytes = store.header(id).map(|h| h.container_bytes()).unwrap_or(0);
            (name, bytes, 0u64)
        })
        .collect();
    for point in &points {
        for (k, &count) in point.outcome.per_scene_completed.iter().enumerate() {
            if let Some(row) = scene_rows.get_mut(k) {
                row.2 += count;
            }
        }
    }

    let json = render_json(smoke, &config, &traffic, &points, &scene_rows);
    if std::fs::write(&out_path, &json).is_err() {
        eprintln!("failed to write {out_path}");
        std::process::exit(1);
    }

    println!(
        "{:>12} {:>12} {:>10} {:>9} {:>14} {:>14} {:>9}",
        "offered_rps", "tput_rps", "completed", "rejected", "p50_ms", "p99_ms", "hit_rate"
    );
    for point in &points {
        let o = &point.outcome;
        println!(
            "{:>12.1} {:>12.1} {:>10} {:>9} {:>14.4} {:>14.4} {:>9.4}",
            CLOCK_HZ / point.mean_interarrival_cycles,
            o.throughput_rps(CLOCK_HZ),
            o.completed,
            o.rejected,
            cycles_to_ms(o.latency_percentile(0.5)),
            cycles_to_ms(o.latency_percentile(0.99)),
            o.hit_rate(),
        );
    }
    println!("wrote {out_path}");
}
