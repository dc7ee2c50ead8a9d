//! Host-clock measurement helpers shared by the workloads: the metric
//! registry (names and units come from `BENCHMARK.json`), percentiles,
//! the measured window, repeated set-up timing, the host-speed scaling of
//! every reported time, and peak RSS.

use crate::json::{quote, Json};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The benchmark definition this binary is built against. Metric
/// names, units and bounds live only there.
const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a smaller value is better.
    pub lower_is_better: bool,
    /// Allowed regression as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The embedded benchmark definition (parsed once).
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| match parse_spec(BENCHMARK_JSON) {
        Ok(spec) => spec,
        // The file is compiled in; a malformed one is a build defect.
        Err(err) => panic!("embedded BENCHMARK.json is malformed: {err}"),
    })
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        doc.get(key)
            .ok_or(format!("missing {key}"))?
            .as_array()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f).and_then(Json::as_str).map(str::to_string).ok_or(format!("{key}.{f}"))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("missing run_seconds")?,
        workloads: doc
            .get("workloads")
            .ok_or("missing workloads")?
            .as_array()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Metric values of one run, keyed by their `BENCHMARK.json` names.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders `{name: {"value": v, "unit": u}, ...}` for every metric
    /// of `section`, in declaration order. Every end-to-end metric must
    /// have been set; a per-layer metric left unset is a layer this
    /// workload does not run and reads 0. A value set under a name the
    /// section does not declare is an error, as is a non-finite value.
    pub fn to_json(&self, section: &[MetricSpec], zero_if_unset: bool) -> Result<String, String> {
        if let Some(unknown) = self.values.keys().find(|k| !section.iter().any(|m| m.name == **k)) {
            return Err(format!("metric {unknown} is not declared in BENCHMARK.json"));
        }
        let mut parts = Vec::with_capacity(section.len());
        for m in section {
            let value = match self.values.get(m.name.as_str()) {
                Some(v) => *v,
                None if zero_if_unset => 0.0,
                None => return Err(format!("metric {} was not measured", m.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", m.name));
            }
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                json_number(value),
                quote(&m.unit)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Formats a finite f64 with every digit Rust's shortest round-trip
/// representation carries, as a valid JSON number.
pub fn json_number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A measured window of `seconds` of wall time.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    pub fn start(seconds: f64) -> Self {
        Window { start: Instant::now(), seconds }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn expired(&self) -> bool {
        self.elapsed_s() >= self.seconds
    }
}

/// Floats per pace array (4 MiB each).
const PACE_FLOATS: usize = 1 << 20;
/// Multiply-add iterations over the pace kernel's 128 lanes.
const PACE_ITERS: usize = 400_000;
/// Pace kernel time the reported times are scaled to, ms: about what it
/// takes on a 2-vCPU Xeon VM at typical load.
const REFERENCE_PACE_MS: f64 = 4.5;
/// Wall time between pace samples in the measured window.
const PACE_EVERY_S: f64 = 0.5;

/// The host's speed while a run measures. On a shared host, other
/// tenants slow every run by an amount that changes over seconds to
/// minutes, and a run's timings with it: on the 2-vCPU VM this
/// benchmark was tuned on, the same frames took 40 to 60 ms from one
/// run to the next. A fixed kernel of the benchmark's own, which no
/// change to the library moves, is timed between ops: independent
/// multiply-add chains, then a STREAM-style triad over three 4 MiB
/// arrays, for the compute and the memory side. Every reported time is
/// scaled by `REFERENCE_PACE_MS` over the kernel time around it,
/// giving times at the host's reference speed. In ten-seed sweeps on
/// that VM, the quartile spread of `op_ms_p50` was 6 to 30% unscaled
/// and 2 to 6% scaled.
#[derive(Debug)]
struct Pace {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    iters: usize,
}

impl Pace {
    fn new(smoke: bool) -> Self {
        let (n, iters) = if smoke { (1 << 10, 400) } else { (PACE_FLOATS, PACE_ITERS) };
        Pace { a: vec![0.0; n], b: vec![1.0; n], c: vec![2.0; n], iters }
    }

    /// Bytes the arrays keep resident.
    fn bytes(&self) -> usize {
        12 * self.a.len()
    }

    fn triad(&mut self) {
        let s = std::hint::black_box(0.5f32);
        for ((a, &b), &c) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
            *a = b + s * c;
        }
        std::hint::black_box(&self.a);
    }

    /// One untimed triad pass to settle the caches, then the time of
    /// the multiply-adds and three triad passes, ms.
    fn sample(&mut self) -> f64 {
        self.triad();
        let t = Instant::now();
        let (m, c) = (std::hint::black_box(0.999_999_9f32), std::hint::black_box(1.0e-7f32));
        let mut acc = std::hint::black_box([1.0f32; 128]);
        for _ in 0..self.iters {
            for a in acc.iter_mut() {
                *a = *a * m + c;
            }
        }
        std::hint::black_box(&acc);
        for _ in 0..3 {
            self.triad();
        }
        ms_since(t)
    }
}

/// The end-to-end numbers every workload reports: set-up time and
/// per-op latency, scaled to the reference host speed, delivered
/// results, and peak RSS.
#[derive(Debug)]
pub struct EndToEnd {
    pace: Pace,
    last_pace: Instant,
    /// Set-up repetition times, s, raw and scaled by the pace kernel
    /// times before and after each.
    setup_s: Vec<f64>,
    setup_scaled_s: Vec<f64>,
    /// Pace kernel times sampled in the window, ms.
    pace_ms: Vec<f64>,
    /// Per-op latency over the measured window, ms, and the index of
    /// the last pace sample before each op.
    op_ms: Vec<f64>,
    op_pace: Vec<usize>,
    /// Each delivery of the workload's target result in the window (an
    /// orbit, a reconstruction to the target PSNR, a pass over the
    /// trace or the scenes): its first op and the (fractional) op
    /// position where it was complete.
    targets: Vec<(usize, f64)>,
}

impl EndToEnd {
    pub fn new(smoke: bool) -> Self {
        EndToEnd {
            pace: Pace::new(smoke),
            last_pace: Instant::now(),
            setup_s: Vec::new(),
            setup_scaled_s: Vec::new(),
            pace_ms: Vec::new(),
            op_ms: Vec::new(),
            op_pace: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Runs `build` at least three times and until about a second of
    /// set-up has been timed (at most 51 times), returning the last
    /// result; `setup_s` is the median. Repeating makes `setup_s`
    /// steady enough to gate work moved into set-up.
    pub fn setup<T>(
        &mut self,
        smoke: bool,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let (min_reps, budget_s) = if smoke { (1, 0.0) } else { (3, 1.0) };
        let mut last = None;
        let mut before = self.pace.sample();
        while self.setup_s.len() < min_reps
            || (self.setup_s.iter().sum::<f64>() < budget_s && self.setup_s.len() < 51)
        {
            // Drop the previous result first so repetitions do not
            // stack up in the peak RSS.
            drop(last.take());
            let t = Instant::now();
            let built = build()?;
            let seconds = t.elapsed().as_secs_f64();
            let after = self.pace.sample();
            self.setup_s.push(seconds);
            self.setup_scaled_s.push(seconds * 2.0 * REFERENCE_PACE_MS / (before + after));
            before = after;
            last = Some(built);
        }
        self.pace_ms.push(before);
        self.last_pace = Instant::now();
        last.ok_or_else(|| "set-up never ran".to_string())
    }

    /// Times one op of the window.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.op_ms.push(ms_since(t));
        self.op_pace.push(self.pace_ms.len().saturating_sub(1));
        if self.last_pace.elapsed().as_secs_f64() >= PACE_EVERY_S {
            self.pace_ms.push(self.pace.sample());
            self.last_pace = Instant::now();
        }
        out
    }

    /// Ops timed so far.
    pub fn ops(&self) -> usize {
        self.op_ms.len()
    }

    /// Unscaled op time of the window so far, s.
    pub fn op_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() * 1e-3
    }

    /// Records one delivery of the target result by the ops from
    /// `first` up to the (fractional) op position `end`.
    pub fn target(&mut self, first: usize, end: f64) {
        self.targets.push((first, end));
    }

    /// Op times scaled by the mean of the pace samples before and
    /// after each op, so drift of the host's speed within the window
    /// is taken out too, ms.
    fn scaled_op_ms(&self) -> Vec<f64> {
        let pace = |k: usize| {
            let before = self.pace_ms.get(k).copied().unwrap_or(REFERENCE_PACE_MS);
            (before + self.pace_ms.get(k + 1).copied().unwrap_or(before)) / 2.0
        };
        self.op_ms
            .iter()
            .zip(&self.op_pace)
            .map(|(ms, &k)| ms * REFERENCE_PACE_MS / pace(k))
            .collect()
    }

    pub fn record(&self, metrics: &mut Metrics) -> Result<(), String> {
        let op_ms = self.scaled_op_ms();
        let n = op_ms.len();
        // `cum[i]`: scaled op time of the first `i` ops, ms.
        let cum: Vec<f64> = std::iter::once(0.0)
            .chain(op_ms.iter().scan(0.0, |sum, ms| {
                *sum += ms;
                Some(*sum)
            }))
            .collect();
        let at = |x: f64| {
            let i = (x.max(0.0).floor() as usize).min(n);
            cum[i] + (x - i as f64) * op_ms.get(i).copied().unwrap_or(0.0)
        };
        let target_s: Vec<f64> =
            self.targets.iter().map(|&(first, end)| (at(end) - at(first as f64)) * 1e-3).collect();
        let op_s = cum[n] * 1e-3;
        metrics.set("setup_s", median(&self.setup_scaled_s));
        metrics.set("op_ms_p50", percentile(&op_ms, 0.5));
        metrics.set("op_ms_p90", percentile(&op_ms, 0.9));
        metrics.set("ops_per_s", n as f64 / op_s);
        // No target reached fails the run's checks; report all op time.
        let to_target = if target_s.is_empty() { op_s } else { median(&target_s) };
        metrics.set("time_to_target_s", to_target);
        let pace_mb = self.pace.bytes() as f64 / (1 << 20) as f64;
        metrics.set("peak_rss_mb", peak_rss_mb()? - pace_mb);
        eprintln!(
            "  {n} ops over {:.2} s of op time, {} beyond p90; {} targets reached",
            self.op_s(),
            n - (0.9 * n as f64).ceil() as usize,
            target_s.len(),
        );
        eprintln!(
            "  unscaled: set-up {:.4} s, op p50 {:.4} ms; pace kernel {:.2} ms median over {} \
             samples, times scaled to {REFERENCE_PACE_MS} ms",
            median(&self.setup_s),
            percentile(&self.op_ms, 0.5),
            median(&self.pace_ms),
            self.pace_ms.len()
        );
        Ok(())
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
    }

    #[test]
    fn metrics_json_enforces_the_declared_set() {
        let section = vec![
            MetricSpec { name: "a".into(), unit: "ms".into(), lower_is_better: true, bound: None },
            MetricSpec { name: "b".into(), unit: "s".into(), lower_is_better: true, bound: None },
        ];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.to_json(&section, false).is_err(), "b missing");
        let text = m.to_json(&section, true).expect("b defaults to 0");
        assert_eq!(
            text,
            r#"{"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 0.0, "unit": "s"}}"#
        );
        m.set("c", 1.0);
        assert!(m.to_json(&section, true).is_err(), "c is undeclared");
    }

    #[test]
    fn op_times_are_scaled_by_the_pace_around_them() {
        let mut e2e = EndToEnd::new(true);
        e2e.setup_s = vec![1.0];
        e2e.setup_scaled_s = vec![0.5];
        // Op 0 ran between kernel times of 4.5 and 9 ms, op 1 after the
        // last sample (9 ms).
        e2e.pace_ms = vec![4.5, 9.0];
        e2e.op_ms = vec![10.0, 10.0];
        e2e.op_pace = vec![0, 1];
        e2e.target(0, 1.5);
        let mut m = Metrics::default();
        e2e.record(&mut m).expect("recorded");
        let (op0, op1) = (10.0 * 4.5 / 6.75, 5.0);
        let expect = [
            ("setup_s", 0.5),
            ("op_ms_p50", op1),
            ("op_ms_p90", op0),
            ("ops_per_s", 2.0 / ((op0 + op1) * 1e-3)),
            ("time_to_target_s", (op0 + 0.5 * op1) * 1e-3),
        ];
        for (name, value) in expect {
            let got = m.get(name).expect(name);
            assert!((got - value).abs() < 1e-9 * value, "{name}: {got} vs {value}");
        }
    }
}
