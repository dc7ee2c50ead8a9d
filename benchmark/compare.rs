//! `benchmark compare A.jsonl B.jsonl`: judges B against baseline A per
//! workload and end-to-end metric, with the bounds of `BENCHMARK.json`.
//!
//! Each file holds result lines as the all-workload run prints them
//! (one JSON object per line with a `workload` key), from several runs.
//! A workload **regressed** when any B run is incorrect or B fails a
//! larger share of its ops than A. Per end-to-end metric and workload:
//!
//! * **unresolved** when either side's spread (quartile distance over
//!   median) exceeds the bound, unless every B run beats every A run;
//! * **regressed** when B's median is worse than A's by more than the
//!   bound;
//! * **improved** when B's median is better by more than A's spread and
//!   B wins at least nine of ten index-paired runs, **unresolved** when
//!   it is better by that much without those wins;
//! * **unchanged** otherwise.

use crate::json::Json;
use crate::measure::{median, spec, MetricSpec};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Samples per `(workload, metric)`.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Op counts of one side's runs of one workload.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Ops {
    attempted: u64,
    failed: u64,
    /// Runs whose result line says `"correct": false`.
    incorrect: u64,
}

/// The result lines of one side.
#[derive(Debug, Default)]
struct Side {
    runs: Runs,
    ops: BTreeMap<String, Ops>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |what: &str| format!("{path}:{}: {what}", i + 1);
        let doc = Json::parse(line).map_err(|e| at(&e))?;
        let workload = doc.get("workload").and_then(Json::as_str).ok_or(at("no workload key"))?;
        let count = |key: &str| doc.get(key).and_then(Json::as_f64).ok_or(at(&format!("no {key}")));
        let ops = side.ops.entry(workload.to_string()).or_default();
        ops.attempted += count("attempted")? as u64;
        ops.failed += count("failed")? as u64;
        match doc.get("correct") {
            Some(Json::Bool(correct)) => ops.incorrect += u64::from(!correct),
            _ => return Err(at("no correct key")),
        }
        for (name, m) in doc.get("metrics").and_then(Json::as_object).into_iter().flatten() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                side.runs.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(side)
}

/// A change regresses a workload when any of its runs is incorrect or
/// a larger share of its ops fails than at the baseline; a timing gain
/// does not count then.
fn ops_regressed(a: Ops, b: Ops) -> bool {
    let share = |o: Ops| o.failed as f64 / o.attempted.max(1) as f64;
    b.incorrect > 0 || share(b) > share(a)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the exclusive method). Needs two or more samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Quartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> &'static str {
    let bound = m.bound.unwrap_or(0.0);
    // Positive `worse` means B is worse than A.
    let sign = if m.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (median(b) - median(a)) / median(a).abs();
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    if spread(a).max(spread(b)) > bound {
        let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
        return if all_better { "improved" } else { "unresolved" };
    }
    if worse > bound {
        return "regressed";
    }
    if -worse <= spread(a) {
        return "unchanged";
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| beats(y, x)).count();
    if wins * 10 >= pairs * 9 {
        "improved"
    } else {
        "unresolved"
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare BASELINE.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    println!(
        "{:<13} {:<17} {:>5} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "A median", "A iqr", "B median", "B iqr", "change", "bound"
    );
    for workload in &spec().workloads {
        let (Some(&oa), Some(&ob)) = (a.ops.get(workload), b.ops.get(workload)) else { continue };
        let failed = ops_regressed(oa, ob);
        regressed |= failed;
        println!(
            "{:<13} {:<17} failed ops A {}/{}, B {}/{}; incorrect runs A {}, B {}  {}",
            workload,
            "ops",
            oa.failed,
            oa.attempted,
            ob.failed,
            ob.attempted,
            oa.incorrect,
            ob.incorrect,
            if failed { "regressed" } else { "unchanged" }
        );
        for m in &spec().end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.runs.get(&key), b.runs.get(&key)) else { continue };
            let v = verdict(m, xa, xb);
            regressed |= v == "regressed";
            println!(
                "{:<13} {:<17} {:>2}/{:<2} {:>12.5} {:>6.1}% {:>12.5} {:>6.1}% {:>+7.1}% {:>5.1}%  {v}",
                workload,
                m.name,
                xa.len(),
                xb.len(),
                median(xa),
                100.0 * spread(xa),
                median(xb),
                100.0 * spread(xb),
                100.0 * (median(xb) - median(xa)) / median(xa).abs(),
                100.0 * m.bound.unwrap_or(0.0),
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn verdicts_follow_the_bound_and_spread_rules() {
        let lower = MetricSpec {
            name: "t".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(0.1),
        };
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&lower, &a, &a), "unchanged");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&lower, &a, &slower), "regressed");
        let faster: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&lower, &a, &faster), "improved");
        let noisy = [50.0, 100.0, 150.0, 80.0, 120.0];
        assert_eq!(verdict(&lower, &a, &noisy), "unresolved");
        let mostly_faster = [90.0, 90.5, 89.0, 101.5, 89.5];
        assert_eq!(verdict(&lower, &a, &mostly_faster), "unresolved");
    }

    #[test]
    fn failed_ops_and_incorrect_runs_regress_a_workload() {
        let clean = Ops { attempted: 1000, failed: 0, incorrect: 0 };
        assert!(!ops_regressed(clean, clean));
        assert!(ops_regressed(clean, Ops { failed: 1, ..clean }));
        assert!(ops_regressed(clean, Ops { incorrect: 1, ..clean }));
        let some_failed = Ops { attempted: 100, failed: 2, incorrect: 1 };
        assert!(!ops_regressed(some_failed, Ops { attempted: 200, failed: 4, incorrect: 0 }));
        assert!(ops_regressed(some_failed, Ops { attempted: 100, failed: 3, incorrect: 0 }));
    }
}
