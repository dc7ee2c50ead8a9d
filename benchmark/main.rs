//! `benchmark`: the end-to-end and per-layer host benchmark of the
//! Fusion-3D reproduction. `BENCHMARK.json` at the repository root
//! declares its workloads, metrics, units and regression bounds;
//! `README.md` beside this file says why each workload exists and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! benchmark [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
//!     every workload, each in a fresh child process, one after
//!     another; prints one result line per workload, tagged with its
//!     name (the input format of `compare`)
//! benchmark --workload W [--seed S] [--seconds N] [--trace [0|1]]
//!           [--trace-out PATH] [--smoke]
//!     one workload (in a child process, see `MALLOC_ARENAS`); the
//!     last stdout line is
//!     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//! benchmark compare BASELINE.jsonl CHANGE.jsonl
//! ```
//!
//! Without `--trace` a run reports the end-to-end metrics, measured
//! with tracing off at `min(2, nproc)` kernel threads by one
//! closed-loop caller. With `--trace` it reports the per-layer metrics
//! of a traced replay at one thread instead. `--seed` (default 1)
//! seeds model init, ray batches and traffic; the library code only
//! receives the generated inputs. Every op's output is checked, and a
//! failed check makes the run incorrect and the exit code nonzero.

mod chip_eval;
mod compare;
mod json;
mod layers;
mod lego;
mod measure;
mod render_orbit;
mod roofline;
mod serve_zipf;
mod trace;
mod train_recon;

use fusion3d_par::set_thread_override;
use json::quote;
use measure::{spec, MetricSpec, Metrics};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

/// Inputs every workload reads.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Kernel worker count of the end-to-end measurement.
    pub threads: usize,
    /// Tiny sizes, for the tests.
    pub smoke: bool,
}

/// Op count and output-check failures of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    /// Where a traced replay stopped matching the library call it
    /// rebuilds from public parts.
    divergences: Vec<String>,
}

impl Outcome {
    /// Counts one op, failed when its output check does not hold.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.problems.push(what());
            }
        }
    }

    /// A check on the run as a whole.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// A check that a traced replay computes what the library call it
    /// rebuilds computes. A replay that diverges (the library changed
    /// how it does the work) does not fail the run: its breakdown no
    /// longer describes the library, so the run reports the whole op
    /// time as unattributed.
    pub fn replica(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.divergences.len() < 5 {
            self.divergences.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !spec().workloads.contains(&w) {
                    return Err(format!("unknown workload {w} (have {:?})", spec().workloads));
                }
                opts.workload = Some(w);
            }
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                opts.seconds = Some(seconds);
            }
            "--trace" => {
                opts.trace = it.next_if(|s| *s == "0" || *s == "1").is_none_or(|s| s == "1");
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Kernel worker count of end-to-end runs: two where the host has them.
fn e2e_threads() -> usize {
    // lint: allow(d3): only reads the core count; every parallel op runs on fusion3d-par
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Runs one workload in this process.
fn run_workload(
    name: &str,
    ctx: &Ctx,
    traced: bool,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<Outcome, String> {
    if !traced {
        return match name {
            "render_orbit" => render_orbit::run(ctx, metrics),
            "train_recon" => train_recon::run(ctx, metrics),
            "serve_zipf" => serve_zipf::run(ctx, metrics),
            "chip_eval" => chip_eval::run(ctx, metrics),
            other => Err(format!("no workload named {other}")),
        };
    }
    let host = roofline::measure_host(ctx.smoke);
    metrics.set("host.peak_gflops", host.peak_gflops);
    metrics.set("host.stream_gbps", host.stream_gbps);
    match name {
        "render_orbit" => render_orbit::run_traced(ctx, tracer, &host, metrics),
        "train_recon" => train_recon::run_traced(ctx, tracer, &host, metrics),
        "serve_zipf" => serve_zipf::run_traced(ctx, tracer, metrics),
        "chip_eval" => chip_eval::run_traced(ctx, tracer, metrics),
        other => Err(format!("no workload named {other}")),
    }
}

/// The metrics a run reports: end-to-end ones, or per-layer ones when
/// traced.
fn section(traced: bool) -> &'static [MetricSpec] {
    if traced {
        &spec().per_layer
    } else {
        &spec().end_to_end
    }
}

/// Runs one workload and prints its result line.
fn run_one(name: &str, opts: &Options) -> ExitCode {
    let threads = e2e_threads();
    set_thread_override(Some(threads));
    let seconds = opts.seconds.unwrap_or(if opts.smoke { 0.05 } else { spec().run_seconds });
    let ctx = Ctx { seed: opts.seed, seconds, threads, smoke: opts.smoke };
    let mode = if opts.trace { "traced replay at 1 thread" } else { "end to end" };
    eprintln!("{name}: seed {}, {seconds} s window, {threads} threads, {mode}", opts.seed);
    let mut metrics = Metrics::default();
    let mut tracer = Tracer::new(opts.trace_out.is_some());
    let result =
        run_workload(name, &ctx, opts.trace, &mut tracer, &mut metrics).and_then(|outcome| {
            if !outcome.divergences.is_empty() {
                metrics.set("unattributed_share", 1.0);
            }
            if let Some(path) = &opts.trace_out {
                tracer.write_jsonl(path)?;
            }
            Ok((outcome, metrics.to_json(section(opts.trace), opts.trace)?))
        });
    let (outcome, json) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in section(opts.trace) {
        eprintln!("  {:<36} {:>16.6} {}", m.name, metrics.get(&m.name).unwrap_or(0.0), m.unit);
    }
    for problem in &outcome.problems {
        eprintln!("  check failed: {problem}");
    }
    for divergence in &outcome.divergences {
        eprintln!("  replay diverged, breakdown unattributed: {divergence}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// glibc gives each allocating thread its own malloc arena, which makes
/// the peak RSS of a two-thread run jitter by about 10% from run to
/// run; with one arena it repeats within a few percent. Workloads run
/// in a child process of this binary with this setting.
const MALLOC_ARENAS: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

/// A child process of this binary that runs workloads in-process.
fn workload_process() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.env(MALLOC_ARENAS.0, MALLOC_ARENAS.1).stdin(Stdio::null());
    Ok(cmd)
}

/// Re-runs this command line in a workload process and passes its exit
/// code on; its output goes straight to this process's stdout and
/// stderr.
fn run_in_child(args: &[String]) -> ExitCode {
    match workload_process().and_then(|mut cmd| cmd.args(args).status().map_err(|e| e.to_string()))
    {
        Ok(status) => status
            .code()
            .and_then(|c| u8::try_from(c).ok())
            .map_or(ExitCode::FAILURE, ExitCode::from),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a fresh workload process, one after another,
/// and prints each result line tagged with its name.
fn run_all(opts: &Options) -> ExitCode {
    let mut all_ok = true;
    for name in &spec().workloads {
        let mut cmd = match workload_process() {
            Ok(cmd) => cmd,
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        cmd.args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(seconds) = opts.seconds {
            cmd.args(["--seconds", &seconds.to_string()]);
        }
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &opts.trace_out {
            cmd.arg("--trace-out").arg(path.with_extension(format!("{name}.jsonl")));
        }
        let output = cmd.stderr(Stdio::inherit()).output();
        let line = match &output {
            Ok(o) => String::from_utf8_lossy(&o.stdout).lines().last().map(str::to_string),
            Err(e) => {
                eprintln!("benchmark: cannot run {name}: {e}");
                None
            }
        };
        all_ok &= output.as_ref().is_ok_and(|o| o.status.success());
        match line.as_deref().and_then(|l| l.strip_prefix('{')) {
            Some(rest) => println!("{{\"workload\": {}, {rest}", quote(name)),
            None => {
                eprintln!("benchmark: {name} printed no result");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    match parse(&args) {
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
        Ok(opts) => match &opts.workload {
            Some(_) if std::env::var_os(MALLOC_ARENAS.0).is_none() => run_in_child(&args),
            Some(name) => run_one(name, &opts),
            None => run_all(&opts),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_follows_the_contract() {
        let s = spec();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1.0..=60.0).contains(&s.run_seconds) && s.run_seconds.fract() == 0.0);
        let mut names: Vec<&str> = s.workloads.iter().map(String::as_str).collect();
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            names.push(&m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &s.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.lower_is_better);
        let largest = s.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s gets the largest bound");
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
    }

    /// Every workload runs at smoke size in both modes, passes its
    /// output checks, and emits every metric `BENCHMARK.json` names,
    /// with its unit; end-to-end metrics are never 0.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        for name in &spec().workloads {
            for traced in [false, true] {
                let ctx = Ctx { seed: 3, seconds: 0.02, threads: e2e_threads(), smoke: true };
                let mut metrics = Metrics::default();
                let mut tracer = Tracer::new(true);
                let outcome = run_workload(name, &ctx, traced, &mut tracer, &mut metrics)
                    .unwrap_or_else(|e| panic!("{name} (traced {traced}): {e}"));
                assert!(outcome.correct(), "{name} (traced {traced}): {:?}", outcome.problems);
                assert!(outcome.divergences.is_empty(), "{name}: {:?}", outcome.divergences);
                assert!(outcome.attempted >= 1);
                let text = metrics.to_json(section(traced), traced).expect("complete metrics");
                let doc = Json::parse(&text).expect("valid JSON");
                let emitted = doc.as_object().expect("object");
                assert_eq!(emitted.len(), section(traced).len());
                for m in section(traced) {
                    let entry =
                        emitted.get(&m.name).unwrap_or_else(|| panic!("{} missing", m.name));
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit.as_str()));
                    let value = entry.get("value").and_then(Json::as_f64).expect("numeric value");
                    assert!(traced || value > 0.0, "{name}: {} = {value}", m.name);
                }
                if traced {
                    assert!(tracer.count(trace::Kind::Op) >= 1, "{name} recorded no op spans");
                }
            }
        }
    }

    #[test]
    fn a_diverged_replay_does_not_fail_the_run() {
        let mut out = Outcome::default();
        out.op(true, String::new);
        out.replica(false, || "replay differs".to_string());
        assert!(out.correct());
        assert_eq!(out.divergences.len(), 1);
        out.op(false, || "bad output".to_string());
        assert!(!out.correct());
    }

    #[test]
    fn per_workload_arguments_parse() {
        let args: Vec<String> =
            ["--workload", "chip_eval", "--seed", "7", "--seconds", "10", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let opts = parse(&args).expect("valid");
        assert_eq!(opts.workload.as_deref(), Some("chip_eval"));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, Some(10.0), true));
        let bare = parse(&["--trace".to_string(), "--smoke".to_string()]).expect("valid");
        assert!(bare.trace && bare.smoke);
        assert!(parse(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse(&["--bogus".to_string()]).is_err());
    }
}
