//! Recording simulator results into [`fusion3d_obs`] reports.
//!
//! This module is the single place where the core simulator talks to
//! the observability layer: result structs gain `record` methods, and
//! [`observe_frame`] runs the full cycle-stepped pipeline for one frame
//! while building the span tree and metric registry that
//! `bench/src/bin/breakdown.rs` renders into paper-style tables.
//!
//! Everything recorded here derives from simulated quantities only —
//! cycles, bytes, sample counts — so reports are bitwise-deterministic
//! (see the `fusion3d_obs` crate docs for the contract).

use crate::chip::{FusionChip, SimReport};
use crate::config::Module;
use crate::noc::{check_noc, NocConfig, NocReport};
use crate::pipeline_sim::{step_pipeline, BufferConfig, CycleAttribution, PipelineSimReport};
use crate::sampling::{simulate_sampling, SamplingSimResult};
use fusion3d_nerf::pipeline::FrameTrace;
use fusion3d_obs::{Report, SpanId};

/// Encoded features per hash-grid level crossing the Stage II → III
/// boundary (matches `HashGridConfig::paper().features_per_level`).
pub const FEATURES_PER_LEVEL: u64 = 2;

impl SamplingSimResult {
    /// Record the Stage-I scheduling outcome: throughput counters plus
    /// the core-utilization gauge (paper Fig. 6 territory).
    pub fn record(&self, cores: usize, report: &mut Report) {
        let m = &mut report.metrics;
        m.counter_add("sampling.cycles", "cycles", self.cycles);
        m.counter_add("sampling.busy_core_cycles", "cycles", self.busy_core_cycles);
        m.counter_add("sampling.preproc_cycles", "cycles", self.preproc_cycles);
        m.counter_add("sampling.rays", "rays", self.rays);
        m.counter_add("sampling.pairs", "pairs", self.pairs);
        m.counter_add("sampling.steps", "steps", self.steps);
        m.gauge_set("sampling.core_utilization", "ratio", self.core_utilization(cores));
        m.gauge_set("sampling.steps_per_cycle", "steps/cycle", self.steps_per_cycle());
    }
}

impl NocReport {
    /// Record per-link NoC traffic and utilization (Sec. III-A item 5:
    /// the links must never become the bottleneck).
    pub fn record(&self, report: &mut Report) {
        let m = &mut report.metrics;
        m.counter_add("noc.s1_s2.bytes", "bytes", self.traffic.s1_to_s2);
        m.counter_add("noc.s2_s3.bytes", "bytes", self.traffic.s2_to_s3);
        m.counter_add("noc.s3_io.bytes", "bytes", self.traffic.s3_to_io);
        m.gauge_set("noc.s1_s2.utilization", "ratio", self.s1_s2_utilization);
        m.gauge_set("noc.s2_s3.utilization", "ratio", self.s2_s3_utilization);
        m.gauge_set("noc.s3_io.utilization", "ratio", self.s3_io_utilization);
        m.gauge_set("noc.peak_utilization", "ratio", self.peak_utilization());
    }
}

/// Record the Stage-I workload shape of a frame trace: ray–AABB hit
/// rate and the per-ray retained-sample distribution (paper Fig. 9 /
/// Tab. VI explain per-scene spreads with exactly these quantities).
pub fn record_frame_trace(trace: &FrameTrace, report: &mut Report) {
    let m = &mut report.metrics;
    m.counter_add("frame.rays", "rays", trace.ray_count() as u64);
    m.counter_add("frame.samples", "samples", trace.total_samples);
    m.counter_add("frame.steps", "steps", trace.total_steps);
    m.gauge_set("frame.hit_rate", "ratio", trace.hit_rate());
    m.gauge_set("frame.samples_per_ray", "samples", trace.mean_samples_per_ray());
    for ray in trace.rays() {
        m.observe("ray.samples", "samples", ray.total_samples());
    }
}

/// Everything [`observe_frame`] computes for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameObservation {
    /// The analytic steady-state report ([`FusionChip::simulate_frame`]
    /// or its training-step sibling).
    pub analytic: SimReport,
    /// The cycle-stepped pipeline result with finite FIFOs.
    pub stepped: PipelineSimReport,
    /// Exact per-stage attribution of the stepped cycles.
    pub attribution: CycleAttribution,
    /// The root span recorded for this frame (its children are the
    /// three attributed stage spans).
    pub root: SpanId,
}

/// Simulate one frame (or training step) end to end and record spans
/// and metrics into `report`.
///
/// The span tree lays the three attribution classes out end-to-end
/// under a root `frame` span, so span extents are *attribution totals*,
/// not a chronology; by construction the children sum exactly to the
/// root's cycle count. Energy is attributed per module from the chip's
/// power breakdown (fractions sum to 1), so module energies sum to the
/// frame total the same way.
///
/// # Panics
///
/// Panics if either FIFO capacity in `buffers` is zero (propagated from
/// [`crate::pipeline_sim::simulate_pipeline_attributed`]).
pub fn observe_frame(
    chip: &FusionChip,
    trace: &FrameTrace,
    buffers: &BufferConfig,
    training: bool,
    report: &mut Report,
) -> FrameObservation {
    // Stage I runs once: the analytic report, the stepped pipeline and
    // the `sampling.*` metrics all read this one result.
    let sampling = simulate_sampling(chip.sampling_config(), trace);
    let analytic = chip.stage_report(trace, sampling.cycles, training);
    let (stepped, attribution) = step_pipeline(trace, buffers, &analytic.stages);

    // Span tree: attributed stage cycles laid out under the frame root.
    let root_name = if training { "train_step" } else { "frame" };
    let root = report.trace.begin(root_name, 0);
    let s_end = attribution.sampling;
    let i_end = s_end + attribution.interp;
    let p_end = i_end + attribution.postproc;
    let s_span = report.trace.record("sampling", 0, s_end);
    let i_span = report.trace.record("interp", s_end, i_end);
    let p_span = report.trace.record("postproc", i_end, p_end);
    report.trace.end(root, p_end);

    // Energy: total for the stepped makespan, split by the module power
    // breakdown. The three compute modules' shares annotate the stage
    // spans; all six land in the metric registry.
    let total_energy = chip.energy_model().energy_for_cycles_j(stepped.cycles);
    report.trace.set_energy(root, total_energy);
    let m = &mut report.metrics;
    m.gauge_set("energy.total_j", "J", total_energy);
    for (module, fraction) in chip.config().power_breakdown() {
        let joules = total_energy * fraction;
        let mut name = String::from("energy.");
        name.push_str(module.slug());
        name.push_str("_j");
        m.gauge_set(&name, "J", joules);
        let span = match module {
            Module::Sampling => Some(s_span),
            Module::Interpolation => Some(i_span),
            Module::PostProcessing => Some(p_span),
            _ => None,
        };
        if let Some(span) = span {
            report.trace.set_energy(span, joules);
        }
    }

    // Stepped-pipeline health counters.
    let m = &mut report.metrics;
    m.counter_add("pipeline.cycles", "cycles", stepped.cycles);
    m.counter_add("pipeline.points", "points", stepped.points);
    m.counter_add("pipeline.s1_stall", "cycles", stepped.s1_stall);
    m.counter_add("pipeline.s2_starve", "cycles", stepped.s2_starve);
    m.counter_add("pipeline.s2_stall", "cycles", stepped.s2_stall);
    m.counter_add("pipeline.s3_starve", "cycles", stepped.s3_starve);
    m.gauge_set("pipeline.overhead_fraction", "ratio", stepped.overhead_fraction());

    // Analytic per-stage (overlapped) cycles for cross-checking the
    // attribution against the steady-state model.
    m.counter_add("stage.sampling.cycles", "cycles", analytic.stages.sampling);
    m.counter_add("stage.interp.cycles", "cycles", analytic.stages.interpolation);
    m.counter_add("stage.postproc.cycles", "cycles", analytic.stages.post_processing);

    record_frame_trace(trace, report);
    sampling.record(chip.sampling_config().cores, report);
    let feature_dim = chip.config().model_levels as u64 * FEATURES_PER_LEVEL;
    check_noc(&NocConfig::fusion3d(), trace, feature_dim, &analytic.stages).record(report);

    FrameObservation { analytic, stepped, attribution, root }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline_sim::simulate_pipeline_attributed;
    use crate::test_scenes::synthetic_scene_traces;
    use fusion3d_nerf::sampler::PairJob;

    fn trace(rays: usize, samples: u16) -> FrameTrace {
        let job = PairJob { samples, steps: samples + 4, lattice_steps: samples * 4 };
        let mut trace = FrameTrace::default();
        for _ in 0..rays {
            trace.push_ray(1, &[job]);
        }
        trace
    }

    #[test]
    fn one_stage_one_simulation_matches_the_separate_simulations() {
        let chip = FusionChip::scaled_up();
        let buffers = BufferConfig::fusion3d();
        for (scene, trace) in synthetic_scene_traces(128).iter().enumerate() {
            for training in [false, true] {
                let obs = observe_frame(&chip, trace, &buffers, training, &mut Report::new("t"));
                let analytic = if training {
                    chip.simulate_training_step(trace)
                } else {
                    chip.simulate_frame(trace)
                };
                assert_eq!(obs.analytic, analytic, "scene {scene}, training {training}");
                assert_eq!(
                    (obs.stepped, obs.attribution),
                    simulate_pipeline_attributed(&chip, trace, &buffers, training),
                    "scene {scene}, training {training}"
                );
            }
        }
    }

    #[test]
    fn observed_frame_spans_sum_to_root() {
        let chip = FusionChip::scaled_up();
        let t = trace(512, 13);
        let mut report = Report::new("test");
        let obs = observe_frame(&chip, &t, &BufferConfig::fusion3d(), false, &mut report);
        assert_eq!(obs.attribution.total(), obs.stepped.cycles);
        assert_eq!(report.trace.child_cycles(obs.root), obs.stepped.cycles);
        assert_eq!(report.trace.get(obs.root).map(|s| s.cycles()), Some(obs.stepped.cycles));
    }

    #[test]
    fn observed_frame_records_catalog_metrics() {
        let chip = FusionChip::scaled_up();
        let t = trace(256, 9);
        let mut report = Report::new("test");
        observe_frame(&chip, &t, &BufferConfig::fusion3d(), true, &mut report);
        for name in [
            "frame.hit_rate",
            "ray.samples",
            "sampling.core_utilization",
            "noc.s2_s3.bytes",
            "energy.total_j",
            "pipeline.cycles",
        ] {
            assert!(report.metrics.get(name).is_some(), "missing metric {name}");
        }
    }

    #[test]
    fn module_energy_sums_to_total() {
        let chip = FusionChip::scaled_up();
        let t = trace(128, 7);
        let mut report = Report::new("test");
        observe_frame(&chip, &t, &BufferConfig::fusion3d(), false, &mut report);
        let gauge = |name: &str| match report.metrics.get(name).map(|m| &m.value) {
            Some(fusion3d_obs::MetricValue::Gauge(g)) => *g,
            other => panic!("expected gauge {name}, got {other:?}"),
        };
        let total = gauge("energy.total_j");
        let sum: f64 = Module::ALL.iter().map(|m| gauge(&format!("energy.{}_j", m.slug()))).sum();
        assert!((sum - total).abs() <= total * 1e-12, "sum {sum} vs total {total}");
    }
}
