//! Cycle-stepped simulation of the three-stage pipeline with finite
//! inter-stage buffering and backpressure.
//!
//! [`crate::chip::FusionChip::simulate_frame`] reports the steady-state
//! makespan (the slowest stage); this module refines it by stepping the
//! pipeline cycle by cycle through the memory clusters' ping-pong
//! FIFOs: Stage I pushes samples into the sample FIFO, Stage II drains
//! it and pushes encoded points into the feature FIFO, Stage III
//! drains that. A full FIFO back-pressures its producer (stall); an
//! empty FIFO starves its consumer. Undersized buffers surface
//! immediately as stall/starve cycles — the sizing question the
//! chip's Memory Clusters answer with their software-configurable
//! ping-pong arrays.

use crate::chip::{FusionChip, StageCycles};
use crate::sampling::simulate_sampling;
use fusion3d_nerf::pipeline::FrameTrace;

/// Inter-stage buffer capacities, in sample points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// Capacity of the Stage I → Stage II sample FIFO.
    pub sample_fifo: u64,
    /// Capacity of the Stage II → Stage III feature FIFO.
    pub feature_fifo: u64,
}

impl BufferConfig {
    /// The chip's memory-cluster sizing: one ping-pong array pair per
    /// boundary, each holding ~4k in-flight points.
    pub fn fusion3d() -> Self {
        BufferConfig { sample_fifo: 4096, feature_fifo: 4096 }
    }
}

/// Result of the cycle-stepped pipeline simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSimReport {
    /// Total cycles until the last point drains from Stage III.
    pub cycles: u64,
    /// Cycles Stage I spent blocked on a full sample FIFO.
    pub s1_stall: u64,
    /// Cycles Stage II spent starved (empty input) or blocked (full
    /// output).
    pub s2_starve: u64,
    /// Stage II blocked-on-output cycles.
    pub s2_stall: u64,
    /// Cycles Stage III spent starved.
    pub s3_starve: u64,
    /// Points drained through the whole pipeline.
    pub points: u64,
}

impl PipelineSimReport {
    /// Fraction of total cycles lost to any stall or starvation.
    pub fn overhead_fraction(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let lost = self.s1_stall + self.s2_starve + self.s2_stall + self.s3_starve;
        lost as f64 / (self.cycles as f64 * 3.0)
    }
}

/// Exact attribution of every stepped pipeline cycle to the stage that
/// governed it.
///
/// Each simulated cycle is classified to exactly one stage by what set
/// the drain tempo that cycle: cycles where Stage III drained points (or
/// was limited by its own fractional rate) are `postproc`; cycles where
/// Stage III sat starved are charged to the upstream cause — `sampling`
/// when the sample FIFO was also empty, `interp` otherwise. Because the
/// classification is total and exclusive, [`CycleAttribution::total`]
/// equals [`PipelineSimReport::cycles`] exactly — the invariant the
/// breakdown report's sum test asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles governed by Stage I (ray marching / sampling).
    pub sampling: u64,
    /// Cycles governed by Stage II (hash-grid feature interpolation).
    pub interp: u64,
    /// Cycles governed by Stage III (MLP + volume rendering).
    pub postproc: u64,
}

impl CycleAttribution {
    /// Sum of the attributed cycles; equals the stepped simulation's
    /// total cycle count by construction.
    pub fn total(&self) -> u64 {
        self.sampling + self.interp + self.postproc
    }
}

/// Steps the pipeline cycle by cycle for one frame.
///
/// Stage rates come from the chip's module models: Stage I's sustained
/// sample production rate is derived from its scheduling simulation,
/// Stage II and III from their points-per-cycle. Fractional rates are
/// handled with accumulators, so a stage producing 0.5 points/cycle
/// emits one point every other cycle.
///
/// # Panics
///
/// Panics if either FIFO capacity is zero.
pub fn simulate_pipeline(
    chip: &FusionChip,
    trace: &FrameTrace,
    buffers: &BufferConfig,
    training: bool,
) -> PipelineSimReport {
    simulate_pipeline_attributed(chip, trace, buffers, training).0
}

/// [`simulate_pipeline`] plus exact per-stage cycle attribution.
///
/// # Panics
///
/// Panics if either FIFO capacity is zero.
pub fn simulate_pipeline_attributed(
    chip: &FusionChip,
    trace: &FrameTrace,
    buffers: &BufferConfig,
    training: bool,
) -> (PipelineSimReport, CycleAttribution) {
    let sampling_cycles = simulate_sampling(chip.sampling_config(), trace).cycles;
    step_pipeline(trace, buffers, &chip.stage_report(trace, sampling_cycles, training).stages)
}

/// [`simulate_pipeline_attributed`] for a frame whose per-stage cycles
/// the chip's analytic report already holds
/// ([`FusionChip::stage_report`]), so a caller that simulated Stage I
/// does not simulate it again and every stage runs at the chip's own
/// rate.
pub(crate) fn step_pipeline(
    trace: &FrameTrace,
    buffers: &BufferConfig,
    stages: &StageCycles,
) -> (PipelineSimReport, CycleAttribution) {
    assert!(
        buffers.sample_fifo > 0 && buffers.feature_fifo > 0,
        "FIFO capacities must be positive"
    );
    let total = trace.total_samples;
    if total == 0 {
        let empty = PipelineSimReport {
            cycles: 0,
            s1_stall: 0,
            s2_starve: 0,
            s2_stall: 0,
            s3_starve: 0,
            points: 0,
        };
        return (empty, CycleAttribution::default());
    }

    // Sustained per-stage rates in points per cycle.
    let StageCycles {
        sampling: sampling_cycles,
        interpolation: s2_cycles,
        post_processing: s3_cycles,
    } = *stages;
    let r1 = total as f64 / sampling_cycles.max(1) as f64;
    let r2 = total as f64 / s2_cycles.max(1) as f64;
    let r3 = total as f64 / s3_cycles.max(1) as f64;

    let mut report = PipelineSimReport {
        cycles: 0,
        s1_stall: 0,
        s2_starve: 0,
        s2_stall: 0,
        s3_starve: 0,
        points: 0,
    };
    let mut attr = CycleAttribution::default();
    let (mut produced1, mut produced2, mut drained) = (0u64, 0u64, 0u64);
    let (mut fifo1, mut fifo2) = (0u64, 0u64);
    let (mut acc1, mut acc2, mut acc3) = (0.0f64, 0.0f64, 0.0f64);
    // Hard upper bound so a modelling bug cannot spin forever; the
    // saturating multiply keeps the guard meaningful even for
    // adversarial stage-cycle sums (lint rule A2).
    let limit = (sampling_cycles + s2_cycles + s3_cycles + 1000).saturating_mul(4);

    while drained < total {
        report.cycles += 1;
        if report.cycles > limit {
            // lint: allow(p1): modelling-bug guard — the bound is generous by construction
            panic!("pipeline simulation failed to drain within {limit} cycles");
        }
        // Stage I.
        if produced1 < total {
            acc1 += r1;
            // lint: allow(a2): flooring the rate accumulator is the design; it stays in
            // [0, 3 · max(r1, 1)] with r1 ≤ total points, which no trace brings near 2^64
            let want = acc1 as u64;
            if want > 0 {
                let space = buffers.sample_fifo - fifo1;
                let emit = want.min(space).min(total - produced1);
                if emit < want && space < want {
                    report.s1_stall += 1;
                }
                produced1 += emit;
                fifo1 += emit;
                acc1 -= emit as f64;
                // Cap the accumulator so stalls don't bank up work.
                acc1 = acc1.min(r1.max(1.0) * 2.0);
            }
        }
        // Stage II.
        if produced2 < total {
            acc2 += r2;
            // lint: allow(a2): flooring the rate accumulator is the design; it stays in
            // [0, 3 · max(r2, 1)] with r2 ≤ total points, which no trace brings near 2^64
            let want = acc2 as u64;
            if want > 0 {
                if fifo1 == 0 {
                    report.s2_starve += 1;
                    acc2 = acc2.min(r2.max(1.0) * 2.0);
                } else {
                    let space = buffers.feature_fifo - fifo2;
                    if space == 0 {
                        report.s2_stall += 1;
                        acc2 = acc2.min(r2.max(1.0) * 2.0);
                    } else {
                        let take = want.min(fifo1).min(space);
                        fifo1 -= take;
                        fifo2 += take;
                        produced2 += take;
                        acc2 -= take as f64;
                    }
                }
            }
        }
        // Stage III — and the cycle's attribution. A cycle where Stage
        // III advances (or is paced by its own fractional rate) is a
        // post-processing cycle; a starved cycle is charged to the
        // upstream stage that caused the bubble.
        acc3 += r3;
        // lint: allow(a2): flooring the rate accumulator is the design; it stays in
        // [0, 3 · max(r3, 1)] with r3 ≤ total points, which no trace brings near 2^64
        let want = acc3 as u64;
        if want > 0 {
            if fifo2 == 0 {
                report.s3_starve += 1;
                acc3 = acc3.min(r3.max(1.0) * 2.0);
                // An empty sample FIFO implicates Stage I only while it
                // still has samples left to produce; during the tail
                // drain the bubble is Stage II's.
                if fifo1 == 0 && produced1 < total {
                    attr.sampling += 1;
                } else {
                    attr.interp += 1;
                }
            } else {
                let take = want.min(fifo2);
                fifo2 -= take;
                drained += take;
                acc3 -= take as f64;
                attr.postproc += 1;
            }
        } else {
            attr.postproc += 1;
        }
    }
    report.points = drained;
    (report, attr)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn drains_every_point() {
        let chip = FusionChip::scaled_up();
        let t = trace(512, 13);
        let r = simulate_pipeline(&chip, &t, &BufferConfig::fusion3d(), false);
        assert_eq!(r.points, t.total_samples);
        assert!(r.cycles > 0);
    }

    #[test]
    fn pipeline_time_bounds_the_analytic_makespan() {
        // The cycle-stepped result is at least the slowest stage and
        // within a modest factor of it (fill/drain overhead only) when
        // buffers are adequately sized.
        let chip = FusionChip::scaled_up();
        let t = trace(2048, 13);
        let analytic = chip.simulate_frame(&t).cycles;
        let stepped = simulate_pipeline(&chip, &t, &BufferConfig::fusion3d(), false).cycles;
        assert!(stepped >= analytic, "stepped {stepped} < analytic {analytic}");
        assert!(
            (stepped as f64) < analytic as f64 * 1.25,
            "excess pipeline overhead: {stepped} vs {analytic}"
        );
    }

    #[test]
    fn attribution_sums_to_total_cycles() {
        let chip = FusionChip::scaled_up();
        for (rays, samples, training) in [(512, 13, false), (2048, 13, true), (64, 3, false)] {
            let t = trace(rays, samples);
            let (report, attr) =
                simulate_pipeline_attributed(&chip, &t, &BufferConfig::fusion3d(), training);
            assert_eq!(
                attr.total(),
                report.cycles,
                "attribution must cover every cycle exactly once"
            );
            assert!(attr.interp > 0 || attr.postproc > 0 || attr.sampling > 0);
        }
    }

    #[test]
    fn attributed_matches_unattributed() {
        let chip = FusionChip::scaled_up();
        let t = trace(1024, 13);
        let plain = simulate_pipeline(&chip, &t, &BufferConfig::fusion3d(), false);
        let (report, _) = simulate_pipeline_attributed(&chip, &t, &BufferConfig::fusion3d(), false);
        assert_eq!(plain, report);
    }

    #[test]
    fn empty_trace_is_free() {
        let chip = FusionChip::prototype();
        let r = simulate_pipeline(&chip, &FrameTrace::default(), &BufferConfig::fusion3d(), false);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.points, 0);
        assert_eq!(r.overhead_fraction(), 0.0);
    }

    #[test]
    fn undersized_feature_fifo_backpressures_stage_two() {
        let chip = FusionChip::scaled_up();
        let t = trace(1024, 13);
        let tight = BufferConfig { sample_fifo: 4096, feature_fifo: 1 };
        let roomy = BufferConfig::fusion3d();
        let r_tight = simulate_pipeline(&chip, &t, &tight, true);
        let r_roomy = simulate_pipeline(&chip, &t, &roomy, true);
        assert!(r_tight.cycles >= r_roomy.cycles);
        assert!(
            r_tight.s2_stall + r_tight.s3_starve >= r_roomy.s2_stall + r_roomy.s3_starve,
            "tight buffers should not reduce stalls"
        );
    }

    #[test]
    fn training_mode_takes_longer() {
        let chip = FusionChip::scaled_up();
        let t = trace(512, 16);
        let inf = simulate_pipeline(&chip, &t, &BufferConfig::fusion3d(), false);
        let train = simulate_pipeline(&chip, &t, &BufferConfig::fusion3d(), true);
        assert!(train.cycles > inf.cycles);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let chip = FusionChip::prototype();
        simulate_pipeline(
            &chip,
            &trace(4, 2),
            &BufferConfig { sample_fifo: 0, feature_fifo: 1 },
            false,
        );
    }
}
