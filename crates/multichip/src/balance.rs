//! Workload-balance analysis and gate rebalancing across chips.
//!
//! Challenge C4: all chips must finish before the fused result exists,
//! so the slowest chip bounds the system. Technique T4 removes the
//! *memory-access* component of runtime variation; what remains is the
//! *spatial* component — experts own different amounts of occupied
//! space. This module measures that imbalance and provides a greedy
//! rebalancer that reassigns boundary cells between neighbouring
//! experts' gates until their sample loads even out — the knob a
//! deployment turns on top of the conflict-free access T4 guarantees.

use fusion3d_nerf::occupancy::OccupancyGrid;
use fusion3d_nerf::pipeline::FrameTrace;

/// Errors from gate rebalancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceError {
    /// No gates were supplied; there is nothing to balance.
    NoGates,
    /// The gates do not share a resolution, so cells cannot move
    /// between them.
    ResolutionMismatch {
        /// Resolution of the first gate.
        expected: u32,
        /// First differing resolution encountered.
        found: u32,
    },
}

impl std::fmt::Display for BalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BalanceError::NoGates => write!(f, "need at least one gate"),
            BalanceError::ResolutionMismatch { expected, found } => {
                write!(f, "gates must share a resolution: found {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for BalanceError {}

/// Per-chip load summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Retained samples per chip.
    pub samples: Vec<u64>,
    /// Marching steps per chip.
    pub steps: Vec<u64>,
}

impl LoadReport {
    /// Builds the report from per-chip Stage-I traces.
    pub fn from_workloads(per_chip: &[FrameTrace]) -> Self {
        LoadReport {
            samples: per_chip.iter().map(|trace| trace.total_samples).collect(),
            steps: per_chip.iter().map(|trace| trace.total_steps).collect(),
        }
    }

    /// Max-over-mean imbalance of the per-chip sample loads (1.0 is
    /// perfectly balanced).
    pub fn sample_imbalance(&self) -> f64 {
        imbalance(&self.samples)
    }

    /// Max-over-mean imbalance of the per-chip marching steps.
    pub fn step_imbalance(&self) -> f64 {
        imbalance(&self.steps)
    }

    /// Record per-chiplet loads and the imbalance gauges (Challenge C4:
    /// the slowest chip bounds the system, so the max-over-mean ratios
    /// here are what the paper's multi-chip scaling argument rests on).
    pub fn record(&self, report: &mut fusion3d_obs::Report) {
        let m = &mut report.metrics;
        for (chip, (&samples, &steps)) in self.samples.iter().zip(self.steps.iter()).enumerate() {
            // lint: allow(h2): per-chip metric keys are formatted once
            // per report flush, not per sample
            m.counter_add(&format!("chip.{chip}.samples"), "samples", samples);
            // lint: allow(h2): same — once per report flush
            m.counter_add(&format!("chip.{chip}.steps"), "steps", steps);
            m.observe("balance.chip_samples", "samples", samples);
        }
        m.gauge_set("balance.sample_imbalance", "max/mean", self.sample_imbalance());
        m.gauge_set("balance.step_imbalance", "max/mean", self.step_imbalance());
    }
}

fn imbalance(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let max = loads.iter().copied().fold(0u64, u64::max) as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// [`rebalance_gates`] with the balance decision recorded into an obs
/// report: occupied-cell imbalance before and after, and the number of
/// cells that moved.
///
/// # Errors
///
/// Returns [`BalanceError`] if `gates` is empty or resolutions differ
/// (nothing is recorded in that case).
pub fn rebalance_gates_observed(
    gates: &mut [OccupancyGrid],
    tolerance: f64,
    report: &mut fusion3d_obs::Report,
) -> Result<usize, BalanceError> {
    let cell_loads = |gates: &[OccupancyGrid]| -> Vec<u64> {
        gates.iter().map(|g| g.occupied_cells().count() as u64).collect()
    };
    let before = imbalance(&cell_loads(gates));
    let moved = rebalance_gates(gates, tolerance)?;
    let m = &mut report.metrics;
    m.gauge_set("balance.cells_imbalance_before", "max/mean", before);
    m.gauge_set("balance.cells_imbalance_after", "max/mean", imbalance(&cell_loads(gates)));
    m.counter_add("balance.cells_moved", "cells", moved as u64);
    Ok(moved)
}

/// Greedily rebalances per-chip occupancy gates: while the heaviest
/// gate exceeds the lightest by more than `tolerance` (fractional),
/// one occupied cell exclusive to the heaviest gate moves to the
/// lightest. Cell weight is approximated as uniform, which matches
/// the fixed-step sampler's cost model.
///
/// Returns the number of cells moved. The union of occupied cells is
/// preserved — rebalancing only changes ownership, never coverage.
///
/// # Errors
///
/// Returns [`BalanceError`] if `gates` is empty or resolutions
/// differ.
pub fn rebalance_gates(gates: &mut [OccupancyGrid], tolerance: f64) -> Result<usize, BalanceError> {
    let Some(first) = gates.first() else {
        return Err(BalanceError::NoGates);
    };
    let resolution = first.resolution();
    if let Some(bad) = gates.iter().find(|g| g.resolution() != resolution) {
        return Err(BalanceError::ResolutionMismatch {
            expected: resolution,
            found: bad.resolution(),
        });
    }
    let mut moved = 0;
    loop {
        let loads: Vec<usize> = gates.iter().map(|g| g.occupied_cells().count()).collect();
        // First-index min/max keeps the scan deterministic and avoids
        // an unwrap on the (non-empty by construction) load vector.
        let (mut heavy, mut light) = (0usize, 0usize);
        for (i, &load) in loads.iter().enumerate() {
            if load > loads[heavy] {
                heavy = i;
            }
            if load < loads[light] {
                light = i;
            }
        }
        let (heavy_load, light_load) = (loads[heavy], loads[light]);
        if heavy == light || heavy_load as f64 <= (light_load as f64 + 1.0) * (1.0 + tolerance) {
            return Ok(moved);
        }
        // Move one cell owned *only* by the heavy gate (moving a
        // shared cell would change nothing or lose coverage).
        let candidate = gates[heavy].occupied_cells().find(|&cell| {
            gates.iter().enumerate().all(|(i, g)| i == heavy || !g.is_cell_occupied(cell))
        });
        match candidate {
            Some(cell) => {
                gates[heavy].set_cell(cell, false);
                gates[light].set_cell(cell, true);
                moved += 1;
            }
            // Every heavy cell is shared: nothing exclusive to move.
            None => return Ok(moved),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_nerf::math::Vec3;
    use fusion3d_nerf::sampler::PairJob;

    /// A chip trace of `rays` one-pair rays of `samples` samples each.
    fn workload(rays: usize, samples: u16) -> FrameTrace {
        let job = PairJob { samples, steps: samples + 4, lattice_steps: samples * 3 };
        let mut trace = FrameTrace::default();
        for _ in 0..rays {
            trace.push_ray(1, &[job]);
        }
        trace
    }

    #[test]
    fn load_report_and_imbalance() {
        let per_chip = vec![
            workload(4, 10), // 40 samples
            workload(4, 10),
            workload(4, 30), // 120 samples
        ];
        let report = LoadReport::from_workloads(&per_chip);
        assert_eq!(report.samples, vec![40, 40, 120]);
        let imb = report.sample_imbalance();
        assert!((imb - 120.0 / (200.0 / 3.0)).abs() < 1e-9);
        assert!(report.step_imbalance() > 1.0);
    }

    #[test]
    fn balanced_loads_report_unity() {
        let per_chip = vec![workload(8, 12); 4];
        let report = LoadReport::from_workloads(&per_chip);
        assert_eq!(report.sample_imbalance(), 1.0);
        assert_eq!(report.step_imbalance(), 1.0);
    }

    #[test]
    fn rebalancing_evens_exclusive_cells() {
        // Gate 0 owns a big exclusive region; gate 1 owns a small one.
        let mut a = OccupancyGrid::new(8, 0.0);
        let mut b = OccupancyGrid::new(8, 0.0);
        for cell in 0..200 {
            a.set_cell(cell, true);
        }
        for cell in 200..220 {
            b.set_cell(cell, true);
        }
        let union_before: Vec<usize> = {
            let mut v: Vec<usize> = a.occupied_cells().chain(b.occupied_cells()).collect();
            v.sort_unstable();
            v
        };
        let mut gates = [a, b];
        let moved = rebalance_gates(&mut gates, 0.1).expect("valid gates");
        assert!(moved > 0);
        let (la, lb) =
            (gates[0].occupied_cells().count() as f64, gates[1].occupied_cells().count() as f64);
        assert!(la <= (lb + 1.0) * 1.1 + 1.0, "still imbalanced: {la} vs {lb}");
        // Coverage preserved.
        let mut union_after: Vec<usize> =
            gates[0].occupied_cells().chain(gates[1].occupied_cells()).collect();
        union_after.sort_unstable();
        union_after.dedup();
        assert_eq!(union_after, union_before);
    }

    #[test]
    fn shared_cells_are_never_moved() {
        // Both gates own the same cells; nothing is exclusive, so
        // rebalancing is a no-op.
        let mut a = OccupancyGrid::new(4, 0.0);
        let mut b = OccupancyGrid::new(4, 0.0);
        for cell in 0..30 {
            a.set_cell(cell, true);
            b.set_cell(cell, true);
        }
        // Gate b additionally owns ten exclusive cells, making it the
        // heavier gate; those are the only movable ones.
        for cell in 30..40 {
            b.set_cell(cell, true);
        }
        let mut gates = [b, a];
        let moved = rebalance_gates(&mut gates, 0.05).expect("valid gates");
        // Only exclusive cells (30..40) can move.
        assert!(moved <= 10);
        for cell in 0..30 {
            assert!(gates[0].is_cell_occupied(cell) || gates[1].is_cell_occupied(cell));
        }
    }

    #[test]
    fn rebalanced_gates_balance_real_traces() {
        // A lopsided scene: geometry concentrated in one octant.
        let full =
            OccupancyGrid::from_oracle(12, 0.0, |p| p.distance(Vec3::new(0.25, 0.4, 0.25)) < 0.22);
        // Naive partition: split by X half — one side gets everything.
        let mut gates = [OccupancyGrid::new(12, 0.0), OccupancyGrid::new(12, 0.0)];
        for cell in full.occupied_cells() {
            let c = full.cell_center(cell);
            let owner = usize::from(c.x >= 0.5);
            gates[owner].set_cell(cell, true);
        }
        let before: Vec<usize> = gates.iter().map(|g| g.occupied_cells().count()).collect();
        assert!(imbalance(&before.iter().map(|&c| c as u64).collect::<Vec<_>>()) > 1.5);
        rebalance_gates(&mut gates, 0.1).expect("valid gates");
        let after: Vec<u64> = gates.iter().map(|g| g.occupied_cells().count() as u64).collect();
        assert!(imbalance(&after) < 1.15, "rebalancing failed: {after:?}");
    }

    #[test]
    fn observed_rebalance_records_decision() {
        let mut a = OccupancyGrid::new(8, 0.0);
        let mut b = OccupancyGrid::new(8, 0.0);
        for cell in 0..100 {
            a.set_cell(cell, true);
        }
        b.set_cell(200, true);
        let mut gates = [a, b];
        let mut report = fusion3d_obs::Report::new("balance");
        let moved = rebalance_gates_observed(&mut gates, 0.1, &mut report).expect("valid gates");
        assert!(moved > 0);
        let jsonl = report.deterministic_jsonl();
        assert!(jsonl.contains("balance.cells_moved"));
        assert!(jsonl.contains("balance.cells_imbalance_before"));
    }

    #[test]
    fn load_report_records_per_chip_metrics() {
        let per_chip = vec![workload(4, 10), workload(2, 30)];
        let report = LoadReport::from_workloads(&per_chip);
        let mut obs = fusion3d_obs::Report::new("load");
        report.record(&mut obs);
        assert!(obs.metrics.get("chip.0.samples").is_some());
        assert!(obs.metrics.get("chip.1.steps").is_some());
        assert!(obs.metrics.get("balance.sample_imbalance").is_some());
    }

    #[test]
    fn mismatched_resolutions_rejected() {
        let mut gates = [OccupancyGrid::new(4, 0.0), OccupancyGrid::new(8, 0.0)];
        assert_eq!(
            rebalance_gates(&mut gates, 0.1),
            Err(BalanceError::ResolutionMismatch { expected: 4, found: 8 })
        );
        let err = BalanceError::ResolutionMismatch { expected: 4, found: 8 };
        assert!(err.to_string().contains("share a resolution"));
    }

    #[test]
    fn empty_gates_rejected() {
        assert_eq!(rebalance_gates(&mut [], 0.1), Err(BalanceError::NoGates));
        assert!(BalanceError::NoGates.to_string().contains("at least one gate"));
    }
}
