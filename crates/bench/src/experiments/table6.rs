//! Table VI: Stage-I ablation — speedup of Technique T1 (model
//! normalization & partitioning + dynamic workload scheduling) over
//! the naive sampling module, per scene.

use crate::support::{for_each_scene, print_table, scene_trace};
use fusion3d_core::sampling::t1_speedup;
use fusion3d_nerf::scenes::SyntheticScene;

/// Per-scene T1 speedup.
pub fn per_scene_speedups() -> Vec<(SyntheticScene, f64)> {
    for_each_scene(&SyntheticScene::ALL, |scene| (scene, t1_speedup(&scene_trace(scene))))
}

/// Prints the Table VI reproduction.
pub fn run() {
    let rows: Vec<Vec<String>> = per_scene_speedups()
        .into_iter()
        .map(|(scene, s)| vec![scene.name().to_string(), format!("{s:.1}x")])
        .collect();
    print_table(
        "Table VI: sampling-module (T1) ablation speedup per scene",
        &["Scene", "Speedup"],
        &rows,
    );
    println!(
        "\nPaper reference: 5.4x (ship, densest) to 20.2x (mic, sparsest); the\n\
         spread tracks scene sparsity because the naive module is bound by the\n\
         general ray-box solve while T1's residual cost is the marching work."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn speedups_match_paper_shape() {
        let speedups: HashMap<&str, f64> =
            per_scene_speedups().into_iter().map(|(s, v)| (s.name(), v)).collect();
        // All scenes accelerate substantially.
        for (name, s) in &speedups {
            assert!((2.0..=64.0).contains(s), "{name}: T1 speedup {s} out of the physical band");
        }
        // The paper's extremes: mic (sparsest) gains the most, ship
        // (densest) the least.
        let mic = speedups["mic"];
        let ship = speedups["ship"];
        assert!(mic > ship, "mic {mic} should beat ship {ship}");
        let max = speedups.values().cloned().fold(0.0, f64::max);
        assert_eq!(max, mic, "mic has the largest speedup");
        // The spread is wide, as in Table VI (5.4x-20.2x).
        assert!(mic / ship > 1.6, "spread mic/ship = {}", mic / ship);
    }
}
