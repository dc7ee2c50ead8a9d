//! Paper-style per-module cycle/energy breakdown report, regenerated
//! from the observability trace stream for all eight synthetic scenes.
//!
//! Prints three tables (per-stage cycle attribution, per-module
//! energy, per-scene workload shape) and one scene's rendered span
//! tree as a worked example. With `--jsonl` it then prints the
//! deterministic JSON-lines export for every scene; without it, a
//! final section renders a small frame through the probed pipeline
//! and reports the host kernel counters plus the (diagnostic)
//! per-worker dispatch stats. The `--jsonl` output holds no
//! diagnostics, so it is identical at any `FUSION3D_THREADS`.
//!
//! ```text
//! cargo run -p fusion3d-bench --release --bin breakdown [-- --jsonl]
//! ```

use fusion3d_bench::experiments::breakdown::{self, kernel_probe_report};

/// Frame side of the kernel-counter section's render.
const KERNEL_RES: u32 = 64;

fn main() {
    let jsonl = std::env::args().skip(1).any(|arg| arg == "--jsonl");
    breakdown::run(jsonl);
    if !jsonl {
        println!("\n=== Kernel probes: lego @ {KERNEL_RES}x{KERNEL_RES} ===");
        print!("{}", kernel_probe_report(KERNEL_RES).render_table());
    }
}
