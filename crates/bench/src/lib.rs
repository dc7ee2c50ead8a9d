//! # fusion3d-bench
//!
//! The experiment harness of the Fusion-3D reproduction: one module
//! per table and figure of the paper's evaluation, each regenerating
//! the corresponding rows or series from the simulators and the
//! algorithm substrate. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! Run individual experiments with, e.g.:
//!
//! ```text
//! cargo run -p fusion3d-bench --release --bin table3
//! ```
//!
//! or everything at once with `--bin all_experiments`, whose output
//! is committed as `BENCH_tables.txt` and compared byte for byte by
//! `scripts/check.sh`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod support;
