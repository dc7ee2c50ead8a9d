//! # fusion3d-mem
//!
//! The on-chip memory substrate of the Fusion-3D reproduction:
//!
//! * [`sram`] — the geometry of the SRAM arrays in the chip's Memory
//!   Clusters;
//! * [`banks`] — bank mappings and conflict simulation for Stage II
//!   feature fetches, including the paper's two-level hash tiling
//!   (Technique T4) that makes every eight-corner fetch exactly one
//!   cycle;
//! * [`interconnect`] — crossbar vs. one-to-one fabric cost models
//!   behind the Fig. 12(b)/(c) area and latency savings.
//!
//! ```
//! use fusion3d_mem::banks::{group_from_addresses, BankMapping};
//!
//! // Eight corner addresses from the Instant-NGP hash: the two-level
//! // tiling serves them in a single cycle.
//! let group = group_from_addresses([2, 3, 100, 101, 7000, 7001, 42, 43]);
//! assert_eq!(BankMapping::TwoLevelTiling.group_cycles(&group), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod banks;
pub mod interconnect;
pub mod sram;

pub use banks::{simulate_groups, BankMapping, ConflictStats, VertexRequest};
pub use interconnect::{compare as compare_interconnect, InterconnectComparison};
pub use sram::SramSpec;
