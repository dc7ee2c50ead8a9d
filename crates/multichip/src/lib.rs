//! # fusion3d-multichip
//!
//! The Fusion-3D multi-chip system: scaling to large scenes with four
//! chips instead of a larger die —
//!
//! * [`moe`] — the Mixture-of-Experts NeRF (Technique T3 / Level-1
//!   tiling): complete small models per chip, occupancy-grid gating,
//!   pixel-sum fusion, and end-to-end MoE training;
//! * [`comm`] — chip-to-chip communication models: MoE tiling versus
//!   the conventional layer-split mapping (the Fig. 12(a) 94 % saving);
//! * [`system`] — the assembled four-chip + I/O-module system with the
//!   measured PCB link model: performance, power, energy, and workload
//!   balance (Tables IV/V);
//! * [`chiplet`] — the Sec. VIII chiplet buffer-area trade-off
//!   (Fig. 14(b)).
//!
//! ```
//! use fusion3d_multichip::system::MultiChipConfig;
//!
//! let cfg = MultiChipConfig::fusion3d();
//! // Table IV resource envelope: ~35 mm², ~4.5 MB SRAM, ~6 W.
//! assert!((cfg.total_area_mm2() - 35.0).abs() < 0.5);
//! assert!((cfg.total_power_w() - 6.0).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chiplet;
pub mod comm;
pub mod moe;
pub mod system;

pub use comm::{layer_split_bytes, moe_bytes, moe_communication_saving, FrameWorkload};
pub use moe::{Expert, MoeNerf, MoeTrainer};
pub use system::{LinkModel, MultiChipConfig, MultiChipSystem, SystemReport};
