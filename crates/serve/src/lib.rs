//! `fusion3d-serve` — deterministic multi-scene serving layer over
//! the Fusion-3D inference pipeline.
//!
//! The paper's end state (Sec. VII) is a shared accelerator serving
//! render requests for many reconstructed scenes at once. This crate
//! reproduces that serving stack as a simulated-time system with the
//! same discipline as the rest of the workspace: given a fixed
//! request trace, every number it produces is bitwise-identical
//! across runs, machines, and worker counts.
//!
//! The stack has four pieces, composed by [`scheduler::ServeSim`]:
//!
//! * [`store::SceneStore`] — the cold tier: encoded `.f3dm` scene
//!   containers (see [`fusion3d_nerf::io`]) keyed by [`store::SceneId`].
//! * [`registry::SceneRegistry`] — the hot tier: decoded models under
//!   an LRU byte budget, evicting the least-recently-served scene
//!   when a miss would overflow it.
//! * [`queue::AdmissionQueue`] — fixed-capacity per-scene FIFOs that
//!   coalesce concurrent requests for one scene into a single batched
//!   kernel dispatch ([`fusion3d_nerf::pipeline::render_views_into`]).
//! * [`traffic::generate`] — a closed-form open-loop traffic
//!   generator: Poisson arrivals, Zipf scene popularity, and
//!   camera-path replay, all from one seeded [`rand::rngs::SmallRng`].
//!
//! Time is simulated cycles, never the wall clock (lint rule D2 holds
//! for this crate), and the steady-state request path allocates
//! nothing (lint rule H2 covers [`queue::AdmissionQueue::admit`]
//! through the kernel dispatch). `docs/SERVING.md` walks
//! through the architecture, the request lifecycle, and the
//! determinism contract.
//!
//! ```
//! use fusion3d_serve::{ServeConfig, ServeSim, TrafficConfig};
//!
//! let mut sim = ServeSim::synthetic(2, &ServeConfig::default()).expect("fits budget");
//! let trace = fusion3d_serve::generate(&TrafficConfig::smoke(2), 7);
//! let outcome = sim.run_trace(&trace).expect("scenes resolve");
//! assert_eq!(outcome.completed + outcome.rejected, trace.len() as u64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod queue;
pub mod registry;
pub mod scheduler;
pub mod store;
pub mod traffic;

pub use error::ServeError;
pub use queue::AdmissionQueue;
pub use registry::SceneRegistry;
pub use scheduler::{ServeConfig, ServeOutcome, ServeSim, BUDGET_BYTES, EXECUTORS, MAX_BATCH};
pub use store::{SceneId, SceneStore};
pub use traffic::{generate, Request, TrafficConfig};
