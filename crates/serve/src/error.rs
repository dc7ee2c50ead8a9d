//! Error type of the serving layer.

use fusion3d_nerf::io::DecodeError;

/// Errors surfaced by the serving layer. All are configuration or
/// artifact problems detected before or during a trace replay; the
/// steady-state request path itself is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A request or configuration referenced a scene id the store
    /// does not hold.
    UnknownScene(u32),
    /// A scene's container is larger than the whole registry budget,
    /// so it could never be made resident.
    BudgetTooSmall {
        /// The offending scene.
        scene: u32,
        /// Its container size in bytes.
        container_bytes: u64,
        /// The configured registry budget in bytes.
        budget_bytes: u64,
    },
    /// A container failed to decode against its registered model
    /// architecture.
    Decode {
        /// The offending scene.
        scene: u32,
        /// The underlying container error.
        source: DecodeError,
    },
    /// A [`ServeConfig`](crate::ServeConfig) field is outside the
    /// range the simulation can serve.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Its rejected value.
        value: String,
        /// The accepted range.
        expected: String,
    },
    /// A trace replay's simulated clock would pass `u64::MAX`: its
    /// arrivals lie too close to the end of the cycle range.
    CycleOverflow,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownScene(id) => write!(f, "unknown scene id {id}"),
            ServeError::BudgetTooSmall { scene, container_bytes, budget_bytes } => write!(
                f,
                "scene {scene} needs {container_bytes} B but the registry budget is {budget_bytes} B"
            ),
            ServeError::Decode { scene, source } => {
                write!(f, "scene {scene} container failed to decode: {source}")
            }
            ServeError::InvalidConfig { field, value, expected } => {
                write!(f, "serve config `{field}` = {value} is outside {expected}")
            }
            ServeError::CycleOverflow => write!(f, "simulated clock overflowed u64 cycles"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}
