//! Hot-tier scene registry: decoded models under an LRU byte budget.

use crate::error::ServeError;
use crate::store::{SceneId, SceneStore};
use fusion3d_nerf::io;
use fusion3d_nerf::model::NerfModel;
use fusion3d_nerf::occupancy::OccupancyGrid;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Cumulative cache statistics of one registry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Requests served from a resident model.
    pub hits: u64,
    /// Requests that had to decode their container first.
    pub misses: u64,
    /// Scenes displaced to make room.
    pub evictions: u64,
    /// Container bytes decoded across all misses.
    pub bytes_loaded: u64,
}

#[derive(Debug)]
struct Slot {
    model: NerfModel,
    occupancy: OccupancyGrid,
    resident: bool,
    bytes: u64,
    last_use: u64,
}

/// The hot tier of the serving stack: one decoded model slot per
/// scene, of which at most `budget_bytes` worth (priced by container
/// size via the [`io::peek_header`] hook) are resident at a time.
///
/// Eviction is strict LRU over the deterministic `last_use` sequence
/// counter (ties broken towards the smaller scene id), so the
/// hit/miss/eviction history of a replayed trace is itself
/// reproducible. Model *shells* (architecture-shaped parameter
/// buffers) are built once at construction; a miss only re-decodes
/// parameters into the existing shell, so steady-state serving never
/// rebuilds a model.
#[derive(Debug)]
pub struct SceneRegistry {
    slots: Vec<Slot>,
    budget_bytes: u64,
    resident_bytes: u64,
    tick: u64,
    stats: RegistryStats,
    eviction_log: Vec<u32>,
}

impl SceneRegistry {
    /// Builds a registry over every scene of `store`, with one
    /// architecture-shaped model shell per scene, all initially cold.
    ///
    /// # Errors
    ///
    /// [`ServeError::BudgetTooSmall`] when any single container
    /// exceeds `budget_bytes` (it could never be made resident), and
    /// [`ServeError::Decode`] when a container header is malformed or
    /// its shape disagrees with the registered architecture.
    pub fn new(store: &SceneStore, budget_bytes: u64) -> Result<Self, ServeError> {
        let mut slots = Vec::with_capacity(store.len());
        for k in 0..store.len() as u32 {
            let id = SceneId(k);
            let header = store.header(id)?;
            let bytes = header.container_bytes();
            if bytes > budget_bytes {
                return Err(ServeError::BudgetTooSmall {
                    scene: k,
                    container_bytes: bytes,
                    budget_bytes,
                });
            }
            let config = *store.config(id).ok_or(ServeError::UnknownScene(k))?;
            // Shell parameters are fully overwritten on load; the
            // seed only has to be deterministic, not meaningful.
            let mut rng = SmallRng::seed_from_u64(k as u64);
            let model = NerfModel::new(config, &mut rng);
            if header.param_count() != model.param_count() as u64 {
                return Err(ServeError::Decode {
                    scene: k,
                    source: io::DecodeError::ShapeMismatch {
                        expected: (model.param_count() as u64, 0, 0),
                        found: header.param_counts,
                    },
                });
            }
            let occupancy = OccupancyGrid::new(header.occupancy_resolution, 0.0);
            slots.push(Slot { model, occupancy, resident: false, bytes, last_use: 0 });
        }
        Ok(Self {
            slots,
            budget_bytes,
            resident_bytes: 0,
            tick: 0,
            stats: RegistryStats::default(),
            eviction_log: Vec::new(),
        })
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Number of scenes currently resident.
    pub fn resident_count(&self) -> usize {
        self.slots.iter().filter(|s| s.resident).count()
    }

    /// True when the scene's model is decoded and servable.
    pub fn is_resident(&self, id: SceneId) -> bool {
        self.slots.get(id.index()).is_some_and(|s| s.resident)
    }

    /// Cumulative cache statistics.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// Scene ids in the order they were evicted, oldest first — the
    /// observable record the LRU unit tests assert on.
    pub fn eviction_order(&self) -> &[u32] {
        &self.eviction_log
    }

    /// Marks the scene as just-used without loading it. Called on the
    /// steady-state dispatch path; allocation-free.
    pub fn touch(&mut self, id: SceneId) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.slots.get_mut(id.index()) {
            slot.last_use = tick;
        }
    }

    /// Borrows the scene's decoded model and occupancy grid, or
    /// `None` while it is cold. Steady-state path; allocation-free.
    pub fn scene(&self, id: SceneId) -> Option<(&NerfModel, &OccupancyGrid)> {
        let slot = self.slots.get(id.index())?;
        if !slot.resident {
            return None;
        }
        Some((&slot.model, &slot.occupancy))
    }

    /// Makes the scene resident, evicting least-recently-used scenes
    /// until its container fits the budget, and bumps its use clock.
    /// Returns `(hit, bytes_loaded)`: `(true, 0)` when it was already
    /// resident, `(false, container_bytes)` after a decode.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownScene`] for an id outside the store and
    /// [`ServeError::Decode`] when the container fails to decode.
    pub fn ensure_resident(
        &mut self,
        store: &SceneStore,
        id: SceneId,
    ) -> Result<(bool, u64), ServeError> {
        let bytes = match self.slots.get(id.index()) {
            None => return Err(ServeError::UnknownScene(id.0)),
            Some(slot) if slot.resident => {
                self.stats.hits += 1;
                self.touch(id);
                return Ok((true, 0));
            }
            Some(slot) => slot.bytes,
        };
        while self.resident_bytes + bytes > self.budget_bytes {
            let Some(victim) = self.lru_resident() else { break };
            self.evict(victim);
        }
        let container = store.container(id).ok_or(ServeError::UnknownScene(id.0))?;
        let slot = self.slots.get_mut(id.index()).ok_or(ServeError::UnknownScene(id.0))?;
        slot.occupancy = io::decode_model_into(container, &mut slot.model)
            .map_err(|source| ServeError::Decode { scene: id.0, source })?;
        slot.resident = true;
        self.resident_bytes += bytes;
        self.stats.misses += 1;
        self.stats.bytes_loaded += bytes;
        self.touch(id);
        Ok((false, bytes))
    }

    /// The least-recently-used resident scene (ties towards the
    /// smaller id), or `None` when nothing is resident.
    fn lru_resident(&self) -> Option<SceneId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.resident)
            .min_by_key(|(k, s)| (s.last_use, *k))
            .map(|(k, _)| SceneId(k as u32))
    }

    fn evict(&mut self, id: SceneId) {
        if let Some(slot) = self.slots.get_mut(id.index()) {
            if slot.resident {
                slot.resident = false;
                self.resident_bytes = self.resident_bytes.saturating_sub(slot.bytes);
                self.stats.evictions += 1;
                self.eviction_log.push(id.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion3d_nerf::math::Vec3;

    fn fixture() -> (SceneStore, u64) {
        let store = SceneStore::synthetic(4);
        let per_scene = store.header(SceneId(0)).expect("header").container_bytes();
        (store, per_scene)
    }

    #[test]
    fn miss_then_hit_then_lru_eviction_order() {
        let (store, per_scene) = fixture();
        // Budget for exactly two resident scenes.
        let mut reg = SceneRegistry::new(&store, 2 * per_scene).expect("registry");
        assert_eq!(reg.resident_count(), 0);

        assert_eq!(reg.ensure_resident(&store, SceneId(0)).expect("load 0"), (false, per_scene));
        assert_eq!(reg.ensure_resident(&store, SceneId(1)).expect("load 1"), (false, per_scene));
        assert_eq!(reg.ensure_resident(&store, SceneId(0)).expect("hit 0"), (true, 0));
        assert_eq!(reg.resident_count(), 2);
        assert_eq!(reg.resident_bytes(), 2 * per_scene);

        // Scene 1 is now least recently used: loading 2 must evict it.
        assert_eq!(reg.ensure_resident(&store, SceneId(2)).expect("load 2"), (false, per_scene));
        assert!(!reg.is_resident(SceneId(1)));
        assert!(reg.is_resident(SceneId(0)) && reg.is_resident(SceneId(2)));
        assert_eq!(reg.eviction_order(), &[1]);

        // Touch 0, then load 3: LRU is 2.
        reg.touch(SceneId(0));
        reg.ensure_resident(&store, SceneId(3)).expect("load 3");
        assert_eq!(reg.eviction_order(), &[1, 2]);

        let stats = reg.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 4, 2));
        assert_eq!(stats.bytes_loaded, 4 * per_scene);
    }

    #[test]
    fn lru_ties_break_towards_smaller_id() {
        let (store, per_scene) = fixture();
        let mut reg = SceneRegistry::new(&store, 4 * per_scene).expect("registry");
        for k in 0..3 {
            reg.ensure_resident(&store, SceneId(k)).expect("load");
        }
        // Force identical last_use ticks is impossible (the clock is
        // strictly increasing), so the tie rule is exercised through
        // construction order: after equalizing use recency via fresh
        // loads, the earliest-loaded scene is the LRU victim.
        let mut tight = SceneRegistry::new(&store, 3 * per_scene).expect("registry");
        for k in 0..3 {
            tight.ensure_resident(&store, SceneId(k)).expect("load");
        }
        tight.ensure_resident(&store, SceneId(3)).expect("load 3");
        assert_eq!(tight.eviction_order(), &[0]);
    }

    #[test]
    fn oversized_container_is_rejected_up_front() {
        let (store, per_scene) = fixture();
        let err = SceneRegistry::new(&store, per_scene - 1).expect_err("too small");
        assert!(matches!(err, ServeError::BudgetTooSmall { scene: 0, .. }), "{err}");
    }

    #[test]
    fn hostile_occupancy_resolution_is_an_error_not_a_panic() {
        let (store, _) = fixture();
        let id = SceneId(0);
        let container = store.container(id).expect("container");
        for resolution in [0u32, 4096, u32::MAX] {
            // The resolution sits at bytes 36..40 of the header.
            let mut bytes = container.to_vec();
            bytes[36..40].copy_from_slice(&resolution.to_le_bytes());
            let mut hostile = SceneStore::new();
            let config = *store.config(id).expect("config");
            hostile.register("hostile", config, Vec3::ZERO, bytes);
            let err = SceneRegistry::new(&hostile, u64::MAX).expect_err("hostile header");
            assert!(matches!(err, ServeError::Decode { scene: 0, .. }), "{resolution}: {err}");
        }
    }

    #[test]
    fn reload_after_eviction_restores_identical_parameters() {
        let (store, per_scene) = fixture();
        let mut reg = SceneRegistry::new(&store, per_scene).expect("registry");
        reg.ensure_resident(&store, SceneId(0)).expect("load 0");
        let before: Vec<f32> = {
            let (model, _) = reg.scene(SceneId(0)).expect("resident");
            model.grid().params().to_vec()
        };
        reg.ensure_resident(&store, SceneId(1)).expect("load 1 evicts 0");
        assert!(reg.scene(SceneId(0)).is_none());
        reg.ensure_resident(&store, SceneId(0)).expect("reload 0");
        let (model, _) = reg.scene(SceneId(0)).expect("resident again");
        assert_eq!(model.grid().params(), before.as_slice(), "reload must be bitwise");
    }
}
