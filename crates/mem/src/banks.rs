//! Bank mapping and conflict simulation for Stage II feature fetches —
//! the memory-system side of Technique T4 (*Two-Level Hash Tiling*).
//!
//! Every sampled point fetches its eight cell-corner features in one
//! request group. With naive banking (low-order address bits), several
//! of the eight requests can target the same SRAM bank, serializing
//! the group into up to eight cycles and making fetch latency
//! *variable* — which in the multi-chip system becomes chip-level
//! workload imbalance (Challenge C4).
//!
//! The two-level tiling exploits two structural properties of the
//! Instant-NGP hash (verified in `fusion3d-nerf::hash`):
//!
//! * **Level 2 (interpolation-level tiling)** — corners with different
//!   YZ offsets spread widely in the table, so the four YZ-offset
//!   groups get four dedicated SRAM groups;
//! * **Level 3 (parity-level tiling)** — the two corners of a YZ group
//!   differ by one unit in X and therefore always have opposite
//!   address parity, so each SRAM group splits into an even and an odd
//!   bank.
//!
//! The result: the eight requests of any group map one-to-one onto the
//! eight banks — every fetch takes exactly one cycle, variance zero,
//! and the bank interconnect degenerates from a crossbar to fixed
//! one-to-one wiring (see [`crate::interconnect`]).

/// One feature-table request within an eight-corner group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexRequest {
    /// Corner index 0..8 (bit 0 = X offset, bits 1–2 = YZ offset).
    pub corner: u8,
    /// Table address of the vertex's features.
    pub address: u32,
}

/// Number of banks in a Stage-II SRAM group under either mapping.
pub const BANKS: usize = 8;

/// How feature-table addresses map onto SRAM banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankMapping {
    /// Naive banking: bank = low three address bits. Corners can
    /// collide.
    LowOrderBits,
    /// The paper's two-level tiling: bank = (YZ-offset group) × 2 +
    /// (address parity). Conflict-free by construction.
    TwoLevelTiling,
}

impl BankMapping {
    /// The bank a request maps to (0..[`BANKS`]).
    #[inline]
    pub fn bank_of(self, request: VertexRequest) -> usize {
        match self {
            BankMapping::LowOrderBits => (request.address & 0b111) as usize,
            BankMapping::TwoLevelTiling => {
                let yz_group = ((request.corner >> 1) & 0b11) as usize;
                let parity = (request.address & 1) as usize;
                yz_group * 2 + parity
            }
        }
    }

    /// Cycles needed to serve one eight-corner request group: the
    /// maximum number of requests landing on any single bank.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty.
    pub fn group_cycles(self, group: &[VertexRequest]) -> u32 {
        assert!(!group.is_empty(), "request group must not be empty");
        let mut per_bank = [0u32; BANKS];
        for &req in group {
            per_bank[self.bank_of(req)] += 1;
        }
        per_bank.iter().copied().max().unwrap_or(0)
    }
}

/// Aggregate conflict statistics over many request groups — the
/// quantities plotted in Fig. 12(c)–(e).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConflictStats {
    /// Number of request groups simulated.
    pub groups: u64,
    /// Total cycles spent serving them.
    pub total_cycles: u64,
    /// Cycles in excess of one per group (pure conflict overhead).
    pub conflict_cycles: u64,
    /// Minimum group latency observed.
    pub min_cycles: u32,
    /// Maximum group latency observed.
    pub max_cycles: u32,
    /// Variance of the group latency.
    pub variance: f64,
    /// Latency histogram: `histogram[k]` counts groups served in
    /// `k + 1` cycles (index 0 = conflict-free single-cycle groups,
    /// index 7 = fully serialized). This is the distribution the
    /// paper's Fig. 12(d) summarizes.
    pub histogram: [u64; BANKS],
}

impl ConflictStats {
    /// Mean cycles per group.
    pub fn mean_cycles(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.groups as f64
        }
    }

    /// Latency saving of these stats relative to a baseline
    /// (`1 − total/baseline_total`).
    pub fn latency_saving_vs(&self, baseline: &ConflictStats) -> f64 {
        if baseline.total_cycles == 0 {
            0.0
        } else {
            1.0 - self.total_cycles as f64 / baseline.total_cycles as f64
        }
    }

    /// Record these conflict statistics under `prefix` (e.g.
    /// `"mem.banks"`): group/cycle counters, the mean-latency gauge,
    /// and the per-group latency distribution (paper Fig. 12(d)).
    pub fn record(&self, prefix: &str, report: &mut fusion3d_obs::Report) {
        let m = &mut report.metrics;
        let key = |suffix: &str| {
            let mut name = String::from(prefix);
            name.push('.');
            name.push_str(suffix);
            name
        };
        m.counter_add(&key("groups"), "groups", self.groups);
        m.counter_add(&key("total_cycles"), "cycles", self.total_cycles);
        m.counter_add(&key("conflict_cycles"), "cycles", self.conflict_cycles);
        m.gauge_set(&key("mean_cycles"), "cycles/group", self.mean_cycles());
        for (k, &count) in self.histogram.iter().enumerate() {
            debug_assert!((0..BANKS).contains(&k), "histogram index is bank-bounded");
            m.observe_n(&key("latency"), "cycles", k as u64 + 1, count);
        }
    }
}

/// Simulates the given request groups under a bank mapping.
pub fn simulate_groups<'a, I>(mapping: BankMapping, groups: I) -> ConflictStats
where
    I: IntoIterator<Item = &'a [VertexRequest]>,
{
    let mut n = 0u64;
    let mut total = 0u64;
    let mut conflict = 0u64;
    let mut min = u32::MAX;
    let mut max = 0u32;
    let mut sum_sq = 0.0f64;
    let mut histogram = [0u64; BANKS];
    for group in groups {
        let cycles = mapping.group_cycles(group);
        n += 1;
        total += cycles as u64;
        conflict += (cycles - 1) as u64;
        min = min.min(cycles);
        max = max.max(cycles);
        sum_sq += (cycles as f64) * (cycles as f64);
        histogram[(cycles as usize - 1).min(BANKS - 1)] += 1;
    }
    let variance = if n == 0 {
        0.0
    } else {
        let mean = total as f64 / n as f64;
        (sum_sq / n as f64) - mean * mean
    };
    ConflictStats {
        groups: n,
        total_cycles: total,
        conflict_cycles: conflict,
        min_cycles: if n == 0 { 0 } else { min },
        max_cycles: max,
        variance: variance.max(0.0),
        histogram,
    }
}

/// Builds the eight-corner request group of one sampled point on one
/// hash level, given the corner addresses in corner order.
pub fn group_from_addresses(addresses: [u32; 8]) -> [VertexRequest; 8] {
    let mut out = [VertexRequest { corner: 0, address: 0 }; 8];
    for (i, (&addr, slot)) in addresses.iter().zip(out.iter_mut()).enumerate() {
        debug_assert!(i < 8, "eight corners per group");
        *slot = VertexRequest { corner: i as u8, address: addr };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Mimics the Instant-NGP hash for test groups: corner addresses
    /// with guaranteed X-parity alternation and spread YZ terms.
    fn hash_like_group(base: [u32; 3]) -> [VertexRequest; 8] {
        const P2: u32 = 2_654_435_761;
        const P3: u32 = 805_459_861;
        let mut addrs = [0u32; 8];
        for (i, a) in addrs.iter_mut().enumerate() {
            let x = base[0] + (i as u32 & 1);
            let y = base[1] + ((i as u32 >> 1) & 1);
            let z = base[2] + ((i as u32 >> 2) & 1);
            *a = (x ^ y.wrapping_mul(P2) ^ z.wrapping_mul(P3)) & 0x3FFF;
        }
        group_from_addresses(addrs)
    }

    #[test]
    fn two_level_tiling_is_conflict_free_on_hash_groups() {
        for seed in 0..500u32 {
            let group = hash_like_group([seed * 31 + 2, seed * 17 + 5, seed * 13 + 7]);
            assert_eq!(
                BankMapping::TwoLevelTiling.group_cycles(&group),
                1,
                "group {seed} conflicts"
            );
        }
    }

    #[test]
    fn naive_banking_conflicts_on_adversarial_group() {
        // All eight addresses share their low three bits.
        let group = group_from_addresses([8, 16, 24, 32, 40, 48, 56, 64]);
        assert_eq!(BankMapping::LowOrderBits.group_cycles(&group), 8);
        // Two-level tiling still resolves the YZ/corner structure.
        assert!(BankMapping::TwoLevelTiling.group_cycles(&group) <= 4);
    }

    /// Pseudo-random cell bases via an LCG, so the naive mapping sees
    /// the full spread of conflict patterns (some cell positions
    /// happen to be conflict-free even under naive banking — the
    /// variability the paper's Fig. 12(d) highlights).
    fn random_bases(n: u32) -> Vec<[u32; 3]> {
        let mut state = 0x2545F491u64;
        (0..n)
            .map(|_| {
                let mut next = || {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) as u32 & 0xFFFFF
                };
                [next(), next(), next()]
            })
            .collect()
    }

    #[test]
    fn simulate_reports_zero_variance_under_tiling() {
        let groups: Vec<[VertexRequest; 8]> =
            random_bases(200).into_iter().map(hash_like_group).collect();
        let refs: Vec<&[VertexRequest]> = groups.iter().map(|g| g.as_slice()).collect();
        let tiled = simulate_groups(BankMapping::TwoLevelTiling, refs.iter().copied());
        assert_eq!(tiled.groups, 200);
        assert_eq!(tiled.total_cycles, 200);
        assert_eq!(tiled.conflict_cycles, 0);
        assert_eq!(tiled.min_cycles, 1);
        assert_eq!(tiled.max_cycles, 1);
        assert_eq!(tiled.variance, 0.0);
        // All probability mass sits in the single-cycle bin.
        assert_eq!(tiled.histogram[0], 200);
        assert!(tiled.histogram[1..].iter().all(|&c| c == 0));

        let naive = simulate_groups(BankMapping::LowOrderBits, refs.iter().copied());
        assert!(naive.total_cycles > tiled.total_cycles, "naive must be slower");
        assert!(naive.variance > 0.0, "naive latency must vary");
        // The naive histogram spreads over multiple bins and counts
        // every group exactly once.
        assert!(naive.histogram.iter().filter(|&&c| c > 0).count() > 1);
        assert_eq!(naive.histogram.iter().sum::<u64>(), naive.groups);
        let saving = tiled.latency_saving_vs(&naive);
        assert!(saving > 0.1, "latency saving {saving}");
    }

    #[test]
    fn mean_cycles_and_empty_stats() {
        let empty = simulate_groups(BankMapping::LowOrderBits, std::iter::empty());
        assert_eq!(empty.groups, 0);
        assert_eq!(empty.mean_cycles(), 0.0);
        assert_eq!(empty.min_cycles, 0);
        let group = hash_like_group([1, 2, 3]);
        let one = simulate_groups(BankMapping::TwoLevelTiling, [group.as_slice()]);
        assert_eq!(one.mean_cycles(), 1.0);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_group_rejected() {
        BankMapping::LowOrderBits.group_cycles(&[]);
    }

    proptest! {
        #[test]
        fn prop_tiling_never_exceeds_two_per_bank(bx in 0u32..100_000,
                                                  by in 0u32..100_000,
                                                  bz in 0u32..100_000) {
            // Even for arbitrary (non-hash) addresses, the corner
            // structure alone bounds each bank at 2 requests: each
            // (yz_group, parity) pair receives at most its own two
            // X-neighbours.
            let group = hash_like_group([bx, by, bz]);
            prop_assert!(BankMapping::TwoLevelTiling.group_cycles(&group) <= 2);
            // With the real hash, X-neighbours always split by parity:
            prop_assert_eq!(BankMapping::TwoLevelTiling.group_cycles(&group), 1);
        }

        #[test]
        fn prop_cycles_bounded_by_group_size(addrs: [u32; 8]) {
            let group = group_from_addresses(addrs);
            for mapping in [BankMapping::LowOrderBits, BankMapping::TwoLevelTiling] {
                let c = mapping.group_cycles(&group);
                prop_assert!((1..=8).contains(&c));
            }
        }
    }
}
