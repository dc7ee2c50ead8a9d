//! Gate-level area/power cost models for the arithmetic datapaths.
//!
//! The paper's Technique T2-2 ablation is a *ratio* claim: replacing
//! the conventional INT2FP-then-FPMUL structure with FIEM saves 55 %
//! area and 65 % power (post-layout, Fig. 6(d)). We reproduce the
//! claim with a structural cost model: every datapath is decomposed
//! into multiplier arrays, adders, shifters, and encoders, each costed
//! in full-adder-equivalent gate units; power additionally weights
//! each block by a switching-activity factor. The block constants are
//! calibrated against the paper's published post-layout ratios.

/// Area in full-adder-equivalent gate units and power in
/// gate·activity units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HardwareCost {
    /// Area in full-adder-equivalent gates.
    pub area: f64,
    /// Power in gate·activity units (area × switching activity).
    pub power: f64,
}

impl HardwareCost {
    /// A zero cost.
    pub const ZERO: HardwareCost = HardwareCost { area: 0.0, power: 0.0 };

    /// Creates a cost from an area and an activity factor.
    pub fn new(area: f64, activity: f64) -> Self {
        HardwareCost { area, power: area * activity }
    }
}

impl std::ops::Add for HardwareCost {
    type Output = HardwareCost;
    fn add(self, rhs: HardwareCost) -> HardwareCost {
        HardwareCost { area: self.area + rhs.area, power: self.power + rhs.power }
    }
}

impl std::iter::Sum for HardwareCost {
    fn sum<I: Iterator<Item = HardwareCost>>(iter: I) -> HardwareCost {
        iter.fold(HardwareCost::ZERO, std::ops::Add::add)
    }
}

/// Switching-activity factors per block type, from the calibration
/// against the paper's post-layout power ratio. Conversion logic
/// (priority encode + variable shift) toggles far more than a
/// regularly-clocked multiplier array.
mod activity {
    pub const MULTIPLIER: f64 = 1.0;
    pub const ADDER: f64 = 0.8;
    pub const SHIFTER: f64 = 1.3;
    pub const ENCODER: f64 = 1.8;
    pub const ROUNDING: f64 = 0.9;
}

/// An unsigned array multiplier of `w × h` bits: `w·h` full-adder
/// cells. Switching activity scales with the narrower operand width —
/// a narrow integer operand leaves most partial-product rows quiet,
/// which is where FIEM's disproportionate *power* saving (beyond its
/// area saving) comes from.
pub fn multiplier(w: u32, h: u32) -> HardwareCost {
    // Operands are datapath bit-widths; 64 bounds the `w * h` cell
    // count provably inside u32 (lint rule A2).
    debug_assert!(w <= 64 && h <= 64, "multiplier operand widths are bit counts");
    let narrow = w.min(h) as f64;
    let act = activity::MULTIPLIER * (0.65 + 0.45 * narrow / 24.0);
    HardwareCost::new((w * h) as f64, act)
}

/// A ripple/prefix adder of `bits` width.
pub fn adder(bits: u32) -> HardwareCost {
    HardwareCost::new(bits as f64, activity::ADDER)
}

/// A barrel shifter over `bits` data with full shift range:
/// `bits · log2(bits)` mux cells.
pub fn barrel_shifter(bits: u32) -> HardwareCost {
    HardwareCost::new(bits as f64 * (bits as f64).log2(), activity::SHIFTER)
}

/// A priority encoder over `bits` inputs.
pub fn priority_encoder(bits: u32) -> HardwareCost {
    HardwareCost::new(bits as f64 * 1.5, activity::ENCODER)
}

/// Round-to-nearest-even logic for a `bits`-wide result.
pub fn rounding(bits: u32) -> HardwareCost {
    HardwareCost::new(bits as f64 * 0.5, activity::ROUNDING)
}

/// Fraction width of an `f32` significand including the implicit bit.
pub const F32_SIG_BITS: u32 = 24;

/// Default integer-operand width for Stage II interpolation weights
/// (10 fractional bits, matching the accelerator's weight quantizer).
pub const WEIGHT_BITS: u32 = 10;

/// Cost of a full single-precision floating-point multiplier: 24×24
/// significand array, exponent adder, normalization, rounding.
pub fn fpmul_f32() -> HardwareCost {
    multiplier(F32_SIG_BITS, F32_SIG_BITS)
        + adder(8)
        + barrel_shifter(F32_SIG_BITS)
        + rounding(F32_SIG_BITS)
}

/// Cost of an INT2FP conversion unit for a `int_bits` integer:
/// priority encoder (leading-one detect), normalizing barrel shifter,
/// exponent adjust, rounding.
pub fn int2fp(int_bits: u32) -> HardwareCost {
    priority_encoder(int_bits)
        + barrel_shifter(int_bits.max(F32_SIG_BITS))
        + adder(8)
        + rounding(F32_SIG_BITS)
}

/// Cost of the FIEM datapath for a `int_bits` integer operand: a
/// narrow 24×`int_bits` array, the shared exponent adder, one
/// normalize/round stage.
pub fn fiem(int_bits: u32) -> HardwareCost {
    multiplier(F32_SIG_BITS, int_bits)
        + adder(8)
        + barrel_shifter(F32_SIG_BITS)
        + rounding(F32_SIG_BITS)
}

/// Cost of the conventional reference: INT2FP conversion followed by a
/// full FPMUL.
pub fn int2fp_fpmul(int_bits: u32) -> HardwareCost {
    int2fp(int_bits) + fpmul_f32()
}

/// Side-by-side comparison of the two mixed-precision datapaths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiemComparison {
    /// FIEM datapath cost.
    pub fiem: HardwareCost,
    /// INT2FP + FPMUL reference cost.
    pub reference: HardwareCost,
    /// Fractional area saving (`1 − fiem/reference`).
    pub area_saving: f64,
    /// Fractional power saving.
    pub power_saving: f64,
}

/// Compares FIEM against INT2FP+FPMUL at the given integer width —
/// the model behind the paper's Fig. 6(d).
pub fn compare_fiem(int_bits: u32) -> FiemComparison {
    let f = fiem(int_bits);
    let r = int2fp_fpmul(int_bits);
    FiemComparison {
        fiem: f,
        reference: r,
        area_saving: 1.0 - f.area / r.area,
        power_saving: 1.0 - f.power / r.power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_costs_scale_with_width() {
        assert!(multiplier(24, 24).area > multiplier(24, 8).area);
        assert_eq!(multiplier(16, 16).area, 256.0);
        assert_eq!(adder(32).area, 32.0);
        assert!(barrel_shifter(32).area > barrel_shifter(8).area);
        assert!(priority_encoder(16).area > 0.0);
    }

    #[test]
    fn cost_addition_and_sum() {
        let a = HardwareCost::new(10.0, 1.0);
        let b = HardwareCost::new(5.0, 2.0);
        let c = a + b;
        assert_eq!(c.area, 15.0);
        assert_eq!(c.power, 20.0);
        let s: HardwareCost = [a, b, c].into_iter().sum();
        assert_eq!(s.area, 30.0);
    }

    #[test]
    fn fiem_matches_paper_savings() {
        // The paper reports 55 % area and 65 % power saving at the
        // accelerator's weight precision. The structural model must
        // land in the same regime.
        let cmp = compare_fiem(WEIGHT_BITS);
        assert!(
            (0.45..=0.65).contains(&cmp.area_saving),
            "area saving {} outside the paper's regime",
            cmp.area_saving
        );
        assert!(
            (0.55..=0.75).contains(&cmp.power_saving),
            "power saving {} outside the paper's regime",
            cmp.power_saving
        );
        // Power saving exceeds area saving: the eliminated conversion
        // logic has above-average switching activity.
        assert!(cmp.power_saving > cmp.area_saving);
    }

    #[test]
    fn fiem_saving_shrinks_with_wider_integers() {
        // A wider integer operand grows FIEM's array toward the full
        // FPMUL, shrinking the benefit — the design-space trade-off
        // the paper's choice of narrow weights exploits.
        let narrow = compare_fiem(8);
        let wide = compare_fiem(24);
        assert!(narrow.area_saving > wide.area_saving);
        assert!(wide.area_saving > 0.0, "FIEM never loses: {}", wide.area_saving);
    }

    #[test]
    fn reference_always_costs_more() {
        for bits in [4, 8, 10, 16, 24] {
            let cmp = compare_fiem(bits);
            assert!(cmp.reference.area > cmp.fiem.area);
            assert!(cmp.reference.power > cmp.fiem.power);
        }
    }
}
