//! The FP-INT Efficient Multiplier (FIEM), Technique T2-2.
//!
//! Stage II mixes data types: interpolation *weights* derive from
//! fixed-point fractional coordinates (integers), while *features* are
//! floating point. The conventional datapath converts the integer to
//! floating point (INT2FP) and uses a full floating-point multiplier
//! (FPMUL). FIEM instead multiplies the float's fraction directly by
//! the integer in a narrow integer multiplier and adjusts the exponent
//! afterwards — functionally identical, but substantially smaller and
//! lower power (the paper reports 55 % area and 65 % power saving).
//!
//! Both datapaths are modelled bit-accurately here and verified to
//! produce identical results; their hardware costs are modelled in
//! [`crate::cost`].

use crate::softfloat::{compose, F32Parts};

/// Maximum integer magnitude FIEM accepts. The paper's interpolation
/// weights are fixed-point values well inside this range; 2^24 keeps
/// every input exactly representable in `f32` so the reference path is
/// well-defined.
pub const FIEM_MAX_INT: i32 = 1 << 24;

/// Multiplies a finite `f32` by a small integer through the FIEM
/// datapath: the 24-bit significand enters an integer multiplier with
/// `int`, and the exponent is carried around the multiplier unchanged;
/// a single normalize/round stage produces the result.
///
/// # Panics
///
/// Panics if `value` is not finite or `|int| > 2^24`.
///
/// # Examples
///
/// ```
/// use fusion3d_arith::fiem::fiem_mul;
///
/// assert_eq!(fiem_mul(1.5, 4), 6.0);
/// assert_eq!(fiem_mul(-0.375, 3), -1.125);
/// ```
pub fn fiem_mul(value: f32, int: i32) -> f32 {
    assert!(
        (-FIEM_MAX_INT..=FIEM_MAX_INT).contains(&int),
        "FIEM integer operand out of range: {int}"
    );
    let parts = F32Parts::from_f32(value);
    if int == 0 || parts.significand == 0 {
        return if parts.negative != (int < 0) { -0.0 } else { 0.0 };
    }
    // Fraction × integer in a 24×25-bit integer multiplier.
    let product = parts.significand as u64 * int.unsigned_abs() as u64;
    let negative = parts.negative != (int < 0);
    compose(negative, parts.exponent, product)
}

/// The reference datapath: INT2FP conversion followed by a full FPMUL,
/// modelled by the host's IEEE-754 multiplication (integers up to 2^24
/// convert exactly).
///
/// # Panics
///
/// Panics if `value` is not finite or `|int| > 2^24`.
pub fn int2fp_fpmul(value: f32, int: i32) -> f32 {
    assert!(value.is_finite(), "reference path requires finite input");
    assert!((-FIEM_MAX_INT..=FIEM_MAX_INT).contains(&int), "integer operand out of range: {int}");
    value * int as f32
}

/// A fixed-point interpolation weight with `FRAC_BITS` fractional
/// bits, as produced by the accelerator's weight-generation unit from
/// a sample's fractional cell coordinates.
///
/// Trilinear weights are products of three factors in `[0, 1]`, so the
/// raw value fits in `FRAC_BITS + 1` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWeight<const FRAC_BITS: u32>(i32);

impl<const FRAC_BITS: u32> FixedWeight<FRAC_BITS> {
    /// Quantizes a real weight in `[0, 1]` to fixed point.
    ///
    /// # Panics
    ///
    /// Panics if the weight is outside `[0, 1]`.
    pub fn from_f32(w: f32) -> Self {
        // Keeps `1 << FRAC_BITS` exactly representable in f32 and the
        // rounded product provably inside i32 (lint rule A2).
        debug_assert!((0..=24).contains(&FRAC_BITS), "fraction width exceeds f32 significand");
        assert!((0.0..=1.0).contains(&w), "weight out of [0,1]: {w}");
        FixedWeight((w * (1 << FRAC_BITS) as f32).round() as i32)
    }

    /// The raw integer value.
    #[inline]
    pub fn raw(self) -> i32 {
        self.0
    }

    /// The represented real value.
    #[inline]
    pub fn to_f32(self) -> f32 {
        // The same bounds `apply` states: both casts stay within the
        // ±2^24 integers an f32 holds exactly (lint rule A2).
        debug_assert!((0..=24).contains(&FRAC_BITS), "fraction width exceeds f32 significand");
        debug_assert!((0..=1 << FRAC_BITS).contains(&self.0), "weight raw value out of range");
        self.0 as f32 / (1 << FRAC_BITS) as f32
    }

    /// Multiplies a floating-point feature by this weight using FIEM:
    /// one integer multiply plus an exponent shift by `FRAC_BITS`.
    pub fn apply(self, feature: f32) -> f32 {
        // `from_f32` only produces raw values in [0, 2^FRAC_BITS], so
        // the widening to u64 below cannot wrap and the 25×24-bit
        // product fits u64 with room to spare (lint rule A2 verifies
        // both from these bounds).
        debug_assert!((0..=24).contains(&FRAC_BITS), "fraction width exceeds f32 significand");
        debug_assert!((0..=1 << FRAC_BITS).contains(&self.0), "weight raw value out of range");
        let parts = F32Parts::from_f32(feature);
        if self.0 == 0 || parts.significand == 0 {
            return 0.0;
        }
        let product = parts.significand as u64 * self.0 as u64;
        compose(parts.negative, parts.exponent - FRAC_BITS as i32, product)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_small_products() {
        assert_eq!(fiem_mul(1.0, 7), 7.0);
        assert_eq!(fiem_mul(2.5, 2), 5.0);
        assert_eq!(fiem_mul(-3.0, 5), -15.0);
        assert_eq!(fiem_mul(3.0, -5), -15.0);
        assert_eq!(fiem_mul(-3.0, -5), 15.0);
        assert_eq!(fiem_mul(0.0, 123), 0.0);
        assert_eq!(fiem_mul(42.0, 0), 0.0);
    }

    #[test]
    fn matches_reference_on_representative_values() {
        let floats = [
            1.0f32,
            -1.0,
            0.5,
            std::f32::consts::PI,
            -std::f32::consts::E,
            1e-6,
            1e6,
            0.333333,
            123456.78,
            -0.0001,
        ];
        let ints = [0i32, 1, -1, 2, 3, 7, 255, -255, 65535, 1 << 20, -(1 << 24)];
        for &f in &floats {
            for &i in &ints {
                let fiem = fiem_mul(f, i);
                let reference = int2fp_fpmul(f, i);
                assert_eq!(
                    fiem.to_bits(),
                    reference.to_bits(),
                    "FIEM({f}, {i}) = {fiem} != {reference}"
                );
            }
        }
    }

    #[test]
    fn saturates_like_compose_on_overflow() {
        // f32::MAX * 2 saturates rather than producing inf — the
        // datapath's documented flush/saturate behaviour.
        assert_eq!(fiem_mul(f32::MAX, 2), f32::MAX);
        assert_eq!(fiem_mul(-f32::MAX, 2), -f32::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oversized_integer() {
        fiem_mul(1.0, (1 << 24) + 1);
    }

    // `i32::MIN.abs()` overflows, so a magnitude check written with
    // `abs` would panic with the wrong message in debug builds and
    // accept the operand in release builds.
    #[test]
    #[should_panic(expected = "out of range")]
    fn fiem_rejects_i32_min() {
        fiem_mul(1.5, i32::MIN);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reference_rejects_i32_min() {
        int2fp_fpmul(1.5, i32::MIN);
    }

    #[test]
    fn fixed_weight_quantization() {
        let w = FixedWeight::<8>::from_f32(0.5);
        assert_eq!(w.raw(), 128);
        assert_eq!(w.to_f32(), 0.5);
        let one = FixedWeight::<8>::from_f32(1.0);
        assert_eq!(one.raw(), 256);
        let zero = FixedWeight::<8>::from_f32(0.0);
        assert_eq!(zero.apply(123.0), 0.0);
    }

    #[test]
    fn fixed_weight_apply_matches_float_multiply() {
        // With the weight exactly representable, FIEM-by-weight equals
        // the float product exactly.
        let w = FixedWeight::<8>::from_f32(0.25);
        for &f in &[1.0f32, -3.5, 0.123, 1e4] {
            let got = w.apply(f);
            let want = f * 0.25;
            assert_eq!(got.to_bits(), want.to_bits(), "{f} * 0.25");
        }
    }

    #[test]
    fn trilinear_partition_of_unity_in_fixed_point() {
        // The eight trilinear corner weights of any fractional
        // position sum to 1; quantized weights applied through FIEM
        // reconstruct a constant feature within quantization error.
        let fracs = [(0.3f32, 0.6f32, 0.9f32), (0.0, 0.5, 1.0), (0.25, 0.25, 0.25)];
        for (fx, fy, fz) in fracs {
            let feature = 0.75f32;
            let mut total = 0.0f32;
            for i in 0..8 {
                let wx = if i & 1 == 0 { 1.0 - fx } else { fx };
                let wy = if i & 2 == 0 { 1.0 - fy } else { fy };
                let wz = if i & 4 == 0 { 1.0 - fz } else { fz };
                let w = FixedWeight::<10>::from_f32(wx * wy * wz);
                total += w.apply(feature);
            }
            assert!(
                (total - feature).abs() < 8.0 * feature / 1024.0,
                "partition of unity violated: {total} vs {feature}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_fiem_matches_reference(f in -1e30f32..1e30, i in -(1i32 << 24)..(1 << 24)) {
            prop_assume!(f.is_normal() || f == 0.0);
            let fiem = fiem_mul(f, i);
            let reference = int2fp_fpmul(f, i);
            // Identical unless the reference overflowed/underflowed to a
            // non-finite or subnormal value the datapath saturates.
            if reference.is_finite() && (reference == 0.0 || reference.is_normal()) {
                prop_assert_eq!(fiem.to_bits(), reference.to_bits(),
                    "FIEM({}, {}): {} vs {}", f, i, fiem, reference);
            }
        }

        #[test]
        fn prop_fiem_sign_rule(f in 1e-20f32..1e20, i in 1i32..(1 << 24)) {
            prop_assume!(f.is_normal());
            prop_assert!(fiem_mul(f, i) >= 0.0);
            prop_assert!(fiem_mul(-f, i) <= 0.0);
            prop_assert!(fiem_mul(f, -i) <= 0.0);
            prop_assert!(fiem_mul(-f, -i) >= 0.0);
        }

        #[test]
        fn prop_fixed_weight_error_bound(w in 0.0f32..=1.0, f in -100.0f32..100.0) {
            prop_assume!(f.is_normal() || f == 0.0);
            let q = FixedWeight::<10>::from_f32(w);
            let got = q.apply(f);
            let want = w * f;
            // Quantization error of the weight dominates: half an LSB.
            prop_assert!((got - want).abs() <= f.abs() / 1024.0 + 1e-6,
                "w={} f={} got={} want={}", w, f, got, want);
        }
    }
}
