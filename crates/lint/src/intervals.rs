//! The interval lattice for the abstract interpreter.
//!
//! An [`Interval`] over-approximates the set of values an integer (or,
//! with outward rounding, a float) expression can take: `Bottom` is
//! the empty set (unreachable code, uninitialised join inputs) and
//! `[lo, hi]` over `i128` covers every workspace integer type —
//! `u64` arithmetic fits with headroom, and `u128` (unused in
//! accounting code) is truncated to `[0, i128::MAX]`, which only ever
//! *widens* a check's failure, never hides one.
//!
//! All transfer functions are **sound over-approximations**: for every
//! concrete `a ∈ A`, `b ∈ B`, the concrete result of `a ⊕ b` lies in
//! `A ⊕ B` (the exhaustive small-domain test suite in
//! `tests/intervals.rs` checks this over a dense 4-bit grid). The
//! analyzer's own arithmetic saturates at the `i128` rails, so the
//! lattice itself cannot overflow; a saturated bound reads as "at
//! least this far", which again only widens results.
//!
//! Widening is the textbook jump-to-rail operator: a bound that moved
//! since the previous loop iterate is sent straight to the
//! corresponding rail, so any ascending chain stabilises in at most
//! two widening steps per variable (termination is property-tested).

/// An abstract integer value: the empty set, or a closed range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interval {
    /// The empty set of values (⊥).
    Bottom,
    /// Every value `v` with `lo <= v <= hi`.
    Range {
        /// Least possible value (`i128::MIN` means "unbounded below").
        lo: i128,
        /// Greatest possible value (`i128::MAX` means "unbounded above").
        hi: i128,
    },
}

// `add`/`sub`/`neg`/… are abstract *transfer functions*, not the
// arithmetic the std operator traits promise — spelling them as plain
// methods keeps `a.add(b)` visibly abstract at every call site.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The full lattice top `[i128::MIN, i128::MAX]` (⊤).
    pub const TOP: Interval = Interval::Range { lo: i128::MIN, hi: i128::MAX };

    /// `[lo, hi]`, or ⊥ when `lo > hi`.
    pub fn new(lo: i128, hi: i128) -> Interval {
        if lo > hi {
            Interval::Bottom
        } else {
            Interval::Range { lo, hi }
        }
    }

    /// The single value `v`.
    pub fn singleton(v: i128) -> Interval {
        Interval::Range { lo: v, hi: v }
    }

    /// Whether this is the empty set.
    pub fn is_bottom(self) -> bool {
        matches!(self, Interval::Bottom)
    }

    /// The bounds, or `None` for ⊥.
    pub fn bounds(self) -> Option<(i128, i128)> {
        match self {
            Interval::Bottom => None,
            Interval::Range { lo, hi } => Some((lo, hi)),
        }
    }

    /// Whether the concrete value `v` is covered.
    pub fn contains(self, v: i128) -> bool {
        match self {
            Interval::Bottom => false,
            Interval::Range { lo, hi } => lo <= v && v <= hi,
        }
    }

    /// Whether every value of `self` is covered by `other`.
    pub fn subset_of(self, other: Interval) -> bool {
        match (self, other) {
            (Interval::Bottom, _) => true,
            (_, Interval::Bottom) => false,
            (Interval::Range { lo, hi }, Interval::Range { lo: olo, hi: ohi }) => {
                olo <= lo && hi <= ohi
            }
        }
    }

    /// Least upper bound: the smallest interval covering both.
    pub fn join(self, other: Interval) -> Interval {
        match (self, other) {
            (Interval::Bottom, x) | (x, Interval::Bottom) => x,
            (Interval::Range { lo, hi }, Interval::Range { lo: olo, hi: ohi }) => {
                Interval::Range { lo: lo.min(olo), hi: hi.max(ohi) }
            }
        }
    }

    /// Greatest lower bound: the intersection.
    pub fn meet(self, other: Interval) -> Interval {
        match (self, other) {
            (Interval::Bottom, _) | (_, Interval::Bottom) => Interval::Bottom,
            (Interval::Range { lo, hi }, Interval::Range { lo: olo, hi: ohi }) => {
                Interval::new(lo.max(olo), hi.min(ohi))
            }
        }
    }

    /// Widening at loop heads: any bound of `newer` that escaped
    /// `self` jumps straight to its rail, so iteration terminates.
    pub fn widen(self, newer: Interval) -> Interval {
        match (self, newer) {
            (Interval::Bottom, x) => x,
            (x, Interval::Bottom) => x,
            (Interval::Range { lo, hi }, Interval::Range { lo: nlo, hi: nhi }) => Interval::Range {
                lo: if nlo < lo { i128::MIN } else { lo },
                hi: if nhi > hi { i128::MAX } else { hi },
            },
        }
    }

    /// Abstract addition (saturating at the `i128` rails).
    pub fn add(self, other: Interval) -> Interval {
        self.binary(other, |a, b| (a.saturating_add(b), a.saturating_add(b)))
    }

    /// Abstract subtraction.
    pub fn sub(self, other: Interval) -> Interval {
        match (self, other) {
            (Interval::Range { lo, hi }, Interval::Range { lo: olo, hi: ohi }) => {
                Interval::Range { lo: lo.saturating_sub(ohi), hi: hi.saturating_sub(olo) }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract multiplication: the hull of the four corner products.
    pub fn mul(self, other: Interval) -> Interval {
        match (self.bounds(), other.bounds()) {
            (Some((alo, ahi)), Some((blo, bhi))) => {
                let ps = [
                    alo.saturating_mul(blo),
                    alo.saturating_mul(bhi),
                    ahi.saturating_mul(blo),
                    ahi.saturating_mul(bhi),
                ];
                Interval::Range {
                    lo: ps.iter().copied().min().unwrap_or(0),
                    hi: ps.iter().copied().max().unwrap_or(0),
                }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract negation.
    pub fn neg(self) -> Interval {
        match self {
            Interval::Bottom => Interval::Bottom,
            Interval::Range { lo, hi } => {
                Interval::Range { lo: hi.saturating_neg(), hi: lo.saturating_neg() }
            }
        }
    }

    /// Abstract absolute value (covers both `abs` and `unsigned_abs`).
    pub fn abs(self) -> Interval {
        match self {
            Interval::Bottom => Interval::Bottom,
            Interval::Range { lo, hi } => {
                if lo >= 0 {
                    self
                } else if hi <= 0 {
                    self.neg()
                } else {
                    Interval::Range { lo: 0, hi: hi.max(lo.saturating_neg()) }
                }
            }
        }
    }

    /// Abstract left shift. Shift amounts are clamped to `[0, 127]`
    /// for the bound computation — whether the concrete shift amount
    /// is in range for the destination type is the *checker's* job,
    /// not the lattice's.
    pub fn shl(self, amount: Interval) -> Interval {
        match (self.bounds(), amount.bounds()) {
            (Some((lo, hi)), Some((alo, ahi))) => {
                let alo = alo.clamp(0, 127) as u32;
                let ahi = ahi.clamp(0, 127) as u32;
                let corners =
                    [shl_sat(lo, alo), shl_sat(lo, ahi), shl_sat(hi, alo), shl_sat(hi, ahi)];
                Interval::Range {
                    lo: corners.iter().copied().min().unwrap_or(0),
                    hi: corners.iter().copied().max().unwrap_or(0),
                }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract logical/arithmetic right shift (non-negative inputs
    /// shrink toward zero; a possibly-negative input stays ⊤-ish).
    pub fn shr(self, amount: Interval) -> Interval {
        match (self.bounds(), amount.bounds()) {
            (Some((lo, hi)), Some((alo, ahi))) => {
                if lo < 0 {
                    // Arithmetic shift of negatives rounds toward -∞;
                    // the hull of both extremes stays sound.
                    return Interval::Range { lo, hi: hi.max(0) };
                }
                let alo = alo.clamp(0, 127) as u32;
                let ahi = ahi.clamp(0, 127) as u32;
                Interval::Range { lo: lo >> ahi, hi: hi >> alo }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract division. Sound only for divisors that exclude zero;
    /// a divisor interval containing zero yields ⊤ (the panic itself
    /// is P2's concern, not A2's).
    pub fn div(self, other: Interval) -> Interval {
        match (self.bounds(), other.bounds()) {
            (Some((lo, hi)), Some((olo, ohi))) => {
                if olo <= 0 && ohi >= 0 {
                    return Interval::TOP;
                }
                let corners = [
                    lo.saturating_div(olo),
                    lo.saturating_div(ohi),
                    hi.saturating_div(olo),
                    hi.saturating_div(ohi),
                ];
                Interval::Range {
                    lo: corners.iter().copied().min().unwrap_or(0),
                    hi: corners.iter().copied().max().unwrap_or(0),
                }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract remainder for a strictly positive divisor; ⊤ otherwise.
    pub fn rem(self, other: Interval) -> Interval {
        match (self.bounds(), other.bounds()) {
            (Some((lo, _)), Some((olo, ohi))) if olo > 0 => {
                let mag = ohi.saturating_sub(1);
                if lo >= 0 {
                    Interval::Range { lo: 0, hi: mag }
                } else {
                    Interval::Range { lo: mag.saturating_neg(), hi: mag }
                }
            }
            (Some(_), Some(_)) => Interval::TOP,
            _ => Interval::Bottom,
        }
    }

    /// Abstract bitwise AND: exact only in sign reasoning — for
    /// non-negative operands the result is bounded by each operand.
    pub fn bitand(self, other: Interval) -> Interval {
        match (self.bounds(), other.bounds()) {
            (Some((lo, hi)), Some((olo, ohi))) => {
                if lo >= 0 || olo >= 0 {
                    let cap = if lo >= 0 && olo >= 0 {
                        hi.min(ohi)
                    } else if lo >= 0 {
                        hi
                    } else {
                        ohi
                    };
                    Interval::Range { lo: 0, hi: cap }
                } else {
                    Interval::TOP
                }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract bitwise OR: for non-negative operands the result stays
    /// below the next power of two above both upper bounds.
    pub fn bitor(self, other: Interval) -> Interval {
        match (self.bounds(), other.bounds()) {
            (Some((lo, hi)), Some((olo, ohi))) => {
                if lo >= 0 && olo >= 0 {
                    Interval::Range { lo: lo.max(olo), hi: pow2_ceil_mask(hi.max(ohi)) }
                } else {
                    Interval::TOP
                }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract `min`.
    pub fn min_(self, other: Interval) -> Interval {
        match (self.bounds(), other.bounds()) {
            (Some((lo, hi)), Some((olo, ohi))) => {
                Interval::Range { lo: lo.min(olo), hi: hi.min(ohi) }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract `max`.
    pub fn max_(self, other: Interval) -> Interval {
        match (self.bounds(), other.bounds()) {
            (Some((lo, hi)), Some((olo, ohi))) => {
                Interval::Range { lo: lo.max(olo), hi: hi.max(ohi) }
            }
            _ => Interval::Bottom,
        }
    }

    /// Abstract `x.clamp(a, b)`, i.e. `min(max(x, a), b)`. Composing
    /// the `max_`/`min_` transfers is sound for *interval*-valued clamp
    /// bounds (a concrete `a` above `x`'s low bound drags the result
    /// up and out of `x`'s own range), and loses no precision in the
    /// common case where `a` and `b` are singleton constants.
    pub fn clamp_to(self, a: Interval, b: Interval) -> Interval {
        self.max_(a).min_(b)
    }

    /// Saturates this interval into `range`'s rails: the abstract
    /// counterpart of clamping to *known constant* bounds (float `as`
    /// saturation, `saturating_*` results). Equivalent to
    /// `clamp_to(singleton(range.lo), singleton(range.hi))`, but keeps
    /// the callers free of bound plumbing.
    pub fn saturate_to(self, range: Interval) -> Interval {
        match (self.bounds(), range.bounds()) {
            (Some((lo, hi)), Some((rlo, rhi))) => {
                Interval::Range { lo: lo.clamp(rlo, rhi), hi: hi.clamp(rlo, rhi) }
            }
            _ => Interval::Bottom,
        }
    }

    fn binary(self, other: Interval, f: impl Fn(i128, i128) -> (i128, i128)) -> Interval {
        match (self, other) {
            (Interval::Range { lo, hi }, Interval::Range { lo: olo, hi: ohi }) => {
                let (a, _) = f(lo, olo);
                let (_, b) = f(hi, ohi);
                Interval::Range { lo: a, hi: b }
            }
            _ => Interval::Bottom,
        }
    }
}

fn shl_sat(v: i128, amount: u32) -> i128 {
    v.checked_shl(amount).filter(|r| (r >> amount) == v).unwrap_or(if v < 0 {
        i128::MIN
    } else if v == 0 {
        0
    } else {
        i128::MAX
    })
}

/// `2^k - 1` for the smallest `k` with `2^k > v` (used by `bitor`).
fn pow2_ceil_mask(v: i128) -> i128 {
    if v <= 0 {
        return 0;
    }
    let bits = 128 - v.leading_zeros();
    if bits >= 127 {
        i128::MAX
    } else {
        (1i128 << bits) - 1
    }
}

/// The value range of a primitive integer type name, or `None` for an
/// unknown type. `usize`/`isize` are modelled as 64-bit (the only
/// targets the simulator builds for); `u128`'s upper bound truncates
/// to `i128::MAX`, which can only *widen* a containment check.
pub fn type_range(name: &str) -> Option<Interval> {
    let r = match name {
        "i8" => Interval::new(i8::MIN as i128, i8::MAX as i128),
        "i16" => Interval::new(i16::MIN as i128, i16::MAX as i128),
        "i32" => Interval::new(i32::MIN as i128, i32::MAX as i128),
        "i64" | "isize" => Interval::new(i64::MIN as i128, i64::MAX as i128),
        "i128" => Interval::TOP,
        "u8" => Interval::new(0, u8::MAX as i128),
        "u16" => Interval::new(0, u16::MAX as i128),
        "u32" => Interval::new(0, u32::MAX as i128),
        "u64" | "usize" => Interval::new(0, u64::MAX as i128),
        "u128" => Interval::new(0, i128::MAX),
        _ => return None,
    };
    Some(r)
}

/// Bit width of a primitive integer type (64 for `usize`/`isize`).
pub fn type_bits(name: &str) -> Option<u32> {
    Some(match name {
        "i8" | "u8" => 8,
        "i16" | "u16" => 16,
        "i32" | "u32" => 32,
        "i64" | "u64" | "usize" | "isize" => 64,
        "i128" | "u128" => 128,
        _ => return None,
    })
}

/// Whether `name` is a primitive integer type.
pub fn is_int_type(name: &str) -> bool {
    type_bits(name).is_some()
}

/// Whether `name` is a primitive float type.
pub fn is_float_type(name: &str) -> bool {
    matches!(name, "f32" | "f64")
}
