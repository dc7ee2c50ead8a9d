//! Axis-aligned bounding boxes and ray–box intersection.
//!
//! The paper's Technique T1-1 (*Model Normalization & Partitioning*)
//! contrasts two intersection paths:
//!
//! * [`Aabb::intersect_general`] — the general ray–box test against an
//!   arbitrary box, which on the standard pipeline costs solving six
//!   linear plane equations (18 divisions, 54 multiplications, and 54
//!   additions per the paper's accounting of [26]);
//! * the simplified test against the *normalized* `[0,1]^3` model
//!   cube, which costs only 3 multiplications and 3 multiply-accumulate
//!   operations because the box planes are constants and the
//!   reciprocal direction is computed once per ray. The host runs it as
//!   [`crate::sampler::ray_cube_pairs`], against all eight
//!   [`Aabb::octants`] of the cube at once; `intersect_general` over
//!   the octants is its oracle.
//!
//! [`GENERAL_INTERSECT_COST`] and [`NORMALIZED_INTERSECT_COST`] give
//! both paths' arithmetic as an [`OpCount`] so that the accelerator
//! simulator and the T1 ablation (Table VI) can account for the
//! computational saving.

use super::{Ray, TSpan, Vec3};

/// Arithmetic operation counts for a computation, used to drive the
/// cycle and energy models of the accelerator simulator.
///
/// Counts are additive: combining two computations sums their counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCount {
    /// Number of divisions.
    pub div: u64,
    /// Number of multiplications.
    pub mul: u64,
    /// Number of additions/subtractions.
    pub add: u64,
    /// Number of fused multiply-accumulate operations.
    pub mac: u64,
}

impl OpCount {
    /// A count of zero operations.
    pub const ZERO: OpCount = OpCount { div: 0, mul: 0, add: 0, mac: 0 };

    /// Creates an operation count.
    #[inline]
    pub const fn new(div: u64, mul: u64, add: u64, mac: u64) -> Self {
        OpCount { div, mul, add, mac }
    }

    /// Total scalar operations, counting a MAC as one fused op.
    #[inline]
    pub const fn total(&self) -> u64 {
        self.div + self.mul + self.add + self.mac
    }

    /// Weighted cost where a division costs `div_weight` basic ops
    /// (hardware dividers are substantially more expensive than
    /// multipliers; the simulator uses this to convert counts into
    /// cycles).
    #[inline]
    pub const fn weighted(&self, div_weight: u64) -> u64 {
        self.div * div_weight + self.mul + self.add + self.mac
    }
}

impl std::ops::Add for OpCount {
    type Output = OpCount;
    #[inline]
    fn add(self, rhs: OpCount) -> OpCount {
        OpCount {
            div: self.div + rhs.div,
            mul: self.mul + rhs.mul,
            add: self.add + rhs.add,
            mac: self.mac + rhs.mac,
        }
    }
}

impl std::ops::AddAssign for OpCount {
    #[inline]
    fn add_assign(&mut self, rhs: OpCount) {
        *self = *self + rhs;
    }
}

/// The arithmetic cost of one general (unnormalized) ray–box
/// intersection, as accounted by the paper: solving six linear plane
/// equations requires 18 divisions, 54 multiplications, and 54
/// additions.
pub const GENERAL_INTERSECT_COST: OpCount = OpCount::new(18, 54, 54, 0);

/// The arithmetic cost of one normalized unit-cube intersection under
/// Technique T1-1: 3 multiplications and 3 MACs (the per-ray reciprocal
/// direction is shared across all eight partition cubes).
pub const NORMALIZED_INTERSECT_COST: OpCount = OpCount::new(0, 3, 0, 3);

/// An axis-aligned bounding box.
///
/// # Examples
///
/// ```
/// use fusion3d_nerf::math::{Aabb, Ray, Vec3};
///
/// let unit = Aabb::unit_cube();
/// let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
/// let span = unit.intersect_general(&ray).expect("ray hits the cube");
/// assert!((span.t_near - 1.0).abs() < 1e-6);
/// assert!((span.t_far - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from its two corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when any `min` component exceeds the
    /// corresponding `max` component.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb min must not exceed max: min={min:?} max={max:?}"
        );
        Aabb { min, max }
    }

    /// The normalized model cube `[0,0,0]..[1,1,1]` that Technique
    /// T1-1 maps every scene into.
    #[inline]
    pub fn unit_cube() -> Self {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    /// Box center.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Box extent (`max - min`).
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Whether `p` lies inside the box (inclusive bounds).
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The affine map taking this box onto the unit cube, returned as
    /// `(scale, offset)` such that `normalized = (p - offset).hadamard(scale)`.
    ///
    /// This is the *model normalization* step of Technique T1-1: once a
    /// scene's bounding box is known, every world-space point and camera
    /// is remapped so that all subsequent intersection tests run against
    /// the fixed `[0,1]^3` cube.
    #[inline]
    pub fn normalization(&self) -> (Vec3, Vec3) {
        let e = self.extent();
        let scale = Vec3::new(
            if e.x > 0.0 { 1.0 / e.x } else { 1.0 },
            if e.y > 0.0 { 1.0 / e.y } else { 1.0 },
            if e.z > 0.0 { 1.0 / e.z } else { 1.0 },
        );
        (scale, self.min)
    }

    /// Maps a world-space point into normalized model coordinates.
    #[inline]
    pub fn normalize_point(&self, p: Vec3) -> Vec3 {
        let (scale, offset) = self.normalization();
        (p - offset).hadamard(scale)
    }

    /// General slab-method ray–box intersection against an arbitrary
    /// box. Returns the entry/exit span, or `None` when the ray misses.
    ///
    /// This models the *unoptimized* Stage-I path: each call accounts
    /// for [`GENERAL_INTERSECT_COST`] in the accelerator's cost model.
    pub fn intersect_general(&self, ray: &Ray) -> Option<TSpan> {
        let mut span = TSpan::new(f32::NEG_INFINITY, f32::INFINITY);
        for axis in 0..3 {
            let (o, d) = (ray.origin[axis], ray.direction[axis]);
            let (lo, hi) = (self.min[axis], self.max[axis]);
            if d == 0.0 {
                // Axis-parallel: the ray misses unless the origin lies
                // inside the slab (inclusive, so boundary rays hit).
                if o < lo || o > hi {
                    return None;
                }
            } else {
                let inv = 1.0 / d;
                let (t0, t1) = ((lo - o) * inv, (hi - o) * inv);
                span = span.intersect(&TSpan::new(t0.min(t1), t0.max(t1)));
            }
        }
        if span.is_valid() {
            Some(span.clamped_to_front())
        } else {
            None
        }
    }

    /// The eight octant sub-cubes of this box, indexed so that bit 0 of
    /// the index selects the upper X half, bit 1 the upper Y half, and
    /// bit 2 the upper Z half.
    ///
    /// Technique T1-1 partitions the normalized space into these eight
    /// cubes and tests every ray against all of them in parallel; only
    /// ray–cube pairs with valid intersections are dispatched to the
    /// sampling cores.
    pub fn octants(&self) -> [Aabb; 8] {
        let c = self.center();
        let mut out = [*self; 8];
        for (i, cube) in out.iter_mut().enumerate() {
            let min = Vec3::new(
                if i & 1 == 0 { self.min.x } else { c.x },
                if i & 2 == 0 { self.min.y } else { c.y },
                if i & 4 == 0 { self.min.z } else { c.z },
            );
            *cube = Aabb::new(min, min + self.extent() * 0.5);
        }
        out
    }
}

impl Default for Aabb {
    /// The unit cube.
    fn default() -> Self {
        Aabb::unit_cube()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_span_close(a: TSpan, near: f32, far: f32) {
        assert!((a.t_near - near).abs() < 1e-5, "t_near {} != {near}", a.t_near);
        assert!((a.t_far - far).abs() < 1e-5, "t_far {} != {far}", a.t_far);
    }

    #[test]
    fn op_count_arithmetic() {
        let a = OpCount::new(1, 2, 3, 4);
        let b = OpCount::new(10, 20, 30, 40);
        let c = a + b;
        assert_eq!(c, OpCount::new(11, 22, 33, 44));
        assert_eq!(c.total(), 110);
        assert_eq!(OpCount::new(2, 1, 1, 0).weighted(10), 22);
        let mut d = OpCount::ZERO;
        d += a;
        assert_eq!(d, a);
    }

    #[test]
    fn paper_cost_constants() {
        // The paper's accounting: general = 18 div + 54 mul + 54 add;
        // normalized = 3 mul + 3 MAC.
        assert_eq!(GENERAL_INTERSECT_COST.total(), 126);
        assert_eq!(NORMALIZED_INTERSECT_COST.total(), 6);
        // The saving that motivates T1-1 is >20x in raw op count.
        assert!(GENERAL_INTERSECT_COST.total() / NORMALIZED_INTERSECT_COST.total() >= 20);
    }

    #[test]
    fn basic_geometry() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extent(), Vec3::new(2.0, 4.0, 6.0));
        assert!(b.contains(Vec3::new(1.0, 1.0, 1.0)));
        assert!(b.contains(b.min) && b.contains(b.max));
        assert!(!b.contains(Vec3::new(-0.1, 1.0, 1.0)));
    }

    #[test]
    fn normalization_maps_box_to_unit_cube() {
        let b = Aabb::new(Vec3::new(-2.0, 0.0, 4.0), Vec3::new(2.0, 8.0, 5.0));
        assert_eq!(b.normalize_point(b.min), Vec3::ZERO);
        assert_eq!(b.normalize_point(b.max), Vec3::ONE);
        assert_eq!(b.normalize_point(b.center()), Vec3::splat(0.5));
    }

    #[test]
    fn general_intersection_cases() {
        let b = Aabb::unit_cube();
        // Straight through the middle.
        let hit = b.intersect_general(&Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X)).unwrap();
        assert_span_close(hit, 1.0, 2.0);
        // Miss to the side.
        assert!(b.intersect_general(&Ray::new(Vec3::new(-1.0, 2.0, 0.5), Vec3::X)).is_none());
        // Box entirely behind the origin.
        assert!(b.intersect_general(&Ray::new(Vec3::new(3.0, 0.5, 0.5), Vec3::X)).is_none());
        // Origin inside the box: near clamps to zero.
        let inside = b.intersect_general(&Ray::new(Vec3::splat(0.5), Vec3::X)).unwrap();
        assert_span_close(inside, 0.0, 0.5);
    }

    #[test]
    fn octants_partition_the_cube() {
        let cube = Aabb::unit_cube();
        let octs = cube.octants();
        // Each octant has half the extent.
        for o in &octs {
            assert_eq!(o.extent(), Vec3::splat(0.5));
            // Octant corners stay inside the parent.
            assert!(cube.contains(o.min) && cube.contains(o.max));
        }
        // The eight octants cover all corners of the parent cube.
        assert_eq!(octs[0].min, Vec3::ZERO);
        assert_eq!(octs[7].max, Vec3::ONE);
        // Octant index bits select the half-space.
        assert_eq!(octs[1].min.x, 0.5);
        assert_eq!(octs[2].min.y, 0.5);
        assert_eq!(octs[4].min.z, 0.5);
        // Volumes sum to the parent volume.
        let vol: f32 = octs
            .iter()
            .map(|o| {
                let e = o.extent();
                e.x * e.y * e.z
            })
            .sum();
        assert!((vol - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ray_intersects_union_of_octants_iff_it_intersects_cube() {
        let cube = Aabb::unit_cube();
        let octs = cube.octants();
        // Rays avoid the exact octant-boundary planes (x/y/z = 0.5),
        // where the slab method is degenerate for axis-parallel rays.
        let rays = [
            Ray::new(Vec3::new(-1.0, 0.3, 0.7), Vec3::X),
            Ray::new(Vec3::new(0.51, 0.49, -1.0), Vec3::Z),
            Ray::new(Vec3::new(-1.0, 5.0, 0.5), Vec3::X),
        ];
        for ray in rays {
            let whole = cube.intersect_general(&ray).is_some();
            let any_oct = octs.iter().any(|o| o.intersect_general(&ray).is_some());
            assert_eq!(whole, any_oct, "octant coverage mismatch for {ray:?}");
        }
    }
}
