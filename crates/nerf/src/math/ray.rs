//! Rays and ray-segment bookkeeping for the sampling stage.

use super::Vec3;

/// A parametric ray `origin + t * direction`.
///
/// Directions are not required to be unit length, but the sampling stage
/// produces unit directions so that the `t` parameter measures metric
/// distance along the ray.
///
/// # Examples
///
/// ```
/// use fusion3d_nerf::math::{Ray, Vec3};
///
/// let ray = Ray::new(Vec3::ZERO, Vec3::X);
/// assert_eq!(ray.at(2.5), Vec3::new(2.5, 0.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin in world or normalized-model coordinates.
    pub origin: Vec3,
    /// Ray direction.
    pub direction: Vec3,
}

impl Ray {
    /// Creates a ray from an origin and direction.
    #[inline]
    pub const fn new(origin: Vec3, direction: Vec3) -> Self {
        Ray { origin, direction }
    }

    /// The point at parameter `t` along the ray.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.direction * t
    }

    /// Returns the ray with its direction normalized to unit length.
    ///
    /// Returns `None` when the direction is (numerically) zero.
    #[inline]
    pub fn normalized(&self) -> Option<Ray> {
        self.direction.try_normalize().map(|d| Ray::new(self.origin, d))
    }

    /// Precomputed reciprocal direction, used by the slab-method
    /// ray–box intersection. Components of a zero direction map to
    /// `±inf`, which the slab method handles correctly.
    #[inline]
    pub fn inv_direction(&self) -> Vec3 {
        Vec3::new(1.0 / self.direction.x, 1.0 / self.direction.y, 1.0 / self.direction.z)
    }
}

/// A `t` interval `[t_near, t_far]` along a ray, produced by ray–box
/// intersection and consumed by the point sampler.
///
/// An interval is *valid* (non-empty) when `t_near <= t_far` and
/// `t_far >= 0`. The sampling stage discards invalid intervals before
/// dispatching work to sampling cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TSpan {
    /// Entry parameter (clamped to zero by [`TSpan::clamped_to_front`]).
    pub t_near: f32,
    /// Exit parameter.
    pub t_far: f32,
}

impl TSpan {
    /// An empty span, used as the identity for intersection.
    pub const EMPTY: TSpan = TSpan { t_near: f32::INFINITY, t_far: f32::NEG_INFINITY };

    /// Creates a span from entry and exit parameters.
    #[inline]
    pub const fn new(t_near: f32, t_far: f32) -> Self {
        TSpan { t_near, t_far }
    }

    /// Whether the span contains at least one point at `t >= 0`.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.t_near <= self.t_far && self.t_far >= 0.0
    }

    /// The span length (zero for invalid spans).
    #[inline]
    pub fn length(&self) -> f32 {
        (self.t_far - self.t_near).max(0.0)
    }

    /// The span with `t_near` clamped to zero, so that sampling never
    /// walks behind the ray origin (the camera).
    #[inline]
    pub fn clamped_to_front(&self) -> TSpan {
        TSpan::new(self.t_near.max(0.0), self.t_far)
    }

    /// Intersection of two spans.
    #[inline]
    pub fn intersect(&self, other: &TSpan) -> TSpan {
        TSpan::new(self.t_near.max(other.t_near), self.t_far.min(other.t_far))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ray_evaluation() {
        let r = Ray::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.0));
        assert_eq!(r.at(0.0), r.origin);
        assert_eq!(r.at(1.5), Vec3::new(1.0, 3.0, 0.0));
    }

    #[test]
    fn ray_normalization() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 4.0));
        let n = r.normalized().unwrap();
        assert!((n.direction.length() - 1.0).abs() < 1e-6);
        assert!(Ray::new(Vec3::ZERO, Vec3::ZERO).normalized().is_none());
    }

    #[test]
    fn inv_direction_handles_zero_components() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, -2.0));
        let inv = r.inv_direction();
        assert_eq!(inv.x, 1.0);
        assert!(inv.y.is_infinite());
        assert_eq!(inv.z, -0.5);
    }

    #[test]
    fn span_validity() {
        assert!(TSpan::new(0.0, 1.0).is_valid());
        assert!(TSpan::new(-1.0, 0.5).is_valid());
        assert!(!TSpan::new(2.0, 1.0).is_valid());
        assert!(!TSpan::new(-3.0, -1.0).is_valid());
        assert!(!TSpan::EMPTY.is_valid());
    }

    #[test]
    fn span_length_and_clamp() {
        assert_eq!(TSpan::new(1.0, 4.0).length(), 3.0);
        assert_eq!(TSpan::new(4.0, 1.0).length(), 0.0);
        let clamped = TSpan::new(-2.0, 5.0).clamped_to_front();
        assert_eq!(clamped.t_near, 0.0);
        assert_eq!(clamped.t_far, 5.0);
    }

    #[test]
    fn span_intersection() {
        let a = TSpan::new(0.0, 3.0);
        let b = TSpan::new(1.0, 5.0);
        let c = a.intersect(&b);
        assert_eq!(c, TSpan::new(1.0, 3.0));
        assert!(!a.intersect(&TSpan::new(4.0, 6.0)).is_valid());
        assert_eq!(a.intersect(&TSpan::EMPTY), TSpan::EMPTY.intersect(&a));
    }
}
