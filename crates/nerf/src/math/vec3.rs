//! Three-component vector used for positions, directions, and colors.

use std::fmt;
use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A three-component `f32` vector.
///
/// `Vec3` is used throughout the crate for 3D positions, ray directions,
/// and RGB radiance values. All arithmetic is component-wise except
/// [`Vec3::dot`] and [`Vec3::cross`].
///
/// # Examples
///
/// ```
/// use fusion3d_nerf::math::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::splat(2.0);
/// assert_eq!(a + b, Vec3::new(3.0, 4.0, 5.0));
/// assert_eq!(a.dot(b), 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3 { x: 1.0, y: 1.0, z: 1.0 };
    /// The unit X axis.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// The unit Y axis.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// The unit Z axis.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from its three components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use fusion3d_nerf::math::Vec3;
    /// assert_eq!(Vec3::splat(3.0), Vec3::new(3.0, 3.0, 3.0));
    /// ```
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    ///
    /// # Examples
    ///
    /// ```
    /// # use fusion3d_nerf::math::Vec3;
    /// assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
    /// ```
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn length_squared(self) -> f32 {
        self.dot(self)
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.length_squared().sqrt()
    }

    /// Returns the vector scaled to unit length.
    ///
    /// # Panics
    ///
    /// Does not panic, but returns a vector of NaNs when `self` has zero
    /// length. Use [`Vec3::try_normalize`] when the input may be zero.
    #[inline]
    pub fn normalize(self) -> Vec3 {
        self / self.length()
    }

    /// Returns the unit-length vector, or `None` if the length is too
    /// small for a numerically meaningful direction.
    #[inline]
    pub fn try_normalize(self) -> Option<Vec3> {
        let len = self.length();
        if len > 1e-12 {
            Some(self / len)
        } else {
            None
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Smallest of the three components.
    #[inline]
    pub fn min_element(self) -> f32 {
        self.x.min(self.y).min(self.z)
    }

    /// Largest of the three components.
    #[inline]
    pub fn max_element(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Component-wise product (Hadamard product).
    #[inline]
    pub fn hadamard(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Component-wise floor.
    #[inline]
    pub fn floor(self) -> Vec3 {
        Vec3::new(self.x.floor(), self.y.floor(), self.z.floor())
    }

    /// Component-wise fractional part (`self - self.floor()`).
    #[inline]
    pub fn fract(self) -> Vec3 {
        self - self.floor()
    }

    /// Component-wise clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: f32, hi: f32) -> Vec3 {
        Vec3::new(self.x.clamp(lo, hi), self.y.clamp(lo, hi), self.z.clamp(lo, hi))
    }

    /// Linear interpolation `self * (1 - t) + rhs * t`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use fusion3d_nerf::math::Vec3;
    /// let mid = Vec3::ZERO.lerp(Vec3::ONE, 0.5);
    /// assert_eq!(mid, Vec3::splat(0.5));
    /// ```
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f32) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_squared(self, rhs: Vec3) -> f32 {
        (self - rhs).length_squared()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f32 {
        self.distance_squared(rhs).sqrt()
    }

    /// Returns `true` when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// The components as an array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;

    /// Indexes the components as `0 => x`, `1 => y`, `2 => z`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    fn index(&self, index: usize) -> &f32 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            // lint: allow(p1): the Index contract requires an out-of-bounds panic
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        match index {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            // lint: allow(p1): the Index contract requires an out-of-bounds panic
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f32> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f32) {
        *self = *self * rhs;
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f32> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f32) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Vec3::new(1.0, 2.0, 3.0).to_array(), [1.0, 2.0, 3.0]);
        assert_eq!(Vec3::splat(7.0), Vec3::new(7.0, 7.0, 7.0));
        assert_eq!(Vec3::default(), Vec3::ZERO);
        assert_eq!(Vec3::from([4.0, 5.0, 6.0]), Vec3::new(4.0, 5.0, 6.0));
    }

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        let mut c = a;
        c += b;
        c -= a;
        c *= 2.0;
        c /= 2.0;
        assert_eq!(c, b);
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.dot(b), 32.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        // Cross product is perpendicular to both operands.
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-5);
        assert!(c.dot(b).abs() < 1e-5);
    }

    #[test]
    fn lengths_and_normalize() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.length_squared(), 25.0);
        assert_eq!(v.length(), 5.0);
        let n = v.normalize();
        assert!((n.length() - 1.0).abs() < 1e-6);
        assert!(Vec3::ZERO.try_normalize().is_none());
        assert!(v.try_normalize().is_some());
    }

    #[test]
    fn component_ops() {
        let a = Vec3::new(-1.0, 2.5, 3.0);
        let b = Vec3::new(0.0, 2.0, 4.0);
        assert_eq!(a.min(b), Vec3::new(-1.0, 2.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(0.0, 2.5, 4.0));
        assert_eq!(a.min_element(), -1.0);
        assert_eq!(a.max_element(), 3.0);
        assert_eq!(a.abs(), Vec3::new(1.0, 2.5, 3.0));
        assert_eq!(a.floor(), Vec3::new(-1.0, 2.0, 3.0));
        assert_eq!(a.fract(), Vec3::new(0.0, 0.5, 0.0));
        assert_eq!(a.clamp(0.0, 2.0), Vec3::new(0.0, 2.0, 2.0));
        assert_eq!(a.hadamard(b), Vec3::new(0.0, 5.0, 12.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(5.0, 6.0, 7.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(3.0, 4.0, 5.0));
    }

    #[test]
    fn distances() {
        let a = Vec3::ZERO;
        let b = Vec3::new(0.0, 3.0, 4.0);
        assert_eq!(a.distance_squared(b), 25.0);
        assert_eq!(a.distance(b), 5.0);
    }

    #[test]
    fn indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 3.0);
        v[1] = 9.0;
        assert_eq!(v.y, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn sum_iterator() {
        let total: Vec3 = (0..4).map(|i| Vec3::splat(i as f32)).sum();
        assert_eq!(total, Vec3::splat(6.0));
    }

    #[test]
    fn finiteness() {
        assert!(Vec3::ONE.is_finite());
        assert!(!Vec3::new(f32::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f32::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn display_format() {
        assert_eq!(Vec3::new(1.0, 2.5, -3.0).to_string(), "(1, 2.5, -3)");
    }
}
