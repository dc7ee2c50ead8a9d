//! Pinhole cameras and per-pixel ray generation (the front of Stage I).

use crate::math::{Ray, Vec3};

/// A rigid camera pose stored as an orthonormal basis plus position.
///
/// The camera looks along `forward`, with `right` and `up` completing
/// a right-handed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Camera position in world coordinates.
    pub position: Vec3,
    /// Unit right axis of the image plane.
    pub right: Vec3,
    /// Unit up axis of the image plane.
    pub up: Vec3,
    /// Unit viewing direction.
    pub forward: Vec3,
}

impl Pose {
    /// Builds a pose at `eye` looking at `target` with the given
    /// approximate up vector.
    ///
    /// # Panics
    ///
    /// Panics if `eye == target` or if `up` is parallel to the view
    /// direction (the frame would be degenerate).
    pub fn look_at(eye: Vec3, target: Vec3, up_hint: Vec3) -> Self {
        // lint: allow(p1): documented panic — a degenerate frame is a caller bug
        let forward = (target - eye).try_normalize().expect("look_at requires eye != target");
        let right = forward
            .cross(up_hint)
            .try_normalize()
            // lint: allow(p1): documented panic — a degenerate frame is a caller bug
            .expect("up hint must not be parallel to the view direction");
        let up = right.cross(forward);
        Pose { position: eye, right, up, forward }
    }
}

/// A pinhole camera: a pose plus intrinsics.
///
/// # Examples
///
/// ```
/// use fusion3d_nerf::camera::{Camera, Pose};
/// use fusion3d_nerf::math::Vec3;
///
/// let pose = Pose::look_at(Vec3::new(0.0, 0.0, -2.0), Vec3::ZERO, Vec3::Y);
/// let cam = Camera::new(pose, 64, 64, 60.0_f32.to_radians());
/// let center = cam.ray_for_pixel(32, 32);
/// // The central ray points roughly along the viewing direction.
/// assert!(center.direction.dot(pose.forward) > 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    pose: Pose,
    width: u32,
    height: u32,
    /// Vertical field of view in radians.
    fov_y: f32,
}

impl Camera {
    /// Creates a camera.
    ///
    /// # Panics
    ///
    /// Panics if either image dimension is zero or the field of view
    /// is not in `(0, π)`.
    pub fn new(pose: Pose, width: u32, height: u32, fov_y: f32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert!(
            fov_y > 0.0 && fov_y < std::f32::consts::PI,
            "field of view must be in (0, pi), got {fov_y}"
        );
        Camera { pose, width, height, fov_y }
    }

    /// The camera pose.
    #[inline]
    pub fn pose(&self) -> &Pose {
        &self.pose
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Vertical field of view in radians.
    #[inline]
    pub fn fov_y(&self) -> f32 {
        self.fov_y
    }

    /// Total number of pixels (rays per frame).
    #[inline]
    pub fn pixel_count(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Generates the unit-direction ray through the center of pixel
    /// `(x, y)`, with `(0, 0)` the top-left pixel.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the pixel is out of range.
    pub fn ray_for_pixel(&self, x: u32, y: u32) -> Ray {
        debug_assert!(x < self.width && y < self.height, "pixel out of range");
        self.ray_for_uv((x as f32 + 0.5) / self.width as f32, (y as f32 + 0.5) / self.height as f32)
    }

    /// Generates the ray through normalized image coordinates
    /// `(u, v) ∈ [0,1]^2`, with `v = 0` the top row.
    pub fn ray_for_uv(&self, u: f32, v: f32) -> Ray {
        let tan_half = (self.fov_y * 0.5).tan();
        let aspect = self.width as f32 / self.height as f32;
        let px = (2.0 * u - 1.0) * tan_half * aspect;
        let py = (1.0 - 2.0 * v) * tan_half;
        let dir = (self.pose.right * px + self.pose.up * py + self.pose.forward).normalize();
        Ray::new(self.pose.position, dir)
    }

    /// Iterates over all pixel rays in row-major order, yielding
    /// `(x, y, ray)`.
    pub fn rays(&self) -> impl Iterator<Item = (u32, u32, Ray)> + '_ {
        let (w, h) = (self.width, self.height);
        (0..h).flat_map(move |y| (0..w).map(move |x| (x, y, self.ray_for_pixel(x, y))))
    }
}

/// Places `count` cameras on a sphere of radius `radius` around
/// `center`, all looking at the center — the capture pattern of the
/// NeRF-Synthetic dataset. Elevations alternate to cover the upper
/// hemisphere; a golden-angle azimuth spiral avoids clustering.
pub fn orbit_poses(center: Vec3, radius: f32, count: usize) -> Vec<Pose> {
    assert!(radius > 0.0, "orbit radius must be positive");
    let golden = std::f32::consts::PI * (3.0 - 5.0f32.sqrt());
    (0..count)
        .map(|i| {
            // lint: allow(p2): the closure only runs for i < count, so
            // count >= 1 here; count == 0 yields no poses, no division
            let frac = (i as f32 + 0.5) / count as f32;
            // Elevation between ~10° and ~60° above the horizon.
            let elev = 0.17 + 0.9 * frac;
            let azim = golden * i as f32;
            let eye = center
                + Vec3::new(
                    radius * elev.cos() * azim.cos(),
                    radius * elev.sin(),
                    radius * elev.cos() * azim.sin(),
                );
            Pose::look_at(eye, center, Vec3::Y)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn look_at_produces_orthonormal_frame() {
        let p = Pose::look_at(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO, Vec3::Y);
        assert!((p.forward.length() - 1.0).abs() < 1e-6);
        assert!((p.right.length() - 1.0).abs() < 1e-6);
        assert!((p.up.length() - 1.0).abs() < 1e-6);
        assert!(p.forward.dot(p.right).abs() < 1e-6);
        assert!(p.forward.dot(p.up).abs() < 1e-6);
        assert!(p.right.dot(p.up).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "eye != target")]
    fn look_at_rejects_degenerate_eye() {
        Pose::look_at(Vec3::ONE, Vec3::ONE, Vec3::Y);
    }

    #[test]
    fn central_ray_is_forward() {
        let pose = Pose::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y);
        let cam = Camera::new(pose, 101, 101, 1.0);
        let r = cam.ray_for_uv(0.5, 0.5);
        assert!(r.direction.dot(pose.forward) > 0.9999);
        assert_eq!(r.origin, pose.position);
    }

    #[test]
    fn corner_rays_diverge_symmetrically() {
        let pose = Pose::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y);
        let cam = Camera::new(pose, 64, 64, 1.2);
        let tl = cam.ray_for_uv(0.0, 0.0);
        let tr = cam.ray_for_uv(1.0, 0.0);
        let bl = cam.ray_for_uv(0.0, 1.0);
        // Top-left and top-right mirror in the right axis.
        assert!((tl.direction.dot(pose.right) + tr.direction.dot(pose.right)).abs() < 1e-5);
        // Top-left and bottom-left mirror in the up axis.
        assert!((tl.direction.dot(pose.up) + bl.direction.dot(pose.up)).abs() < 1e-5);
        // v = 0 is the top row: positive up component.
        assert!(tl.direction.dot(pose.up) > 0.0);
    }

    #[test]
    fn all_rays_unit_length() {
        let pose = Pose::look_at(Vec3::new(2.0, 1.0, -3.0), Vec3::ZERO, Vec3::Y);
        let cam = Camera::new(pose, 8, 6, 0.9);
        let mut count = 0;
        for (_, _, ray) in cam.rays() {
            assert!((ray.direction.length() - 1.0).abs() < 1e-5);
            count += 1;
        }
        assert_eq!(count, 48);
        assert_eq!(cam.pixel_count(), 48);
    }

    #[test]
    fn orbit_poses_lie_on_sphere_and_face_center() {
        let center = Vec3::splat(0.5);
        let poses = orbit_poses(center, 3.0, 24);
        assert_eq!(poses.len(), 24);
        for p in &poses {
            assert!(((p.position - center).length() - 3.0).abs() < 1e-4);
            let toward = (center - p.position).normalize();
            assert!(p.forward.dot(toward) > 0.999);
            // Cameras stay above the horizon.
            assert!(p.position.y > center.y);
        }
    }

    #[test]
    #[should_panic(expected = "field of view")]
    fn camera_rejects_bad_fov() {
        let pose = Pose::look_at(Vec3::new(0.0, 0.0, -1.0), Vec3::ZERO, Vec3::Y);
        Camera::new(pose, 4, 4, 0.0);
    }
}
