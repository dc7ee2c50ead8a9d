//! RGB image buffers and the PSNR quality metric used as the paper's
//! unified evaluation standard (25 PSNR for training, 30 for
//! inference).

use crate::math::Vec3;
use std::fmt;

/// An RGB image with `f32` radiance values in `[0, 1]`.
///
/// Pixels are stored row-major, `(0, 0)` at the top-left.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<Vec3>,
}

impl Image {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        // lint: allow(h2): one pixel-buffer allocation per created
        // image — per frame, not per sample, on the render path
        Image { width, height, pixels: vec![Vec3::ZERO; (width * height) as usize] }
    }

    /// Creates an image filled with `color`.
    pub fn filled(width: u32, height: u32, color: Vec3) -> Self {
        let mut img = Image::new(width, height);
        img.pixels.fill(color);
        img
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

    /// Number of pixels.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.pixels.len()
    }

    /// Flat pixel storage, row-major.
    #[inline]
    pub fn pixels(&self) -> &[Vec3] {
        &self.pixels
    }

    /// Mutable flat pixel storage.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [Vec3] {
        &mut self.pixels
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height, "pixel out of range");
        (y * self.width + x) as usize
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when out of range.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Vec3 {
        // lint: allow(p2): bounds are debug-asserted in `index`, which
        // maps (x, y) into the row-major flat range
        self.pixels[self.index(x, y)]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when out of range.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, color: Vec3) {
        let i = self.index(x, y);
        self.pixels[i] = color;
    }

    /// Mean squared error against another image of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn mse(&self, other: &Image) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image dimensions differ"
        );
        let sum: f64 = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| {
                let d = *a - *b;
                (d.x as f64).powi(2) + (d.y as f64).powi(2) + (d.z as f64).powi(2)
            })
            .sum();
        sum / (self.pixels.len() as f64 * 3.0)
    }

    /// Peak signal-to-noise ratio in dB against a reference image,
    /// assuming a peak value of 1.0. Identical images yield
    /// `f64::INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn psnr(&self, reference: &Image) -> f64 {
        let mse = self.mse(reference);
        if mse == 0.0 {
            f64::INFINITY
        } else {
            -10.0 * mse.log10()
        }
    }

    /// Serializes to a binary PPM (P6) byte vector, for dumping debug
    /// renders. Values are clamped to `[0, 1]` and quantized to 8 bits.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in &self.pixels {
            let c = p.clamp(0.0, 1.0);
            out.push((c.x * 255.0).round() as u8);
            out.push((c.y * 255.0).round() as u8);
            out.push((c.z * 255.0).round() as u8);
        }
        out
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Image({}x{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.pixel_count(), 12);
        assert_eq!(img.get(2, 1), Vec3::ZERO);
        img.set(2, 1, Vec3::ONE);
        assert_eq!(img.get(2, 1), Vec3::ONE);
        assert_eq!(img.pixels()[6], Vec3::ONE);
    }

    #[test]
    fn filled_image() {
        let img = Image::filled(2, 2, Vec3::splat(0.5));
        assert!(img.pixels().iter().all(|&p| p == Vec3::splat(0.5)));
    }

    #[test]
    fn mse_of_identical_images_is_zero() {
        let img = Image::filled(8, 8, Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(img.mse(&img), 0.0);
        assert_eq!(img.psnr(&img), f64::INFINITY);
    }

    #[test]
    fn psnr_known_value() {
        // Constant offset of 0.1 in every channel: MSE = 0.01,
        // PSNR = -10 log10(0.01) = 20 dB.
        let a = Image::filled(16, 16, Vec3::splat(0.5));
        let b = Image::filled(16, 16, Vec3::splat(0.6));
        assert!((a.psnr(&b) - 20.0).abs() < 1e-4);
        // PSNR is symmetric.
        assert_eq!(a.psnr(&b), b.psnr(&a));
    }

    #[test]
    fn psnr_decreases_with_error() {
        let reference = Image::filled(8, 8, Vec3::splat(0.5));
        let close = Image::filled(8, 8, Vec3::splat(0.52));
        let far = Image::filled(8, 8, Vec3::splat(0.8));
        assert!(close.psnr(&reference) > far.psnr(&reference));
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn mse_rejects_mismatched_images() {
        let a = Image::new(4, 4);
        let b = Image::new(4, 5);
        let _ = a.mse(&b);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::filled(3, 2, Vec3::ONE);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), b"P6\n3 2\n255\n".len() + 3 * 2 * 3);
        // Fully white image: all payload bytes 255.
        assert!(ppm[b"P6\n3 2\n255\n".len()..].iter().all(|&b| b == 255));
    }
}
