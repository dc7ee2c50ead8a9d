//! Compact binary serialization of trained models.
//!
//! A core motivation of the paper (Sec. I) is NeRF's small storage
//! footprint — roughly 10 MB of parameters, far below point-cloud
//! reconstructions — which is what makes streaming a freshly-trained
//! scene over a 0.625 GB/s USB link practical. This module provides
//! that artifact: a versioned binary container for a model's three
//! parameter groups plus its occupancy grid, with a choice of `f32`
//! or `f16` parameter precision (the inference datapath's storage
//! format, halving the payload at negligible quality cost).
//!
//! The format is deliberately simple and self-describing:
//!
//! ```text
//! magic  "F3DM"            4 bytes
//! version u16              (currently 1)
//! precision u8             0 = f32, 1 = f16
//! reserved u8              0
//! geo_feature_dim u32
//! counts: encoding, density, color parameter counts   3 × u64
//! occupancy: resolution u32, threshold f32, bitmap    ceil(res³/8) bytes
//! parameters                encoding ‖ density ‖ color
//! ```
//!
//! Decoding is exact: a container either decodes to a model and grid
//! that encode back to the same bytes, or returns a [`DecodeError`].
//! So the container is exactly as long as its header says, the reserved
//! byte and the bitmap's padding bits are zero, the threshold is a
//! finite non-negative number with a clear sign bit, the geometry-
//! feature width matches the model, and an f16 NaN carries the one
//! payload the encoder writes.

use crate::encoding::Encoding;
use crate::model::NerfModel;
use crate::occupancy::OccupancyGrid;

/// Magic bytes identifying a Fusion-3D model container.
pub const MAGIC: [u8; 4] = *b"F3DM";
/// Current container version.
pub const VERSION: u16 = 1;

/// Parameter storage precision inside the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// IEEE-754 single precision (lossless).
    F32,
    /// IEEE-754 half precision (half the size; rounds parameters).
    F16,
}

impl Precision {
    fn tag(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
        }
    }

    fn bytes_per_param(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 => 2,
        }
    }
}

/// Errors produced when decoding a model container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input is shorter than its header claims.
    Truncated,
    /// The magic bytes do not match [`MAGIC`].
    BadMagic,
    /// The container version is not supported.
    UnsupportedVersion(u16),
    /// Unknown precision tag.
    BadPrecision(u8),
    /// The occupancy-grid resolution is zero.
    ZeroResolution,
    /// The stored parameter counts do not match the target model.
    ShapeMismatch {
        /// Expected (encoding, density, color) counts.
        expected: (u64, u64, u64),
        /// Counts found in the container.
        found: (u64, u64, u64),
    },
    /// A field holds a value the encoder never writes, naming the
    /// field: bytes past the container's end, a nonzero reserved byte,
    /// a geometry-feature width other than the model's, a negative or
    /// non-finite threshold, set bitmap padding bits, or an f16 NaN
    /// payload that would not encode back.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "container is truncated"),
            DecodeError::BadMagic => write!(f, "not a Fusion-3D model container"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported container version {v}"),
            DecodeError::BadPrecision(t) => write!(f, "unknown precision tag {t}"),
            DecodeError::ZeroResolution => write!(f, "occupancy resolution is zero"),
            DecodeError::ShapeMismatch { expected, found } => {
                write!(f, "parameter shape mismatch: expected {expected:?}, found {found:?}")
            }
            DecodeError::Malformed(field) => write!(f, "malformed container: {field}"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Writer(Vec<u8>);

impl Writer {
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn params(&mut self, values: &[f32], precision: Precision) {
        match precision {
            Precision::F32 => {
                for v in values {
                    self.f32(*v);
                }
            }
            Precision::F16 => {
                for v in values {
                    self.0.extend_from_slice(&fusion3d_arith_f16_bits(*v).to_le_bytes());
                }
            }
        }
    }
}

// A minimal local f32 -> f16 conversion so `fusion3d-nerf` does not
// depend on `fusion3d-arith` (which sits above it in the workspace
// layering). Round-to-nearest-even, matching `fusion3d_arith::half`.
fn fusion3d_arith_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x7F_FFFF;
    if exp == 0xFF {
        return if frac == 0 { sign | 0x7C00 } else { sign | 0x7E00 };
    }
    let h_exp = exp - 127 + 15;
    if h_exp >= 0x1F {
        return sign | 0x7C00;
    }
    if h_exp <= 0 {
        if h_exp < -10 {
            return sign;
        }
        let sig = frac | 0x80_0000;
        // f16 subnormal LSB weighs 2^-24; the significand carries
        // 2^(unbiased - 23) per unit, so shift right by -unbiased - 1.
        let shift = (-(exp - 127) - 1) as u32;
        let sub = sig >> shift;
        let remainder = sig & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let round_up = remainder > half || (remainder == half && sub & 1 == 1);
        return sign | (sub + round_up as u32) as u16;
    }
    let sub = frac >> 13;
    let remainder = frac & 0x1FFF;
    let round_up = remainder > 0x1000 || (remainder == 0x1000 && sub & 1 == 1);
    let mut h = (h_exp as u32) << 10 | sub;
    h += round_up as u32;
    if h >= 0x7C00 {
        return sign | 0x7C00;
    }
    sign | h as u16
}

fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as i32;
    let frac = (bits & 0x3FF) as u32;
    let out = if exp == 0x1F {
        sign | 0x7F80_0000 | (frac << 13)
    } else if exp == 0 {
        if frac == 0 {
            sign
        } else {
            let mut e = -14i32;
            let mut f = frac;
            while f & 0x400 == 0 {
                f <<= 1;
                e -= 1;
            }
            sign | (((e + 127) as u32) << 23) | ((f & 0x3FF) << 13)
        }
    } else {
        sign | (((exp - 15 + 127) as u32) << 23) | (frac << 13)
    };
    f32::from_bits(out)
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.data.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    /// Reads exactly `N` bytes into a fixed array (the checked,
    /// panic-free counterpart of `take(N).try_into()`).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }
    fn params(&mut self, out: &mut [f32], precision: Precision) -> Result<(), DecodeError> {
        match precision {
            Precision::F32 => {
                for v in out.iter_mut() {
                    *v = self.f32()?;
                }
            }
            Precision::F16 => {
                for v in out.iter_mut() {
                    let bits = self.u16()?;
                    // The encoder writes every NaN as the quiet NaN of
                    // its sign, so no other payload encodes back.
                    let nan = bits & 0x7C00 == 0x7C00 && bits & 0x03FF != 0;
                    if nan && bits & 0x7FFF != 0x7E00 {
                        return Err(DecodeError::Malformed("f16 NaN payload"));
                    }
                    *v = f16_bits_to_f32(bits);
                }
            }
        }
        Ok(())
    }
}

/// Serializes a trained model plus its occupancy grid into a
/// self-contained byte vector.
pub fn encode_model<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    precision: Precision,
) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(64 + model.param_count() * precision.bytes_per_param()));
    w.0.extend_from_slice(&MAGIC);
    w.u16(VERSION);
    w.0.push(precision.tag());
    w.0.push(0); // reserved
    w.u32(model.geo_feature_dim() as u32);
    w.u64(model.grid().param_count() as u64);
    w.u64(model.density_mlp().param_count() as u64);
    w.u64(model.color_mlp().param_count() as u64);
    // Occupancy grid: resolution, threshold, packed bitmap.
    w.u32(occupancy.resolution());
    w.f32(occupancy.threshold());
    let cells = occupancy.cell_count();
    let mut bitmap = vec![0u8; cells.div_ceil(8)];
    for cell in occupancy.occupied_cells() {
        bitmap[cell / 8] |= 1 << (cell % 8);
    }
    w.0.extend_from_slice(&bitmap);
    // Parameters.
    w.params(model.grid().params(), precision);
    w.params(model.density_mlp().params(), precision);
    w.params(model.color_mlp().params(), precision);
    w.0
}

/// Decodes a container into an existing model of matching shape,
/// returning the restored occupancy grid.
///
/// The model supplies the architecture (the container stores only
/// parameters); counts are verified against it.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the container is malformed or its
/// shapes do not match `model`: whenever its bytes are not exactly what
/// [`encode_model`] writes for the model and grid it would decode to.
pub fn decode_model_into<E: Encoding>(
    data: &[u8],
    model: &mut NerfModel<E>,
) -> Result<OccupancyGrid, DecodeError> {
    let mut r = Reader { data, pos: 0 };
    // The whole container is there (checked against the header's
    // resolution), so the grid allocated below is bounded by the input.
    let header = read_header(&mut r)?;
    let expected = (
        model.grid().param_count() as u64,
        model.density_mlp().param_count() as u64,
        model.color_mlp().param_count() as u64,
    );
    if header.param_counts != expected {
        return Err(DecodeError::ShapeMismatch { expected, found: header.param_counts });
    }
    if header.geo_feature_dim as usize != model.geo_feature_dim() {
        return Err(DecodeError::Malformed("geometry-feature width"));
    }
    let threshold = r.f32()?;
    if !threshold.is_finite() || threshold.is_sign_negative() {
        return Err(DecodeError::Malformed("occupancy threshold"));
    }
    let resolution = header.occupancy_resolution;
    let cells = (resolution as usize).pow(3);
    let bitmap = r.take(cells.div_ceil(8))?;
    // The last byte's bits past the last cell.
    let padding = bitmap.last().map_or(0, |&byte| byte >> (cells % 8));
    if !cells.is_multiple_of(8) && padding != 0 {
        return Err(DecodeError::Malformed("occupancy bitmap padding"));
    }
    let mut occupancy = OccupancyGrid::new(resolution, threshold);
    for cell in 0..cells {
        if bitmap[cell / 8] >> (cell % 8) & 1 == 1 {
            occupancy.set_cell(cell, true);
        }
    }
    r.params(model.grid_mut().params_mut(), header.precision)?;
    r.params(model.density_mlp_mut().params_mut(), header.precision)?;
    r.params(model.color_mlp_mut().params_mut(), header.precision)?;
    Ok(occupancy)
}

/// The container size in bytes for a model at a given precision,
/// without encoding it.
pub fn container_size<E: Encoding>(
    model: &NerfModel<E>,
    occupancy: &OccupancyGrid,
    precision: Precision,
) -> usize {
    // Header: 4 magic + 2 version + 2 flags + 4 geo + 24 counts +
    // 4 resolution + 4 threshold.
    44 + occupancy.cell_count().div_ceil(8) + model.param_count() * precision.bytes_per_param()
}

/// The self-describing prefix of a model container, decoded without
/// touching the parameter payload.
///
/// This is the serving layer's load/evict hook: a scene registry can
/// price a container against its residency budget (and verify it
/// matches the architecture it would be decoded into) from the first
/// 44 bytes alone, deferring the full parameter decode until the
/// scene is actually admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerHeader {
    /// Container format version (currently [`VERSION`]).
    pub version: u16,
    /// Parameter storage precision of the payload.
    pub precision: Precision,
    /// Geometry-feature width recorded by the trainer.
    pub geo_feature_dim: u32,
    /// Stored (encoding, density MLP, color MLP) parameter counts.
    pub param_counts: (u64, u64, u64),
    /// Occupancy-grid resolution (cells per axis).
    pub occupancy_resolution: u32,
}

impl ContainerHeader {
    /// Total parameter count across the three groups.
    pub fn param_count(&self) -> u64 {
        let (e, d, c) = self.param_counts;
        e.saturating_add(d).saturating_add(c)
    }

    /// Exact byte size of a well-formed container with this header —
    /// the unit the registry's LRU byte budget is charged in. The
    /// arithmetic saturates, so a hostile resolution or parameter count
    /// gives a size no input reaches instead of overflowing.
    pub fn container_bytes(&self) -> u64 {
        let cells = (self.occupancy_resolution as u64).saturating_pow(3);
        let params = self.param_count().saturating_mul(self.precision.bytes_per_param() as u64);
        44u64.saturating_add(cells.div_ceil(8)).saturating_add(params)
    }
}

/// Decodes only the fixed-size container header, and checks that
/// `data` is exactly as long as the header says the container is.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the prefix is truncated, the magic
/// or version is wrong, the precision tag is unknown, the reserved byte
/// is not zero, the occupancy resolution is zero, or `data` is shorter
/// ([`DecodeError::Truncated`]) or longer ([`DecodeError::Malformed`])
/// than [`ContainerHeader::container_bytes`].
pub fn peek_header(data: &[u8]) -> Result<ContainerHeader, DecodeError> {
    read_header(&mut Reader { data, pos: 0 })
}

/// [`peek_header`] leaving `r` just past the occupancy resolution.
fn read_header(r: &mut Reader<'_>) -> Result<ContainerHeader, DecodeError> {
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let [tag, reserved] = r.array()?;
    let precision = match tag {
        0 => Precision::F32,
        1 => Precision::F16,
        t => return Err(DecodeError::BadPrecision(t)),
    };
    if reserved != 0 {
        return Err(DecodeError::Malformed("reserved byte"));
    }
    let geo_feature_dim = r.u32()?;
    let param_counts = (r.u64()?, r.u64()?, r.u64()?);
    let occupancy_resolution = r.u32()?;
    if occupancy_resolution == 0 {
        return Err(DecodeError::ZeroResolution);
    }
    let header =
        ContainerHeader { version, precision, geo_feature_dim, param_counts, occupancy_resolution };
    match (r.data.len() as u64).cmp(&header.container_bytes()) {
        std::cmp::Ordering::Less => Err(DecodeError::Truncated),
        std::cmp::Ordering::Greater => {
            Err(DecodeError::Malformed("bytes past the container's end"))
        }
        std::cmp::Ordering::Equal => Ok(header),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::HashGridConfig;
    use crate::math::Vec3;
    use crate::model::{ModelConfig, PointContext};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn test_model(seed: u64) -> NerfModel {
        let mut rng = SmallRng::seed_from_u64(seed);
        NerfModel::new(
            ModelConfig {
                grid: HashGridConfig {
                    levels: 3,
                    features_per_level: 2,
                    log2_table_size: 9,
                    base_resolution: 4,
                    max_resolution: 16,
                },
                hidden_dim: 12,
                geo_feature_dim: 3,
            },
            &mut rng,
        )
    }

    fn test_occupancy() -> OccupancyGrid {
        OccupancyGrid::from_oracle(10, 0.25, |p| p.x + p.y < 1.0)
    }

    #[test]
    fn f32_round_trip_is_lossless() {
        let model = test_model(1);
        let occ = test_occupancy();
        let bytes = encode_model(&model, &occ, Precision::F32);
        assert_eq!(bytes.len(), container_size(&model, &occ, Precision::F32));

        let mut restored = test_model(2); // different params, same shape
        let occ2 = decode_model_into(&bytes, &mut restored).expect("decode");
        assert_eq!(restored.grid().params(), model.grid().params());
        assert_eq!(restored.density_mlp().params(), model.density_mlp().params());
        assert_eq!(restored.color_mlp().params(), model.color_mlp().params());
        assert_eq!(occ2.resolution(), occ.resolution());
        assert_eq!(
            occ2.occupied_cells().collect::<Vec<_>>(),
            occ.occupied_cells().collect::<Vec<_>>()
        );
    }

    #[test]
    fn peek_header_matches_container_without_decoding() {
        let model = test_model(9);
        let occ = test_occupancy();
        for precision in [Precision::F32, Precision::F16] {
            let bytes = encode_model(&model, &occ, precision);
            let header = peek_header(&bytes).expect("header");
            assert_eq!(header.version, VERSION);
            assert_eq!(header.precision, precision);
            assert_eq!(header.geo_feature_dim, 3);
            assert_eq!(header.param_count(), model.param_count() as u64);
            assert_eq!(header.occupancy_resolution, occ.resolution());
            assert_eq!(header.container_bytes(), bytes.len() as u64);
            assert_eq!(header.container_bytes() as usize, container_size(&model, &occ, precision));
        }
        assert_eq!(peek_header(&[0u8; 10]), Err(DecodeError::BadMagic));
        assert_eq!(peek_header(b"F3DM"), Err(DecodeError::Truncated));
    }

    #[test]
    fn f16_halves_the_parameter_payload() {
        let model = test_model(3);
        let occ = test_occupancy();
        let full = encode_model(&model, &occ, Precision::F32);
        let half = encode_model(&model, &occ, Precision::F16);
        let header = container_size(&model, &occ, Precision::F32) - model.param_count() * 4;
        assert_eq!(full.len() - header, 2 * (half.len() - header));
    }

    #[test]
    fn f16_round_trip_preserves_field_output() {
        let model = test_model(4);
        let occ = test_occupancy();
        let bytes = encode_model(&model, &occ, Precision::F16);
        let mut restored = test_model(5);
        decode_model_into(&bytes, &mut restored).expect("decode");
        let mut ctx = PointContext::new();
        for probe in 0..16 {
            let p = Vec3::new(
                (probe as f32 * 0.137).fract(),
                (probe as f32 * 0.311).fract(),
                (probe as f32 * 0.539).fract(),
            );
            let a = model.forward(p, Vec3::Z, &mut ctx);
            let b = restored.forward(p, Vec3::Z, &mut ctx);
            assert!(
                (a.sigma - b.sigma).abs() < 0.02 * (1.0 + a.sigma),
                "sigma drifted: {} vs {}",
                a.sigma,
                b.sigma
            );
            assert!((a.color - b.color).length() < 0.01, "color drifted");
        }
    }

    #[test]
    fn malformed_containers_are_rejected() {
        let model = test_model(6);
        let occ = test_occupancy();
        let bytes = encode_model(&model, &occ, Precision::F32);

        let mut m = test_model(7);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_model_into(&bad, &mut m), Err(DecodeError::BadMagic)));
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(decode_model_into(&bad, &mut m), Err(DecodeError::UnsupportedVersion(_))));
        // Bad precision tag.
        let mut bad = bytes.clone();
        bad[6] = 7;
        assert!(matches!(decode_model_into(&bad, &mut m), Err(DecodeError::BadPrecision(7))));
        // Truncation.
        let bad = &bytes[..bytes.len() - 3];
        assert!(matches!(decode_model_into(bad, &mut m), Err(DecodeError::Truncated)));
        assert_eq!(peek_header(bad), Err(DecodeError::Truncated));
        // Hostile occupancy resolutions (bytes 36..40): zero, one whose
        // grid would need 4096³ densities, and one whose cube overflows
        // `u64`. None may panic or allocate before failing.
        for (resolution, error) in [
            (0u32, DecodeError::ZeroResolution),
            (4096, DecodeError::Truncated),
            (u32::MAX, DecodeError::Truncated),
        ] {
            let mut bad = bytes.clone();
            bad[36..40].copy_from_slice(&resolution.to_le_bytes());
            assert_eq!(peek_header(&bad), Err(error.clone()), "resolution {resolution}");
            assert_eq!(
                decode_model_into(&bad, &mut m).err(),
                Some(error),
                "resolution {resolution}"
            );
        }
        let huge = ContainerHeader {
            occupancy_resolution: u32::MAX,
            ..peek_header(&bytes).expect("header")
        };
        assert!(huge.container_bytes() >= u64::MAX / 8);
        // Shape mismatch.
        let mut rng = SmallRng::seed_from_u64(8);
        let mut other = NerfModel::new(
            ModelConfig {
                grid: HashGridConfig {
                    levels: 2,
                    features_per_level: 2,
                    log2_table_size: 8,
                    base_resolution: 4,
                    max_resolution: 8,
                },
                hidden_dim: 8,
                geo_feature_dim: 3,
            },
            &mut rng,
        );
        assert!(matches!(
            decode_model_into(&bytes, &mut other),
            Err(DecodeError::ShapeMismatch { .. })
        ));
    }

    /// Whether `bytes` fails to decode into a model shaped like `shell`,
    /// or decodes to a model and grid that encode back to `bytes`.
    fn rejected_or_exact(bytes: &[u8], shell: &NerfModel) -> bool {
        let mut model = shell.clone();
        match (decode_model_into(bytes, &mut model), peek_header(bytes)) {
            (Ok(grid), Ok(header)) => encode_model(&model, &grid, header.precision) == bytes,
            (Ok(_), Err(_)) => false,
            (Err(_), _) => true,
        }
    }

    /// Every truncation, every substitution of every header byte and
    /// seeded payload bit flips of real containers: each must fail to
    /// decode or decode to exactly what it encodes. The containers hold
    /// f32 and f16 parameters, and grids with and without bitmap
    /// padding bits (res 8: 512 cells; res 5: 125 cells, 3 padding bits).
    #[test]
    fn every_mutated_container_is_rejected_or_exact() {
        let model = test_model(12);
        let shell = test_model(13);
        let padded = OccupancyGrid::from_oracle(5, 0.125, |p| p.y < 0.6);
        let whole = OccupancyGrid::from_oracle(8, 0.5, |p| p.x * p.z < 0.3);
        let mut rng = SmallRng::seed_from_u64(14);
        let mut rejected = std::collections::BTreeSet::new();
        for (grid, precision) in
            [(&whole, Precision::F32), (&whole, Precision::F16), (&padded, Precision::F16)]
        {
            let bytes = encode_model(&model, grid, precision);
            assert!(rejected_or_exact(&bytes, &shell), "the intact container");
            for len in 0..bytes.len() {
                assert!(
                    rejected_or_exact(&bytes[..len], &shell),
                    "{precision:?}: first {len} bytes"
                );
            }
            let mut cases = 0;
            for at in 0..44 {
                for value in (0..=u8::MAX).filter(|&v| v != bytes[at]) {
                    let mut bad = bytes.clone();
                    bad[at] = value;
                    assert!(rejected_or_exact(&bad, &shell), "{precision:?}: byte {at} = {value}");
                    if let Err(e) = decode_model_into(&bad, &mut shell.clone()) {
                        rejected.insert(format!("{e}"));
                    }
                    cases += 1;
                }
            }
            assert_eq!(cases, 44 * 255);
            for _ in 0..2000 {
                let mut bad = bytes.clone();
                let bit = rng.gen_range(44 * 8..bytes.len() * 8);
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(rejected_or_exact(&bad, &shell), "{precision:?}: bit {bit} flipped");
            }
            // Trailing bytes, and each padding bit of the padded bitmap.
            let mut long = bytes.clone();
            long.extend_from_slice(&[0; 3]);
            assert_eq!(
                peek_header(&long).err(),
                Some(DecodeError::Malformed("bytes past the container's end"))
            );
            if grid.cell_count() % 8 != 0 {
                let last = 44 + grid.cell_count() / 8;
                for bit in grid.cell_count() % 8..8 {
                    let mut bad = bytes.clone();
                    bad[last] |= 1 << bit;
                    assert_eq!(
                        decode_model_into(&bad, &mut shell.clone()).err(),
                        Some(DecodeError::Malformed("occupancy bitmap padding"))
                    );
                }
            }
        }
        // Every field check fires somewhere in the sweep.
        for field in [
            "reserved byte",
            "geometry-feature width",
            "occupancy threshold",
            "bytes past the container's end",
        ] {
            assert!(rejected.contains(&format!("malformed container: {field}")), "{rejected:?}");
        }
    }

    /// An f16 NaN decodes only with the payload the encoder writes for
    /// its sign; any other NaN would not encode back.
    #[test]
    fn f16_nan_payloads_other_than_the_encoders_are_rejected() {
        let mut model = test_model(15);
        model.grid_mut().params_mut()[0] = f32::NAN;
        let occ = test_occupancy();
        let bytes = encode_model(&model, &occ, Precision::F16);
        let shell = test_model(16);
        assert!(rejected_or_exact(&bytes, &shell));
        let first = 44 + occ.cell_count().div_ceil(8);
        assert_eq!(u16::from_le_bytes([bytes[first], bytes[first + 1]]) & 0x7FFF, 0x7E00);
        for payload in [0x7C01u16, 0x7D00, 0xFE01, 0x7FFF] {
            let mut bad = bytes.clone();
            bad[first..first + 2].copy_from_slice(&payload.to_le_bytes());
            assert_eq!(
                decode_model_into(&bad, &mut shell.clone()).err(),
                Some(DecodeError::Malformed("f16 NaN payload")),
                "{payload:#06x}"
            );
        }
    }

    #[test]
    fn paper_scale_model_fits_the_storage_claim() {
        // The intro's motivation: a full paper-scale model is ~10 MB,
        // and f16 storage halves it — easily streamed over USB.
        let mut rng = SmallRng::seed_from_u64(9);
        let model = NerfModel::new(
            ModelConfig {
                grid: HashGridConfig {
                    levels: 10,
                    features_per_level: 2,
                    log2_table_size: 15,
                    base_resolution: 16,
                    max_resolution: 2048,
                },
                hidden_dim: 64,
                geo_feature_dim: 15,
            },
            &mut rng,
        );
        let occ = OccupancyGrid::new(64, 0.5);
        let f32_mb = container_size(&model, &occ, Precision::F32) as f64 / 1e6;
        let f16_mb = container_size(&model, &occ, Precision::F16) as f64 / 1e6;
        assert!((1.0..=12.0).contains(&f32_mb), "f32 container {f32_mb} MB");
        assert!(f16_mb < f32_mb * 0.6, "f16 container {f16_mb} MB");
        // Transfer time over the USB link is far under a frame time.
        let seconds = f16_mb * 1e6 / 0.625e9;
        assert!(seconds < 0.01, "model streams in {seconds} s");
    }

    #[test]
    fn display_of_errors() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadMagic.to_string().contains("container"));
    }
}

#[cfg(test)]
mod f16_conversion_tests {
    use super::{f16_bits_to_f32, fusion3d_arith_f16_bits};

    #[test]
    fn known_values_round_trip() {
        for (v, bits) in
            [(0.0f32, 0x0000u16), (1.0, 0x3C00), (-2.0, 0xC000), (0.5, 0x3800), (65504.0, 0x7BFF)]
        {
            assert_eq!(fusion3d_arith_f16_bits(v), bits, "{v}");
            assert_eq!(f16_bits_to_f32(bits), v, "{bits:#x}");
        }
    }

    #[test]
    fn subnormals_convert_exactly() {
        let tiny = 2f32.powi(-24); // smallest f16 subnormal
        assert_eq!(fusion3d_arith_f16_bits(tiny), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), tiny);
        let big_sub = f16_bits_to_f32(0x03FF);
        assert_eq!(fusion3d_arith_f16_bits(big_sub), 0x03FF);
    }

    #[test]
    fn every_f16_bit_pattern_round_trips() {
        // Exhaustive: all non-NaN f16 values survive the local
        // converter pair (and therefore match `fusion3d_arith::half`,
        // which passes the same property).
        for bits in 0..=u16::MAX {
            let exp = (bits >> 10) & 0x1F;
            let frac = bits & 0x3FF;
            if exp == 0x1F && frac != 0 {
                continue; // NaN payloads are canonicalized
            }
            let v = f16_bits_to_f32(bits);
            assert_eq!(fusion3d_arith_f16_bits(v), bits, "pattern {bits:#06x}");
        }
    }
}
