//! SRAM array geometry.
//!
//! The accelerator's Memory Clusters are software-configurable groups
//! of SRAM arrays shared by the three computing modules (Sec. III-A).
//! A chip configuration describes each array with a [`SramSpec`];
//! cycle-level bank conflicts are modelled in [`crate::banks`].

/// Static description of one SRAM array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramSpec {
    /// Number of addressable words.
    pub words: u32,
    /// Word width in bits.
    pub word_bits: u32,
}

impl SramSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(words: u32, word_bits: u32) -> Self {
        assert!(words > 0 && word_bits > 0, "SRAM dimensions must be positive");
        SramSpec { words, word_bits }
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> u64 {
        (self.words as u64 * self.word_bits as u64).div_ceil(8)
    }

    /// Capacity in kilobytes (KB = 1024 bytes, as in the paper's spec
    /// tables).
    pub fn kilobytes(&self) -> f64 {
        self.bytes() as f64 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_capacity() {
        let spec = SramSpec::new(16384, 32);
        assert_eq!(spec.bytes(), 64 * 1024);
        assert_eq!(spec.kilobytes(), 64.0);
        // Non-byte-aligned widths round up.
        assert_eq!(SramSpec::new(3, 10).bytes(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn spec_rejects_zero() {
        SramSpec::new(0, 8);
    }
}
