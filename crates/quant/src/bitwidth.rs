use std::fmt;

/// The discrete bit-width alphabet LUC chooses from.
///
/// 16 bits models "uncompressed" half-precision storage; 8/4/2 are the
/// aggressive integer precisions the paper's per-layer policies mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BitWidth {
    /// 2-bit integers (4 levels).
    W2,
    /// 4-bit integers (16 levels).
    W4,
    /// 8-bit integers (256 levels).
    W8,
    /// 16-bit "uncompressed" baseline precision.
    W16,
}

impl BitWidth {
    /// All widths, narrowest first.
    pub const ALL: [BitWidth; 4] = [BitWidth::W2, BitWidth::W4, BitWidth::W8, BitWidth::W16];

    /// Number of bits per stored element.
    pub fn bits(self) -> u32 {
        match self {
            BitWidth::W2 => 2,
            BitWidth::W4 => 4,
            BitWidth::W8 => 8,
            BitWidth::W16 => 16,
        }
    }

    /// Number of representable levels, `2^bits`.
    pub fn levels(self) -> u32 {
        1 << self.bits()
    }

    /// Maximum unsigned code value, `2^bits - 1`.
    pub fn max_code(self) -> u32 {
        self.levels() - 1
    }
}

impl fmt::Display for BitWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.bits())
    }
}

impl TryFrom<u32> for BitWidth {
    type Error = crate::QuantError;

    fn try_from(bits: u32) -> Result<Self, Self::Error> {
        match bits {
            2 => Ok(BitWidth::W2),
            4 => Ok(BitWidth::W4),
            8 => Ok(BitWidth::W8),
            16 => Ok(BitWidth::W16),
            _ => Err(crate::QuantError::UnsupportedScheme {
                op: "BitWidth::try_from",
                scheme: format!("{bits} bits"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_levels() {
        assert_eq!(BitWidth::W2.bits(), 2);
        assert_eq!(BitWidth::W4.levels(), 16);
        assert_eq!(BitWidth::W8.max_code(), 255);
    }

    #[test]
    fn ordering_is_by_width() {
        assert!(BitWidth::W2 < BitWidth::W4);
        assert!(BitWidth::W8 < BitWidth::W16);
        let mut all = BitWidth::ALL;
        all.sort();
        assert_eq!(all, BitWidth::ALL);
    }

    #[test]
    fn try_from_roundtrip() {
        for w in BitWidth::ALL {
            assert_eq!(BitWidth::try_from(w.bits()).unwrap(), w);
        }
        assert!(BitWidth::try_from(3).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(BitWidth::W4.to_string(), "4b");
    }
}
