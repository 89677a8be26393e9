use crate::bitwidth::BitWidth;

/// A bit-packed vector of unsigned integer codes.
///
/// Codes of 2/4/8/16 bits are packed little-endian into `u32` words; widths
/// always divide 32 so no code straddles a word boundary. This is the actual
/// storage format behind [`crate::QuantizedTensor`] — the memory numbers in
/// the benchmark tables come from `words.len() * 4` real bytes, not from an
/// estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedInts {
    bits: BitWidth,
    len: usize,
    words: Vec<u32>,
}

impl PackedInts {
    /// Packs `codes` at the given width.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if any code exceeds `bits.max_code()`.
    pub fn pack(bits: BitWidth, codes: &[u32]) -> Self {
        let per_word = (32 / bits.bits()) as usize;
        // one word per chunk of codes: no index arithmetic per code
        let words = codes
            .chunks(per_word)
            .map(|chunk| {
                let slots = chunk.iter().zip((0..32).step_by(bits.bits() as usize));
                slots.fold(0, |word, (&code, shift)| {
                    debug_assert!(code <= bits.max_code(), "code {code} exceeds {bits}");
                    word | (code & bits.max_code()) << shift
                })
            })
            .collect();
        PackedInts {
            bits,
            len: codes.len(),
            words,
        }
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Storage width.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// The code at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        // `per_word = 32 / bits` is a power of two: shift and mask, no divide
        let log_per_word = 5 - self.bits.bits().trailing_zeros();
        let shift = (i & ((1 << log_per_word) - 1)) as u32 * self.bits.bits();
        (self.words[i >> log_per_word] >> shift) & self.bits.max_code()
    }

    /// Iterates over the stored codes in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Unpacks all codes into a fresh vector.
    pub fn unpack(&self) -> Vec<u32> {
        let mut out = vec![0; self.len];
        self.unpack_into(0, &mut out, |code| code);
        out
    }

    /// Writes `f(code)` for the codes at positions `start..start +
    /// out.len()` to `out`, in natural order — how [`Self::unpack`] and
    /// the f32 row-dequant route read codes. Whole words are unpacked
    /// with constant shifts and masks; a range that starts or ends inside
    /// a word takes that head and tail one code at a time.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past `len()`.
    pub(crate) fn unpack_into<T>(&self, start: usize, out: &mut [T], f: impl Fn(u32) -> T) {
        assert!(
            start
                .checked_add(out.len())
                .is_some_and(|end| end <= self.len),
            "codes {start}..{start}+{} out of bounds (len {})",
            out.len(),
            self.len
        );
        match self.bits {
            BitWidth::W2 => self.unpack_words::<16, 2, T>(start, out, f),
            BitWidth::W4 => self.unpack_words::<8, 4, T>(start, out, f),
            BitWidth::W8 => self.unpack_words::<4, 8, T>(start, out, f),
            BitWidth::W16 => self.unpack_words::<2, 16, T>(start, out, f),
        }
    }

    /// [`Self::unpack_into`] at `PER` codes of `BITS` bits per word, both
    /// compile-time so the slot loop unrolls into constant shifts.
    fn unpack_words<const PER: usize, const BITS: u32, T>(
        &self,
        start: usize,
        out: &mut [T],
        f: impl Fn(u32) -> T,
    ) {
        const { assert!(PER * BITS as usize == 32) };
        let mask = (1u32 << BITS) - 1;
        let head = (start.next_multiple_of(PER) - start).min(out.len());
        let (head_out, rest) = out.split_at_mut(head);
        for (i, o) in (start..).zip(head_out) {
            *o = f(self.get(i));
        }
        let body_start = start + head;
        let (body, tail) = rest.as_chunks_mut::<PER>();
        for (slots, &w) in body.iter_mut().zip(&self.words[body_start / PER..]) {
            for (l, o) in slots.iter_mut().enumerate() {
                *o = f((w >> (l as u32 * BITS)) & mask);
            }
        }
        for (i, o) in (body_start + body.len() * PER..).zip(tail) {
            *o = f(self.get(i));
        }
    }

    /// Codes stored per 32-bit word at this width.
    pub fn per_word(&self) -> usize {
        (32 / self.bits.bits()) as usize
    }

    /// The raw little-endian packed words (for integer-arithmetic kernels
    /// that unpack a whole word into SIMD lanes at once).
    ///
    /// Code `i` occupies bits `(i % per_word) * bits ..` of word
    /// `i / per_word`; unused high bits of a partially-filled final word
    /// are zero.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Actual bytes occupied by the packed words.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        for bits in BitWidth::ALL {
            let codes: Vec<u32> = (0..100).map(|i| (i * 7) as u32 & bits.max_code()).collect();
            let packed = PackedInts::pack(bits, &codes);
            assert_eq!(packed.unpack(), codes, "width {bits}");
            assert_eq!(packed.len(), 100);
        }
    }

    #[test]
    fn storage_is_compressed() {
        let codes = vec![1u32; 64];
        let p2 = PackedInts::pack(BitWidth::W2, &codes);
        let p8 = PackedInts::pack(BitWidth::W8, &codes);
        assert_eq!(p2.storage_bytes(), 16); // 64 * 2 bits = 128 bits
        assert_eq!(p8.storage_bytes(), 64);
    }

    #[test]
    fn non_multiple_lengths() {
        let codes: Vec<u32> = (0..7).collect();
        let p = PackedInts::pack(BitWidth::W4, &codes);
        assert_eq!(p.unpack(), codes);
        assert_eq!(p.storage_bytes(), 4); // 7 nibbles fit one word
    }

    #[test]
    fn words_hold_codes_little_endian_with_a_zero_padded_tail() {
        let codes: Vec<u32> = (1..=9).collect();
        let w4 = PackedInts::pack(BitWidth::W4, &codes);
        assert_eq!(w4.words(), [0x8765_4321, 0x9]);
        let w8 = PackedInts::pack(BitWidth::W8, &codes[..6]);
        assert_eq!(w8.words(), [0x0403_0201, 0x0605]);
        let w2 = PackedInts::pack(BitWidth::W2, &[3, 0, 1, 2, 3]);
        assert_eq!(w2.words(), [0b11_10_01_00_11]);
    }

    #[test]
    fn empty_pack() {
        let p = PackedInts::pack(BitWidth::W4, &[]);
        assert!(p.is_empty());
        assert_eq!(p.storage_bytes(), 0);
        assert_eq!(p.unpack(), Vec::<u32>::new());
    }

    #[test]
    #[should_panic]
    fn get_out_of_bounds_panics() {
        let p = PackedInts::pack(BitWidth::W4, &[1, 2]);
        let _ = p.get(2);
    }

    #[test]
    fn max_codes_survive() {
        for bits in BitWidth::ALL {
            let codes = vec![bits.max_code(); 33];
            assert_eq!(PackedInts::pack(bits, &codes).unpack(), codes);
        }
    }
}
