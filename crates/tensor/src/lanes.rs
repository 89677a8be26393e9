//! The two inner loops of the packed-code integer GEMM
//! (`edge-llm-quant`): unpack a run of packed words into `i16` codes, and
//! multiply-accumulate two `i16` code rows into an exact integer. Both are
//! plain safe loops over fixed-width chunks — the shape LLVM's
//! autovectorizer turns into SIMD on every target the workspace builds
//! for, no intrinsics — and they live in this crate because the dev
//! profile optimises it (`opt-level = 3`, root `Cargo.toml`), so the
//! decode-heavy test suites do not run them unoptimised. [`dot_i16`] is
//! `#[inline]` and so compiled where it is called; the dev profile
//! optimises its one caller, `edge-llm-quant`, for the same reason.
//!
//! **Plane order.** Extracting code `l` of a word is `(word >> l·bits) &
//! mask`; doing that for the codes of *one* word needs a different shift
//! per SIMD lane, which baseline x86-64 (SSE2) does not have. Doing it for
//! code `l` of [`PLANE_WORDS`] *consecutive words* is one uniform shift and
//! one mask over a vector of words. [`unpack_planes`] therefore emits each
//! full group of `PLANE_WORDS` words plane by plane — all the words' code
//! 0, then all their code 1, … — and [`plane_order`] applies the same
//! permutation to a natural-order row, so the other operand of the dot
//! product can be brought into the same order once and reused for every
//! weight row. Words past the last full group stay in natural order in
//! both.
//!
//! **Sixteen accumulator lanes.** SSE2's `pmaddwd` multiplies eight `i16`
//! pairs and adds adjacent products into four `i32`s. [`dot_i16`] keeps
//! sixteen `i32` accumulators over 16-element chunks, so each chunk is two
//! such instructions straight from unaligned 128-bit loads; one scalar
//! accumulator leaves LLVM widening 64-bit loads and half of every
//! `pmaddwd` empty, about half the multiply-add rate. A row of at most
//! [`SPILL_BLOCK`] elements is one block, summed without the spill loop,
//! and the function is inlined into its caller's row loop: the packed
//! GEMM calls it once per weight row and activation row, on rows of only
//! 128 or 512 codes, where the out-of-line call and the one-pass spill
//! loop cost 3–12% of the kernel (EXPERIMENTS.md B9).
//!
//! Integer addition is exact and associative, so neither the permutation
//! nor the lane split of [`dot_i16`] changes the sum: it is **the same
//! integer** as the ascending-index loop over natural-order codes, which
//! the oracle tests in `edge-llm-quant` verify bit for bit.

/// Words per plane group: eight 32-bit words fill two 128-bit vectors,
/// whose planes narrow to one vector of eight `i16` codes.
pub const PLANE_WORDS: usize = 8;

/// Elements [`dot_i16`] sums in `i32` before spilling to the `i64` total.
/// Operands are at most 255 in magnitude (8-bit codes, centred or raw),
/// and `255 * 255 * 2^15 < 2^31`, so the block sum — and every partial sum
/// of it, in any lane split — fits. Debug builds panic on overflow.
pub const SPILL_BLOCK: usize = 1 << 15;

/// Unpacks `words` — codes of `bits` ∈ {2, 4, 8} bits, little-endian,
/// `32 / bits` per word — into `out` in plane order (see the module
/// docs): position `l * PLANE_WORDS + i` of a full group holds code `l` of
/// its word `i`; the words after the last full group are written in
/// natural order.
///
/// # Panics
///
/// Panics if `bits` is not 2, 4 or 8, or `out.len() != words.len() * 32 / bits`.
pub fn unpack_planes(words: &[u32], bits: u32, out: &mut [i16]) {
    match bits {
        2 => unpack::<16, 2>(words, out),
        4 => unpack::<8, 4>(words, out),
        8 => unpack::<4, 8>(words, out),
        _ => panic!("packed codes are 2, 4 or 8 bits wide, not {bits}"),
    }
}

/// `PER` and `BITS` are compile-time so the plane loop unrolls into
/// straight-line uniform shifts.
fn unpack<const PER: usize, const BITS: u32>(words: &[u32], out: &mut [i16]) {
    assert_eq!(out.len(), words.len() * PER, "one slot per packed code");
    let mask = (1u32 << BITS) - 1;
    let mut groups = words.chunks_exact(PLANE_WORDS);
    let mut slots = out.chunks_exact_mut(PLANE_WORDS * PER);
    for (group, slot) in groups.by_ref().zip(slots.by_ref()) {
        for (l, plane) in slot.chunks_exact_mut(PLANE_WORDS).enumerate() {
            for (o, &w) in plane.iter_mut().zip(group) {
                *o = ((w >> (l as u32 * BITS)) & mask) as i16;
            }
        }
    }
    let rest = slots.into_remainder().chunks_exact_mut(PER);
    for (&w, slot) in groups.remainder().iter().zip(rest) {
        for (l, o) in slot.iter_mut().enumerate() {
            *o = ((w >> (l as u32 * BITS)) & mask) as i16;
        }
    }
}

/// Copies `src` — natural-order codes of whole words, `per_word` each —
/// into `dst` in the order [`unpack_planes`] emits.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn plane_order(src: &[i16], per_word: usize, dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len(), "plane order is a permutation");
    let mut groups = src.chunks_exact(PLANE_WORDS * per_word);
    let mut slots = dst.chunks_exact_mut(PLANE_WORDS * per_word);
    for (group, slot) in groups.by_ref().zip(slots.by_ref()) {
        for (l, plane) in slot.chunks_exact_mut(PLANE_WORDS).enumerate() {
            for (i, o) in plane.iter_mut().enumerate() {
                *o = group[i * per_word + l];
            }
        }
    }
    slots.into_remainder().copy_from_slice(groups.remainder());
}

/// `i32` accumulators [`dot_i16`] keeps per block: two 128-bit vectors.
const DOT_LANES: usize = 16;

/// Exact dot product `Σ a[i] * b[i]` of two equal-length `i16` code rows:
/// widening multiply-add (`i16 × i16 → i32`) summed in `i32` over
/// [`SPILL_BLOCK`]-element blocks, the block sums in `i64`.
///
/// Each block runs in sixteen `i32` lanes — lane `l` takes elements `l`,
/// `l + 16`, … of the block's whole 16-element chunks — then sums the
/// lanes and adds the ragged tail, the loop shape LLVM lowers to
/// full-width `pmaddwd` (see the module docs). Every lane, and their sum,
/// is a partial sum of the block, so the budget is the one accumulator's.
///
/// A row of at most [`SPILL_BLOCK`] elements — every row the packed GEMM
/// dots — is one block, returned without the spill loop, and the
/// function is `#[inline]`, so that block runs inside the caller's loop.
/// The integer is the same either way.
///
/// # Panics
///
/// Panics if the slices differ in length; debug builds also panic if the
/// operands break the [`SPILL_BLOCK`] magnitude contract.
#[inline]
pub fn dot_i16(a: &[i16], b: &[i16]) -> i64 {
    assert_eq!(a.len(), b.len(), "dot product of unequal rows");
    if a.len() <= SPILL_BLOCK {
        return i64::from(block_dot(a, b));
    }
    let blocks = a.chunks(SPILL_BLOCK).zip(b.chunks(SPILL_BLOCK));
    blocks.map(|(x, y)| i64::from(block_dot(x, y))).sum()
}

/// One [`SPILL_BLOCK`] of [`dot_i16`]: sixteen lanes over the whole
/// chunks, their sum, then the ragged tail.
#[inline]
fn block_dot(a: &[i16], b: &[i16]) -> i32 {
    let mut acc = [0i32; DOT_LANES];
    let (xs, ys) = (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES));
    let (x_tail, y_tail) = (xs.remainder(), ys.remainder());
    for (x, y) in xs.zip(ys) {
        for l in 0..DOT_LANES {
            acc[l] += x[l] as i32 * y[l] as i32;
        }
    }
    let mut s: i32 = acc.iter().sum();
    for (&x, &y) in x_tail.iter().zip(y_tail) {
        s += x as i32 * y as i32;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words.
    fn words(n: usize, seed: u32) -> Vec<u32> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                s
            })
            .collect()
    }

    /// Per-code reference: code `p` is bits `(p % per) * bits ..` of word
    /// `p / per`.
    fn natural(words: &[u32], bits: u32) -> Vec<i16> {
        let per = (32 / bits) as usize;
        (0..words.len() * per)
            .map(|p| ((words[p / per] >> ((p % per) as u32 * bits)) & ((1 << bits) - 1)) as i16)
            .collect()
    }

    fn scalar_dot(a: &[i16], b: &[i16]) -> i64 {
        a.iter().zip(b).map(|(&x, &y)| x as i64 * y as i64).sum()
    }

    #[test]
    fn unpack_is_the_plane_permutation_of_the_per_code_loop() {
        // word counts around the group size: no full group, exact groups,
        // groups plus a natural-order remainder
        for bits in [2u32, 4, 8] {
            let per = (32 / bits) as usize;
            for n in [0usize, 1, 7, 8, 9, 16, 23, 64, 67] {
                let w = words(n, 0xC0DE + n as u32);
                let reference = natural(&w, bits);
                let mut fast = vec![-1i16; n * per];
                unpack_planes(&w, bits, &mut fast);
                let mut permuted = vec![-1i16; n * per];
                plane_order(&reference, per, &mut permuted);
                assert_eq!(fast, permuted, "W{bits}, {n} words");
                // a permutation: nothing lost, nothing invented
                let (mut a, mut b) = (fast.clone(), reference.clone());
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "W{bits}, {n} words");
            }
        }
    }

    #[test]
    fn plane_order_is_natural_below_one_group_and_transposes_a_full_one() {
        let src: Vec<i16> = (0..7 * 4).collect();
        let mut dst = vec![0i16; src.len()];
        plane_order(&src, 4, &mut dst);
        assert_eq!(dst, src, "seven words stay in natural order");
        let src: Vec<i16> = (0..8 * 4).collect();
        let mut dst = vec![0i16; src.len()];
        plane_order(&src, 4, &mut dst);
        // plane 0 = code 0 of words 0..8, i.e. natural positions 0, 4, 8, ...
        assert_eq!(&dst[..8], &[0, 4, 8, 12, 16, 20, 24, 28]);
        assert_eq!(&dst[8..16], &[1, 5, 9, 13, 17, 21, 25, 29]);
    }

    #[test]
    #[should_panic(expected = "2, 4 or 8 bits")]
    fn unpack_rejects_other_widths() {
        unpack_planes(&[0], 16, &mut [0; 2]);
    }

    #[test]
    fn dot_is_plain_multiply_add() {
        assert_eq!(dot_i16(&[2, -3, 4, 0], &[5, 5, -5, 9]), 10 - 15 - 20);
        // products past i16 are widened, not wrapped
        assert_eq!(dot_i16(&[-255, 255], &[255, 255]), 0);
        assert_eq!(dot_i16(&[-255, -255], &[255, 255]), -2 * 65025);
    }

    /// Lengths on every boundary of the lane split: tail only, whole
    /// chunks, chunks plus a tail, and the same around each spill block —
    /// `SPILL_BLOCK` itself is the longest row the one-block path takes.
    const EDGES: [usize; 20] = [
        0,
        1,
        7,
        8,
        9,
        15,
        16,
        17,
        31,
        32,
        33,
        63,
        64,
        65,
        1000,
        SPILL_BLOCK - 1,
        SPILL_BLOCK,
        SPILL_BLOCK + 1,
        SPILL_BLOCK + 3,
        2 * SPILL_BLOCK + 17,
    ];

    #[test]
    fn dot_matches_scalar_over_ragged_lengths() {
        // codes in the packed-GEMM range: centred activations, raw weights
        let gen = |seed: i64, i: usize| ((seed * 31 + i as i64 * 17) % 511 - 255) as i16;
        for len in EDGES {
            let a: Vec<i16> = (0..len).map(|i| gen(3, i)).collect();
            let b: Vec<i16> = (0..len).map(|i| gen(11, i).abs()).collect();
            assert_eq!(dot_i16(&a, &b), scalar_dot(&a, &b), "len {len}");
        }
    }

    #[test]
    fn dot_survives_max_magnitude_codes_without_overflow() {
        // worst case under the SPILL_BLOCK contract: every product is
        // 255 * 255 with one sign, at every edge length up to two full
        // blocks and a ragged third (debug builds panic on i32 overflow,
        // so passing pins the budget of the lanes, their sum and the tail)
        for n in EDGES {
            let b = vec![255i16; n];
            for sign in [-1i16, 1] {
                let a = vec![255 * sign; n];
                assert_eq!(dot_i16(&a, &b), scalar_dot(&a, &b), "len {n}");
            }
        }
    }
}
