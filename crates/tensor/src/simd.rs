//! Runtime-dispatched SIMD kernels for quantized embedding codes.
//!
//! Two integer kernels over quantized codes: Hamming distance over packed
//! `u64` sign codes (binary quantization) and the `u8` dot product (scalar
//! quantization). Both come in a portable scalar form and an x86-64
//! accelerated form (`popcnt` for Hamming, AVX2 for the dot product),
//! selected once at first use with `is_x86_feature_detected!`.
//!
//! They backed the quantized prefilter tier, which is gone. They stay only
//! because `benchmark/`'s `tensor.hamming.ns` and `tensor.dot_u8.ns`
//! probes call them, and go with those probes.
//!
//! All arithmetic is integer, so the accelerated paths are **bit-identical**
//! to the scalar fallbacks by construction — no reassociation slack, no
//! tolerance windows. The property tests in `tests/simd_kernels.rs` pin
//! exact agreement on random codes, including tail lengths that are not a
//! multiple of the vector lane width.

use std::sync::OnceLock;

/// Which kernel implementation the runtime dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Accelerated x86-64 path (`popcnt` + AVX2).
    Simd,
    /// Portable scalar path (also the non-x86 and old-CPU fallback).
    Scalar,
}

/// The dispatch decision, made once per process. `Simd` requires both
/// `popcnt` and `avx2` so a single flag covers both kernels.
pub fn kernel_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("popcnt")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                return KernelPath::Simd;
            }
        }
        KernelPath::Scalar
    })
}

/// Hamming distance between two packed bit codes (number of differing
/// bits). Panics if the slices differ in length.
#[inline]
pub fn hamming(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming: code length mismatch");
    match kernel_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch verified `popcnt` is available on this CPU.
        KernelPath::Simd => unsafe { hamming_popcnt(a, b) },
        _ => hamming_scalar(a, b),
    }
}

/// Portable Hamming kernel (public so the property tests can compare the
/// dispatched kernel against it directly).
pub fn hamming_scalar(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(&x, &y)| (x ^ y).count_ones()).sum()
}

/// `popcnt` Hamming kernel: same loop, but compiled with the feature
/// enabled so `count_ones` lowers to one `popcnt` instruction per word
/// (the portable build must assume the instruction may be missing). Four
/// independent accumulators let the popcnts pipeline.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn hamming_popcnt(a: &[u64], b: &[u64]) -> u32 {
    let mut acc = [0u32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += (a[i] ^ b[i]).count_ones();
        acc[1] += (a[i + 1] ^ b[i + 1]).count_ones();
        acc[2] += (a[i + 2] ^ b[i + 2]).count_ones();
        acc[3] += (a[i + 3] ^ b[i + 3]).count_ones();
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        total += (a[i] ^ b[i]).count_ones();
    }
    total
}

/// Dot product of two `u8` code vectors, exact in `u64`. Panics if the
/// slices differ in length.
#[inline]
pub fn dot_u8(a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "dot_u8: code length mismatch");
    match kernel_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch verified `avx2` is available on this CPU.
        KernelPath::Simd => unsafe { dot_u8_avx2(a, b) },
        _ => dot_u8_scalar(a, b),
    }
}

/// Portable `u8` dot kernel (public for the property tests).
pub fn dot_u8_scalar(a: &[u8], b: &[u8]) -> u64 {
    a.iter().zip(b).map(|(&x, &y)| x as u64 * y as u64).sum()
}

/// AVX2 `u8` dot kernel: 16 bytes per iteration, zero-extended to `i16`
/// lanes and multiply-accumulated pairwise into `i32` lanes
/// (`vpmaddwd`). Each `i32` lane absorbs at most `2·255² = 130050` per
/// step, so lane overflow needs over 16k iterations — far beyond any
/// embedding dimension this crate handles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_u8_avx2(a: &[u8], b: &[u8]) -> u64 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let chunks = n / 16;
    for c in 0..chunks {
        let i = c * 16;
        // SAFETY: i + 16 <= n, so the 128-bit loads stay in bounds.
        let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
        let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
        let wa = _mm256_cvtepu8_epi16(va);
        let wb = _mm256_cvtepu8_epi16(vb);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut total: u64 = lanes.iter().map(|&v| v as u64).sum();
    for i in chunks * 16..n {
        total += a[i] as u64 * b[i] as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_basics() {
        assert_eq!(hamming(&[], &[]), 0);
        assert_eq!(hamming(&[0], &[0]), 0);
        assert_eq!(hamming(&[u64::MAX], &[0]), 64);
        assert_eq!(hamming(&[0b1010, 0], &[0b0110, 1]), 3);
    }

    #[test]
    fn dot_basics() {
        assert_eq!(dot_u8(&[], &[]), 0);
        assert_eq!(dot_u8(&[255; 3], &[255; 3]), 3 * 255 * 255);
        assert_eq!(dot_u8(&[1, 2, 3], &[4, 5, 6]), 32);
    }

    #[test]
    fn dispatch_is_stable() {
        assert_eq!(kernel_path(), kernel_path());
    }
}
