//! SIMD group scanning for control-byte probe tables.
//!
//! The frozen BFH query kernel (swisstable-style) keeps one 8-bit control
//! byte per slot: [`CTRL_EMPTY`] for an empty slot, or the 7-bit [`ctrl_h2`]
//! tag of the stored split hash for a full one (high bit clear, so the two
//! can never collide). Probing scans the control lane [`GROUP_SLOTS`] bytes
//! at a time: one vector compare yields a bitmask of candidate slots and a
//! second yields the empty-slot mask that terminates the chain — 16 tags
//! examined per step instead of one.
//!
//! [`GroupScan`] is the scan engine contract. Three implementations:
//!
//! * [`Sse2Scan`] (x86-64): `_mm_cmpeq_epi8` + `_mm_movemask_epi8`; the
//!   empty scan is a single `movemask` of the raw bytes, since only
//!   [`CTRL_EMPTY`] has the high bit set.
//! * [`NeonScan`] (aarch64): `vceqq_u8` with a weighted horizontal add
//!   (`vaddv_u8`) standing in for `movemask`.
//! * [`ScalarScan`] (everywhere): exact SWAR over two little-endian `u64`
//!   loads — `(x & 0x7f…) + 0x7f…` zero-byte detection with no cross-byte
//!   borrow, so candidate and empty masks are bit-identical to the vector
//!   engines' (property-tested below).
//!
//! The engine is chosen at compile time: [`Scan`] names the one this
//! target probes with. SSE2 is baseline on x86-64 and NEON on aarch64, so
//! no runtime detection is needed; every other target probes with
//! [`ScalarScan`], which also stays the reference the tests race [`Scan`]
//! against.
//!
//! [`ctrl_h2`]: crate::ctrl_h2

/// Slots per control-byte group: one 128-bit vector compare's worth.
pub const GROUP_SLOTS: usize = 16;

/// Control byte of an empty slot. The only control value with the high bit
/// set — full slots store a 7-bit hash tag — so "any empty in this group?"
/// is a movemask of the raw bytes.
pub const CTRL_EMPTY: u8 = 0x80;

/// A 16-slot control-byte scan engine.
///
/// `group` must hold at least [`GROUP_SLOTS`] bytes; both scans examine
/// exactly the first 16 and return a bitmask with bit `j` set for slot `j`.
pub trait GroupScan {
    /// Bitmask of slots whose control byte equals `byte`.
    fn match_byte(group: &[u8], byte: u8) -> u32;

    /// Bitmask of empty slots ([`CTRL_EMPTY`] control bytes).
    fn match_empty(group: &[u8]) -> u32;
}

/// Portable scalar engine: exact SWAR byte matching over two `u64` lanes.
pub struct ScalarScan;

const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HI1: u64 = 0x8080_8080_8080_8080;

/// High bit set in every byte of `x` that is zero; exact (the per-byte
/// `& 0x7f` add never carries across byte boundaries, unlike the classic
/// borrow-propagating `x - 0x01…` trick).
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    let y = (x & LO7).wrapping_add(LO7);
    !(y | x | LO7)
}

/// Collapse per-byte high bits into an 8-bit mask (bit `j` = byte `j`).
#[inline(always)]
fn movemask8(high_bits: u64) -> u32 {
    (((high_bits >> 7) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

#[inline(always)]
fn load_halves(group: &[u8]) -> (u64, u64) {
    let lo = u64::from_le_bytes(group[0..8].try_into().unwrap());
    let hi = u64::from_le_bytes(group[8..16].try_into().unwrap());
    (lo, hi)
}

impl GroupScan for ScalarScan {
    #[inline(always)]
    fn match_byte(group: &[u8], byte: u8) -> u32 {
        let (lo, hi) = load_halves(group);
        let splat = u64::from(byte).wrapping_mul(0x0101_0101_0101_0101);
        movemask8(zero_bytes(lo ^ splat)) | (movemask8(zero_bytes(hi ^ splat)) << 8)
    }

    #[inline(always)]
    fn match_empty(group: &[u8]) -> u32 {
        let (lo, hi) = load_halves(group);
        movemask8(lo & HI1) | (movemask8(hi & HI1) << 8)
    }
}

/// SSE2 engine: one `cmpeq` + `movemask` per scan.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub struct Sse2Scan;

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
impl GroupScan for Sse2Scan {
    #[inline(always)]
    fn match_byte(group: &[u8], byte: u8) -> u32 {
        use std::arch::x86_64::*;
        debug_assert!(group.len() >= GROUP_SLOTS);
        // SAFETY: SSE2 is statically enabled (cfg above) and `group` holds
        // at least 16 readable bytes; `loadu` has no alignment requirement.
        unsafe {
            let g = _mm_loadu_si128(group.as_ptr() as *const __m128i);
            let eq = _mm_cmpeq_epi8(g, _mm_set1_epi8(byte as i8));
            _mm_movemask_epi8(eq) as u32
        }
    }

    #[inline(always)]
    fn match_empty(group: &[u8]) -> u32 {
        use std::arch::x86_64::*;
        debug_assert!(group.len() >= GROUP_SLOTS);
        // SAFETY: as above. Empty is the only control value with the high
        // bit set, so the raw-byte movemask is exactly the empty mask.
        unsafe {
            let g = _mm_loadu_si128(group.as_ptr() as *const __m128i);
            _mm_movemask_epi8(g) as u32
        }
    }
}

/// NEON engine: `vceqq_u8` with a weighted `vaddv_u8` movemask.
#[cfg(target_arch = "aarch64")]
pub struct NeonScan;

#[cfg(target_arch = "aarch64")]
#[inline(always)]
fn neon_movemask(v: std::arch::aarch64::uint8x16_t) -> u32 {
    use std::arch::aarch64::*;
    const POWERS: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];
    // SAFETY: NEON is baseline on aarch64; POWERS is 16 readable bytes.
    unsafe {
        let weighted = vandq_u8(v, vld1q_u8(POWERS.as_ptr()));
        let lo = u32::from(vaddv_u8(vget_low_u8(weighted)));
        let hi = u32::from(vaddv_u8(vget_high_u8(weighted)));
        lo | (hi << 8)
    }
}

#[cfg(target_arch = "aarch64")]
impl GroupScan for NeonScan {
    #[inline(always)]
    fn match_byte(group: &[u8], byte: u8) -> u32 {
        use std::arch::aarch64::*;
        debug_assert!(group.len() >= GROUP_SLOTS);
        // SAFETY: NEON is baseline on aarch64; `group` holds ≥ 16 bytes.
        unsafe {
            let g = vld1q_u8(group.as_ptr());
            neon_movemask(vceqq_u8(g, vdupq_n_u8(byte)))
        }
    }

    #[inline(always)]
    fn match_empty(group: &[u8]) -> u32 {
        use std::arch::aarch64::*;
        debug_assert!(group.len() >= GROUP_SLOTS);
        // SAFETY: as above. 0x80 is the only high-bit control value.
        unsafe {
            let g = vld1q_u8(group.as_ptr());
            neon_movemask(vcgeq_u8(g, vdupq_n_u8(CTRL_EMPTY)))
        }
    }
}

/// The probe engine for this target: the vector engine where the
/// architecture guarantees one, [`ScalarScan`] elsewhere.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub type Scan = Sse2Scan;
#[cfg(target_arch = "aarch64")]
pub type Scan = NeonScan;
#[cfg(not(any(
    all(target_arch = "x86_64", target_feature = "sse2"),
    target_arch = "aarch64"
)))]
pub type Scan = ScalarScan;

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random byte stream (xorshift64*).
    fn rand_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect()
    }

    fn reference_match(group: &[u8], byte: u8) -> u32 {
        group[..GROUP_SLOTS]
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == byte)
            .map(|(j, _)| 1u32 << j)
            .sum()
    }

    #[test]
    fn scalar_matches_reference_on_random_groups() {
        for seed in 1..200u64 {
            let g = rand_bytes(seed, GROUP_SLOTS);
            for probe in [0u8, 1, 0x7f, CTRL_EMPTY, 0xff, g[0], g[15], g[7]] {
                assert_eq!(
                    ScalarScan::match_byte(&g, probe),
                    reference_match(&g, probe),
                    "seed {seed} probe {probe:#x} group {g:x?}"
                );
                assert_eq!(
                    Scan::match_byte(&g, probe),
                    reference_match(&g, probe),
                    "seed {seed} probe {probe:#x} group {g:x?}"
                );
            }
            assert_eq!(
                ScalarScan::match_empty(&g),
                reference_match(&g, CTRL_EMPTY)
                    | g.iter()
                        .enumerate()
                        .filter(|(_, &b)| b > CTRL_EMPTY)
                        .map(|(j, _)| 1u32 << j)
                        .sum::<u32>()
                        & 0xffff,
                "empty scan must flag exactly the high-bit bytes"
            );
        }
    }

    #[test]
    fn simd_and_scalar_scans_are_bit_identical() {
        // On control lanes only CTRL_EMPTY carries the high bit, so the two
        // engines agree on both scans; assert over valid control content.
        for seed in 1..500u64 {
            let mut g = rand_bytes(seed, GROUP_SLOTS);
            for b in g.iter_mut() {
                if *b & 0x80 != 0 {
                    *b = CTRL_EMPTY; // clamp to a valid control byte
                }
            }
            for probe in [0u8, 0x3c, 0x7f, g[3] & 0x7f] {
                assert_eq!(
                    ScalarScan::match_byte(&g, probe),
                    Scan::match_byte(&g, probe),
                    "seed {seed} probe {probe:#x}"
                );
            }
            assert_eq!(
                ScalarScan::match_empty(&g),
                Scan::match_empty(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn match_masks_are_sixteen_bits() {
        let g = [CTRL_EMPTY; GROUP_SLOTS];
        assert_eq!(ScalarScan::match_empty(&g), 0xffff);
        assert_eq!(ScalarScan::match_byte(&g, CTRL_EMPTY), 0xffff);
        assert_eq!(Scan::match_empty(&g), 0xffff);
        let g = [0x11u8; GROUP_SLOTS];
        assert_eq!(ScalarScan::match_empty(&g), 0);
        assert_eq!(ScalarScan::match_byte(&g, 0x11), 0xffff);
        assert_eq!(ScalarScan::match_byte(&g, 0x12), 0);
    }
}
