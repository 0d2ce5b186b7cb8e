//! CRC-15 sequence of ISO 11898-1.
//!
//! The CAN frame check sequence uses the generator polynomial
//! `x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1` (`0x4599`), computed
//! over the unstuffed bit stream from the start-of-frame bit up to and
//! including the last data bit.
//!
//! [`crc15`] and [`Crc15`] shift one `bool` at a time; the decoder checks
//! every received frame with them. The encoder works on the frame's
//! packed bits instead (see `crate::bits`) and runs the same register a
//! byte at a time from a 256-entry table, which the tests pin to the
//! bit-serial reference.

/// The CAN CRC-15 generator polynomial (without the leading `x^15` term).
pub const CRC15_POLY: u16 = 0x4599;

/// Mask keeping the CRC register at 15 bits.
const CRC15_MASK: u16 = 0x7FFF;

/// Computes the CRC-15 over a bit sequence (MSB-first, one `bool` per bit).
///
/// Implements the shift-register procedure from ISO 11898-1 §10.4.2.6:
/// for each input bit, `crc_nxt = bit XOR crc[14]`, the register shifts
/// left, and the polynomial is XORed in when `crc_nxt` is set.
///
/// # Example
///
/// ```
/// use canids_can::crc::crc15;
///
/// // CRC of the empty sequence is zero.
/// assert_eq!(crc15(&[]), 0);
/// // A single dominant (0) bit leaves the register zero.
/// assert_eq!(crc15(&[false]), 0);
/// // A single recessive (1) bit loads the polynomial.
/// assert_eq!(crc15(&[true]), 0x4599);
/// ```
pub fn crc15(bits: &[bool]) -> u16 {
    bits.iter().fold(0, |crc, &bit| crc15_step(crc, bit))
}

/// Shifts one bit into a CRC-15 register (ISO 11898-1 §10.4.2.6).
const fn crc15_step(crc: u16, bit: bool) -> u16 {
    let crc_nxt = bit ^ ((crc >> 14) & 1 == 1);
    let shifted = (crc << 1) & CRC15_MASK;
    if crc_nxt {
        shifted ^ CRC15_POLY
    } else {
        shifted
    }
}

/// `CRC15_TABLE[b]` is the register after shifting the byte `b`, MSB
/// first, into a zeroed register.
static CRC15_TABLE: [u16; 256] = crc15_table();

const fn crc15_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = 0;
        let mut bit = 8;
        while bit > 0 {
            bit -= 1;
            crc = crc15_step(crc, (byte >> bit) & 1 == 1);
        }
        table[byte] = crc;
        byte += 1;
    }
    table
}

/// CRC-15 over the low `len` bits of `word`, most significant first —
/// the same value as [`crc15`] over those bits as `bool`s. Whole bytes
/// go through [`CRC15_TABLE`], the `len % 8` trailing bits through the
/// bit-serial step.
pub(crate) fn crc15_packed(word: u128, len: usize) -> u16 {
    let mut crc = 0u16;
    let mut left = len;
    while left >= 8 {
        left -= 8;
        let byte = (word >> left) as u8;
        let top = (crc >> 7) as u8;
        crc = ((crc << 8) & CRC15_MASK) ^ CRC15_TABLE[usize::from(top ^ byte)];
    }
    while left > 0 {
        left -= 1;
        crc = crc15_step(crc, (word >> left) & 1 == 1);
    }
    crc
}

/// Incremental CRC-15 register, for streaming encoders.
///
/// # Example
///
/// ```
/// use canids_can::crc::{crc15, Crc15};
///
/// let bits = [true, false, true, true, false];
/// let mut reg = Crc15::new();
/// for &b in &bits {
///     reg.push(b);
/// }
/// assert_eq!(reg.value(), crc15(&bits));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Crc15 {
    crc: u16,
}

impl Crc15 {
    /// Creates a zeroed CRC register.
    pub fn new() -> Self {
        Crc15 { crc: 0 }
    }

    /// Shifts one bit into the register.
    pub fn push(&mut self, bit: bool) {
        self.crc = crc15_step(self.crc, bit);
    }

    /// The current 15-bit CRC value.
    pub fn value(&self) -> u16 {
        self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits_from_u32(value: u32, width: usize) -> Vec<bool> {
        (0..width).rev().map(|i| (value >> i) & 1 == 1).collect()
    }

    #[test]
    fn empty_sequence_is_zero() {
        assert_eq!(crc15(&[]), 0);
    }

    #[test]
    fn zeros_stay_zero() {
        assert_eq!(crc15(&[false; 64]), 0);
    }

    #[test]
    fn single_one_loads_polynomial() {
        assert_eq!(crc15(&[true]), CRC15_POLY);
    }

    #[test]
    fn linearity_under_xor() {
        // CRC of (a XOR b) == CRC(a) XOR CRC(b) for equal-length messages
        // (CRC with zero init is linear over GF(2)).
        let a = bits_from_u32(0xDEAD_BEEF, 32);
        let b = bits_from_u32(0x1234_5678, 32);
        let x: Vec<bool> = a.iter().zip(&b).map(|(&p, &q)| p ^ q).collect();
        assert_eq!(crc15(&x), crc15(&a) ^ crc15(&b));
    }

    #[test]
    fn incremental_matches_batch() {
        let bits = bits_from_u32(0xCAFE_F00D, 32);
        let mut reg = Crc15::new();
        for &b in &bits {
            reg.push(b);
        }
        assert_eq!(reg.value(), crc15(&bits));
    }

    #[test]
    fn appending_crc_yields_zero_remainder() {
        // Fundamental CRC property: message || CRC has remainder zero.
        let msg = bits_from_u32(0xA5A5_5A5A, 32);
        let fcs = crc15(&msg);
        let mut whole = msg.clone();
        whole.extend(bits_from_u32(u32::from(fcs), 15));
        assert_eq!(crc15(&whole), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let msg = bits_from_u32(0x0F0F_1234, 32);
        let fcs = crc15(&msg);
        for i in 0..msg.len() {
            let mut corrupted = msg.clone();
            corrupted[i] = !corrupted[i];
            assert_ne!(crc15(&corrupted), fcs, "flip at {i} undetected");
        }
    }

    #[test]
    fn crc_is_15_bits() {
        for seed in 0u32..256 {
            let msg = bits_from_u32(seed.wrapping_mul(0x9E37_79B9), 32);
            assert!(crc15(&msg) <= 0x7FFF);
        }
    }

    #[test]
    fn table_is_the_bit_serial_register_of_each_byte() {
        for byte in 0..=255u32 {
            let idx = usize::try_from(byte).unwrap();
            assert_eq!(CRC15_TABLE[idx], crc15(&bits_from_u32(byte, 8)));
        }
    }

    proptest! {
        #[test]
        fn packed_crc_equals_bit_serial_at_every_length(
            bits in proptest::collection::vec(any::<bool>(), 118)
        ) {
            let mut word = 0u128;
            for (len, &bit) in bits.iter().enumerate() {
                prop_assert_eq!(crc15_packed(word, len), crc15(&bits[..len]), "len {}", len);
                word = (word << 1) | u128::from(bit);
            }
            prop_assert_eq!(crc15_packed(word, 118), crc15(&bits));
        }
    }
}
