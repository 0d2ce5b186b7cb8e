//! Bit timing and line-rate arithmetic.
//!
//! Frame durations are computed from the *actual encoded bit count*
//! (including stuff bits), so every throughput/latency figure that the
//! benchmark harness reports is grounded in the wire format. The count,
//! [`frame_bit_count`], reads the frame's packed SOF..CRC word and a
//! byte-wise stuffing table, with no allocation; the bit-level codec
//! [`crate::bits::encode_frame`] is the reference it is tested against.
//! Callers that need both the end-of-frame time and the wire's next idle
//! time take them from one count with [`frame_wire`]. The paper's
//! headline "over 8 300 messages per second at highest payload capacity"
//! corresponds to 8-byte frames on a 1 Mb/s high-speed CAN segment; see
//! [`max_frame_rate`].

use serde::{Deserialize, Serialize};

use crate::bits::{PackedRegion, TRAILER_BITS};
use crate::error::FrameError;
use crate::frame::{CanFrame, CanId};
use crate::time::SimTime;

/// Fixed-form overhead bits of a standard data frame (SOF + ID + RTR + IDE +
/// r0 + DLC + CRC + delimiters + ACK + EOF), excluding data and stuff bits.
pub const SFF_OVERHEAD_BITS: usize = 44;

/// Fixed-form overhead bits of an extended data frame.
pub const EFF_OVERHEAD_BITS: usize = 64;

/// Interframe space (intermission) between consecutive frames, in bit times.
pub const INTERFRAME_BITS: usize = 3;

/// Nominal bus bitrate.
///
/// # Example
///
/// ```
/// use canids_can::timing::Bitrate;
///
/// assert_eq!(Bitrate::HIGH_SPEED_1M.bits_per_sec(), 1_000_000);
/// assert_eq!(Bitrate::HIGH_SPEED_1M.bit_time().as_nanos(), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bitrate(u32);

impl Bitrate {
    /// 1 Mb/s — ISO 11898-2 high-speed CAN maximum (powertrain/chassis).
    pub const HIGH_SPEED_1M: Bitrate = Bitrate(1_000_000);
    /// 500 kb/s — the common high-speed body/powertrain rate.
    pub const HIGH_SPEED_500K: Bitrate = Bitrate(500_000);
    /// 250 kb/s.
    pub const MEDIUM_250K: Bitrate = Bitrate(250_000);
    /// 125 kb/s — low-speed/comfort CAN.
    pub const LOW_SPEED_125K: Bitrate = Bitrate(125_000);

    /// Creates an arbitrary bitrate (bits per second). Panation-free; the
    /// value is clamped to at least 1 kb/s to keep durations finite.
    pub fn new(bits_per_sec: u32) -> Self {
        Bitrate(bits_per_sec.max(1_000))
    }

    /// Bits per second.
    pub fn bits_per_sec(self) -> u32 {
        self.0
    }

    /// Duration of one nominal bit time.
    pub fn bit_time(self) -> SimTime {
        SimTime::from_nanos(1_000_000_000 / u64::from(self.0))
    }
}

impl Default for Bitrate {
    fn default() -> Self {
        Bitrate::HIGH_SPEED_500K
    }
}

/// CAN bit-timing segments in time quanta (ISO 11898-1 §11.3).
///
/// The controller divides every bit into SYNC_SEG (always 1 tq),
/// PROP_SEG, PHASE_SEG1 and PHASE_SEG2; the sample point sits after
/// PHASE_SEG1.
///
/// # Example
///
/// ```
/// use canids_can::timing::BitTiming;
///
/// // 40 MHz CAN clock, 500 kb/s, sample point ~87.5 %.
/// let bt = BitTiming::for_bitrate(40_000_000, 500_000);
/// assert_eq!(bt.tq_per_bit() * bt.prescaler() as usize * 500_000,
///            40_000_000 as usize);
/// assert!(bt.sample_point() > 0.7 && bt.sample_point() < 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitTiming {
    prescaler: u16,
    prop_seg: u8,
    phase_seg1: u8,
    phase_seg2: u8,
    sjw: u8,
}

impl BitTiming {
    /// Creates a timing configuration from explicit segment lengths
    /// (in time quanta). `SYNC_SEG` is implicitly 1 tq.
    pub fn new(prescaler: u16, prop_seg: u8, phase_seg1: u8, phase_seg2: u8, sjw: u8) -> Self {
        BitTiming {
            prescaler: prescaler.max(1),
            prop_seg: prop_seg.max(1),
            phase_seg1: phase_seg1.max(1),
            phase_seg2: phase_seg2.max(1),
            sjw: sjw.max(1),
        }
    }

    /// Derives a standard configuration (sample point near 87.5 %) for a
    /// CAN clock and target bitrate, following the usual CiA 301 heuristic.
    pub fn for_bitrate(can_clock_hz: u32, bitrate: u32) -> Self {
        let bitrate = bitrate.max(1_000);
        // Aim for 16 tq per bit when divisible, otherwise fall back.
        for tq_per_bit in [16u32, 20, 10, 8, 25, 12, 40] {
            let div = bitrate * tq_per_bit;
            if div != 0 && can_clock_hz.is_multiple_of(div) {
                let prescaler = (can_clock_hz / div) as u16;
                // Sample point ~87.5%: SYNC(1) + PROP + PS1 = 0.875 * tq
                let before = ((tq_per_bit as f64 * 0.875).round() as u32).max(3);
                let ps2 = (tq_per_bit - before).max(1) as u8;
                let prop = ((before - 1) / 2).max(1) as u8;
                let ps1 = (before - 1 - u32::from(prop)).max(1) as u8;
                return BitTiming::new(prescaler, prop, ps1, ps2, ps2.min(4));
            }
        }
        // Generic fallback: 10 tq per bit, integer prescaler.
        let prescaler = (can_clock_hz / (bitrate * 10)).max(1) as u16;
        BitTiming::new(prescaler, 4, 4, 1, 1)
    }

    /// Baud-rate prescaler (CAN clock divider).
    pub fn prescaler(self) -> u16 {
        self.prescaler
    }

    /// Total time quanta per bit (SYNC + PROP + PS1 + PS2).
    pub fn tq_per_bit(self) -> usize {
        1 + usize::from(self.prop_seg) + usize::from(self.phase_seg1) + usize::from(self.phase_seg2)
    }

    /// Relative sample-point position within the bit (0..1).
    pub fn sample_point(self) -> f64 {
        let before = 1 + usize::from(self.prop_seg) + usize::from(self.phase_seg1);
        before as f64 / self.tq_per_bit() as f64
    }

    /// (Re)synchronisation jump width in time quanta.
    pub fn sjw(self) -> u8 {
        self.sjw
    }

    /// The bitrate this timing yields on a given CAN clock.
    pub fn bitrate(self, can_clock_hz: u32) -> Bitrate {
        let denom = u32::from(self.prescaler) * self.tq_per_bit() as u32;
        Bitrate::new(can_clock_hz / denom.max(1))
    }
}

impl Default for BitTiming {
    fn default() -> Self {
        // 40 MHz clock, 500 kb/s, 16 tq.
        BitTiming::for_bitrate(40_000_000, 500_000)
    }
}

/// Number of on-wire bits for a frame (SOF..EOF, including stuff bits).
///
/// Equal to `encode_frame(frame).len()`, counted on the packed frame
/// without building the bit sequence.
///
/// # Example
///
/// ```
/// use canids_can::bits::encode_frame;
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::timing::frame_bit_count;
///
/// let f = CanFrame::new(CanId::standard(0x000)?, &[0; 8])?;
/// assert_eq!(frame_bit_count(&f), encode_frame(&f).len());
/// # Ok::<(), canids_can::FrameError>(())
/// ```
pub fn frame_bit_count(frame: &CanFrame) -> usize {
    let region = PackedRegion::of(frame);
    region.len() + region.stuff_bits() + TRAILER_BITS
}

/// Wire duration of a frame (SOF..EOF) and of its slot (plus the 3-bit
/// interframe space) at `rate`, from one bit count: a frame starting at
/// `t` ends at `t + duration` and frees the wire at `t + slot`.
///
/// # Example
///
/// ```
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::timing::{frame_wire, Bitrate};
///
/// let f = CanFrame::new(CanId::standard(0x100)?, &[0xA5; 8])?;
/// let (duration, slot) = frame_wire(&f, Bitrate::HIGH_SPEED_1M);
/// assert_eq!(slot.as_nanos() - duration.as_nanos(), 3_000);
/// # Ok::<(), canids_can::FrameError>(())
/// ```
pub fn frame_wire(frame: &CanFrame, rate: Bitrate) -> (SimTime, SimTime) {
    let bits = frame_bit_count(frame) as u64;
    let bit_time = rate.bit_time();
    (
        bit_time.mul_u64(bits),
        bit_time.mul_u64(bits + INTERFRAME_BITS as u64),
    )
}

/// Wire duration of a frame (SOF..EOF) at `rate`, excluding interframe space.
pub fn frame_duration(frame: &CanFrame, rate: Bitrate) -> SimTime {
    frame_wire(frame, rate).0
}

/// Wire duration of a frame plus the mandatory 3-bit interframe space.
pub fn frame_slot_duration(frame: &CanFrame, rate: Bitrate) -> SimTime {
    frame_wire(frame, rate).1
}

/// Maximum sustainable frames/second for back-to-back standard data frames
/// of `payload_len` bytes at `rate`, averaged over random payloads.
///
/// Uses the mean stuffed length of frames with uniformly random payloads
/// and a mid-range identifier, plus the 3-bit interframe space — the same
/// arithmetic that yields the paper's ≈8.3 kframe/s at 1 Mb/s.
///
/// # Errors
///
/// Returns [`FrameError::PayloadTooLong`] when `payload_len > 8`.
pub fn max_frame_rate(rate: Bitrate, payload_len: usize) -> Result<f64, FrameError> {
    if payload_len > 8 {
        return Err(FrameError::PayloadTooLong(payload_len));
    }
    // Deterministic pseudo-random payload sample for the average.
    let mut state = 0x9E37_79B9u32;
    let mut total_bits = 0usize;
    const SAMPLES: usize = 64;
    for i in 0..SAMPLES {
        let mut payload = [0u8; 8];
        for byte in payload.iter_mut().take(payload_len) {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *byte = (state >> 24) as u8;
        }
        let id = CanId::Standard(
            (0x100 + (u16::try_from(i).expect("SAMPLES < 64") * 13) % 0x400) & 0x7FF,
        );
        let frame = CanFrame::new(id, &payload[..payload_len]).expect("payload_len validated <= 8");
        total_bits += frame_bit_count(&frame) + INTERFRAME_BITS;
    }
    let mean_bits = total_bits as f64 / SAMPLES as f64;
    Ok(f64::from(rate.bits_per_sec()) / mean_bits)
}

/// Worst-case number of stuff bits for a standard frame with `n` stuffable
/// bits: `floor((n - 1) / 4)`.
pub fn worst_case_stuff_bits(stuffable_bits: usize) -> usize {
    if stuffable_bits == 0 {
        0
    } else {
        (stuffable_bits - 1) / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::encode_frame;
    use crate::frame::{CanFrame, CanId};

    fn frame8(id: u16) -> CanFrame {
        CanFrame::new(CanId::standard(id).unwrap(), &[0xA5; 8]).unwrap()
    }

    #[test]
    fn bit_time_inverse_of_rate() {
        assert_eq!(Bitrate::HIGH_SPEED_1M.bit_time().as_nanos(), 1_000);
        assert_eq!(Bitrate::HIGH_SPEED_500K.bit_time().as_nanos(), 2_000);
        assert_eq!(Bitrate::LOW_SPEED_125K.bit_time().as_nanos(), 8_000);
    }

    #[test]
    fn frame_duration_scales_with_bitrate() {
        let f = frame8(0x2C0);
        let d1m = frame_duration(&f, Bitrate::HIGH_SPEED_1M);
        let d500k = frame_duration(&f, Bitrate::HIGH_SPEED_500K);
        assert_eq!(d500k.as_nanos(), 2 * d1m.as_nanos());
    }

    #[test]
    fn eight_byte_frame_at_1m_is_about_120us() {
        let f = frame8(0x2C0);
        let d = frame_duration(&f, Bitrate::HIGH_SPEED_1M);
        assert!(
            d.as_micros_f64() > 105.0 && d.as_micros_f64() < 135.0,
            "duration = {d}"
        );
    }

    #[test]
    fn line_rate_exceeds_8300_at_full_payload_1m() {
        // Paper: "over 8300 messages per second at highest payload capacity".
        let rate = max_frame_rate(Bitrate::HIGH_SPEED_1M, 8).unwrap();
        assert!(rate > 8_000.0 && rate < 9_300.0, "rate = {rate}");
    }

    #[test]
    fn line_rate_rejects_oversized_payload() {
        assert!(max_frame_rate(Bitrate::HIGH_SPEED_1M, 9).is_err());
    }

    #[test]
    fn shorter_payloads_yield_higher_rates() {
        let r0 = max_frame_rate(Bitrate::HIGH_SPEED_1M, 0).unwrap();
        let r8 = max_frame_rate(Bitrate::HIGH_SPEED_1M, 8).unwrap();
        assert!(r0 > r8);
    }

    #[test]
    fn bit_timing_sample_point_near_875() {
        let bt = BitTiming::for_bitrate(40_000_000, 500_000);
        assert!(
            (bt.sample_point() - 0.875).abs() < 0.08,
            "{}",
            bt.sample_point()
        );
        assert_eq!(bt.bitrate(40_000_000).bits_per_sec(), 500_000);
    }

    #[test]
    fn bit_timing_round_trips_common_rates() {
        for rate in [125_000u32, 250_000, 500_000, 1_000_000] {
            let bt = BitTiming::for_bitrate(40_000_000, rate);
            assert_eq!(bt.bitrate(40_000_000).bits_per_sec(), rate, "rate {rate}");
        }
    }

    #[test]
    fn worst_case_stuffing_formula() {
        assert_eq!(worst_case_stuff_bits(0), 0);
        assert_eq!(worst_case_stuff_bits(98), 24);
        assert_eq!(worst_case_stuff_bits(5), 1);
    }

    #[test]
    fn bit_count_equals_the_codec_on_edge_frames() {
        let std_id = |id| CanId::standard(id).unwrap();
        let ext_id = |id| CanId::extended(id).unwrap();
        let mut frames = Vec::new();
        for id in [std_id(0x000), std_id(0x7FF), ext_id(0), ext_id(0x1FFF_FFFF)] {
            for payload in [&[][..], &[0x00; 8], &[0xFF; 8], &[0x0F, 0xF0, 0x0F, 0xF0]] {
                frames.push(CanFrame::new(id, payload).unwrap());
            }
            for dlc in [0, 8] {
                frames.push(CanFrame::remote(id, crate::frame::Dlc::new(dlc).unwrap()));
            }
        }
        for f in &frames {
            let enc = encode_frame(f);
            assert_eq!(frame_bit_count(f), enc.len(), "{f:?}");
            let (duration, slot) = frame_wire(f, Bitrate::HIGH_SPEED_500K);
            let bit = Bitrate::HIGH_SPEED_500K.bit_time();
            assert_eq!(duration, bit.mul_u64(enc.len() as u64));
            assert_eq!(slot, bit.mul_u64((enc.len() + INTERFRAME_BITS) as u64));
        }
    }

    #[test]
    fn slot_duration_adds_interframe_space() {
        let f = frame8(0x100);
        let rate = Bitrate::HIGH_SPEED_1M;
        let without = frame_duration(&f, rate);
        let with = frame_slot_duration(&f, rate);
        assert_eq!(with.as_nanos() - without.as_nanos(), 3_000);
    }
}
