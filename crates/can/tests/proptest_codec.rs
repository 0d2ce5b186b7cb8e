//! Property-based tests of the CAN bit codec: the encode/decode identity
//! and the stuffing round-trip must hold for *every* representable frame.

use canids_can::bits::{decode_frame, destuff, encode_frame, stuff};
use canids_can::crc::crc15;
use canids_can::frame::{CanFrame, CanId, Dlc};
use canids_can::timing::{frame_bit_count, worst_case_stuff_bits};
use proptest::prelude::*;

fn arb_standard_frame() -> impl Strategy<Value = CanFrame> {
    (0u16..=0x7FF, proptest::collection::vec(any::<u8>(), 0..=8)).prop_map(|(id, payload)| {
        CanFrame::new(CanId::standard(id).expect("masked"), &payload).expect("len <= 8")
    })
}

fn arb_extended_frame() -> impl Strategy<Value = CanFrame> {
    (
        0u32..=0x1FFF_FFFF,
        proptest::collection::vec(any::<u8>(), 0..=8),
    )
        .prop_map(|(id, payload)| {
            CanFrame::new(CanId::extended(id).expect("masked"), &payload).expect("len <= 8")
        })
}

fn arb_remote_frame() -> impl Strategy<Value = CanFrame> {
    (0u16..=0x7FF, 0u8..=8).prop_map(|(id, dlc)| {
        CanFrame::remote(
            CanId::standard(id).expect("masked"),
            Dlc::new(dlc).expect("<= 8"),
        )
    })
}

fn arb_extended_remote_frame() -> impl Strategy<Value = CanFrame> {
    (0u32..=0x1FFF_FFFF, 0u8..=8).prop_map(|(id, dlc)| {
        CanFrame::remote(
            CanId::extended(id).expect("masked"),
            Dlc::new(dlc).expect("<= 8"),
        )
    })
}

/// Frames built from 0x00, 0xFF, 0x0F and 0xF0 bytes, with all-dominant,
/// all-recessive or random identifiers of either width: long same-level
/// runs and runs of exactly four bits, the stuffing count's hard cases.
fn arb_stuff_dense_frame() -> impl Strategy<Value = CanFrame> {
    (
        any::<bool>(),
        0u8..4,
        0u32..=0x1FFF_FFFF,
        proptest::collection::vec(0usize..4, 0..=8),
    )
        .prop_map(|(extended, id_kind, random_id, picks)| {
            let raw = match id_kind {
                0 => 0,
                1 => u32::MAX,
                _ => random_id,
            };
            let id = if extended {
                CanId::extended(raw & 0x1FFF_FFFF)
            } else {
                CanId::standard_from_raw(raw & 0x7FF)
            }
            .expect("masked");
            let payload: Vec<u8> = picks.iter().map(|&i| [0x00, 0xFF, 0x0F, 0xF0][i]).collect();
            CanFrame::new(id, &payload).expect("len <= 8")
        })
}

proptest! {
    #[test]
    fn encode_decode_identity_standard(frame in arb_standard_frame()) {
        let enc = encode_frame(&frame);
        prop_assert_eq!(decode_frame(enc.bits()).unwrap(), frame);
    }

    #[test]
    fn encode_decode_identity_extended(frame in arb_extended_frame()) {
        let enc = encode_frame(&frame);
        prop_assert_eq!(decode_frame(enc.bits()).unwrap(), frame);
    }

    #[test]
    fn encode_decode_identity_remote(frame in arb_remote_frame()) {
        let enc = encode_frame(&frame);
        prop_assert_eq!(decode_frame(enc.bits()).unwrap(), frame);
    }

    #[test]
    fn stuffing_round_trips(raw in proptest::collection::vec(any::<bool>(), 0..256)) {
        let wire = stuff(&raw);
        prop_assert_eq!(destuff(&wire).unwrap(), raw);
    }

    #[test]
    fn stuffed_stream_never_has_six_equal_bits(
        raw in proptest::collection::vec(any::<bool>(), 0..256)
    ) {
        let wire = stuff(&raw);
        for w in wire.windows(6) {
            prop_assert!(!w.iter().all(|&b| b) && !w.iter().all(|&b| !b),
                "six equal bits survived stuffing");
        }
    }

    #[test]
    fn frame_length_within_worst_case(frame in arb_standard_frame()) {
        let enc = encode_frame(&frame);
        let stuffable = 1 + 11 + 1 + 1 + 1 + 4 + 8 * frame.dlc().byte_len() + 15;
        let max = stuffable + worst_case_stuff_bits(stuffable) + 10;
        prop_assert!(enc.len() >= stuffable + 10);
        prop_assert!(enc.len() <= max, "{} > {max}", enc.len());
        prop_assert_eq!(frame_bit_count(&frame), enc.len());
    }

    #[test]
    fn crc_is_linear_over_xor(
        a in proptest::collection::vec(any::<bool>(), 64),
        b in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let x: Vec<bool> = a.iter().zip(&b).map(|(&p, &q)| p ^ q).collect();
        prop_assert_eq!(crc15(&x), crc15(&a) ^ crc15(&b));
    }

    #[test]
    fn single_bit_corruption_never_decodes_to_the_same_frame(
        frame in arb_standard_frame(),
        flip in 0usize..98,
    ) {
        let enc = encode_frame(&frame);
        // Flip inside the stuffed region only (delimiters would be form
        // errors by construction).
        let pos = flip % enc.stuffed_region_len();
        let mut bits = enc.bits().to_vec();
        bits[pos] = !bits[pos];
        match decode_frame(&bits) {
            // Either detected (stuff/CRC/form) ...
            Err(_) => {}
            // ... or decoded to a *different* frame only if CRC collided —
            // which cannot happen for single-bit errors (Hamming distance
            // of CRC-15 is >= 2 over these lengths).
            Ok(decoded) => prop_assert_eq!(decoded, frame,
                "single-bit flip silently changed the frame"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn frame_bit_count_equals_the_codec_on_every_format(
        frame in prop_oneof![
            arb_standard_frame(),
            arb_extended_frame(),
            arb_remote_frame(),
            arb_extended_remote_frame(),
            arb_stuff_dense_frame(),
        ]
    ) {
        prop_assert_eq!(frame_bit_count(&frame), encode_frame(&frame).len(), "{:?}", frame);
    }
}
