//! Property-based tests of capture generation, splitting and the CSV
//! codec.

use canids_can::frame::{CanFrame, CanId};
use canids_can::time::SimTime;
use canids_dataset::csv::{from_csv, to_csv};
use canids_dataset::prelude::*;
use proptest::prelude::*;

fn arb_attack() -> impl Strategy<Value = Option<AttackProfile>> {
    prop_oneof![
        Just(None),
        Just(Some(
            AttackProfile::dos().with_schedule(BurstSchedule::Continuous)
        )),
        Just(Some(
            AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous)
        )),
        Just(Some(
            AttackProfile::gear_spoof().with_schedule(BurstSchedule::Continuous)
        )),
        Just(Some(
            AttackProfile::replay_after(canids_can::time::SimTime::from_millis(10))
                .with_schedule(BurstSchedule::Continuous)
        )),
    ]
}

fn arb_can_id() -> impl Strategy<Value = CanId> {
    prop_oneof![
        (0u32..=0x7FF).prop_map(|id| CanId::standard_from_raw(id).unwrap()),
        (0u32..=0x1FFF_FFFF).prop_map(|id| CanId::extended(id).unwrap()),
    ]
}

/// A fully random record: microsecond-grained timestamp (the CSV format
/// carries 6 fractional digits), any standard or extended identifier,
/// any DLC 0..=8 and payload.
fn arb_record() -> impl Strategy<Value = (u64, CanId, Vec<u8>, bool)> {
    (
        0u64..10_000_000, // whole microseconds, < 10 s
        arb_can_id(),
        proptest::collection::vec(0u8..=255, 0..=8),
        prop_oneof![Just(false), Just(true)],
    )
}

fn arb_attack_label() -> impl Strategy<Value = Label> {
    prop_oneof![
        Just(Label::Dos),
        Just(Label::Fuzzy),
        Just(Label::GearSpoof),
        Just(Label::RpmSpoof),
        Just(Label::Replay),
    ]
}

/// Non-saturating profiles safe to overlay without starving each other.
fn arb_overlay_pair() -> impl Strategy<Value = (AttackProfile, AttackProfile)> {
    let light = || {
        prop_oneof![
            Just(AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous)),
            Just(AttackProfile::gear_spoof().with_schedule(BurstSchedule::Continuous)),
            Just(AttackProfile::rpm_spoof().with_schedule(BurstSchedule::Continuous)),
            Just(
                AttackProfile::replay_after(canids_can::time::SimTime::from_millis(10))
                    .with_schedule(BurstSchedule::Continuous)
            ),
        ]
    };
    (light(), light())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn captures_are_deterministic_and_ordered(
        seed in 0u64..1_000,
        attack in arb_attack(),
    ) {
        let mk = || DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(150),
            attack,
            seed,
            ..TrafficConfig::default()
        }).build();
        let a = mk();
        let b = mk();
        prop_assert_eq!(&a, &b, "same seed, same capture");
        for w in a.records().windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
    }

    #[test]
    fn split_partitions_and_preserves_balance(
        seed in 0u64..1_000,
        frac in 0.1f64..0.5,
    ) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(200),
            attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            seed,
            ..TrafficConfig::default()
        }).build();
        let (train, test) = train_test_split(&ds, SplitConfig {
            test_fraction: frac,
            seed,
            stratified: true,
        });
        prop_assert_eq!(train.len() + test.len(), ds.len());
        let d = (train.attack_fraction() - ds.attack_fraction()).abs();
        prop_assert!(d < 0.05, "balance drift {d}");
    }

    #[test]
    fn csv_round_trip_any_capture(seed in 0u64..1_000, attack in arb_attack()) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(120),
            attack,
            seed,
            ..TrafficConfig::default()
        }).build();
        let label = attack.map(|a| a.kind.label()).unwrap_or(Label::Dos);
        let back = from_csv(&to_csv(&ds), label).unwrap();
        prop_assert_eq!(back.len(), ds.len());
        for (a, b) in ds.iter().zip(back.iter()) {
            prop_assert_eq!(a.frame, b.frame);
            prop_assert_eq!(a.label.is_attack(), b.label.is_attack());
        }
    }

    #[test]
    fn csv_round_trip_random_records_exactly(
        raw_records in proptest::collection::vec(arb_record(), 0..=80),
        attack_label in arb_attack_label(),
    ) {
        // Arbitrary captures — extended identifiers included — must
        // round-trip to *equal records*: timestamp, frame (IDE flag and
        // all ID bits, DLC, payload) and label.
        let records: Vec<LabeledFrame> = raw_records
            .iter()
            .map(|(us, id, payload, is_attack)| {
                LabeledFrame::new(
                    SimTime::from_micros(*us),
                    CanFrame::new(*id, payload).unwrap(),
                    if *is_attack { attack_label } else { Label::Normal },
                )
            })
            .collect();
        let ds = Dataset::from_records(records);
        let back = from_csv(&to_csv(&ds), attack_label).unwrap();
        prop_assert_eq!(back.len(), ds.len());
        for (a, b) in ds.iter().zip(back.iter()) {
            prop_assert_eq!(a, b, "records must round-trip exactly");
        }
    }

    #[test]
    fn paced_stream_preserves_records_at_any_bitrate(
        seed in 0u64..1_000,
        bitrate_kbps in 125u32..=5_000,
    ) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(100),
            seed,
            ..TrafficConfig::default()
        }).build();
        let bitrate = canids_can::timing::Bitrate::new(bitrate_kbps * 1_000);
        let paced: Vec<LabeledFrame> = paced_records(&ds, bitrate).collect();
        prop_assert_eq!(paced.len(), ds.len());
        let mut last = SimTime::ZERO;
        for (orig, p) in ds.iter().zip(&paced) {
            prop_assert_eq!(orig.frame, p.frame);
            prop_assert_eq!(orig.label, p.label);
            prop_assert!(p.timestamp > last, "pacing strictly advances");
            last = p.timestamp;
        }
    }

    #[test]
    fn multi_attacker_captures_are_deterministic_and_fully_labelled(
        seed in 0u64..1_000,
        pair in arb_overlay_pair(),
    ) {
        use canids_dataset::generator::multi_attacker;
        let (a, b) = pair;
        let duration = SimTime::from_millis(250);
        let ds = multi_attacker(duration, &[a, b], seed);
        let again = multi_attacker(duration, &[a, b], seed);
        prop_assert_eq!(&ds, &again, "same seed, same overlay capture");
        // Every record carries a label from the mounted set (or Normal),
        // and time order holds across the overlaid attackers.
        let allowed = [Label::Normal, a.kind.label(), b.kind.label()];
        for r in ds.iter() {
            prop_assert!(allowed.contains(&r.label), "unexpected label {}", r.label);
        }
        for w in ds.records().windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
        // Both attackers surface: distinct light profiles cannot starve
        // each other (same-kind pairs just merge their label counts).
        prop_assert!(ds.class_count(a.kind.label()) > 0, "first attacker absent");
        prop_assert!(ds.class_count(b.kind.label()) > 0, "second attacker absent");
    }

    #[test]
    fn replay_frames_were_previously_observed(
        seed in 0u64..1_000,
    ) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(250),
            attack: Some(
                AttackProfile::replay_after(SimTime::from_millis(15))
                    .with_schedule(BurstSchedule::Continuous),
            ),
            seed,
            ..TrafficConfig::default()
        })
        .build();
        let mut seen = std::collections::BTreeSet::new();
        let mut replayed = 0usize;
        for r in ds.iter() {
            match r.label {
                Label::Normal => {
                    seen.insert((r.frame.id().raw(), r.frame.data().to_vec()));
                }
                Label::Replay => {
                    replayed += 1;
                    prop_assert!(
                        seen.contains(&(r.frame.id().raw(), r.frame.data().to_vec())),
                        "replayed frame not previously observed: {}",
                        r.frame
                    );
                }
                other => prop_assert!(false, "unexpected label {other}"),
            }
        }
        prop_assert!(replayed > 0, "replay attacker injected nothing");
    }

    #[test]
    fn feature_encoding_is_injective_on_distinct_frames(
        seed in 0u64..1_000,
    ) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(100),
            seed,
            ..TrafficConfig::default()
        }).build();
        let enc = IdBitsPayloadBits;
        for w in ds.records().windows(2) {
            if w[0].frame != w[1].frame {
                // Distinct (id, payload) implies distinct bit features
                // unless only the DLC differs with zero padding — the
                // encoding is padded, so check id/payload content.
                if w[0].frame.id() != w[1].frame.id()
                    || w[0].frame.data_padded() != w[1].frame.data_padded()
                {
                    prop_assert_ne!(enc.encode(&w[0].frame), enc.encode(&w[1].frame));
                }
            }
        }
    }

    #[test]
    fn packed_bits_equal_thresholded_features(
        id in arb_can_id(),
        payload in proptest::collection::vec(any::<u8>(), 0..=8),
    ) {
        // The 75-bit encoder's bit-reversed override must agree with the
        // trait's default: `encode_into`, thresholded at 0.5.
        let frame = CanFrame::new(id, &payload).unwrap();
        let enc = IdBitsPayloadBits;
        let mut features = vec![0.0f32; enc.dim()];
        enc.encode_into(&frame, &mut features);
        let mut expected = [0u64; 2];
        for (i, &f) in features.iter().enumerate() {
            expected[i / 64] |= u64::from(f >= 0.5) << (i % 64);
        }
        let mut words = [u64::MAX; 2];
        enc.encode_bits_into(&frame, &mut words);
        prop_assert_eq!(words, expected);
    }
}
