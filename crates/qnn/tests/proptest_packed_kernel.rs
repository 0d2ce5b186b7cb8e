//! The packed serving kernel is score-exact against the row-major
//! reference: `PackedMlp` class **and** raw scores equal
//! `IntegerMlp::infer` on random shapes and bit-widths (both lane
//! types), on hand-built threshold and tie edge cases, and the models
//! it cannot serve are refused with typed errors.

use canids_qnn::export::{IntBlock, IntOutput, PackedMlp, PackedScratch, BIAS_SHIFT};
use canids_qnn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Packs 0/1 levels into the kernel's input words (feature `i` is bit
/// `i % 64` of word `i / 64`).
fn pack(x: &[u32]) -> Vec<u64> {
    let mut words = vec![0u64; x.len().div_ceil(64)];
    for (i, &level) in x.iter().enumerate() {
        words[i / 64] |= u64::from(level) << (i % 64);
    }
    words
}

/// Per-neuron accumulator bounds of a row over inputs `0..=levels`.
fn bounds(row: &[i32], levels: u32) -> (i64, i64) {
    row.iter().fold((0, 0), |(lo, hi), &w| {
        let reach = i64::from(w) * i64::from(levels);
        if w > 0 {
            (lo, hi + reach)
        } else {
            (lo + reach, hi)
        }
    })
}

/// Ascending thresholds for one neuron with accumulator range
/// `[lo, hi]`: mostly inside (and a little outside) the range, with the
/// occasional constant-response row collapsed to `i64::MIN`/`i64::MAX`.
fn thresholds(rng: &mut StdRng, levels: u32, lo: i64, hi: i64) -> Vec<i64> {
    match rng.gen_range(0..10u32) {
        0 => vec![i64::MIN; levels as usize],
        1 => vec![i64::MAX; levels as usize],
        _ => {
            let mut row: Vec<i64> = (0..levels)
                .map(|_| rng.gen_range(lo - 3..=hi + 3))
                .collect();
            row.sort_unstable();
            row
        }
    }
}

/// A random streamlined model: `in_dim` 1..=130 (1–3 input words), 1–3
/// hidden layers, weight/activation bits 2..=8.
fn random_model(seed: u64) -> IntegerMlp {
    let mut rng = StdRng::seed_from_u64(seed);
    let weight_bits: u8 = rng.gen_range(2..=8);
    let act_bits: u8 = rng.gen_range(2..=8);
    let w_max = (1i32 << (weight_bits - 1)) - 1;
    let levels = (1u32 << act_bits) - 1;
    let mut in_dim = rng.gen_range(1..=130usize);
    let mut in_levels = 1u32;
    let mut blocks = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let out_dim = rng.gen_range(1..=40usize);
        let weights: Vec<i32> = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-w_max..=w_max))
            .collect();
        let mut ts = Vec::with_capacity(out_dim * levels as usize);
        for row in weights.chunks_exact(in_dim) {
            let (lo, hi) = bounds(row, in_levels);
            ts.extend(thresholds(&mut rng, levels, lo, hi));
        }
        blocks.push(IntBlock {
            in_dim,
            out_dim,
            weights,
            thresholds: ts,
            levels,
        });
        in_dim = out_dim;
        in_levels = levels;
    }
    let classes = rng.gen_range(2..=4usize);
    let output = IntOutput {
        in_dim,
        out_dim: classes,
        weights: (0..in_dim * classes)
            .map(|_| rng.gen_range(-w_max..=w_max))
            .collect(),
        bias_q: (0..classes)
            .map(|_| rng.gen_range(-(1i64 << 24)..=1 << 24))
            .collect(),
    };
    IntegerMlp {
        blocks,
        output,
        input_levels: 1,
        weight_bits,
        act_bits,
    }
}

/// Asserts class and scores agree on `x`, through a reused scratch.
fn assert_exact(model: &IntegerMlp, kernel: &PackedMlp, scratch: &mut PackedScratch, x: &[u32]) {
    let reference = model.infer(x);
    let class = kernel.infer_class(&pack(x), scratch);
    assert_eq!(scratch.scores(), reference.scores.as_slice(), "x={x:?}");
    assert_eq!(class, reference.class, "x={x:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packed_scores_equal_reference_on_random_models(seed in any::<u64>()) {
        let model = random_model(seed);
        let kernel = PackedMlp::new(&model).unwrap();
        let dim = model.layer_dims()[0].0;
        prop_assert_eq!(kernel.in_dim(), dim);
        prop_assert_eq!(kernel.in_words(), dim.div_ceil(64));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut scratch = PackedScratch::new();
        assert_exact(&model, &kernel, &mut scratch, &vec![0; dim]);
        assert_exact(&model, &kernel, &mut scratch, &vec![1; dim]);
        for _ in 0..24 {
            let density = rng.gen_range(0.0..1.0);
            let x: Vec<u32> = (0..dim).map(|_| u32::from(rng.gen_bool(density))).collect();
            assert_exact(&model, &kernel, &mut scratch, &x);
        }
    }
}

#[test]
fn random_models_compile_to_both_lane_types() {
    let lanes: Vec<u32> = (0..64)
        .map(|seed| PackedMlp::new(&random_model(seed)).unwrap().lane_bits())
        .collect();
    assert!(lanes.contains(&16), "{lanes:?}");
    assert!(lanes.contains(&32), "{lanes:?}");
}

#[test]
fn hand_built_edges_are_score_exact() {
    // 6 binary inputs → 4 hidden neurons (3 thresholds each) → 3 classes.
    let weights = vec![
        1, -2, 3, 0, 1, 1, // bounds [-2, 6]
        0, 0, 0, 0, 0, 0, // α = 0, always on
        0, 0, 0, 0, 0, 0, // α = 0, always off
        -1, 2, -1, 2, -1, 2, // bounds [-3, 6]
    ];
    let thresholds = vec![
        -100,
        2,
        100, // outside the accumulator bounds on both sides
        i64::MIN,
        i64::MIN,
        i64::MIN, // constant top level
        i64::MAX,
        i64::MAX,
        i64::MAX, // constant zero level
        4,
        0,
        5, // not ascending: the reference stops at the first miss
    ];
    let model = IntegerMlp {
        blocks: vec![IntBlock {
            in_dim: 6,
            out_dim: 4,
            weights,
            thresholds,
            levels: 3,
        }],
        output: IntOutput {
            in_dim: 4,
            out_dim: 3,
            // Classes 1 and 2 are identical, so they always tie and the
            // lower index must win; class 0 ties them whenever the first
            // hidden neuron sits at level 1.
            weights: vec![1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
            bias_q: vec![-(1 << BIAS_SHIFT), 0, 0],
        },
        input_levels: 1,
        weight_bits: 3,
        act_bits: 2,
    };
    let kernel = PackedMlp::new(&model).unwrap();
    assert_eq!(kernel.lane_bits(), 16);
    let mut scratch = PackedScratch::new();
    let mut ties = 0;
    for bits in 0u32..64 {
        let x: Vec<u32> = (0..6).map(|i| (bits >> i) & 1).collect();
        assert_exact(&model, &kernel, &mut scratch, &x);
        let class = kernel.infer_class(&pack(&x), &mut scratch);
        let s = scratch.scores();
        // Class 2 always ties class 1, so it can never win.
        let expected = if s[0] >= s[1] { 0 } else { 1 };
        assert_eq!(class, expected, "scores {s:?}");
        ties += usize::from(s[0] == s[1]);
    }
    assert!(ties > 0, "the class-0/class-1 tie never occurred");
}

#[test]
fn accumulators_beyond_i32_are_a_typed_error() {
    let mut model = random_model(7);
    // 2^30 on each of four binary inputs: an accumulator of 2^32.
    let block = &mut model.blocks[0];
    block.in_dim = 4;
    block.weights = vec![1 << 30; 4 * block.out_dim];
    let err = PackedMlp::new(&model).unwrap_err();
    assert!(
        matches!(err, QnnError::AccumulatorOverflow { layer: 0, lo: 0, hi } if hi > i64::from(i32::MAX)),
        "{err}"
    );
}

#[test]
fn non_binary_inputs_and_broken_shapes_are_typed_errors() {
    let mut multi_level = random_model(3);
    multi_level.input_levels = 2;
    assert_eq!(
        PackedMlp::new(&multi_level).unwrap_err(),
        QnnError::InputLevels(2)
    );
    let mut miswired = random_model(3);
    miswired.output.in_dim += 1;
    assert!(matches!(
        PackedMlp::new(&miswired).unwrap_err(),
        QnnError::DimensionMismatch { .. }
    ));
}
