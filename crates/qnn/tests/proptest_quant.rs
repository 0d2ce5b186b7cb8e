//! Property-based tests of the quantizers, the quantised layer forward
//! and the integer export.

use canids_qnn::layers::QuantLinear;
use canids_qnn::prelude::*;
use canids_qnn::quant::{ActQuantizer, WeightQuantizer};
use canids_qnn::tensor::linear_forward;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #[test]
    fn weight_quantisation_error_bounded(
        bits in 2u8..=8,
        weights in proptest::collection::vec(-10.0f32..10.0, 1..64),
    ) {
        let q = WeightQuantizer::new(BitWidth::new(bits).unwrap());
        let mut out = vec![0.0; weights.len()];
        let scale = q.fake_quantize(&weights, &mut out);
        prop_assert!(scale > 0.0);
        for (w, o) in weights.iter().zip(&out) {
            prop_assert!((w - o).abs() <= scale / 2.0 + 1e-5,
                "|{w} - {o}| > {scale}/2");
        }
    }

    #[test]
    fn weight_codes_stay_in_narrow_range(
        bits in 2u8..=8,
        weights in proptest::collection::vec(-100.0f32..100.0, 1..64),
    ) {
        let width = BitWidth::new(bits).unwrap();
        let q = WeightQuantizer::new(width);
        let scale = q.scale(&weights);
        for &w in &weights {
            let code = q.to_int(w, scale);
            prop_assert!(code.abs() <= width.signed_max());
        }
    }

    #[test]
    fn activation_levels_bounded_and_monotone(
        bits in 2u8..=8,
        ceiling in 0.5f32..10.0,
        zs in proptest::collection::vec(-5.0f32..15.0, 1..64),
    ) {
        let mut q = ActQuantizer::new(BitWidth::new(bits).unwrap());
        q.observe(&[ceiling]);
        let mut sorted = zs.clone();
        sorted.sort_by(f32::total_cmp);
        let mut last = 0u32;
        for &z in &sorted {
            let level = q.to_int(z);
            prop_assert!(level <= q.bits().unsigned_max());
            prop_assert!(level >= last, "quantisation must be monotone");
            last = level;
        }
    }

    // Eval mode runs the pinned-order kernel, not an approximation of
    // it: the layer's eval forward is bit-identical to `linear_forward`
    // over its fake-quantised weights (rebuilt from `int_weights()`) for
    // any shape and bit-width, including `k % 8` tails and sub-block
    // output counts.
    #[test]
    fn eval_forward_is_bit_identical_to_pinned_kernel(
        in_dim in 1usize..90,
        out_dim in 1usize..70,
        batch in 1usize..6,
        bits in 2u8..=8,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = QuantLinear::new(in_dim, out_dim, BitWidth::new(bits).unwrap(), &mut rng);
        let x = Matrix::from_vec(
            batch,
            in_dim,
            (0..batch * in_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let got = layer.forward(&x, false);
        let (codes, scale) = layer.int_weights();
        let wq = Matrix::from_vec(
            out_dim,
            in_dim,
            codes.iter().map(|&c| c as f32 * scale).collect(),
        );
        let want = linear_forward(&x, &wq, &layer.bias().data);
        let bits_of = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits_of(&got), bits_of(&want));
    }

    #[test]
    fn export_thresholds_ascend_for_any_seed(seed in 0u64..500) {
        let mlp = QuantMlp::new(MlpConfig {
            input_dim: 8,
            hidden: vec![6],
            seed,
            ..MlpConfig::default()
        })
        .unwrap();
        let model = mlp.export().unwrap();
        for block in &model.blocks {
            for j in 0..block.out_dim {
                let row = block.threshold_row(j);
                prop_assert!(row.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn integer_inference_is_deterministic_and_bounded(
        seed in 0u64..200,
        x in proptest::collection::vec(0u32..=1, 8),
    ) {
        let mlp = QuantMlp::new(MlpConfig {
            input_dim: 8,
            hidden: vec![6],
            seed,
            ..MlpConfig::default()
        })
        .unwrap();
        let model = mlp.export().unwrap();
        let a = model.infer(&x);
        let b = model.infer(&x);
        prop_assert_eq!(a.class, b.class);
        prop_assert_eq!(&a.scores, &b.scores);
        prop_assert!(a.class < 2);
    }

    #[test]
    fn confusion_matrix_metrics_in_unit_range(
        tp in 0u64..1000, fp in 0u64..1000, tn in 0u64..1000, fn_ in 0u64..1000,
    ) {
        let cm = ConfusionMatrix { tp, fp, tn, fn_ };
        for v in [cm.precision(), cm.recall(), cm.f1(), cm.fnr(), cm.fpr(), cm.accuracy()] {
            prop_assert!((0.0..=1.0).contains(&v), "{v}");
        }
        prop_assert!((cm.recall() + cm.fnr() - 1.0).abs() < 1e-12
            || (tp + fn_) == 0);
    }
}
