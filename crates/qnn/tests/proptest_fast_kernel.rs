//! Properties of the inference (eval-mode) forward kernel.
//!
//! Eval-mode `QuantLinear::forward` runs `linear_forward`, the same
//! pinned-order kernel that training uses. These properties bound its
//! rounding against exact arithmetic and pin that a quantised layer's
//! class decision is exactly the pinned kernel's, with no tie tolerance.

use canids_qnn::layers::QuantLinear;
use canids_qnn::quant::BitWidth;
use canids_qnn::tensor::{linear_forward, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pseudo_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed | 1;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        data.push(((state >> 16) as f32 / 32768.0) - 1.0);
    }
    Matrix::from_vec(rows, cols, data)
}

/// Encoder-like integer features in `0..=63`, the domain the streaming
/// featuriser feeds the float predict path.
fn pseudo_features(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed | 1;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        data.push(((state >> 20) & 63) as f32);
    }
    Matrix::from_vec(rows, cols, data)
}

/// Same argmax convention as `QuantMlp::predict_batch`.
fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

proptest! {
    // Sequential f32 summation of `n` products plus a bias is within
    // `gamma(n + 1) * (sum |x_k w_k| + |b|)` of the exact value, with
    // `gamma(m) = m u / (1 - m u)` and `u = 2^-24`. The reference sums
    // the exactly representable f64 products; one more term of slack
    // covers its own rounding. Shapes include `k % 8` tails and
    // sub-block output counts.
    #[test]
    fn fast_kernel_error_bounded(
        rows in 1usize..6,
        out in 1usize..70,
        cols in 1usize..90,
        seed in 0u32..500,
    ) {
        let x = pseudo_matrix(rows, cols, seed);
        let w = pseudo_matrix(out, cols, seed.wrapping_add(17));
        let b: Vec<f32> = (0..out).map(|i| i as f32 * 0.01 - 0.1).collect();
        let y = linear_forward(&x, &w, &b);
        let u = f64::from(f32::EPSILON) / 2.0;
        let m = (cols + 2) as f64;
        let gamma = m * u / (1.0 - m * u);
        for r in 0..rows {
            for o in 0..out {
                let (mut exact, mut magnitude) = (f64::from(b[o]), f64::from(b[o]).abs());
                for k in 0..cols {
                    let p = f64::from(x[(r, k)]) * f64::from(w[(o, k)]);
                    exact += p;
                    magnitude += p.abs();
                }
                let got = f64::from(y[(r, o)]);
                prop_assert!(
                    (got - exact).abs() <= gamma * magnitude,
                    "{rows}x{out}x{cols} at ({r}, {o}): {got} vs exact {exact}"
                );
            }
        }
    }

    // Layer-level quantised inference: the shipped eval forward picks
    // exactly the class the pinned kernel picks over the identical
    // quantised weights, reconstructed independently from
    // `int_weights()`. Integer features make mathematical ties common;
    // one kernel means they break the same way on both sides.
    #[test]
    fn quantised_layer_argmax_matches_pinned(
        in_dim in 1usize..80,
        out_dim in 2usize..20,
        batch in 1usize..6,
        bits in 2u8..=8,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = QuantLinear::new(in_dim, out_dim, BitWidth::new(bits).unwrap(), &mut rng);
        let x = pseudo_features(batch, in_dim, seed as u32 ^ 0x5a5a);
        let eval = layer.forward(&x, false);
        let (codes, scale) = layer.int_weights();
        let wq = Matrix::from_vec(
            out_dim,
            in_dim,
            codes.iter().map(|&c| c as f32 * scale).collect(),
        );
        let pinned = linear_forward(&x, &wq, &layer.bias().data);
        for r in 0..batch {
            prop_assert_eq!(
                argmax(eval.row(r)),
                argmax(pinned.row(r)),
                "row {} of {}x{}x{} (w{})",
                r, batch, out_dim, in_dim, bits
            );
        }
    }
}
