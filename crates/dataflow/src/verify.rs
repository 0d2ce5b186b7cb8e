//! Bit-exactness verification (FINN's cppsim/rtlsim gate).
//!
//! Every compiled accelerator must produce *identical* classes and scores
//! to the streamlined [`IntegerMlp`] reference for every input. The
//! compile flow runs [`verify_bit_exact`] (the dataflow graph, the
//! simulator's timing model) and [`verify_kernel_exact`] (the packed
//! kernel the IP serves frames with) on the same seeded random vectors
//! before an IP is handed to the SoC; integration tests re-run them
//! across the full stack (property-based in
//! `tests/cosim_bit_exactness.rs`).

use canids_qnn::export::{IntegerMlp, PackedMlp, PackedScratch};

use crate::error::DataflowError;
use crate::graph::DataflowGraph;

/// `samples` deterministic binary input vectors of width `dim`.
fn seeded_inputs(dim: usize, samples: usize, seed: u64) -> impl Iterator<Item = Vec<u32>> {
    let mut state = seed | 1;
    let mut next_bit = move || {
        // xorshift64* — deterministic input generator.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1 == 1
    };
    (0..samples).map(move |_| (0..dim).map(|_| u32::from(next_bit())).collect())
}

/// Compares the graph's functional model against the reference network on
/// `samples` seeded random binary inputs.
///
/// # Errors
///
/// [`DataflowError::VerificationFailed`] at the first mismatch.
///
/// # Example
///
/// ```
/// use canids_dataflow::graph::DataflowGraph;
/// use canids_dataflow::verify::verify_bit_exact;
/// use canids_qnn::prelude::*;
///
/// let mlp = QuantMlp::new(MlpConfig {
///     input_dim: 16,
///     hidden: vec![8],
///     ..MlpConfig::default()
/// })?;
/// let model = mlp.export()?;
/// let graph = DataflowGraph::from_integer_mlp(&model)?;
/// verify_bit_exact(&graph, &model, 128, 42)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify_bit_exact(
    graph: &DataflowGraph,
    model: &IntegerMlp,
    samples: usize,
    seed: u64,
) -> Result<(), DataflowError> {
    for (sample, x) in seeded_inputs(graph.input_dim(), samples, seed).enumerate() {
        let want = model.infer(&x);
        let (class, scores) = graph.compute(&x);
        if class != want.class || scores != want.scores {
            return Err(DataflowError::VerificationFailed {
                sample,
                expected: want.class,
                actual: class,
            });
        }
    }
    Ok(())
}

/// Compares the packed serving kernel's class and raw scores against the
/// reference network on the same seeded inputs [`verify_bit_exact`]
/// draws for the same `seed`.
///
/// # Errors
///
/// [`DataflowError::VerificationFailed`] at the first mismatch.
///
/// # Example
///
/// ```
/// use canids_dataflow::verify::verify_kernel_exact;
/// use canids_qnn::export::PackedMlp;
/// use canids_qnn::prelude::*;
///
/// let model = QuantMlp::new(MlpConfig::default())?.export()?;
/// verify_kernel_exact(&PackedMlp::new(&model)?, &model, 128, 42)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify_kernel_exact(
    kernel: &PackedMlp,
    model: &IntegerMlp,
    samples: usize,
    seed: u64,
) -> Result<(), DataflowError> {
    let mut words = vec![0u64; kernel.in_words()];
    let mut scratch = PackedScratch::new();
    for (sample, x) in seeded_inputs(kernel.in_dim(), samples, seed).enumerate() {
        words.fill(0);
        for (i, &bit) in x.iter().enumerate() {
            words[i / 64] |= u64::from(bit) << (i % 64);
        }
        let want = model.infer(&x);
        let class = kernel.infer_class(&words, &mut scratch);
        if class != want.class || scratch.scores() != want.scores.as_slice() {
            return Err(DataflowError::VerificationFailed {
                sample,
                expected: want.class,
                actual: class,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_qnn::prelude::*;

    fn model() -> IntegerMlp {
        QuantMlp::new(MlpConfig {
            input_dim: 12,
            hidden: vec![6],
            ..MlpConfig::default()
        })
        .unwrap()
        .export()
        .unwrap()
    }

    #[test]
    fn faithful_graph_passes() {
        let m = model();
        let g = DataflowGraph::from_integer_mlp(&m).unwrap();
        verify_bit_exact(&g, &m, 256, 7).unwrap();
    }

    #[test]
    fn corrupted_weight_is_caught() {
        let m = model();
        let mut g = DataflowGraph::from_integer_mlp(&m).unwrap();
        // Corrupt one label-select weight: scores must differ even when
        // the argmax happens to survive.
        g.label_select.weights[0] += 3;
        let err = verify_bit_exact(&g, &m, 256, 7).unwrap_err();
        assert!(matches!(err, DataflowError::VerificationFailed { .. }));
    }

    #[test]
    fn corrupted_threshold_is_caught() {
        let m = model();
        let mut g = DataflowGraph::from_integer_mlp(&m).unwrap();
        // Push every first-layer threshold far negative: all neurons fire
        // at max level, which must change some score downstream.
        for t in &mut g.mvtus[0].thresholds {
            *t = i64::MIN / 2;
        }
        let err = verify_bit_exact(&g, &m, 256, 9).unwrap_err();
        assert!(matches!(err, DataflowError::VerificationFailed { .. }));
    }

    #[test]
    fn faithful_kernel_passes_and_foreign_kernel_is_caught() {
        let m = model();
        verify_kernel_exact(&PackedMlp::new(&m).unwrap(), &m, 256, 7).unwrap();
        // A kernel compiled from a model whose first output weight moved:
        // its scores differ even when the argmax survives.
        let mut other = m.clone();
        other.output.weights[0] += 3;
        let err = verify_kernel_exact(&PackedMlp::new(&other).unwrap(), &m, 256, 7).unwrap_err();
        assert!(matches!(err, DataflowError::VerificationFailed { .. }));
    }

    #[test]
    fn deterministic_for_seed() {
        let m = model();
        let g = DataflowGraph::from_integer_mlp(&m).unwrap();
        assert_eq!(
            verify_bit_exact(&g, &m, 64, 1).is_ok(),
            verify_bit_exact(&g, &m, 64, 1).is_ok()
        );
    }
}
