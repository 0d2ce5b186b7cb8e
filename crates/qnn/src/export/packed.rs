//! The compiled serving kernel, [`PackedMlp`].

use std::ops::{Add, Mul};

use super::{argmax_lowest, row_acc_bounds, IntegerMlp, BIAS_SHIFT};
use crate::error::QnnError;

/// An integer lane type the kernel accumulates in.
trait Lane:
    Copy
    + Default
    + PartialOrd
    + Add<Output = Self>
    + Mul<Output = Self>
    + From<bool>
    + Into<i64>
    + TryFrom<i64>
{
}

impl Lane for i16 {}
impl Lane for i32 {}

/// Accumulator and activation buffers of one lane type.
#[derive(Debug, Clone, Default)]
struct LaneBufs<T> {
    acc: Vec<T>,
    act: Vec<T>,
}

/// Reusable buffers for [`PackedMlp::infer_class`]: one scratch per
/// evaluator or worker, sized on first use and reused on every frame.
#[derive(Debug, Clone, Default)]
pub struct PackedScratch {
    i16: LaneBufs<i16>,
    i32: LaneBufs<i32>,
    scores: Vec<i64>,
}

impl PackedScratch {
    /// Empty scratch; buffers size themselves on first inference.
    pub fn new() -> Self {
        PackedScratch::default()
    }

    /// Raw class scores from the most recent
    /// [`PackedMlp::infer_class`].
    pub fn scores(&self) -> &[i64] {
        &self.scores
    }
}

/// One compiled layer.
#[derive(Debug, Clone)]
struct Layer<T> {
    out_dim: usize,
    /// `in_dim × out_dim`: column `i` is input `i`'s weight into every
    /// neuron.
    columns: Vec<T>,
    /// Thresholds per neuron (0 for the output layer).
    levels: usize,
    /// `levels × out_dim`, level-major, cumulative and clamped.
    thresholds: Vec<T>,
}

impl<T: Lane> Layer<T> {
    /// Compiles one layer given as row-major `rows` (`out_dim × in_dim`)
    /// whose inputs lie in `0..=in_levels`, and row-major `thresholds`
    /// (`out_dim × levels`, empty for the output layer).
    fn compile(
        layer: usize,
        in_dim: usize,
        out_dim: usize,
        rows: &[i32],
        in_levels: u32,
        levels: usize,
        thresholds: &[i64],
    ) -> Result<Self, QnnError> {
        expect_dim("packed layer weights", in_dim * out_dim, rows.len())?;
        expect_dim(
            "packed layer thresholds",
            out_dim * levels,
            thresholds.len(),
        )?;
        let bounds: Vec<(i64, i64)> = (0..out_dim)
            .map(|j| row_acc_bounds(&rows[j * in_dim..(j + 1) * in_dim], in_levels))
            .collect();
        let lo = bounds.iter().map(|b| b.0).fold(0, i64::min);
        let hi = bounds
            .iter()
            .map(|b| b.1 + 1)
            .fold(i64::from(in_levels), i64::max);
        let overflow = || QnnError::AccumulatorOverflow { layer, lo, hi };
        if T::try_from(lo).is_err() || T::try_from(hi).is_err() {
            return Err(overflow());
        }
        let lane = |v: i64| T::try_from(v).map_err(|_| overflow());
        let mut columns = Vec::with_capacity(in_dim * out_dim);
        for i in 0..in_dim {
            for j in 0..out_dim {
                columns.push(lane(i64::from(rows[j * in_dim + i]))?);
            }
        }
        let mut level_major = vec![T::default(); levels * out_dim];
        for (j, &(lo_j, hi_j)) in bounds.iter().enumerate() {
            let mut floor = i64::MIN;
            for (k, &t) in thresholds[j * levels..(j + 1) * levels].iter().enumerate() {
                floor = floor.max(t);
                level_major[k * out_dim + j] = lane(floor.clamp(lo_j, hi_j + 1))?;
            }
        }
        Ok(Layer {
            out_dim,
            columns,
            levels,
            thresholds: level_major,
        })
    }

    /// The weight column of input `i`.
    fn column(&self, i: usize) -> &[T] {
        &self.columns[i * self.out_dim..(i + 1) * self.out_dim]
    }

    /// `acc = Σ_{set bits i} column_i` over packed binary inputs.
    fn add_bits(&self, words: &[u64], acc: &mut [T]) {
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (a, &c) in acc.iter_mut().zip(self.column(i)) {
                    *a = *a + c;
                }
            }
        }
    }

    /// `acc = Σ_i level_i × column_i`, skipping zero levels.
    fn add_levels(&self, act: &[T], acc: &mut [T]) {
        for (i, &level) in act.iter().enumerate() {
            if level == T::default() {
                continue;
            }
            for (a, &c) in acc.iter_mut().zip(self.column(i)) {
                *a = *a + level * c;
            }
        }
    }

    /// `act_j = Σ_k [acc_j ≥ T_kj]`, branch-free across neurons.
    fn threshold(&self, acc: &[T], act: &mut Vec<T>) {
        act.clear();
        act.resize(self.out_dim, T::default());
        for k in 0..self.levels {
            let row = &self.thresholds[k * self.out_dim..(k + 1) * self.out_dim];
            for ((level, &a), &t) in act.iter_mut().zip(acc).zip(row) {
                *level = *level + T::from(a >= t);
            }
        }
    }
}

/// A compiled network in one lane type: the first layer reads bit
/// words, every later one reads the previous layer's levels, and the
/// last layer is the output.
#[derive(Debug, Clone)]
struct Net<T> {
    first: Layer<T>,
    rest: Vec<Layer<T>>,
}

impl<T: Lane> Net<T> {
    fn compile(model: &IntegerMlp) -> Result<Self, QnnError> {
        let mut layers = Vec::with_capacity(model.blocks.len() + 1);
        let mut in_levels = model.input_levels;
        for (l, b) in model.blocks.iter().enumerate() {
            let levels = b.levels as usize;
            layers.push(Layer::compile(
                l,
                b.in_dim,
                b.out_dim,
                &b.weights,
                in_levels,
                levels,
                &b.thresholds,
            )?);
            in_levels = b.levels;
        }
        let out = &model.output;
        layers.push(Layer::compile(
            model.blocks.len(),
            out.in_dim,
            out.out_dim,
            &out.weights,
            in_levels,
            0,
            &[],
        )?);
        let mut layers = layers.into_iter();
        let first = layers.next().ok_or(QnnError::EmptyTopology)?;
        Ok(Net {
            first,
            rest: layers.collect(),
        })
    }

    /// Runs the network on packed input `words`, writing the raw class
    /// scores into `scores`.
    fn scores(&self, words: &[u64], bufs: &mut LaneBufs<T>, bias_q: &[i64], scores: &mut Vec<i64>) {
        bufs.acc.clear();
        bufs.acc.resize(self.first.out_dim, T::default());
        self.first.add_bits(words, &mut bufs.acc);
        let mut prev = &self.first;
        for layer in &self.rest {
            prev.threshold(&bufs.acc, &mut bufs.act);
            bufs.acc.clear();
            bufs.acc.resize(layer.out_dim, T::default());
            layer.add_levels(&bufs.act, &mut bufs.acc);
            prev = layer;
        }
        scores.clear();
        scores.extend(
            bufs.acc
                .iter()
                .zip(bias_q)
                .map(|(&acc, &bias)| (acc.into() << BIAS_SHIFT) + bias),
        );
    }
}

/// The model compiled in its lane type.
#[derive(Debug, Clone)]
enum Lanes {
    I16(Net<i16>),
    I32(Net<i32>),
}

/// An [`IntegerMlp`] compiled into the bit-word, column-major,
/// narrow-lane serving kernel.
///
/// [`IntegerMlp::infer_class`] is the row-major reference: one `i64`
/// multiply-accumulate per weight over `u32` input levels, then a
/// per-neuron threshold scan that stops at the first miss. `PackedMlp`
/// computes the same scores the way FINN's matrix-vector-threshold
/// units do:
///
/// * **Bit-word input.** The first layer reads the frame as packed
///   `u64` words (feature `i` is bit `i % 64` of word `i / 64`). It
///   walks the set bits and adds one weight column per set bit, so a
///   binary frame costs one column add per `1` bit and no multiplies.
/// * **Columns.** Every layer stores its weights transposed: column `i`
///   holds input `i`'s weight into each neuron. A hidden layer is then
///   `acc += level_i × column_i`, contiguous over the neurons.
/// * **Narrow lanes.** Weights, accumulators, levels and thresholds
///   share one lane type for the whole model: `i16` when it holds every
///   layer's value range, else `i32`. The range of layer `l` is
///   derived from its weights and input levels, as
///   [`IntBlock::acc_bounds`](crate::export::IntBlock::acc_bounds) does. It
///   spans each neuron's accumulator bounds `[lo_j, hi_j]`, the
///   one-past-the-top threshold `hi_j + 1`, and the input levels
///   `0..=L`. Since every partial sum of a neuron's terms also lies in
///   `[lo_j, hi_j]`, no lane arithmetic can overflow. A model whose
///   range exceeds `i32` is rejected with
///   [`QnnError::AccumulatorOverflow`].
/// * **Level-major thresholds.** Each threshold is clamped to
///   `[lo_j, hi_j + 1]`; no reachable accumulator tells the clamped and
///   the exported value apart. Thresholds are then stored level-major,
///   so `level_j = Σ_k [acc_j ≥ T_kj]` runs branch-free across the
///   neurons. Per neuron they are first made cumulative (running
///   maximum). This is the identity on export's ascending rows, and
///   reproduces the reference's stop-at-first-miss scan on any other
///   row.
///
/// Output scores stay `i64` `(acc << BIAS_SHIFT) + bias_q` with the
/// reference's lowest-index tie rule, so `PackedMlp` is score-exact
/// against [`IntegerMlp::infer`] (pinned by `proptest_packed_kernel`).
///
/// # Example
///
/// ```
/// use canids_qnn::export::{PackedMlp, PackedScratch};
/// use canids_qnn::prelude::*;
///
/// let model = QuantMlp::new(MlpConfig {
///     input_dim: 8,
///     hidden: vec![4],
///     ..MlpConfig::default()
/// })?
/// .export()?;
/// let kernel = PackedMlp::new(&model)?;
/// assert_eq!(kernel.lane_bits(), 16);
/// // Features 0, 2, 4 and 5 set: bit i of word 0 is feature i.
/// let x = [1, 0, 1, 0, 1, 1, 0, 0];
/// let mut scratch = PackedScratch::new();
/// let class = kernel.infer_class(&[0b11_0101], &mut scratch);
/// assert_eq!(class, model.infer(&x).class);
/// assert_eq!(scratch.scores(), model.infer(&x).scores.as_slice());
/// # Ok::<(), canids_qnn::QnnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedMlp {
    in_dim: usize,
    bias_q: Vec<i64>,
    net: Lanes,
}

impl PackedMlp {
    /// Compiles `model` into the serving kernel.
    ///
    /// # Errors
    ///
    /// * [`QnnError::InputLevels`] when `model.input_levels != 1`: the
    ///   kernel reads binary inputs.
    /// * [`QnnError::DimensionMismatch`] when a layer's input width
    ///   differs from the previous layer's output width, or a weight,
    ///   threshold or bias vector has the wrong length.
    /// * [`QnnError::AccumulatorOverflow`] when a layer's value range
    ///   does not fit an `i32` lane.
    pub fn new(model: &IntegerMlp) -> Result<Self, QnnError> {
        if model.input_levels != 1 {
            return Err(QnnError::InputLevels(model.input_levels));
        }
        let mut width = model
            .blocks
            .first()
            .map_or(model.output.in_dim, |b| b.in_dim);
        let in_dim = width;
        for b in &model.blocks {
            expect_dim("packed layer input", width, b.in_dim)?;
            width = b.out_dim;
        }
        expect_dim("packed output input", width, model.output.in_dim)?;
        expect_dim(
            "packed output bias",
            model.output.out_dim,
            model.output.bias_q.len(),
        )?;
        let net = match Net::<i16>::compile(model) {
            Ok(net) => Lanes::I16(net),
            Err(QnnError::AccumulatorOverflow { .. }) => Lanes::I32(Net::compile(model)?),
            Err(e) => return Err(e),
        };
        Ok(PackedMlp {
            in_dim,
            bias_q: model.output.bias_q.clone(),
            net,
        })
    }

    /// Input features the first layer reads.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// `u64` words one packed input occupies: `in_dim` rounded up to
    /// whole words.
    pub fn in_words(&self) -> usize {
        self.in_dim.div_ceil(64)
    }

    /// Width of the lane type the model compiled to: 16 or 32.
    pub fn lane_bits(&self) -> u32 {
        match self.net {
            Lanes::I16(_) => 16,
            Lanes::I32(_) => 32,
        }
    }

    /// Classifies one packed input through caller-owned buffers, with
    /// the reference's lowest-index tie rule. Raw scores stay readable
    /// via [`PackedScratch::scores`] and equal
    /// [`IntegerMlp::infer`]'s.
    ///
    /// # Panics
    ///
    /// Panics when `words.len() != self.in_words()`, and may panic when
    /// a bit at or past `in_dim` is set.
    pub fn infer_class(&self, words: &[u64], scratch: &mut PackedScratch) -> usize {
        assert_eq!(words.len(), self.in_words(), "input word count mismatch");
        let scores = &mut scratch.scores;
        match &self.net {
            Lanes::I16(net) => net.scores(words, &mut scratch.i16, &self.bias_q, scores),
            Lanes::I32(net) => net.scores(words, &mut scratch.i32, &self.bias_q, scores),
        }
        argmax_lowest(scores)
    }
}

/// A [`QnnError::DimensionMismatch`] unless `expected == actual`.
fn expect_dim(context: &'static str, expected: usize, actual: usize) -> Result<(), QnnError> {
    if expected == actual {
        Ok(())
    } else {
        Err(QnnError::DimensionMismatch {
            context,
            expected,
            actual,
        })
    }
}
