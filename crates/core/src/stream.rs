//! Streaming (frame-at-a-time) evaluation and the line-rate harness.
//!
//! Every other evaluation path in this crate materialises a capture
//! before classifying it. A deployed IDS cannot: frames arrive one at a
//! time, paced by the wire, and the detector must keep up with a
//! saturated bus. This module provides that serving mode:
//!
//! * [`StreamingEvaluator`] — incremental featurisation straight into
//!   packed input bits ([`FrameEncoder::encode_bits_into`]), per-frame
//!   inference through the compiled [`PackedMlp`] kernel, and online
//!   [`ConfusionMatrix`] accounting, with all per-frame buffers reused
//!   (no per-frame allocation). [`StreamingEvaluator::push`] and the
//!   windowed [`StreamingEvaluator::push_batch`] share one classify
//!   body; the batch form optionally times its stages into a
//!   [`StagedNanos`]. The featurise stage covers encode-to-bits, so the
//!   pack stage is a recorded zero-width span. Streaming and batch
//!   evaluation produce *identical* predictions and confusion matrices
//!   on the same capture, and the kernel's scores equal
//!   [`IntegerMlp::infer`]'s — the equivalence tests pin both.
//! * [`LineRateScenario`] — canned wire-pacing scenarios (classic
//!   1 Mb/s, FD-class) that map onto the unified serving harness
//!   ([`crate::serve::ServeHarness`] with
//!   [`crate::serve::SoftwareBackend`] / [`crate::serve::EcuBackend`])
//!   via [`LineRateScenario::replay_config`].

use canids_can::time::SimTime;
use canids_can::timing::Bitrate;
use canids_dataset::attacks::AttackProfile;
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
use canids_dataset::generator::{Dataset, DatasetBuilder, TrafficConfig};
use canids_dataset::record::LabeledFrame;
use canids_qnn::export::{IntegerMlp, PackedMlp, PackedScratch};
use canids_qnn::metrics::ConfusionMatrix;
use canids_qnn::QnnError;
use canids_soc::ecu::EcuConfig;

use crate::serve::ReplayConfig;
use crate::telemetry::{Probe, Stage, WallClock};

/// Accumulated wall-clock nanoseconds per hot-path stage, filled by
/// [`StreamingEvaluator::push_batch`] when it is handed one — the
/// profiled form of the fused featurise→infer dispatch. A serving
/// session accumulates one of these per dispatch and lays the stages
/// out as consecutive telemetry spans from the service start.
///
/// Featurising encodes the frame straight into the kernel's packed
/// input bits, so there is no separate pack stage to time: the
/// [`Stage::Pack`] span is recorded with zero width, which keeps its
/// counts and the trace schema.
///
/// ```
/// let mut stages = canids_core::stream::StagedNanos::default();
/// stages.featurise += 120;
/// stages.infer += 480;
/// assert_eq!(stages.total(), 600);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagedNanos {
    /// Wall nanoseconds spent encoding frames into packed input bits.
    pub featurise: u64,
    /// Wall nanoseconds spent in the packed integer kernel.
    pub infer: u64,
}

impl StagedNanos {
    /// Total nanoseconds across the stages.
    pub fn total(&self) -> u64 {
        self.featurise + self.infer
    }

    /// Records the stages on `probe` as consecutive spans laid out from
    /// `start` on the virtual clock: featurise, a zero-width pack, then
    /// infer.
    pub fn record_from(&self, probe: &Probe, shard: u32, start: SimTime) {
        let f_end = start + SimTime::from_nanos(self.featurise);
        let i_end = f_end + SimTime::from_nanos(self.infer);
        probe.record(shard, Stage::Featurise, start, f_end);
        probe.record(shard, Stage::Pack, f_end, f_end);
        probe.record(shard, Stage::Infer, f_end, i_end);
    }
}

/// One streaming verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamVerdict {
    /// Predicted class (0 = normal).
    pub class: usize,
    /// `true` when the frame was classified as an attack.
    pub flagged: bool,
    /// Ground truth of the pushed record.
    pub truth_attack: bool,
}

impl StreamVerdict {
    /// `true` when prediction and ground truth agree.
    pub fn correct(&self) -> bool {
        self.flagged == self.truth_attack
    }
}

/// Frame-at-a-time evaluator over a streamlined integer model, served
/// by the model compiled into a [`PackedMlp`].
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::stream::StreamingEvaluator;
///
/// let report = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
/// let mut eval = StreamingEvaluator::new(report.detector.int_mlp.clone());
/// for rec in report.detector.test_set.iter() {
///     eval.push(rec);
/// }
/// // Identical to the batch test-set confusion matrix.
/// assert_eq!(*eval.confusion(), report.detector.test_cm);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEvaluator<E: FrameEncoder = IdBitsPayloadBits> {
    model: IntegerMlp,
    encoder: E,
    kernel: PackedMlp,
    words: Vec<u64>,
    scratch: PackedScratch,
    cm: ConfusionMatrix,
    frames: u64,
}

impl StreamingEvaluator<IdBitsPayloadBits> {
    /// An evaluator using the paper's 75-bit frame encoding.
    ///
    /// # Panics
    ///
    /// As [`with_encoder`](StreamingEvaluator::with_encoder).
    pub fn new(model: IntegerMlp) -> Self {
        StreamingEvaluator::with_encoder(model, IdBitsPayloadBits)
    }
}

impl<E: FrameEncoder> StreamingEvaluator<E> {
    /// An evaluator with a custom frame encoder.
    ///
    /// # Panics
    ///
    /// Panics where [`try_with_encoder`](Self::try_with_encoder) returns
    /// an error. Serving backends take that typed path instead.
    pub fn with_encoder(model: IntegerMlp, encoder: E) -> Self {
        // lint:allow(panic-in-lib): documented panic of the infallible constructor; serving opens through try_with_encoder
        Self::try_with_encoder(model, encoder).expect("model compiles to the packed kernel")
    }

    /// An evaluator with a custom frame encoder, compiling `model` into
    /// its [`PackedMlp`] serving kernel once.
    ///
    /// # Errors
    ///
    /// Any [`PackedMlp::new`] error, and
    /// [`QnnError::DimensionMismatch`] when the model's input width
    /// differs from the encoder's dimension.
    pub fn try_with_encoder(model: IntegerMlp, encoder: E) -> Result<Self, QnnError> {
        let kernel = PackedMlp::new(&model)?;
        if kernel.in_dim() != encoder.dim() {
            return Err(QnnError::DimensionMismatch {
                context: "model input vs frame encoder",
                expected: encoder.dim(),
                actual: kernel.in_dim(),
            });
        }
        Ok(StreamingEvaluator {
            model,
            encoder,
            words: vec![0; kernel.in_words()],
            kernel,
            scratch: PackedScratch::new(),
            cm: ConfusionMatrix::new(),
            frames: 0,
        })
    }

    /// Classifies one record, updating the online confusion matrix.
    ///
    /// The fused per-frame path: encode the frame into packed input
    /// bits, then run the [`PackedMlp`] kernel, through the evaluator's
    /// reusable buffers with **zero intermediate allocation**. A feature
    /// bit is set exactly when [`IntegerMlp::infer_bits`] rounds it to
    /// level 1, and the kernel's scores equal [`IntegerMlp::infer`]'s,
    /// so streaming and batch predictions are identical.
    pub fn push(&mut self, rec: &LabeledFrame) -> StreamVerdict {
        self.classify(rec, None)
    }

    /// Classifies a window of records in one call, appending one verdict
    /// per record to `out` — the batched multi-frame entry point the
    /// software serving backend drives, so per-window dispatch (call
    /// overhead, branch warm-up) amortises across the window instead of
    /// repeating per frame. Identical predictions and accounting to
    /// calling [`push`](Self::push) per record.
    ///
    /// With `stages`, the featurise (encode-to-bits) and infer stages
    /// are timed through the audited [`WallClock`] shim and their
    /// nanoseconds for the whole window accumulate there; with `None`
    /// no clock is read.
    pub fn push_batch(
        &mut self,
        recs: &[LabeledFrame],
        out: &mut Vec<StreamVerdict>,
        mut stages: Option<&mut StagedNanos>,
    ) {
        out.reserve(recs.len());
        for rec in recs {
            out.push(self.classify(rec, stages.as_deref_mut()));
        }
    }

    /// The one classify body behind [`push`](Self::push) and
    /// [`push_batch`](Self::push_batch).
    fn classify(&mut self, rec: &LabeledFrame, stages: Option<&mut StagedNanos>) -> StreamVerdict {
        let t0 = stages.is_some().then(WallClock::start);
        let lap = || t0.as_ref().map_or(0, |t| t.elapsed_nanos());
        self.encoder.encode_bits_into(&rec.frame, &mut self.words);
        let featurised = lap();
        let class = self.kernel.infer_class(&self.words, &mut self.scratch);
        if let Some(stages) = stages {
            let inferred = lap();
            stages.featurise += featurised;
            stages.infer += inferred.saturating_sub(featurised);
        }
        let flagged = class != 0;
        let truth_attack = rec.label.is_attack();
        self.cm.record(flagged, truth_attack);
        self.frames += 1;
        StreamVerdict {
            class,
            flagged,
            truth_attack,
        }
    }

    /// The online confusion matrix over everything pushed so far.
    pub fn confusion(&self) -> &ConfusionMatrix {
        &self.cm
    }

    /// Frames classified so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The wrapped model.
    pub fn model(&self) -> &IntegerMlp {
        &self.model
    }

    /// Resets the online accounting, keeping the model.
    pub fn reset(&mut self) {
        self.cm = ConfusionMatrix::new();
        self.frames = 0;
    }
}

/// One line-rate replay scenario: which capture to generate and how fast
/// to pace it.
#[derive(Debug, Clone)]
pub struct LineRateScenario {
    /// Scenario name (appears in reports and tables).
    pub name: String,
    /// Attack to inject, if any.
    pub attack: Option<AttackProfile>,
    /// Capture length.
    pub duration: SimTime,
    /// Capture seed.
    pub seed: u64,
    /// Pacing bitrate of the replay (saturated line rate).
    pub bitrate: Bitrate,
    /// Software FIFO depth before drops.
    pub queue_depth: usize,
}

impl LineRateScenario {
    /// A saturated 1 Mb/s classic-CAN scenario.
    pub fn classic_1m(name: &str, attack: Option<AttackProfile>, duration: SimTime) -> Self {
        LineRateScenario {
            name: name.to_owned(),
            attack,
            duration,
            seed: 0x11E,
            bitrate: Bitrate::HIGH_SPEED_1M,
            queue_depth: 64,
        }
    }

    /// A CAN-FD-class scenario: classic frames paced at a 5 Mb/s data
    /// rate — the arbitration-phase format is unchanged, only the
    /// offered frame rate scales.
    pub fn fd_class(name: &str, attack: Option<AttackProfile>, duration: SimTime) -> Self {
        LineRateScenario {
            name: name.to_owned(),
            attack,
            duration,
            seed: 0x5FD,
            bitrate: Bitrate::new(5_000_000),
            queue_depth: 64,
        }
    }

    /// Synthesises this scenario's capture — the single recipe both
    /// parallel [`crate::serve::ServeHarness::sweep`] runs and
    /// sequential replays (e.g. the perf-snapshot driver) use.
    pub fn generate_capture(&self) -> Dataset {
        DatasetBuilder::new(TrafficConfig {
            duration: self.duration,
            attack: self.attack,
            seed: self.seed,
            ..TrafficConfig::default()
        })
        .build()
    }
}

/// A host-contention caveat for scenario-parallel replays: present when
/// the host has fewer cores than scenarios (wall-clock service times
/// then include scheduler time-sharing), absent otherwise.
pub fn contention_note(scenario_count: usize) -> Option<String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores < scenario_count).then(|| {
        format!(
            "note: {scenario_count} scenarios time-shared {cores} core(s); tail latencies and \
             drops include host scheduling contention (bench_summary records the uncontended, \
             sequential numbers)"
        )
    })
}

/// The unified replay configuration a [`LineRateScenario`] maps to:
/// saturated pacing at the scenario's bitrate, software FIFO at the
/// scenario's queue depth.
impl LineRateScenario {
    /// This scenario as a [`ReplayConfig`] for the serving harness.
    pub fn replay_config(&self) -> ReplayConfig {
        ReplayConfig {
            bitrate: self.bitrate,
            ecu: EcuConfig {
                queue_depth: self.queue_depth,
                ..EcuConfig::default()
            },
            ..ReplayConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_dataset::attacks::BurstSchedule;
    use canids_dataset::features::FrameEncoder;
    use canids_qnn::mlp::{MlpConfig, QuantMlp};
    use canids_soc::ecu::SchedPolicy;

    use crate::serve::{CaptureSource, EcuBackend, ServeHarness, ServeScenario, SoftwareBackend};

    fn untrained_model() -> IntegerMlp {
        QuantMlp::new(MlpConfig::paper_4bit())
            .unwrap()
            .export()
            .unwrap()
    }

    fn quick_capture(attack: bool, seed: u64) -> Dataset {
        DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(200),
            attack: attack.then(|| AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            seed,
            ..TrafficConfig::default()
        })
        .build()
    }

    #[test]
    fn streaming_matches_batch_exactly() {
        let model = untrained_model();
        let capture = quick_capture(true, 3);
        // Batch path: materialise features, then classify.
        let enc = IdBitsPayloadBits;
        let (xs, ys) = capture.to_xy(&enc);
        let mut batch_cm = ConfusionMatrix::new();
        let mut batch_preds = Vec::with_capacity(xs.len());
        for (x, &y) in xs.iter().zip(&ys) {
            let pred = model.infer_bits(x).class;
            batch_preds.push(pred);
            batch_cm.record(pred != 0, y != 0);
        }
        // Streaming path: one record at a time.
        let mut eval = StreamingEvaluator::new(model.clone());
        let stream_preds: Vec<usize> = capture.iter().map(|rec| eval.push(rec).class).collect();
        assert_eq!(stream_preds, batch_preds, "identical predictions");
        assert_eq!(*eval.confusion(), batch_cm, "identical confusion matrix");
        assert_eq!(eval.frames(), capture.len() as u64);
    }

    #[test]
    fn verdicts_carry_truth_and_correctness() {
        let model = untrained_model();
        let capture = quick_capture(true, 4);
        let mut eval = StreamingEvaluator::new(model);
        for rec in capture.iter().take(50) {
            let v = eval.push(rec);
            assert_eq!(v.truth_attack, rec.label.is_attack());
            assert_eq!(v.correct(), v.flagged == rec.label.is_attack());
            assert_eq!(v.flagged, v.class != 0);
        }
    }

    #[test]
    fn reset_clears_accounting_but_keeps_model() {
        let model = untrained_model();
        let capture = quick_capture(false, 5);
        let mut eval = StreamingEvaluator::new(model);
        for rec in capture.iter().take(10) {
            eval.push(rec);
        }
        assert_eq!(eval.frames(), 10);
        eval.reset();
        assert_eq!(eval.frames(), 0);
        assert_eq!(eval.confusion().total(), 0);
        assert_eq!(eval.model().layer_dims()[0], (75, 64));
    }

    #[test]
    fn line_rate_replay_accounts_every_frame() {
        let model = untrained_model();
        let capture = quick_capture(true, 6);
        let scenario = LineRateScenario::classic_1m("dos-1m", None, SimTime::from_millis(200));
        let report = ServeHarness::new(SoftwareBackend::single(model))
            .replay(&capture, &scenario.replay_config())
            .unwrap();
        assert_eq!(report.offered, capture.len());
        assert_eq!(report.serviced + report.dropped as usize, report.offered);
        assert_eq!(report.cm.total() as usize, report.serviced);
        assert!(report.offered_fps > 1_000.0, "saturated 1 Mb/s pacing");
        assert!(report.latency.p50 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.max);
        assert!(report.latency.max > SimTime::ZERO);
        // Release builds comfortably sustain classic-CAN line rate; debug
        // builds are not a performance statement, so only gate there.
        if !cfg!(debug_assertions) {
            assert!(
                report.keeps_up() && report.sustained_fps.unwrap_or(0.0) >= report.offered_fps,
                "sustained {:.0} fps vs offered {:.0} fps, dropped {}",
                report.sustained_fps.unwrap_or(0.0),
                report.offered_fps,
                report.dropped
            );
        }
    }

    #[test]
    fn sweep_runs_scenarios_in_parallel_and_in_order() {
        let model = untrained_model();
        let scenarios = [
            LineRateScenario::classic_1m("normal-1m", None, SimTime::from_millis(120)),
            LineRateScenario::fd_class(
                "dos-fd",
                Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
                SimTime::from_millis(120),
            ),
        ];
        let serve_scenarios: Vec<ServeScenario<'_>> = scenarios
            .iter()
            .map(|s| ServeScenario {
                name: s.name.clone(),
                source: CaptureSource::Generate(TrafficConfig {
                    duration: s.duration,
                    attack: s.attack,
                    seed: s.seed,
                    ..TrafficConfig::default()
                }),
                config: s.replay_config(),
            })
            .collect();
        let reports = ServeHarness::sweep(
            || Ok(SoftwareBackend::single(model.clone())),
            &serve_scenarios,
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].scenario, "normal-1m");
        assert_eq!(reports[1].scenario, "dos-fd");
        assert_eq!(reports[0].bitrate_bps, 1_000_000);
        assert_eq!(reports[1].bitrate_bps, 5_000_000);
        for r in &reports {
            assert!(r.offered > 0);
            assert_eq!(r.serviced + r.dropped as usize, r.offered);
        }
        // FD-class pacing offers a strictly higher frame rate.
        assert!(reports[1].offered_fps > reports[0].offered_fps);
    }

    #[test]
    fn multi_line_rate_accounts_every_frame_per_policy() {
        use crate::deploy::{deploy_multi_ids, DetectorBundle};
        use canids_dataflow::ip::CompileConfig;
        use canids_dataset::attacks::AttackKind;

        let capture = quick_capture(true, 9);
        let bundles = vec![
            DetectorBundle::new(AttackKind::Dos, untrained_model()),
            DetectorBundle::new(AttackKind::Fuzzy, {
                QuantMlp::new(MlpConfig {
                    seed: 5,
                    ..MlpConfig::paper_4bit()
                })
                .unwrap()
                .export()
                .unwrap()
            }),
        ];
        let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
        let mut flagged_baseline: Option<usize> = None;
        for policy in [SchedPolicy::RoundRobin, SchedPolicy::DmaBatch { batch: 32 }] {
            let report = ServeHarness::new(EcuBackend::new(&deployment))
                .replay(
                    &capture,
                    &ReplayConfig::default()
                        .with_policy(policy)
                        .with_bitrate(Bitrate::HIGH_SPEED_1M),
                )
                .unwrap();
            assert_eq!(report.sched, policy.label());
            assert_eq!(report.per_model.len(), 2);
            assert_eq!(report.offered, capture.len());
            assert_eq!(report.serviced + report.dropped as usize, report.offered);
            assert!(report.offered_fps > 1_000.0, "saturated pacing");
            assert!(report.latency.p50 <= report.latency.p99);
            assert!(report.latency.p99 <= report.latency.max);
            assert!(report.energy.expect("ECU meters energy").mean_power_w > 0.0);
            // Scheduling changes timing, never classification: with zero
            // drops the flagged count is policy-invariant.
            if report.dropped == 0 {
                match flagged_baseline {
                    None => flagged_baseline = Some(report.flagged),
                    Some(f) => assert_eq!(report.flagged, f, "{}", policy.label()),
                }
            }
        }
    }

    #[test]
    fn custom_encoder_dimension_respected() {
        use canids_can::frame::CanFrame;
        #[derive(Clone, Copy)]
        struct TinyEncoder;
        impl FrameEncoder for TinyEncoder {
            fn dim(&self) -> usize {
                4
            }
            fn encode(&self, frame: &CanFrame) -> Vec<f32> {
                let id = frame.id().base_id();
                (0..4).map(|i| f32::from((id >> i) & 1)).collect()
            }
        }
        let model = QuantMlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![4],
            ..MlpConfig::default()
        })
        .unwrap()
        .export()
        .unwrap();
        let capture = quick_capture(false, 7);
        let mut eval = StreamingEvaluator::with_encoder(model, TinyEncoder);
        for rec in capture.iter().take(20) {
            eval.push(rec);
        }
        assert_eq!(eval.frames(), 20);
    }
}
