//! Streaming-vs-batch equivalence — the correctness anchor of the
//! streaming serving mode — plus line-rate harness accounting.

use canids_core::prelude::*;
use canids_dataflow::ip::RegisterMap;
use canids_dataset::generator::TrafficConfig;
use canids_qnn::export::{PackedMlp, PackedScratch};
use canids_soc::run_batch_multi;

fn trained() -> TrainedDetector {
    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let capture = pipeline.generate_capture();
    pipeline.train(&capture).unwrap()
}

#[test]
fn streaming_and_batch_agree_on_every_frame() {
    let detector = trained();
    let enc = IdBitsPayloadBits;

    // Batch path: whole capture materialised, then classified.
    let (xs, ys) = detector.test_set.to_xy(&enc);
    let mut batch_preds = Vec::with_capacity(xs.len());
    let mut batch_cm = ConfusionMatrix::new();
    for (x, &y) in xs.iter().zip(&ys) {
        let pred = detector.int_mlp.infer_bits(x).class;
        batch_preds.push(pred);
        batch_cm.record(pred != 0, y != 0);
    }
    assert_eq!(
        batch_cm, detector.test_cm,
        "batch path reproduces training-time metrics"
    );

    // Streaming path: frame at a time, reused buffers, online matrix.
    let mut eval = detector.streaming_evaluator();
    let stream_preds: Vec<usize> = detector
        .test_set
        .iter()
        .map(|rec| eval.push(rec).class)
        .collect();

    assert_eq!(stream_preds, batch_preds, "identical predictions");
    assert_eq!(*eval.confusion(), batch_cm, "identical confusion matrices");
}

#[test]
fn packed_kernel_scores_equal_reference_and_accelerator_on_every_capture_frame() {
    // Score-level, not argmax: on every frame of the trained paper-shape
    // W4A4 DoS and fuzzy detectors' captures, the row-major reference
    // agrees value for value with the serving kernel, the IP's integer
    // graph, the mapped peripheral's result registers after a driver
    // call, and the classes of one DMA broadcast to both IPs.
    let pipelines = [
        IdsPipeline::new(PipelineConfig::dos().quick()),
        IdsPipeline::new(PipelineConfig::fuzzy().quick()),
    ];
    let captures: Vec<_> = pipelines.iter().map(|p| p.generate_capture()).collect();
    let models: Vec<_> = pipelines
        .iter()
        .zip(&captures)
        .map(|(p, c)| p.train(c).unwrap().int_mlp)
        .collect();
    let kernels: Vec<_> = models.iter().map(|m| PackedMlp::new(m).unwrap()).collect();
    let ips: Vec<_> = pipelines
        .iter()
        .zip(&models)
        .map(|(p, m)| p.compile(m).unwrap())
        .collect();
    let mut board = Zcu104Board::new(BoardConfig::default());
    let slots: Vec<usize> = ips
        .iter()
        .map(|ip| board.attach_accelerator(ip.clone()).unwrap())
        .collect();
    let enc = IdBitsPayloadBits;
    let mut words = [0u64; 2];
    let mut scratch = PackedScratch::new();
    for (own, capture) in captures.iter().enumerate() {
        let mut batch = FeatureBatch::new(75);
        let mut want_classes = vec![Vec::new(); models.len()];
        let mut flagged = vec![0usize; models.len()];
        for rec in capture.iter() {
            let features = enc.encode(&rec.frame);
            batch.push(&features).unwrap();
            let levels: Vec<u32> = features.iter().map(|&f| u32::from(f >= 0.5)).collect();
            let registers = pack_features(&features);
            enc.encode_bits_into(&rec.frame, &mut words);
            for (m, model) in models.iter().enumerate() {
                let reference = model.infer_bits(&features);
                let class = kernels[m].infer_class(&words, &mut scratch);
                assert_eq!(scratch.scores(), reference.scores.as_slice());
                let (ip_class, ip_scores) = ips[m].infer(&levels);
                assert_eq!(ip_scores, reference.scores);
                let rec = board.infer_packed(slots[m], &registers).unwrap();
                let out_class = board.read_accel_register(slots[m], RegisterMap::OUT_CLASS);
                assert_eq!(
                    (class, ip_class, rec.class, out_class.unwrap() as usize),
                    (
                        reference.class,
                        reference.class,
                        reference.class,
                        reference.class
                    )
                );
                for (c, &score) in reference.scores.iter().enumerate() {
                    let offset = RegisterMap::OUT_SCORE_BASE + 4 * c as u32;
                    let reg = board.read_accel_register(slots[m], offset).unwrap();
                    // The 32-bit register holds the whole score.
                    assert_eq!(i64::from(reg as i32), score);
                }
                want_classes[m].push(reference.class);
                flagged[m] += usize::from(reference.class != 0);
            }
        }
        let ip_refs: Vec<_> = ips.iter().collect();
        let cpu = *board.cpu();
        let dma = run_batch_multi(&ip_refs, &cpu, DmaConfig::default(), &batch).unwrap();
        assert_eq!(dma.classes, want_classes);
        assert!(
            flagged[own] > 0 && flagged[own] < capture.len(),
            "{} of {} frames flagged",
            flagged[own],
            capture.len()
        );
    }
}

#[test]
fn streaming_order_does_not_leak_state() {
    // Pushing the same record twice yields the same verdict: the
    // evaluator's reused buffers must be fully overwritten per frame.
    let detector = trained();
    let mut eval = detector.streaming_evaluator();
    let records: Vec<_> = detector.test_set.iter().take(20).collect();
    let first: Vec<usize> = records.iter().map(|r| eval.push(r).class).collect();
    let second: Vec<usize> = records.iter().map(|r| eval.push(r).class).collect();
    assert_eq!(first, second);
}

#[test]
fn line_rate_replay_is_conservative_and_complete() {
    let detector = trained();
    let scenarios = [
        LineRateScenario::classic_1m(
            "dos-1m",
            Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            canids_can::time::SimTime::from_millis(150),
        ),
        LineRateScenario::fd_class(
            "dos-fd",
            Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            canids_can::time::SimTime::from_millis(150),
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
        || Ok(SoftwareBackend::single(detector.int_mlp.clone())),
        &serve_scenarios,
    )
    .unwrap();
    assert_eq!(reports.len(), 2);
    for r in &reports {
        // Conservation: every offered frame is serviced or dropped.
        assert_eq!(r.serviced + r.dropped as usize, r.offered);
        assert_eq!(r.cm.total() as usize, r.serviced);
        assert!(r.latency.p50 <= r.latency.p99);
        assert!(r.latency.p99 <= r.latency.max);
        assert!(
            r.offered_fps > 1_000.0,
            "{} offers {}",
            r.scenario,
            r.offered_fps
        );
    }
    // FD-class pacing strictly raises the offered load.
    assert!(reports[1].offered_fps > reports[0].offered_fps);
    // The paper's line-rate claim, checked for real in release builds
    // (debug builds measure an unoptimised binary).
    if !cfg!(debug_assertions) {
        let classic = &reports[0];
        assert!(
            classic.keeps_up() && classic.sustained_fps.unwrap_or(0.0) >= classic.offered_fps,
            "classic CAN line rate not sustained: {:.0}/{:.0} fps, {} drops",
            classic.sustained_fps.unwrap_or(0.0),
            classic.offered_fps,
            classic.dropped
        );
    }
}

#[test]
fn ecu_streaming_session_equals_batch_processing() {
    // The SoC-level second serving mode: pushing frames one at a time
    // through an EcuStream session matches process_capture exactly.
    let detector = trained();
    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let ip = pipeline.compile(&detector.int_mlp).unwrap();
    let frames: Vec<_> = detector
        .test_set
        .iter()
        .take(200)
        .map(|r| (r.timestamp, r.frame))
        .collect();
    let enc = IdBitsPayloadBits;
    let featurize = move |f: &canids_can::frame::CanFrame| enc.encode(f);

    let mut board = Zcu104Board::new(BoardConfig::default());
    let idx = board.attach_accelerator(ip.clone()).unwrap();
    let mut batch_ecu = IdsEcu::new(board, vec![idx], EcuConfig::default());
    let batch = batch_ecu.process_capture(&frames, &featurize).unwrap();

    let mut board2 = Zcu104Board::new(BoardConfig::default());
    let idx2 = board2.attach_accelerator(ip).unwrap();
    let mut stream_ecu = IdsEcu::new(board2, vec![idx2], EcuConfig::default());
    let mut session = stream_ecu.stream();
    for &(t, f) in &frames {
        session.push(t, f, &featurize).unwrap();
    }
    let streamed = session.finish();

    assert_eq!(batch, streamed);
    assert!(!streamed.detections.is_empty());
}
