//! Per-PR perf snapshot: times the hot substrates the ROADMAP tracks
//! (dense linear forward, cycle-accurate simulator step, streaming
//! line-rate harness, N-detector multi-model line rate, cross-ECU fleet
//! line rate, and — since PR 5 — the unified serving harness with the
//! measured-value admission contrast) and writes them as a small JSON
//! file so the per-PR perf trajectory accumulates in-tree.
//!
//! The `line_rate_harness`/`multi_line_rate`/`fleet_line_rate` sections
//! keep their historical schema (same keys, same denominators) but run
//! through the unified serving harness directly — the deprecated
//! wrappers are gone — so the perf trajectory stays comparable across
//! PRs; the `serve` section is the unified view and the `net` section
//! times the event-driven network core.
//!
//! The `linear_forward` section times the workspace's one float kernel,
//! which training and eval-mode forwards share, and the `serve` section
//! carries a `scaleout` sweep: sharded software replay capacity by
//! shard count and dispatch batch size. Since PR 9 the `serve` section
//! adds a `telemetry` subsection: deterministic per-stage sim-time
//! breakdowns (featurise/pack/infer from the software path, dma_window
//! from the batched ECU path, gateway_hop from the event-driven fleet
//! transport) captured by the in-tree telemetry probe.
//!
//! Since PR 10 the `serve` section carries a `population` subsection:
//! the multi-tenant capacity curve — how many concurrent 500 kb/s
//! tenant streams one process sustains at zero drops through the
//! population layer — plus a shed-engaged overload row where more
//! streams than pool slots forces cross-tenant admission control.
//!
//! ```sh
//! cargo run --release -p canids-bench --bin bench_summary [out.json]
//! ```
//!
//! Defaults to `BENCH_10.json` in the current directory.

use std::fmt::Write as _;

use canids_bench::untrained_model;
use canids_can::frame::{CanFrame, CanId};
use canids_can::time::SimTime;
use canids_can::timing::Bitrate;
use canids_core::deploy::{DeploymentPlan, DetectorBundle, PlanConfig};
use canids_core::fleet::{AdmissionPolicy, BoardSpec, FleetConfig, FleetPlan};
use canids_core::net::{Fault, FleetNet, NetConfig, NetSim, QueueDiscipline, Topology};
use canids_core::population::{Population, PopulationConfig, TenantAdmission, TenantStream};
use canids_core::serve::{
    EcuBackend, FleetAction, FleetTransport, ReplayConfig, ServeHarness, ServeReport,
    SoftwareBackend,
};
use canids_core::stream::LineRateScenario;
use canids_core::telemetry::{Stage, TelemetryConfig, WallClock};
use canids_core::ShardWorkers;
use canids_dataflow::folding::{auto_fold, FoldingGoal};
use canids_dataflow::graph::DataflowGraph;
use canids_dataflow::ip::CompileConfig;
use canids_dataflow::simulator::{AcceleratorSim, SimConfig};
use canids_dataset::attacks::{AttackKind, AttackProfile, BurstSchedule};
use canids_dataset::generator::{DatasetBuilder, TrafficConfig};
use canids_qnn::mlp::{MlpConfig, QuantMlp};
use canids_qnn::tensor::{linear_forward, Matrix};
use canids_soc::ecu::{EcuConfig, SchedPolicy};

fn pseudo_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed | 1;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        data.push(((state >> 16) as f32 / 32768.0) - 1.0);
    }
    Matrix::from_vec(rows, cols, data)
}

/// Median wall time of `f` in microseconds over `iters` runs. Wall time
/// is the measured quantity here, read through the telemetry crate's
/// single audited [`WallClock`] gate.
fn median_us<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = WallClock::start();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The PR number a snapshot path encodes (`BENCH_<n>.json` → `n`), so
/// `bench_summary BENCH_3.json` labels itself correctly without a
/// source edit each PR. Names not ending in `_<n>` label as 0.
fn pr_number(path: &str) -> u32 {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .and_then(|stem| stem.rsplit('_').next())
        .and_then(|tail| tail.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_10.json".to_owned());
    let pr = pr_number(&out_path);

    // 1. The ROADMAP's named hot kernel: linear_forward at the paper's
    // first-layer shape (batch 64, 75 -> 64). The seed baseline was
    // ~120 us scalar.
    let x = pseudo_matrix(64, 75, 1);
    let w = pseudo_matrix(64, 75, 2);
    let b = vec![0.1f32; 64];
    let mut sink = 0.0f32;
    let linear_us = median_us(400, || {
        let y = linear_forward(&x, &w, &b);
        // lint:allow(float-reassociation): optimiser sink defeating dead-code elimination; never reported
        sink += y.as_slice()[0];
    });

    // 2. Cycle-accurate simulator: paper model, sequential folding (the
    // heaviest fold), 20 frames — report wall us per simulated frame.
    let model = untrained_model();
    let graph = DataflowGraph::from_integer_mlp(&model).expect("paper model lowers");
    let folding = auto_fold(&graph, FoldingGoal::MinResource).expect("sequential folding");
    let sim = AcceleratorSim::new(graph, &folding, SimConfig::default()).expect("sim builds");
    let inputs: Vec<Vec<u32>> = (0..20).map(|i| vec![u32::from(i % 2 == 0); 75]).collect();
    let sim_us_total = median_us(5, || {
        let report = sim.run(&inputs);
        // lint:allow(float-reassociation): optimiser sink defeating dead-code elimination; never reported
        sink += report.total_cycles as f32;
    });
    let sim_us_per_frame = sim_us_total / inputs.len() as f64;

    // 3. Streaming line-rate harness: saturated DoS replay at classic
    // 1 Mb/s and a CAN-FD-class rate (untrained weights — the harness
    // measures serving speed, not accuracy). Scenarios run one at a
    // time here, not scenario-parallel: the snapshot should time an
    // uncontended evaluator, not thread scheduling noise. The section
    // keeps the historical schema: `offered_fps` over the last arrival
    // (captures start at the bus epoch) and `keeps_up` requiring the
    // measured service capacity to cover the offered load.
    let duration = SimTime::from_millis(400);
    let dos = Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous));
    let scenarios = [
        LineRateScenario::classic_1m("dos_1m", dos, duration),
        LineRateScenario::fd_class("dos_fd5m", dos, duration),
    ];
    let reports: Vec<_> = scenarios
        .iter()
        .map(|scenario| {
            let capture = scenario.generate_capture();
            let r = ServeHarness::new(SoftwareBackend::single(model.clone()))
                .replay(&capture, &scenario.replay_config())
                .expect("software replay");
            (scenario.name.clone(), scenario.bitrate.bits_per_sec(), r)
        })
        .collect();

    // 4. N-detector deployment engine: the acceptance fleet (DoS, fuzzy,
    // gear-spoof, RPM-spoof + one duplicate of each = 8 IPs) planned by
    // the folding-budget allocator, compiled once, then a saturated
    // 1 Mb/s DoS replay through the simulated ECU under every scheduling
    // policy. Timing here is *simulated* SoC time (driver, DMA, IRQ,
    // FIFO), so the per-policy p50/p99/drops are platform facts, not
    // host noise.
    let kinds = [
        AttackKind::Dos,
        AttackKind::Fuzzy,
        AttackKind::GearSpoof,
        AttackKind::RpmSpoof,
    ];
    let bundles: Vec<DetectorBundle> = (0..8)
        .map(|i| {
            let mlp = QuantMlp::new(MlpConfig {
                seed: 300 + i as u64,
                ..MlpConfig::paper_4bit()
            })
            .expect("paper topology");
            DetectorBundle::new(kinds[i % 4], mlp.export().expect("export"))
        })
        .collect();
    let plan =
        DeploymentPlan::build(&bundles, &PlanConfig::default()).expect("8-detector plan fits");
    let deployment = plan
        .deploy(&bundles, &CompileConfig::default(), EcuConfig::default())
        .expect("8-detector deployment compiles");
    let multi_capture = DatasetBuilder::new(TrafficConfig {
        duration,
        attack: dos,
        seed: 0x8DE7,
        ..TrafficConfig::default()
    })
    .build();
    let policies = [
        SchedPolicy::Sequential,
        SchedPolicy::RoundRobin,
        SchedPolicy::DmaBatch { batch: 32 },
        SchedPolicy::InterruptPerFrame,
    ];
    let multi_reports: Vec<_> = policies
        .iter()
        .map(|&policy| {
            ServeHarness::new(EcuBackend::new(&deployment))
                .replay(&multi_capture, &ReplayConfig::default().with_policy(policy))
                .expect("multi line-rate replay")
        })
        .collect();

    // 5. Cross-ECU fleet: the ISSUE-4 acceptance scenario — 12 detectors
    // sharded two per board over six boards of three device classes,
    // replayed through the gateway model. The DMA-batch integration
    // absorbs the saturated 1 Mb/s backbone; a per-message sequential
    // overload at 750 kb/s contrasts today's FIFO drops with the
    // shed-lowest-value admission policy (graceful degradation, zero
    // drops).
    let fleet_bundles: Vec<DetectorBundle> = (0..12)
        .map(|i| {
            let mlp = QuantMlp::new(MlpConfig {
                seed: 400 + i as u64,
                ..MlpConfig::paper_4bit()
            })
            .expect("paper topology");
            DetectorBundle::new(kinds[i % 4], mlp.export().expect("export"))
        })
        .collect();
    let fleet_config = FleetConfig::new(vec![
        BoardSpec::zcu104("zcu-a"),
        BoardSpec::zcu104("zcu-b"),
        BoardSpec::ultra96("u96-a"),
        BoardSpec::ultra96("u96-b"),
        BoardSpec::pynq_z2("pynq-a"),
        BoardSpec::pynq_z2("pynq-b"),
    ])
    .with_model_cap(2);
    let fleet_plan = FleetPlan::build(&fleet_bundles, &fleet_config).expect("fleet plan fits");
    let fleet = fleet_plan
        .deploy(&fleet_bundles, &CompileConfig::default())
        .expect("fleet compiles");
    let priorities: Vec<u32> = (0..12u32).map(|i| 100 - i).collect();
    let overload_ecu = EcuConfig {
        policy: SchedPolicy::Sequential,
        ..EcuConfig::default()
    };
    let fleet_replays = [
        (
            "dma-batch-32 @ 1M",
            ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 }),
        ),
        (
            "sequential @ 750k (drop-frames)",
            ReplayConfig {
                bitrate: Bitrate::new(750_000),
                ecu: overload_ecu,
                ..ReplayConfig::default()
            },
        ),
        (
            "sequential @ 750k (shed-lowest-value)",
            ReplayConfig {
                bitrate: Bitrate::new(750_000),
                ecu: overload_ecu,
                admission: AdmissionPolicy::ShedLowestValue {
                    priorities: priorities.clone(),
                },
                ..ReplayConfig::default()
            },
        ),
    ];
    let fleet_reports: Vec<_> = fleet_replays
        .iter()
        .map(|(label, config)| {
            (
                *label,
                ServeHarness::new(fleet.serve_backend())
                    .replay(&multi_capture, config)
                    .expect("fleet replay"),
            )
        })
        .collect();

    // 6. The event-driven network core: wall cost per scheduler event,
    // delivered frames/sec at 1 Mb/s through the 2-segment (1 board)
    // and 4-segment (3 board) backbone topologies, and flood-drop
    // counts per queue discipline on a 2-port gateway under a 50 ms
    // babbling-idiot attack.
    let gw_delay = SimTime::from_micros(20);
    let bench_frame = CanFrame::new(CanId::standard(0x100).unwrap(), &[0u8; 8]).unwrap();
    let mut net_fps = |boards: usize| -> (f64, f64) {
        let frames_per_board = 2_000u64;
        // Host wall time is the measured quantity (frames/s of the
        // simulator itself), read through the audited WallClock gate.
        let t0 = WallClock::start();
        let mut net = FleetNet::single_backbone(
            boards,
            Bitrate::HIGH_SPEED_1M,
            gw_delay,
            &NetConfig::default(),
        );
        for i in 0..frames_per_board {
            let at = SimTime::from_micros(120 * i);
            for b in 0..boards {
                // lint:allow(float-reassociation): optimiser sink defeating dead-code elimination; never reported
                sink += matches!(
                    net.deliver(b, at, bench_frame),
                    canids_core::net::NetOutcome::Delivered(_)
                ) as u32 as f32;
            }
        }
        net.finish();
        let wall = t0.elapsed().as_secs_f64();
        let events = net.sim().executed().max(1) as f64;
        (
            (frames_per_board * boards as u64) as f64 / wall,
            wall * 1e6 / events,
        )
    };
    let (net_fps_2seg, _) = net_fps(1);
    let (net_fps_4seg, net_us_per_event) = net_fps(3);
    let flood_drops = |discipline: QueueDiscipline| -> (u64, u64) {
        let mut b = Topology::builder();
        let backbone = b.segment(Bitrate::HIGH_SPEED_1M);
        let near = b.segment(Bitrate::new(125_000));
        let far = b.segment(Bitrate::HIGH_SPEED_1M);
        let gw = b.gateway(backbone, gw_delay, discipline);
        b.port(gw, near);
        b.port(gw, far);
        let near_sink = b.sink(near);
        let far_sink = b.sink(far);
        let mut sim = NetSim::new(b.build());
        sim.apply(Fault::BabblingIdiot {
            segment: backbone,
            dest: near_sink,
            start: SimTime::ZERO,
            stop: SimTime::from_millis(50),
            gap: SimTime::from_micros(120),
        });
        for i in 0..40u64 {
            let at = SimTime::from_millis(10) + SimTime::from_micros(1_000 * i);
            sim.inject(at, backbone, near_sink, bench_frame);
            sim.inject(at, backbone, far_sink, bench_frame);
        }
        sim.run();
        let loads = sim.topology().gateway_loads();
        (
            loads.iter().map(|l| l.dropped()).sum(),
            loads.iter().map(|l| l.paused).sum(),
        )
    };
    let (drop_tail_dropped, _) = flood_drops(QueueDiscipline::DropTail { capacity: 16 });
    let (pfc_dropped, pfc_paused) = flood_drops(QueueDiscipline::Pfc { quota: 16 });

    // 7. The unified serving harness (PR 5): the same substrates through
    // one ServeHarness — software / 8-detector ECU / 12-detector fleet
    // on the shared DoS capture under the DMA-batch integration.
    let serve_config = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 });
    let serve_rows: Vec<canids_core::ServeReport> = vec![
        ServeHarness::new(SoftwareBackend::single(model.clone()))
            .replay(&multi_capture, &serve_config)
            .expect("software replay"),
        ServeHarness::new(deployment.serve_backend())
            .replay(&multi_capture, &serve_config)
            .expect("ecu replay"),
        ServeHarness::new(fleet.serve_backend())
            .replay(&multi_capture, &serve_config)
            .expect("fleet replay"),
    ];

    // 7b. The deterministic telemetry core (PR 9): the same three
    // backends replayed once more with a probe attached. The software
    // path splits the fused featurise -> infer pipeline, featurise
    // encoding straight to packed bits so pack is a zero-width span (wall
    // durations through the audited WallClock gate, host timing by
    // contract); the batched ECU path profiles DMA windows and the
    // event-driven fleet transport traces per-frame gateway hops, both
    // on the virtual clock — platform facts, bit-stable across hosts.
    let traced_config = serve_config
        .clone()
        .with_telemetry(TelemetryConfig::default());
    let sw_telemetry = ServeHarness::new(SoftwareBackend::single(model.clone()))
        .replay(&multi_capture, &traced_config)
        .expect("traced software replay")
        .telemetry
        .expect("telemetry enabled");
    let ecu_telemetry = ServeHarness::new(deployment.serve_backend())
        .replay(&multi_capture, &traced_config)
        .expect("traced ecu replay")
        .telemetry
        .expect("telemetry enabled");
    let fleet_telemetry = ServeHarness::new(fleet.serve_backend())
        .replay(
            &multi_capture,
            &traced_config
                .clone()
                .with_transport(FleetTransport::EventDriven(NetConfig::default())),
        )
        .expect("traced fleet replay")
        .telemetry
        .expect("telemetry enabled");
    // (stage, source backend, stats) rows for the JSON section, one row
    // per taxonomy stage from the backend that exercises it.
    let telemetry_rows = [
        (
            "featurise",
            "software",
            sw_telemetry.stage_stats(Stage::Featurise),
        ),
        ("pack", "software", sw_telemetry.stage_stats(Stage::Pack)),
        ("infer", "software", sw_telemetry.stage_stats(Stage::Infer)),
        (
            "dma_window",
            "ecu",
            ecu_telemetry.stage_stats(Stage::DmaWindow),
        ),
        (
            "gateway_hop",
            "fleet",
            fleet_telemetry.stage_stats(Stage::GatewayHop),
        ),
        (
            "admission",
            "fleet",
            fleet_telemetry.stage_stats(Stage::Admission),
        ),
    ];

    // 8. Scale-out serving (PR 8): the saturated 1 Mb/s DoS capture
    // split into contiguous shards — parallel serving lanes, each
    // re-paced from the bus epoch — replayed on a bounded worker pool
    // with batched software dispatch. The merged `sustained_fps` is
    // aggregate capacity (total serviced over the busiest lane's busy
    // wall), so rows scale with shard count; batching amortises the
    // per-frame dispatch cost inside each lane. Each row reports the
    // best of five replays: the merged figure divides by the busiest
    // lane's wall — a worst-of-N statistic — so on a shared host a
    // single scheduler burst in any lane masks the capacity the lanes
    // actually reach, and multi-shard rows need several clean draws.
    let scale_capture = scenarios[0].generate_capture();
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let scale_combos = [(1usize, 1usize), (1, 32), (2, 32), (4, 32), (8, 32)];
    let scale_rows: Vec<_> = scale_combos
        .iter()
        .map(|&(shards, batch)| {
            let config = scenarios[0]
                .replay_config()
                .with_shards(shards)
                .with_batch(batch)
                .with_workers(ShardWorkers::Auto);
            let r = (0..5)
                .map(|_| {
                    ServeHarness::replay_sharded(
                        || Ok(SoftwareBackend::single(model.clone())),
                        &scale_capture,
                        &config,
                    )
                    .expect("sharded software replay")
                })
                .max_by(|a, b| {
                    let fps = |r: &ServeReport| r.sustained_fps.unwrap_or(0.0);
                    fps(a).total_cmp(&fps(b))
                })
                .expect("five replay attempts");
            (
                shards,
                batch,
                config.workers.count(shards),
                r.offered_fps,
                r.sustained_fps.unwrap_or(0.0),
                r.dropped,
            )
        })
        .collect();

    // 9. Population serving (PR 10): the multi-tenant capacity curve.
    // Each tenant is one vehicle's capture stream at the 500 kb/s tenant
    // default; the curve records how many concurrent streams the
    // software backend pool sustains with zero FIFO drops through the
    // population layer, and one overload row squeezes 64 live streams
    // into a 16-slot pool so cross-tenant admission control engages.
    let tenant_population = |tenants: usize| -> Population {
        Population::with_tenants(
            (0..tenants)
                .map(|k| {
                    let capture = DatasetBuilder::new(TrafficConfig {
                        duration: SimTime::from_millis(200),
                        attack: if k % 2 == 0 { dos } else { None },
                        seed: 0x7E7A + k as u64,
                        ..TrafficConfig::default()
                    })
                    .build();
                    TenantStream::new(format!("vehicle-{k}"), capture)
                })
                .collect(),
        )
    };
    let population_rows: Vec<_> = [16usize, 32, 64]
        .iter()
        .map(|&tenants| {
            let report = tenant_population(tenants)
                .serve(
                    || Ok(SoftwareBackend::single(model.clone())),
                    &PopulationConfig::default()
                        .with_replay(ReplayConfig::default().with_batch(32)),
                )
                .expect("population replay");
            (
                tenants,
                report.offered_fps,
                report.sustained_fps.unwrap_or(0.0),
                report.dropped,
            )
        })
        .collect();
    let population_overload = tenant_population(64)
        .serve(
            || Ok(SoftwareBackend::single(model.clone())),
            &PopulationConfig::default()
                .with_replay(ReplayConfig::default().with_batch(32))
                .with_admission(TenantAdmission::ShedLowestValueTenant {
                    capacity: 16,
                    window: 128,
                }),
        )
        .expect("population overload replay");

    // The value-driven admission capstone: a 2-model board under the
    // 750 kb/s sequential overload must shed one model. Model 0 fires on
    // the capture but is mislabelled lowest static value; model 1 never
    // fires (its normal-class output bias dominates every achievable
    // score). The static policy sheds the firing model, the measured
    // policy reads the verdict stream and sheds the useless one.
    let firing = {
        let pipeline = canids_core::IdsPipeline::new(canids_core::PipelineConfig::dos().quick());
        let train_capture = pipeline.generate_capture();
        pipeline
            .train(&train_capture)
            .expect("quick DoS training")
            .int_mlp
    };
    let never_firing = {
        let mut m = untrained_model();
        let dominate = 1i64 << 40;
        m.output.bias_q[0] += dominate;
        for b in m.output.bias_q.iter_mut().skip(1) {
            *b -= dominate;
        }
        m
    };
    let duo = vec![
        DetectorBundle::new(AttackKind::Dos, firing),
        DetectorBundle::new(AttackKind::Fuzzy, never_firing),
    ];
    let duo_fleet = FleetPlan::build(&duo, &FleetConfig::new(vec![BoardSpec::zcu104("solo")]))
        .expect("2-model plan fits")
        .deploy(&duo, &CompileConfig::default())
        .expect("2-model fleet compiles");
    let overload_config = ReplayConfig::default()
        .with_bitrate(Bitrate::new(750_000))
        .with_policy(SchedPolicy::Sequential);
    let static_priorities = vec![1u32, 5u32];
    let static_shed = ServeHarness::new(duo_fleet.serve_backend())
        .replay(
            &multi_capture,
            &overload_config
                .clone()
                .with_admission(AdmissionPolicy::ShedLowestValue {
                    priorities: static_priorities.clone(),
                }),
        )
        .expect("static shed replay");
    let measured_shed = ServeHarness::new(duo_fleet.serve_backend())
        .replay(
            &multi_capture,
            &overload_config
                .clone()
                .with_admission(AdmissionPolicy::ShedLowestMeasuredValue {
                    window: 256,
                    priorities: static_priorities,
                }),
        )
        .expect("measured shed replay");
    let shed_victims = |r: &canids_core::ServeReport| -> Vec<usize> {
        let mut v: Vec<usize> = r
            .events
            .iter()
            .filter(|e| e.action == FleetAction::Shed)
            .map(|e| e.model)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let static_victims = shed_victims(&static_shed);
    let measured_victims = shed_victims(&measured_shed);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": {pr},");
    let _ = writeln!(json, "  \"linear_forward_64x75x64\": {{");
    let _ = writeln!(json, "    \"median_us\": {linear_us:.3},");
    let _ = writeln!(json, "    \"seed_baseline_us\": 120.0");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"accel_sim_sequential_fold\": {{");
    let _ = writeln!(json, "    \"us_per_frame\": {sim_us_per_frame:.3},");
    let _ = writeln!(json, "    \"pr3_baseline_us_per_frame\": 38.829");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"line_rate_harness\": [");
    for (i, (name, bitrate_bps, r)) in reports.iter().enumerate() {
        // Historical denominator: the last arrival, not the span.
        let offered_fps = if r.last_arrival > SimTime::ZERO {
            r.offered as f64 / r.last_arrival.as_secs_f64()
        } else {
            0.0
        };
        let sustained_fps = r.sustained_fps.unwrap_or(0.0);
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"scenario\": \"{name}\",");
        let _ = writeln!(json, "      \"bitrate_bps\": {bitrate_bps},");
        let _ = writeln!(json, "      \"offered_fps\": {offered_fps:.1},");
        let _ = writeln!(json, "      \"sustained_fps\": {sustained_fps:.1},");
        let _ = writeln!(
            json,
            "      \"p50_latency_us\": {:.3},",
            r.latency.p50.as_micros_f64()
        );
        let _ = writeln!(
            json,
            "      \"p99_latency_us\": {:.3},",
            r.latency.p99.as_micros_f64()
        );
        let _ = writeln!(json, "      \"dropped\": {},", r.dropped);
        let _ = writeln!(
            json,
            "      \"keeps_up\": {}",
            r.dropped == 0 && sustained_fps >= offered_fps
        );
        let _ = write!(json, "    }}");
        let _ = writeln!(json, "{}", if i + 1 < reports.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"multi_line_rate\": {{");
    let _ = writeln!(json, "    \"detectors\": {},", deployment.ips.len());
    let _ = writeln!(
        json,
        "    \"plan_utilization\": {:.4},",
        deployment.plan.utilization
    );
    let _ = writeln!(json, "    \"plan_headroom\": {},", deployment.plan.headroom);
    let _ = writeln!(json, "    \"bitrate_bps\": 1000000,");
    let _ = writeln!(json, "    \"policies\": [");
    for (i, r) in multi_reports.iter().enumerate() {
        // Historical denominator: the last arrival, not the span.
        let offered_fps = if r.last_arrival > SimTime::ZERO {
            r.offered as f64 / r.last_arrival.as_secs_f64()
        } else {
            0.0
        };
        let energy = r.energy.expect("the simulated ECU meters energy");
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"policy\": \"{}\",", r.sched);
        let _ = writeln!(json, "        \"offered_fps\": {offered_fps:.1},");
        let _ = writeln!(
            json,
            "        \"p50_latency_us\": {:.3},",
            r.latency.p50.as_micros_f64()
        );
        let _ = writeln!(
            json,
            "        \"p99_latency_us\": {:.3},",
            r.latency.p99.as_micros_f64()
        );
        let _ = writeln!(json, "        \"dropped\": {},", r.dropped);
        let _ = writeln!(
            json,
            "        \"energy_per_message_mj\": {:.4},",
            energy.energy_per_message_j * 1e3
        );
        let _ = writeln!(json, "        \"keeps_up\": {}", r.keeps_up());
        let _ = write!(json, "      }}");
        let _ = writeln!(
            json,
            "{}",
            if i + 1 < multi_reports.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fleet_line_rate\": {{");
    let _ = writeln!(json, "    \"detectors\": {},", fleet.models());
    let _ = writeln!(json, "    \"boards\": {},", fleet.shards.len());
    let _ = writeln!(
        json,
        "    \"max_shard_utilization\": {:.4},",
        fleet_plan.max_utilization()
    );
    let _ = writeln!(json, "    \"replays\": [");
    for (i, (label, r)) in fleet_reports.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"scenario\": \"{label}\",");
        let _ = writeln!(json, "        \"admission\": \"{}\",", r.admission);
        let _ = writeln!(json, "        \"bitrate_bps\": {},", r.bitrate_bps);
        let _ = writeln!(json, "        \"offered_fps\": {:.1},", r.offered_fps);
        let _ = writeln!(
            json,
            "        \"p50_latency_us\": {:.3},",
            r.latency.p50.as_micros_f64()
        );
        let _ = writeln!(
            json,
            "        \"p99_latency_us\": {:.3},",
            r.latency.p99.as_micros_f64()
        );
        let _ = writeln!(json, "        \"dropped\": {},", r.dropped);
        let _ = writeln!(json, "        \"shed_events\": {},", r.shed_count());
        let _ = writeln!(
            json,
            "        \"fleet_power_w\": {:.3},",
            r.energy.expect("fleet boards meter energy").mean_power_w
        );
        let _ = writeln!(json, "        \"keeps_up\": {}", r.keeps_up());
        let _ = write!(json, "      }}");
        let _ = writeln!(
            json,
            "{}",
            if i + 1 < fleet_reports.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"net\": {{");
    let _ = writeln!(
        json,
        "    \"event_core_us_per_event\": {net_us_per_event:.4},"
    );
    let _ = writeln!(
        json,
        "    \"frames_per_sec_1m_2_segments\": {net_fps_2seg:.0},"
    );
    let _ = writeln!(
        json,
        "    \"frames_per_sec_1m_4_segments\": {net_fps_4seg:.0},"
    );
    let _ = writeln!(json, "    \"flood_drops\": {{");
    let _ = writeln!(json, "      \"drop_tail_16_dropped\": {drop_tail_dropped},");
    let _ = writeln!(json, "      \"pfc_16_dropped\": {pfc_dropped},");
    let _ = writeln!(json, "      \"pfc_16_paused\": {pfc_paused}");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"serve\": {{");
    let _ = writeln!(json, "    \"backends\": [");
    for (i, r) in serve_rows.iter().enumerate() {
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"backend\": \"{}\",", r.backend);
        let _ = writeln!(json, "        \"sched\": \"{}\",", r.sched);
        let _ = writeln!(json, "        \"admission\": \"{}\",", r.admission);
        let _ = writeln!(json, "        \"offered_fps\": {:.1},", r.offered_fps);
        let _ = writeln!(
            json,
            "        \"p50_latency_us\": {:.3},",
            r.latency.p50.as_micros_f64()
        );
        let _ = writeln!(
            json,
            "        \"p99_latency_us\": {:.3},",
            r.latency.p99.as_micros_f64()
        );
        let _ = writeln!(json, "        \"dropped\": {},", r.dropped);
        let _ = writeln!(json, "        \"keeps_up\": {}", r.keeps_up());
        let _ = write!(json, "      }}");
        let _ = writeln!(json, "{}", if i + 1 < serve_rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"scaleout\": {{");
    let _ = writeln!(json, "      \"bitrate_bps\": 1000000,");
    let _ = writeln!(json, "      \"host_cores\": {host_cores},");
    let _ = writeln!(json, "      \"rows\": [");
    for (i, (shards, batch, workers, offered, sustained, dropped)) in scale_rows.iter().enumerate()
    {
        let _ = writeln!(json, "        {{");
        let _ = writeln!(json, "          \"shards\": {shards},");
        let _ = writeln!(json, "          \"batch\": {batch},");
        let _ = writeln!(json, "          \"workers\": {workers},");
        let _ = writeln!(json, "          \"offered_fps\": {offered:.1},");
        let _ = writeln!(json, "          \"sustained_fps\": {sustained:.1},");
        let _ = writeln!(json, "          \"dropped\": {dropped}");
        let _ = write!(json, "        }}");
        let _ = writeln!(json, "{}", if i + 1 < scale_rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "      ]");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"telemetry\": {{");
    let _ = writeln!(json, "      \"stages\": [");
    for (i, (stage, source, s)) in telemetry_rows.iter().enumerate() {
        let _ = writeln!(json, "        {{");
        let _ = writeln!(json, "          \"stage\": \"{stage}\",");
        let _ = writeln!(json, "          \"source\": \"{source}\",");
        let _ = writeln!(json, "          \"count\": {},", s.count);
        let _ = writeln!(json, "          \"mean_ns\": {:.1},", s.mean_ns);
        let _ = writeln!(json, "          \"max_ns\": {}", s.max_ns);
        let _ = write!(json, "        }}");
        let _ = writeln!(
            json,
            "{}",
            if i + 1 < telemetry_rows.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "      ],");
    let _ = writeln!(
        json,
        "      \"fleet_spans\": {},",
        fleet_telemetry.spans.len()
    );
    let _ = writeln!(
        json,
        "      \"fleet_metrics_fingerprint\": \"{}\"",
        fleet_telemetry.metrics.fingerprint()
    );
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"population\": {{");
    let _ = writeln!(json, "      \"tenant_bitrate_bps\": 500000,");
    let _ = writeln!(json, "      \"capacity_curve\": [");
    for (i, (tenants, offered, sustained, dropped)) in population_rows.iter().enumerate() {
        let _ = writeln!(json, "        {{");
        let _ = writeln!(json, "          \"tenants\": {tenants},");
        let _ = writeln!(json, "          \"offered_fps\": {offered:.1},");
        let _ = writeln!(json, "          \"sustained_fps\": {sustained:.1},");
        let _ = writeln!(json, "          \"dropped\": {dropped},");
        let _ = writeln!(json, "          \"zero_drop\": {}", *dropped == 0);
        let _ = write!(json, "        }}");
        let _ = writeln!(
            json,
            "{}",
            if i + 1 < population_rows.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "      ],");
    let _ = writeln!(json, "      \"overload\": {{");
    let _ = writeln!(json, "        \"tenants\": 64,");
    let _ = writeln!(json, "        \"capacity\": 16,");
    let _ = writeln!(
        json,
        "        \"shed_events\": {},",
        population_overload.shed_count()
    );
    let _ = writeln!(
        json,
        "        \"readmits\": {},",
        population_overload.readmit_count()
    );
    let _ = writeln!(
        json,
        "        \"shed_frames\": {},",
        population_overload.shed_frames
    );
    let _ = writeln!(json, "        \"dropped\": {}", population_overload.dropped);
    let _ = writeln!(json, "      }}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"value_admission\": {{");
    let _ = writeln!(json, "      \"bitrate_bps\": 750000,");
    let _ = writeln!(json, "      \"never_firing_model\": 1,");
    let _ = writeln!(
        json,
        "      \"static_shed_victims\": [{}],",
        static_victims
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "      \"measured_shed_victims\": [{}],",
        measured_victims
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "      \"static_dropped\": {},", static_shed.dropped);
    let _ = writeln!(
        json,
        "      \"measured_dropped\": {},",
        measured_shed.dropped
    );
    let _ = writeln!(
        json,
        "      \"static_confirmed_positives\": {},",
        static_shed
            .per_model
            .iter()
            .map(|m| m.confirmed_positives)
            .sum::<usize>()
    );
    let _ = writeln!(
        json,
        "      \"measured_confirmed_positives\": {}",
        measured_shed
            .per_model
            .iter()
            .map(|m| m.confirmed_positives)
            .sum::<usize>()
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write perf snapshot");
    println!("{json}");
    eprintln!("[bench_summary] wrote {out_path} (sink {sink})");
}
