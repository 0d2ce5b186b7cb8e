//! The benchmark's three workloads: inputs built from a seed, the public
//! serving call(s) each one times, and the correctness oracle that checks
//! every call's outputs.
//!
//! * `lane` — one software lane, frame-at-a-time, one trained DoS
//!   detector over a long bursty DoS capture paced at saturated 1 Mb/s.
//! * `population` — 64 tenant streams (half DoS, half clean) served by
//!   `Population::serve` on the worker pool, squeezed into 16 admission
//!   slots, batch-32 dispatch.
//! * `ecu_fleet` — the simulated SoC tiers on one multi-attacker capture:
//!   an 8-detector ECU under DMA batching, then a 12-detector 6-board
//!   fleet over the event-driven network.

use std::sync::Arc;
use std::time::{Duration, Instant};

use canids_can::frame::CanFrame;
use canids_can::time::SimTime;
use canids_can::timing::Bitrate;
use canids_core::deploy::{DeploymentPlan, DetectorBundle, MultiIdsDeployment, PlanConfig};
use canids_core::fleet::{BoardSpec, FleetConfig, FleetDeployment, FleetPlan, Slot};
use canids_core::net::NetConfig;
use canids_core::pipeline::{IdsPipeline, PipelineConfig};
use canids_core::population::{
    Population, PopulationConfig, PopulationReport, TenantAdmission, TenantStream,
};
use canids_core::serve::{
    FleetTransport, ReplayConfig, ServeBackend, ServeHarness, ServeReport, ShardWorkers,
    SoftwareBackend, Verdict,
};
use canids_core::stream::LineRateScenario;
use canids_core::CoreError;
use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
use canids_dataset::{
    multi_attacker, AttackKind, AttackProfile, BurstSchedule, Dataset, DatasetBuilder,
    FrameEncoder, IdBitsPayloadBits, TrafficConfig,
};
use canids_qnn::export::IntegerMlp;
use canids_qnn::metrics::ConfusionMatrix;
use canids_qnn::mlp::MlpConfig;
use canids_soc::ecu::{EcuConfig, SchedPolicy};

use crate::timed::{Recorder, SessionLog, Timed};

/// Simulated length of the `lane` capture.
const LANE_CAPTURE: SimTime = SimTime::from_millis(3_000);
/// Tenants in the `population` workload.
const TENANTS: usize = 64;
/// Simulated length of each tenant's capture.
const TENANT_CAPTURE: SimTime = SimTime::from_millis(1_200);
/// Simulated length of the `ecu_fleet` capture. It is short, so that one
/// call is short and the run holds many calls.
const FLEET_CAPTURE: SimTime = SimTime::from_millis(400);
/// The `ecu_fleet` attackers' bursts: 100 ms of clean traffic, 200 ms of
/// all four attacks, 100 ms clean to the end of the capture. (The
/// default schedule starts its first burst 1 s in.)
const FLEET_BURSTS: BurstSchedule = BurstSchedule::Periodic {
    initial_delay: SimTime::from_millis(100),
    on: SimTime::from_millis(200),
    off: SimTime::from_millis(200),
};

/// A workload name as the command line gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One software lane.
    Lane,
    /// 64 tenants on the worker pool.
    Population,
    /// The simulated ECU and fleet tiers.
    EcuFleet,
}

impl Kind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Kind; 3] = [Kind::Lane, Kind::Population, Kind::EcuFleet];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Lane => "lane",
            Kind::Population => "population",
            Kind::EcuFleet => "ecu_fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Derives an independent 64-bit seed for one input stream from the
/// workload seed (SplitMix64 finaliser).
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's 75-bit frame encoding as integer input levels — what the
/// serving path feeds the integer network.
pub fn encode_levels(model: &IntegerMlp, frame: &CanFrame) -> Vec<u32> {
    IdBitsPayloadBits
        .encode(frame)
        .iter()
        .map(|&f| (f.round().max(0.0) as u32).min(model.input_levels))
        .collect()
}

/// The oracle's per-model flag mask for one frame: bit `m` is set when
/// an independent `IntegerMlp::infer` of model `m` flags the frame.
fn oracle_mask(models: &[IntegerMlp], frame: &CanFrame) -> u64 {
    models.iter().enumerate().fold(0, |mask, (m, model)| {
        if model.infer(&encode_levels(model, frame)).class != 0 {
            mask | 1 << m
        } else {
            mask
        }
    })
}

/// A quickly trained paper-shape W4A4 detector for one attack, every
/// seed derived from `seed`.
pub fn train_detector(config: PipelineConfig, seed: u64) -> Result<IntegerMlp, CoreError> {
    let pipeline = IdsPipeline::new(PipelineConfig {
        seed: derive(seed, 1),
        mlp: MlpConfig {
            seed: derive(seed, 2),
            ..MlpConfig::paper_4bit()
        },
        ..config.quick()
    });
    let capture = pipeline.generate_capture();
    Ok(pipeline.train(&capture)?.int_mlp)
}

/// What one timed call produced.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Wall time of the public serving call(s).
    pub wall: Duration,
    /// Frames offered.
    pub offered: usize,
    /// Frames that received a verdict.
    pub verdicts: usize,
    /// Wall gaps between consecutive verdicts at the caller's sink, ns
    /// (empty where the public call has no sink).
    pub gaps_ns: Vec<u64>,
    /// Deterministic modelled figures, which must repeat exactly.
    pub modelled: Vec<f64>,
    /// Admission outcome of a population call.
    pub population: Option<PopulationSummary>,
    /// Modelled host capacity the reports claim, frames/s.
    pub modelled_capacity_fps: Option<f64>,
}

/// The admission outcome of one `Population::serve`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PopulationSummary {
    /// Frames that passed while their tenant was shed.
    pub shed_frames: usize,
    /// Shed events.
    pub sheds: usize,
    /// Re-admission events.
    pub readmits: usize,
}

/// The inputs of one workload, built from a seed.
pub enum Workload {
    /// See [`Lane`].
    Lane(Lane),
    /// See [`Tenants`].
    Population(Tenants),
    /// See [`EcuFleet`].
    EcuFleet(Box<EcuFleet>),
}

/// The `lane` inputs.
pub struct Lane {
    model: IntegerMlp,
    capture: Dataset,
    config: ReplayConfig,
    sink: Vec<(Instant, Verdict)>,
    expected: Vec<u64>,
}

/// The `population` inputs.
pub struct Tenants {
    model: IntegerMlp,
    population: Population,
    config: PopulationConfig,
    expected: Vec<ConfusionMatrix>,
}

/// The `ecu_fleet` inputs.
pub struct EcuFleet {
    ecu_models: Vec<IntegerMlp>,
    fleet_models: Vec<IntegerMlp>,
    deployment: MultiIdsDeployment,
    fleet: FleetDeployment,
    capture: Dataset,
    ecu_config: ReplayConfig,
    fleet_config: ReplayConfig,
    sink: Vec<(Instant, Verdict)>,
    expected: Vec<(u64, u64)>,
}

/// Time spent building each part of a workload's inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Capture synthesis.
    pub dataset: Duration,
    /// Everything: captures, training/export, plans and compilation.
    pub total: Duration,
}

impl Workload {
    /// Builds the inputs of `kind` from `seed`.
    ///
    /// # Errors
    ///
    /// Training, planning and compilation errors.
    pub fn build(kind: Kind, seed: u64) -> Result<(Workload, SetupTimes), CoreError> {
        let t0 = Instant::now();
        let mut dataset = Duration::ZERO;
        let mut synth = |f: &mut dyn FnMut() -> Dataset| {
            let t = Instant::now();
            let d = f();
            dataset += t.elapsed();
            d
        };
        let workload = match kind {
            Kind::Lane => {
                let model = train_detector(PipelineConfig::dos(), derive(seed, 10))?;
                let scenario = LineRateScenario {
                    seed: derive(seed, 11),
                    ..LineRateScenario::classic_1m("lane", Some(AttackProfile::dos()), LANE_CAPTURE)
                };
                let capture = synth(&mut || scenario.generate_capture());
                let sink = Vec::with_capacity(capture.len());
                Workload::Lane(Lane {
                    model,
                    config: scenario.replay_config(),
                    capture,
                    sink,
                    expected: Vec::new(),
                })
            }
            Kind::Population => {
                let model = train_detector(PipelineConfig::dos(), derive(seed, 20))?;
                let tenants = (0..TENANTS)
                    .map(|k| {
                        let capture = synth(&mut || {
                            DatasetBuilder::new(TrafficConfig {
                                duration: TENANT_CAPTURE,
                                attack: (k % 2 == 0).then(AttackProfile::dos),
                                seed: derive(seed, 100 + k as u64),
                                ..TrafficConfig::default()
                            })
                            .build()
                        });
                        TenantStream::new(format!("vehicle-{k}"), capture)
                            .with_bitrate(Bitrate::HIGH_SPEED_500K)
                    })
                    .collect();
                Workload::Population(Tenants {
                    model,
                    population: Population::with_tenants(tenants),
                    config: PopulationConfig::default()
                        .with_replay(ReplayConfig::default().with_batch(32))
                        .with_admission(TenantAdmission::ShedLowestValueTenant {
                            capacity: 16,
                            window: 128,
                        })
                        .with_workers(ShardWorkers::Auto),
                    expected: Vec::new(),
                })
            }
            Kind::EcuFleet => {
                let recipes = [
                    (AttackKind::Dos, PipelineConfig::dos()),
                    (AttackKind::Fuzzy, PipelineConfig::fuzzy()),
                    (AttackKind::GearSpoof, PipelineConfig::gear_spoof()),
                    (AttackKind::RpmSpoof, PipelineConfig::rpm_spoof()),
                ];
                let mut trained = Vec::with_capacity(recipes.len());
                for (i, (kind, config)) in recipes.iter().enumerate() {
                    trained.push((
                        *kind,
                        train_detector(config.clone(), derive(seed, 30 + i as u64))?,
                    ));
                }
                let bundles = |n: usize| -> Vec<DetectorBundle> {
                    (0..n)
                        .map(|i| {
                            let (kind, model) = &trained[i % trained.len()];
                            DetectorBundle::new(*kind, model.clone())
                        })
                        .collect()
                };
                let ecu_bundles = bundles(8);
                let deployment = DeploymentPlan::build(&ecu_bundles, &PlanConfig::default())?
                    .deploy(
                        &ecu_bundles,
                        &CompileConfig::default(),
                        EcuConfig::default(),
                    )?;
                let fleet_bundles = bundles(12);
                let fleet_config = FleetConfig::new(vec![
                    BoardSpec::zcu104("zcu-a"),
                    BoardSpec::zcu104("zcu-b"),
                    BoardSpec::ultra96("u96-a"),
                    BoardSpec::ultra96("u96-b"),
                    BoardSpec::pynq_z2("pynq-a"),
                    BoardSpec::pynq_z2("pynq-b"),
                ])
                .with_model_cap(2);
                let fleet = FleetPlan::build(&fleet_bundles, &fleet_config)?
                    .deploy(&fleet_bundles, &CompileConfig::default())?;
                let profiles = [
                    AttackProfile::dos(),
                    AttackProfile::fuzzy(),
                    AttackProfile::gear_spoof(),
                    AttackProfile::rpm_spoof(),
                ]
                .map(|p| AttackProfile {
                    schedule: FLEET_BURSTS,
                    ..p
                });
                let capture =
                    synth(&mut || multi_attacker(FLEET_CAPTURE, &profiles, derive(seed, 40)));
                let sink = Vec::with_capacity(capture.len());
                Workload::EcuFleet(Box::new(EcuFleet {
                    ecu_models: ecu_bundles.into_iter().map(|b| b.model).collect(),
                    fleet_models: fleet_bundles.into_iter().map(|b| b.model).collect(),
                    deployment,
                    fleet,
                    capture,
                    ecu_config: ReplayConfig::default()
                        .with_policy(SchedPolicy::DmaBatch { batch: 32 }),
                    fleet_config: ReplayConfig::default()
                        .with_transport(FleetTransport::EventDriven(NetConfig::default())),
                    sink,
                    expected: Vec::new(),
                }))
            }
        };
        let total = t0.elapsed();
        Ok((workload, SetupTimes { dataset, total }))
    }

    /// Frames one call offers.
    pub fn offered(&self) -> usize {
        match self {
            Workload::Lane(w) => w.capture.len(),
            Workload::Population(w) => w.population.tenants().iter().map(|t| t.capture.len()).sum(),
            Workload::EcuFleet(w) => 2 * w.capture.len(),
        }
    }

    /// Every capture the workload serves: the frames of the outside-in
    /// layer microtimings.
    pub fn captures(&self) -> Vec<&Dataset> {
        match self {
            Workload::Lane(w) => vec![&w.capture],
            Workload::Population(w) => w.population.tenants().iter().map(|t| &t.capture).collect(),
            Workload::EcuFleet(w) => vec![&w.capture],
        }
    }

    /// The model the layer microtimings run (the first detector on
    /// `ecu_fleet`).
    pub fn model(&self) -> &IntegerMlp {
        match self {
            Workload::Lane(w) => &w.model,
            Workload::Population(w) => &w.model,
            Workload::EcuFleet(w) => &w.ecu_models[0],
        }
    }

    /// The first compiled accelerator IP the workload serves through
    /// (`None` on the software workloads).
    pub fn ip(&self) -> Option<&AcceleratorIp> {
        match self {
            Workload::EcuFleet(w) => w.deployment.ips.first(),
            _ => None,
        }
    }

    /// Fills the oracle tables (outside every timed region).
    pub fn prepare_oracle(&mut self) {
        match self {
            Workload::Lane(w) => {
                let models = std::slice::from_ref(&w.model);
                w.expected = w
                    .capture
                    .iter()
                    .map(|r| oracle_mask(models, &r.frame))
                    .collect();
            }
            Workload::Population(w) => {
                let models = std::slice::from_ref(&w.model);
                w.expected = w
                    .population
                    .tenants()
                    .iter()
                    .map(|t| {
                        let mut cm = ConfusionMatrix::new();
                        for r in t.capture.iter() {
                            cm.record(oracle_mask(models, &r.frame) != 0, r.label.is_attack());
                        }
                        cm
                    })
                    .collect();
            }
            Workload::EcuFleet(w) => {
                w.expected = w
                    .capture
                    .iter()
                    .map(|r| {
                        (
                            oracle_mask(&w.ecu_models, &r.frame),
                            oracle_mask(&w.fleet_models, &r.frame),
                        )
                    })
                    .collect();
            }
        }
    }

    /// Runs the workload's public serving call(s) once and checks the
    /// outputs. With a recorder, every backend is wrapped in [`Timed`].
    ///
    /// # Errors
    ///
    /// A serving error, or the oracle's description of a wrong output.
    pub fn call(&mut self, recorder: Option<&Arc<Recorder>>) -> Result<Call, String> {
        let call = match self {
            Workload::Lane(w) => w.call(recorder),
            Workload::Population(w) => w.call(recorder),
            Workload::EcuFleet(w) => w.call(recorder),
        }?;
        if call.offered != self.offered() {
            return Err(format!(
                "offered {} frames, expected {}",
                call.offered,
                self.offered()
            ));
        }
        Ok(call)
    }

    /// Checks the per-verdict flags the timing wrapper captured against
    /// the oracle: every shard verdict, mapped through its session's
    /// topology to fleet model order.
    ///
    /// # Errors
    ///
    /// The first mismatch.
    pub fn check_sessions(&self, logs: &[SessionLog]) -> Result<usize, String> {
        let fleet_models: Vec<&[IntegerMlp]> = match self {
            Workload::Lane(w) => vec![std::slice::from_ref(&w.model)],
            Workload::Population(w) => vec![std::slice::from_ref(&w.model)],
            Workload::EcuFleet(w) => vec![&w.ecu_models, &w.fleet_models],
        };
        let mut checked = 0;
        for log in logs {
            let models = fleet_models
                .iter()
                .find(|m| m.len() == log.topology.models)
                .ok_or_else(|| format!("no model set with {} models", log.topology.models))?;
            let mut frames = log.frames.clone();
            frames.sort_unstable_by_key(|&(o, _)| o);
            for v in &log.shard_verdicts {
                let frame = frames
                    .binary_search_by_key(&v.ordinal, |&(o, _)| o)
                    .map(|i| frames[i].1)
                    .map_err(|_| format!("verdict for unseen frame {}", v.ordinal))?;
                let want = oracle_mask(models, &frame);
                let mut got_any = false;
                for local in 0..64 {
                    if v.active_mask & 1 << local == 0 {
                        continue;
                    }
                    let m = log
                        .topology
                        .slot_model(Slot {
                            shard: v.shard,
                            local,
                        })
                        .ok_or_else(|| format!("no model at shard {} slot {local}", v.shard))?;
                    let got = v.model_flags & 1 << local != 0;
                    got_any |= got;
                    if got != (want & 1 << m != 0) {
                        return Err(format!(
                            "frame {}: model {m} flagged {got}, oracle says {}",
                            v.ordinal, !got
                        ));
                    }
                }
                if got_any != v.flagged {
                    return Err(format!(
                        "frame {}: fused flag disagrees with masks",
                        v.ordinal
                    ));
                }
                checked += 1;
            }
        }
        Ok(checked)
    }
}

/// Appends the sink's verdict gaps to `gaps` and checks every verdict
/// against the oracle masks (`expected(ordinal)`): each consulted
/// model's flag, and the fused flag.
fn check_sink(
    sink: &[(Instant, Verdict)],
    expected: &dyn Fn(usize) -> u64,
    gaps: &mut Vec<u64>,
) -> Result<(), String> {
    for pair in sink.windows(2) {
        gaps.push(pair[1].0.duration_since(pair[0].0).as_nanos() as u64);
    }
    for (_, v) in sink {
        let want = expected(v.ordinal) & v.consulted;
        if v.consulted == 0 || v.model_flags != want || v.flagged != (want != 0) {
            return Err(format!(
                "frame {}: model flags {:#x} over consulted {:#x}, oracle {want:#x}",
                v.ordinal, v.model_flags, v.consulted
            ));
        }
    }
    Ok(())
}

/// Checks a single replay's frame conservation.
fn check_conservation(report: &ServeReport, verdicts: usize) -> Result<(), String> {
    if report.offered != report.serviced + report.dropped as usize || verdicts != report.serviced {
        return Err(format!(
            "{}: offered {} != serviced {} + dropped {} (verdicts {verdicts})",
            report.backend, report.offered, report.serviced, report.dropped
        ));
    }
    Ok(())
}

/// Replays through `backend`, wrapped in [`Timed`] when a recorder is
/// given, timing the public call only.
fn replay<B: ServeBackend>(
    backend: B,
    recorder: Option<&Arc<Recorder>>,
    capture: &Dataset,
    config: &ReplayConfig,
    sink: &mut Vec<(Instant, Verdict)>,
) -> Result<(ServeReport, Duration), String> {
    sink.clear();
    let mut stamp = |v: &Verdict| sink.push((Instant::now(), *v));
    let t0 = Instant::now();
    let report = match recorder {
        Some(rec) => {
            ServeHarness::new(Timed::new(backend, rec)).replay_with(capture, config, &mut stamp)
        }
        None => ServeHarness::new(backend).replay_with(capture, config, &mut stamp),
    };
    let wall = t0.elapsed();
    report.map(|r| (r, wall)).map_err(|e| e.to_string())
}

impl Lane {
    fn call(&mut self, recorder: Option<&Arc<Recorder>>) -> Result<Call, String> {
        let (report, wall) = replay(
            SoftwareBackend::single(self.model.clone()),
            recorder,
            &self.capture,
            &self.config,
            &mut self.sink,
        )?;
        check_conservation(&report, self.sink.len())?;
        let mut gaps = Vec::with_capacity(self.sink.len());
        check_sink(&self.sink, &|o| self.expected[o], &mut gaps)?;
        Ok(Call {
            wall,
            offered: report.offered,
            verdicts: self.sink.len(),
            gaps_ns: gaps,
            modelled: Vec::new(),
            population: None,
            modelled_capacity_fps: report.sustained_fps,
        })
    }
}

impl Tenants {
    /// `Population::serve` on `workers`, untraced — also the serial
    /// baseline of the traced run.
    pub fn serve(&self, workers: ShardWorkers) -> Result<(PopulationReport, Duration), String> {
        let config = self.config.clone().with_workers(workers);
        let t0 = Instant::now();
        let report = self
            .population
            .serve(|| Ok(SoftwareBackend::single(self.model.clone())), &config)
            .map_err(|e| e.to_string())?;
        Ok((report, t0.elapsed()))
    }

    fn call(&mut self, recorder: Option<&Arc<Recorder>>) -> Result<Call, String> {
        let (report, wall) = match recorder {
            None => self.serve(self.config.workers)?,
            Some(rec) => {
                let t0 = Instant::now();
                let report = self
                    .population
                    .serve(
                        || Ok(Timed::new(SoftwareBackend::single(self.model.clone()), rec)),
                        &self.config,
                    )
                    .map_err(|e| e.to_string())?;
                (report, t0.elapsed())
            }
        };
        self.check(&report)?;
        Ok(Call {
            wall,
            offered: report.offered,
            verdicts: report.serviced,
            gaps_ns: Vec::new(),
            modelled: Vec::new(),
            population: Some(PopulationSummary {
                shed_frames: report.shed_frames,
                sheds: report.shed_count(),
                readmits: report.readmit_count(),
            }),
            modelled_capacity_fps: report.sustained_fps,
        })
    }

    /// Conservation for every tenant, and each tenant's served flags
    /// against the oracle (whole-capture confusion matrix when nothing
    /// was dropped, otherwise its total).
    fn check(&self, report: &PopulationReport) -> Result<(), String> {
        if report.tenants.len() != self.expected.len() {
            return Err(format!("{} tenant reports", report.tenants.len()));
        }
        for (t, want) in report.tenants.iter().zip(&self.expected) {
            if !t.conserved() {
                return Err(format!(
                    "{}: offered {} != serviced {} + dropped {} + shed {}",
                    t.name, t.offered, t.serviced, t.dropped, t.shed_frames
                ));
            }
            let cm = t.serve.cm;
            let ok = if t.serve.dropped == 0 {
                cm == *want
            } else {
                cm.total() as usize == t.serve.serviced
            };
            if !ok || t.serve.offered != t.offered {
                return Err(format!(
                    "{}: confusion matrix {cm:?}, oracle {want:?}",
                    t.name
                ));
            }
        }
        Ok(())
    }
}

impl EcuFleet {
    fn call(&mut self, recorder: Option<&Arc<Recorder>>) -> Result<Call, String> {
        let mut gaps = Vec::with_capacity(2 * self.capture.len());
        let (ecu, ecu_wall) = replay(
            self.deployment.serve_backend(),
            recorder,
            &self.capture,
            &self.ecu_config,
            &mut self.sink,
        )?;
        check_conservation(&ecu, self.sink.len())?;
        check_sink(&self.sink, &|o| self.expected[o].0, &mut gaps)?;
        let ecu_verdicts = self.sink.len();
        let (fleet, fleet_wall) = replay(
            self.fleet.serve_backend(),
            recorder,
            &self.capture,
            &self.fleet_config,
            &mut self.sink,
        )?;
        // Fleet frames reach every board; one board's drop leaves a
        // verdict from the others, so conservation is per board.
        for b in &fleet.boards {
            if b.offered != b.serviced + b.dropped as usize {
                return Err(format!("fleet board {} does not conserve frames", b.board));
            }
        }
        if self.sink.len() != fleet.serviced {
            return Err(format!(
                "{} fleet verdicts for {} serviced",
                self.sink.len(),
                fleet.serviced
            ));
        }
        check_sink(&self.sink, &|o| self.expected[o].1, &mut gaps)?;
        let energy = ecu
            .energy
            .ok_or("the ECU report meters no energy")?
            .energy_per_message_j;
        Ok(Call {
            wall: ecu_wall + fleet_wall,
            offered: ecu.offered + fleet.offered,
            verdicts: ecu_verdicts + self.sink.len(),
            gaps_ns: gaps,
            modelled: vec![
                ecu.latency.p99.as_micros_f64(),
                energy * 1e3,
                fleet.latency.p99.as_micros_f64(),
            ],
            population: None,
            modelled_capacity_fps: None,
        })
    }
}

impl Workload {
    /// The population workload's inputs, for its serial baseline.
    pub fn tenants(&self) -> Option<&Tenants> {
        match self {
            Workload::Population(w) => Some(w),
            _ => None,
        }
    }
}
