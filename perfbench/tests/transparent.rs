//! The timing wrapper is transparent: a replay through `Timed` and a
//! plain replay agree on every deterministic output, on each backend the
//! benchmark's workloads use. (Software-backend latencies come from the
//! host clock, so for that backend only the clock-free fields compare.)

use std::fmt::Write as _;

use canids_can::time::SimTime;
use canids_core::deploy::{DeploymentPlan, DetectorBundle, PlanConfig};
use canids_core::fleet::{BoardSpec, FleetConfig, FleetPlan};
use canids_core::net::NetConfig;
use canids_core::pipeline::PipelineConfig;
use canids_core::population::{
    Population, PopulationConfig, PopulationReport, TenantAdmission, TenantStream,
};
use canids_core::serve::{
    FleetTransport, ReplayConfig, ServeBackend, ServeHarness, ServeReport, SoftwareBackend, Verdict,
};
use canids_dataflow::ip::CompileConfig;
use canids_dataset::{multi_attacker, AttackKind, AttackProfile, DatasetBuilder, TrafficConfig};
use canids_perfbench::timed::{Recorder, Timed};
use canids_perfbench::workloads::train_detector;
use canids_qnn::export::IntegerMlp;
use canids_soc::ecu::{EcuConfig, SchedPolicy};

fn detector(seed: u64) -> IntegerMlp {
    train_detector(PipelineConfig::dos(), seed).expect("quick DoS training")
}

fn capture(seed: u64, attack: bool) -> canids_dataset::Dataset {
    DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(150),
        attack: attack.then(AttackProfile::dos),
        seed,
        ..TrafficConfig::default()
    })
    .build()
}

/// Every field of a replay that does not read the host clock.
fn clock_free(r: &ServeReport, verdicts: &[Verdict]) -> String {
    let mut s = format!(
        "{} {} {} {} {} {} {:?}",
        r.offered, r.serviced, r.dropped, r.flagged, r.fully_covered, r.bitrate_bps, r.cm
    );
    for m in &r.per_model {
        let _ = write!(
            s,
            "|m{} {} {} {} {:?}",
            m.model, m.consulted, m.flagged, m.confirmed_positives, m.cm
        );
    }
    for e in &r.events {
        let _ = write!(s, "|{e:?}");
    }
    for (at, flagged) in &r.verdicts {
        let _ = write!(s, "|{at:?}:{flagged}");
    }
    for v in verdicts {
        let _ = write!(
            s,
            "|v{} {:?} {} {} {:#x} {:#x} {}",
            v.ordinal, v.arrival, v.flagged, v.truth_attack, v.model_flags, v.consulted, v.boards
        );
    }
    s
}

/// Everything, including the simulated latencies, energy and verdict
/// completion times: the whole report of a simulated backend.
fn simulated(r: &ServeReport, verdicts: &[Verdict]) -> String {
    let mut s = clock_free(r, verdicts);
    let _ = write!(
        s,
        "|lat {:?} energy {:?} gw {:?}",
        r.latency,
        r.energy
            .map(|e| (e.mean_power_w.to_bits(), e.energy_per_message_j.to_bits())),
        r.gateways
    );
    for b in &r.boards {
        let _ = write!(
            s,
            "|{} {} {} {} {:?}",
            b.board, b.offered, b.serviced, b.dropped, b.latency
        );
    }
    for v in verdicts {
        let _ = write!(s, "|{:?}", v.completed_at);
    }
    s
}

/// Replays plain and wrapped; returns both outputs and the wrapper's
/// session count.
fn both<B: ServeBackend>(
    make: impl Fn() -> B,
    capture: &canids_dataset::Dataset,
    config: &ReplayConfig,
    render: fn(&ServeReport, &[Verdict]) -> String,
) -> (String, String, usize) {
    let mut plain: Vec<Verdict> = Vec::new();
    let a = ServeHarness::new(make())
        .replay_with(capture, config, &mut plain)
        .expect("plain replay");
    let recorder = Recorder::new(true);
    let mut traced: Vec<Verdict> = Vec::new();
    let b = ServeHarness::new(Timed::new(make(), &recorder))
        .replay_with(capture, config, &mut traced)
        .expect("traced replay");
    let logs = recorder.take();
    assert_eq!(logs[0].push_ns.len(), b.offered * logs[0].topology.shards());
    (render(&a, &plain), render(&b, &traced), logs.len())
}

#[test]
fn software_replay_is_transparent() {
    let model = detector(7);
    let capture = capture(8, true);
    let (plain, traced, sessions) = both(
        || SoftwareBackend::single(model.clone()),
        &capture,
        &ReplayConfig::default(),
        clock_free,
    );
    assert_eq!(plain, traced);
    assert_eq!(sessions, 1);
}

#[test]
fn ecu_replay_is_transparent() {
    let bundles = vec![
        DetectorBundle::new(AttackKind::Dos, detector(1)),
        DetectorBundle::new(AttackKind::Fuzzy, detector(2)),
    ];
    let deployment = DeploymentPlan::build(&bundles, &PlanConfig::default())
        .expect("plan fits")
        .deploy(&bundles, &CompileConfig::default(), EcuConfig::default())
        .expect("deployment compiles");
    let capture = multi_attacker(
        SimTime::from_millis(150),
        &[AttackProfile::dos(), AttackProfile::fuzzy()],
        3,
    );
    let config = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 });
    let (plain, traced, _) = both(|| deployment.serve_backend(), &capture, &config, simulated);
    assert_eq!(plain, traced);
}

#[test]
fn fleet_replay_is_transparent() {
    let bundles: Vec<DetectorBundle> = (0..4)
        .map(|i| DetectorBundle::new(AttackKind::Dos, detector(10 + i)))
        .collect();
    let fleet = FleetPlan::build(
        &bundles,
        &FleetConfig::new(vec![BoardSpec::zcu104("a"), BoardSpec::ultra96("b")]).with_model_cap(2),
    )
    .expect("fleet plan fits")
    .deploy(&bundles, &CompileConfig::default())
    .expect("fleet compiles");
    let capture = capture(4, true);
    let config =
        ReplayConfig::default().with_transport(FleetTransport::EventDriven(NetConfig::default()));
    let (plain, traced, _) = both(|| fleet.serve_backend(), &capture, &config, simulated);
    assert_eq!(plain, traced);
}

/// Every population figure that does not read the host clock.
fn population_clock_free(r: &PopulationReport) -> String {
    let mut s = format!(
        "{} {} {} {} {}",
        r.offered, r.serviced, r.dropped, r.shed_frames, r.confirmed_positives
    );
    for e in &r.events {
        let _ = write!(s, "|{e:?}");
    }
    for t in &r.tenants {
        let _ = write!(
            s,
            "|{} {} {} {} {} {} {}|{}",
            t.name,
            t.offered,
            t.serviced,
            t.dropped,
            t.shed_frames,
            t.confirmed_positives,
            t.windows,
            clock_free(&t.serve, &[])
        );
    }
    s
}

#[test]
fn population_serve_is_transparent() {
    let model = detector(5);
    let population = Population::with_tenants(
        (0..6)
            .map(|k| TenantStream::new(format!("vehicle-{k}"), capture(20 + k, k % 2 == 0)))
            .collect(),
    );
    let config = PopulationConfig::default()
        .with_replay(ReplayConfig::default().with_batch(8))
        .with_admission(TenantAdmission::ShedLowestValueTenant {
            capacity: 2,
            window: 32,
        });
    let plain = population
        .serve(|| Ok(SoftwareBackend::single(model.clone())), &config)
        .expect("plain serve");
    let recorder = Recorder::new(false);
    let traced = population
        .serve(
            || {
                Ok(Timed::new(
                    SoftwareBackend::single(model.clone()),
                    &recorder,
                ))
            },
            &config,
        )
        .expect("traced serve");
    assert_eq!(
        population_clock_free(&plain),
        population_clock_free(&traced)
    );
    assert!(plain.shed_count() > 0, "the test population must shed");
    let logs = recorder.take();
    assert_eq!(logs.len(), 6);
    let verdicts: u64 = logs.iter().map(|l| l.verdicts).sum();
    let served: usize = traced.tenants.iter().map(|t| t.serve.serviced).sum();
    assert_eq!(verdicts as usize, served);
}
